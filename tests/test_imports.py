"""The package and its command line import nothing heavier than numpy."""

import os
import subprocess
import sys

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))


def test_import_pulls_in_no_scipy_or_requests():
    code = ("import sys, lockcycle, lockcycle.cli; "
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'requests'))))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
