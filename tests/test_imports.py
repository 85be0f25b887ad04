"""The import contract, checked in fresh interpreters.

The package loads only its numpy-free core and costs modules and exports
their names.  series is plain Python too, and cfr is a lazy module, so every
command but fit-cfr and validate runs without numpy.  Nothing heavier than
numpy is ever imported.
"""

import contextlib
import io
import os
import subprocess
import sys

import pytest

from lockcycle.cli import main

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


def python(*args):
    proc = subprocess.run([sys.executable, *args], env=ENV,
                          capture_output=True, text=True, check=True)
    return proc.stdout, proc.stderr


def loaded(prefixes, setup):
    code = ("import sys\n%s\n"
            "print(' '.join(sorted(m for m in sys.modules "
            "if m.split('.')[0] in %r)))" % (setup, prefixes))
    return python("-c", code)[0].split()


def test_import_pulls_in_no_scipy_or_requests():
    assert loaded(("scipy", "requests"), "import lockcycle, lockcycle.cli") == []


@pytest.mark.parametrize("command", ["schedule", "compare-costs", "simulate", "ingest"])
@pytest.mark.parametrize("fmt", [[], ["--format", "json"], ["--format", "csv"]])
def test_commands_that_fit_nothing_never_load_numpy(command, fmt):
    setup = ("import contextlib, io\nfrom lockcycle.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert main(%r) == 0" % [command, *fmt])
    assert loaded(("numpy",), setup) == []


def test_ingest_to_a_file_never_loads_numpy(tmp_path):
    setup = ("import contextlib, io\nfrom lockcycle.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert main(%r) == 0" % ["ingest", "--out", str(tmp_path / "x.csv")])
    assert loaded(("numpy",), setup) == []
    assert (tmp_path / "x.csv").read_text().startswith("date,kind,value\n")


@pytest.mark.parametrize("command", ["fit-cfr", "validate"])
def test_fitting_commands_load_numpy(command):
    # the control for the tests above: the check sees numpy where it loads
    setup = ("import contextlib, io\nfrom lockcycle.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert main(%r) == 0" % [command])
    assert "numpy" in loaded(("numpy",), setup)


@pytest.mark.parametrize("command", ["schedule", "compare-costs"])
def test_closed_form_commands_never_load_hashlib(command):
    # only the snapshot checksums need it
    setup = ("import contextlib, io\nfrom lockcycle.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert main(%r) == 0" % [command])
    assert loaded(("hashlib", "_hashlib"), setup) == []


def test_cli_import_registers_every_layer():
    # A tracer that wraps each layer's __all__ functions reads the layers
    # from sys.modules right after importing lockcycle.cli.
    code = ("import inspect, sys, lockcycle.cli\n"
            "for layer in ('core', 'costs', 'cfr', 'series'):\n"
            "    module = sys.modules['lockcycle.' + layer]\n"
            "    functions = [n for n in module.__all__\n"
            "                 if inspect.isfunction(getattr(module, n))]\n"
            "    print(layer, len(functions))")
    counts = dict(line.split() for line in python("-c", code)[0].splitlines())
    assert set(counts) == {"core", "costs", "cfr", "series"}
    assert all(int(n) > 0 for n in counts.values())


def test_exports_are_their_submodules_objects():
    code = ("import lockcycle\n"
            "from lockcycle import cfr, cli, core, costs, series, validation\n"
            "origin = {}\n"
            "for mod in (core, costs, cfr, series, validation, cli):\n"
            "    for name in dir(mod):\n"
            "        origin.setdefault(name, (mod, name))\n"
            "for name in lockcycle.__all__:\n"
            "    mod, attr = origin[name]\n"
            "    assert getattr(lockcycle, name) is getattr(mod, attr), name\n"
            "assert set(lockcycle.__all__) <= set(dir(lockcycle))\n"
            "submodules = {'cfr', 'cli', 'core', 'costs', 'series', 'validation'}\n"
            "assert submodules <= set(dir(lockcycle))\n"
            "try:\n"
            "    lockcycle.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)")
    out = python("-c", code)[0]
    assert out.strip() == "module 'lockcycle' has no attribute 'no_such_name'"


def test_package_exports_never_load_the_cli():
    code = ("import sys, lockcycle\n"
            "for name in lockcycle.__all__:\n"
            "    getattr(lockcycle, name)\n"
            "print('lockcycle.cli' in sys.modules)")
    assert python("-c", code)[0].strip() == "False"


@pytest.mark.parametrize("module", ["lockcycle", "lockcycle.cli"])
def test_python_dash_m_matches_the_entry_point(module):
    expected = io.StringIO()
    with contextlib.redirect_stdout(expected):
        assert main(["schedule", "--format", "json"]) == 0
    out, err = python("-m", module, "schedule", "--format", "json")
    assert out == expected.getvalue()
    assert err == ""
