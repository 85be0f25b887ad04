"""The import contract, checked in fresh interpreters.

The package loads only its numpy-free core and costs modules and exports
their names.  series, validation and cfr are lazy modules, so schedule,
compare-costs and simulate run none of them, ingest and fit-cfr leave
validation unrun, and every command but fit-cfr and validate runs without
numpy, as does costs on plain samples.  No command loads
dataclasses or inspect, and nothing heavier than numpy is ever imported.
"""

import contextlib
import importlib
import io
import os
import runpy
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
def test_commands_that_fit_nothing_never_load_numpy_or_dataclasses(command, fmt):
    # a lazy layer that has not run yet is still of the lazy loader's type
    code = ("import contextlib, io, sys, types\nfrom lockcycle.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(%r) == 0\n"
            "print(*sorted(m for m in sys.modules\n"
            "              if m.split('.')[0] in ('numpy', 'dataclasses', 'inspect', 'csv')))\n"
            "print(*(n for n in ('lockcycle.series', 'lockcycle.validation')\n"
            "        if type(sys.modules[n]) is types.ModuleType))" % [command, *fmt])
    heavy, ran = (line.split() for line in python("-c", code)[0].splitlines())
    if command == "ingest":  # it parses the snapshot with csv
        assert heavy == ["csv"]
        assert ran == ["lockcycle.series"]
    else:
        assert heavy == (["csv"] if "csv" in fmt else [])
        assert ran == []


def test_ingest_to_a_file_never_loads_numpy(tmp_path):
    setup = ("import contextlib, io\nfrom lockcycle.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert main(%r) == 0" % ["ingest", "--out", str(tmp_path / "x.csv")])
    assert loaded(("numpy",), setup) == []
    assert (tmp_path / "x.csv").read_text().startswith("date,kind,value\n")


def test_costs_of_plain_samples_never_load_numpy():
    setup = ("from lockcycle.costs import auc_numeric, new_cases_over_window\n"
             "for make in (list, tuple):\n"
             "    samples = make([0.0, 1.0, 2.0]), make([5.0, 7.0, 6.0])\n"
             "    assert auc_numeric(samples) == 12.5\n"
             "    new_cases_over_window(samples, 0.1)")
    assert loaded(("numpy",), setup) == []


@pytest.mark.parametrize("command", ["fit-cfr", "validate"])
def test_fitting_commands_load_numpy(command):
    # the control for the tests above: the check sees numpy where it loads
    setup = ("import contextlib, io\nfrom lockcycle.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    assert main(%r) == 0" % [command])
    assert "numpy" in loaded(("numpy",), setup)


@pytest.mark.parametrize("command", ["fit-cfr", "validate"])
@pytest.mark.parametrize("fmt", [[], ["--format", "json"], ["--format", "csv"]])
def test_only_validate_runs_validation(command, fmt):
    # fit-cfr reads its window from series; validation stays a lazy stub
    code = ("import contextlib, io, sys, types\nfrom lockcycle.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(%r) == 0\n"
            "print(type(sys.modules['lockcycle.validation']) is types.ModuleType)"
            % [command, *fmt])
    assert python("-c", code)[0].strip() == str(command == "validate")


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


def test_traced_layer_functions_are_exported():
    # The tracer wraps only __all__ functions and skips a missing name, so a
    # renamed or deleted function would zero its per-layer metric silently.
    # These four names are already gone from the library.
    tracing = runpy.run_path(os.path.join(SRC, os.pardir, "perfbench", "tracing.py"))
    names = {n for spans in tracing["TIME_METRICS"].values() for n in spans}
    names |= set(tracing["COUNTERS"])
    missing = set()
    for name in names:
        layer, _, function = name.partition(".")
        if layer in tracing["LAYERS"] and function:
            if function not in importlib.import_module("lockcycle." + layer).__all__:
                missing.add(name)
    assert missing <= {"series.write_long_csv", "series.write_long_json",
                       "series.moving_average", "cfr.parameter_cvs"}


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
