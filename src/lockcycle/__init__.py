"""Periodic open/close epidemic control toolkit.

Exact cycle dynamics and scheduling (core), area-under-curve cost comparison
of cycle orders (costs), delay-kernel case-fatality estimation (cfr), public
case-data ingestion (series), the two-cycle snapshot validation (validation),
and a command line that parses, calls and renders (cli).

Only the numpy-free core and costs modules load with the package.  cfr and
series are registered as lazy modules that execute (and import numpy) on
first attribute access, and the names they export, like ValidationReport from
validation, resolve on first use.  So the closed-form commands never load
numpy.
"""

import sys as _sys
from importlib import import_module as _import_module, util as _util

# core and costs need only the standard library; their __all__ is the
# package's eager export list.
from .core import *  # noqa: F403
from .costs import *  # noqa: F403
from . import core, costs

__version__ = "0.1.0"


def _lazy_submodule(name):
    fullname = "%s.%s" % (__name__, name)
    module = _sys.modules.get(fullname)
    if module is None:
        spec = _util.find_spec(fullname)
        spec.loader = _util.LazyLoader(spec.loader)
        module = _util.module_from_spec(spec)
        _sys.modules[fullname] = module
        spec.loader.exec_module(module)
    return module


cfr = _lazy_submodule("cfr")
series = _lazy_submodule("series")

# Exports of the lazy modules and of validation, resolved by __getattr__ on first use.
_DEFERRED = {
    "cfr": ("CfrModel", "fit_cfr", "parameter_cvs", "predict_deaths"),
    "series": ("DailySeries", "active_cases", "difference", "ingest_report",
               "moving_average", "parse_jhu_timeseries", "read_long_csv",
               "read_long_json", "window"),
    "validation": ("ValidationReport",),
}
_ORIGIN = {name: module for module, names in _DEFERRED.items() for name in names}

__all__ = [*core.__all__, *costs.__all__, *_ORIGIN]


def __getattr__(name):
    if name in ("cli", "validation"):
        return _import_module("." + name, __name__)
    if name not in _ORIGIN:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = _import_module("." + _ORIGIN[name], __name__)
    value = getattr(module, "fit" if name == "fit_cfr" else name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, "cli", "validation"})
