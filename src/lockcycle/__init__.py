"""Periodic open/close epidemic control toolkit.

Exact cycle dynamics and scheduling (core), area-under-curve cost comparison
of cycle orders (costs), delay-kernel case-fatality estimation (cfr), public
case-data ingestion (series), the two-cycle snapshot validation (validation),
and a command line that parses, calls and renders (cli).

The package exports the names of the numpy-free core and costs modules,
which load with it.  series, validation and cfr are registered as lazy
modules: each is in sys.modules from the start but runs only on first
attribute access.  cfr is the only module that imports numpy.  cli loads
when it is imported.  The names of cfr, series, validation and cli are
imported from their own modules.  So schedule, simulate and compare-costs
run only core, costs and cli, and only the commands that fit, fit-cfr and
validate, load numpy.
"""

import sys as _sys
from importlib import util as _util

# core and costs need only the standard library; their __all__ is the
# package's export list.
from .core import *  # noqa: F403
from .costs import *  # noqa: F403
from . import core, costs

__version__ = "0.1.0"

__all__ = [*core.__all__, *costs.__all__]


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


series = _lazy_submodule("series")
validation = _lazy_submodule("validation")
cfr = _lazy_submodule("cfr")
