"""Periodic open/close epidemic control toolkit.

Exact cycle dynamics and scheduling (core), area-under-curve cost comparison
of cycle orders (costs), delay-kernel case-fatality estimation (cfr), public
case-data ingestion (series), and a reporting command line (cli).
"""

from .core import (
    CO,
    CUSTOM,
    DEFAULT_GAMMA,
    OC,
    Phase,
    PhaseSchedule,
    Segment,
    StrategyParams,
    Trajectory,
    average_rt,
    phase_lengths,
    solve_trajectory,
    swap_cycle,
)
from .costs import (
    CostReport,
    auc_numeric,
    auc_trapezoid,
    cost_co,
    cost_const,
    cost_oc,
    cost_ratio,
    new_cases_over_window,
)
from .cfr import (
    CfrModel,
    cfr_from_params,
    fit as fit_cfr,
    parameter_cvs,
    predict_deaths,
)
from .series import (
    DailySeries,
    IngestReport,
    active_cases,
    difference,
    ingest_report,
    moving_average,
    parse_jhu_timeseries,
    read_long_csv,
    read_long_json,
    window,
    write_long_csv,
    write_long_json,
)
from .cli import ValidationReport

__version__ = "0.1.0"
