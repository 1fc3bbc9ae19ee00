"""Scheduling games: exact schedulers, equilibrium checks, and stability
measures under coalition deviations."""

from .core import (
    BudgetExceededError,
    IdenticalInstance,
    LoadProfile,
    Schedule,
    UnrelatedInstance,
    ValidationError,
    canonical_form,
    load_profile,
    parse_rational,
)
from .equilibria import (
    Deviation,
    enumerate_profitable_deviations,
    is_nash,
    is_strong,
    profitable_deviation,
)
from .measures import (
    MeasureReport,
    check_flower,
    deviation_stats,
    ir_min,
    measure_report,
    structural_report,
)
from .schedulers import (
    PtasConfig,
    lex_min_assignment,
    list_schedule,
    lpt,
    optimal_makespan,
    ptas,
)

__all__ = [
    "BudgetExceededError",
    "Deviation",
    "IdenticalInstance",
    "LoadProfile",
    "MeasureReport",
    "PtasConfig",
    "Schedule",
    "UnrelatedInstance",
    "ValidationError",
    "canonical_form",
    "check_flower",
    "deviation_stats",
    "enumerate_profitable_deviations",
    "ir_min",
    "is_nash",
    "is_strong",
    "lex_min_assignment",
    "list_schedule",
    "load_profile",
    "lpt",
    "measure_report",
    "optimal_makespan",
    "parse_rational",
    "profitable_deviation",
    "ptas",
    "structural_report",
]
