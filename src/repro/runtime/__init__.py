"""Resilient solver runtime: resource governance, failure taxonomy, faults.

See DESIGN.md §7 ("Failure semantics & resource governance").
"""

from . import faults
from .errors import (
    DeadlineExceeded,
    MemoryCeilingExceeded,
    ReproError,
    ResourceExhausted,
    SolverInternalError,
    StateBudgetExceeded,
    exhaustion_status,
)
from .guard import ResourceGuard

__all__ = [
    "ReproError",
    "ResourceExhausted",
    "DeadlineExceeded",
    "StateBudgetExceeded",
    "MemoryCeilingExceeded",
    "SolverInternalError",
    "exhaustion_status",
    "ResourceGuard",
    "faults",
]
