"""Concrete execution semantics for Retreet (interpreter, schedules, races)."""

from .interpreter import ExecutionError, Result, run, value_blind
from .races import RacePair, find_races, program_races_on
from .reference import run_reference
from .schedules import (
    LeftFirst,
    RandomScheduler,
    ReplayScheduler,
    RoundRobin,
    Scheduler,
    all_schedules,
    distinct_outcomes,
    program_schedule_outcomes,
)
from .trace import Ctx, Event, Iteration, Trace, concurrent

__all__ = [
    "ExecutionError", "Result", "run", "run_reference", "value_blind",
    "RacePair", "find_races", "program_races_on",
    "LeftFirst", "RandomScheduler", "ReplayScheduler", "RoundRobin",
    "Scheduler", "all_schedules", "distinct_outcomes",
    "program_schedule_outcomes",
    "Ctx", "Event", "Iteration", "Trace", "concurrent",
]
