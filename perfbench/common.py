"""Shared pieces of the benchmark: one operation's record, the workload
interface, and the statistics every workload reports."""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass
class Op:
    """One checked operation: a query, an oracle check or a status check."""

    latency_s: float
    #: ``"miss"`` — answered by solving; ``"hit"`` — answered from a
    #: result cache; ``"check"`` — a verification step, not timed work.
    cls: str
    ok: bool
    label: str
    error: Optional[str] = None
    #: Whether the latency counts toward the latency percentiles (a
    #: workload keeps them to one cost class).
    percentile: bool = True
    extra: Dict[str, object] = field(default_factory=dict)
    #: ``time.perf_counter()`` when a timed query began; the runner turns
    #: ``latency_s`` into reference seconds over ``[start, start +
    #: latency_s]`` (see ``speed.py``).
    start: float = 0.0


class Workload:
    """What ``run.py`` needs from a workload.

    ``prepare`` does the deterministic set-up (imports and the inputs of
    ``passes`` passes, from the seed); ``run_pass`` runs one pass's fixed
    query set and returns one :class:`Op` per query.  A pass never raises
    for a failed query: the failure is an ``Op`` with ``ok=False``.
    """

    name = ""
    #: Rough seconds of one pass; ``--seconds`` is turned into a fixed
    #: number of passes with it, so a run's work does not depend on timing.
    nominal_pass_s = 1.0
    #: Set-up runs in fresh processes (imports cannot be repeated in one).
    setup_in_fresh_process = True
    #: Concurrent request threads (the span-coverage denominator).
    threads = 1
    #: Timed work runs in this process's main thread, so the host-speed
    #: probe samples the very thread doing it (``speed.py``).
    speed_probe = True

    def prepare(self, seed: int, passes: int) -> None:
        raise NotImplementedError

    def start(self, seed: int, samples: int) -> List[float]:
        """Set up ``samples`` times in place; only for workloads whose
        set-up is not a fresh-process import (the daemon)."""
        raise NotImplementedError

    def verify(self) -> List[Op]:
        """Oracle checks that run once per run, outside the timed passes."""
        return []

    def trace_targets(self) -> List[tuple]:
        return []

    def run_pass(self, index: int) -> List[Op]:
        raise NotImplementedError

    def cpu_s(self) -> float:
        """CPU seconds of this process and its reaped children."""
        me = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime

    def layer_metrics(self, ops: List[Op]) -> Dict[str, float]:
        return {}

    def final_checks(self) -> List[Op]:
        """Checks after the last pass (e.g. the daemon's own counters)."""
        return []

    def final_layer_metrics(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        pass


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(samples: Sequence[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive method)."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def geomean(samples: Sequence[float]) -> float:
    return math.exp(sum(math.log(s) for s in samples) / len(samples))


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped descendant."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0
