"""Schedulers for the interleaving semantics of ``{A || B}``.

A scheduler picks which live parallel branch executes its next atomic block.
``all_schedules`` exhaustively enumerates interleavings (used to test
data-race verdicts on small trees), ``RandomScheduler`` samples them.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, List, Optional, Sequence

__all__ = [
    "Scheduler",
    "LeftFirst",
    "RoundRobin",
    "RandomScheduler",
    "ReplayScheduler",
    "all_schedules",
    "distinct_outcomes",
    "program_schedule_outcomes",
    "ScheduleLimitExceeded",
]


class ScheduleLimitExceeded(RuntimeError):
    """More interleavings than an enumeration's ``max_schedules``."""


class Scheduler:
    """Base: choose the branch index (from ``live``) to step next.

    ``picks_first`` declares that ``choose`` always returns ``live[0]``;
    the interpreter then skips materializing the live list each pick,
    which keeps deep-tree runs (frontiers of 10^5 threads) linear.
    """

    picks_first = False

    def choose(self, live: Sequence[int]) -> int:
        raise NotImplementedError


class LeftFirst(Scheduler):
    """Run the leftmost live branch to completion first (sequentialization)."""

    picks_first = True

    def choose(self, live: Sequence[int]) -> int:
        return live[0]


class RoundRobin(Scheduler):
    """Alternate among live branches, one atomic block at a time."""

    def __init__(self) -> None:
        self._last = -1

    def choose(self, live: Sequence[int]) -> int:
        later = [i for i in live if i > self._last]
        pick = later[0] if later else live[0]
        self._last = pick
        return pick


class RandomScheduler(Scheduler):
    """Seeded uniformly random interleaving."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)

    def choose(self, live: Sequence[int]) -> int:
        return self._rng.choice(list(live))


class ReplayScheduler(Scheduler):
    """Replay a recorded decision sequence; fall back to left-first."""

    def __init__(self, decisions: Sequence[int]) -> None:
        self.decisions = list(decisions)
        self._i = 0
        self.recorded: List[int] = []

    def choose(self, live: Sequence[int]) -> int:
        if self._i < len(self.decisions) and self.decisions[self._i] in live:
            pick = self.decisions[self._i]
        else:
            pick = live[0]
        self._i += 1
        self.recorded.append(pick)
        return pick


class _TrackingScheduler(Scheduler):
    """Follows a prefix of decisions, recording branch-point fan-out."""

    def __init__(self, prefix: Sequence[int]) -> None:
        self.prefix = list(prefix)
        self._i = 0
        self.decisions: List[int] = []
        self.fanout: List[List[int]] = []

    def choose(self, live: Sequence[int]) -> int:
        live = list(live)
        if self._i < len(self.prefix):
            pick = self.prefix[self._i]
            if pick not in live:
                pick = live[0]
        else:
            pick = live[0]
        self._i += 1
        self.decisions.append(pick)
        self.fanout.append(live)
        return pick


def all_schedules(
    run_with: Callable[[Scheduler], object],
    max_schedules: int = 10_000,
) -> Iterator[object]:
    """Enumerate every interleaving by DFS over scheduler decision points.

    ``run_with`` executes the program under the given scheduler and returns
    an arbitrary outcome object.  Yields one outcome per distinct schedule.
    """
    stack: List[List[int]] = [[]]
    count = 0
    while stack:
        prefix = stack.pop()
        sched = _TrackingScheduler(prefix)
        outcome = run_with(sched)
        count += 1
        if count > max_schedules:
            raise ScheduleLimitExceeded(f"more than {max_schedules} schedules")
        yield outcome
        # Fork on the first decision point at or after the prefix where
        # alternatives remain unexplored.
        for k in range(len(sched.decisions) - 1, len(prefix) - 1, -1):
            chosen = sched.decisions[k]
            for alt in sched.fanout[k]:
                if alt > chosen:
                    stack.append(sched.decisions[:k] + [alt])


def distinct_outcomes(
    run_with: Callable[[Scheduler], object],
    key: Optional[Callable[[object], object]] = None,
    max_schedules: int = 10_000,
) -> List[object]:
    """All schedule outcomes, deduplicated by ``key`` (default: identity)."""
    seen = {}
    for outcome in all_schedules(run_with, max_schedules):
        k = key(outcome) if key else outcome
        if k not in seen:
            seen[k] = outcome
    return list(seen.values())


def program_schedule_outcomes(
    program,
    tree,
    fields: Sequence[str] = (),
    max_schedules: int = 240,
    sample_seeds: Sequence[int] = (0, 1, 2, 3, 4),
):
    """Distinct observable outcomes of ``program`` on ``tree`` across
    interleavings: ``(outcome_keys, exhaustive)``.

    An outcome key is the returned tuple plus a canonical snapshot of
    every field the final heap carries.  Interleavings are enumerated
    exhaustively via :func:`all_schedules` up to ``max_schedules``; when
    the schedule space is larger, falls back to left-first, round-robin
    and ``sample_seeds`` random schedules and reports ``exhaustive=
    False``.  A race-free program must yield exactly one key — the
    conformance oracle uses this as the interpreter-level ground truth
    for ``race-free`` verdicts.
    """
    from .interpreter import run  # local: interpreter imports this module

    def outcome(sched: Scheduler):
        r = run(program, tree, scheduler=sched, record_events=False)
        snap = r.field_snapshot(list(fields)) if fields else {}
        canon = tuple(
            (path, tuple(sorted(vals.items())))
            for path, vals in sorted(snap.items())
        )
        return (r.returns, canon)

    # Only the cap falls back to sampling: any other error from a run
    # (a resource limit, a nil dereference) is the caller's to see.
    try:
        keys = set(all_schedules(outcome, max_schedules=max_schedules))
        return sorted(keys), True
    except ScheduleLimitExceeded:
        keys = {outcome(LeftFirst()), outcome(RoundRobin())}
        keys.update(outcome(RandomScheduler(seed=s)) for s in sample_seeds)
        return sorted(keys), False
