"""Dynamic data-race detection over execution traces.

Uses the exact fork-join happens-before of :func:`repro.interp.trace.concurrent`:
two field accesses race iff they target the same (node, field), at least one
is a write, and their dynamic contexts sit in different branches of the same
dynamic ``par``.  Because the relation is schedule-independent for fork-join
programs, one execution suffices to decide racefreeness of the program *on
that input tree*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..lang import ast as A
from ..trees.heap import Tree
from .interpreter import run
from .trace import Event, Trace, concurrent

__all__ = ["RacePair", "find_races", "program_races_on"]


@dataclass(frozen=True)
class RacePair:
    """Two conflicting concurrent accesses."""

    first: Event
    second: Event

    @property
    def node(self) -> str:
        return self.first.node

    @property
    def field(self) -> str:
        return self.first.name

    def __str__(self) -> str:
        f, s = self.first, self.second
        where = f"node {f.node or 'root'}.{f.name}"
        return (
            f"race on {where}: {f.kind} by {f.sid or 'cond'} || "
            f"{s.kind} by {s.sid or 'cond'}"
        )


def find_races(trace: Trace, include_vars: bool = False) -> List[RacePair]:
    """All racing pairs in a trace (field accesses; vars optional)."""
    races: List[RacePair] = []
    events = [
        e
        for e in trace.events
        if e.target == "field" or (include_vars and e.target == "var")
    ]
    # Group by accessed cell to keep the pairwise scan near-linear.  The
    # key uses node *identity* (Event.node_key), not the path string:
    # materializing every event's path would cost O(events * depth) on
    # deep trees before a single race is found.
    by_cell: dict = {}
    for e in events:
        by_cell.setdefault((e.target, e.node_key, e.name), []).append(e)
    for cell_events in by_cell.values():
        for i in range(len(cell_events)):
            a = cell_events[i]
            for j in range(i + 1, len(cell_events)):
                b = cell_events[j]
                if not (a.is_write or b.is_write):
                    continue
                if concurrent(a.context, b.context):
                    races.append(RacePair(a, b))
    return races


def program_races_on(
    program: A.Program,
    tree: Tree,
    args: Sequence[int] = (),
) -> List[RacePair]:
    """Run the program once on ``tree`` itself and report its races.

    The run writes the tree's fields: pass a copy to keep them."""
    result = run(program, tree, args=args, record_events=True, inplace=True)
    return find_races(result.trace)
