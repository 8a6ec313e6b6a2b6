"""The Engine protocol and the three backends, looked up by name.

Every backend answers the same two questions — :class:`~repro.engine.
query.RaceQuery` and :class:`~repro.engine.query.EquivalenceQuery` —
through one interface: ``get_engine(name).bind(query)`` returns the
rung runner the plans (:mod:`repro.engine.plan`) drive.  ``mso``'s
runner takes ``(solver, guard)`` and is only ever run through
:func:`~repro.engine.plan.run_symbolic`; the scope engines' runners
take ``(scope, guard)``.  The interpreter also exposes its evidence
searches, which the conformance oracle and ``on_trees=`` call directly.

Every engine's counterexamples are concrete, checkable evidence.  What
a *clean* verdict is worth is each engine's ``complete_for``:
``"all-trees"`` (the MSO pipeline decides over every tree),
``"scope"`` (exhaustive up to the query's bound), or
``"scope-sampled"`` (the interpreter's seeded valuations — clean means
"no evidence found", not a proof).  The cache (:mod:`repro.engine.
cache`) reads it to decide which stored clean verdicts are reusable.
The set of engines is fixed: :func:`get_engine` / :func:`known_engines`
read one name → engine table.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .query import EquivalenceQuery, RaceQuery

__all__ = [
    "Engine",
    "SymbolicEngine",
    "BoundedEngine",
    "InterpEngine",
    "InterpVerdict",
    "get_engine",
    "known_engines",
]


@dataclass
class InterpVerdict:
    """The interpreter's engine-native verdict (dynamic evidence)."""

    found: bool
    evidence: Optional[str] = None
    witness: Optional[object] = None  # dynamic evidence carries no tree

    def __str__(self) -> str:
        return self.evidence or "no dynamic evidence on scope"


class Engine(abc.ABC):
    """One verification backend, looked up by name."""

    name: str
    complete_for: str  # "all-trees" | "scope" | "scope-sampled"

    @abc.abstractmethod
    def bind(self, query) -> Callable:
        """A rung runner for ``query``: ``mso`` returns
        ``(solver, guard) -> SymbolicVerdict``; the scope engines return
        ``(scope, guard) -> verdict`` with ``.found``/``.witness``."""


class SymbolicEngine(Engine):
    """The paper's MSO/automata pipeline — decides over *all* trees."""

    name = "mso"
    complete_for = "all-trees"

    def bind(self, query) -> Callable:
        from ..core.symbolic import check_conflict_mso, check_data_race_mso

        if query.kind == "race":
            return lambda solver, guard: check_data_race_mso(
                query.program, solver=solver, guard=guard
            )
        return lambda solver, guard: check_conflict_mso(
            query.program, query.program2, query.mapping,
            solver=solver, guard=guard,
        )


class BoundedEngine(Engine):
    """Exhaustive over every tree shape up to the query's scope."""

    name = "bounded"
    complete_for = "scope"

    def bind(self, query) -> Callable:
        from ..core.bounded import check_conflict_bounded, check_data_race_bounded

        if query.kind == "race":
            return lambda scope, guard: check_data_race_bounded(
                query.program, max_internal=scope, guard=guard
            )
        return lambda scope, guard: check_conflict_bounded(
            query.program, query.program2, query.mapping,
            max_internal=scope, guard=guard,
        )


class InterpEngine(Engine):
    """Dynamic evidence: happens-before race detection, schedule-outcome
    enumeration and concrete divergence on every in-scope tree under
    seeded field valuations.  Clean means "no evidence found" — the
    valuations are sampled — so it is ``complete_for="scope-sampled"``
    and its clean verdicts are never cache-reusable.

    The race searches run a *value-blind* program (no branch compares a
    value, see :func:`repro.interp.value_blind`) once per tree: every
    valuation of one tree gives it the same accesses, so the others
    would only repeat the first run's races.
    """

    name = "interp"
    complete_for = "scope-sampled"

    #: Default seeded valuations and schedule cap (the oracle overrides
    #: these per-config).
    field_seeds: Tuple[int, ...] = (0, 7, 13)
    schedule_cap: int = 240
    value_range: Tuple[int, int] = (0, 5)

    def _valuations(self, query, scope, field_seeds, trees=None,
                    guard=None, first_only=False):
        """(work, seed, fields) triples to check; each ``work`` is a fresh
        copy holding the valuation, the one copy a run may mutate.

        With ``trees=`` the caller supplies concrete input trees instead
        of the scope enumeration; each is tried *as given* first (seed
        ``None`` — its fields are meaningful data, e.g. a game tree's
        static values) and then under the seeded valuations.  A
        ``guard`` is checked once per scope tree, as the bounded engine
        does.  With ``first_only`` each tree yields only its first
        valuation, and no copy is made for the others.
        """
        fields = query.fields()
        seeds = tuple(field_seeds if field_seeds is not None
                      else self.field_seeds)
        if trees is not None:
            seeds = (None,) + (seeds if fields else ())
        else:
            from ..core.bounded import default_scope

            trees = default_scope(scope if scope is not None else query.scope)
        for tree in trees:
            if guard is not None:
                guard.check_now("interp")
            for seed in seeds[:1] if first_only else seeds:
                yield self._valued(tree, seed, fields), seed, fields

    def _valued(self, tree, seed, fields):
        """A copy of ``tree`` under valuation ``seed`` (``None``: as given)."""
        from ..trees.generators import assign_fields

        work = tree.clone()
        if seed is not None and fields:
            assign_fields(work, fields, seed=seed, value_range=self.value_range)
        return work

    @staticmethod
    def _describe_tree(work) -> str:
        """Short tree description for evidence strings — never the full
        path list, which is O(n * depth) text on large user trees."""
        size = work.size
        if size <= 8:
            return f"tree {work.paths() or ['(root)']}"
        return f"tree with {size} nodes"

    def race_evidence(self, query: RaceQuery, scope: Optional[int] = None,
                      field_seeds: Optional[Tuple[int, ...]] = None,
                      guard=None) -> Optional[str]:
        """A concrete race on some in-scope tree/valuation, or None.

        The fork-join happens-before relation is schedule-independent,
        so one run per (tree, valuation) decides racefreeness on that
        input; a value-blind program gets one run per tree, under the
        first seed, which is the seed the evidence would name anyway.
        """
        from ..interp import program_races_on, value_blind

        for work, seed, _fields in self._valuations(
            query, scope, field_seeds, guard=guard,
            first_only=value_blind(query.program),
        ):
            races = program_races_on(query.program, work)
            if races:
                return (
                    f"{self._describe_tree(work)} seed {seed}: {races[0]}"
                )
        return None

    def first_race(self, query: RaceQuery, trees,
                   field_seeds: Optional[Tuple[int, ...]] = None):
        """First dynamic race on user-supplied trees, structured.

        Returns ``(tree_index, seed, work, race)`` — the index into
        ``trees``, the valuation seed (``None`` = fields as given), the
        input under that valuation as it was before the racing run, and
        the :class:`~repro.interp.races.RacePair` — or ``None``.  A
        value-blind program runs each tree as given only: a race there
        is the first one the seeded runs would have reported, and no
        race there means none under any valuation.
        """
        from ..interp import program_races_on, value_blind

        first_only = value_blind(query.program)
        for i, tree in enumerate(trees):
            for work, seed, fields in self._valuations(
                query, None, field_seeds, trees=[tree], first_only=first_only
            ):
                races = program_races_on(query.program, work)
                if races:
                    # The run mutated ``work``; the witness is a fresh copy.
                    return i, seed, self._valued(tree, seed, fields), races[0]
        return None

    def schedule_divergence(self, query: RaceQuery,
                            scope: Optional[int] = None,
                            field_seeds: Optional[Tuple[int, ...]] = None,
                            schedule_cap: Optional[int] = None
                            ) -> Optional[str]:
        """A tree/valuation where interleavings yield different outcomes."""
        from ..interp import program_schedule_outcomes

        cap = schedule_cap if schedule_cap is not None else self.schedule_cap
        for work, seed, fields in self._valuations(query, scope, field_seeds):
            keys, exhaustive = program_schedule_outcomes(
                query.program, work, fields=fields, max_schedules=cap
            )
            if len(keys) > 1:
                how = "exhaustive" if exhaustive else "sampled"
                return (
                    f"tree {work.paths() or ['(root)']} seed {seed}: "
                    f"{len(keys)} distinct outcomes across {how} schedules"
                )
        return None

    def concrete_divergence(self, query: EquivalenceQuery,
                            scope: Optional[int] = None,
                            field_seeds: Optional[Tuple[int, ...]] = None,
                            guard=None) -> Optional[str]:
        """A scope tree/valuation where the two programs observably
        differ under the deterministic left-first schedule."""
        from ..interp import run

        for base, seed, fields in self._valuations(
            query, scope, field_seeds, guard=guard
        ):
            ra = run(query.program, base)
            rb = run(query.program2, base, inplace=True)
            if ra.returns != rb.returns:
                return (
                    f"tree {base.paths() or ['(root)']} seed {seed}: "
                    f"returns {ra.returns} vs {rb.returns}"
                )
            if fields and ra.field_snapshot(fields) != rb.field_snapshot(fields):
                return (
                    f"tree {base.paths() or ['(root)']} seed {seed}: "
                    "heap states differ"
                )
        return None

    def bind(self, query) -> Callable:
        evidence = (
            self.race_evidence if query.kind == "race"
            else self.concrete_divergence
        )

        def runner(scope, guard):
            ev = evidence(query, scope=scope, guard=guard)
            return InterpVerdict(found=ev is not None, evidence=ev)

        return runner


# ----------------------------------------------------------------------
# The engine table


_ENGINES: Dict[str, Engine] = {
    engine.name: engine
    for engine in (SymbolicEngine(), BoundedEngine(), InterpEngine())
}


def get_engine(name: str) -> Engine:
    engine = _ENGINES.get(name)
    if engine is None:
        raise ValueError(
            f"unknown engine {name!r}; known engines: "
            f"{', '.join(known_engines())}"
        )
    return engine


def known_engines() -> List[str]:
    return sorted(_ENGINES)
