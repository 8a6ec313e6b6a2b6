"""The Engine protocol and the three backends, looked up by name.

Every backend answers the same two questions — :class:`~repro.engine.
query.RaceQuery` and :class:`~repro.engine.query.EquivalenceQuery` —
through one interface::

    verdict = get_engine("mso").run(query)        # EngineVerdict

and declares :class:`Capabilities` saying what its verdicts are worth:

* ``sound_for`` — query kinds whose *counterexample* verdicts can be
  trusted (all three engines only report concrete, checkable evidence);
* ``complete_for`` — what a *clean* verdict quantifies over:
  ``"all-trees"`` (the MSO pipeline decides over every tree),
  ``"scope"`` (exhaustive up to the query's bound), or
  ``"scope-sampled"`` (the interpreter's seeded valuations — clean
  means "no evidence found", not a proof).

The cache (:mod:`repro.engine.cache`) reads these declarations to
decide which stored verdicts are reusable.  The set of engines is
fixed: :func:`get_engine` / :func:`known_engines` read one name →
engine table, and the plans (:mod:`repro.engine.plan`) name the
engines they run.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..runtime import ResourceGuard
from .query import EquivalenceQuery, Limits, RaceQuery

__all__ = [
    "Capabilities",
    "EngineVerdict",
    "Engine",
    "SymbolicEngine",
    "BoundedEngine",
    "InterpEngine",
    "InterpVerdict",
    "get_engine",
    "known_engines",
]


@dataclass(frozen=True)
class Capabilities:
    """What one engine's verdicts are worth (see module docstring)."""

    sound_for: FrozenSet[str]  # query kinds with trustworthy counterexamples
    complete_for: str  # "all-trees" | "scope" | "scope-sampled"


@dataclass
class EngineVerdict:
    """Uniform engine answer.

    ``found`` is the decided verdict — ``True`` (counterexample),
    ``False`` (clean) or ``None`` (undecided); ``raw`` keeps the
    engine-native verdict object (``SymbolicVerdict``,
    ``BoundedVerdict``, :class:`InterpVerdict`) for callers that need
    engine-specific detail (status counters, trees checked, …).
    """

    engine: str
    status: str  # "decided" | "budget" | "deadline" | "memory"
    found: Optional[bool]
    witness: Optional[object] = None
    witness_tree: Optional[object] = None
    detail: str = ""
    raw: Optional[object] = None


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
    capabilities: Capabilities

    @abc.abstractmethod
    def bind(self, query) -> Callable:
        """A rung runner for ``query``: ``mso`` returns
        ``(solver, guard) -> SymbolicVerdict``; the scope engines return
        ``(scope, guard) -> verdict`` with ``.found``/``.witness``."""

    @abc.abstractmethod
    def run(self, query, guard: Optional[ResourceGuard] = None,
            limits: Optional[Limits] = None) -> EngineVerdict:
        """Answer ``query`` raw — one engine, no ladder, no masking."""


class SymbolicEngine(Engine):
    """The paper's MSO/automata pipeline — decides over *all* trees."""

    name = "mso"
    capabilities = Capabilities(
        sound_for=frozenset({"race", "equiv"}),
        complete_for="all-trees",
    )

    @staticmethod
    def solver(det_budget: int, product_budget: Optional[int] = None):
        """An ``MSOSolver`` with these budgets (``product_budget=None``:
        the solver's own default)."""
        from ..solver.solver import MSOSolver

        if product_budget is None:
            return MSOSolver(det_budget=det_budget)
        return MSOSolver(det_budget=det_budget, product_budget=product_budget)

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

    def run(self, query, guard: Optional[ResourceGuard] = None,
            limits: Optional[Limits] = None) -> EngineVerdict:
        limits = limits if limits is not None else query.limits
        solver = self.solver(limits.det_budget, limits.product_budget)
        own_guard = guard is None
        if own_guard:
            guard = ResourceGuard.start(
                deadline_s=limits.mso_deadline_s,
                node_ceiling=limits.node_ceiling,
            )
        try:
            raw = self.bind(query)(solver, guard)
        finally:
            if own_guard:
                guard.unbind_managers()
        return EngineVerdict(
            engine=self.name,
            status=raw.status,
            found=raw.found if raw.status == "decided" else None,
            witness=raw.witness,
            witness_tree=(
                raw.witness.tree if (raw.found and raw.witness) else None
            ),
            detail=str(raw),
            raw=raw,
        )


class BoundedEngine(Engine):
    """Exhaustive over every tree shape up to the query's scope."""

    name = "bounded"
    capabilities = Capabilities(
        sound_for=frozenset({"race", "equiv"}),
        complete_for="scope",
    )

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

    def run(self, query, guard: Optional[ResourceGuard] = None,
            limits: Optional[Limits] = None,
            scope: Optional[int] = None) -> EngineVerdict:
        raw = self.bind(query)(scope if scope is not None else query.scope,
                               guard)
        return EngineVerdict(
            engine=self.name,
            status="decided",
            found=raw.found,
            witness=raw.witness,
            witness_tree=(
                raw.witness.tree if (raw.found and raw.witness) else None
            ),
            detail=str(raw),
            raw=raw,
        )


class InterpEngine(Engine):
    """Dynamic evidence: happens-before race detection, schedule-outcome
    enumeration and concrete divergence on every in-scope tree under
    seeded field valuations.  Clean means "no evidence found" — the
    valuations are sampled — so it is ``complete_for="scope-sampled"``
    and its clean verdicts are never cache-reusable.
    """

    name = "interp"
    capabilities = Capabilities(
        sound_for=frozenset({"race", "equiv"}),
        complete_for="scope-sampled",
    )

    #: Default seeded valuations and schedule cap (the oracle overrides
    #: these per-config).
    field_seeds: Tuple[int, ...] = (0, 7, 13)
    schedule_cap: int = 240
    value_range: Tuple[int, int] = (0, 5)

    def _scope_trees(self, query, scope: Optional[int]):
        from ..core.bounded import default_scope

        return default_scope(scope if scope is not None else query.scope)

    def _valuations(self, query, scope, field_seeds, trees=None):
        """(work, seed, fields) triples to check.

        With ``trees=`` the caller supplies concrete input trees instead
        of the scope enumeration; each is tried *as given* first (seed
        ``None`` — its fields are meaningful data, e.g. a game tree's
        static values) and then under the seeded valuations.
        """
        from ..trees.generators import assign_fields

        fields = query.fields()
        seeds = field_seeds if field_seeds is not None else self.field_seeds
        if trees is not None:
            for tree in trees:
                yield tree.clone(), None, fields
                if fields:
                    for seed in seeds:
                        work = tree.clone()
                        assign_fields(
                            work, fields, seed=seed,
                            value_range=self.value_range,
                        )
                        yield work, seed, fields
            return
        for tree in self._scope_trees(query, scope):
            for seed in seeds:
                work = tree.clone()
                if fields:
                    assign_fields(
                        work, fields, seed=seed, value_range=self.value_range
                    )
                yield work, seed, fields

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
                      trees=None) -> Optional[str]:
        """A concrete race on some in-scope tree/valuation, or None.

        The fork-join happens-before relation is schedule-independent,
        so one run per (tree, valuation) decides racefreeness on that
        input.  ``trees=`` checks user-supplied trees instead of the
        scope enumeration (see :meth:`_valuations`).
        """
        from ..interp import program_races_on

        for work, seed, _fields in self._valuations(
            query, scope, field_seeds, trees=trees
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
        concrete tree the race occurred on, and the
        :class:`~repro.interp.races.RacePair` — or ``None``.
        """
        from ..interp import program_races_on

        for i, tree in enumerate(trees):
            for work, seed, _fields in self._valuations(
                query, None, field_seeds, trees=[tree]
            ):
                races = program_races_on(query.program, work)
                if races:
                    return i, seed, work, races[0]
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
                            field_seeds: Optional[Tuple[int, ...]] = None
                            ) -> Optional[str]:
        """A scope tree/valuation where the two programs observably
        differ under the deterministic left-first schedule."""
        from ..interp import run

        for base, seed, fields in self._valuations(query, scope, field_seeds):
            ra = run(query.program, base)
            rb = run(query.program2, base)
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

    def _evidence(self, query, scope) -> Optional[str]:
        if query.kind == "race":
            return self.race_evidence(query, scope=scope)
        return self.concrete_divergence(query, scope=scope)

    def bind(self, query) -> Callable:
        def runner(scope, guard):
            ev = self._evidence(query, scope)
            return InterpVerdict(found=ev is not None, evidence=ev)

        return runner

    def run(self, query, guard: Optional[ResourceGuard] = None,
            limits: Optional[Limits] = None,
            scope: Optional[int] = None) -> EngineVerdict:
        raw = self.bind(query)(scope, guard)
        return EngineVerdict(
            engine=self.name,
            status="decided",
            found=raw.found,
            witness=None,
            detail=str(raw),
            raw=raw,
        )


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
