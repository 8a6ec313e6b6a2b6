"""MONA-replacement front end: decide MSO formulas, produce witnesses.

``MSOSolver`` wraps the compiler pipeline: formula → tree automaton →
emptiness.  Satisfiability treats free variables as implicitly
existentially quantified (their tracks stay free, so a witness directly
shows the labelling — this is how counterexample configurations are
decoded).  A state budget turns blow-ups into a clean ``budget`` status for
the caller's engine-fallback logic.

Conjunctions are never multiplied out: ``automaton_conj`` returns an
implicit :class:`~repro.automata.product.ProductAutomaton` of the
compiled factors, and ``sat_of`` runs the emptiness fixpoint directly on
it — the ``product_budget`` bounds *reached* product states rather than
the size of a materialized product.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Union

from ..automata.emptiness import (
    Witness,
    find_witness,
    is_empty,
    witness_from_exploration,
)
from ..automata.product import ProductAutomaton
from ..automata.tta import TrackRegistry, TreeAutomaton
from ..mso import syntax as S
from ..mso.compile import Compiler
from ..runtime import ResourceExhausted, ResourceGuard, exhaustion_status
from .stats import SolverStats

__all__ = ["MSOSolver", "SolveResult"]

Automaton = Union[TreeAutomaton, ProductAutomaton]


@dataclass
class SolveResult:
    status: str  # "sat" | "unsat" | "budget" | "deadline" | "memory"
    witness: Optional[Witness] = None
    elapsed: float = 0.0
    automaton_states: int = 0
    reached_states: int = 0
    budget: Optional[int] = None
    compile_stats: Optional[object] = None
    stats: Optional[SolverStats] = None

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"

    def __str__(self) -> str:
        if self.status == "budget":
            detail = (
                f"exceeded {self.budget} states"
                if self.budget is not None
                else "state budget exceeded"
            )
        elif self.status == "deadline":
            detail = "wall-clock deadline exceeded"
        elif self.status == "memory":
            detail = "memory ceiling exceeded"
        else:
            states = self.reached_states or self.automaton_states
            detail = f"{states} states reached"
            if self.budget is not None:
                detail += f"/{self.budget} budget"
            if self.status == "sat":
                detail += (
                    f", witness {self.witness.tree.size} nodes"
                    if self.witness is not None
                    else ", no witness requested"
                )
        return f"[mso] {self.status} ({detail}, {self.elapsed:.3f}s)"


class MSOSolver:
    """Decide satisfiability/validity of MSO formulas over labelled trees."""

    def __init__(
        self,
        registry: Optional[TrackRegistry] = None,
        minimize_always: bool = True,
        det_budget: int = 200_000,
        product_budget: int = 50_000,
    ) -> None:
        self.compiler = Compiler(
            registry=registry,
            minimize_always=minimize_always,
            det_budget=det_budget,
        )
        # Conjunction products reaching more states than this raise
        # StateBudgetExceeded so callers can fall back to the bounded
        # engine instead of grinding.  The default leaves ~2x
        # headroom over the largest Table-1 saturation (T1.6's interface
        # conjunctions reach 23,971 tuples), so every paper query decides
        # on the first "mso" rung.
        self.product_budget = product_budget
        # Optional ResourceGuard (deadline + state budget + node ceiling);
        # when it trips mid-query the typed ResourceExhausted subclass is
        # raised so the caller's fallback logic runs rather than a query
        # overshooting.
        self.guard: Optional[ResourceGuard] = None
        self.stats = SolverStats(budget=product_budget)
        self._conj_cache: Dict[str, ProductAutomaton] = {}
        self._iface_cache: Dict[str, TreeAutomaton] = {}

    @property
    def registry(self) -> TrackRegistry:
        return self.compiler.registry

    def _sync_compiler(self) -> None:
        self.compiler.guard = self.guard

    def compile(self, formula: S.Formula) -> TreeAutomaton:
        self._sync_compiler()
        with self.stats.phase("compile"):
            return self.compiler.compile(formula)

    def satisfiable(self, formula: S.Formula, want_witness: bool = True) -> SolveResult:
        """Is there a tree + labelling of the free variables satisfying the
        formula?"""
        t0 = time.perf_counter()
        self._sync_compiler()
        try:
            with self.stats.phase("compile"):
                a = self.compiler.compile_product(formula)
            res = self.sat_of(a, want_witness=want_witness)
        except ResourceExhausted as e:
            return SolveResult(
                status=exhaustion_status(e),
                elapsed=time.perf_counter() - t0,
                budget=self.product_budget,
                compile_stats=self.compiler.stats,
                stats=self.stats,
            )
        res.elapsed = time.perf_counter() - t0
        return res

    def automaton_conj(
        self, parts, cache_key: Optional[str] = None
    ) -> ProductAutomaton:
        """Conjunction of formulas/automata, ready for emptiness.

        Compiles each part and returns the implicit
        :class:`ProductAutomaton` — no product state is built until an
        emptiness query explores it.  With ``cache_key`` the result is
        cached for reuse across queries (e.g. the q-independent
        ``Configuration`` core)."""
        if cache_key is not None:
            cached = self._conj_cache.get(cache_key)
            if cached is not None:
                self.stats.conj_cache_hits += 1
                return cached
            self.stats.conj_cache_misses += 1
        self._sync_compiler()
        with self.stats.phase("compile"):
            autos = [
                p
                if isinstance(p, (TreeAutomaton, ProductAutomaton))
                else self.compiler.compile(p)
                for p in parts
            ]
        acc = ProductAutomaton(autos, guard=self.guard)
        if cache_key is not None:
            self._conj_cache[cache_key] = acc
        return acc

    def interface_conj(
        self,
        parts,
        keep,
        cache_key: Optional[str] = None,
    ) -> TreeAutomaton:
        """Conjunction of ``parts`` projected onto the ``keep`` tracks.

        Saturates the implicit product once (recording the synchronized
        transitions it touches), materializes exactly the reached
        automaton, existentially quantifies every non-interface track,
        and reduces.  Two constraint systems that share only an
        interface — e.g. the P-side and P′-side of a ``Conflict`` query,
        which meet only at the endpoint markers — can then be decided by
        intersecting their (tiny) interface automata instead of
        exploring the joint product, whose reachable tuple space is
        multiplicative in the sides'.  Projection preserves emptiness of
        any conjunction with track-disjoint partners, so verdicts are
        unchanged; witnesses must be re-derived from the joint product
        (interface labels alone cannot be decoded back).

        With ``cache_key`` the interface automaton is memoized on the
        solver: a side that depends only on one loop variable of a query
        sweep is saturated once, not once per combination.
        """
        from ..automata.minimize import prune_unreachable, reduce_nfta

        if cache_key is not None:
            cached = self._iface_cache.get(cache_key)
            if cached is not None:
                self.stats.conj_cache_hits += 1
                return cached
            self.stats.conj_cache_misses += 1
        acc = self.automaton_conj(parts)
        guard = self.guard
        unsat = next((f for f in acc.factors if not f.accepting), None)
        if unsat is not None:
            side = unsat
        else:
            with self.stats.phase("explore"):
                exp = acc.explore(
                    max_states=self.product_budget,
                    stop_on_accepting=False,
                    record=True,
                    guard=guard,
                )
            self.stats.note_exploration(exp.reached)
            side = acc.materialized_explored(exp)
        with self.stats.phase("compile"):
            drop = [t for t in side.tracks if t not in keep]
            iface = reduce_nfta(
                prune_unreachable(side.projected(drop)), guard=guard
            )
        if cache_key is not None:
            self._iface_cache[cache_key] = iface
        return iface

    def sat_of(self, automaton: Automaton, exist_fo=(), want_witness=True) -> SolveResult:
        """Emptiness/witness of a pre-built automaton, after projecting the
        given first-order variables (their Sing constraints must already be
        part of the automaton)."""
        from ..automata.minimize import prune_unreachable

        t0 = time.perf_counter()
        if isinstance(automaton, ProductAutomaton):
            # Projection never changes emptiness, so the implicit product
            # is explored as-is; the projected tracks are simply dropped
            # from the witness labelling afterwards.
            with self.stats.phase("explore"):
                exp = automaton.explore(
                    max_states=self.product_budget,
                    guard=self.guard,
                )
            self.stats.note_exploration(exp.reached)
            w = None
            if exp.target is None:
                status = "unsat"
            else:
                status = "sat"
                if want_witness:
                    with self.stats.phase("witness"):
                        w = witness_from_exploration(automaton, exp)
                        if exist_fo:
                            drop = frozenset(exist_fo)
                            w.labels = {
                                t: s for t, s in w.labels.items()
                                if t not in drop
                            }
            return SolveResult(
                status=status,
                witness=w,
                elapsed=time.perf_counter() - t0,
                automaton_states=exp.reached,
                reached_states=exp.reached,
                budget=self.product_budget,
                compile_stats=self.compiler.stats,
                stats=self.stats,
            )
        acc = automaton
        if exist_fo and acc.accepting:
            acc = prune_unreachable(acc.projected(exist_fo))
        if want_witness:
            with self.stats.phase("explore"):
                w = find_witness(acc, guard=self.guard)
            status = "sat" if w is not None else "unsat"
        else:
            w = None
            with self.stats.phase("explore"):
                status = (
                    "unsat"
                    if is_empty(acc, guard=self.guard)
                    else "sat"
                )
        self.stats.note_exploration(acc.n_states)
        return SolveResult(
            status=status,
            witness=w,
            elapsed=time.perf_counter() - t0,
            automaton_states=acc.n_states,
            reached_states=acc.n_states,
            budget=self.product_budget,
            compile_stats=self.compiler.stats,
            stats=self.stats,
        )

    def satisfiable_conj(
        self,
        parts,
        exist_fo=(),
        want_witness: bool = True,
    ) -> SolveResult:
        """Satisfiability of a conjunction, compiled part-by-part.

        Each part is compiled (and memoized) independently, so shared
        constraints — e.g. the q-independent conjuncts of ``Configuration``
        — are reused across queries.  ``exist_fo`` names first-order
        variables occurring free in the parts to bind existentially at the
        top (their singleton constraint is conjoined, then their tracks are
        projected away)."""
        t0 = time.perf_counter()
        try:
            all_parts = list(parts) + [S.Sing(v) for v in exist_fo]
            acc = self.automaton_conj(all_parts)
            res = self.sat_of(acc, exist_fo=exist_fo, want_witness=want_witness)
        except ResourceExhausted as e:
            return SolveResult(
                status=exhaustion_status(e),
                elapsed=time.perf_counter() - t0,
                budget=self.product_budget,
                compile_stats=self.compiler.stats,
                stats=self.stats,
            )
        res.elapsed = time.perf_counter() - t0
        return res

    def valid(self, formula: S.Formula) -> SolveResult:
        """Is the formula true on every tree (free variables universal)?

        Returns sat-status of the *negation*: ``unsat`` means valid; a
        witness is a counterexample to validity."""
        return self.satisfiable(S.Not(formula))
