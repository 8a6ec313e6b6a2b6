"""Declarative plans: the degradation ladder as data.

A :class:`Plan` is a tuple of :class:`Rung`\\ s — engine name plus
policy (budget scaling, deadline sharing, scope shrinking, when the
rung fires, what an internal error does).  One :class:`PlanExecutor`
interprets any plan and produces exactly the historical
``details["attempts"]`` / ``details["decided_by"]`` schema that
``core.api`` once hard-coded as its degradation ladder (DESIGN.md §7 →
§10):

* ``engine="auto"`` — guarded symbolic run, one ×4-escalated retry when
  (and only when) the first run died on its *state budget* and ≥1s of
  wall clock remains (sharing the first run's absolute deadline), then
  the bounded engine, shrinking its scope whenever a rung overruns;
* ``engine="mso"`` — the strict single symbolic rung
  (``SolverInternalError`` propagates);
* ``engine="bounded"`` — the scope-shrinking bounded rungs alone;
* any other registered engine name — a synthesized single-rung plan.

The supervisor's circuit-breaker degradation is the plan
transformation :func:`degraded` (drop the symbolic rungs, keep the
scope rungs) instead of bespoke worker code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace as dc_replace
from typing import Callable, Dict, List, Optional, Tuple

from ..runtime import (
    ResourceExhausted,
    ResourceGuard,
    SolverInternalError,
    exhaustion_status,
)
from .engines import get_engine, known_engines

__all__ = [
    "LADDER_ESCALATION",
    "Rung",
    "Plan",
    "plan_for",
    "known_specs",
    "degraded",
    "degraded_spec",
    "record_attempt",
    "run_symbolic_rungs",
    "run_scope_rungs",
    "merge_verdicts",
    "note_symbolic",
    "PlanOutcome",
    "PlanExecutor",
    "worker_attempt_record",
    "normalized_attempts",
]

#: The retry rung multiplies the symbolic budgets by this factor.
LADDER_ESCALATION = 4
#: Skip a retry rung when less wall-clock than this remains; the
#: escalated run would only burn the next rung's time.
_MIN_RETRY_S = 1.0


@dataclass(frozen=True)
class Rung:
    """One ladder step: an engine plus firing/limit policy."""

    name: str
    engine: str
    #: Budget multiplier relative to the query's limits.
    scale: int = 1
    #: "always" | "after-budget" (previous symbolic rung exhausted its
    #: state budget) | "undecided" (no symbolic rung decided).
    when: str = "always"
    #: Skip this rung when less wall clock than this remains.
    min_remaining_s: float = 0.0
    #: Inherit the previous rung's absolute deadline instead of a fresh
    #: one, so the rungs together never exceed the query's deadline.
    share_deadline: bool = False
    #: Scope rungs only: shrink the tree bound until a run fits.
    shrink_scope: bool = False
    #: "continue" records a SolverInternalError and falls through;
    #: "raise" propagates it (the strict single-engine contract).
    on_internal_error: str = "continue"


@dataclass(frozen=True)
class Plan:
    """A named sequence of rungs, interpreted by :class:`PlanExecutor`."""

    name: str
    rungs: Tuple[Rung, ...]

    def symbolic_rungs(self) -> Tuple[Rung, ...]:
        return tuple(
            r for r in self.rungs
            if get_engine(r.engine).capabilities.kind == "symbolic"
        )

    def scope_rung(self) -> Optional[Rung]:
        for r in self.rungs:
            if get_engine(r.engine).capabilities.kind == "scope":
                return r
        return None

    def engine_names(self) -> Tuple[str, ...]:
        return tuple(dict.fromkeys(r.engine for r in self.rungs))


_PLANS: Dict[str, Plan] = {
    "auto": Plan("auto", (
        Rung("mso", "mso"),
        Rung(
            "mso-retry", "mso",
            scale=LADDER_ESCALATION,
            when="after-budget",
            min_remaining_s=_MIN_RETRY_S,
            share_deadline=True,
        ),
        Rung("bounded", "bounded", when="undecided", shrink_scope=True),
    )),
    "mso": Plan("mso", (Rung("mso", "mso", on_internal_error="raise"),)),
    "bounded": Plan("bounded", (
        Rung("bounded", "bounded", shrink_scope=True),
    )),
}


def known_specs() -> List[str]:
    """Every valid ``engine=`` spec: the named plans plus every
    registered engine (each resolves to a single-rung plan)."""
    return sorted(set(_PLANS) | set(known_engines()))


def plan_for(spec: str) -> Plan:
    """Resolve an ``engine=`` spec to a plan.

    Unknown specs raise ``ValueError`` naming the known ones — the CLI
    maps that to exit code 2 instead of falling through to a default
    ladder.
    """
    plan = _PLANS.get(spec)
    if plan is not None:
        return plan
    if spec in known_engines():
        # A registered engine without a bespoke plan: one strict rung.
        if get_engine(spec).capabilities.kind == "symbolic":
            return Plan(spec, (Rung(spec, spec, on_internal_error="raise"),))
        return Plan(spec, (Rung(spec, spec, shrink_scope=True),))
    raise ValueError(
        f"unknown engine {spec!r}; known engines: "
        f"{', '.join(known_specs())}"
    )


def degraded(plan: Plan) -> Plan:
    """The circuit-breaker transformation: drop the symbolic rungs and
    run the scope rungs unconditionally (bounded-only service)."""
    scope_rungs = tuple(
        dc_replace(r, when="always")
        for r in plan.rungs
        if get_engine(r.engine).capabilities.kind == "scope"
    )
    if not scope_rungs:
        return _PLANS["bounded"]
    return Plan("bounded", scope_rungs)


def degraded_spec(spec: str) -> str:
    """The serializable ``engine=`` spec of a plan's degraded form
    (what the supervisor writes into a rewritten task payload)."""
    return degraded(plan_for(spec)).name


# ----------------------------------------------------------------------
# The attempts schema


def record_attempt(
    attempts: List[Dict[str, object]],
    rung: str,
    engine: str,
    limits: Dict[str, object],
    outcome: str,
    t0: float,
    note: Optional[str] = None,
    found: Optional[bool] = None,
) -> None:
    """``found`` is the rung's *raw* verdict — True (counterexample),
    False (clean), or None (undecided/errored) — recorded for every rung
    even when a later rung ends up deciding the query, so differential
    oracles can cross-check the rungs against each other."""
    entry: Dict[str, object] = {
        "rung": rung,
        "engine": engine,
        "limits": limits,
        "outcome": outcome,
        "elapsed": round(time.perf_counter() - t0, 6),
        "found": found,
    }
    if note is not None:
        entry["note"] = note
    attempts.append(entry)


def worker_attempt_record(
    limits: Dict[str, object], attempt: Dict[str, object]
) -> Dict[str, object]:
    """A supervisor attempt rendered in the plan's attempts format
    (``limits`` is the task's sandbox-limits dict)."""
    rec = {
        "rung": f"worker#{attempt['attempt']}",
        "engine": "process",
        "limits": dict(limits),
        "outcome": attempt["outcome"],
        "elapsed": attempt["elapsed"],
        "found": None,
    }
    for k in ("signal", "phase", "detail", "degraded"):
        if attempt.get(k) not in (None, False):
            rec[k] = attempt[k]
    return rec


def normalized_attempts(
    attempts: List[Dict[str, object]],
) -> List[Dict[str, object]]:
    """The schema projection used by the golden tests and the
    plan-equivalence CI step: every field except wall-clock elapsed."""
    return [{k: v for k, v in a.items() if k != "elapsed"} for a in attempts]


# ----------------------------------------------------------------------
# Rung interpreters


def _default_solver(det_budget: int, product_budget: Optional[int]):
    from ..solver.solver import MSOSolver

    if product_budget is None:
        return MSOSolver(det_budget=det_budget)
    return MSOSolver(det_budget=det_budget, product_budget=product_budget)


def run_symbolic_rungs(
    run_sym: Callable,
    rungs: Tuple[Rung, ...],
    det_budget: int,
    mso_deadline_s: Optional[float],
    node_ceiling: Optional[int],
    attempts: List[Dict[str, object]],
    details: Dict[str, object],
    product_budget: Optional[int] = None,
    make_solver: Optional[Callable] = None,
):
    """Interpret the symbolic rungs of a plan.

    A retry rung only fires when its ``when``/``min_remaining_s`` policy
    allows (for the auto plan: the previous run died on its *state
    budget* — a deadline or memory ceiling would just be hit again —
    and ≥1s of wall clock remains); ``share_deadline`` rungs inherit
    the first run's absolute deadline so together they never exceed
    ``mso_deadline_s``.  ``SolverInternalError`` propagates when the
    rung's policy is ``"raise"``; otherwise it is recorded and the plan
    falls through to the scope rungs.
    """
    if not rungs:
        return None, None
    make_solver = make_solver or _default_solver
    first = rungs[0]
    guard = ResourceGuard.start(
        deadline_s=mso_deadline_s, node_ceiling=node_ceiling
    )
    solver = make_solver(det_budget * first.scale, product_budget)
    base_product = solver.product_budget
    limits: Dict[str, object] = {
        "det_budget": det_budget * first.scale,
        "product_budget": solver.product_budget,
        "deadline_s": mso_deadline_s,
        "node_ceiling": node_ceiling,
    }
    t0 = time.perf_counter()
    try:
        sym = run_sym(solver, guard)
    except SolverInternalError as e:
        record_attempt(
            attempts, first.name, first.engine, limits, "error", t0,
            note=str(e),
        )
        details["mso_error"] = str(e)
        if first.on_internal_error == "raise":
            raise
        return None, None
    finally:
        guard.unbind_managers()
    record_attempt(
        attempts,
        first.name,
        first.engine,
        limits,
        sym.status,
        t0,
        note="counterexample" if sym.found else None,
        found=sym.found if sym.status == "decided" else None,
    )

    chosen, chosen_rung = sym, first.name
    prev = sym
    for rung in rungs[1:]:
        if rung.when == "after-budget" and prev.status != "budget":
            break
        remaining = guard.remaining_s()
        if remaining is not None and remaining < rung.min_remaining_s:
            break
        solver2 = make_solver(
            det_budget * rung.scale, base_product * rung.scale
        )
        guard2 = (
            ResourceGuard(deadline=guard.deadline, node_ceiling=node_ceiling)
            if rung.share_deadline
            else ResourceGuard.start(
                deadline_s=mso_deadline_s, node_ceiling=node_ceiling
            )
        )
        limits2: Dict[str, object] = {
            "det_budget": solver2.compiler.det_budget,
            "product_budget": solver2.product_budget,
            "deadline_s": round(remaining, 3) if remaining is not None else None,
            "node_ceiling": node_ceiling,
        }
        t1 = time.perf_counter()
        try:
            sym2 = run_sym(solver2, guard2)
        except SolverInternalError as e:
            record_attempt(
                attempts, rung.name, rung.engine, limits2, "error", t1,
                note=str(e),
            )
            details["mso_error"] = str(e)
            break
        finally:
            guard2.unbind_managers()
        record_attempt(
            attempts,
            rung.name,
            rung.engine,
            limits2,
            sym2.status,
            t1,
            note="counterexample" if sym2.found else None,
            found=sym2.found if sym2.status == "decided" else None,
        )
        if sym2.status == "decided":
            chosen, chosen_rung = sym2, rung.name
            break
        prev = sym2
        guard = guard2
    return chosen, chosen_rung


def run_scope_rungs(
    run_bnd: Callable,
    rung: Rung,
    max_internal: int,
    deadline_s: Optional[float],
    attempts: List[Dict[str, object]],
):
    """Interpret a plan's scope rung: shrink the bound until a run fits.

    With no ``deadline_s`` the first (largest-scope) run always
    completes — the seed behaviour.  With one, each scope gets a fresh
    deadline; an overrun shrinks the scope instead of failing the query.
    """
    scopes = (
        range(max_internal, 0, -1) if rung.shrink_scope else (max_internal,)
    )
    for scope in scopes:
        name = f"{rung.engine}@{scope}"
        guard = (
            ResourceGuard.start(deadline_s=deadline_s)
            if deadline_s is not None
            else None
        )
        limits: Dict[str, object] = {
            "max_internal": scope,
            "deadline_s": deadline_s,
        }
        t0 = time.perf_counter()
        try:
            bnd = run_bnd(scope, guard)
        except ResourceExhausted as e:
            record_attempt(
                attempts, name, rung.engine, limits, exhaustion_status(e), t0
            )
            continue
        record_attempt(
            attempts,
            name,
            rung.engine,
            limits,
            "decided",
            t0,
            note="counterexample" if bnd.found else None,
            found=bnd.found,
        )
        return bnd, scope
    return None, None


def merge_verdicts(sym, bnd):
    """Pick the verdict source: a *decided* symbolic result wins, then a
    scope-engine result.  An undecided symbolic run never contributes a
    verdict or witness — its partial state is not evidence."""
    if sym is not None and sym.status == "decided":
        tree = sym.witness.tree if (sym.found and sym.witness) else None
        return sym.found, tree, sym.witness
    if bnd is not None:
        witness = bnd.witness
        tree = (
            witness.tree
            if (bnd.found and witness is not None
                and getattr(witness, "tree", None) is not None)
            else None
        )
        return bnd.found, tree, witness
    return False, None, None


def note_symbolic(details: Dict[str, object], sym) -> None:
    details["mso"] = str(sym)
    details["mso_status"] = sym.status
    details["mso_queries"] = sym.queries
    details["mso_reached_states"] = sym.max_states
    if sym.stats is not None:
        details["mso_stats"] = sym.stats


# ----------------------------------------------------------------------
# The executor


@dataclass
class PlanOutcome:
    """Everything a façade needs to build its result object."""

    found: bool
    witness: Optional[object]
    witness_tree: Optional[object]
    undecided: bool
    decided_by: Optional[str]
    engine_label: str
    attempts: List[Dict[str, object]]
    details: Dict[str, object]
    sym: Optional[object] = None
    scope_verdict: Optional[object] = None


class PlanExecutor:
    """Interprets any :class:`Plan` over one query, producing the
    attempts/decided_by schema byte-for-byte as the hard-coded ladder
    did.  An attached :class:`~repro.engine.cache.ResultCache` only
    feeds observability here (its counters are mirrored into each
    solver's :class:`~repro.solver.stats.SolverStats`); lookup/store
    policy lives with the caller."""

    def __init__(self, cache=None) -> None:
        self.cache = cache

    def _make_solver(self, det_budget: int, product_budget: Optional[int]):
        solver = _default_solver(det_budget, product_budget)
        if self.cache is not None:
            solver.stats.note_cache(self.cache.stats)
        return solver

    def execute(self, query, plan: Plan) -> PlanOutcome:
        attempts: List[Dict[str, object]] = []
        details: Dict[str, object] = {"attempts": attempts}
        srungs = plan.symbolic_rungs()
        scope_rung = plan.scope_rung()

        sym = None
        sym_rung = None
        if srungs:
            runner = get_engine(srungs[0].engine).bind(query)
            sym, sym_rung = run_symbolic_rungs(
                runner,
                srungs,
                query.limits.det_budget,
                query.limits.mso_deadline_s,
                query.limits.node_ceiling,
                attempts,
                details,
                product_budget=query.limits.product_budget,
                make_solver=self._make_solver,
            )
            if sym is not None:
                note_symbolic(details, sym)
        sym_decided = sym is not None and sym.status == "decided"

        bnd = None
        bnd_scope = None
        if scope_rung is not None and (
            scope_rung.when == "always" or not sym_decided
        ):
            runner = get_engine(scope_rung.engine).bind(query)
            bnd, bnd_scope = run_scope_rungs(
                runner,
                scope_rung,
                query.scope,
                query.limits.bounded_deadline_s,
                attempts,
            )
            if bnd is not None:
                details[scope_rung.engine] = str(bnd)

        found, witness_tree, witness = merge_verdicts(sym, bnd)
        undecided = not sym_decided and bnd is None
        decided_by = (
            None
            if undecided
            else (sym_rung if sym_decided else f"{scope_rung.engine}@{bnd_scope}")
        )
        details["decided_by"] = decided_by

        if srungs and scope_rung is None:
            engine_label = srungs[0].engine
        elif srungs and scope_rung is not None:
            engine_label = (
                srungs[0].engine
                if sym_decided
                else f"{srungs[0].engine}+{scope_rung.engine}"
            )
        else:
            engine_label = scope_rung.engine if scope_rung else plan.name

        return PlanOutcome(
            found=found,
            witness=witness,
            witness_tree=witness_tree,
            undecided=undecided,
            decided_by=decided_by,
            engine_label=engine_label,
            attempts=attempts,
            details=details,
            sym=sym,
            scope_verdict=bnd,
        )
