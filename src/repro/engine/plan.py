"""Plans: which engines answer an ``engine=`` spec, and in what order.

A :class:`Plan` says two things: whether the paper's MSO procedure runs
(``symbolic``) and which scope engine answers when it does not decide
(``scope``, or ``None``).  :func:`execute` runs a plan over one query
and produces the ``details["attempts"]`` / ``details["decided_by"]``
schema (DESIGN.md §7 → §10):

* ``engine="auto"`` — ``(True, "bounded")``: a guarded symbolic run,
  one ×4-escalated retry when (and only when) the first run died on its
  *state budget* and ≥1s of wall clock remains (sharing the first run's
  absolute deadline), then the bounded engine, shrinking its scope
  whenever a run overruns;
* ``engine="mso"`` — ``(True, None)``: the strict single symbolic run
  (``SolverInternalError`` propagates);
* ``engine="bounded"`` — ``(False, "bounded")``: the scope-shrinking
  bounded runs alone;
* ``engine="interp"`` — ``(False, "interp")``: the same over the
  interpreter's dynamic evidence.

Leniency follows from the shape: a plan with a scope fallback retries
the symbolic run once and lets an internal solver error fall through
to the scope engine; a plan without one does neither.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..runtime import (
    ResourceExhausted,
    ResourceGuard,
    SolverInternalError,
    exhaustion_status,
)
from .engines import get_engine
from .query import Limits

__all__ = [
    "LADDER_ESCALATION",
    "Plan",
    "plan_for",
    "known_specs",
    "record_attempt",
    "run_symbolic",
    "run_scope",
    "merge_verdicts",
    "PlanOutcome",
    "execute",
    "worker_attempt_record",
    "normalized_attempts",
]

#: The retry run multiplies the symbolic budgets by this factor.
LADDER_ESCALATION = 4
#: Skip the retry when less wall-clock than this remains; the escalated
#: run would only burn the scope engine's time.
_MIN_RETRY_S = 1.0


@dataclass(frozen=True)
class Plan:
    """Whether the MSO procedure runs, and which scope engine follows."""

    name: str
    symbolic: bool
    scope: Optional[str]

    def engine_names(self) -> Tuple[str, ...]:
        return (("mso",) if self.symbolic else ()) + (
            (self.scope,) if self.scope is not None else ()
        )


_PLANS: Dict[str, Plan] = {
    plan.name: plan
    for plan in (
        Plan("auto", True, "bounded"),
        Plan("mso", True, None),
        Plan("bounded", False, "bounded"),
        Plan("interp", False, "interp"),
    )
}


def known_specs() -> List[str]:
    """Every valid ``engine=`` spec."""
    return sorted(_PLANS)


def plan_for(spec: str) -> Plan:
    """Resolve an ``engine=`` spec to a plan.

    Unknown specs raise ``ValueError`` naming the known ones — the CLI
    maps that to exit code 2 instead of falling through to a default
    ladder.
    """
    plan = _PLANS.get(spec)
    if plan is None:
        raise ValueError(
            f"unknown engine {spec!r}; known engines: "
            f"{', '.join(known_specs())}"
        )
    return plan


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
    (``limits`` is the task's sandbox-limits dict); its engine is where
    the attempt ran, ``"process"`` or ``"inline"``."""
    rec = {
        "rung": f"worker#{attempt['attempt']}",
        "engine": attempt["isolation"],
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
# The two rungs


def _symbolic_attempt(
    rung: str,
    run_sym: Callable,
    limits: Limits,
    guard: ResourceGuard,
    attempts: List[Dict[str, object]],
    details: Dict[str, object],
    strict: bool,
    cache=None,
):
    """One guarded symbolic run under ``limits``' budgets, recorded;
    ``None`` after an internal error that ``strict`` does not propagate.
    An attached ``cache`` only feeds observability: its counters are
    mirrored into the solver's stats."""
    from ..solver.solver import MSOSolver

    solver = MSOSolver(
        det_budget=limits.det_budget, product_budget=limits.product_budget
    )
    if cache is not None:
        solver.stats.note_cache(cache.stats)
    record = limits.attempt_limits()
    t0 = time.perf_counter()
    try:
        sym = run_sym(solver, guard)
    except SolverInternalError as e:
        record_attempt(attempts, rung, "mso", record, "error", t0, note=str(e))
        details["mso_error"] = str(e)
        if strict:
            raise
        return None
    finally:
        guard.unbind_managers()
    record_attempt(
        attempts,
        rung,
        "mso",
        record,
        sym.status,
        t0,
        note="counterexample" if sym.found else None,
        found=sym.found if sym.status == "decided" else None,
    )
    return sym


def run_symbolic(
    run_sym: Callable,
    limits: Limits,
    attempts: List[Dict[str, object]],
    details: Dict[str, object],
    lenient: bool,
    cache=None,
):
    """The ``mso`` rung and, when ``lenient``, its one ``mso-retry``.

    ``run_sym(solver, guard)`` answers the query symbolically.  The
    retry runs only when the first run died on its *state budget* — a
    deadline or memory ceiling would just be hit again — and ≥1s of
    wall clock remains; it inherits the first run's absolute deadline,
    so together they never exceed ``limits.mso_deadline_s``.  A
    ``SolverInternalError`` propagates unless ``lenient``.  Returns the
    verdict to report and its rung name, or ``(None, None)`` when the
    first run errored.
    """
    guard = ResourceGuard.start(
        deadline_s=limits.mso_deadline_s, node_ceiling=limits.node_ceiling
    )
    sym = _symbolic_attempt(
        "mso", run_sym, limits, guard, attempts, details,
        strict=not lenient, cache=cache,
    )
    if sym is None:
        return None, None
    remaining = guard.remaining_s()
    if (not lenient or sym.status != "budget"
            or (remaining is not None and remaining < _MIN_RETRY_S)):
        return sym, "mso"
    escalated = replace(
        limits,
        det_budget=limits.det_budget * LADDER_ESCALATION,
        product_budget=limits.product_budget * LADDER_ESCALATION,
        mso_deadline_s=round(remaining, 3) if remaining is not None else None,
    )
    sym2 = _symbolic_attempt(
        "mso-retry", run_sym, escalated,
        ResourceGuard(deadline=guard.deadline, node_ceiling=limits.node_ceiling),
        attempts, details, strict=False, cache=cache,
    )
    if sym2 is not None and sym2.status == "decided":
        return sym2, "mso-retry"
    return sym, "mso"


def run_scope(
    run_bnd: Callable,
    engine: str,
    max_internal: int,
    deadline_s: Optional[float],
    attempts: List[Dict[str, object]],
):
    """The scope rung: shrink the bound until a run fits.

    With no ``deadline_s`` the first (largest-scope) run always
    completes — the seed behaviour.  With one, each scope gets a fresh
    deadline; an overrun shrinks the scope instead of failing the query.
    Returns the verdict and the scope that decided it, or
    ``(None, None)``.
    """
    for scope in range(max_internal, 0, -1):
        name = f"{engine}@{scope}"
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
                attempts, name, engine, limits, exhaustion_status(e), t0
            )
            continue
        record_attempt(
            attempts,
            name,
            engine,
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


# ----------------------------------------------------------------------
# Execution


@dataclass
class PlanOutcome:
    """Everything a façade needs to build its result object."""

    found: bool
    witness: Optional[object]
    witness_tree: Optional[object]
    undecided: bool
    engine_label: str
    details: Dict[str, object]


def execute(query, plan: Plan, cache=None) -> PlanOutcome:
    """Run ``plan`` over one query: the symbolic rung if the plan has
    one, then the scope rung unless the symbolic rung decided.  Lookup
    and store policy for ``cache`` lives with the caller."""
    attempts: List[Dict[str, object]] = []
    details: Dict[str, object] = {"attempts": attempts}

    sym = sym_rung = None
    if plan.symbolic:
        sym, sym_rung = run_symbolic(
            get_engine("mso").bind(query),
            query.limits,
            attempts,
            details,
            lenient=plan.scope is not None,
            cache=cache,
        )
        if sym is not None:
            details["mso"] = str(sym)
            details["mso_status"] = sym.status
            details["mso_queries"] = sym.queries
            details["mso_reached_states"] = sym.max_states
            if sym.stats is not None:
                details["mso_stats"] = sym.stats
    sym_decided = sym is not None and sym.status == "decided"

    bnd = bnd_scope = None
    if plan.scope is not None and not sym_decided:
        bnd, bnd_scope = run_scope(
            get_engine(plan.scope).bind(query),
            plan.scope,
            query.scope,
            query.limits.bounded_deadline_s,
            attempts,
        )
        if bnd is not None:
            details[plan.scope] = str(bnd)

    found, witness_tree, witness = merge_verdicts(sym, bnd)
    if sym_decided:
        details["decided_by"] = sym_rung
    elif bnd is not None:
        details["decided_by"] = f"{plan.scope}@{bnd_scope}"
    else:
        details["decided_by"] = None
    return PlanOutcome(
        found=found,
        witness=witness,
        witness_tree=witness_tree,
        undecided=not sym_decided and bnd is None,
        engine_label="mso" if sym_decided else "+".join(plan.engine_names()),
        details=details,
    )
