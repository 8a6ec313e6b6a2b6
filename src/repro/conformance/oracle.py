"""The three-engine differential oracle.

A conformance :class:`Case` (one race query or one equivalence query) is
lifted into the Query IR (:mod:`repro.engine.query`) and run through
every registered engine:

* the **interpreter** (``get_engine("interp")``) — dynamic
  happens-before race detection plus schedule-outcome enumeration on
  every tree shape in scope, under several seeded field valuations;
* the **bounded engine** (``get_engine("bounded")``) — exhaustive on
  the same scope;
* the **symbolic engine** (``get_engine("mso")``) — the strict ``mso``
  rung (:func:`repro.engine.plan.run_symbolic`, ``lenient=False``), the
  code ``engine="mso"`` runs: no retry or fallback rung masks its
  verdict.  Equivalence cases reach it through
  :func:`~repro.core.api.check_equivalence`, home of the bisimulation
  gate.

The engines are then checked against the soundness lattice the paper's
theorems induce (dynamic ⊆ bounded ⊆ symbolic):

========================================  =================================
observation                               verdict
========================================  =================================
interpreter race, bounded ``race-free``   mismatch (``interp-vs-bounded``)
bounded race, symbolic ``race-free``      mismatch (``bounded-vs-symbolic``)
interpreter race, symbolic ``race-free``  mismatch (``interp-vs-symbolic``)
schedule-divergent outcome, bounded
``race-free``                             mismatch (``schedule-divergence``)
undecided symbolic result carrying a
witness                                   mismatch (``stale-witness``)
decided ``race`` without a witness        mismatch (``missing-witness``)
``SolverInternalError`` from an engine    mismatch (``engine-error``)
concrete runs differ, engines say
``equivalent``                            mismatch (``concrete-vs-equivalent``)
bounded conflict, symbolic ``equivalent``  mismatch (``bounded-vs-symbolic``)
witness does not replay concretely        *warning* (``spurious-witness``)
========================================  =================================

The reverse directions (bounded race that no concrete run exhibits, a
symbolic counterexample the replay cannot confirm) are exactly the
over-approximation the paper grants itself, so they are recorded as
warnings, never as mismatches.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field as dc_field
from typing import Dict, List, Optional, Tuple, Union

from ..core.api import check_equivalence
from ..core.transform import correspondence_by_key
from ..engine import (
    EquivalenceQuery,
    Limits,
    RaceQuery,
    get_engine,
    program_fields,
)
from ..engine.plan import run_symbolic
from ..lang import ast as A
from ..lang.blocks import BlockTable
from ..lang.parser import parse_program
from ..lang.validate import validate
from ..runtime import SolverInternalError
from ..runtime import faults as fault_mod
from .replay import replay_race_witness

__all__ = [
    "Case",
    "OracleConfig",
    "Mismatch",
    "CaseResult",
    "run_case",
    "query_for_case",
    "program_fields",
]


@dataclass(frozen=True)
class Case:
    """One conformance test case, serializable as plain data.

    ``correspondence`` optionally pins non-call block overrides for
    equivalence cases whose fused blocks are merged or renamed — shapes
    :func:`repro.core.transform.correspondence_by_key` cannot derive
    textually.  It is normalized to a sorted tuple of ``(sid, (sids,))``
    pairs so the case stays hashable and JSON round-trips (dict or pair
    list both accepted on input).
    """

    kind: str  # "race" | "equiv"
    source: str
    source2: Optional[str] = None
    max_internal: int = 2
    seed: Optional[int] = None
    name: str = "case"
    correspondence: Optional[Tuple[Tuple[str, Tuple[str, ...]], ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("race", "equiv"):
            raise ValueError(f"bad case kind {self.kind!r}")
        if self.kind == "equiv" and self.source2 is None:
            raise ValueError("equivalence case needs source2")
        if self.correspondence is not None:
            items = (
                self.correspondence.items()
                if isinstance(self.correspondence, dict)
                else self.correspondence
            )
            norm = tuple(sorted(
                (str(k), tuple(sorted(str(s) for s in vs)))
                for k, vs in items
            ))
            object.__setattr__(self, "correspondence", norm)

    def correspondence_overrides(self) -> Optional[Dict[str, set]]:
        """The overrides in :func:`correspondence_by_key` form."""
        if self.correspondence is None:
            return None
        return {k: set(vs) for k, vs in self.correspondence}

    def programs(self) -> Tuple[A.Program, Optional[A.Program]]:
        p = parse_program(self.source, name=f"{self.name}-p")
        validate(p)
        q = None
        if self.source2 is not None:
            q = parse_program(self.source2, name=f"{self.name}-q")
            validate(q)
        return p, q


def query_for_case(case: Case) -> Union[RaceQuery, EquivalenceQuery]:
    """The Query-IR object a case asks — its :meth:`~repro.engine.query.
    RaceQuery.key` is the content hash the fuzzer dedups on and the
    result cache stores under."""
    p, q = case.programs()
    if case.kind == "race":
        return RaceQuery(program=p, scope=case.max_internal)
    assert q is not None
    mapping = correspondence_by_key(
        p, q, overrides=case.correspondence_overrides(), strict=False
    )
    return EquivalenceQuery(
        program=p, program2=q, mapping=mapping, scope=case.max_internal
    )


@dataclass(frozen=True)
class OracleConfig:
    """Engine limits for one oracle evaluation."""

    field_seeds: Tuple[int, ...] = (0, 7, 13)
    schedule_cap: int = 240
    run_symbolic: bool = True
    sym_deadline_s: float = 10.0
    det_budget: int = 50_000
    product_budget: int = 3_000
    # (probe, hit, action) armed around each symbolic run — used by the
    # fault-injection conformance tests; re-armed on every evaluation so
    # the shrinker's re-runs reproduce the fault deterministically.
    fault: Optional[Tuple[str, int, str]] = None

    @property
    def limits(self) -> Limits:
        """The solver limits of both symbolic paths."""
        return Limits(
            det_budget=self.det_budget,
            product_budget=self.product_budget,
            mso_deadline_s=self.sym_deadline_s,
        )


@dataclass(frozen=True)
class Mismatch:
    """One soundness-lattice violation."""

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


@dataclass
class CaseResult:
    case: Case
    mismatches: List[Mismatch] = dc_field(default_factory=list)
    warnings: List[str] = dc_field(default_factory=list)
    engines: Dict[str, object] = dc_field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches


# ----------------------------------------------------------------------
# Engine runs


@contextmanager
def _fault_armed(cfg: OracleConfig):
    """Arm the configured fault (if any) for one symbolic run."""
    if cfg.fault is None:
        yield
        return
    probe, hit, action = cfg.fault
    fault_mod.disarm_all()
    fault_mod.arm(probe, hit=hit, action=action)
    try:
        yield
    finally:
        fault_mod.disarm_all()


def _symbolic_race(query: RaceQuery, cfg: OracleConfig):
    """The strict ``mso`` rung's verdict, with the configured fault
    armed.  An undecided verdict keeps whatever witness it carries, so
    the stale-witness rule can see it."""
    with _fault_armed(cfg):
        sym, _rung = run_symbolic(
            get_engine("mso").bind(query), cfg.limits, [], {}, lenient=False
        )
    return sym


def _bounded(query):
    """The bounded engine's verdict on the query's own scope."""
    return get_engine("bounded").bind(query)(query.scope, None)


# ----------------------------------------------------------------------
# The oracle


def _check_race_case(
    case: Case, cfg: OracleConfig, result: CaseResult
) -> None:
    program, _ = case.programs()
    query = RaceQuery(program=program, scope=case.max_internal)
    fields = program_fields(program)
    interp = get_engine("interp")

    interp_race = interp.race_evidence(query, field_seeds=cfg.field_seeds)
    result.engines["interp_race"] = interp_race

    bounded = _bounded(query)
    result.engines["bounded"] = str(bounded)
    result.engines["bounded_found"] = bounded.found

    # Lattice: dynamic race ⇒ bounded race (the abstraction
    # over-approximates dynamic iterations — Thm 2's sound direction).
    if interp_race and not bounded.found:
        result.mismatches.append(Mismatch(
            "interp-vs-bounded",
            f"dynamic race exists but bounded says race-free: {interp_race}",
        ))

    # Race-free fork-join programs are schedule-deterministic; a
    # divergent outcome under a race-free verdict means the
    # happens-before relation (or the bounded abstraction) lost a race.
    if not bounded.found:
        div = interp.schedule_divergence(
            query, field_seeds=cfg.field_seeds, schedule_cap=cfg.schedule_cap
        )
        if div:
            result.mismatches.append(Mismatch(
                "schedule-divergence",
                f"bounded says race-free but outcomes diverge: {div}",
            ))

    if bounded.found and bounded.witness is not None:
        cells = getattr(bounded.witness, "cells", ())
        if any(str(c).startswith("field:") for c in cells):
            rep = replay_race_witness(
                program, bounded.witness.tree, fields, seeds=cfg.field_seeds
            )
            result.engines["bounded_replay"] = rep.detail
            if not rep.confirmed:
                result.warnings.append(
                    f"spurious-witness: bounded race witness did not "
                    f"replay ({rep.detail})"
                )
        else:
            # Ghost value-cell races (e.g. two parallel calls of the same
            # function) are abstraction-level only; the dynamic detector
            # tracks field cells, so there is nothing to replay.
            result.engines["bounded_replay"] = (
                "skipped: value-cell witness is not dynamically observable"
            )

    if not cfg.run_symbolic:
        return
    try:
        sym = _symbolic_race(query, cfg)
    except SolverInternalError as e:
        # The engine's own message already says "symbolic engine failed".
        result.mismatches.append(Mismatch("engine-error", str(e)))
        return
    decided = sym.status == "decided"
    result.engines["symbolic"] = str(sym)
    result.engines["symbolic_status"] = sym.status
    result.engines["symbolic_found"] = sym.found if decided else None

    if not decided:
        # PR 2 invariant: an undecided run never carries a witness.
        if sym.witness is not None:
            result.mismatches.append(Mismatch(
                "stale-witness",
                f"symbolic status {sym.status!r} carries a witness",
            ))
        return

    if sym.found and sym.witness is None:
        result.mismatches.append(Mismatch(
            "missing-witness", "symbolic race verdict carries no witness"
        ))
    if not sym.found:
        # Symbolic race-free is a claim over *all* trees; any concrete
        # or bounded race on the scope refutes it outright.
        if bounded.found:
            result.mismatches.append(Mismatch(
                "bounded-vs-symbolic",
                f"bounded found a race but symbolic proved race-free: "
                f"{bounded.witness}",
            ))
        if interp_race:
            result.mismatches.append(Mismatch(
                "interp-vs-symbolic",
                f"dynamic race exists but symbolic proved race-free: "
                f"{interp_race}",
            ))
    elif sym.witness is not None:
        rep = replay_race_witness(
            program, sym.witness.tree, fields, seeds=cfg.field_seeds
        )
        result.engines["symbolic_replay"] = rep.detail
        if not rep.confirmed:
            result.warnings.append(
                f"spurious-witness: symbolic race witness did not replay "
                f"({rep.detail})"
            )


def _check_equiv_case(
    case: Case, cfg: OracleConfig, result: CaseResult
) -> None:
    p, q = case.programs()
    assert q is not None
    mapping = correspondence_by_key(
        p, q, overrides=case.correspondence_overrides(), strict=False
    )
    query = EquivalenceQuery(
        program=p, program2=q, mapping=mapping, scope=case.max_internal
    )
    # Thm 3 needs a *total* non-call correspondence; with a partial one
    # an "equivalent" verdict is outside the API's contract, so the
    # concrete-divergence rule is not escalated to a mismatch.
    total_mapping = all(
        b.sid in mapping for b in BlockTable(p).all_noncalls
    )
    result.engines["total_mapping"] = total_mapping

    # Thm 3's guarantee only applies to race-free programs (footnote 7);
    # the concrete-divergence rule is gated on that precondition.
    p_racefree, q_racefree = (
        not _bounded(RaceQuery(program=x, scope=case.max_internal)).found
        for x in (p, q)
    )
    result.engines["precondition_racefree"] = p_racefree and q_racefree

    divergence = (
        get_engine("interp").concrete_divergence(
            query, field_seeds=cfg.field_seeds
        )
        if p_racefree and q_racefree
        else None
    )
    result.engines["concrete_divergence"] = divergence

    bnd = check_equivalence(
        p, q, mapping, engine="bounded",
        max_internal=case.max_internal, replay=False,
    )
    result.engines["bounded"] = bnd.verdict

    if bnd.verdict == "equivalent" and divergence:
        if total_mapping:
            result.mismatches.append(Mismatch(
                "concrete-vs-equivalent",
                f"bounded says equivalent but concrete runs differ: "
                f"{divergence}",
            ))
        else:
            result.warnings.append(
                "partial-correspondence: equivalent verdict under a "
                f"partial mapping while concrete runs differ: {divergence}"
            )

    if not cfg.run_symbolic:
        return
    try:
        with _fault_armed(cfg):
            sym = check_equivalence(
                p, q, mapping, engine="mso", replay=False,
                **asdict(cfg.limits),
            )
    except SolverInternalError as e:
        # The engine's own message already says "symbolic engine failed".
        result.mismatches.append(Mismatch("engine-error", str(e)))
        return
    result.engines["symbolic"] = sym.verdict
    result.engines["symbolic_status"] = sym.details.get("mso_status")

    if sym.verdict == "equivalent" and sym.engine != "bisim":
        if divergence and total_mapping:
            result.mismatches.append(Mismatch(
                "concrete-vs-equivalent",
                f"symbolic says equivalent (all trees) but concrete runs "
                f"differ: {divergence}",
            ))
        if bnd.verdict == "not-equivalent":
            result.mismatches.append(Mismatch(
                "bounded-vs-symbolic",
                "bounded found a conflict on the scope but symbolic "
                "proved equivalence over all trees",
            ))


def run_case(case: Case, cfg: OracleConfig = OracleConfig()) -> CaseResult:
    """Run one case through every engine and check the lattice."""
    t0 = time.perf_counter()
    result = CaseResult(case=case)
    if case.kind == "race":
        _check_race_case(case, cfg, result)
    else:
        _check_equiv_case(case, cfg, result)
    result.elapsed = time.perf_counter() - t0
    return result
