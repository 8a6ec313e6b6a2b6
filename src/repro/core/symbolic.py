"""Symbolic (MSO/automata) engine for the data-race and conflict queries.

The MONA-style counterpart of :mod:`repro.core.bounded`: the queries of
Theorems 2 and 3 are discharged as satisfiability of the §4 encoding, over
*all* trees rather than a bounded scope.  One query is issued per
statically-conflicting endpoint pair, so the expensive q-independent
``Configuration`` conjuncts compile once and are shared via the compiler's
memo table.

Failure semantics (DESIGN.md §7): both checkers take a
:class:`~repro.runtime.ResourceGuard`;
resource exhaustion is reported as a distinct ``SymbolicVerdict.status``
(``"deadline"`` / ``"budget"`` / ``"memory"``), and any unexpected
exception escapes as a typed
:class:`~repro.runtime.SolverInternalError` — never as a silent
``race-free``/``equivalent`` verdict.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..automata.emptiness import Witness
from ..engine.query import Limits
from ..lang import ast as A
from ..mso import syntax as S
from ..runtime import (
    ReproError,
    ResourceExhausted,
    ResourceGuard,
    SolverInternalError,
    exhaustion_status,
)
from ..solver.solver import MSOSolver
from .bounded import block_touches, cell_class
from .configurations import ProgramModel
from .encode import ConfigTracks, Encoder

__all__ = ["SymbolicVerdict", "check_data_race_mso", "check_conflict_mso"]

X1, X2 = "@x1", "@x2"


@dataclass
class SymbolicVerdict:
    query: str
    found: bool
    status: str  # "decided" | "budget" | "deadline" | "memory"
    witness: Optional[Witness] = None
    witness_info: Optional[str] = None
    queries: int = 0
    elapsed: float = 0.0
    max_states: int = 0
    # Snapshot of the solver's per-phase statistics (SolverStats.as_dict),
    # including BDD node/cache counters — filled in on every return path.
    stats: Optional[Dict[str, object]] = None

    @property
    def holds(self) -> bool:
        return self.status == "decided" and not self.found

    def __str__(self) -> str:
        status = (
            "COUNTEREXAMPLE"
            if self.found
            else (
                "holds (all trees)"
                if self.status == "decided"
                else self.status.upper()
            )
        )
        return (
            f"[mso] {self.query}: {status} ({self.queries} queries, "
            f"max {self.max_states} automaton states, {self.elapsed:.3f}s)"
        )


def _conflicting_block_pairs(model: ProgramModel):
    """Non-call block pairs with a statically conflicting cell.

    Field conflicts are yielded before pure value-cell (return/variable)
    conflicts: real races are usually field-level, so witness-bearing
    queries run before the budget is spent on ghost-cell pairs."""
    noncalls = model.table.all_noncalls
    pairs = []
    for i, q1 in enumerate(noncalls):
        for q2 in noncalls[i:]:
            offsets = model.rw.conflict_offsets(q1, q2)
            if offsets:
                has_field = any(kind == "field" for _, _, kind, _ in offsets)
                cross_func = q1.func != q2.func
                # (field cross-traversal) < (field same-traversal) < rest
                rank = (0 if has_field else 2) + (0 if cross_func else 1)
                pairs.append((rank, q1, q2))
    pairs.sort(key=lambda t: t[0])
    for _, q1, q2 in pairs:
        yield q1, q2


def _attach_guard(solver: MSOSolver, guard: Optional[ResourceGuard]) -> None:
    """Install the guard on the solver and bind its BDD manager."""
    solver.guard = guard
    if guard is not None:
        guard.bind_manager(solver.registry.manager)


def _wrap_internal(e: Exception, guard: Optional[ResourceGuard]) -> SolverInternalError:
    return SolverInternalError(
        f"symbolic engine failed: {type(e).__name__}: {e}",
        phase=guard.last_phase if guard is not None else None,
    )


def check_data_race_mso(
    program: A.Program,
    solver: Optional[MSOSolver] = None,
    det_budget: int = Limits.det_budget,
    guard: Optional[ResourceGuard] = None,
) -> SymbolicVerdict:
    """``DataRace[[P]]`` (Thm 2) by MSO satisfiability, over all trees."""
    model = ProgramModel(program)
    enc = Encoder(model, program.name.replace(" ", "_"))
    solver = solver or MSOSolver(det_budget=det_budget)
    ct1, ct2 = enc.tracks(1), enc.tracks(2)
    enc.preregister(solver.registry, (ct1, ct2))
    _attach_guard(solver, guard)
    t0 = time.perf_counter()
    verdict = SymbolicVerdict(query=f"data-race({program.name})", found=False, status="decided")
    try:
        # The q-independent constraints compile once per configuration
        # family; the Parallel relation compiles once.  They are kept as
        # separate product factors so each query's cheap Current/geometry
        # constraints can prune the product early.
        core1 = solver.automaton_conj(
            enc.config_core_parts(ct1), cache_key=f"cfg-core:{ct1.prefix}"
        )
        core2 = solver.automaton_conj(
            enc.config_core_parts(ct2), cache_key=f"cfg-core:{ct2.prefix}"
        )
        par = solver.compile(enc.parallel(ct1, ct2))
        for q1, q2 in _conflicting_block_pairs(model):
            if guard is not None and guard.expired():
                verdict.status = "deadline"
                break
            parts: List[object] = [core1, core2, par]
            parts += enc.current_parts(ct1, q1, X1)
            parts += enc.current_parts(ct2, q2, X2)
            parts.append(enc.dependence_geometry(q1, q2, X1, X2))
            parts.append(S.Sing(X1))
            parts.append(S.Sing(X2))
            acc = solver.automaton_conj(parts)
            res = solver.sat_of(acc, exist_fo=(X1, X2))
            verdict.queries += 1
            verdict.max_states = max(verdict.max_states, res.automaton_states)
            if res.is_sat:
                verdict.found = True
                verdict.witness = res.witness
                verdict.witness_info = (
                    f"parallel dependent iterations ({q1.sid}, {q2.sid})"
                )
                break
    except ResourceExhausted as e:
        verdict.status = exhaustion_status(e)
    except ReproError:
        raise
    except Exception as e:
        raise _wrap_internal(e, guard) from e
    verdict.elapsed = time.perf_counter() - t0
    verdict.stats = solver.stats.as_dict(
        solver.registry.manager, solver.compiler.stats
    )
    return verdict


def check_conflict_mso(
    p: A.Program,
    p_prime: A.Program,
    mapping: Mapping[str, Set[str]],
    solver: Optional[MSOSolver] = None,
    det_budget: int = Limits.det_budget,
    guard: Optional[ResourceGuard] = None,
) -> SymbolicVerdict:
    """``Conflict[[P, P']]`` (Thm 3) by MSO satisfiability.

    As in the bounded engine (and the paper's shared-blocks setup),
    dependences are identified on ``P``; ``P'`` contributes the reversed
    schedule.  One query per (dependence endpoints, access-compatible image)
    combination, in both orientations."""
    model_p = ProgramModel(p)
    model_q = ProgramModel(p_prime)
    enc_p = Encoder(model_p, "P")
    enc_q = Encoder(model_q, "Q")
    solver = solver or MSOSolver(det_budget=det_budget)
    ct1, ct2 = enc_p.tracks(1), enc_p.tracks(2)
    ct3, ct4 = enc_q.tracks(3), enc_q.tracks(4)
    enc_p.preregister(solver.registry, (ct1, ct2))
    enc_q.preregister(solver.registry, (ct3, ct4))
    _attach_guard(solver, guard)
    t0 = time.perf_counter()
    verdict = SymbolicVerdict(
        query=f"conflict({p.name} vs {p_prime.name})", found=False, status="decided"
    )
    try:
        cores = [
            solver.automaton_conj(
                enc.config_core_parts(ct), cache_key=f"cfg-core:{ct.prefix}"
            )
            for enc, ct in (
                (enc_p, ct1), (enc_p, ct2), (enc_q, ct3), (enc_q, ct4)
            )
        ]
        ord_p = solver.compile(enc_p.ordered(ct1, ct2))
        ord_q_rev = solver.compile(enc_q.ordered(ct4, ct3))
        def p_side_parts(qa, qb):
            # Endpoint-specific conjuncts are grouped under their own
            # cache keys: each group depends on one block, so across the
            # pair sweep the groups — and the merged factors the lazy
            # product builds from them — are shared objects, and the
            # per-query factor-merge phase becomes cache hits.
            cur_a1 = solver.automaton_conj(
                enc_p.current_parts(ct1, qa, X1) + [S.Sing(X1)],
                cache_key=f"cur:{ct1.prefix}:{qa.sid}",
            )
            cur_b2 = solver.automaton_conj(
                enc_p.current_parts(ct2, qb, X2) + [S.Sing(X2)],
                cache_key=f"cur:{ct2.prefix}:{qb.sid}",
            )
            return [
                cores[0], cores[1], ord_p, cur_a1, cur_b2,
                enc_p.dependence_geometry(qa, qb, X1, X2),
            ]

        def q_side_parts(ams, bms):
            cur_a3 = solver.automaton_conj(
                [enc_q.current_any(
                    ct3, [model_q.table.block(a) for a in ams], X1
                )],
                cache_key=f"cur:{ct3.prefix}:{','.join(ams)}",
            )
            cur_b4 = solver.automaton_conj(
                [enc_q.current_any(
                    ct4, [model_q.table.block(b) for b in bms], X2
                )],
                cache_key=f"cur:{ct4.prefix}:{','.join(bms)}",
            )
            return [cores[2], cores[3], ord_q_rev, cur_a3, cur_b4]

        def localize(qa, qb, ams, bms):
            """A class query is SAT: find a witnessing image pair and a
            decodable witness from the joint product (the interface
            projection cannot be decoded back to labels)."""
            for qam in ams:
                for qbm in bms:
                    acc = solver.automaton_conj(
                        p_side_parts(qa, qb)
                        + q_side_parts((qam,), (qbm,))
                    )
                    res = solver.sat_of(acc, exist_fo=(X1, X2))
                    verdict.queries += 1
                    if res.is_sat:
                        return qam, qbm, res
            return None  # interface over-approximation never reaches here

        for q1, q2 in _conflicting_block_pairs(model_p):
            if verdict.found or verdict.status != "decided":
                break
            # Both orientations of the dependence.
            for qa, qb in ((q1, q2), (q2, q1)) if q1 is not q2 else ((q1, q2),):
                if verdict.found or verdict.status != "decided":
                    break
                reqs = set()
                for d1, d2, kind, name in model_p.rw.conflict_offsets(qa, qb):
                    clazz = cell_class(kind, name)
                    reqs.add((clazz, "rw", "w"))
                    reqs.add((clazz, "w", "rw"))
                # One query per conflict class, not per image pair: the
                # access-compatible images form a *product* set A1 × A2
                # per class, so ``Current`` generalizes to a disjunction
                # over each side's candidate set and the whole class is
                # one satisfiability question.  (SAT distributes over
                # the union, so the answer equals the OR of the old
                # per-pair queries; a SAT class is then localized.)
                seen_sets = set()
                for clazz, n1, n2 in sorted(reqs):
                    if verdict.found or verdict.status != "decided":
                        break
                    if guard is not None and guard.expired():
                        verdict.status = "deadline"
                        break
                    ams = tuple(
                        a for a in sorted(mapping.get(qa.sid, set()))
                        if block_touches(model_q, a, clazz, n1)
                    )
                    bms = tuple(
                        b for b in sorted(mapping.get(qb.sid, set()))
                        if block_touches(model_q, b, clazz, n2)
                    )
                    if not ams or not bms or (ams, bms) in seen_sets:
                        continue
                    seen_sets.add((ams, bms))
                    # An empty P-side interface (e.g. unsatisfiable
                    # dependence geometry) decides the combo before any
                    # P'-side automaton is even built.
                    iface_p = solver.interface_conj(
                        p_side_parts(qa, qb), (X1, X2),
                        cache_key=f"iface-P:{qa.sid}:{qb.sid}",
                    )
                    if not iface_p.accepting:
                        verdict.queries += 1
                        continue
                    # The two sides share only the tree shape and the
                    # endpoint markers (P*/Q* track prefixes are
                    # disjoint), so the joint conjunction is empty iff
                    # the sides' {x1, x2}-interface automata intersect
                    # empty — and each side depends on only its own loop
                    # variables, so saturations are shared across the
                    # sweep.
                    iface_q = solver.interface_conj(
                        q_side_parts(ams, bms), (X1, X2),
                        cache_key=f"iface-Q:{','.join(ams)}|{','.join(bms)}",
                    )
                    acc = solver.automaton_conj([iface_p, iface_q])
                    res = solver.sat_of(
                        acc, exist_fo=(X1, X2), want_witness=False
                    )
                    verdict.queries += 1
                    verdict.max_states = max(
                        verdict.max_states, res.automaton_states
                    )
                    if res.is_sat:
                        hit = localize(qa, qb, ams, bms)
                        if hit is None:
                            continue
                        qam, qbm, res = hit
                        verdict.found = True
                        verdict.witness = res.witness
                        verdict.max_states = max(
                            verdict.max_states, res.automaton_states
                        )
                        verdict.witness_info = (
                            f"dependence ({qa.sid}@x1 -> {qb.sid}@x2) ordered "
                            f"in P but reversed in P' via ({qam}, {qbm})"
                        )
                        break
    except ResourceExhausted as e:
        verdict.status = exhaustion_status(e)
    except ReproError:
        raise
    except Exception as e:
        raise _wrap_internal(e, guard) from e
    verdict.elapsed = time.perf_counter() - t0
    verdict.stats = solver.stats.as_dict(
        solver.registry.manager, solver.compiler.stats
    )
    return verdict
