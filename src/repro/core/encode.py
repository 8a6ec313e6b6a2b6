"""The Retreet → MSO encoder (paper §4).

Implements every predicate of the paper's encoding as MSO formulas over the
label tracks of one or more *configuration families*:

* ``L{i}_{sid}`` — second-order label "a record (sid, u, …) is in
  configuration i" (including the pseudo-call ``main``);
* ``C{i}_{cid}`` — second-order label "arithmetic branch condition cid's
  weakest precondition holds at u in configuration i".

Key deviations from a naive transcription, all semantics-preserving and all
in the spirit of hand-optimized MONA encodings:

* ``Current`` uses ``Sing``/``Empty`` atoms instead of a ∀-quantifier;
* ``Next`` uses child-term atoms (``u.l ∈ L_t``), ``Prev`` uses the
  parent-relative atoms, so neither introduces quantifiers;
* the prefix-agreement inside ``Consistent`` is the single ``AgreeUpTo``
  atom instead of ``∃z ∀v (reach(v,z) → …)``;
* dependence is *field-sensitive* and covers return-value cells (see
  :mod:`repro.core.readwrite`), matching the bounded reference engine.

Free second-order tracks are implicitly existential in a satisfiability
query, so ``DataRace``/``Conflict`` need no outer second-order quantifiers —
witnesses directly expose the two configurations' labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..lang.blocks import Block, Relation
from ..mso import ordering
from ..mso import syntax as S
from .configurations import MAIN_SID, ProgramModel
from .pathcond import TransitionCase

__all__ = ["ConfigTracks", "Encoder"]


@dataclass(frozen=True)
class ConfigTracks:
    """Track naming for one configuration family."""

    prefix: str  # e.g. "P1"

    def L(self, sid: str) -> str:
        return f"{self.prefix}.L.{sid}"

    def C(self, cid: str) -> str:
        return f"{self.prefix}.C.{cid}"


class Encoder:
    """Builds the §4 formulas for one program."""

    def __init__(self, model: ProgramModel, prefix: str) -> None:
        self.model = model
        self.prefix = prefix
        self.table = model.table

    def tracks(self, i: int) -> ConfigTracks:
        return ConfigTracks(f"{self.prefix}{i}")

    def preregister(self, registry, track_families: Sequence[ConfigTracks]) -> None:
        """Assign BDD levels from program structure (see mso.ordering).

        Columns (labels) are seriated so co-occurring ones sit on nearby
        levels — a function's blocks, its call sites, and the conditions
        its paths pin all appear together in ``Next``/``Prev`` guards.
        Families are interleaved per column: the ``AgreeUpTo`` guards are
        conjunctions of pairwise equivalences between families' tracks,
        exponential under a blocked order and linear interleaved — the
        classic vector-equality ordering lesson, applied here before
        anything else registers tracks."""
        namers = []
        for ct in track_families:
            namers.append(
                lambda col, _ct=ct: _ct.L(col[1]) if col[0] == "L" else _ct.C(col[1])
            )
        for track in ordering.interleave(self.column_order(), namers):
            registry.level(track)

    def column_order(self) -> List[Tuple[str, str]]:
        """Seriated ``("L", sid)`` / ``("C", cid)`` columns, main first."""
        cached = getattr(self, "_col_order", None)
        if cached is None:
            cols, edges = self.ordering_affinity()
            cached = ordering.seriate(cols, edges, start=("L", MAIN_SID))
            self._col_order = cached
        return cached

    def ordering_affinity(self):
        """Column affinity graph for the variable-ordering heuristic.

        Weights reflect how often two labels share a guard conjunct:
        arithmetic pins sit inside the very disjunct naming their block
        (heaviest); a call site's label co-occurs with every callee block
        in successor/predecessor uniqueness; consecutive blocks of one
        function appear together in the mutual-exclusion choices."""
        cols: List[Tuple[str, str]] = [("L", s) for s in self.all_sids()]
        cols += [("C", c) for c in self.all_cids()]
        edges: Dict[Tuple[Tuple[str, str], Tuple[str, str]], float] = {}

        def bump(a: Tuple[str, str], b: Tuple[str, str], w: float) -> None:
            if a == b:
                return
            k = (a, b) if a <= b else (b, a)
            edges[k] = edges.get(k, 0.0) + w

        for s_sid, fname in self._call_sites():
            blocks = self.table.blocks_of(fname)
            for t in blocks:
                bump(("L", s_sid), ("L", t.sid), 2.0)
                for case in self.model.cases(fname, t):
                    for ap in case.arith_pins:
                        bump(("L", t.sid), ("C", ap.cid), 4.0)
                        bump(("L", s_sid), ("C", ap.cid), 1.0)
            for t1, t2 in zip(blocks, blocks[1:]):
                bump(("L", t1.sid), ("L", t2.sid), 3.0)
        return cols, edges

    # -- label inventory -----------------------------------------------------
    def all_sids(self) -> List[str]:
        return [MAIN_SID] + [b.sid for b in self.table.blocks]

    def all_cids(self) -> List[str]:
        return [c.cid for c in self.model.universe.arith_conds]

    # -- Next (Lemma 1's PathCond, abstracted) ---------------------------------
    def next_formula(
        self, ct: ConfigTracks, u: str, fname: str, t: Block
    ) -> S.Formula:
        """``Next(L, C, u, s, t)`` for any call s into ``fname``: some
        speculative path of ``fname`` reaches ``t`` with the target record's
        label present and the path pins satisfied at ``u``."""
        cases = self.model.cases(fname, t)
        disjuncts: List[S.Formula] = []
        for case in cases:
            parts: List[S.Formula] = []
            # Target label: non-call blocks run at u itself; call blocks
            # place the callee at u or a child of u.
            target_dirs = case.direction if t.is_call else ""
            parts.append(S.In(S.NodeTerm(u, target_dirs), ct.L(t.sid)))
            for sp in case.struct_pins:
                atom = S.IsNilT(S.NodeTerm(u, sp.dirs))
                parts.append(atom if sp.is_nil else S.Not(atom))
            for ap in case.arith_pins:
                atom = S.In(S.NodeTerm(u), ct.C(ap.cid))
                parts.append(atom if ap.value else S.Not(atom))
            disjuncts.append(S.And(tuple(parts)) if len(parts) > 1 else parts[0])
        if not disjuncts:
            return S.FalseF()
        if len(disjuncts) == 1:
            return disjuncts[0]
        return S.Or(tuple(disjuncts))

    # -- Prev (the dual constraint, via parent-relative atoms) ------------------
    def prev_via(
        self, ct: ConfigTracks, u: str, s_sid: str, fname: str, t: Block
    ) -> S.Formula:
        """Record (t, u) is justified by a parent record (s, v) — v is u's
        parent (descending call) or u itself (same-node call)."""
        cases = self.model.cases(fname, t)
        disjuncts: List[S.Formula] = []
        for case in cases:
            d = case.direction if t.is_call else ""
            parts: List[S.Formula] = []
            if d == "":
                parts.append(S.In(S.NodeTerm(u), ct.L(s_sid)))
                for sp in case.struct_pins:
                    atom = S.IsNilT(S.NodeTerm(u, sp.dirs))
                    parts.append(atom if sp.is_nil else S.Not(atom))
                for ap in case.arith_pins:
                    atom = S.In(S.NodeTerm(u), ct.C(ap.cid))
                    parts.append(atom if ap.value else S.Not(atom))
            else:
                parts.append(S.ParentRelIn(u, d, "", ct.L(s_sid)))
                for sp in case.struct_pins:
                    atom = S.ParentRelNil(u, d, sp.dirs)
                    parts.append(atom if sp.is_nil else S.Not(atom))
                for ap in case.arith_pins:
                    atom = S.ParentRelIn(u, d, "", ct.C(ap.cid))
                    parts.append(atom if ap.value else S.Not(atom))
            disjuncts.append(S.And(tuple(parts)) if len(parts) > 1 else parts[0])
        if not disjuncts:
            return S.FalseF()
        if len(disjuncts) == 1:
            return disjuncts[0]
        return S.Or(tuple(disjuncts))

    # -- Configuration (Def. 2 as labels) -----------------------------------------
    def current_parts(
        self, ct: ConfigTracks, q: Block, x: str
    ) -> List[S.Formula]:
        """The query-dependent ``Current`` conjuncts: L_q = {x}; every other
        non-call label empty."""
        parts: List[S.Formula] = [
            S.In(S.NodeTerm(x), ct.L(q.sid)),
            S.Sing(ct.L(q.sid)),
        ]
        for q2 in self.table.all_noncalls:
            if q2 is not q:
                parts.append(S.Empty(ct.L(q2.sid)))
        return parts

    def current_any(
        self, ct: ConfigTracks, blocks: Sequence[Block], x: str
    ) -> S.Formula:
        """``Current`` for *some* block of a candidate set at ``x``.

        One disjunct per block; lets a query sweep over an image set ask
        a single satisfiability question instead of one per block — the
        conjunction with the rest of the query distributes over the
        union, so the answer is SAT iff some per-block query is."""
        opts = [
            S.And(tuple(self.current_parts(ct, b, x))) for b in blocks
        ]
        return opts[0] if len(opts) == 1 else S.Or(tuple(opts))

    def config_core_parts(self, ct: ConfigTracks) -> List[S.Formula]:
        """The query-independent conjuncts of ``Configuration``: root/main,
        successor and predecessor uniqueness, condition consistency.  These
        compile once per configuration family and are shared by every
        endpoint query."""
        parts: List[S.Formula] = []
        u = f"@u.{ct.prefix}"

        # (1) main labels exactly the root.
        parts.append(
            S.Forall1(
                (u,),
                S.Iff(S.In(S.NodeTerm(u), ct.L(MAIN_SID)), S.RootT(S.NodeTerm(u))),
            )
        )

        # (3) every call record has exactly one successor.
        for s_sid, fname in self._call_sites():
            body = S.Implies(
                S.In(S.NodeTerm(u), ct.L(s_sid)),
                self._succ_choice(ct, u, fname),
            )
            parts.append(S.Forall1((u,), body))

        # (4) every record has a justified, unique predecessor.
        for t in self.table.blocks:
            parents = self._parents_of(t)
            body_parts: List[S.Formula] = []
            choice = []
            for s_sid, fname in parents:
                via = self.prev_via(ct, u, s_sid, fname, t)
                others = [
                    S.Not(self.prev_via(ct, u, s2, f2, t))
                    for s2, f2 in parents
                    if s2 != s_sid
                ]
                choice.append(
                    S.And(tuple([via] + others)) if others else via
                )
            prev = S.Or(tuple(choice)) if len(choice) > 1 else (
                choice[0] if choice else S.FalseF()
            )
            parts.append(
                S.Forall1(
                    (u,), S.Implies(S.In(S.NodeTerm(u), ct.L(t.sid)), prev)
                )
            )

        # (5) per-node condition-set consistency.
        cids = self.all_cids()
        universe = self.model.universe
        if cids and not getattr(universe, "all_consistent", False):
            sets = universe.consistent_sets
            options: List[S.Formula] = []
            for sset in sets:
                lits = []
                for cid, val in sorted(sset):
                    atom = S.In(S.NodeTerm(u), ct.C(cid))
                    lits.append(atom if val else S.Not(atom))
                options.append(S.And(tuple(lits)) if len(lits) > 1 else lits[0])
            if not options:
                parts.append(S.FalseF())
            else:
                parts.append(
                    S.Forall1(
                        (u,),
                        S.Or(tuple(options)) if len(options) > 1 else options[0],
                    )
                )
        return parts

    def _call_sites(self) -> List[Tuple[str, str]]:
        """(call sid, callee function) pairs, including the entry pseudo-call."""
        out = [(MAIN_SID, self.model.program.entry)]
        for b in self.table.all_calls:
            out.append((b.sid, b.callee))
        return out

    def _parents_of(self, t: Block) -> List[Tuple[str, str]]:
        """Call sites s with s ◁ t."""
        out = []
        for s_sid, fname in self._call_sites():
            if t.func == fname:
                out.append((s_sid, fname))
        return out

    def _succ_choice(self, ct: ConfigTracks, u: str, fname: str) -> S.Formula:
        blocks = self.table.blocks_of(fname)
        options: List[S.Formula] = []
        for t in blocks:
            here = self.next_formula(ct, u, fname, t)
            others = [
                S.Not(self.next_formula(ct, u, fname, t2))
                for t2 in blocks
                if t2 is not t
            ]
            options.append(S.And(tuple([here] + others)) if others else here)
        if not options:
            return S.FalseF()
        return S.Or(tuple(options)) if len(options) > 1 else options[0]

    # -- Consistent / Ordered / Parallel (Fig. 5) -----------------------------------
    def _same_node_closure(self, t: Block) -> Set[str]:
        """Block sids whose records can sit on the *same node* as ``t``'s
        record, at or after it: ``t`` itself plus everything reachable
        through direction-'' (same-node) transitions."""
        out: Set[str] = set()
        work = [t]
        while work:
            b = work.pop()
            if b.sid in out:
                continue
            out.add(b.sid)
            if not b.is_call:
                continue
            for t2 in self.table.blocks_of(b.callee):
                for case in self.model.cases(b.callee, t2):
                    d = case.direction if t2.is_call else ""
                    if d == "" and t2.sid not in out:
                        work.append(t2)
        return out

    def _agree_pairs(
        self, a: ConfigTracks, b: ConfigTracks, t1: Block, t2: Block
    ) -> Tuple[Tuple[Tuple[str, str], ...], Tuple[Tuple[str, str], ...]]:
        """(inclusive pairs, strict pairs) for ``AgreeUpTo``.

        Condition labels must agree at the diverging node too (the two
        next-steps fire "at the same time").  Record labels agree at z as
        well — except those of blocks in the same-node closures of the
        diverging steps ``t1``/``t2``: exactly the records a real
        coexisting pair may legitimately place on z after the divergence.
        This per-triple refinement is sound (shared-prefix records appear
        identically in both families) and keeps the automata small."""
        incl = [(a.C(cid), b.C(cid)) for cid in self.all_cids()]
        excluded = self._same_node_closure(t1) | self._same_node_closure(t2)
        strict = []
        for sid in self.all_sids():
            pair = (a.L(sid), b.L(sid))
            if sid in excluded:
                strict.append(pair)
            else:
                incl.append(pair)
        return tuple(incl), tuple(strict)

    def consistent(
        self,
        a: ConfigTracks,
        b: ConfigTracks,
        s_sid: str,
        fname: str,
        t1: Block,
        t2: Block,
    ) -> S.Formula:
        z = f"@z.{a.prefix}.{b.prefix}"
        incl, strict = self._agree_pairs(a, b, t1, t2)
        return S.Exists1(
            (z,),
            S.And(
                (
                    S.AgreeUpTo(z, incl, strict),
                    S.In(S.NodeTerm(z), a.L(s_sid)),
                    S.In(S.NodeTerm(z), b.L(s_sid)),
                    self.next_formula(a, z, fname, t1),
                    self.next_formula(b, z, fname, t2),
                )
            ),
        )

    def _diverging_triples(self, relation: str) -> List[Tuple[str, str, Block, Block]]:
        """(s sid, callee, t1, t2) with s ◁ t1, s ◁ t2 and t1 <relation> t2."""
        out = []
        for s_sid, fname in self._call_sites():
            blocks = self.table.blocks_of(fname)
            for t1 in blocks:
                for t2 in blocks:
                    if t1 is t2:
                        continue
                    if self.table.relation(t1, t2) == relation:
                        out.append((s_sid, fname, t1, t2))
        return out

    def ordered(self, a: ConfigTracks, b: ConfigTracks) -> S.Formula:
        """Configuration family ``a`` strictly precedes ``b``."""
        opts = [
            self.consistent(a, b, s, f, t1, t2)
            for s, f, t1, t2 in self._diverging_triples(Relation.SEQ_BEFORE)
        ]
        if not opts:
            return S.FalseF()
        return S.Or(tuple(opts)) if len(opts) > 1 else opts[0]

    def parallel(self, a: ConfigTracks, b: ConfigTracks) -> S.Formula:
        opts = [
            self.consistent(a, b, s, f, t1, t2)
            for s, f, t1, t2 in self._diverging_triples(Relation.PARALLEL)
        ]
        if not opts:
            return S.FalseF()
        return S.Or(tuple(opts)) if len(opts) > 1 else opts[0]

    # -- Dependence geometry -----------------------------------------------------------
    def dependence_geometry(
        self, q1: Block, q2: Block, x1: str, x2: str
    ) -> S.Formula:
        """The two last iterations touch a common cell (≥1 write)."""
        opts: List[S.Formula] = []
        for d1, d2, kind, _name in self.model.rw.conflict_offsets(q1, q2):
            parts: List[S.Formula] = [
                S.EqT(S.NodeTerm(x1, d1), S.NodeTerm(x2, d2))
            ]
            if kind == "field":
                parts.append(S.Not(S.IsNilT(S.NodeTerm(x1, d1))))
            opts.append(S.And(tuple(parts)) if len(parts) > 1 else parts[0])
        if not opts:
            return S.FalseF()
        return S.Or(tuple(opts)) if len(opts) > 1 else opts[0]
