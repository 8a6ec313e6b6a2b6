"""The block model: numbering, relations, paths (paper §3 and Appendix B).

Code blocks (function calls and straight-line assignment sequences) are the
atomic units of Retreet.  This module numbers every block (``s0``, ``s1``,
...) and branch condition (``c0``, ...), and computes:

* the sets ``AllCalls``, ``AllNonCalls``, ``Blocks(f)``, ``Params(f)``;
* the syntactic relations of Fig. 11: ``s ◁ t`` (s calls t's function),
  ``s ∼ t`` (same function), ``s ≺ t`` (sequenced), ``s ↑ t`` (conditional
  branches), ``s ‖ t`` (parallel) — via least common ancestors in the
  function's syntax tree;
* ``Path(t)`` — the branch conditions (with polarity) guarding ``t``; and
* ``straightline_paths(t)`` — every straight-line path from the function
  entry to ``t`` (code blocks interleaved with assumes), the input to the
  weakest-precondition computation of Appendix C.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import ast as A

__all__ = ["Block", "CondInfo", "PathItem", "StraightPath", "BlockTable", "Relation"]

# A position inside a function-body syntax tree: a sequence of steps.
# Each step is ("seq", i) | ("if", 0|1) | ("par", i).
Pos = Tuple[Tuple[str, int], ...]


@dataclass(eq=False)
class Block:
    """A numbered code block."""

    sid: str
    index: int
    kind: str  # "call" | "noncall"
    func: str  # name of the function this block belongs to
    stmt: Union[A.CallStmt, A.AssignBlock]
    pos: Pos

    @property
    def is_call(self) -> bool:
        return self.kind == "call"

    @property
    def callee(self) -> str:
        assert isinstance(self.stmt, A.CallStmt)
        return self.stmt.func

    @property
    def has_return(self) -> bool:
        return isinstance(self.stmt, A.AssignBlock) and any(
            isinstance(a, A.Return) for a in self.stmt.assigns
        )

    def __repr__(self) -> str:
        return f"<{self.sid}:{self.kind} in {self.func}: {self.stmt}>"


@dataclass(eq=False)
class CondInfo:
    """A numbered branch condition (one per ``if`` statement)."""

    cid: str
    index: int
    func: str
    cond: A.BExpr
    if_node: A.If
    pos: Pos

    def __repr__(self) -> str:
        return f"<{self.cid} in {self.func}: {self.cond}>"


# Items of a straight-line path: executed blocks and assumed conditions.
@dataclass(frozen=True)
class PathItem:
    kind: str  # "block" | "assume"
    block: Optional[Block] = None
    cond: Optional[CondInfo] = None
    polarity: bool = True


StraightPath = Tuple[PathItem, ...]


class Relation:
    """Symbolic names for the block relations of Fig. 11."""

    CALLS = "calls"  # s ◁ t
    SEQ_BEFORE = "seq_before"  # s ≺ t
    SEQ_AFTER = "seq_after"  # t ≺ s
    CONDITIONAL = "conditional"  # s ↑ t
    PARALLEL = "parallel"  # s ‖ t
    UNRELATED = "unrelated"  # different functions


class BlockTable:
    """Numbered blocks/conditions and their relations for one program."""

    def __init__(self, program: A.Program) -> None:
        self.program = program
        self.blocks: List[Block] = []
        self.conds: List[CondInfo] = []
        self._block_of_stmt: Dict[int, Block] = {}
        self._cond_of_if: Dict[int, CondInfo] = {}
        self._blocks_of_func: Dict[str, List[Block]] = {}
        self._conds_of_func: Dict[str, List[CondInfo]] = {}
        for fname, func in program.funcs.items():
            self._blocks_of_func[fname] = []
            self._conds_of_func[fname] = []
            self._walk(fname, func.body, ())
        self._by_sid = {b.sid: b for b in self.blocks}
        self._by_cid = {c.cid: c for c in self.conds}

    # -- construction --------------------------------------------------------
    def _walk(self, fname: str, stmt: A.Stmt, pos: Pos) -> None:
        if isinstance(stmt, (A.CallStmt, A.AssignBlock)):
            kind = "call" if isinstance(stmt, A.CallStmt) else "noncall"
            b = Block(f"s{len(self.blocks)}", len(self.blocks), kind, fname, stmt, pos)
            self.blocks.append(b)
            self._block_of_stmt[id(stmt)] = b
            self._blocks_of_func[fname].append(b)
        elif isinstance(stmt, A.If):
            c = CondInfo(
                f"c{len(self.conds)}", len(self.conds), fname, stmt.cond, stmt, pos
            )
            self.conds.append(c)
            self._cond_of_if[id(stmt)] = c
            self._conds_of_func[fname].append(c)
            self._walk(fname, stmt.then, pos + (("if", 0),))
            if stmt.els is not None:
                self._walk(fname, stmt.els, pos + (("if", 1),))
        elif isinstance(stmt, A.Seq):
            for i, s in enumerate(stmt.stmts):
                self._walk(fname, s, pos + (("seq", i),))
        elif isinstance(stmt, A.Par):
            for i, s in enumerate(stmt.stmts):
                self._walk(fname, s, pos + (("par", i),))
        elif isinstance(stmt, A.Skip):
            pass
        else:
            raise TypeError(f"unknown statement {stmt!r}")

    # -- lookups --------------------------------------------------------------
    def block(self, sid: str) -> Block:
        return self._by_sid[sid]

    def cond(self, cid: str) -> CondInfo:
        return self._by_cid[cid]

    def of_stmt(self, stmt: A.Stmt) -> Block:
        return self._block_of_stmt[id(stmt)]

    def of_if(self, if_node: A.If) -> CondInfo:
        return self._cond_of_if[id(if_node)]

    def blocks_of(self, fname: str) -> List[Block]:
        return list(self._blocks_of_func[fname])

    def conds_of(self, fname: str) -> List[CondInfo]:
        return list(self._conds_of_func[fname])

    @property
    def all_calls(self) -> List[Block]:
        return [b for b in self.blocks if b.is_call]

    @property
    def all_noncalls(self) -> List[Block]:
        return [b for b in self.blocks if not b.is_call]

    def params(self, fname: str) -> Tuple[str, ...]:
        return self.program.funcs[fname].int_params

    # -- Fig. 11 relations -----------------------------------------------------
    def calls_into(self, s: Block, t: Block) -> bool:
        """``s ◁ t``: s is a call to the function t belongs to.

        ``main`` entry is handled by :meth:`entry_calls` (the pseudo-call)."""
        return s.is_call and t.func == s.callee

    def relation(self, s: Block, t: Block) -> str:
        """The Fig. 11 relation between two distinct same-function blocks."""
        if s.func != t.func:
            return Relation.UNRELATED
        if s is t:
            raise ValueError("relation of a block with itself is undefined")
        k = 0
        while k < len(s.pos) and k < len(t.pos) and s.pos[k] == t.pos[k]:
            k += 1
        # Distinct leaf blocks cannot have prefix-related positions.
        assert k < len(s.pos) and k < len(t.pos), (s, t)
        kind_s, i = s.pos[k]
        kind_t, j = t.pos[k]
        assert kind_s == kind_t and i != j
        if kind_s == "seq":
            return Relation.SEQ_BEFORE if i < j else Relation.SEQ_AFTER
        if kind_s == "if":
            return Relation.CONDITIONAL
        return Relation.PARALLEL

    def precedes(self, s: Block, t: Block) -> bool:
        """``s ≺ t``"""
        return self.relation(s, t) == Relation.SEQ_BEFORE

    def conditional(self, s: Block, t: Block) -> bool:
        """``s ↑ t``"""
        return self.relation(s, t) == Relation.CONDITIONAL

    def parallel(self, s: Block, t: Block) -> bool:
        """``s ‖ t``"""
        return self.relation(s, t) == Relation.PARALLEL

    # -- paths -----------------------------------------------------------------
    def path_conditions(self, t: Block) -> Tuple[Tuple[CondInfo, bool], ...]:
        """``Path(t)``: the if-conditions guarding ``t``, with polarity."""
        out: List[Tuple[CondInfo, bool]] = []
        node: A.Stmt = self.program.funcs[t.func].body
        for kind, i in t.pos:
            if kind == "if":
                assert isinstance(node, A.If)
                out.append((self.of_if(node), i == 0))
                node = node.then if i == 0 else node.els  # type: ignore[assignment]
            elif kind == "seq":
                assert isinstance(node, A.Seq)
                node = node.stmts[i]
            else:
                assert isinstance(node, A.Par)
                node = node.stmts[i]
        return tuple(out)

    def straightline_paths(self, t: Block) -> List[StraightPath]:
        """All straight-line paths from the entry of ``t``'s function to ``t``.

        Each path lists the blocks executed before ``t`` and the branch
        conditions assumed (with polarity), in order — the code sequence
        ``l1; assume(c1); ...; ln; t`` of Appendix C.  When a preceding
        sibling contains branching, one path per feasible branch choice is
        returned (a mild generalization of the paper, which assumes a unique
        path).  Statements in sibling *parallel* branches are excluded: their
        effects are unordered with respect to ``t`` and the paper's
        speculative execution does not model them.
        """
        body = self.program.funcs[t.func].body
        return [tuple(p) for p in self._paths_to(body, t)]

    def _paths_through(self, stmt: A.Stmt) -> List[List[PathItem]]:
        """Complete straight-line executions of ``stmt`` (for preceding
        siblings).  Paths that hit a ``return`` are marked terminal by a
        sentinel None... instead we drop them: execution cannot continue past
        a return, so such a path cannot precede a later sibling."""
        if isinstance(stmt, (A.CallStmt, A.AssignBlock)):
            b = self.of_stmt(stmt)
            if b.has_return:
                return []  # execution exits the function here
            return [[PathItem("block", block=b)]]
        if isinstance(stmt, A.Skip):
            return [[]]
        if isinstance(stmt, A.Seq):
            acc: List[List[PathItem]] = [[]]
            for s in stmt.stmts:
                nxt: List[List[PathItem]] = []
                for prefix in acc:
                    for cont in self._paths_through(s):
                        nxt.append(prefix + cont)
                acc = nxt
            return acc
        if isinstance(stmt, A.If):
            c = self.of_if(stmt)
            out: List[List[PathItem]] = []
            for p in self._paths_through(stmt.then):
                out.append([PathItem("assume", cond=c, polarity=True)] + p)
            els = stmt.els if stmt.els is not None else A.Skip()
            for p in self._paths_through(els):
                out.append([PathItem("assume", cond=c, polarity=False)] + p)
            return out
        if isinstance(stmt, A.Par):
            # Approximate a completed parallel region by the left-to-right
            # sequentialization; the validator flags programs where parallel
            # siblings write Int variables read later (none of the paper's
            # case studies do).
            acc = [[]]
            for s in stmt.stmts:
                nxt = []
                for prefix in acc:
                    for cont in self._paths_through(s):
                        nxt.append(prefix + cont)
                acc = nxt
            return acc
        raise TypeError(f"unknown statement {stmt!r}")

    def _paths_to(self, stmt: A.Stmt, target: Block) -> List[List[PathItem]]:
        if isinstance(stmt, (A.CallStmt, A.AssignBlock)):
            return [[]] if self.of_stmt(stmt) is target else []
        if isinstance(stmt, A.Skip):
            return []
        if isinstance(stmt, A.Seq):
            out: List[List[PathItem]] = []
            for i, s in enumerate(stmt.stmts):
                tails = self._paths_to(s, target)
                if not tails:
                    continue
                prefixes: List[List[PathItem]] = [[]]
                for prev in stmt.stmts[:i]:
                    nxt: List[List[PathItem]] = []
                    for p in prefixes:
                        for cont in self._paths_through(prev):
                            nxt.append(p + cont)
                    prefixes = nxt
                for p in prefixes:
                    for tail in tails:
                        out.append(p + tail)
            return out
        if isinstance(stmt, A.If):
            c = self.of_if(stmt)
            out = []
            for tail in self._paths_to(stmt.then, target):
                out.append([PathItem("assume", cond=c, polarity=True)] + tail)
            if stmt.els is not None:
                for tail in self._paths_to(stmt.els, target):
                    out.append([PathItem("assume", cond=c, polarity=False)] + tail)
            return out
        if isinstance(stmt, A.Par):
            out = []
            for s in stmt.stmts:
                out.extend(self._paths_to(s, target))
            return out
        raise TypeError(f"unknown statement {stmt!r}")

    # -- summaries ----------------------------------------------------------
    def summary(self) -> str:
        """Human-readable table of blocks and conditions (for docs/tests)."""
        lines = []
        for b in self.blocks:
            lines.append(f"{b.sid:>4} [{b.kind:7}] {b.func}: {b.stmt}")
        for c in self.conds:
            lines.append(f"{c.cid:>4} [cond   ] {c.func}: {c.cond}")
        return "\n".join(lines)
