"""Concrete interpreter for Retreet with interleaving parallel semantics.

Blocks are the atomic units (matching the paper's iteration granularity):
``{A || B}`` executes as a serialized interleaving of the blocks of A and B,
driven by a :class:`~repro.interp.schedules.Scheduler`.  All function
parameters are call-by-value.

The interpreter is the semantic ground truth of the reproduction: fusion
verdicts are cross-checked by running original and transformed programs on
random trees, and race counterexamples are replayed here.

Execution model
---------------
Each program is compiled once, on its first run, into flat per-function
code (see ``_Compiler``).  The machine runs that code on an **explicit
frame stack**, not Python recursion.  Each parallel leaf is a
:class:`_Thread` holding a stack of ``[code, pc, frame, post]``
activations; a scheduler *pick* advances one thread until it has executed
exactly one atomic block, then pauses it.  Call depth lives on the heap, so a depth-100k traversal runs
under ``sys.setrecursionlimit(256)``, and resuming a thread costs O(1)
amortized instead of the O(depth) ``yield from`` delegation chains of the
original generator machine (preserved in :mod:`repro.interp.reference` as a
differential oracle).

The observable scheduling behavior of the old machine is preserved: the
scheduler sees the same sequence of ``choose(live)`` calls with positionally
identical live sets — including the "exhaustion pick" each branch consumes
after its final block — whenever at most one ``par`` is dynamically active
at a time (every case study, and anything without a par nested under
another par's branch).  For dynamically *nested* pars this machine flattens
the hierarchy of per-par decisions into one frontier-wide choice per step;
the reachable interleavings of atomic blocks (and hence outcome sets) are
the same, but the decision-tree shape differs from the old machine.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..lang import ast as A
from ..lang.blocks import BlockTable
from ..trees.heap import NilAccessError, Tree, TreeNode
from .schedules import LeftFirst, Scheduler
from .trace import Ctx, Event, Iteration, Trace

__all__ = ["run", "ExecutionError", "Result", "value_blind"]


class ExecutionError(RuntimeError):
    pass


@dataclass
class Result:
    """Outcome of one execution."""

    returns: Tuple[int, ...]
    trace: Trace
    tree: Tree  # the (possibly mutated) heap after execution

    def field_snapshot(self, fields: Sequence[str]) -> Dict[str, Dict[str, int]]:
        """node path -> {field: value} for the given fields."""
        out: Dict[str, Dict[str, int]] = {}
        for n in self.tree.nodes():
            out[n.path] = {f: n.get(f) for f in fields}
        return out


class _Frame:
    """An activation record: the node a call runs on, its Int variables,
    its dynamic context and the values it returned."""

    __slots__ = ("node", "env", "context", "ret_values")

    def __init__(self, node: TreeNode, env: Dict[str, int], context: Ctx) -> None:
        self.node = node
        self.env = env
        self.context = context
        self.ret_values: Tuple[int, ...] = ()


class _Join:
    """Barrier a forked parent waits on."""

    __slots__ = ("parent", "remaining")

    def __init__(self, parent: "_Thread", remaining: int) -> None:
        self.parent = parent
        self.remaining = remaining


class _Thread:
    """A runnable parallel leaf: a stack of activations (top = end of
    list), each ``[code, pc, frame, post]``.  ``post`` is ``None`` or
    ``(targets, sid, callee, caller frame)``: where the callee's returns
    go when its code finishes.

    Threads sit on the machine's frontier, a doubly-linked list
    (``prev``/``next``) so that removing an exhausted thread, splicing
    fork branches in place, and re-inserting a joined parent are all
    O(1) — a left-spine descent over a depth-10^5 tree keeps ~10^5
    pending siblings on the frontier, and any per-pick O(frontier) work
    there turns the whole run quadratic.
    """

    __slots__ = ("tid", "stack", "join", "prev", "next")

    def __init__(self, tid: Optional[int], stack: List[tuple], join: Optional[_Join]) -> None:
        self.tid = tid
        self.stack = stack
        self.join = join
        self.prev: Optional["_Thread"] = None
        self.next: Optional["_Thread"] = None


# Compiled code.  Each function body compiles once per program to a flat
# tuple of instructions ``(op, steps, ...)``; ``Seq``, ``Skip`` and empty
# pars leave no instruction.  ``steps`` counts the statements the
# reference machine enters at that point (the instruction's own statement
# plus those compiled away in front of it), so ``max_steps`` counts
# exactly as it does there.  Expressions, guards and assignments are
# closures ``(machine, frame) -> value`` with their locations, trace
# events and error messages bound at compile time.
_ASSIGN, _IF, _JUMP, _CALL, _PAR = range(5)
#   (_ASSIGN, steps, sid, assigns, returns)  one atomic block
#   (_IF, steps, guard, else_pc)              go to else_pc unless guard
#   (_JUMP, steps, target)
#   (_CALL, steps, sid, callee, loc, args, targets)
#   (_PAR, steps, branch codes)               fork

_CODE: "weakref.WeakKeyDictionary[A.Program, tuple]" = weakref.WeakKeyDictionary()


def _code_of(program: A.Program) -> tuple:
    """``(shape, {function: (code, Int params)}, value-blind)``, built on
    the program's first run and cached by identity; a program whose
    functions were rewritten in place since is compiled again."""
    shape = tuple((f, f.body, f.int_params) for f in program.funcs.values())
    hit = _CODE.get(program)
    if hit is None or hit[0] != shape:
        table, codes, blind = BlockTable(program), {}, True
        for name, f in program.funcs.items():
            compiler = _Compiler(table, name)
            codes[name] = (compiler.code(f.body), f.int_params)
            blind = blind and not compiler.guarded
        hit = _CODE[program] = (shape, codes, blind)
    return hit


def value_blind(program: A.Program) -> bool:
    """True iff no ``if`` guard of ``program`` compares a value: every
    guard is ``true`` or a nil test, or a boolean combination of those.

    Such a program, run with fixed entry arguments, takes the same
    branches on every valuation of one tree's fields: it runs the same
    blocks on the same nodes under the same contexts, records the same
    accesses and raises the same errors.  Only its returns and the
    values it writes differ.  Computed with the compiled code and cached
    with it."""
    return _code_of(program)[2]


class _Compiler:
    """Compiles the body of function ``fname`` (see the opcodes above);
    ``guarded`` records whether it compiled a ``>`` or ``== 0`` guard."""

    def __init__(self, table: BlockTable, fname: str) -> None:
        self.table = table
        self.fname = fname
        self.guarded = False

    def code(self, stmt: A.Stmt) -> tuple:
        out: list = []
        self._flush(out, self._stmt(stmt, out, 0))
        return tuple(out)

    @staticmethod
    def _flush(out: list, steps: int) -> None:
        """Pending steps with no later instruction on this path to carry them."""
        if steps:
            out.append((_JUMP, steps, len(out) + 1))

    def _stmt(self, s: A.Stmt, out: list, steps: int) -> int:
        """Append the code of ``s``; returns the steps still pending."""
        steps += 1
        if isinstance(s, A.Seq):
            for c in s.stmts:
                steps = self._stmt(c, out, steps)
            return steps
        if isinstance(s, A.AssignBlock):
            sid = self.table.of_stmt(s).sid
            assigns, returns = [], False
            for a in s.assigns:
                assigns.append(self._assign(a, sid))
                returns = isinstance(a, A.Return)
                if returns:
                    break
            out.append((_ASSIGN, steps, sid, tuple(assigns), returns))
        elif isinstance(s, A.CallStmt):
            sid = self.table.of_stmt(s).sid
            out.append((_CALL, steps, sid, s.func, self._loc(s.loc),
                        tuple(self._a(e, sid) for e in s.args), s.targets))
        elif isinstance(s, A.If):
            at = len(out)
            out.append(None)
            then_steps = self._stmt(s.then, out, 0)
            if s.els is None:
                self._flush(out, then_steps)
                else_pc = len(out)
            else:
                out.append(None)
                else_pc = len(out)
                self._flush(out, self._stmt(s.els, out, 0))
                out[else_pc - 1] = (_JUMP, then_steps, len(out))
            # Condition evaluation is attributed to the if, not a block.
            out[at] = (_IF, steps, self._b(s.cond), else_pc)
        elif isinstance(s, A.Par) and s.stmts:
            out.append((_PAR, steps, tuple(self.code(b) for b in s.stmts)))
        elif isinstance(s, (A.Skip, A.Par)):
            return steps
        else:
            raise TypeError(f"unknown statement {s!r}")
        return 0

    def _assign(self, a: A.Assign, sid: str):
        if isinstance(a, A.VarAssign):
            name, x = a.name, self._a(a.expr, sid)

            def assign(m, f):
                f.env[name] = x(m, f)
        elif isinstance(a, A.FieldAssign):
            x, resolve, fname = self._a(a.expr, sid), self._loc(a.loc), a.fieldname
            where = f"field write {a.loc}.{fname} hits nil in {self.fname}"

            def assign(m, f):
                v = x(m, f)
                node = resolve(f)
                if node.is_nil:
                    raise NilAccessError(where)
                if m.events is not None:
                    m.events.append(Event("write", "field", node, fname,
                                          len(m.iterations) - 1, sid, f.context))
                node.set(fname, v)
        else:  # Return
            xs = tuple(self._a(e, sid) for e in a.exprs)

            def assign(m, f):
                f.ret_values = tuple([x(m, f) for x in xs])
        return assign

    def _loc(self, loc: A.LExpr):
        """``loc`` as ``frame -> node``; only the last step may reach nil."""
        dirs, where = loc.directions(), self.fname

        def resolve(f):
            node = f.node
            for d in dirs:
                if node.is_nil:
                    raise NilAccessError(
                        f"dereference of nil at {node.path!r} in {where}"
                    )
                node = node.left if d == "l" else node.right
            return node
        return resolve

    def _a(self, e: A.AExpr, sid: Optional[str]):
        if isinstance(e, A.Const):
            value = e.value
            return lambda m, f: value
        if isinstance(e, A.Var):
            name, where = e.name, self.fname

            def var(m, f):
                v = f.env.get(name)
                if v is None:
                    if m.strict_vars:
                        raise ExecutionError(
                            f"read of unassigned variable {name!r} in {where}"
                        )
                    return 0
                return v
            return var
        if isinstance(e, A.FieldRead):
            resolve, fname = self._loc(e.loc), e.fieldname
            where = f"field read {e.loc}.{fname} hits nil in {self.fname}"

            def read(m, f):
                node = resolve(f)
                if node.is_nil:
                    raise NilAccessError(where)
                if m.events is not None:
                    m.events.append(Event("read", "field", node, fname,
                                          len(m.iterations) - 1, sid, f.context))
                return node.fields.get(fname, 0)
            return read
        if isinstance(e, A.Add):
            l, r = self._a(e.left, sid), self._a(e.right, sid)
            return lambda m, f: l(m, f) + r(m, f)
        if isinstance(e, A.Sub):
            l, r = self._a(e.left, sid), self._a(e.right, sid)
            return lambda m, f: l(m, f) - r(m, f)
        if isinstance(e, A.Neg):
            x = self._a(e.expr, sid)
            return lambda m, f: -x(m, f)
        if isinstance(e, (A.Max, A.Min)):
            xs, agg = tuple(self._a(a, sid) for a in e.args), (
                max if isinstance(e, A.Max) else min)
            return lambda m, f: agg([x(m, f) for x in xs])
        raise TypeError(f"unknown AExpr {e!r}")

    def _b(self, b: A.BExpr):
        if isinstance(b, A.BTrue):
            return lambda m, f: True
        if isinstance(b, A.IsNil):
            resolve = self._loc(b.loc)
            return lambda m, f: resolve(f).is_nil
        if isinstance(b, (A.Gt, A.Eq0)):
            self.guarded = True
            x = self._a(b.expr, None)
            if isinstance(b, A.Gt):
                return lambda m, f: x(m, f) > 0
            return lambda m, f: x(m, f) == 0
        if isinstance(b, A.Not):
            x = self._b(b.expr)
            return lambda m, f: not x(m, f)
        if isinstance(b, A.BAnd):
            l, r = self._b(b.left), self._b(b.right)
            return lambda m, f: l(m, f) and r(m, f)
        if isinstance(b, A.BOr):
            l, r = self._b(b.left), self._b(b.right)
            return lambda m, f: l(m, f) or r(m, f)
        raise TypeError(f"unknown BExpr {b!r}")


# _advance outcomes (forks are returned as (branch codes, frame) tuples)
_BLOCK = object()
_EXHAUSTED = object()


class _Machine:
    def __init__(
        self,
        program: A.Program,
        tree: Tree,
        scheduler: Scheduler,
        record_events: bool,
        strict_vars: bool,
        max_steps: int,
    ) -> None:
        self.codes = _code_of(program)[1]
        self.tree = tree
        self.scheduler = scheduler
        self.strict_vars = strict_vars
        self.max_steps = max_steps
        self.trace = Trace()
        self.iterations = self.trace.iterations
        self.events = self.trace.events if record_events else None
        self._par_counter = 0
        self._tid_counter = 0
        self._steps = 0
        # Frontier: doubly-linked list of runnable threads, in the same
        # left-to-right order the old list-splice representation kept.
        self._first: Optional[_Thread] = None
        self._last: Optional[_Thread] = None
        self._pending_joins = 0

    # -- frontier (doubly-linked list) helpers --------------------------------
    def _frontier_remove(self, t: _Thread) -> Tuple[Optional[_Thread], Optional[_Thread]]:
        """Unlink ``t``; returns its old neighbours for position-preserving
        re-insertion (the joined parent resumes exactly where its last
        branch sat, matching the old ``frontier[idx] = parent`` timing)."""
        prev, nxt = t.prev, t.next
        if prev is None:
            self._first = nxt
        else:
            prev.next = nxt
        if nxt is None:
            self._last = prev
        else:
            nxt.prev = prev
        t.prev = t.next = None
        return prev, nxt

    def _frontier_insert(self, t: _Thread, prev: Optional[_Thread],
                         nxt: Optional[_Thread]) -> None:
        """Link ``t`` between ``prev`` and ``nxt`` (either may be None)."""
        t.prev, t.next = prev, nxt
        if prev is None:
            self._first = t
        else:
            prev.next = t
        if nxt is None:
            self._last = t
        else:
            nxt.prev = t

    # -- the scheduling loop ---------------------------------------------------
    def execute(self, code: tuple, frame: _Frame) -> None:
        main = _Thread(None, [[code, 0, frame, None]], None)
        self._first = self._last = main
        while self._first is not None:
            if self._pending_joins and not self.scheduler.picks_first:
                threads = []
                t = self._first
                while t is not None:
                    threads.append(t)
                    t = t.next
                live = [t.tid for t in threads]
                pick = self.scheduler.choose(live)
                try:
                    cur = threads[live.index(pick)]
                except ValueError:
                    raise ExecutionError(
                        f"scheduler chose {pick!r}, not in live set {live!r}"
                    ) from None
            else:
                # No par active (a single thread runs, no scheduling
                # decision) or a declared-left-first scheduler: take the
                # frontier head without materializing the live list.
                cur = self._first
            self._step(cur)

    def _step(self, cur: _Thread) -> None:
        """One scheduler pick: advance ``cur`` until it executes one atomic
        block, forks, or exhausts (resuming its parent when a join resolves,
        within this same pick — mirroring the generator machine's timing)."""
        while True:
            res = self._advance(cur)
            if res is _BLOCK:
                return
            if res is _EXHAUSTED:
                join = cur.join
                prev, nxt = self._frontier_remove(cur)
                if join is None:
                    return  # the root thread finished: program over
                join.remaining -= 1
                if join.remaining:
                    return  # exhaustion pick; siblings still running
                # Last branch done: the parent resumes inside this pick.
                self._pending_joins -= 1
                cur = join.parent
                self._frontier_insert(cur, prev, nxt)
                continue
            # Fork: park cur, splice its branch threads in at its position.
            branches, frame = res
            self._par_counter += 1
            pid = self._par_counter
            join = _Join(cur, len(branches))
            self._pending_joins += 1
            prev, nxt = self._frontier_remove(cur)
            for i, code in enumerate(branches):
                bframe = _Frame(frame.node, frame.env,
                                frame.context.child(("par", pid, i)))
                branch = _Thread(self._tid_counter, [[code, 0, bframe, None]], join)
                self._tid_counter += 1
                self._frontier_insert(branch, prev, nxt)
                prev = branch
            return  # next pick chooses among the new branches

    def _advance(self, thread: _Thread):
        """Run ``thread`` until one block executes (-> _BLOCK), it hits a
        par (-> (branch codes, frame)), or its stack drains (-> _EXHAUSTED)."""
        stack = thread.stack
        while stack:
            act = stack[-1]
            code, pc, f = act[0], act[1], act[2]
            if pc == len(code):  # body finished or returned: unwind
                stack.pop()
                post = act[3]
                if post is not None:  # copy the callee's returns
                    targets, sid, callee, caller = post
                    if len(f.ret_values) != len(targets):
                        raise ExecutionError(
                            f"{sid}: {callee} returned {len(f.ret_values)} "
                            f"values, expected {len(targets)}"
                        )
                    caller.env.update(zip(targets, f.ret_values))
                continue
            op = code[pc]
            act[1] = pc + 1
            self._steps += op[1]
            if self._steps > self.max_steps:
                raise ExecutionError(f"exceeded max_steps={self.max_steps}")
            kind = op[0]
            if kind == _ASSIGN:
                self.iterations.append(Iteration(op[2], f.node, f.context))
                for assign in op[3]:
                    assign(self, f)
                if op[4]:
                    act[1] = len(code)
                return _BLOCK
            if kind == _IF:
                if not op[2](self, f):
                    act[1] = op[3]
            elif kind == _JUMP:
                act[1] = op[2]
            elif kind == _CALL:
                _, _, sid, callee, resolve, args, targets = op
                body, params = self.codes[callee]
                node = resolve(f)
                values = [a(self, f) for a in args]
                if len(values) != len(params):
                    raise ExecutionError(
                        f"{sid}: call to {callee} with {len(values)} Int "
                        f"args, expected {len(params)}"
                    )
                sub = _Frame(node, dict(zip(params, values)),
                             f.context.child(("call", sid, node)))
                stack.append([body, 0, sub,
                              (targets, sid, callee, f) if targets else None])
            else:  # _PAR
                return op[2], f
        return _EXHAUSTED


def run(
    program: A.Program,
    tree: Tree,
    args: Sequence[int] = (),
    scheduler: Optional[Scheduler] = None,
    record_events: bool = True,
    inplace: bool = False,
    strict_vars: bool = False,
    max_steps: Optional[int] = None,
) -> Result:
    """Execute ``program`` on ``tree``.

    ``args`` are the Int arguments of the entry function.  Unless
    ``inplace``, the tree is cloned first.  The scheduler controls the
    interleaving of parallel regions (default: left branch runs to
    completion first).  ``max_steps`` bounds executed statements; the
    default scales with tree size (``max(1_000_000, 64 * (size + 1))``)
    so depth-100k inputs run without tuning.
    """
    work = tree if inplace else tree.clone()
    if max_steps is None:
        max_steps = max(1_000_000, 64 * (work.size + 1))
    m = _Machine(
        program, work, scheduler or LeftFirst(), record_events, strict_vars, max_steps
    )
    entry = program.main
    if len(args) != len(entry.int_params):
        raise ExecutionError(
            f"entry {entry.name} takes {len(entry.int_params)} Int args, "
            f"got {len(args)}"
        )
    frame = _Frame(work.root, dict(zip(entry.int_params, args)),
                   Ctx(None, ("call", "main", "")))
    m.execute(m.codes[program.entry][0], frame)
    m.trace.returns = frame.ret_values
    return Result(frame.ret_values, m.trace, work)
