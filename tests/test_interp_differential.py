"""The compiled interpreter against the reference generator machine.

``repro.interp.run`` compiles each program once into flat per-function
code; ``repro.interp.reference.run_reference`` walks the AST with Python
generators and shares no execution code with it.  On seeded generated
programs, the case studies, and programs padded with ``skip`` and nested
sequences, both machines must agree on:

* returns, iterations (sid, node path, context) and events (kind, target,
  node path, name, iteration, sid, context), and the final heap;
* the ``choose(live)`` calls a scheduler sees (live-set sizes and picked
  positions), for programs where no ``par`` can run inside another's
  branch (the one documented deviation, see ``interp.interpreter``);
* the ``max_steps`` boundary: both raise at ``k - 1`` and finish at ``k``;
* the type and message of every execution error.

The reference recurses with tree depth, so each reference call gets its
own recursion headroom; the machine under test keeps whatever limit the
suite runs under (CI's deep-tree smoke step uses 256).
"""

import random
import sys
from contextlib import contextmanager

import pytest

from repro.casestudies import cycletree, minimax, sizecount
from repro.gen import gen_program
from repro.interp import ExecutionError, run, run_reference
from repro.interp.schedules import LeftFirst, RandomScheduler, Scheduler
from repro.interp.trace import Ctx
from repro.lang import ast as A
from repro.lang.parser import parse_program
from repro.trees.generators import all_shapes, assign_fields, random_tree
from repro.trees.heap import NilAccessError, Tree, node, tree_to_tuple

GEN_SEEDS = range(40)

CASE_STUDIES = {
    "sizecount-par": sizecount.parallel_program,
    "sizecount-seq": sizecount.sequential_program,
    "minimax-par": minimax.parallel_program,
    "minimax-pruned": minimax.pruned_program,
    "minimax-fused": minimax.fused_program,
    "cycletree-par": cycletree.parallel_program,
    "cycletree-seq": cycletree.sequential_program,
    "cycletree-fused": cycletree.fused_program,
}

# Every expression and guard form, a variable read before assignment, a
# return in the middle of a body, and a call whose returns are dropped.
_ALL_FORMS = """
G(n, k) {
  if (n == nil) { return k }
  else {
    x = max(n.a, k, -n.b) - min(n.c, 2);
    if (!(x < 6) && (n.l != nil || n.r == nil)) { n.a = x + y; return x }
    else { n.b = -x };
    z = G(n.l, x);
    G(n.r, k + 1);
    if (z == 0) { n.c = z } else { n.c = n.c - 1 };
    return z + n.c
  }
}

Main(n) {
  { u = G(n, 1) || v = G(n, 2) };
  return u - v
}
"""


def _all_forms():
    return parse_program(_ALL_FORMS, name="all-forms")


@contextmanager
def _headroom():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 10_000))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def _reference(program, tree, **kw):
    with _headroom():
        return run_reference(program, tree, **kw)


def _pad(program, seed):
    """A copy of ``program`` with ``skip``s and nested sequences woven in:
    the same meaning, but statements the step count must still see."""
    rng = random.Random(seed)

    def pad(s):
        if isinstance(s, A.Seq):
            s = A.Seq(tuple(pad(c) for c in s.stmts))
        elif isinstance(s, A.If):
            s = A.If(s.cond, pad(s.then),
                     pad(s.els) if s.els is not None else
                     rng.choice([None, A.Skip()]))
        elif isinstance(s, A.Par):
            s = A.Par(tuple(pad(c) for c in s.stmts))
        choice = rng.randrange(4)
        if choice == 1:
            return A.Seq((A.Skip(), s))
        if choice == 2:
            return A.Seq((s, A.Skip(), A.Seq((A.Skip(),))))
        if choice == 3:
            return A.Seq((A.Seq((s,)),))
        return s

    funcs = {
        name: A.Func(f.name, f.loc_param, f.int_params, pad(f.body),
                     f.n_returns)
        for name, f in program.funcs.items()
    }
    return A.Program(funcs, program.entry, f"{program.name}-padded")


def _programs():
    out = [(f"gen{s}", lambda s=s: gen_program(s)) for s in GEN_SEEDS]
    out += [(f"gen{s}-padded", lambda s=s: _pad(gen_program(s), s))
            for s in GEN_SEEDS[:12]]
    out += list(CASE_STUDIES.items())
    out += [("cycletree-par-padded",
             lambda: _pad(cycletree.parallel_program(), 1)),
            ("all-forms", _all_forms),
            ("all-forms-padded", lambda: _pad(_all_forms(), 2))]
    return out


PROGRAMS = _programs()
FIELDS = ("a", "b", "c", "v", "val", "best", "depth", "cut", "num",
          "size", "count", "rv", "lv")


def _trees(seed):
    """Every shape up to 3 internal nodes plus 7- and 15-node random
    trees, with seeded field values."""
    trees = [t for n in range(4) for t in all_shapes(n)]
    trees += [random_tree(7, seed=seed), random_tree(15, seed=seed + 1)]
    return [assign_fields(t, FIELDS, seed=seed + i, value_range=(-3, 6))
            for i, t in enumerate(trees)]


def _ctx(c):
    return c.to_tuple() if isinstance(c, Ctx) else c


def _observed(result):
    t = result.trace
    return {
        "returns": result.returns,
        "iterations": [(it.sid, it.node, _ctx(it.context))
                       for it in t.iterations],
        "events": [(e.kind, e.target, e.node, e.name, e.iteration, e.sid,
                    _ctx(e.context)) for e in t.events],
        "heap": tree_to_tuple(result.tree),
    }


class _Recording(Scheduler):
    """Seeded random picks; records every ``choose`` call as (live-set
    size, picked position) — positions, because the two machines number
    their branches differently."""

    def __init__(self, seed):
        self._rng = random.Random(seed)
        self.calls = []

    def choose(self, live):
        i = self._rng.randrange(len(live))
        self.calls.append((len(live), i))
        return live[i]


def _pars_may_nest(program):
    """True when a ``par`` can run inside another ``par``'s branch."""
    def reaches(s, funcs_with_par):
        if isinstance(s, A.Par):
            return True
        if isinstance(s, A.CallStmt):
            return s.func in funcs_with_par
        kids = (s.stmts if isinstance(s, A.Seq) else
                (s.then, s.els) if isinstance(s, A.If) else ())
        return any(k is not None and reaches(k, funcs_with_par) for k in kids)

    with_par = set()
    while True:
        more = {n for n, f in program.funcs.items()
                if reaches(f.body, with_par)}
        if more == with_par:
            break
        with_par = more

    def nested(s):
        if isinstance(s, A.Par):
            return any(reaches(b, with_par) or nested(b) for b in s.stmts)
        kids = (s.stmts if isinstance(s, A.Seq) else
                (s.then, s.els) if isinstance(s, A.If) else ())
        return any(k is not None and nested(k) for k in kids)

    return any(nested(f.body) for f in program.funcs.values())


@pytest.mark.parametrize("name,make", PROGRAMS, ids=[n for n, _ in PROGRAMS])
def test_same_trace_and_heap_left_first(name, make):
    program = make()
    for tree in _trees(len(name)):
        ref = _reference(program, tree, scheduler=LeftFirst())
        got = run(program, tree, scheduler=LeftFirst())
        assert _observed(got) == _observed(ref)


@pytest.mark.parametrize("name,make", PROGRAMS, ids=[n for n, _ in PROGRAMS])
def test_same_choices_under_random_schedules(name, make):
    program = make()
    if _pars_may_nest(program):
        pytest.skip("nested pars: same outcomes, different decision tree")
    for i, tree in enumerate(_trees(7)):
        ref = _reference(program, tree, scheduler=RandomScheduler(i))
        got = run(program, tree, scheduler=RandomScheduler(i))
        assert _observed(got) == _observed(ref)
        rec_ref, rec_got = _Recording(i), _Recording(i)
        ref = _reference(program, tree, scheduler=rec_ref)
        got = run(program, tree, scheduler=rec_got)
        assert rec_got.calls == rec_ref.calls
        assert _observed(got) == _observed(ref)


def _exceeds(runner, program, tree, k):
    try:
        runner(program, tree, max_steps=k)
    except ExecutionError as e:
        assert str(e) == f"exceeded max_steps={k}"
        return True
    return False


@pytest.mark.parametrize("name,make", PROGRAMS, ids=[n for n, _ in PROGRAMS])
def test_same_max_steps_boundary(name, make):
    program = make()
    for tree in _trees(3)[-2:]:
        # The reference's step count k, by doubling then bisection.
        lo, hi = 0, 1
        while _exceeds(_reference, program, tree, hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _exceeds(_reference, program, tree, mid):
                lo = mid
            else:
                hi = mid
        assert _exceeds(run, program, tree, hi - 1)
        assert not _exceeds(run, program, tree, hi)


ERRORS = {
    "deref-nil": ("Main(n) { n.l.l.v = 1 }", {}),
    "write-nil": ("Main(n) { n.l.v = 1 }", {}),
    "read-nil": ("Main(n) { x = n.r.v; return x }", {}),
    "guard-nil": ("Main(n) { if (n.l.v > 0) { n.v = 1 } }", {}),
    "isnil-deref": ("Main(n) { if (n.l.r == nil) { n.v = 1 } }", {}),
    "call-arity": ("F(n, k) { return k }\nMain(n) { x = F(n); return x }",
                   {}),
    "return-arity": ("F(n) { return 1, 2 }\nMain(n) { x = F(n); return x }",
                     {}),
    "strict-vars": ("Main(n) { n.v = y; return 0 }", {"strict_vars": True}),
}


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_same_errors(name):
    src, kw = ERRORS[name]
    program = parse_program(src)
    tree = Tree(node(v=1))
    with pytest.raises((NilAccessError, ExecutionError)) as ref:
        _reference(program, tree, **kw)
    with pytest.raises(ref.type) as got:
        run(program, tree, **kw)
    assert str(got.value) == str(ref.value)


def test_code_compiled_on_first_run_and_again_after_a_rewrite():
    from repro.interp import interpreter

    program = sizecount.parallel_program()
    assert program not in interpreter._CODE
    tree = _trees(0)[-1]
    run(program, tree)
    cached = interpreter._CODE[program]
    run(program, tree)
    assert interpreter._CODE[program] is cached
    # Rewriting a function body in place invalidates the compiled code.
    program.funcs["Main"].body = sizecount.sequential_program().main.body
    assert _observed(run(program, tree)) == _observed(_reference(program, tree))
    assert interpreter._CODE[program] is not cached
