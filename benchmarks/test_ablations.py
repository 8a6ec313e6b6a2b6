"""Ablation benchmarks for the design choices DESIGN.md calls out.

* automaton minimization on/off in the compiler pipeline;
* union via disjoint sum vs determinized product;
* bounded-checker scaling in the tree-shape scope;
* consistent-condition-set enumeration cost;
* baseline (coarse / syntactic) analysis cost vs the full framework.
"""

import pytest

from repro.baselines import CoarseAnalysis, syntactic_parallel_ok
from repro.casestudies import css, cycletree, sizecount
from repro.core.bounded import check_data_race_bounded, default_scope
from repro.core.configurations import ProgramModel, enumerate_configurations
from repro.mso import syntax as S
from repro.mso.compile import Compiler
from repro.solver import MSOSolver


# ---------------------------------------------------------------------------
# Compiler ablation: minimization on/off
# ---------------------------------------------------------------------------

_RACE_CORE_FORMULA = None


def _config_core_formula():
    """A representative heavy formula: one configuration core conjunct."""
    global _RACE_CORE_FORMULA
    if _RACE_CORE_FORMULA is None:
        from repro.core.encode import Encoder

        model = ProgramModel(sizecount.fused_valid())
        enc = Encoder(model, "AB")
        parts = enc.config_core_parts(enc.tracks(1))
        # A two-conjunct slice: even this much, without minimization,
        # exceeds a 15 s compile deadline (the full core runs for hours) —
        # which is the ablation's point.
        _RACE_CORE_FORMULA = S.And(tuple(parts[:2]))
    return _RACE_CORE_FORMULA


def test_compile_with_minimization(benchmark):
    f = _config_core_formula()

    def go():
        return Compiler(minimize_always=True).compile(f)

    a = benchmark.pedantic(go, rounds=2, iterations=1)
    assert a.n_states > 0


def test_compile_without_minimization(benchmark):
    """Disabling minimization lets intermediate automata grow without
    bound: the same slice that compiles in ~0.1 s with minimization blows
    through a 15 s deadline without it.  The benchmark records the
    time-to-give-up."""
    import time

    from repro.runtime import ResourceExhausted, ResourceGuard

    f = _config_core_formula()

    def go():
        c = Compiler(minimize_always=False)
        c.guard = ResourceGuard(deadline=time.perf_counter() + 15)
        try:
            return c.compile(f)
        except ResourceExhausted:
            return None

    a = benchmark.pedantic(go, rounds=1, iterations=1)
    assert a is None or a.n_states > 0


# ---------------------------------------------------------------------------
# Union strategy ablation
# ---------------------------------------------------------------------------

def _ordered_formula(fused: bool = False):
    from repro.core.encode import Encoder

    prog = sizecount.fused_valid() if fused else sizecount.sequential_program()
    model = ProgramModel(prog)
    enc = Encoder(model, "ORDF" if fused else "ORD")
    return enc.ordered(enc.tracks(1), enc.tracks(2))


def test_union_disjoint_sum(benchmark):
    """The Ordered relation is a wide disjunction: the sum-based union
    (linear in states) vs the determinizing product (test below)."""
    f = _ordered_formula()

    def go():
        c = Compiler()
        return c.compile(f)

    a = benchmark.pedantic(go, rounds=2, iterations=1)
    assert a.n_states > 0


def test_union_product(benchmark):
    # The smaller fused-program relation: the product path on the full
    # sequential program runs for minutes (the point of the ablation).
    f = _ordered_formula(fused=True)

    def go():
        c = Compiler()
        c._UNION_PRODUCT_LIMIT = 10_000  # force the product path
        return c.compile(f)

    a = benchmark.pedantic(go, rounds=1, iterations=1)
    assert a.n_states > 0


# ---------------------------------------------------------------------------
# Bounded-checker scaling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("max_internal", [2, 3, 4])
def test_bounded_scope_scaling(benchmark, max_internal):
    """Race query cost vs scope bound (the exactness/price dial of the
    bounded engine)."""
    prog = sizecount.parallel_program()
    scope = default_scope(max_internal)
    v = benchmark(check_data_race_bounded, prog, scope)
    assert v.holds


@pytest.mark.parametrize("n_internal", [2, 3, 4])
def test_configuration_enumeration_scaling(benchmark, n_internal):
    from repro.trees.generators import full_tree

    model = ProgramModel(cycletree.sequential_program())
    tree = full_tree(n_internal)
    configs = benchmark(enumerate_configurations, model, tree)
    assert configs


# ---------------------------------------------------------------------------
# Condition-set enumeration
# ---------------------------------------------------------------------------

def test_consistent_condition_sets(benchmark):
    from repro.core.conditions import ConditionUniverse
    from repro.lang import BlockTable

    prog = css.original_program()

    def go():
        u = ConditionUniverse(BlockTable(prog))
        return u.consistent_sets

    sets = benchmark(go)
    assert len(sets) == 8


# ---------------------------------------------------------------------------
# Baseline costs (precision/price frontier)
# ---------------------------------------------------------------------------

def test_baseline_coarse_css(benchmark):
    prog = css.original_program()

    def go():
        return CoarseAnalysis(prog).can_fuse("ConvertValues", "MinifyFont")

    ok, _ = benchmark(go)
    assert not ok  # imprecise: rejects what Retreet proves


def test_baseline_syntactic_cycletree(benchmark):
    prog = cycletree.parallel_program()
    ok, _ = benchmark(
        syntactic_parallel_ok, prog, "RootMode", "ComputeRouting"
    )
    assert not ok
