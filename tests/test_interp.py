"""Tests for the concrete interpreter, schedules and dynamic races."""

import pytest

from repro.interp import (
    ExecutionError,
    LeftFirst,
    RandomScheduler,
    RoundRobin,
    all_schedules,
    concurrent,
    distinct_outcomes,
    find_races,
    program_races_on,
    run,
)
from repro.lang.parser import parse_program
from repro.trees.generators import full_tree, random_tree
from repro.trees.heap import Tree, node


class TestSizecountSemantics:
    def test_single_node(self, sizecount_par):
        r = run(sizecount_par, Tree(node()))
        assert r.returns == (1, 0)

    def test_full_trees(self, sizecount_par):
        # Perfect tree of height h: odd layers hold 1+4+16+... nodes.
        expected = {1: (1, 0), 2: (1, 2), 3: (5, 2), 4: (5, 10)}
        for h, (odd, even) in expected.items():
            r = run(sizecount_par, full_tree(h))
            assert r.returns == (odd, even)

    def test_odd_plus_even_is_size(self, sizecount_par):
        for seed in range(5):
            t = random_tree(11, seed=seed)
            o, e = run(sizecount_par, t).returns
            assert o + e == t.size

    def test_paper_iteration_sequence_single_node(self, sizecount_par):
        """§3's example: on a single node the iterations are (s0/s4 on the
        nil children, then the parent returns), each appearing once."""
        r = run(sizecount_par, Tree(node()))
        pairs = r.trace.iteration_pairs()
        assert len(pairs) == len(set(pairs))  # every iteration unique
        assert ("s3", "") in pairs and ("s7", "") in pairs
        assert ("s0", "l") in pairs and ("s4", "r") in pairs

    def test_iterations_bounded_by_program_and_height(self, sizecount_par):
        # O(|P| * h(T)) iterations — each block runs ≤ once per node.
        t = full_tree(4)
        r = run(sizecount_par, t)
        pairs = r.trace.iteration_pairs()
        assert len(pairs) == len(set(pairs))


class TestSemanticsDetails:
    def test_call_by_value(self):
        p = parse_program(
            "G(n, k) { k = k + 1; return k }\n"
            "Main(n, k) { x = G(n, k); return k, x }"
        )
        r = run(p, Tree(node()), args=[5])
        assert r.returns == (5, 6)  # caller's k unchanged

    def test_uninitialized_var_defaults_zero(self):
        p = parse_program("Main(n) { return ghost + 1 }")
        assert run(p, Tree(node())).returns == (1,)

    def test_strict_vars_raises(self):
        p = parse_program("Main(n) { return ghost }")
        with pytest.raises(ExecutionError):
            run(p, Tree(node()), strict_vars=True)

    def test_field_mutation_visible(self):
        p = parse_program(
            "Main(n) { if (n == nil) { return 0 } else { n.v = 7; return n.v } }"
        )
        r = run(p, Tree(node()))
        assert r.returns == (7,)
        assert r.tree.root.get("v") == 7

    def test_inplace_flag(self):
        p = parse_program(
            "Main(n) { if (n == nil) { return 0 } else { n.v = 7; return 0 } }"
        )
        t = Tree(node())
        run(p, t, inplace=False)
        assert t.root.get("v") == 0
        run(p, t, inplace=True)
        assert t.root.get("v") == 7

    def test_nil_deref_raises(self):
        from repro.trees.heap import NilAccessError

        p = parse_program("Main(n) { n.v = n.l.v; return 0 }")
        with pytest.raises(NilAccessError):
            run(p, Tree(node()))

    def test_wrong_arg_count(self):
        p = parse_program("Main(n, k) { return k }")
        with pytest.raises(ExecutionError):
            run(p, Tree(node()), args=[])

    def test_max_steps(self, sizecount_par):
        with pytest.raises(ExecutionError):
            run(sizecount_par, full_tree(4), max_steps=5)

    def test_inplace_run_on_a_clone_walks_nothing(self, sizecount_par,
                                                  monkeypatch):
        """A clone keeps the node count it took, so ``run`` sizes its
        default ``max_steps`` without walking the tree again."""
        tree = random_tree(40, seed=1)
        expected = run(sizecount_par, tree).returns
        work = tree.clone()
        walks = []
        real = Tree.nodes

        def counted(self, include_nil=False):
            walks.append(self)
            return real(self, include_nil)

        monkeypatch.setattr(Tree, "nodes", counted)
        assert run(sizecount_par, work, inplace=True).returns == expected
        assert walks == []

    def test_returns_recorded_in_trace(self, sizecount_par):
        r = run(sizecount_par, full_tree(2))
        assert r.trace.returns == r.returns


class TestSchedulers:
    def test_all_schedulers_same_result_when_race_free(self, sizecount_par):
        t = full_tree(3)
        base = run(sizecount_par, t, scheduler=LeftFirst()).returns
        assert run(sizecount_par, t, scheduler=RoundRobin()).returns == base
        for seed in range(4):
            assert (
                run(sizecount_par, t, scheduler=RandomScheduler(seed)).returns
                == base
            )

    def test_enumerate_all_schedules_single_node(self, sizecount_par):
        t = Tree(node())
        outs = distinct_outcomes(
            lambda sch: run(sizecount_par, t, scheduler=sch).returns
        )
        assert outs == [(1, 0)]

    def test_schedule_count_single_node(self, sizecount_par):
        t = Tree(node())
        n = sum(
            1
            for _ in all_schedules(
                lambda sch: run(sizecount_par, t, scheduler=sch).returns
            )
        )
        # Each parallel branch has 4 scheduler decision points (3 atomic
        # blocks + the exhaustion step): C(8,4) = 70 interleavings.
        assert n == 70

    def test_racy_program_has_divergent_outcomes(self):
        p = parse_program(
            "A(n) { if (n == nil) { return 0 } else { n.v = 1; return 0 } }\n"
            "B(n) { if (n == nil) { return 0 } else { n.v = 2; return 0 } }\n"
            "Main(n) { { a = A(n) || b = B(n) }; return n.v }"
        )
        outs = distinct_outcomes(
            lambda sch: run(p, Tree(node()), scheduler=sch).returns
        )
        assert set(outs) == {(1,), (2,)}


class TestConcurrency:
    def test_concurrent_contexts(self):
        a = (("call", "main", ""), ("par", 1, 0), ("call", "s8", ""))
        b = (("call", "main", ""), ("par", 1, 1), ("call", "s9", ""))
        assert concurrent(a, b)

    def test_sequential_contexts(self):
        a = (("call", "main", ""), ("call", "s8", ""))
        b = (("call", "main", ""), ("call", "s9", ""))
        assert not concurrent(a, b)

    def test_nested_par_same_branch(self):
        a = (("par", 1, 0), ("par", 2, 0))
        b = (("par", 1, 0), ("par", 2, 1))
        assert concurrent(a, b)

    def test_prefix_not_concurrent(self):
        a = (("par", 1, 0),)
        b = (("par", 1, 0), ("call", "s1", "l"))
        assert not concurrent(a, b)


class TestDynamicRaces:
    def test_sizecount_race_free(self, sizecount_par):
        for seed in range(3):
            assert program_races_on(sizecount_par, random_tree(9, seed=seed)) == []

    def test_cycletree_parallel_races(self, cycletree_par):
        races = program_races_on(cycletree_par, full_tree(2))
        assert races
        assert any(r.field == "num" for r in races)

    def test_cycletree_sequential_race_free(self, cycletree_seq):
        assert program_races_on(cycletree_seq, full_tree(2)) == []

    def test_write_write_race(self):
        p = parse_program(
            "A(n) { if (n == nil) { return 0 } else { n.v = 1; return 0 } }\n"
            "Main(n) { { a = A(n) || b = A(n) }; return 0 }"
        )
        races = program_races_on(p, Tree(node()))
        assert races and races[0].field == "v"

    def test_read_read_not_a_race(self):
        p = parse_program(
            "A(n) { if (n == nil) { return 0 } else { return n.v } }\n"
            "Main(n) { { a = A(n) || b = A(n) }; return a + b }"
        )
        assert program_races_on(p, Tree(node())) == []

    def test_race_str_mentions_cell(self):
        p = parse_program(
            "A(n) { if (n == nil) { return 0 } else { n.v = 1; return 0 } }\n"
            "Main(n) { { a = A(n) || b = A(n) }; return 0 }"
        )
        races = program_races_on(p, Tree(node()))
        assert "v" in str(races[0])
