"""Tests for the binary tree heap substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trees.generators import full_tree
from repro.trees.heap import (
    NilAccessError,
    Tree,
    TreeNode,
    nil,
    node,
    tree_from_tuple,
    tree_to_tuple,
)


# -- construction ------------------------------------------------------------

class TestConstruction:
    def test_nil_is_nil(self):
        assert nil().is_nil

    def test_node_defaults_to_nil_children(self):
        n = node()
        assert n.left.is_nil and n.right.is_nil

    def test_node_with_fields(self):
        n = node(v=3, w=-1)
        assert n.get("v") == 3 and n.get("w") == -1

    def test_missing_field_reads_zero(self):
        assert node().get("anything") == 0

    def test_nil_rejects_children(self):
        with pytest.raises(ValueError):
            TreeNode(node(), None, is_nil=True)

    def test_nil_rejects_fields(self):
        with pytest.raises(ValueError):
            TreeNode(fields={"v": 1}, is_nil=True)

    def test_nil_field_read_raises(self):
        with pytest.raises(NilAccessError):
            nil().get("v")

    def test_nil_field_write_raises(self):
        with pytest.raises(NilAccessError):
            nil().set("v", 1)

    def test_nil_child_raises(self):
        with pytest.raises(NilAccessError):
            nil().child("l")

    def test_bad_direction_raises(self):
        with pytest.raises(ValueError):
            node().child("x")

    def test_set_coerces_to_int(self):
        n = node()
        n.set("v", True)
        assert n.get("v") == 1 and isinstance(n.get("v"), int)


# -- indexing -----------------------------------------------------------------

class TestIndexing:
    def test_root_path_empty(self):
        t = Tree(node())
        assert t.root.path == ""

    def test_paths_cover_nil_leaves(self):
        t = Tree(node(node(), nil()))
        assert set(t.paths(include_nil=True)) == {"", "l", "r", "ll", "lr"}

    def test_internal_paths_only(self):
        t = Tree(node(node(), nil()))
        assert set(t.paths()) == {"", "l"}

    def test_node_at(self):
        t = Tree(node(node(v=5), nil()))
        assert t.node_at("l").get("v") == 5

    def test_node_at_missing_raises(self):
        t = Tree(node())
        with pytest.raises(KeyError):
            t.node_at("lll")

    def test_contains(self):
        t = Tree(node())
        assert "" in t and "l" in t and "ll" not in t

    def test_reindex_after_edit(self):
        t = Tree(node())
        t.root.left = node(node(), nil())
        t.reindex()
        assert "ll" in t


# -- measurements --------------------------------------------------------------

class TestMeasure:
    def test_empty_tree(self):
        t = Tree(nil())
        assert t.size == 0 and t.height == 0

    def test_single_node(self):
        t = Tree(node())
        assert t.size == 1 and t.height == 1

    def test_chain_height(self):
        t = Tree(node(node(node(), nil()), nil()))
        assert t.size == 3 and t.height == 3

    def test_preorder_order(self):
        t = Tree(node(node(v=1), node(v=2), v=0))
        assert [n.get("v") for n in t.nodes()] == [0, 1, 2]


# -- clone / compare --------------------------------------------------------------

class TestCloneCompare:
    def test_clone_is_deep(self):
        t = Tree(node(v=1))
        c = t.clone()
        c.root.set("v", 99)
        assert t.root.get("v") == 1

    @staticmethod
    def _assert_like_reindexed(src):
        """Clone ``src``; the clone matches ``src`` in shape and fields and
        a ``reindex()``ed copy in parent pointers and cached paths."""
        got = src.clone()
        want = src.clone()
        want.reindex()
        twin = {}
        count = 0
        for x, y, o in zip(got.nodes(include_nil=True),
                           want.nodes(include_nil=True),
                           src.nodes(include_nil=True)):
            count += 1
            assert x.is_nil == o.is_nil
            assert x.fields == o.fields
            assert x.is_nil or x.fields is not o.fields
            twin[id(x)] = y
            if x.parent is None:
                assert y.parent is None
            else:
                assert twin[id(x.parent)] is y.parent
            assert x._path == y._path
        assert count == sum(1 for _ in src.nodes(include_nil=True))
        return got

    def test_clone_links_deep_chain_in_one_pass(self):
        import sys

        from repro.trees.generators import left_chain

        src = left_chain(100_000, v=1)
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(256)
        try:
            got = self._assert_like_reindexed(src)
            assert got.root.path == ""
            assert got.root.left.left.path == "ll"
            assert got.root.right.path == "r"
            deep = got.root
            for _ in range(99_999):
                deep = deep.left
            deep.set("v", 42)
            deep.left.parent.set("w", 1)
        finally:
            sys.setrecursionlimit(old)
        assert deep.get("w") == 1
        tail = src.root
        for _ in range(99_999):
            tail = tail.left
        assert tail.fields == {"v": 1}

    def test_clone_paths_and_index(self):
        from repro.trees.generators import assign_fields, random_tree

        src = assign_fields(random_tree(40, seed=3), ["v", "w"], seed=1)
        got = self._assert_like_reindexed(src)
        for p in src.paths(include_nil=True):
            assert got.node_at(p).path == p
            assert got.node_at(p).fields == src.node_at(p).fields
        got.node_at("").set("v", 99)
        assert src.node_at("").get("v") != 99

    def test_clone_keeps_its_size_until_reindex(self):
        t = full_tree(3)
        c = t.clone()
        assert c._size == t.size == 7
        c.root.left = nil()
        c.reindex()
        assert c._size is None and c.size == 4

    def test_same_shape(self):
        a = Tree(node(node(), nil()))
        b = Tree(node(node(v=7), nil()))
        assert a.same_shape(b)

    def test_different_shape(self):
        a = Tree(node(node(), nil()))
        b = Tree(node(nil(), node()))
        assert not a.same_shape(b)

    def test_fields_equal(self):
        a = Tree(node(v=1))
        b = Tree(node(v=1))
        assert a.fields_equal(b)

    def test_fields_differ(self):
        a = Tree(node(v=1))
        b = Tree(node(v=2))
        assert not a.fields_equal(b)

    def test_fields_equal_restricted(self):
        a = Tree(node(v=1, scratch=5))
        b = Tree(node(v=1, scratch=9))
        assert a.fields_equal(b, fields=["v"])
        assert not a.fields_equal(b)

    def test_map_fields(self):
        t = Tree(node(node(), nil()))
        t.map_fields(lambda n: n.set("d", len(n.path)))
        assert t.node_at("l").get("d") == 1


# -- serialization ------------------------------------------------------------------

@st.composite
def tree_tuples(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return None
    fields = draw(
        st.lists(
            st.tuples(st.sampled_from(["v", "w"]), st.integers(-5, 5)),
            max_size=2,
            unique_by=lambda kv: kv[0],
        )
    )
    left = draw(tree_tuples(depth=depth - 1))
    right = draw(tree_tuples(depth=depth - 1))
    return (tuple(sorted(fields)), left, right)


class TestSerialize:
    def test_round_trip_simple(self):
        t = Tree(node(node(v=1), nil(), w=2))
        assert tree_to_tuple(tree_from_tuple(tree_to_tuple(t))) == tree_to_tuple(t)

    @given(tree_tuples())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, obj):
        assert tree_to_tuple(tree_from_tuple(obj)) == obj

    def test_render_mentions_nil(self):
        out = Tree(node()).render()
        assert "nil" in out and "node" in out
