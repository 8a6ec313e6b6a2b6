"""Tests for counterexample decoding and replay."""

import pytest

from repro.core.bounded import check_data_race_bounded, default_scope
from repro.core.witness import (
    ReplayOutcome,
    decode_labels,
    match_configuration,
    replay_conflict,
    replay_race,
)
from repro.casestudies import cycletree, sizecount
from repro.trees.generators import full_tree
from repro.trees.heap import Tree, node


class TestReplayRace:
    def test_cycletree_race_confirmed(self):
        out = replay_race(
            cycletree.parallel_program(), full_tree(2), cycletree.FIELDS
        )
        assert out.confirmed
        assert "num" in out.detail or "race" in out.detail

    def test_race_free_program_unconfirmed(self):
        out = replay_race(sizecount.parallel_program(), full_tree(2))
        assert not out.confirmed


class TestReplayConflict:
    def test_invalid_fusion_confirmed(self):
        out = replay_conflict(
            sizecount.sequential_program(),
            sizecount.fused_invalid(),
            Tree(node()),
        )
        assert out.confirmed
        assert "differ" in out.detail

    def test_valid_fusion_unconfirmed(self):
        out = replay_conflict(
            sizecount.sequential_program(),
            sizecount.fused_valid(),
            Tree(node()),
        )
        assert not out.confirmed


class TestDecoding:
    def test_decode_and_match_mso_witness(self):
        """An MSO race witness decodes to a label map that matches a real
        bounded-engine configuration (automating the paper's manual
        counterexample inspection)."""
        from repro.core.configurations import ProgramModel
        from repro.core.encode import Encoder
        from repro.core.symbolic import check_data_race_mso
        from repro.runtime import ResourceGuard

        import time

        prog = cycletree.parallel_program()
        v = check_data_race_mso(
            prog,
            det_budget=20_000,
            guard=ResourceGuard(deadline=time.perf_counter() + 60),
        )
        if v.status != "decided":  # budget-dependent; skip if exceeded
            pytest.skip("symbolic engine exceeded budget on this host")
        assert v.found and v.witness is not None
        model = ProgramModel(prog)
        enc = Encoder(model, prog.name.replace(" ", "_"))
        labels = decode_labels(v.witness, enc.tracks(1))
        assert labels  # at least the main label present
        cfg = match_configuration(model, v.witness.tree, labels)
        assert cfg is not None
