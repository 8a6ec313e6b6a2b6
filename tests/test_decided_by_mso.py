"""Regression pins: the flagship Table-1 tasks decide *symbolically*.

Before the int-table BDD core, the structure-driven variable order and
the interface decomposition, T1.4 and T1.6 burned their symbolic budget
and fell back to the bounded engine ("budget → bounded" in
EXPERIMENTS.md).  These tests pin the recovery:
under the *default* auto-plan budgets the first "mso" rung must decide,
i.e. ``details["decided_by"] == "mso"`` with a matching attempt record —
any re-regression shows up as a fallback entry in ``attempts``.
"""

import pytest

from repro.casestudies import cycletree, sizecount, treemutation
from repro.core.api import check_equivalence


def _assert_decided_by_mso(res, verdict="equivalent"):
    assert res.details["decided_by"] == "mso", res.details.get("attempts")
    attempts = res.details["attempts"]
    assert attempts, "no attempts recorded"
    assert attempts[0]["rung"] == "mso"
    assert attempts[0]["outcome"] == "decided"
    # Symbolic decision on the first rung means no retry escalation and
    # no bounded fallback ever ran.
    assert all(a["engine"] == "mso" for a in attempts), attempts
    assert res.verdict == verdict
    assert res.holds is (verdict == "equivalent")


@pytest.mark.slow
class TestDecidedByMSO:
    def test_t11_sizecount_fusion_decides_symbolically(self):
        res = check_equivalence(
            sizecount.sequential_program(),
            sizecount.fused_valid(),
            sizecount.fusion_correspondence(),
        )
        _assert_decided_by_mso(res)

    def test_t14_treemutation_fusion_decides_symbolically(self):
        res = check_equivalence(
            treemutation.original_program(),
            treemutation.fused_program(),
            treemutation.fusion_correspondence(),
        )
        _assert_decided_by_mso(res)

    def test_t16_cycletree_fusion_decides_symbolically(self):
        res = check_equivalence(
            cycletree.sequential_program(),
            cycletree.fused_program(),
            cycletree.fusion_correspondence(),
        )
        _assert_decided_by_mso(res)
