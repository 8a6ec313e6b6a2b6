"""Witness hygiene on the four case studies (PR 2 invariants).

Every ``race`` verdict from :func:`check_data_race` must carry a witness
that replays to a real dynamic conflict; every ``race-free`` or
``unknown`` verdict must carry no witness at all — an undecided engine
has nothing to point at, and a stale witness left over from an
exhausted rung is exactly the bug the conformance oracle's
``stale-witness`` mismatch kind exists to catch.
"""

import pytest

from repro.core.api import check_data_race

CASE_STUDIES = [
    "sizecount_par",
    "cycletree_par",
    "css_orig",
    "treemutation_orig",
]


@pytest.fixture(params=CASE_STUDIES)
def case_study(request):
    return request.param, request.getfixturevalue(request.param)


def test_witness_iff_race(case_study):
    name, prog = case_study
    res = check_data_race(prog)
    if res.verdict == "race":
        assert res.witness is not None, name
        assert res.witness_tree is not None, name
        assert res.replay is not None and res.replay.confirmed, (
            name,
            res.replay.detail if res.replay else None,
        )
    else:
        assert res.verdict in ("race-free", "unknown"), (name, res.verdict)
        assert res.witness is None, name
        assert res.witness_tree is None, name
        assert res.replay is None, name


def test_cycletree_parallel_witness_replays(cycletree_par):
    res = check_data_race(cycletree_par)
    assert res.verdict == "race"
    assert res.replay is not None and res.replay.confirmed


def test_sizecount_parallel_race_free(sizecount_par):
    res = check_data_race(sizecount_par)
    assert res.verdict == "race-free"
    assert res.witness is None and res.replay is None


def test_undecided_never_carries_witness(cycletree_par):
    """Starve the symbolic engine (mso only, tiny limits): the verdict
    must be ``unknown`` with no witness, and the attempt record must
    keep the rung's raw (absent) verdict."""
    res = check_data_race(
        cycletree_par, engine="mso", det_budget=1, mso_deadline_s=2.0
    )
    assert res.verdict == "unknown"
    assert res.witness is None
    assert res.witness_tree is None
    assert res.replay is None
    attempts = res.details["attempts"]
    assert attempts and all("found" in a for a in attempts)
    assert all(a["found"] is None for a in attempts)


def test_attempts_record_raw_found_when_later_rung_decides(cycletree_par):
    """Degradation ladder: the starved mso rung records ``found=None``
    while the bounded rung that decided records its raw True."""
    res = check_data_race(
        cycletree_par, engine="auto", det_budget=1, mso_deadline_s=2.0,
        max_internal=2,
    )
    attempts = res.details["attempts"]
    by_rung = {a["rung"]: a for a in attempts}
    assert "found" in by_rung["mso"] and by_rung["mso"]["found"] is None
    bounded = [a for r, a in by_rung.items() if r.startswith("bounded")]
    assert bounded and bounded[0]["found"] is True
    assert res.verdict == "race"
    assert res.details["decided_by"].startswith("bounded")


@pytest.mark.parametrize("val,seeded", [(0, True), (3, False)])
def test_on_trees_witness_holds_the_racing_valuation(val, seeded):
    """The ``on_trees=`` witness tree is the input under the racing
    valuation as it was *before* the run (the run writes ``cut``), so
    replaying it verbatim re-finds the race.  With every ``val`` 0 the
    tree races only under a seeded valuation; with ``val`` 3 it races as
    given."""
    from repro.casestudies import minimax
    from repro.engine import get_engine
    from repro.engine.query import RaceQuery
    from repro.trees.generators import assign_fields, full_tree

    program = minimax.pruned_program()
    tree = full_tree(3, val=val, best=0, depth=0, cut=0)
    res = check_data_race(program, on_trees=[tree])
    assert res.verdict == "race"
    seed = res.details["witness_input"]["seed"]
    assert (seed is not None) == seeded
    want = tree.clone()
    if seeded:
        assign_fields(want, RaceQuery(program=program, scope=0).fields(),
                      seed=seed, value_range=get_engine("interp").value_range)
    assert res.witness_tree.fields_equal(want)
    assert res.replay is not None and res.replay.confirmed
    assert tree.fields_equal(full_tree(3, val=val, best=0, depth=0, cut=0))
