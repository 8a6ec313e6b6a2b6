"""The engine package: query IR, registry, plans, and the result cache."""

import json
import sqlite3

import pytest

from repro.core.api import check_data_race, check_equivalence
from repro.engine import (
    EquivalenceQuery,
    Limits,
    RaceQuery,
    ResultCache,
    canonical_json,
    content_key,
    get_engine,
    known_engines,
    known_specs,
    plan_for,
)
from repro.lang import parse_program
from repro.solver.stats import SolverStats
from tests.test_value_blind import TABLE

RACY = """\
F0(n) {
  if (n == nil) { return 0 }
  else { n.a = 1; return 0 }
}
Main(n) {
  { x0 = F0(n) || x1 = F0(n) };
  return x0
}
"""

CLEAN = """\
F0(n) {
  if (n == nil) { return 0 }
  else {
    v0 = F0(n.l);
    return (n.a + v0)
  }
}
Main(n) {
  x0 = F0(n);
  return x0
}
"""


def racy_program():
    return parse_program(RACY, name="racy")


def clean_program():
    return parse_program(CLEAN, name="clean")


# ----------------------------------------------------------------------
# Query IR + content keys


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_content_key_matches_task_key_formula():
    import hashlib

    payload = {"source": "x", "entry": "Main"}
    expect = hashlib.sha256(
        canonical_json({"kind": "check-race", "payload": payload})
        .encode("utf-8")
    ).hexdigest()
    assert content_key("check-race", payload) == expect


def test_task_key_delegates_to_content_key():
    from repro.service.protocol import Task, task_key

    task = Task(kind="check-race", payload={"source": RACY, "entry": "Main"})
    assert task_key(task) == content_key("check-race", task.payload)


def test_race_query_key_excludes_limits():
    p = racy_program()
    q1 = RaceQuery(program=p, scope=3, limits=Limits(det_budget=10))
    q2 = RaceQuery(program=p, scope=3, limits=Limits(det_budget=99_999))
    assert q1.key() == q2.key()
    q3 = RaceQuery(program=p, scope=4)
    assert q1.key() != q3.key()  # scope is part of what is asked


def test_equivalence_query_key_depends_on_mapping_and_programs():
    p, q = clean_program(), clean_program()
    from repro.core.transform import correspondence_by_key

    mapping = correspondence_by_key(p, q, strict=False)
    e1 = EquivalenceQuery(program=p, program2=q, mapping=mapping, scope=2)
    e2 = EquivalenceQuery(program=p, program2=q, mapping=mapping, scope=2)
    assert e1.key() == e2.key()
    assert e1.kind == "equiv" and e1.key() != RaceQuery(program=p).key()


def test_query_for_case_round_trip():
    from repro.conformance.oracle import Case, query_for_case

    case = Case(kind="race", source=RACY, max_internal=2, name="c")
    q = query_for_case(case)
    assert q.kind == "race" and q.scope == 2
    assert q.key() == query_for_case(case).key()


# ----------------------------------------------------------------------
# Registry + engines


def test_registry_has_the_three_builtins():
    assert {"mso", "bounded", "interp"} <= set(known_engines())
    assert get_engine("mso").complete_for == "all-trees"
    assert get_engine("bounded").complete_for == "scope"
    assert get_engine("interp").complete_for == "scope-sampled"


def test_unknown_engine_lists_known_names():
    with pytest.raises(ValueError) as exc:
        get_engine("warp")
    msg = str(exc.value)
    assert "warp" in msg and "bounded" in msg and "mso" in msg


def test_bounded_engine_runs_a_query_raw():
    verdict = get_engine("bounded").bind(
        RaceQuery(program=racy_program(), scope=2)
    )(2, None)
    assert verdict.found is True
    assert verdict.witness is not None and verdict.witness.tree is not None


def test_interp_engine_finds_dynamic_race():
    eng = get_engine("interp")
    query = RaceQuery(program=racy_program(), scope=2)
    assert eng.race_evidence(query) is not None
    verdict = eng.bind(query)(2, None)
    assert verdict.found is True and verdict.evidence is not None
    clean = RaceQuery(program=clean_program(), scope=2)
    assert eng.race_evidence(clean) is None


@pytest.fixture
def race_runs(monkeypatch):
    """Counts the interpreter engine's race runs (``program_races_on``)."""
    import repro.interp

    runs = []
    real = repro.interp.program_races_on

    def counted(program, tree):
        runs.append(tree)
        return real(program, tree)

    monkeypatch.setattr(repro.interp, "program_races_on", counted)
    return runs


def test_interp_races_a_value_blind_program_once_per_tree(race_runs):
    """No guard of CLEAN compares a value, so the seeded valuations of one
    scope tree would repeat its one run; an ``n.v`` guard keeps a run
    per seed."""
    from repro.core.bounded import default_scope

    eng, trees = get_engine("interp"), len(default_scope(2))
    assert eng.race_evidence(RaceQuery(program=clean_program(), scope=2)) \
        is None
    assert len(race_runs) == trees
    del race_runs[:]
    guarded = parse_program(TABLE["guard-on-field"][0], name="guarded")
    assert eng.race_evidence(RaceQuery(program=guarded, scope=2)) is None
    assert len(race_runs) == trees * len(eng.field_seeds)


def test_on_trees_runs_a_value_blind_program_once(race_runs):
    """minimax ``Score`` branches on shape alone: one run, as given.
    ``Prune`` branches on ``n.val``: on a race-free chain it runs as given
    and under each of the three seeds."""
    from repro.casestudies import minimax
    from repro.trees.generators import left_chain

    tree = left_chain(5, val=3)
    res = check_data_race(minimax.parallel_program(), on_trees=[tree])
    assert res.verdict == "race-free" and len(race_runs) == 1
    del race_runs[:]
    res = check_data_race(minimax.pruned_program(), on_trees=[tree])
    assert res.verdict == "race-free" and len(race_runs) == 4


def test_interp_scope_rung_honours_its_deadline():
    """Like the bounded rung, an overrun interp scope shrinks and, with
    no scope fitting, the query stays undecided."""
    from repro.casestudies import sizecount

    for engine in ("bounded", "interp"):
        res = check_data_race(
            sizecount.parallel_program(), engine=engine, max_internal=3,
            bounded_deadline_s=1e-9, replay=False,
        )
        assert res.verdict == "unknown", engine
        assert [
            (a["rung"], a["outcome"]) for a in res.details["attempts"]
        ] == [(f"{engine}@{k}", "deadline") for k in (3, 2, 1)]


# ----------------------------------------------------------------------
# Plans


def test_plan_for_named_plans():
    assert plan_for("auto").engine_names() == ("mso", "bounded")
    assert plan_for("mso").engine_names() == ("mso",)
    assert plan_for("bounded").engine_names() == ("bounded",)


def test_plan_for_interp_runs_the_interpreter_alone():
    plan = plan_for("interp")
    assert plan.name == "interp" and plan.engine_names() == ("interp",)


def test_plan_for_unknown_spec_lists_known_specs():
    with pytest.raises(ValueError) as exc:
        plan_for("warp")
    msg = str(exc.value)
    for name in known_specs():
        assert name in msg


# ----------------------------------------------------------------------
# Cache reuse policy


def _record(query, verdict, engine, decided_by=None, scope=None):
    return {
        "key": query.key(),
        "kind": query.kind,
        "scope": query.scope if scope is None else scope,
        "verdict": verdict,
        "holds": verdict in ("race-free", "equivalent"),
        "decided_by": decided_by or engine,
        "decided_engine": engine,
        "result": {"verdict": verdict, "holds": verdict in (
            "race-free", "equivalent")},
    }


def test_cache_counterexample_reusable_from_sound_engine():
    cache = ResultCache()
    query = RaceQuery(program=racy_program(), scope=2)
    rec = _record(query, "race", "bounded", decided_by="bounded@2")
    cache._memory[query.key()] = rec
    assert cache.lookup(query, plan_for("auto")) is rec
    assert cache.lookup(query, plan_for("bounded")) is rec
    # A bounded verdict must not satisfy a strict mso caller.
    assert cache.lookup(query, plan_for("mso")) is None


def test_cache_clean_scope_verdict_needs_same_scope():
    cache = ResultCache()
    query = RaceQuery(program=clean_program(), scope=2)
    cache._memory[query.key()] = _record(
        query, "race-free", "bounded", decided_by="bounded@2"
    )
    assert cache.lookup(query, plan_for("bounded")) is not None
    other = RaceQuery(program=clean_program(), scope=3)
    cache._memory[other.key()] = _record(
        other, "race-free", "bounded", decided_by="bounded@2", scope=2
    )
    assert cache.lookup(other, plan_for("bounded")) is None


def test_cache_clean_all_trees_verdict_reusable_across_scopes():
    cache = ResultCache()
    query = RaceQuery(program=clean_program(), scope=2)
    cache._memory[query.key()] = _record(query, "race-free", "mso")
    assert cache.lookup(query, plan_for("auto")) is not None


def test_cache_sampled_clean_verdict_never_reused():
    cache = ResultCache()
    query = RaceQuery(program=clean_program(), scope=2)
    cache._memory[query.key()] = _record(query, "race-free", "interp")
    assert cache.lookup(query, plan_for("interp")) is None
    # ... but a counterexample from the interpreter is real evidence.
    racy = RaceQuery(program=racy_program(), scope=2)
    cache._memory[racy.key()] = _record(racy, "race", "interp")
    assert cache.lookup(racy, plan_for("interp")) is not None


def test_cache_never_stores_unknown():
    cache = ResultCache()
    query = RaceQuery(program=clean_program(), scope=2)
    assert not cache.store(query, {"verdict": "unknown", "holds": False})
    assert cache.lookup(query, plan_for("auto")) is None
    assert cache.stats.stored == 0


def test_cache_bisim_gated_on_allow_bisim():
    from repro.core.transform import correspondence_by_key

    p, q = clean_program(), clean_program()
    mapping = correspondence_by_key(p, q, strict=False)
    query = EquivalenceQuery(program=p, program2=q, mapping=mapping, scope=2)
    cache = ResultCache()
    cache._memory[query.key()] = _record(query, "not-equivalent", "bisim")
    assert cache.lookup(query, plan_for("auto")) is not None
    assert cache.lookup(query, plan_for("auto"), allow_bisim=False) is None


def test_cache_disk_round_trip_and_quarantine(tmp_path):
    query = RaceQuery(program=racy_program(), scope=2)
    cache = ResultCache(tmp_path / "cache")
    assert cache.store(query, {
        "verdict": "race",
        "holds": False,
        "details": {
            "decided_by": "bounded@2",
            "attempts": [{"rung": "bounded@2", "engine": "bounded"}],
        },
    })
    # A fresh cache over the same directory serves the stored verdict.
    warm = ResultCache(tmp_path / "cache")
    hit = warm.lookup(query, plan_for("auto"))
    assert hit is not None and hit["verdict"] == "race"
    assert warm.stats.hits == 1
    # Corrupt the checksummed row: quarantined, treated as a miss.
    conn = sqlite3.connect(tmp_path / "cache" / "cache.sqlite")
    conn.execute("UPDATE records SET payload = replace(payload, 'race', 'rice')")
    conn.commit()
    conn.close()
    cold = ResultCache(tmp_path / "cache")
    assert cold.lookup(query, plan_for("auto")) is None
    assert cold.stats.misses == 1


# ----------------------------------------------------------------------
# API integration


def test_check_data_race_uses_cache():
    cache = ResultCache()
    first = check_data_race(
        racy_program(), engine="bounded", max_internal=2, replay=False,
        cache=cache,
    )
    assert first.verdict == "race"
    assert first.details["cache"]["hit"] is False
    assert first.details["cache"]["stored"] is True
    second = check_data_race(
        racy_program(), engine="bounded", max_internal=2, replay=False,
        cache=cache,
    )
    assert second.verdict == "race"
    assert second.details["cache"]["hit"] is True
    assert second.details["decided_by"] == first.details["decided_by"]
    assert cache.stats.hits == 1 and cache.stats.stored == 1


def test_check_data_race_cache_respects_limit_changes():
    """Limits are not part of the key: a cached sound verdict answers
    the same question under different budgets."""
    cache = ResultCache()
    check_data_race(
        racy_program(), engine="bounded", max_internal=2, replay=False,
        cache=cache,
    )
    res = check_data_race(
        racy_program(), engine="bounded", max_internal=2,
        bounded_deadline_s=99.0, replay=False, cache=cache,
    )
    assert res.details["cache"]["hit"] is True
    # ... but a different scope is a different question.
    res3 = check_data_race(
        racy_program(), engine="bounded", max_internal=3, replay=False,
        cache=cache,
    )
    assert res3.details["cache"]["hit"] is False


def test_check_equivalence_bisim_verdict_cached():
    from repro.casestudies import sizecount

    cache = ResultCache()
    p = sizecount.sequential_program()
    q = sizecount.fused_invalid()
    mapping = sizecount.invalid_fusion_correspondence()
    first = check_equivalence(
        p, q, mapping, engine="bounded", max_internal=2, replay=False,
        cache=cache,
    )
    second = check_equivalence(
        p, q, mapping, engine="bounded", max_internal=2, replay=False,
        cache=cache,
    )
    assert first.verdict == second.verdict
    assert second.details["cache"]["hit"] is True
    if first.details.get("decided_by") == "bisim":
        # The bisim fast path must not be reused when the gate is off.
        third = check_equivalence(
            p, q, mapping, engine="bounded", max_internal=2, replay=False,
            check_bisim=False, cache=cache,
        )
        assert third.details["cache"]["hit"] is False


def test_cache_counters_flow_into_solver_stats():
    stats = SolverStats()
    cache = ResultCache()
    cache.stats.hits = 2
    cache.stats.misses = 3
    cache.stats.stored = 1
    stats.note_cache(cache.stats)
    snap = stats.as_dict()
    assert snap["cache"] == {"hits": 2, "misses": 3, "stored": 1}


def test_verification_wire_round_trip():
    from repro.core.api import verification_from_dict, verification_to_dict

    res = check_data_race(
        racy_program(), engine="bounded", max_internal=2, replay=False
    )
    wire = verification_to_dict(res)
    json.dumps(wire)  # JSON-plain by construction
    back = verification_from_dict(wire)
    assert back.verdict == res.verdict and back.holds == res.holds
    assert back.query == res.query and back.engine == res.engine
    assert back.details["decided_by"] == res.details["decided_by"]
    # The wire format is a fixed point: re-serializing the lifted
    # result reproduces it exactly.
    assert verification_to_dict(back) == wire


# ----------------------------------------------------------------------
# CLI registry validation


def test_cli_unknown_engine_exits_2(tmp_path, capsys):
    from repro.cli import main

    prog = tmp_path / "p.retreet"
    prog.write_text(CLEAN)
    code = main(["check-race", str(prog), "--engine", "warp"])
    assert code == 2
    err = capsys.readouterr().err
    assert "warp" in err
    for name in ("auto", "mso", "bounded"):
        assert name in err
