"""The differential conformance oracle, shrinker, and corpus."""

import re
from types import SimpleNamespace

import pytest

from repro.conformance import (
    Case,
    OracleConfig,
    case_size,
    load_corpus,
    run_case,
    run_entry,
    run_fuzz,
    save_entry,
    shrink_case,
)
from repro.conformance import oracle as oracle_mod
from repro.core.bounded import check_data_race_bounded
from repro.lang import parse_program

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

# RACY plus a dead helper function and dead statements; the shrinker
# should strip all of it while the bounded race persists.
RACY_BLOATED = """\
F0(n) {
  if (n == nil) { return 0 }
  else {
    n.b = (n.c + 2);
    n.a = 1;
    if (n.c > 1) { n.c = 7 };
    return (n.a + n.b)
  }
}
F1(n) {
  if (n == nil) { return 0 }
  else {
    v0 = F1(n.l);
    return v0
  }
}
Main(n) {
  { x0 = F0(n) || x1 = F0(n) };
  return x0
}
"""


def racy_case(**kw):
    return Case(kind="race", source=RACY, name="racy", **kw)


def ident_case():
    return Case(kind="equiv", source=CLEAN, source2=CLEAN, name="ident")


def _untimed(engines):
    """The oracle's ``engines`` record with wall-clock seconds masked."""
    return {
        k: re.sub(r"\d+\.\d+s\)", "<t>s)", v) if isinstance(v, str) else v
        for k, v in engines.items()
    }


# ----------------------------------------------------------------------
# Oracle


def test_oracle_racy_case_all_engines_agree():
    res = run_case(racy_case())
    assert res.ok, [str(m) for m in res.mismatches]
    assert res.engines["interp_race"] is not None
    assert res.engines["bounded_found"] is True
    assert res.engines["symbolic_status"] == "decided"
    assert res.engines["symbolic_found"] is True


def test_oracle_clean_case():
    res = run_case(Case(kind="race", source=CLEAN, name="clean"))
    assert res.ok
    assert res.engines["interp_race"] is None
    assert res.engines["bounded_found"] is False


def test_oracle_identity_equivalence():
    res = run_case(ident_case())
    assert res.ok, [str(m) for m in res.mismatches]
    assert res.engines["bounded"] == "equivalent"
    assert res.engines["precondition_racefree"] is True


_RACY_INTERP = "tree [''] seed 0: race on node root.a: write by s1 || write by s1"
_RACY_BOUNDED = {
    "interp_race": _RACY_INTERP,
    "bounded": "[bounded] data-race(racy-p): COUNTEREXAMPLE "
               "(1 trees, max 3 configs, <t>s)",
    "bounded_found": True,
    "bounded_replay":
        "skipped: value-cell witness is not dynamically observable",
}
_RACY_DECIDED = {
    **_RACY_BOUNDED,
    "symbolic": "[mso] data-race(racy-p): COUNTEREXAMPLE "
                "(1 queries, max 3 automaton states, <t>s)",
    "symbolic_status": "decided",
    "symbolic_found": True,
    "symbolic_replay": "dynamic race confirmed (seed 0): race on node "
                       "root.a: write by s1 || write by s1",
}


@pytest.mark.parametrize("case, cfg, engines", [
    pytest.param(racy_case(), OracleConfig(), _RACY_DECIDED, id="racy"),
    pytest.param(
        Case(kind="race", source=CLEAN, name="clean"), OracleConfig(),
        {
            "interp_race": None,
            "bounded": "[bounded] data-race(clean-p): holds on scope "
                       "(4 trees, max 4 configs, <t>s)",
            "bounded_found": False,
            "symbolic": "[mso] data-race(clean-p): holds (all trees) "
                        "(6 queries, max 0 automaton states, <t>s)",
            "symbolic_status": "decided",
            "symbolic_found": False,
        },
        id="clean",
    ),
    pytest.param(
        ident_case(), OracleConfig(),
        {
            "total_mapping": True,
            "precondition_racefree": True,
            "concrete_divergence": None,
            "bounded": "equivalent",
            "symbolic": "equivalent",
            "symbolic_status": "decided",
        },
        id="ident",
    ),
    pytest.param(
        racy_case(), OracleConfig(product_budget=5), _RACY_DECIDED,
        id="racy-product-budget-5",
    ),
    pytest.param(
        racy_case(), OracleConfig(product_budget=1),
        {
            **_RACY_BOUNDED,
            "symbolic": "[mso] data-race(racy-p): BUDGET "
                        "(0 queries, max 0 automaton states, <t>s)",
            "symbolic_status": "budget",
            "symbolic_found": None,  # undecided: no verdict
        },
        id="racy-undecided",
    ),
])
def test_oracle_engines_record_pinned(case, cfg, engines):
    """Every non-timing value the oracle records, per engine."""
    res = run_case(case, cfg)
    assert res.ok and not res.warnings, [str(m) for m in res.mismatches]
    assert _untimed(res.engines) == engines


def test_oracle_equivalence_run_honours_product_budget():
    """The symbolic equivalence run gets the config's product budget:
    at 1 reached state it cannot decide (the engine default would)."""
    from pathlib import Path

    (entry,) = [
        e for e in load_corpus(Path(__file__).parent / "corpus")
        if e.name == "minimax-fusion"
    ]
    res = run_case(entry.case, OracleConfig(product_budget=1))
    assert res.engines["symbolic_status"] == "budget"


def test_oracle_skips_symbolic_when_disabled():
    res = run_case(racy_case(), OracleConfig(run_symbolic=False))
    assert res.ok
    assert "symbolic" not in res.engines


def _stub_symbolic(monkeypatch, **attrs):
    # The oracle dispatches through the engine registry, whose symbolic
    # engine resolves check_data_race_mso lazily — patch it at the
    # source module.
    import repro.core.symbolic as symbolic_mod

    base = {"status": "decided", "found": False, "witness": None}
    base.update(attrs)
    verdict = SimpleNamespace(**base)
    monkeypatch.setattr(
        symbolic_mod, "check_data_race_mso",
        lambda program, solver=None, guard=None: verdict,
    )
    return verdict


def test_oracle_flags_unsound_symbolic_racefree(monkeypatch):
    """A symbolic race-free verdict against a bounded+dynamic race is
    the core lattice violation, reported on both edges."""
    _stub_symbolic(monkeypatch, status="decided", found=False)
    res = run_case(racy_case())
    kinds = {m.kind for m in res.mismatches}
    assert "bounded-vs-symbolic" in kinds
    assert "interp-vs-symbolic" in kinds


def test_oracle_flags_stale_witness(monkeypatch):
    _stub_symbolic(monkeypatch, status="budget", witness=object())
    res = run_case(racy_case())
    assert {m.kind for m in res.mismatches} == {"stale-witness"}


def test_oracle_flags_missing_witness(monkeypatch):
    _stub_symbolic(monkeypatch, status="decided", found=True, witness=None)
    res = run_case(racy_case())
    assert {m.kind for m in res.mismatches} == {"missing-witness"}


def test_oracle_catches_injected_corrupt_fault():
    """The acceptance gate: a corrupted BDD apply inside the symbolic
    engine must surface as an ``engine-error`` mismatch, on race and
    equivalence cases alike."""
    cfg = OracleConfig(fault=("bdd.apply", 1, "corrupt"))
    for case in (racy_case(), ident_case()):
        res = run_case(case, cfg)
        assert not res.ok
        assert {m.kind for m in res.mismatches} == {"engine-error"}
        (detail,) = [m.detail for m in res.mismatches]
        assert detail.count("symbolic engine failed") == 1, detail
        assert "symbolic" not in res.engines


def test_oracle_fault_rearmed_per_evaluation():
    """FaultSpec fires once; the oracle must re-arm it each run so
    shrinker re-evaluations keep failing deterministically."""
    cfg = OracleConfig(fault=("bdd.apply", 1, "corrupt"))
    for case in (racy_case(), ident_case()):
        for _ in range(2):
            res = run_case(case, cfg)
            assert {m.kind for m in res.mismatches} == {"engine-error"}
        # and a fresh config without the fault is unaffected
        assert run_case(case, OracleConfig()).ok


# ----------------------------------------------------------------------
# Shrinker


def test_shrinker_strips_bloat_keeps_race():
    case = Case(kind="race", source=RACY_BLOATED, name="bloat")

    def still_fails(cand):
        prog = parse_program(cand.source, name="cand")
        return check_data_race_bounded(
            prog, max_internal=cand.max_internal
        ).found

    assert still_fails(case)
    shrunk = shrink_case(case, still_fails, budget_s=30.0)
    assert case_size(shrunk) < case_size(case)
    assert still_fails(shrunk)
    assert "F1" not in shrunk.source  # dead helper dropped
    assert shrunk.max_internal == 1  # scope shrunk too


def test_shrinker_returns_original_when_nothing_reduces():
    case = Case(kind="race", source=RACY, name="racy", max_internal=1)
    shrunk = shrink_case(case, lambda cand: False, budget_s=5.0)
    assert shrunk == case


# ----------------------------------------------------------------------
# Corpus


def test_corpus_round_trip(tmp_path):
    case = racy_case()
    path = save_entry(
        tmp_path, case, [], origin="hand", description="round-trip",
        oracle_overrides={"run_symbolic": False},
    )
    entries = load_corpus(tmp_path)
    assert [e.path for e in entries] == [path]
    entry = entries[0]
    assert entry.case.source == RACY
    assert entry.case.kind == "race"
    assert entry.config().run_symbolic is False
    assert run_entry(entry).ok


def test_corpus_names_deduplicate(tmp_path):
    case = racy_case()
    p1 = save_entry(tmp_path, case, [], origin="hand")
    p2 = save_entry(tmp_path, case, [], origin="hand")
    assert p1 != p2 and p1.parent == p2.parent


def test_load_corpus_missing_dir(tmp_path):
    assert load_corpus(tmp_path / "nope") == []


# ----------------------------------------------------------------------
# Fuzz loop


def test_run_fuzz_clean_stream():
    rep = run_fuzz(seed=0, budget_s=25.0, max_cases=4)
    assert rep.ok
    assert rep.cases == 4
    assert rep.race_cases == 3 and rep.equiv_cases == 1
    assert "no mismatches" in rep.summary()


def test_run_fuzz_with_fault_shrinks_and_persists(tmp_path):
    cfg = OracleConfig(fault=("bdd.apply", 1, "corrupt"))
    rep = run_fuzz(
        seed=0, budget_s=30.0, max_cases=1, cfg=cfg, corpus_dir=tmp_path,
    )
    assert not rep.ok
    assert len(rep.corpus_paths) == 1
    shrunk_case_, mismatches = rep.mismatches[0]
    assert {m.kind for m in mismatches} == {"engine-error"}
    # the reproducer was shrunk hard: the fault fires on any symbolic
    # run, so the minimum is a trivial program at scope 1
    assert shrunk_case_.max_internal == 1
    entries = load_corpus(tmp_path)
    assert len(entries) == 1
    # without the fault armed, the persisted reproducer is clean — the
    # corpus regression loop would go green once the bug is fixed
    assert run_entry(entries[0]).ok
