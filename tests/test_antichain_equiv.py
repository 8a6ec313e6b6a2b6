"""Removing antichain pruning must not change a verdict — only its cost.

The lazy product fixpoint once dropped tuples that an upward-simulation-
larger tuple dominated; it is now plain bottom-up reachability with the
same heap frontier and batch drain, so expansion order is unchanged.
These tests pin what the removal may not move, two ways:

* seeded fuzz over random small factor lists — the early-stop, the
  saturating and the recorded run must agree on emptiness, the recorded
  run must reach exactly the saturating run's tuples, and its
  materialized automaton must agree with both;
* the committed corpus programs end to end through the symbolic race
  engine, against the verdicts recorded while the pruning was on.
"""

import json
import random
from pathlib import Path

import pytest

from repro.automata import ProductAutomaton, TrackRegistry, TreeAutomaton, is_empty

CORPUS = Path(__file__).parent / "corpus"
TRACKS = ("A", "B")

# (status, found) of check_data_race_mso on each corpus source, as the
# antichain-pruned fixpoint decided them.
PRUNED_VERDICTS = {
    "equiv-identity": ("decided", False),
    "guarded-write-overapprox": ("decided", True),
    "minimax-fusion": ("decided", False),
    "minimax-race": ("decided", True),
    "racefree-sizecount": ("decided", False),
    "racy-parallel-write": ("decided", True),
    "rlimit-crash-reproducer": ("decided", False),
    "t13-budget-status": ("decided", False),
}


def _random_automaton(rng, registry):
    mgr = registry.manager
    guards = [
        mgr.true,
        registry.bit("A"),
        registry.bit("A", False),
        registry.bit("B"),
        mgr.apply_and(registry.bit("A"), registry.bit("B", False)),
    ]
    n = rng.randint(1, 4)
    leaf = []
    for q in range(n):
        if rng.random() < 0.6:
            leaf.append((rng.choice(guards), q))
    delta = {}
    for ql in range(n):
        for qr in range(n):
            entries = []
            for q in range(n):
                if rng.random() < 0.35:
                    entries.append((rng.choice(guards), q))
            if entries:
                delta[(ql, qr)] = entries
    accepting = frozenset(q for q in range(n) if rng.random() < 0.5) or frozenset(
        [rng.randrange(n)]
    )
    return TreeAutomaton(
        registry=registry,
        tracks=frozenset(TRACKS),
        n_states=n,
        leaf=leaf,
        delta=delta,
        accepting=accepting,
        deterministic=False,
        complete=False,
    )


@pytest.mark.parametrize("base", range(0, 120, 30))
def test_fuzz_on_off_emptiness_agrees(base):
    for seed in range(base, base + 30):
        rng = random.Random(seed)
        registry = TrackRegistry()
        factors = [_random_automaton(rng, registry) for _ in range(rng.randint(2, 4))]
        full = ProductAutomaton(factors).explore(stop_on_accepting=False)
        fast = ProductAutomaton(factors).explore()
        assert fast.empty == full.empty, f"seed {seed}: early-stop diverged"
        # The early stop only cuts the same expansion order short.
        assert fast.reached <= full.reached
        prod = ProductAutomaton(factors)
        rec = prod.explore(stop_on_accepting=False, record=True)
        assert rec.empty == full.empty, f"seed {seed}: recording diverged"
        assert rec.reached == full.reached
        assert is_empty(prod.materialized_explored(rec)) == full.empty


def _corpus_sources():
    out = []
    for path in sorted(CORPUS.glob("*.json")):
        data = json.loads(path.read_text())
        src = data.get("source")
        if src:
            out.append(pytest.param(path.stem, src, id=path.stem))
    return out


@pytest.mark.parametrize("name,src", _corpus_sources())
def test_corpus_verdicts_invariant_under_antichain(name, src):
    from repro.core.symbolic import check_data_race_mso
    from repro.lang import parse_program

    r = check_data_race_mso(parse_program(src, name="corpus"))
    status, found = PRUNED_VERDICTS[name]
    assert r.status == status
    if status == "decided":
        assert r.found == found
