"""Value-blind programs: the analysis, its premise, and the race paths.

A program is *value-blind* when no ``if`` guard compares a value: every
guard is a nil test (``repro.interp.value_blind``).  The interpreter's
race searches run such a program once per tree instead of once per
field valuation.  This file pins three things:

* the analysis' answer on a table of programs;
* the premise: on every valuation of one tree, a blind program runs the
  same iterations, records the same accesses and raises the same error;
* the outcome: ``race_evidence`` and ``first_race`` answer exactly what a
  loop over every valuation answers.
"""

import json
from pathlib import Path

import pytest

from repro.casestudies import cycletree, minimax, sizecount
from repro.core.bounded import default_scope
from repro.engine import RaceQuery, get_engine
from repro.gen import gen_program
from repro.interp import program_races_on, run, value_blind
from repro.lang.parser import parse_program
from repro.trees.generators import random_tree

CORPUS = Path(__file__).parent / "corpus"

SCOPE = 3
#: The interpreter engine's default seeds, which the race paths use.
SEEDS = (0, 7, 13)
#: Generated programs scanned; at least MIN_BLIND of them are blind.
GEN_SEEDS = range(130)
MIN_BLIND = 40

TABLE = {
    # Field reads only in returns and writes: shape decides every branch.
    "reads-in-returns-and-writes": ("""
F(n) { if (n == nil) { return 0 } else {
  n.a = n.b + 1; r = F(n.l); n.c = r; return r + n.a } }
Main(n) { { x = F(n) || y = F(n) }; return x }""", True),
    "guard-on-field": ("""
F(n) { if (n == nil) { return 0 } else {
  if (n.v > 0) { n.a = 1 } else { skip }; return 0 } }
Main(n) { x = F(n); return x }""", False),
}


def _table_program(name):
    return parse_program(TABLE[name][0], name=name)


def _reproducer():
    entry = json.loads((CORPUS / "rlimit-crash-reproducer.json").read_text())
    return parse_program(entry["source"], name="reproducer")


@pytest.mark.parametrize("name", sorted(TABLE))
def test_value_blind_table(name):
    assert value_blind(_table_program(name)) is TABLE[name][1]


@pytest.mark.parametrize("make, blind", [
    (minimax.parallel_program, True),   # Score: n == nil, n.l/n.r == nil
    (minimax.pruned_program, False),    # Prune: (a + n.val) > 0
    (sizecount.parallel_program, True),  # Odd || Even
    (cycletree.parallel_program, True),
    (_reproducer, False),               # n.v == 0 / 1 / 2
])
def test_value_blind_programs(make, blind):
    assert value_blind(make()) is blind


def test_value_blind_follows_an_in_place_rewrite():
    """The answer lives in the compiled-code cache entry, so it is
    rebuilt with the code when a function is replaced in place."""
    p = _table_program("reads-in-returns-and-writes")
    assert value_blind(p)
    p.funcs["F"] = parse_program(TABLE["guard-on-field"][0]).funcs["F"]
    assert not value_blind(p)


# ----------------------------------------------------------------------
# The premise and the race paths, on generated programs


def _programs():
    return [gen_program(s, name=f"gen{s}") for s in GEN_SEEDS]


def _valuations(program, tree):
    """``tree`` as given and under each seed, as the interpreter engine
    builds them."""
    eng, fields = get_engine("interp"), RaceQuery(program=program).fields()
    return [eng._valued(tree, seed, fields) for seed in (None,) + SEEDS]


def _observed(program, tree):
    """What a run shows that does not hold values: iterations, accesses
    and the error, if one is raised."""
    try:
        trace = run(program, tree, inplace=True).trace
    except Exception as e:
        return "error", type(e).__name__, str(e)
    return (
        [(it.sid, it.node, it.context.to_tuple()) for it in trace.iterations],
        [(e.kind, e.target, e.node, e.name, e.sid, e.context.to_tuple())
         for e in trace.events],
    )


def test_enough_generated_programs_are_blind():
    assert sum(map(value_blind, _programs())) >= MIN_BLIND


def test_blind_programs_run_alike_on_every_valuation():
    blind = [p for p in _programs() if value_blind(p)]
    blind += [minimax.parallel_program(), sizecount.parallel_program(),
              cycletree.parallel_program()]
    for program in blind:
        for tree in default_scope(SCOPE):
            seen = [_observed(program, w) for w in _valuations(program, tree)]
            assert all(s == seen[0] for s in seen), (program.name,
                                                     tree.paths())


def _brute_race_evidence(query):
    eng = get_engine("interp")
    fields = query.fields()
    for tree in default_scope(query.scope):
        for seed in SEEDS:
            work = eng._valued(tree, seed, fields)
            races = program_races_on(query.program, work)
            if races:
                return f"{eng._describe_tree(work)} seed {seed}: {races[0]}"
    return None


def _brute_first_race(query, trees):
    eng = get_engine("interp")
    fields = query.fields()
    for i, tree in enumerate(trees):
        for seed in (None,) + (SEEDS if fields else ()):
            races = program_races_on(query.program,
                                     eng._valued(tree, seed, fields))
            if races:
                return i, seed, eng._valued(tree, seed, fields), races[0]
    return None


def _user_trees():
    """Small trees carrying their own field values."""
    return [random_tree(k, seed=k, field_names=("a", "b", "c"),
                        value_range=(0, 5)) for k in range(1, 6)]


def _same_hit(a, b):
    if a is None or b is None:
        return a is b
    return (a[:2] == b[:2] and str(a[3]) == str(b[3])
            and a[2].fields_equal(b[2]))


def test_race_paths_match_every_valuation():
    eng = get_engine("interp")
    trees = _user_trees()
    for program in _programs():
        query = RaceQuery(program=program, scope=SCOPE)
        assert eng.race_evidence(query) == _brute_race_evidence(query), \
            program.name
        assert _same_hit(eng.first_race(query, trees),
                         _brute_first_race(query, trees)), program.name
