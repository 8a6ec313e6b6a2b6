"""Symbolic-engine benchmarks: the queries the pure-Python MONA substitute
decides within budget (race queries — two configuration families).

Four-family conflict queries exceed the product budget in pure Python and
fall back to the bounded engine (measured in ``test_table1.py``); the
fallback behaviour itself is benchmarked here.
"""

import pytest

from repro.casestudies import cycletree, sizecount
from repro.core.symbolic import check_data_race_mso
from repro.runtime import ResourceGuard


def test_mso_sizecount_race_free(benchmark):
    """T1.3 on the symbolic engine (paper: MONA 0.02 s).  The sound
    encoder may exceed the state budget on small hosts — the benchmark
    then measures the clean give-up latency instead."""
    import time

    def go():
        return check_data_race_mso(
            sizecount.parallel_program(),
            guard=ResourceGuard(deadline=time.perf_counter() + 120),
        )

    v = benchmark.pedantic(go, rounds=1, iterations=1)
    if v.status != "decided":
        assert v.status == "budget"
    else:
        assert v.holds


def test_mso_cycletree_race_found(benchmark):
    """T1.7 on the symbolic engine: the n.num race, with witness tree."""

    import time

    def go():
        return check_data_race_mso(
            cycletree.parallel_program(),
            det_budget=50_000,
            guard=ResourceGuard(deadline=time.perf_counter() + 120),
        )

    v = benchmark.pedantic(go, rounds=1, iterations=1)
    if v.status != "decided":
        pytest.skip("exceeded state budget on this host")
    assert v.found


def test_mso_conflict_falls_back(benchmark):
    """Conflict queries (4 label families) exceed the Python product
    budget; the auto engine must fall back to bounded and still produce
    the right verdict."""
    from repro import check_equivalence

    def go():
        return check_equivalence(
            sizecount.sequential_program(),
            sizecount.fused_valid(),
            sizecount.fusion_correspondence(),
            engine="auto",
            mso_deadline_s=30,
        )

    r = benchmark.pedantic(go, rounds=1, iterations=1)
    assert r.verdict == "equivalent"
