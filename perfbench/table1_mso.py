"""Workload ``table1-mso``: the paper's Table-1 tasks on the symbolic engine.

Six tasks (T1.1-T1.5, T1.7), each a fresh ``check_equivalence`` /
``check_data_race`` call with the default engine spec.  Each program is
parsed from its printed source inside the timed query, so ``lang`` is part
of the time to verdict.  T1.6 is left out: at ~100 s it costs 2.5x the
other six together.  The tasks are fixed by the paper, so the seed changes
nothing here; it is accepted so every workload takes the same arguments.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path
from typing import Dict, List

from common import Op, Workload, ratio

#: The Table-1 definitions (``tasks()``, ``PAPER``) live in the repo's
#: own table script; it is loaded by path so nothing is duplicated here.
TABLE1_SCRIPT = (Path(__file__).resolve().parent.parent / "benchmarks"
                 / "table1.py")
#: Tasks run, in paper order.
TASK_IDS = ("T1.1", "T1.2", "T1.3", "T1.4", "T1.5", "T1.7")
#: Paper verdict -> the API's verdict, per query kind.
VERDICTS = {
    ("conflict", "valid"): "equivalent",
    ("conflict", "counterexample"): "not-equivalent",
    ("race", "race-free"): "race-free",
    ("race", "counterexample"): "race",
}


def _table1_module():
    spec = importlib.util.spec_from_file_location("perfbench_table1",
                                                  TABLE1_SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Table1Mso(Workload):
    name = "table1-mso"
    nominal_pass_s = 45.0

    def prepare(self, seed: int, passes: int) -> None:
        # Import every module the first query would otherwise import
        # lazily, so the timed queries do no import work.
        import repro.core.api  # noqa: F401
        import repro.core.symbolic  # noqa: F401
        import repro.core.witness  # noqa: F401
        import repro.solver.solver  # noqa: F401
        from repro.lang.printer import program_source

        table1 = _table1_module()
        paper = {tid: (kind, verdict) for tid, _, kind, verdict, _
                 in table1.PAPER}
        defs = table1.tasks()
        #: (id, kind, expected verdict, replay expected, sources, mapping);
        #: each source is printed text plus name/entry, parsed back inside
        #: the timed query.
        self.tasks = []
        for tid in TASK_IDS:
            kind, paper_verdict = paper[tid]
            progs = defs[tid][1:3] if kind == "conflict" else defs[tid][1:2]
            mapping = defs[tid][3] if kind == "conflict" else None
            self.tasks.append((
                tid, kind, VERDICTS[kind, paper_verdict],
                paper_verdict == "counterexample",
                tuple((program_source(p), p.name, p.entry) for p in progs),
                mapping,
            ))

    def trace_targets(self):
        return [
            ("repro.lang.parser:parse_program", "lang.parse"),
            ("repro.core.api:validate", "lang.validate"),
            ("repro.core.api:check_data_race", "core.api"),
            ("repro.core.api:check_equivalence", "core.api"),
            ("repro.core.api:check_bisimulation", "core.bisim"),
            ("repro.core.symbolic:check_data_race_mso", "core.race_mso"),
            ("repro.core.symbolic:check_conflict_mso", "core.conflict_mso"),
            ("repro.core.api:replay_race", "core.replay"),
            ("repro.core.api:replay_conflict", "core.replay"),
        ]

    def run_pass(self, index: int) -> List[Op]:
        from repro.core import api
        from repro.lang import parser

        ops = []
        for tid, kind, expected, wants_replay, srcs, mapping in self.tasks:
            t0 = time.perf_counter()
            try:
                progs = [
                    parser.parse_program(src, name=name, entry=entry)
                    for src, name, entry in srcs
                ]
                if kind == "race":
                    res = api.check_data_race(progs[0])
                else:
                    res = api.check_equivalence(progs[0], progs[1], mapping)
            except Exception as e:  # a failed operation, not a dead run
                ops.append(Op(time.perf_counter() - t0, "miss", False, tid,
                              error=f"{type(e).__name__}: {e}", start=t0))
                continue
            latency = time.perf_counter() - t0
            problem = None
            if res.verdict != expected:
                problem = f"verdict {res.verdict!r}, expected {expected!r}"
            elif res.details.get("decided_by") != "mso":
                problem = (f"decided by {res.details.get('decided_by')!r}, "
                           f"not the first mso rung")
            elif wants_replay and not (res.replay and res.replay.confirmed):
                problem = f"counterexample replay not confirmed: {res.replay}"
            ops.append(Op(latency, "miss", problem is None, tid,
                          error=problem,
                          extra=dict(res.details.get("mso_stats") or {}),
                          start=t0))
        return ops

    def layer_metrics(self, ops: List[Op]) -> Dict[str, float]:
        stats = [op.extra for op in ops if op.extra]

        def total(key):
            return sum(s.get(key) or 0 for s in stats)

        reached = total("total_reached")
        pruned = total("pruned_tuples")
        return {
            "mso.compile_s": total("compile_s"),
            "automata.explore_s": total("explore_s"),
            "core.witness_s": total("witness_s"),
            "automata.reached_total": reached,
            "automata.pruned_share": ratio(pruned, pruned + reached),
            "bdd.nodes": total("bdd_nodes"),
            "bdd.cache_hit_ratio": ratio(
                total("bdd_cache_hits"),
                total("bdd_cache_hits") + total("bdd_cache_misses"),
            ),
            "solver.conj_cache_hit_ratio": ratio(
                total("conj_cache_hits"),
                total("conj_cache_hits") + total("conj_cache_misses"),
            ),
            "solver.queries": total("queries"),
        }
