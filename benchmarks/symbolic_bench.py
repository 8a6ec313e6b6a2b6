#!/usr/bin/env python3
"""Symbolic-engine scaling benchmark — the BENCH_symbolic.json artifact.

Runs all seven Table-1 tasks on the MSO engine under *default* budgets and
records, per task: verdict, wall seconds, query count, reached-state peak
and total, and BDD nodes.  Also records a depth-scaling curve: the bounded
engine's wall time as the scope bound grows on one task, next to the
(depth-independent) symbolic time for the same query — the paper's core
pitch, in one plot-ready series.

Modes::

    python benchmarks/symbolic_bench.py --json BENCH_symbolic.json   # emit
    python benchmarks/symbolic_bench.py --check BENCH_symbolic.json  # gate

``--check`` re-runs the bench and fails (exit 1) on any verdict change,
on any change of a task's deterministic counters (``queries``,
``total_reached``, ``bdd_nodes``: the same automata give the same
numbers), or on any task slowing down more than 25% against the
committed baseline (with a 0.5 s absolute grace so sub-second tasks don't
flap on noise).  CI runs the gate; regenerate the baseline with
``--json`` after a change that legitimately shifts the numbers (e.g. one
that alters the automata built) and commit the diff.
"""

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))

from benchmarks.table1 import PAPER, run_bounded, run_mso, tasks  # noqa: E402
from repro.core.bounded import default_scope  # noqa: E402
from repro.solver.solver import MSOSolver  # noqa: E402

#: Per-task counters that must equal the baseline exactly.
COUNTERS = ("queries", "total_reached", "bdd_nodes")
#: >25% slower than baseline fails the gate …
SLOWDOWN = 1.25
#: … unless the absolute regression is under this (seconds): timer noise.
GRACE_S = 0.5

#: Depth-scaling task and scope range.  T1.1 is the smallest conflict task;
#: the bounded engine enumerates trees so its cost grows exponentially in
#: the scope while the symbolic time is one flat number.
DEPTH_TASK = "T1.1"
DEPTH_SCOPES = (1, 2, 3, 4)


def run_all(deadline_s: float, with_depth: bool = True):
    t = tasks()
    solver_defaults = MSOSolver()
    out = {
        "bench": "symbolic-table1",
        "config": {
            "det_budget": solver_defaults.compiler.det_budget,
            "product_budget": solver_defaults.product_budget,
            "deadline_s": deadline_s,
        },
        "tasks": {},
    }
    all_match = True
    for tid, desc, kind, paper_verdict, _paper_s in PAPER:
        verdict, secs, mv = run_mso(t[tid], deadline_s=deadline_s)
        st = mv.stats or {}
        match = verdict == paper_verdict
        all_match &= match
        out["tasks"][tid] = {
            "task": desc,
            "kind": kind,
            "verdict": verdict,
            "match": match,
            "seconds": round(secs, 3),
            "queries": mv.queries,
            "max_reached_states": st.get("max_reached", mv.max_states),
            "total_reached": st.get("total_reached"),
            "bdd_nodes": st.get("bdd_nodes"),
            "compile_s": round(st.get("compile_s") or 0.0, 3),
            "explore_s": round(st.get("explore_s") or 0.0, 3),
        }
        print(
            f"{tid:<6} {verdict:>15}{'' if match else ' (!)'} "
            f"{secs:>8.2f}s  queries={mv.queries:<4} "
            f"max_reached={st.get('max_reached', 0):<7} "
            f"total_reached={st.get('total_reached', 0)}",
            flush=True,
        )
    out["all_match"] = all_match

    if with_depth:
        curve = []
        for scope in DEPTH_SCOPES:
            _verdict, secs = run_bounded(t[DEPTH_TASK], default_scope(scope))
            curve.append({"scope": scope, "seconds": round(secs, 3)})
            print(f"depth  scope={scope}  bounded={secs:.3f}s", flush=True)
        out["depth_scaling"] = {
            "task": DEPTH_TASK,
            "bounded": curve,
            "symbolic_seconds": out["tasks"][DEPTH_TASK]["seconds"],
            "note": "bounded cost grows with the scope bound; the symbolic "
                    "time covers all depths at once",
        }
    return out


def check(baseline_path: Path, fresh) -> int:
    base = json.loads(baseline_path.read_text())
    failures = []
    for tid, brec in base.get("tasks", {}).items():
        frec = fresh["tasks"].get(tid)
        if frec is None:
            failures.append(f"{tid}: missing from fresh run")
            continue
        if frec["verdict"] != brec["verdict"]:
            failures.append(
                f"{tid}: verdict changed {brec['verdict']!r} -> "
                f"{frec['verdict']!r}"
            )
        for key in COUNTERS:
            if frec.get(key) != brec.get(key):
                failures.append(
                    f"{tid}: {key} changed {brec.get(key)!r} -> "
                    f"{frec.get(key)!r}"
                )
        limit = max(brec["seconds"] * SLOWDOWN, brec["seconds"] + GRACE_S)
        if frec["seconds"] > limit:
            failures.append(
                f"{tid}: {frec['seconds']:.2f}s exceeds "
                f"{limit:.2f}s (baseline {brec['seconds']:.2f}s + 25%)"
            )
    if failures:
        print("symbolic-bench gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    n = len(base.get("tasks", {}))
    print(f"symbolic-bench gate OK ({n} tasks: same verdicts and counters, "
          f"within 25% of baseline)")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--json", metavar="OUT", default=None,
                    help="write BENCH_symbolic.json here")
    ap.add_argument("--check", metavar="BASELINE", default=None,
                    help="re-run and gate against a committed baseline")
    ap.add_argument("--deadline", type=float, default=300.0,
                    help="per-task symbolic deadline (seconds)")
    ap.add_argument("--no-depth", action="store_true",
                    help="skip the bounded depth-scaling curve")
    args = ap.parse_args()

    t0 = time.perf_counter()
    fresh = run_all(args.deadline, with_depth=not args.no_depth)
    fresh["wall_s"] = round(time.perf_counter() - t0, 2)
    print(f"total {fresh['wall_s']}s; verdicts "
          f"{'ALL MATCH' if fresh['all_match'] else 'MISMATCH'}")

    if args.json:
        Path(args.json).write_text(
            json.dumps(fresh, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.json}")
    if args.check:
        rc = check(Path(args.check), fresh)
        if rc:
            return rc
    return 0 if fresh["all_match"] else 1


if __name__ == "__main__":
    sys.exit(main())
