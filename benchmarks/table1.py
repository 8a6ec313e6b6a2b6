#!/usr/bin/env python3
"""Regenerate the paper's evaluation table (§5) — paper vs this repo.

Runs all seven verification tasks on the bounded engine (exhaustive up to
the scope bound) and, where the pure-Python symbolic engine completes
within budget, on the MSO engine too.  Prints the table EXPERIMENTS.md
records.

Usage:  python benchmarks/table1.py [--scope 4] [--mso] [--json OUT]
"""

import argparse
import json
import sys
import time

from repro.casestudies import css, cycletree, sizecount, treemutation
from repro.core.bounded import (
    check_conflict_bounded,
    check_data_race_bounded,
    default_scope,
)
from repro.core.symbolic import check_conflict_mso, check_data_race_mso
from repro.runtime import ResourceGuard

PAPER = [
    # (id, description, kind, paper verdict, paper MONA secs)
    ("T1.1", "sizecount: fuse Odd+Even (Fig 6a)", "conflict", "valid", 0.14),
    ("T1.2", "sizecount: broken fusion (Fig 6b)", "conflict", "counterexample", 0.14),
    ("T1.3", "sizecount: Odd(n) || Even(n)", "race", "race-free", 0.02),
    ("T1.4", "treemutation: fuse Swap+IncrmLeft", "conflict", "valid", 0.12),
    ("T1.5", "css: fuse 3 minification passes", "conflict", "valid", 6.88),
    ("T1.6", "cycletree: fuse numbering+routing", "conflict", "valid", 490.55),
    ("T1.7", "cycletree: numbering || routing", "race", "counterexample", 0.95),
]


def tasks():
    return {
        "T1.1": ("conflict", sizecount.sequential_program(),
                 sizecount.fused_valid(), sizecount.fusion_correspondence()),
        "T1.2": ("conflict", sizecount.sequential_program(),
                 sizecount.fused_invalid(),
                 sizecount.invalid_fusion_correspondence()),
        "T1.3": ("race", sizecount.parallel_program()),
        "T1.4": ("conflict", treemutation.original_program(),
                 treemutation.fused_program(),
                 treemutation.fusion_correspondence()),
        "T1.5": ("conflict", css.original_program(), css.fused_program(),
                 css.fusion_correspondence()),
        "T1.6": ("conflict", cycletree.sequential_program(),
                 cycletree.fused_program(),
                 cycletree.fusion_correspondence()),
        "T1.7": ("race", cycletree.parallel_program()),
    }


def run_bounded(task, scope):
    if task[0] == "race":
        v = check_data_race_bounded(task[1], scope)
        verdict = "counterexample" if v.found else "race-free"
    else:
        v = check_conflict_bounded(task[1], task[2], task[3], scope)
        verdict = "counterexample" if v.found else "valid"
    return verdict, v.elapsed


def run_mso(task, deadline_s=120.0):
    t0 = time.perf_counter()
    guard = ResourceGuard(deadline=t0 + deadline_s)
    if task[0] == "race":
        v = check_data_race_mso(task[1], guard=guard)
        good, bad = "race-free", "counterexample"
    else:
        v = check_conflict_mso(
            task[1], task[2], task[3], guard=guard
        )
        good, bad = "valid", "counterexample"
    if v.status != "decided":
        # Pass the guard's diagnosis through: "deadline" / "budget" /
        # "memory" are distinct outcomes in the table.
        return v.status, time.perf_counter() - t0, v
    return (bad if v.found else good), v.elapsed, v


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scope", type=int, default=4,
                    help="bounded-engine scope (max internal nodes)")
    ap.add_argument("--mso", action="store_true",
                    help="also run the symbolic engine (race queries; "
                         "overruns report 'deadline'/'budget'/'memory')")
    ap.add_argument("--mso-deadline", type=float, default=120.0)
    ap.add_argument("--json", metavar="OUT", default=None,
                    help="also dump verdicts, engines, and per-phase "
                         "timings as JSON to OUT")
    args = ap.parse_args()

    scope = default_scope(args.scope)
    t = tasks()
    header = (
        f"{'id':<6} {'task':<38} {'paper':>15} {'paper s':>9} "
        f"{'bounded':>15} {'bnd s':>8}"
    )
    if args.mso:
        header += f" {'mso':>15} {'mso s':>9}"
    print(header)
    print("-" * len(header))
    all_match = True
    records = []
    for tid, desc, kind, paper_verdict, paper_s in PAPER:
        verdict, secs = run_bounded(t[tid], scope)
        match = verdict == paper_verdict
        all_match &= match
        row = (
            f"{tid:<6} {desc:<38} {paper_verdict:>15} {paper_s:>9.2f} "
            f"{verdict + ('' if match else ' (!)'):>15} {secs:>8.3f}"
        )
        rec = {
            "id": tid,
            "task": desc,
            "kind": kind,
            "paper_verdict": paper_verdict,
            "paper_seconds": paper_s,
            "bounded": {
                "verdict": verdict,
                "seconds": round(secs, 4),
                "scope": args.scope,
                "match": match,
            },
        }
        if args.mso:
            mso_verdict, mso_secs, mv = run_mso(t[tid], args.mso_deadline)
            row += f" {mso_verdict:>15} {mso_secs:>9.2f}"
            rec["mso"] = {
                "verdict": mso_verdict,
                "seconds": round(mso_secs, 4),
                "queries": mv.queries,
                "max_reached_states": mv.max_states,
                "match": mso_verdict == paper_verdict,
                "phases": mv.stats,
            }
        records.append(rec)
        print(row, flush=True)
    print("-" * len(header))
    print(
        f"verdicts {'ALL MATCH' if all_match else 'MISMATCH'} the paper "
        f"(bounded engine, scope <= {args.scope} internal nodes)"
    )
    if args.json:
        payload = {
            "scope": args.scope,
            "mso": bool(args.mso),
            "all_match": all_match,
            "tasks": records,
        }
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0 if all_match else 1


if __name__ == "__main__":
    sys.exit(main())
