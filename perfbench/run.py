#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the Retreet reproduction.

    python3 perfbench/run.py --workload table1-mso --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see ``perfbench/WORKLOADS.md``):

* ``table1-mso``  — the paper's Table-1 tasks on the symbolic engine;
* ``interp-trees`` — dynamic race checks on concrete n-ary trees;
* ``daemon-mix``  — cache hit/miss traffic through a ``repro serve`` daemon.

A run sets up (several times, reporting the median), checks oracles, then
runs ``max(1, round(seconds / nominal pass seconds))`` passes of alike
cost, each a fixed query set, and checks every answer.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
follows the untraced passes with as many passes with span wrappers
installed, and reports the per-layer metrics.
End-to-end times are in reference seconds: raw seconds less the share the
hypervisor stole and, on the in-process workloads, scaled by the host's
speed sampled in the same thread while they were measured
(``perfbench/speed.py``).  Per-layer times are raw seconds.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Failed operations
are listed on standard error by workload and label.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per run; the median is reported as ``setup_s``.
SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "throughput_qps": "1/s",
    "latency_geomean_ms": "ms",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "miss_latency_p50_ms": "ms",
    "miss_latency_p90_ms": "ms",
}

#: Per-layer metric -> unit.  Every workload reports all of them; a layer
#: a workload bypasses reads 0 there.
PER_LAYER_UNITS = {
    "lang.parse_s": "s",
    "lang.validate_s": "s",
    "core.api_self_s": "s",
    "core.bisim_s": "s",
    "core.race_mso_s": "s",
    "core.conflict_mso_s": "s",
    "core.replay_s": "s",
    "core.witness_s": "s",
    "mso.compile_s": "s",
    "automata.explore_s": "s",
    "automata.reached_total": "count",
    "automata.pruned_share": "ratio",
    "bdd.nodes": "count",
    "bdd.cache_hit_ratio": "ratio",
    "solver.conj_cache_hit_ratio": "ratio",
    "solver.queries": "count",
    "trees.lcrs_s": "s",
    "interp.run_s": "s",
    "interp.events": "count",
    "interp.events_per_s": "1/s",
    "interp.races_s": "s",
    "engine.solve_ms_p50": "ms",
    "service.overhead_ms_p50": "ms",
    "service.hit_latency_ms_p50": "ms",
    "service.hit_share": "ratio",
    "service.coalesced": "count",
    "service.retries": "count",
    "service.failed": "count",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_share": "ratio",
}


def workloads():
    from daemon_mix import DaemonMix
    from interp_trees import InterpTrees
    from table1_mso import Table1Mso

    return {w.name: w for w in (Table1Mso, InterpTrees, DaemonMix)}


def build() -> None:
    """Byte-compile the program and the benchmark (the Python "build").

    Imports then read bytecode whether or not the environment lets the
    interpreter write it (``PYTHONDONTWRITEBYTECODE``), so set-up and the
    daemon's per-query worker processes cost the same in every checkout.
    """
    for tree in (SRC, HERE):
        if not compileall.compile_dir(str(tree), quiet=1):
            raise SystemExit(f"error: byte-compiling {tree} failed")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)  # one timed set-up, then exit
    return ap.parse_args(argv)


def setup_samples(args) -> list:
    """Time the workload's set-up in fresh processes (imports included),
    in reference seconds."""
    times = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--setup-probe"],
            capture_output=True, text=True, timeout=120,
        )
        if out.returncode != 0:
            raise RuntimeError(f"set-up failed: {out.stderr.strip()}")
        times.append(float(out.stdout.split()[-1]))
    return times


def pass_count(wl, seconds: float) -> int:
    """``--seconds`` as a fixed number of passes, so a run's work never
    depends on timing."""
    return max(1, round(seconds / wl.nominal_pass_s))


@dataclass
class Pass:
    """One pass: raw wall and CPU seconds, the same in reference seconds
    (``speed.py``), and its operations."""

    wall_raw: float
    wall: float
    cpu: float
    ops: list


def run_passes(wl, first: int, count: int):
    """Run ``count`` passes, timing each."""
    import speed

    out = []
    for index in range(first, first + count):
        cpu0, t0 = wl.cpu_s(), time.perf_counter()
        ops = wl.run_pass(index)
        t1, cpu = time.perf_counter(), wl.cpu_s() - cpu0
        out.append(Pass(t1 - t0, speed.scaled(t0, t1),
                        speed.scaled(t0, t1, cpu, cpu=True), ops))
    return out


def end_to_end(passes, setup_s: float) -> dict:
    from common import geomean, peak_rss_mb, percentile
    from speed import scaled

    ops = [op for p in passes for op in p.ops if op.ok]
    ms = [1000 * scaled(op.start, op.start + op.latency_s) for op in ops]
    lat = [m for op, m in zip(ops, ms) if op.percentile]
    miss = [m for op, m in zip(ops, ms)
            if op.percentile and op.cls == "miss"]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": peak_rss_mb(),
        "throughput_qps": statistics.median(len(p.ops) / p.wall
                                            for p in passes),
        "latency_geomean_ms": geomean(ms),
        "latency_p50_ms": percentile(lat, 50),
        "latency_p90_ms": percentile(lat, 90),
        "miss_latency_p50_ms": percentile(miss, 50),
        "miss_latency_p90_ms": percentile(miss, 90),
    }


def traced_passes(wl, count: int, untraced_wall: float):
    """``count`` passes with span wrappers installed; returns (passes,
    per-layer metrics)."""
    from common import ratio
    from spans import SpanRecorder

    rec = SpanRecorder()
    for target, name, *counter in wl.trace_targets():
        rec.wrap(target, name, *counter)
    try:
        passes = run_passes(wl, count, count)
    finally:
        rec.uninstall()
    wall = statistics.median(p.wall for p in passes)
    ops = [op for p in passes for op in p.ops]
    total, own, counts = rec.total_s(), rec.self_s(), rec.counts()
    metrics = {f"{name}_s": secs for name, secs in total.items()
               if name != "core.api"}
    metrics["core.api_self_s"] = own.get("core.api", 0.0)
    metrics["interp.events"] = counts.get("interp.run", 0)
    metrics["interp.events_per_s"] = ratio(metrics["interp.events"],
                                           total.get("interp.run", 0.0))
    metrics["trace.overhead_ratio"] = wall / untraced_wall
    # Spans hold raw seconds, so coverage compares them with raw wall.
    metrics["trace.coverage_share"] = rec.root_s() / (
        sum(p.wall_raw for p in passes) * wl.threads)
    metrics.update(wl.layer_metrics(ops))
    return passes, metrics


def run(args) -> dict:
    import speed

    wl = workloads()[args.workload]()
    count = pass_count(wl, args.seconds)
    if wl.setup_in_fresh_process:
        setup = setup_samples(args)
        wl.prepare(args.seed, count)
    speed.start(probe=wl.speed_probe)
    try:
        if not wl.setup_in_fresh_process:
            setup = wl.start(args.seed, SETUP_SAMPLES)
        checks = wl.verify()
        # Collect set-up garbage now, not inside the first timed query.
        gc.collect()
        passes = run_passes(wl, 0, count)
        if args.trace:
            traced, layers = traced_passes(
                wl, count, statistics.median(p.wall for p in passes))
            passes += traced
        speed.stop()
        checks += wl.final_checks()
        if args.trace:
            layers.update(wl.final_layer_metrics())
    finally:
        speed.stop()
        wl.close()

    ops = checks + [op for p in passes for op in p.ops]
    failed = [op for op in ops if not op.ok]
    for op in failed:
        print(f"{wl.name}: failed {op.label}: {op.error}", file=sys.stderr)
    if args.trace:
        values = {name: layers.get(name, 0) for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    elif not any(op.ok and op.percentile and op.cls == "miss"
                 for op in ops):
        values, units = {}, {}  # no query succeeded: no latency to report
    else:
        values = end_to_end(passes, statistics.median(setup))
        units = END_TO_END_UNITS
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in values},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    known = workloads()
    if args.workload not in known:
        print(f"error: unknown workload {args.workload!r} (known: "
              f"{', '.join(sorted(known))})", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.setup_probe:
        import speed

        wl = known[args.workload]()
        speed.start(probe=wl.speed_probe)
        t0 = time.perf_counter()
        wl.prepare(args.seed, pass_count(wl, args.seconds))
        gc.collect()
        took = speed.seconds_since(t0)
        speed.stop()
        print(took)
        return 0
    build()
    try:
        result = run(args)
    except Exception as e:  # set-up or teardown broke: no result to report
        print(f"{args.workload}: failed: {type(e).__name__}: {e}",
              file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
