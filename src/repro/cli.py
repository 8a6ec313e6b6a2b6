"""Command-line interface: ``python -m repro <command> …``.

Commands:

* ``check-race FILE`` — parse a ``.retreet`` program and decide
  data-race-freeness; ``--on-tree SPEC`` checks concrete (binary or
  any-arity) input trees through the dynamic engine instead, reporting
  n-ary witnesses in child coordinates;
* ``check-fusion ORIGINAL FUSED`` — decide equivalence of two programs
  under a block correspondence (derived by structural key matching, with
  ``--map sP=sQ1,sQ2`` overrides);
* ``run FILE`` — execute a program on a generated tree and print the
  result;
* ``blocks FILE`` — print the numbered block table (the paper's s0..sn);
* ``fuzz`` — seeded differential conformance fuzzing: generated queries
  run through all three engines, witnesses replayed, mismatches shrunk
  to minimal reproducers in a corpus directory;
* ``batch MANIFEST`` — a durable, resumable batch of solves over a
  supervised pool of crash-isolated worker processes (DESIGN.md §9);
  ``--resume RUN_DIR`` continues a run killed mid-way, recomputing only
  tasks without a committed result row;
* ``serve RUN_DIR`` — the long-lived multi-tenant solve daemon
  (DESIGN.md §11): admission control, per-client quotas, fair
  scheduling, and a shared crash-safe sqlite cache tier;
  ``--status`` / ``--stop`` talk to a running daemon;
* ``client FILE [--fused FILE2]`` — submit one query to a running
  daemon and report like ``check-race`` / ``check-fusion``.

Exit codes are uniform across every subcommand:

====  =====================================================
code  meaning
====  =====================================================
0     the property holds / no mismatch / batch clean
1     a violation was found (race, non-equivalence, mismatch)
2     usage or environment error (bad flags, unreadable or
      unparseable input, broken manifest, worker failure,
      unreachable daemon)
3     undecided: every engine rung exhausted its limits
4     daemon overloaded (queue full / quota / shed /
      draining); stderr carries a retry-after hint
130   interrupted (SIGINT); finished batch tasks are kept
====  =====================================================

``--deadline``, ``--det-budget`` and ``--max-internal`` tune the engine
limits; ``--isolation process`` sandboxes each solve in a killable
child process.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path
from typing import Dict, Set

from .core.api import check_data_race, check_equivalence
from .core.transform import correspondence_by_key
from .engine import Limits
from .interp import run as interp_run
from .lang import BlockTable, parse_program, validate
from .runtime import ReproError
from .trees.generators import (
    full_tree,
    nary_chain,
    nary_full_tree,
    random_nary_tree,
    random_tree,
)
from .trees.nary import as_binary, is_nary

#: --tree / --on-tree specs.  ``full``/``random`` build engine-native
#: binary trees; the ``n*`` specs build any-arity trees that enter the
#: engines through the LCRS encoding (witnesses come back in n-ary
#: child coordinates).
TREE_SPECS = (
    "full:<h> | random:<n>[:<seed>] | nchain:<len> | nfull:<depth>:<arity> "
    "| nrandom:<n>[:<seed>[:<max_children>]]"
)


def _tree_from_spec(spec: str):
    """Build a tree (binary ``Tree`` or any-arity ``NaryNode``) from a
    CLI spec string; raises ``ValueError`` on a malformed spec."""
    parts = spec.split(":")
    try:
        if parts[0] == "full" and len(parts) == 2:
            return full_tree(int(parts[1]))
        if parts[0] == "random" and len(parts) in (2, 3):
            seed = int(parts[2]) if len(parts) > 2 else 0
            return random_tree(int(parts[1]), seed=seed)
        if parts[0] == "nchain" and len(parts) == 2:
            return nary_chain(int(parts[1]))
        if parts[0] == "nfull" and len(parts) == 3:
            return nary_full_tree(int(parts[1]), int(parts[2]))
        if parts[0] == "nrandom" and len(parts) in (2, 3, 4):
            seed = int(parts[2]) if len(parts) > 2 else 0
            max_children = int(parts[3]) if len(parts) > 3 else 3
            return random_nary_tree(
                int(parts[1]), seed=seed, max_children=max_children
            )
    except (TypeError, ValueError):
        pass
    raise ValueError(f"bad tree spec {spec!r} (want {TREE_SPECS})")

__all__ = ["main"]

#: Uniform exit codes (also documented in README.md).
EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ERROR = 2
EXIT_UNKNOWN = 3
EXIT_OVERLOADED = 4
EXIT_INTERRUPTED = 130


def _load(path: str, entry: str):
    prog = parse_program(
        Path(path).read_text(), name=Path(path).stem, entry=entry
    )
    warnings = validate(prog)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return prog


def _jobs(text: str) -> int:
    """``--jobs`` value: a worker count of at least one."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, not {text!r}"
        )
    return int(text)


def _parse_map(items) -> Dict[str, Set[str]]:
    out: Dict[str, Set[str]] = {}
    for item in items or ():
        lhs, rhs = item.split("=", 1)
        out[lhs.strip()] = {s.strip() for s in rhs.split(",")}
    return out


def main(argv=None) -> int:
    """CLI entry point with the uniform exit-code contract.

    Every error path — unreadable files, parse/validation failures,
    broken manifests, typed solver-runtime errors — exits 2 with a
    one-line message instead of a traceback; SIGINT exits 130 after
    noting that a batch keeps its finished tasks for ``--resume``.
    """
    from .service.scheduler import ServiceOverloaded

    try:
        return _dispatch(argv)
    except KeyboardInterrupt:
        print("interrupted (finished tasks kept for --resume)",
              file=sys.stderr)
        return EXIT_INTERRUPTED
    except ServiceOverloaded as e:
        # Typed admission rejection from the daemon: distinct exit code
        # so callers can back off and retry instead of treating it as a
        # hard error.
        print(
            f"overloaded: {e} (reason: {e.reason}, retry after "
            f"{e.retry_after_s:.2f}s)",
            file=sys.stderr,
        )
        return EXIT_OVERLOADED
    except (ReproError, SyntaxError, ValueError, OSError) as e:
        # Covers ParseError/LexError (SyntaxError), ValidationError and
        # manifest/JSON errors (ValueError), missing files (OSError).
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


#: The solver limits with a CLI flag (DESIGN.md §7).
_LIMIT_FLAGS = [f for f in fields(Limits) if f.metadata["flag"] is not None]


def _dispatch(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    ap.add_argument("--entry", default="Main", help="entry function name")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_resource_flags(parser):
        for f in _LIMIT_FLAGS:
            flag, metavar, text = f.metadata["flag"]
            parser.add_argument(flag, type=f.metadata["kind"], dest=f.name,
                                metavar=metavar, help=text)
        parser.add_argument(
            "--max-internal",
            type=int,
            metavar="N",
            help="bounded-engine scope: trees with up to N internal nodes",
        )

    def add_isolation_flags(parser):
        parser.add_argument(
            "--isolation",
            default="inline",
            choices=["inline", "process"],
            help="run each solve in-process (inline) or in a sandboxed, "
                 "supervised worker child (process)",
        )
        parser.add_argument(
            "--wall-s", type=float, metavar="SECONDS", default=None,
            help="process isolation: wall-clock kill for a worker child",
        )
        parser.add_argument(
            "--cpu-s", type=float, metavar="SECONDS", default=None,
            help="process isolation: RLIMIT_CPU for a worker child",
        )
        parser.add_argument(
            "--mem-mb", type=int, metavar="MB", default=None,
            help="process isolation: RLIMIT_AS for a worker child",
        )

    p_race = sub.add_parser("check-race", help="data-race-freeness (Thm 2)")
    p_race.add_argument("file")
    p_race.add_argument("--engine", default="auto", metavar="SPEC",
                        help="plan or engine name from the registry "
                             "(auto, mso, bounded, ...); unknown names "
                             "exit 2 listing the known ones")
    add_resource_flags(p_race)
    add_isolation_flags(p_race)
    p_race.add_argument(
        "--on-tree", action="append", metavar="SPEC", default=None,
        help="check the program on this concrete input tree instead of "
             f"the scope enumeration (repeatable; {TREE_SPECS}); n-ary "
             "specs report witnesses in n-ary child coordinates",
    )

    p_fuse = sub.add_parser("check-fusion", help="equivalence (Thm 3)")
    p_fuse.add_argument("original")
    p_fuse.add_argument("fused")
    p_fuse.add_argument("--engine", default="auto", metavar="SPEC",
                        help="plan or engine name from the registry "
                             "(auto, mso, bounded, ...); unknown names "
                             "exit 2 listing the known ones")
    add_resource_flags(p_fuse)
    add_isolation_flags(p_fuse)
    p_fuse.add_argument(
        "--map",
        action="append",
        metavar="sP=sQ[,sQ2]",
        help="correspondence override for renamed/merged/split blocks",
    )

    p_run = sub.add_parser("run", help="execute on a generated tree")
    p_run.add_argument("file")
    p_run.add_argument("--tree", default="full:3", help=TREE_SPECS)
    p_run.add_argument("--args", default="",
                       help="comma-separated Int arguments for the entry")

    p_blocks = sub.add_parser("blocks", help="print the block table")
    p_blocks.add_argument("file")

    p_fuzz = sub.add_parser(
        "fuzz", help="differential conformance fuzzing across engines"
    )
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="run seed; the whole case stream is a "
                             "function of it (default 0)")
    p_fuzz.add_argument("--budget-s", type=float, default=30.0,
                        metavar="SECONDS",
                        help="wall-clock budget for the run (default 30)")
    shrink_group = p_fuzz.add_mutually_exclusive_group()
    shrink_group.add_argument("--shrink", dest="shrink",
                              action="store_true", default=True,
                              help="shrink mismatches to minimal "
                                   "reproducers (default)")
    shrink_group.add_argument("--no-shrink", dest="shrink",
                              action="store_false",
                              help="report mismatches unshrunk")
    p_fuzz.add_argument("--corpus", metavar="DIR", default=None,
                        help="directory to persist reproducers to "
                             "(default: no persistence)")
    p_fuzz.add_argument("--max-internal", type=int, default=2, metavar="N",
                        help="tree scope for bounded/interpreter engines")
    p_fuzz.add_argument("--max-cases", type=int, default=None, metavar="K",
                        help="stop after K cases even if budget remains")
    p_fuzz.add_argument("--inject-fault", metavar="PROBE:HIT:ACTION",
                        default=None,
                        help="arm a runtime fault before each symbolic "
                             "run (e.g. bdd.apply:1:corrupt); the oracle "
                             "must catch it as a mismatch")
    p_fuzz.add_argument("--quiet", action="store_true",
                        help="suppress per-case progress lines")
    add_isolation_flags(p_fuzz)

    p_batch = sub.add_parser(
        "batch",
        help="durable, resumable batch of solves over crash-isolated "
             "workers (DESIGN.md §9)",
    )
    p_batch.add_argument("manifest", help="batch manifest (JSON)")
    p_batch.add_argument(
        "--run-dir", metavar="DIR", default=None,
        help="run directory for the result store and results "
             "(default: <manifest-stem>-run next to the manifest)",
    )
    p_batch.add_argument(
        "--resume", metavar="RUN_DIR", default=None,
        help="resume a previous run: skip every task whose result row "
             "verifies and compute only the rest",
    )
    p_batch.add_argument("--jobs", type=_jobs, default=1, metavar="N",
                         help="concurrent worker processes (default 1)")
    p_batch.add_argument(
        "--isolation", default="process", choices=["inline", "process"],
        help="process (default): one sandboxed child per solve; "
             "inline: solve in the driver process (no crash isolation)",
    )
    p_batch.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="retry budget per task for crashed workers (default 2)",
    )
    p_batch.add_argument("--quiet", action="store_true",
                         help="suppress per-task progress lines")

    p_serve = sub.add_parser(
        "serve",
        help="long-lived multi-tenant solve daemon with admission "
             "control, quotas, and a shared crash-safe cache tier "
             "(DESIGN.md §11)",
    )
    p_serve.add_argument("run_dir", help="daemon run directory "
                         "(shared cache, socket, lock)")
    p_serve.add_argument("--socket", metavar="PATH", default=None,
                         help="Unix socket path "
                              "(default: RUN_DIR/daemon.sock)")
    p_serve.add_argument("--jobs", type=_jobs, default=2, metavar="N",
                         help="concurrent solves (default 2)")
    p_serve.add_argument(
        "--isolation", default="process", choices=["inline", "process"],
        help="process (default): one sandboxed child per solve; "
             "inline: solve in the daemon process (no crash isolation)",
    )
    p_serve.add_argument("--retries", type=int, default=2, metavar="N",
                         help="retry budget per task for crashed "
                              "workers (default 2)")
    p_serve.add_argument("--queue-depth", type=int, default=64,
                         metavar="N",
                         help="admission queue bound; beyond it the "
                              "daemon sheds or rejects (default 64)")
    p_serve.add_argument("--client-rate", type=float, default=None,
                         metavar="R",
                         help="per-client quota: R tokens/second "
                              "(default: no quota)")
    p_serve.add_argument("--client-burst", type=float, default=8.0,
                         metavar="B",
                         help="per-client quota burst capacity "
                              "(default 8)")
    p_serve.add_argument("--warm-corpus", metavar="DIR", default=None,
                         help="pre-solve a conformance corpus into the "
                              "shared cache on startup")
    p_serve.add_argument("--status", action="store_true",
                         help="print a running daemon's status as JSON "
                              "and exit")
    p_serve.add_argument("--stop", action="store_true",
                         help="ask a running daemon to drain and exit 0")
    p_serve.add_argument("--quiet", action="store_true",
                         help="suppress daemon progress lines")

    p_client = sub.add_parser(
        "client",
        help="submit one query to a running solve daemon",
    )
    p_client.add_argument("file", help="program to check")
    p_client.add_argument("--fused", metavar="FILE2", default=None,
                          help="check equivalence against FILE2 instead "
                               "of data-race-freeness")
    p_client.add_argument("--run-dir", metavar="DIR", default=None,
                          help="daemon run directory (socket derived "
                               "as DIR/daemon.sock)")
    p_client.add_argument("--socket", metavar="PATH", default=None,
                          help="daemon socket path (overrides --run-dir)")
    p_client.add_argument("--client-id", default="cli", metavar="ID",
                          help="client identity for quotas and fair "
                               "scheduling (default: cli)")
    p_client.add_argument("--priority", type=int, default=5,
                          metavar="0-9",
                          help="admission priority; lower is shed first "
                               "(default 5)")
    p_client.add_argument("--retry", type=int, default=0, metavar="N",
                          help="on overload, honor the daemon's "
                               "retry-after hint up to N times "
                               "(default 0: fail fast with exit 4)")
    p_client.add_argument("--engine", default="auto", metavar="SPEC",
                          help="plan or engine name from the registry")
    p_client.add_argument("--max-internal", type=int, default=None,
                          metavar="N",
                          help="bounded-engine scope")
    p_client.add_argument(
        "--map", action="append", metavar="sP=sQ[,sQ2]",
        help="correspondence override (with --fused)",
    )

    args = ap.parse_args(argv)

    def resource_kwargs():
        # Only forward flags the user actually set; the rest keep the
        # defaults of repro.engine.Limits.
        kw = {
            f.name: getattr(args, f.name)
            for f in _LIMIT_FLAGS
            if getattr(args, f.name) is not None
        }
        if args.max_internal is not None:
            kw["max_internal"] = args.max_internal
        if args.isolation != "inline":
            kw["isolation"] = args.isolation
            if args.wall_s is not None:
                kw["wall_s"] = args.wall_s
            if args.cpu_s is not None:
                kw["cpu_s"] = args.cpu_s
            if args.mem_mb is not None:
                kw["mem_bytes"] = args.mem_mb * 1024 * 1024
        return kw

    def report(res) -> int:
        print(res)
        if res.replay is not None:
            print(f"  replay: {res.replay.detail}")
        if res.verdict == "unknown":
            for a in res.details.get("attempts", ()):
                print(
                    f"  attempt {a['rung']}: {a['outcome']} "
                    f"({a['elapsed']:.3f}s)",
                    file=sys.stderr,
                )
            print("  verdict is unknown: all engine rungs exhausted their "
                  "resource limits", file=sys.stderr)
            return EXIT_UNKNOWN
        return EXIT_OK if res.holds else EXIT_VIOLATION

    if args.cmd == "check-race":
        prog = _load(args.file, args.entry)
        if args.on_tree:
            trees = [_tree_from_spec(s) for s in args.on_tree]
            res = check_data_race(prog, on_trees=trees)
            print(res)
            nary = res.details.get("witness_nary")
            if nary is not None:
                print(
                    f"  witness (n-ary): field {nary['field']!r} at "
                    f"child coordinates {nary['coords']}"
                )
            if res.replay is not None:
                print(f"  replay: {res.replay.detail}")
            return EXIT_OK if res.holds else EXIT_VIOLATION
        res = check_data_race(prog, engine=args.engine, **resource_kwargs())
        return report(res)

    if args.cmd == "check-fusion":
        p = _load(args.original, args.entry)
        q = _load(args.fused, args.entry)
        mapping = correspondence_by_key(
            p, q, overrides=_parse_map(args.map), strict=True
        )
        res = check_equivalence(
            p, q, mapping, engine=args.engine, **resource_kwargs()
        )
        return report(res)

    if args.cmd == "run":
        prog = _load(args.file, args.entry)
        tree = _tree_from_spec(args.tree)
        if is_nary(tree):
            print("tree: any-arity input (entering engines via LCRS)")
            tree = as_binary(tree)
        call_args = [int(a) for a in args.args.split(",") if a.strip()]
        result = interp_run(prog, tree, args=call_args)
        print(f"returns: {result.returns}")
        print(f"iterations: {len(result.trace)}")
        return 0

    if args.cmd == "blocks":
        prog = _load(args.file, args.entry)
        print(BlockTable(prog).summary())
        return 0

    if args.cmd == "fuzz":
        from .conformance import OracleConfig, run_fuzz

        fault = None
        if args.inject_fault is not None:
            parts = args.inject_fault.split(":")
            if len(parts) != 3:
                ap.error(
                    f"bad --inject-fault {args.inject_fault!r} "
                    "(want PROBE:HIT:ACTION)"
                )
            fault = (parts[0], int(parts[1]), parts[2])
        cfg = OracleConfig(fault=fault)
        say = (lambda _msg: None) if args.quiet else (
            lambda msg: print(msg, file=sys.stderr)
        )
        worker_limits = None
        if args.isolation == "process":
            from .service import WorkerLimits

            worker_limits = WorkerLimits(
                wall_s=args.wall_s if args.wall_s is not None else 120.0,
                cpu_s=args.cpu_s,
                mem_bytes=(
                    args.mem_mb * 1024 * 1024
                    if args.mem_mb is not None else None
                ),
            )
        rep = run_fuzz(
            seed=args.seed,
            budget_s=args.budget_s,
            shrink=args.shrink,
            corpus_dir=Path(args.corpus) if args.corpus else None,
            max_internal=args.max_internal,
            max_cases=args.max_cases,
            cfg=cfg,
            log=say,
            isolation=args.isolation if args.isolation != "inline" else None,
            worker_limits=worker_limits,
        )
        print(rep.summary())
        return EXIT_OK if rep.ok else EXIT_VIOLATION

    if args.cmd == "batch":
        from .service import RetryPolicy, run_batch

        resume = args.resume is not None
        if resume:
            run_dir = Path(args.resume)
        elif args.run_dir is not None:
            run_dir = Path(args.run_dir)
        else:
            manifest = Path(args.manifest)
            run_dir = manifest.parent / f"{manifest.stem}-run"
        say = (lambda _msg: None) if args.quiet else (
            lambda msg: print(msg, file=sys.stderr)
        )
        report_b = run_batch(
            Path(args.manifest),
            run_dir,
            jobs=args.jobs,
            isolation=args.isolation,
            resume=resume,
            policy=RetryPolicy(max_attempts=1 + max(0, args.retries)),
            log=say,
        )
        print(report_b.summary())
        print(f"results: {run_dir / 'results.json'}")
        return report_b.exit_code

    if args.cmd == "serve":
        import json as _json

        from .service.client import DaemonClient
        from .service.daemon import DaemonConfig
        from .service.daemon import serve as serve_daemon

        run_dir = Path(args.run_dir)
        socket_path = (
            Path(args.socket) if args.socket else run_dir / "daemon.sock"
        )
        if args.status or args.stop:
            with DaemonClient(socket_path, client_id="cli") as client:
                if args.status:
                    print(_json.dumps(
                        client.status(), indent=1, sort_keys=True
                    ))
                if args.stop:
                    client.shutdown()
                    print("daemon draining", file=sys.stderr)
            return EXIT_OK
        say = (lambda _msg: None) if args.quiet else (
            lambda msg: print(msg, file=sys.stderr)
        )
        config = DaemonConfig(
            socket_path=socket_path,
            jobs=args.jobs,
            isolation=args.isolation,
            retries=args.retries,
            queue_depth=args.queue_depth,
            client_rate=args.client_rate,
            client_burst=args.client_burst,
            warm_corpus=(
                Path(args.warm_corpus) if args.warm_corpus else None
            ),
        )
        return serve_daemon(run_dir, config, log=say)

    if args.cmd == "client":
        from .core.api import _isolated
        from .engine import EquivalenceQuery, RaceQuery

        if args.socket:
            socket_path = Path(args.socket)
        elif args.run_dir:
            socket_path = Path(args.run_dir) / "daemon.sock"
        else:
            ap.error("client needs --run-dir or --socket")
        prog = _load(args.file, args.entry)
        options: Dict[str, object] = {"engine": args.engine, "replay": True}
        if args.max_internal is not None:
            options["max_internal"] = args.max_internal
        if args.fused is not None:
            q = _load(args.fused, args.entry)
            mapping = correspondence_by_key(
                prog, q, overrides=_parse_map(args.map), strict=True
            )
            query = EquivalenceQuery(program=prog, program2=q, mapping=mapping)
        else:
            query = RaceQuery(program=prog)
        res = _isolated(
            query, options, "daemon", socket_path,
            client_id=args.client_id, priority=args.priority,
            retries=args.retry,
        )
        if res.details.get("daemon", {}).get("cached"):
            print("(cached by daemon)", file=sys.stderr)
        return report(res)

    return EXIT_ERROR  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
