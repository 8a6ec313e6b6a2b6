"""Resumable batch runs: ``repro batch manifest.json``.

A **manifest** is a JSON file describing the tasks of one batch::

    {
      "defaults": {"options": {"max_internal": 3}, "limits": {"wall_s": 60}},
      "tasks": [
        {"name": "t1", "kind": "check-race", "source": "Main(n) {...}"},
        {"name": "t2", "kind": "check-race", "file": "prog.retreet"},
        {"name": "t3", "kind": "check-fusion",
         "file": "a.retreet", "file2": "b.retreet",
         "map_overrides": {"s1": ["s1", "s2"]}},
        {"name": "f1", "kind": "fuzz-case",
         "case": {"kind": "race", "source": "...", "max_internal": 2},
         "oracle": {"sym_deadline_s": 5}}
      ]
    }

``file``/``file2`` paths resolve relative to the manifest; sources are
inlined at load time so the *run directory* is self-contained.  A run
directory holds:

* ``manifest.json`` + ``meta.json`` — the resolved manifest and its
  hash (``--resume`` refuses a different manifest);
* ``cache.sqlite`` — the one durable store
  (:class:`repro.service.sharedcache.SharedCache`, checksummed rows,
  corrupt rows quarantined): each finished task's result under its task
  key, plus each decided verdict under its query key, reusable by any
  later run pointed at the same directory;
* ``results.json`` — the **deterministic verdict set**: one record per
  task (name, kind, key, verdict, holds, ok), byte-identical between an
  uninterrupted run and a ``kill -9``'d run resumed with ``--resume``;
* ``report.json`` — timings, attempts, and worker diagnostics (not
  required to be reproducible).

The task-keyed row is the resume index: it is committed (WAL,
``synchronous=FULL``) as each task finishes, and ``--resume RUN_DIR``
counts a task done iff that row reads back and verifies against its
checksum; everything else is recomputed, so completed work survives any
crash of the *driver* as well as of the workers.  Failed tasks (crashes
that exhausted their retry budget) never get a row, so a resume gives
them a fresh chance.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace as dc_replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from .protocol import (
    WorkerLimits,
    Task,
    canonical_json,
    payload_digest,
    task_key,
)
from .supervisor import RetryPolicy, SupervisedResult, Supervisor
from .worker import (
    WorkerOutcome,
    lookup_verdict,
    store_verdict,
    task_for_fusion,
    task_for_race,
)

__all__ = ["BatchError", "BatchReport", "load_manifest", "run_batch"]


class BatchError(ValueError):
    """A malformed manifest or an unusable run directory (a *usage*
    error — the CLI maps it to exit code 2)."""


# ----------------------------------------------------------------------
# Manifest loading


def _read_source(entry: Dict[str, Any], key: str, base: Path, name: str) -> str:
    fkey = "file" if key == "source" else "file2"
    inline = entry.get(key)
    if inline is not None:
        return inline
    fname = entry.get(fkey)
    if fname is None:
        raise BatchError(f"task {name!r} needs {key!r} or {fkey!r}")
    path = (base / fname).resolve()
    try:
        return path.read_text(encoding="utf-8")
    except OSError as e:
        raise BatchError(f"task {name!r}: cannot read {path}: {e}") from e


def _object(value: Any, what: str) -> Dict[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise BatchError(
            f"{what} must be a JSON object, not {type(value).__name__}"
        )
    return value


def _merged(
    defaults: Dict[str, Any], entry: Dict[str, Any], key: str, name: str
) -> Dict[str, Any]:
    return {
        **_object(defaults.get(key), f"defaults {key!r}"),
        **_object(entry.get(key), f"task {name!r}: {key!r}"),
    }


def _map_overrides(
    entry: Dict[str, Any], name: str
) -> Optional[Dict[str, List[str]]]:
    overrides = entry.get("map_overrides")
    if overrides is not None and not (
        isinstance(overrides, dict)
        and all(
            isinstance(v, list) and all(isinstance(s, str) for s in v)
            for v in overrides.values()
        )
    ):
        raise BatchError(
            f"task {name!r}: 'map_overrides' must map block ids to lists "
            "of block ids"
        )
    return overrides


def load_manifest(path: Path) -> List[Task]:
    """Parse a manifest into fully-resolved (source-inlined) tasks."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as e:
        raise BatchError(f"cannot read manifest {path}: {e}") from e
    except ValueError as e:
        raise BatchError(f"manifest {path} is not JSON: {e}") from e
    if not isinstance(data, dict) or not isinstance(data.get("tasks"), list):
        raise BatchError(f"manifest {path} needs a top-level 'tasks' list")
    defaults = _object(data.get("defaults"), "manifest 'defaults'")
    base = path.parent
    tasks: List[Task] = []
    seen_names = set()
    for i, entry in enumerate(data["tasks"]):
        entry = _object(entry, f"manifest task #{i}")
        name = entry.get("name") or f"task-{i}"
        if name in seen_names:
            raise BatchError(f"duplicate task name {name!r} in manifest")
        seen_names.add(name)
        kind = entry.get("kind")
        options = _merged(defaults, entry, "options", name)
        try:
            limits = WorkerLimits.from_dict(
                _merged(defaults, entry, "limits", name)
            )
        except ValueError as e:
            raise BatchError(f"task {name!r}: {e}") from e
        if kind == "check-race":
            tasks.append(task_for_race(
                source=_read_source(entry, "source", base, name),
                entry=entry.get("entry", "Main"),
                options=options,
                limits=limits,
                name=name,
            ))
        elif kind == "check-fusion":
            task = task_for_fusion(
                source=_read_source(entry, "source", base, name),
                source2=_read_source(entry, "source2", base, name),
                entry=entry.get("entry", "Main"),
                options=options,
                map_overrides=_map_overrides(entry, name),
                limits=limits,
                name=name,
                name2=entry.get("name2", f"{name}-fused"),
            )
            tasks.append(dc_replace(task, name=name))
        elif kind == "fuzz-case":
            case = dict(_object(entry.get("case"), f"task {name!r}: 'case'"))
            if "source" not in case and "kind" not in case:
                raise BatchError(f"task {name!r}: fuzz-case needs a 'case'")
            case.setdefault("name", name)
            payload: Dict[str, Any] = {"case": case}
            oracle = _merged(defaults, entry, "oracle", name)
            if oracle:
                payload["oracle"] = oracle
            tasks.append(Task(
                kind="fuzz-case", payload=payload, name=name, limits=limits,
            ))
        else:
            raise BatchError(
                f"task {name!r}: unknown kind {kind!r} "
                "(want check-race | check-fusion | fuzz-case)"
            )
    if not tasks:
        raise BatchError(f"manifest {path} has no tasks")
    return tasks


# ----------------------------------------------------------------------
# Verdict extraction


def _task_verdict(res: SupervisedResult) -> Dict[str, Any]:
    """The deterministic per-task record that lands in results.json."""
    out: Dict[str, Any] = {
        "name": res.task.name,
        "kind": res.task.kind,
        "key": res.key,
    }
    if res.final.status == "ok":
        value = res.final.value or {}
        if res.task.kind == "fuzz-case":
            mismatches = value.get("mismatches") or []
            out["verdict"] = "conformant" if not mismatches else "mismatch"
            out["holds"] = not mismatches
            out["mismatch_kinds"] = sorted({m["kind"] for m in mismatches})
        else:
            out["verdict"] = value.get("verdict", "unknown")
            out["holds"] = bool(value.get("holds"))
        out["ok"] = True
    else:
        out["verdict"] = "unknown"
        out["holds"] = False
        out["ok"] = False
        out["outcome_class"] = res.final.outcome_class
    return out


def _settled(task: Task, key: str, value: Dict[str, Any]) -> SupervisedResult:
    """A task answered without a worker: resumed from its task row or
    reused from the result cache."""
    return SupervisedResult(
        task=task,
        key=key,
        final=WorkerOutcome(status="ok", value=value),
        attempts=[],
    )


# ----------------------------------------------------------------------
# The batch runner


@dataclass
class BatchReport:
    run_dir: Path
    total: int = 0
    resumed: int = 0
    ran: int = 0
    violations: int = 0
    unknown: int = 0
    failed: int = 0
    breaker_open: bool = False
    results: List[Dict[str, Any]] = field(default_factory=list)
    quarantined: int = 0
    cache_hits: int = 0
    cache: Dict[str, int] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def exit_code(self) -> int:
        """Uniform CLI codes: 0 ok / 1 violation / 2 error / 3 unknown."""
        if self.failed:
            return 2
        if self.violations:
            return 1
        if self.unknown:
            return 3
        return 0

    def summary(self) -> str:
        lines = [
            f"batch: {self.total} task(s) — {self.resumed} resumed, "
            f"{self.ran} computed, in {self.elapsed:.1f}s"
        ]
        for r in self.results:
            lines.append(f"  {r['name']}: {r['verdict']}"
                         + ("" if r.get("ok") else " (worker failed)"))
        if self.failed:
            lines.append(f"  {self.failed} task(s) failed irrecoverably")
        if self.violations:
            lines.append(f"  {self.violations} violation(s) found")
        if self.unknown:
            lines.append(f"  {self.unknown} task(s) undecided")
        if self.breaker_open:
            lines.append(
                "  circuit breaker OPEN: symbolic workers crashed "
                "repeatedly; later tasks ran bounded-only"
            )
        if self.quarantined:
            lines.append(
                f"  {self.quarantined} corrupt cache row(s) quarantined "
                "and recomputed"
            )
        if self.cache_hits:
            lines.append(
                f"  {self.cache_hits} verdict(s) reused from the result "
                "cache"
            )
        return "\n".join(lines)


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + f".tmp.{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _manifest_fingerprint(tasks: List[Task]) -> str:
    return payload_digest([t.to_dict() for t in tasks])


def run_batch(
    manifest_path: Path,
    run_dir: Path,
    jobs: int = 1,
    isolation: str = "process",
    resume: bool = False,
    policy: Optional[RetryPolicy] = None,
    log: Optional[Callable[[str], None]] = None,
) -> BatchReport:
    """Run (or resume) a batch; see the module docstring for layout."""
    t0 = time.perf_counter()
    say = log or (lambda _msg: None)
    tasks = load_manifest(manifest_path)
    fingerprint = _manifest_fingerprint(tasks)

    run_dir = Path(run_dir)
    meta_path = run_dir / "meta.json"
    if resume:
        if not meta_path.exists():
            raise BatchError(
                f"--resume: {run_dir} is not a batch run directory "
                "(no meta.json)"
            )
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if meta.get("manifest_sha256") != fingerprint:
            raise BatchError(
                "--resume: manifest does not match the one this run "
                "directory was created from"
            )
    else:
        run_dir.mkdir(parents=True, exist_ok=True)
        if meta_path.exists():
            raise BatchError(
                f"{run_dir} already holds a batch run; pass --resume to "
                "continue it or choose a fresh --run-dir"
            )
        _atomic_write(
            run_dir / "manifest.json",
            json.dumps(
                [t.to_dict() for t in tasks], sort_keys=True, indent=1
            ) + "\n",
        )
        _atomic_write(
            meta_path,
            canonical_json({"manifest_sha256": fingerprint, "version": 1})
            + "\n",
        )

    from ..engine import ResultCache

    # One durable store, run_dir/cache.sqlite, holds two kinds of row:
    # task-keyed resume records (the resume index) and query-keyed
    # verdicts, which any later run pointed at the same directory reuses
    # under the cache's reuse rules (engine.cache).
    cache = ResultCache(run_dir)
    try:
        # A task is done iff its checksummed row verifies; a missing or
        # corrupt (quarantined) row is recomputed.
        done: Dict[str, SupervisedResult] = {}
        if resume:
            for task in tasks:
                key = task_key(task)
                value = cache.task_result(key)
                if value is not None:
                    done[key] = _settled(task, key, value)

        pending = [t for t in tasks if task_key(t) not in done]
        say(
            f"batch: {len(tasks)} task(s), {len(done)} already done, "
            f"{len(pending)} to run (isolation={isolation}, jobs={jobs})"
        )
        supervisor = Supervisor(policy=policy, isolation=isolation)
        queries: Dict[str, Any] = {}
        computed: Dict[str, SupervisedResult] = {}
        cached: Dict[str, SupervisedResult] = {}

        def on_result(res: SupervisedResult) -> None:
            if res.ok:
                value = res.final.value or {}
                row = None if res.key in cached else store_verdict(
                    cache, res.task, res.key, queries.get(res.key), value
                )
                if row != res.key:  # the task's resume row
                    cache.store_task(res.key, res.task.kind, value)
            computed[res.key] = res
            say(f"  {res.task.name}: "
                + (_task_verdict(res)["verdict"] if res.ok
                   else f"FAILED ({res.final.describe()})"))

        for t in pending:
            key = task_key(t)
            hit, queries[key] = lookup_verdict(cache, t, key)
            if hit is None:
                continue
            cached[key] = _settled(t, key, hit)
            on_result(cached[key])
        pending = [t for t in pending if task_key(t) not in cached]

        supervisor.map(pending, jobs=jobs, on_result=on_result)
    finally:
        cache.shared.close()

    report = BatchReport(run_dir=run_dir)
    report.total = len(tasks)
    report.resumed = len(done)
    report.ran = len(computed) - len(cached)
    report.cache_hits = len(cached)
    report.cache = cache.stats.as_dict()
    report.breaker_open = supervisor.breaker.open
    report.quarantined = len(cache.shared.quarantined)

    attempts_out: Dict[str, Any] = {}
    for task in tasks:
        key = task_key(task)
        res = done.get(key) or computed.get(key)
        assert res is not None
        verdict = _task_verdict(res)
        report.results.append(verdict)
        if not verdict["ok"]:
            report.failed += 1
        elif verdict["verdict"] == "unknown":
            report.unknown += 1
        elif not verdict["holds"]:
            report.violations += 1
        attempts_out[task.name] = {
            "resumed": key in done,
            "attempts": res.attempts,
            "retries": res.retries,
            "degraded": res.degraded,
            "elapsed": round(res.final.elapsed, 6),
            "status": res.final.status,
        }

    report.elapsed = time.perf_counter() - t0
    _atomic_write(
        run_dir / "results.json",
        json.dumps(report.results, sort_keys=True, indent=1) + "\n",
    )
    _atomic_write(
        run_dir / "report.json",
        json.dumps(
            {
                "total": report.total,
                "resumed": report.resumed,
                "ran": report.ran,
                "failed": report.failed,
                "violations": report.violations,
                "unknown": report.unknown,
                "breaker_open": report.breaker_open,
                **supervisor.health(),
                "quarantined": report.quarantined,
                "cache_hits": report.cache_hits,
                "cache": report.cache,
                "elapsed": round(report.elapsed, 3),
                "tasks": attempts_out,
            },
            sort_keys=True,
            indent=1,
        ) + "\n",
    )
    return report
