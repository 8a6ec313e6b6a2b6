"""Persisted corpus of minimal reproducers.

Every mismatch the fuzz loop finds is shrunk and written to a corpus
directory (``tests/corpus/`` in this repository) as one JSON file per
entry.  The corpus is re-run as regression tests: each entry goes back
through the oracle and must produce zero mismatches, so a fixed bug
stays fixed and an open reproducer keeps CI red until it is.

Entry schema (all unknown keys are preserved on round-trip)::

    {
      "name":        "racy-parallel-write",
      "kind":        "race" | "equiv",
      "description": "why this entry exists",
      "origin":      "hand-seeded" | "fuzz --seed N",
      "max_internal": 2,
      "source":      "<retreet program>",
      "source2":     null | "<retreet program>",
      "correspondence": {optional equiv non-call mapping overrides,
                         sid -> [sids], for merged/renamed fused blocks},
      "oracle":      {optional OracleConfig overrides},
      "isolation":   null | "process",
      "limits":      {optional worker rlimits: wall_s, cpu_s, mem_bytes},
      "expect":      {"mismatches": 0,
                      optional "mismatch_kinds": ["engine-error", ...],
                      optional "symbolic_status": "...",
                      optional "bounded_found": true|false}
    }

``oracle`` overrides let an entry pin engine limits — e.g. the T1.3
regression pins ``product_budget`` and asserts the raw symbolic status
is ``"budget"``, keeping PR 2's deadline-vs-budget taxonomy honest.
``isolation: "process"`` runs the entry's oracle evaluation in a
sandboxed worker child under the entry's ``limits`` (DESIGN.md §9) — a
child that blows its rlimits or crashes becomes a deterministic
``engine-error`` mismatch, which is how the crash-reproducer entry
exercises that path forever.

To reproduce a fuzz entry from its seed, see the ``origin`` field:
``repro fuzz --seed N`` regenerates the exact pre-shrink query stream.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional

from .oracle import Case, CaseResult, Mismatch, OracleConfig, run_case

__all__ = ["CorpusEntry", "load_corpus", "save_entry", "run_entry"]

#: OracleConfig fields an entry may override.
_ORACLE_KEYS = (
    "sym_deadline_s",
    "det_budget",
    "product_budget",
    "run_symbolic",
    "schedule_cap",
)


@dataclass
class CorpusEntry:
    name: str
    case: Case
    description: str = ""
    origin: str = ""
    oracle_overrides: Dict[str, object] = None
    expect: Dict[str, object] = None
    isolation: Optional[str] = None
    limits: Dict[str, object] = None
    path: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.oracle_overrides is None:
            self.oracle_overrides = {}
        if self.expect is None:
            self.expect = {"mismatches": 0}
        if self.limits is None:
            self.limits = {}

    def config(self, base: OracleConfig = OracleConfig()) -> OracleConfig:
        kw = {
            k: v for k, v in self.oracle_overrides.items()
            if k in _ORACLE_KEYS
        }
        return replace(base, **kw) if kw else base


def _entry_from_dict(data: Dict[str, object], path: Optional[Path]) -> CorpusEntry:
    case = Case(
        kind=data["kind"],
        source=data["source"],
        source2=data.get("source2"),
        max_internal=int(data.get("max_internal", 2)),
        seed=data.get("seed"),
        name=data.get("name", path.stem if path else "corpus"),
        correspondence=data.get("correspondence"),
    )
    return CorpusEntry(
        name=data.get("name", case.name),
        case=case,
        description=data.get("description", ""),
        origin=data.get("origin", ""),
        oracle_overrides=dict(data.get("oracle", {})),
        expect=dict(data.get("expect", {"mismatches": 0})),
        isolation=data.get("isolation"),
        limits=dict(data.get("limits", {})),
        path=path,
    )


def load_corpus(corpus_dir: Path) -> List[CorpusEntry]:
    """All entries in the directory, sorted by file name."""
    corpus_dir = Path(corpus_dir)
    entries = []
    if not corpus_dir.is_dir():
        return entries
    for p in sorted(corpus_dir.glob("*.json")):
        entries.append(_entry_from_dict(json.loads(p.read_text()), p))
    return entries


def _slug(text: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-") or "entry"


def save_entry(
    corpus_dir: Path,
    case: Case,
    mismatches: List[Mismatch],
    origin: str,
    description: str = "",
    oracle_overrides: Optional[Dict[str, object]] = None,
) -> Path:
    """Persist a (shrunk) reproducer; returns the written path."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    base = _slug(f"{case.kind}-{mismatches[0].kind if mismatches else 'case'}")
    path = corpus_dir / f"{base}.json"
    n = 1
    while path.exists():
        n += 1
        path = corpus_dir / f"{base}-{n}.json"
    data = {
        "name": path.stem,
        "kind": case.kind,
        "description": description or (
            "fuzz-found mismatch: "
            + "; ".join(str(m) for m in mismatches)
        ),
        "origin": origin,
        "max_internal": case.max_internal,
        "seed": case.seed,
        "source": case.source,
        "source2": case.source2,
        "expect": {"mismatches": 0},
    }
    if case.correspondence is not None:
        data["correspondence"] = {
            k: list(vs) for k, vs in case.correspondence
        }
    if oracle_overrides:
        data["oracle"] = dict(oracle_overrides)
    path.write_text(json.dumps(data, indent=2) + "\n")
    return path


def run_entry(
    entry: CorpusEntry, base: OracleConfig = OracleConfig()
) -> CaseResult:
    """Run one corpus entry through the oracle with its overrides.

    Entries marked ``isolation: "process"`` evaluate in a sandboxed
    worker child under the entry's ``limits``.  Corpus entries are
    deterministic reproducers, so the worker runs single-shot — a
    retry of a deterministic rlimit crash would only re-crash.
    """
    if entry.isolation == "process":
        from ..service import RetryPolicy, WorkerLimits, run_case_isolated

        return run_case_isolated(
            entry.case,
            entry.config(base),
            limits=WorkerLimits.from_dict(entry.limits),
            policy=RetryPolicy(max_attempts=1),
        )
    return run_case(entry.case, entry.config(base))
