"""Correctness checks on kidex outputs, written without importing kidex.

The checks read the gold files a generated corpus carries and compare the
command outputs against them document by document, so a failure counts
against the documents it touches. They use only the file formats the
README documents, so a change inside ``src/kidex`` cannot change what they
accept.
"""
from __future__ import annotations

import csv
import hashlib
import json
import re
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

TABLE_TYPES = ("performance_scenarios", "costs_evolution", "costs_composition")
FIELD_COUNT = 8

_WS_RE = re.compile(r"\s+")


def _norm_value(value: str) -> str:
    return _WS_RE.sub(" ", value).strip()


def _canon(value):
    """Record values with decimal strings read as Decimals, so 1.50 == 1.5."""
    if isinstance(value, dict):
        return {k: _canon(v) for k, v in value.items()}
    if isinstance(value, str):
        return Decimal(value)
    return value


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()]


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_sha256(root: Path) -> str:
    """Digest of every file under ``root`` but bytecode caches: paths and contents."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(file_sha256(path).encode() + b"\n")
    return digest.hexdigest()


@dataclass(frozen=True)
class Expected:
    """What a correct run over one generated corpus must produce."""
    doc_ids: tuple[str, ...]
    fields: dict            # doc_id -> frozenset of (field, value)
    tables: dict            # (doc_id, type) -> canonical gold record
    dropped: frozenset      # (doc_id, type) pairs whose anchor headers were dropped

    @classmethod
    def load(cls, gold_dir: Path) -> "Expected":
        fields: dict = {}
        for row in _jsonl(gold_dir / "fields.jsonl"):
            fields.setdefault(row["doc_id"], set()).add((row["field"], _norm_value(row["value"])))
        tables = {(row["doc_id"], row["type"]): _canon(row["record"])
                  for row in _jsonl(gold_dir / "tables.jsonl")}
        noise = json.loads((gold_dir / "noise.json").read_text(encoding="utf-8"))
        dropped = frozenset((doc_id, ttype) for doc_id, ttype in noise["dropped_headers"])
        doc_ids = tuple(sorted({doc_id for doc_id, _ in tables}))
        return cls(doc_ids, {k: frozenset(v) for k, v in fields.items()}, tables, dropped)

    def dropped_count(self, ttype: str) -> int:
        return sum(1 for _, t in self.dropped if t == ttype)


def failed_field_docs(fields_csv: Path, exp: Expected) -> set[str]:
    """Documents whose extracted (field, value) set differs from gold."""
    got: dict = {}
    with fields_csv.open(encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            got.setdefault(row["doc_id"], set()).add((row["field"], _norm_value(row["value"])))
    return {doc_id for doc_id in exp.doc_ids
            if got.get(doc_id, set()) != exp.fields.get(doc_id, frozenset())}


def failed_table_docs(tables_jsonl: Path, exp: Expected) -> set[str]:
    """Documents with a table row that is not what gold and the noise log predict.

    A (doc, type) pair whose anchor headers were dropped must come out
    missing; every other pair must come out extracted and equal to gold.
    """
    rows: dict = {}
    for row in _jsonl(tables_jsonl):
        rows.setdefault((row["doc_id"], row["type"]), []).append(row)
    failed = set()
    for doc_id in exp.doc_ids:
        for ttype in TABLE_TYPES:
            found = rows.get((doc_id, ttype), [])
            if len(found) != 1:
                failed.add(doc_id)
                continue
            row = found[0]
            if (doc_id, ttype) in exp.dropped:
                ok = row["status"] == "missing" and row["record"] is None
            else:
                ok = (row["status"] == "extracted" and row["record"] is not None
                      and _canon(row["record"]) == exp.tables[(doc_id, ttype)])
            if not ok:
                failed.add(doc_id)
    if len(rows) != len(exp.doc_ids) * len(TABLE_TYPES):
        failed.update(exp.doc_ids)  # rows for unknown documents or types
    return failed


def report_problems(report_json: Path, exp: Expected) -> list[str]:
    """Ways the eval report differs from a perfect score on this corpus.

    Every field must score P = R = F = 1 with no false positives or
    negatives. Per table type, Missing must equal the dropped-header count
    from the noise log, Incorrect must be 0 and the rest Extracted.
    """
    report = json.loads(report_json.read_text(encoding="utf-8"))
    problems = []
    fields = report.get("fields", {})
    if len(fields) != FIELD_COUNT:
        problems.append(f"{len(fields)} fields scored, expected {FIELD_COUNT}")
    for name, score in sorted(fields.items()):
        if (score["fp"] or score["fn"] or not score["tp"]
                or score["precision"] != 1.0 or score["recall"] != 1.0
                or score["f_measure"] != 1.0):
            problems.append(f"field {name}: {score}")
    n = len(exp.doc_ids)
    for ttype in TABLE_TYPES:
        missing = exp.dropped_count(ttype)
        want = {"extracted": n - missing, "incorrect": 0, "missing": missing}
        got = report.get("tables", {}).get(ttype)
        if got != want:
            problems.append(f"table {ttype}: {got}, expected {want}")
    return problems
