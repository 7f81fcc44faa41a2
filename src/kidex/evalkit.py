"""Precision/recall/F evaluation of extracted fields and tables against gold data.

Field credit is exact after text normalization (whitespace collapsed,
case-sensitive): fuzzy credit would hide normalization bugs. Table credit
requires the typed record to equal the gold record field by field;
mismatches are counted as incorrect rather than missing.
"""
from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, Mapping, Optional

from . import matcher, tabrec
from .model import Factory, Record, SchemaError, Struct, TableType, read_jsonl

_WS_RE = re.compile(r"\s+")


def _norm_value(value: str) -> str:
    return _WS_RE.sub(" ", value).strip()


Triple = tuple[str, str, str]  # (doc_id, field, value)
Tables = Mapping[tuple[str, TableType], Optional[Record]]  # None: the table is missing


class GoldSet(Struct):
    """Gold field triples plus per-(doc, type) table truth."""
    fields: frozenset[Triple]
    tables: Tables

    @classmethod
    def from_parts(cls, fields: Iterable[Triple],
                   tables: Mapping = ()) -> "GoldSet":
        return cls(frozenset((d, f, _norm_value(v)) for d, f, v in fields), dict(tables))


def _field_triple(row: Mapping, where: str) -> Triple:
    """The (doc_id, field, value) of one gold or predicted field row."""
    for key in ("doc_id", "field", "value"):
        if not isinstance(row.get(key), str):
            raise SchemaError(f"{where}: field {key!r} missing or not a string")
    return row["doc_id"], row["field"], row["value"]


def load_gold_fields(path: str | Path) -> list[Triple]:
    triples: list[Triple] = []
    seen = set()
    for lineno, row in read_jsonl(path):
        triple = _field_triple(row, f"{path}:{lineno}")
        if triple in seen:
            raise SchemaError(f"{path}:{lineno}: duplicate gold triple {triple!r}")
        seen.add(triple)
        triples.append(triple)
    return triples


def load_gold_tables(path: str | Path) -> Tables:
    """The record of every (doc_id, type) of a gold or predicted tables file."""
    out = {}
    for lineno, row in tabrec.read_tables_jsonl(path):
        try:
            doc_id, ttype, record = tabrec.parse_table_row(row)
        except SchemaError as e:
            raise SchemaError(f"{path}:{lineno}: {e}") from None
        if (doc_id, ttype) in out:
            raise SchemaError(f"{path}:{lineno}: duplicate table row {(doc_id, ttype.value)!r}")
        out[(doc_id, ttype)] = record
    return out


def load_gold_set(gold_dir: str | Path) -> GoldSet:
    gold_dir = Path(gold_dir)
    fields = load_gold_fields(gold_dir / "fields.jsonl")
    tables_path = gold_dir / "tables.jsonl"
    tables = load_gold_tables(tables_path) if tables_path.exists() else {}
    return GoldSet.from_parts(fields, tables)


def load_predictions(pred_dir: str | Path) -> tuple[list[Triple], Tables]:
    """The field triples of ``fields.csv`` and the tables of ``tables.jsonl`` in a
    result directory; each file may be absent."""
    pred_dir = Path(pred_dir)
    if not pred_dir.is_dir():
        raise NotADirectoryError(f"not a directory: {pred_dir}")
    path = pred_dir / "fields.csv"
    rows = matcher.read_results_file(path) if path.is_file() else []
    fields = [_field_triple(row, f"{path}: row {i}") for i, row in enumerate(rows, 1)]
    tables_path = pred_dir / "tables.jsonl"
    return fields, load_gold_tables(tables_path) if tables_path.is_file() else {}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def precision_of(tp: int, fp: int) -> float:
    return 1.0 if tp + fp == 0 else tp / (tp + fp)


def recall_of(tp: int, fn: int) -> float:
    return 1.0 if tp + fn == 0 else tp / (tp + fn)


def f_measure(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


class FieldScore(Struct):
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return precision_of(self.tp, self.fp)

    @property
    def recall(self) -> float:
        return recall_of(self.tp, self.fn)

    @property
    def f(self) -> float:
        return f_measure(self.precision, self.recall)

    def to_dict(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn,
                "precision": self.precision, "recall": self.recall,
                "f_measure": self.f}


class TableScore(Struct):
    extracted: int = 0   # a predicted record equal to gold's
    incorrect: int = 0   # a predicted record that differs, or where gold has none
    missing: int = 0     # no predicted record where gold has one

    def to_dict(self) -> dict:
        return {"extracted": self.extracted, "incorrect": self.incorrect,
                "missing": self.missing}


class EvalReport(Struct):
    fields: Mapping[str, FieldScore]
    micro: FieldScore
    tables: Mapping[TableType, TableScore] = Factory(dict)

    def to_dict(self) -> dict:
        return {
            "fields": {k: self.fields[k].to_dict() for k in sorted(self.fields)},
            "micro": self.micro.to_dict(),
            "tables": {t.value: self.tables[t].to_dict() for t in TableType
                       if t in self.tables},
        }


def evaluate(gold: GoldSet, field_predictions: Iterable[Triple],
             table_predictions: Tables | None = None) -> EvalReport:
    """Score predictions: sets of normalized (doc_id, field, value) triples.

    A prediction is a true positive iff gold holds the identical triple
    after whitespace normalization; values compare case-sensitively.
    Predictions for unknown doc_ids are false positives. Tables, if gold has
    any, are scored over the (doc_id, type) keys of both (see TableScore).
    """
    pred = {(d, f, _norm_value(v)) for d, f, v in field_predictions}

    field_names = sorted({t[1] for t in gold.fields} | {t[1] for t in pred})
    scores: dict[str, FieldScore] = {}
    tp = fp = fn = 0
    for fname in field_names:
        g = {t for t in gold.fields if t[1] == fname}
        p = {t for t in pred if t[1] == fname}
        score = FieldScore(tp=len(g & p), fp=len(p - g), fn=len(g - p))
        scores[fname] = score
        tp += score.tp
        fp += score.fp
        fn += score.fn

    table_scores: dict[TableType, TableScore] = {}
    if gold.tables:
        table_predictions = table_predictions or {}
        counts = {t: [0, 0, 0] for t in TableType}
        for key in gold.tables.keys() | table_predictions.keys():
            g_record, p_record = gold.tables.get(key), table_predictions.get(key)
            if p_record is not None:
                counts[key[1]][0 if p_record == g_record else 1] += 1
            elif g_record is not None:
                counts[key[1]][2] += 1
        table_scores = {t: TableScore(*counts[t]) for t in TableType
                        if any(counts[t])}

    return EvalReport(scores, FieldScore(tp, fp, fn), table_scores)


TABLE_TITLES = {
    TableType.PERFORMANCE_SCENARIOS: "Performance Scenario",
    TableType.COSTS_EVOLUTION: "Cost Evolution",
    TableType.COSTS_COMPOSITION: "Cost Composition",
}


def format_report(report: EvalReport) -> str:
    lines = []
    header = f"{'field':<24} {'tp':>6} {'fp':>6} {'fn':>6} {'prec':>7} {'rec':>7} {'F':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    for fname in sorted(report.fields):
        s = report.fields[fname]
        lines.append(f"{fname:<24} {s.tp:>6} {s.fp:>6} {s.fn:>6} "
                     f"{s.precision:>7.4f} {s.recall:>7.4f} {s.f:>7.4f}")
    m = report.micro
    lines.append("-" * len(header))
    lines.append(f"{'micro':<24} {m.tp:>6} {m.fp:>6} {m.fn:>6} "
                 f"{m.precision:>7.4f} {m.recall:>7.4f} {m.f:>7.4f}")
    if report.tables:
        lines.append("")
        lines.append(f"{'table type':<24} {'':>12}")
        for ttype in TableType:
            if ttype not in report.tables:
                continue
            t = report.tables[ttype]
            lines.append(f"{TABLE_TITLES[ttype]:<24} Extracted {t.extracted:>6}")
            if t.incorrect:
                lines.append(f"{'':<24} Incorrect {t.incorrect:>6}")
            lines.append(f"{'':<24} Missing   {t.missing:>6}")
    return "\n".join(lines) + "\n"
