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

from . import tabrec
from .model import Factory, Record, SchemaError, Struct, TableType, read_jsonl

_WS_RE = re.compile(r"\s+")


def _norm_value(value: str) -> str:
    return _WS_RE.sub(" ", value).strip()


Triple = tuple[str, str, str]  # (doc_id, field, value)


class GoldSet(Struct):
    """Gold field triples plus per-(doc, type) table truth."""
    fields: frozenset[Triple]
    tables: Mapping[tuple[str, TableType], tuple[str, Optional[Record]]]

    @classmethod
    def from_parts(cls, fields: Iterable[Triple],
                   tables: Mapping = ()) -> "GoldSet":
        normed = set()
        for doc_id, fname, value in fields:
            normed.add((doc_id, fname, _norm_value(value)))
        return cls(frozenset(normed), dict(tables))


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


def load_gold_tables(path: str | Path) -> dict[tuple[str, TableType], tuple[str, Optional[Record]]]:
    out = {}
    for lineno, row in tabrec.read_tables_jsonl(path):
        try:
            doc_id, _page, ttype, record = tabrec.parse_table_row(row)
        except SchemaError as e:
            raise SchemaError(f"{path}:{lineno}: {e}") from None
        if (doc_id, ttype) in out:
            raise SchemaError(f"{path}:{lineno}: duplicate table row {(doc_id, ttype.value)!r}")
        out[(doc_id, ttype)] = (row["status"], record)
    return out


def load_gold_set(gold_dir: str | Path) -> GoldSet:
    gold_dir = Path(gold_dir)
    fields = load_gold_fields(gold_dir / "fields.jsonl")
    tables_path = gold_dir / "tables.jsonl"
    tables = load_gold_tables(tables_path) if tables_path.exists() else {}
    return GoldSet.from_parts(fields, tables)


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
    extracted: int = 0   # status extracted and record equals gold
    incorrect: int = 0   # status extracted but record differs
    missing: int = 0     # predicted missing (or absent) where gold has a table

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
             table_predictions: Mapping[tuple[str, TableType],
                                        tuple[str, Optional[Record]]] | None = None) -> EvalReport:
    """Score predictions: sets of normalized (doc_id, field, value) triples.

    A prediction is a true positive iff gold holds the identical triple
    after whitespace normalization; values compare case-sensitively.
    Predictions for unknown doc_ids are false positives.
    """
    pred = set()
    for doc_id, fname, value in field_predictions:
        pred.add((doc_id, fname, _norm_value(value)))

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
        for (doc_id, ttype), (g_status, g_record) in gold.tables.items():
            p_status, p_record = table_predictions.get((doc_id, ttype), ("missing", None))
            if g_status != "extracted":
                continue  # gold has no table there; nothing to score
            if p_status == "extracted" and p_record == g_record:
                counts[ttype][0] += 1
            elif p_status == "extracted":
                counts[ttype][1] += 1
            else:
                counts[ttype][2] += 1
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
