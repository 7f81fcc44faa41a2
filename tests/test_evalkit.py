import json
import random
import re
from decimal import Decimal

import pytest

from kidex.evalkit import (FieldScore, GoldSet, evaluate, f_measure, format_report,
                           load_gold_fields, load_gold_set, load_gold_tables, load_predictions,
                           precision_of, recall_of)
from kidex.model import CostCategory, Record, SchemaError
from kidex.tabrec import TableType


def _gold(triples, tables=()):
    return GoldSet.from_parts(triples, dict(tables))


def test_identity_gives_perfect_scores():
    triples = [("d1", "ISIN", "CH0524993752"), ("d1", "PRODUCT_NAME", "Fondo Alfa"),
               ("d2", "ISIN", "LU0000000001")]
    report = evaluate(_gold(triples), triples)
    for score in report.fields.values():
        assert score.precision == score.recall == score.f == 1.0
    assert report.micro.f == 1.0


def test_extra_prediction_costs_precision():
    report = evaluate(_gold([("d1", "ISIN", "A")]),
                      [("d1", "ISIN", "A"), ("d1", "ISIN", "B")])
    s = report.fields["ISIN"]
    assert (s.tp, s.fp, s.fn) == (1, 1, 0)
    assert s.precision == 0.5 and s.recall == 1.0


def test_table2_f_measure_arithmetic():
    assert f_measure(0.98, 0.96) == pytest.approx(0.9699, abs=1e-4)
    assert f_measure(0.98, 0.94) == pytest.approx(0.9596, abs=1e-4)


def test_f_measure_through_counts():
    # tp=1176, fp=24, fn=49 realizes P=0.98, R=0.96 exactly
    score = FieldScore(tp=1176, fp=24, fn=49)
    assert score.precision == pytest.approx(0.98)
    assert score.recall == pytest.approx(0.96)
    assert score.f == pytest.approx(0.9699, abs=1e-4)


def test_degenerate_denominators():
    assert precision_of(0, 0) == 1.0
    assert recall_of(0, 0) == 1.0
    assert f_measure(0.0, 0.0) == 0.0


def test_swapping_gold_and_predictions_swaps_p_and_r():
    rng = random.Random(3)
    docs = [f"d{i}" for i in range(6)]
    def triple():
        return (rng.choice(docs), rng.choice("FG"), rng.choice("xyz"))
    gold = {triple() for _ in range(12)}
    pred = {triple() for _ in range(12)}
    fwd = evaluate(_gold(gold), pred)
    rev = evaluate(_gold(pred), gold)
    assert fwd.micro.precision == rev.micro.recall
    assert fwd.micro.recall == rev.micro.precision


def test_prediction_order_irrelevant():
    gold = [("d1", "F", "1"), ("d2", "F", "2"), ("d3", "G", "3")]
    pred = [("d2", "F", "2"), ("d3", "G", "3"), ("d1", "F", "1")]
    a = evaluate(_gold(gold), pred)
    b = evaluate(_gold(gold), list(reversed(pred)))
    assert a.to_dict() == b.to_dict()


def test_value_comparison_collapses_whitespace_only():
    gold = [("d1", "NAME", "Fondo  Alfa")]
    assert evaluate(_gold(gold), [("d1", "NAME", "Fondo Alfa")]).micro.tp == 1
    assert evaluate(_gold(gold), [("d1", "NAME", "fondo alfa")]).micro.tp == 0


def test_unknown_doc_is_false_positive():
    report = evaluate(_gold([("d1", "F", "x")]), [("ghost", "F", "x")])
    assert report.micro.fp == 1 and report.micro.fn == 1


def test_table_scoring_extracted_incorrect_missing():
    good = Record(TableType.COSTS_COMPOSITION, {(CostCategory.ENTRY,): Decimal("0.5")})
    bad = Record(TableType.COSTS_COMPOSITION, {(CostCategory.ENTRY,): Decimal("0.6")})
    gold_tables = {
        ("d1", TableType.COSTS_COMPOSITION): good,
        ("d2", TableType.COSTS_COMPOSITION): good,
        ("d3", TableType.COSTS_COMPOSITION): good,
        ("d4", TableType.COSTS_COMPOSITION): good,
    }
    preds = {
        ("d1", TableType.COSTS_COMPOSITION): good,
        ("d2", TableType.COSTS_COMPOSITION): bad,
        ("d4", TableType.COSTS_COMPOSITION): None,
        # d3 absent -> missing
    }
    report = evaluate(_gold([], gold_tables), [], preds)
    score = report.tables[TableType.COSTS_COMPOSITION]
    assert (score.extracted, score.incorrect, score.missing) == (1, 1, 2)


def test_table_scoring_counts_a_spurious_table_incorrect():
    good = Record(TableType.COSTS_COMPOSITION, {(CostCategory.ENTRY,): Decimal("0.5")})
    gold_tables = {("d1", TableType.COSTS_COMPOSITION): good,
                   ("d2", TableType.COSTS_COMPOSITION): None}
    preds = {
        ("d1", TableType.COSTS_COMPOSITION): good,
        ("d2", TableType.COSTS_COMPOSITION): good,      # gold's row says missing
        ("ghost", TableType.COSTS_COMPOSITION): good,   # gold has no row
        ("ghost", TableType.COSTS_EVOLUTION): None,     # a missing table counts nothing
    }
    report = evaluate(_gold([], gold_tables), [], preds)
    score = report.tables[TableType.COSTS_COMPOSITION]
    assert (score.extracted, score.incorrect, score.missing) == (1, 2, 0)
    assert set(report.tables) == {TableType.COSTS_COMPOSITION}
    # without gold tables nothing is scored, however many tables are predicted
    assert evaluate(_gold([]), [], preds).tables == {}


def test_report_rendering_mentions_each_field():
    report = evaluate(_gold([("d1", "ISIN", "A")]), [("d1", "ISIN", "A")])
    text = format_report(report)
    assert "ISIN" in text and "micro" in text
    as_json = json.dumps(report.to_dict())
    assert "precision" in as_json


def test_gold_loader_rejects_duplicates(tmp_path):
    path = tmp_path / "fields.jsonl"
    row = json.dumps({"doc_id": "d", "field": "F", "value": "v"})
    path.write_text(row + "\n" + row + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="duplicate"):
        load_gold_fields(path)


def test_gold_tables_loader_rejects_duplicates(tmp_path):
    path = tmp_path / "tables.jsonl"
    row = {"doc_id": "d", "page": 5, "type": "costs_composition", "status": "extracted",
           "record": {"entries": {"entry": "0.5"}}}
    missing = dict(row, status="missing", record=None)
    path.write_text(json.dumps(row) + "\n" + json.dumps(missing) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(
            f"{path}:2: duplicate table row ('d', 'costs_composition')")):
        load_gold_tables(path)


def test_gold_loader_names_missing_field(tmp_path):
    path = tmp_path / "fields.jsonl"
    path.write_text(json.dumps({"doc_id": "d", "value": "v"}) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="field"):
        load_gold_fields(path)


def test_gold_set_requires_fields_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_gold_set(tmp_path)


def test_load_predictions_reads_only_fields_csv(tmp_path):
    assert load_predictions(tmp_path) == ([], {})
    (tmp_path / "fields.jsonl").write_text(
        json.dumps({"doc_id": "d", "field": "F", "value": "jsonl"}) + "\n", encoding="utf-8")
    assert load_predictions(tmp_path) == ([], {})
    (tmp_path / "fields.csv").write_text("doc_id,field,value\nd,F,csv\n", encoding="utf-8")
    (tmp_path / "tables.jsonl").write_text(json.dumps(
        {"doc_id": "d", "page": None, "type": "costs_evolution", "status": "missing",
         "record": None}) + "\n", encoding="utf-8")
    assert load_predictions(tmp_path) == ([("d", "F", "csv")],
                                          {("d", TableType.COSTS_EVOLUTION): None})
    with pytest.raises(NotADirectoryError, match="not a directory: "):
        load_predictions(tmp_path / "fields.csv")
