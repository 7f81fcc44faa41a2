import json
import random
from decimal import Decimal
from pathlib import Path

import pytest

import kidex
from kidex import model
from kidex.annotate import annotate_sections, default_section_config, tokenize_document
from kidex.corpusgen import gen_corpus
from kidex.matcher import run_rules
from kidex.ruledsl import compile_rules, parse_rules
from kidex.textprep import load_document
from kidex.model import (Annotation, BBox, Cell, CostCategory, CostsCompositionRecord,
                         CostsEvolutionRecord, Detection, DetectionClass, Document, OcrEntry,
                         PageDetections, Period, PerformanceScenariosRecord, PeriodCosts,
                         RawTable, Scenario, ScenarioCell, SchemaError, Token,
                         contains_center, dec_str, iou)


def test_iou_identity():
    box = BBox(2, 3, 40, 50)
    assert iou(box, box) == 1.0


def test_iou_disjoint():
    assert iou(BBox(0, 0, 10, 10), BBox(20, 20, 30, 30)) == 0.0


def test_iou_hand_computed_overlap():
    # intersection 5x10=50, union 100+100-50=150
    a = BBox(0, 0, 10, 10)
    b = BBox(5, 0, 15, 10)
    assert iou(a, b) == pytest.approx(50 / 150)


def test_iou_symmetric_random():
    rng = random.Random(5)
    for _ in range(300):
        a = _rand_box(rng)
        b = _rand_box(rng)
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0


def _rand_box(rng):
    left = rng.randrange(0, 90)
    top = rng.randrange(0, 90)
    return BBox(left, top, left + rng.randrange(1, 40), top + rng.randrange(1, 40))


def test_contains_center_inside_and_self():
    outer = BBox(0, 0, 100, 100)
    assert contains_center(outer, BBox(10, 10, 20, 20))
    assert contains_center(outer, outer)


def test_contains_center_edge_inclusive():
    # center of inner is exactly (100, 100), on the outer's corner
    assert contains_center(BBox(0, 0, 100, 100), BBox(90, 90, 110, 110))


def test_contains_center_half_pixel_center_is_exact():
    # inner center x = 100.5: outside a box ending at 100, inside one ending at 101
    inner = BBox(100, 0, 101, 10)
    assert not contains_center(BBox(0, 0, 100, 10), inner)
    assert contains_center(BBox(0, 0, 101, 10), inner)


def test_bbox_validation():
    with pytest.raises(ValueError):
        BBox(5, 0, 5, 10)
    with pytest.raises(ValueError):
        BBox(0, 10, 5, 10)


def test_token_span_faithfulness_enforced():
    with pytest.raises(ValueError):
        Document("d", "ab cd", (Token("xx", 0, 2, 0),))
    doc = Document("d", "ab cd", (Token("ab", 0, 2, 0), Token("cd", 3, 5, 1)))
    for tok in doc.tokens:
        assert doc.text[tok.begin:tok.end] == tok.text


def test_token_overlap_rejected():
    with pytest.raises(ValueError):
        Document("d", "abc", (Token("ab", 0, 2, 0), Token("bc", 1, 3, 1)))


def test_annotation_range_checked():
    doc = Document("d", "ab", (Token("ab", 0, 2, 0),))
    with pytest.raises(ValueError):
        doc.with_annotations([Annotation("K", "v", 0, 3)])


@pytest.mark.parametrize("tokens, message", [
    ((Token("ab", 0, 2, 1),), "token 0 carries index 1"),
    ((Token("ab", 0, 2, 0), Token("bc", 1, 3, 1)), "token 1 overlaps its predecessor"),
    ((Token("xx", 0, 2, 0),), "token 0 text disagrees with source substring"),
], ids=["index", "overlap", "text"])
def test_every_token_building_path_checks_tokens(tokens, message):
    with pytest.raises(ValueError, match=message):
        Document("d", "abc", tokens)
    with pytest.raises(ValueError, match=message):
        Document("d", "abc").with_tokens(tokens)
    as_dict = {"doc_id": "d", "text": "abc", "annotations": [],
               "tokens": [{"text": t.text, "begin": t.begin, "end": t.end, "index": t.index}
                          for t in tokens]}
    with pytest.raises(ValueError, match=message):
        Document.from_dict(as_dict)


def test_with_annotations_checks_new_annotations_and_keeps_the_rest():
    tokens = (Token("ab", 0, 2, 0), Token("cd", 3, 5, 1))
    first = Annotation("SECTION", "S1", 0, 1)
    doc = Document("d", "ab cd", tokens, (first,), pages=(3,))
    with pytest.raises(ValueError, match="annotation K exceeds token count 2"):
        doc.with_annotations([Annotation("K", "v", 1, 2)])
    extra = Annotation("K", "v", 1, 1)
    out = doc.with_annotations(a for a in [extra])
    expected = Document("d", "ab cd", tokens, (first, extra), pages=(3,))
    assert out == expected and hash(out) == hash(expected)
    assert out.tokens is doc.tokens
    assert doc.annotations == (first,)
    with pytest.raises(AttributeError):
        out.annotations = ()


def test_annotate_pass_checks_tokens_once_per_document(tmp_path, monkeypatch):
    gen_corpus(3, 4, 0.0, tmp_path)
    compiled = compile_rules(parse_rules(
        (Path(kidex.__file__).parent / "data" / "default_rules.tre").read_text(encoding="utf-8")))
    cfg = default_section_config()
    checked = []
    real = model._check_tokens

    def counting(text, tokens):
        checked.append(len(tokens))
        real(text, tokens)

    monkeypatch.setattr(model, "_check_tokens", counting)
    counts, found = [], []
    for path in sorted((tmp_path / "docs").iterdir()):
        doc = tokenize_document(load_document(path.stem, path))
        doc, results = run_rules(compiled, annotate_sections(doc, cfg))
        counts.append(len(doc.tokens))
        found.extend(results)
    assert found
    assert [n for n in checked if n] == counts


def test_page_breaks_strictly_increasing():
    with pytest.raises(ValueError):
        Document("d", "abc", (), (), pages=(2, 2))


def test_document_round_trip():
    doc = Document("d", "ab cd", (Token("ab", 0, 2, 0), Token("cd", 3, 5, 1)),
                   (Annotation("SECTION", "S1", 0, 1),), pages=(3,))
    assert Document.from_dict(json.loads(json.dumps(doc.to_dict()))) == doc


def test_page_detections_round_trip_and_format():
    page = PageDetections(
        "doc1", 3, 2480, 3508,
        detections=(Detection(DetectionClass.CELL, 0.93, BBox(10, 20, 110, 60)),
                    Detection(DetectionClass.BORDERED_TABLE, 0.8, BBox(5, 5, 200, 100))),
        ocr=(OcrEntry(BBox(10, 20, 110, 60), "Scenario di stress"),))
    blob = json.dumps(page.to_dict())
    parsed = json.loads(blob)
    assert parsed["detections"][0]["class"] == "cell"
    assert parsed["detections"][0]["bbox"] == {"left": 10, "top": 20, "right": 110, "bottom": 60}
    assert PageDetections.from_dict(parsed) == page


def test_page_detections_bbox_bounds_checked():
    with pytest.raises(SchemaError):
        PageDetections("d", 1, 100, 100,
                       detections=(Detection(DetectionClass.CELL, 0.9, BBox(50, 50, 150, 90)),))


def test_detection_schema_errors_name_field():
    with pytest.raises(SchemaError, match="class"):
        Detection.from_dict({"confidence": 0.5, "bbox": {"left": 0, "top": 0, "right": 1, "bottom": 1}})
    with pytest.raises(SchemaError, match="confidence"):
        Detection.from_dict({"class": "cell", "bbox": {"left": 0, "top": 0, "right": 1, "bottom": 1}})


def test_confidence_range_enforced():
    with pytest.raises(ValueError):
        Detection(DetectionClass.CELL, 1.5, BBox(0, 0, 1, 1))


def test_raw_table_round_trip_and_sorting():
    rows = ((Cell(BBox(0, 0, 10, 10), "a"), Cell(BBox(20, 0, 30, 10), "b")),)
    table = RawTable(BBox(0, 0, 40, 12), rows)
    assert RawTable.from_dict(table.to_dict()) == table
    with pytest.raises(ValueError):
        RawTable(BBox(0, 0, 40, 12),
                 ((Cell(BBox(20, 0, 30, 10), "b"), Cell(BBox(0, 0, 10, 10), "a")),))


def test_records_round_trip():
    perf = PerformanceScenariosRecord({
        (Scenario.STRESS, Period.INITIAL): ScenarioCell(Decimal("9915.45"), Decimal("-0.85")),
        (Scenario.MODERATE, Period.RECOMMENDED): ScenarioCell(Decimal("12000.00"), None),
    })
    assert PerformanceScenariosRecord.from_dict(perf.to_dict()) == perf
    evo = CostsEvolutionRecord({Period.INITIAL: PeriodCosts(Decimal("150.00"), Decimal("0.50"))})
    assert CostsEvolutionRecord.from_dict(evo.to_dict()) == evo
    comp = CostsCompositionRecord({CostCategory.ENTRY: Decimal("0.50"),
                                   CostCategory.EXIT: None})
    assert CostsCompositionRecord.from_dict(comp.to_dict()) == comp


def test_missing_marker_serializes_as_null_not_zero():
    cell = ScenarioCell(refund=None, yield_pct=Decimal("0"))
    d = cell.to_dict()
    assert d["refund"] is None
    assert d["yield_pct"] == "0"


def test_dec_str_never_scientific():
    assert dec_str(Decimal("1E+2")) == "100"
    assert dec_str(Decimal("9915.45")) == "9915.45"
