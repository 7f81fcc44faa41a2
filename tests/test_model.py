import copy
import functools
import json
import math
import operator
import pickle
import random
import re
import tempfile
from decimal import Decimal, InvalidOperation
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

import kidex
from kidex import model
from kidex.annotate import annotate_sections, default_section_config, tokenize_document
from kidex.corpusgen import gen_corpus
from kidex.matcher import run_rules
from kidex.ruledsl import compile_rules, parse_rules
from kidex.textprep import load_document
from kidex.model import (Annotation, BBox, Cell, CostCategory, Detection, DetectionClass,
                         Document, OcrEntry, PageDetections, Period, RawTable, Record, Scenario,
                         SchemaError, TableType, Token, iou)
from oracles import (contains_center, dec_str, page_detections_dict, page_detections_oracle,
                     record_oracle)


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


def test_page_detections_round_trip_and_format():
    page = PageDetections(
        "doc1", 3, 2480, 3508,
        detections=(Detection(DetectionClass.CELL, 0.93, BBox(10, 20, 110, 60)),
                    Detection(DetectionClass.BORDERED_TABLE, 0.8, BBox(5, 5, 200, 100))),
        ocr=(OcrEntry(BBox(10, 20, 110, 60), "Scenario di stress"),))
    blob = json.dumps(page_detections_dict(page))
    parsed = json.loads(blob)
    assert parsed["detections"][0]["class"] == "cell"
    assert parsed["detections"][0]["bbox"] == {"left": 10, "top": 20, "right": 110, "bottom": 60}
    assert PageDetections.from_dict(parsed) == page


def _number(hi):
    """An int or a finite float from 0 to ``hi``, -0.0 among them."""
    return st.one_of(st.integers(0, int(hi)), st.floats(0, float(hi)), st.just(-0.0),
                     st.sampled_from([1e-7, 0.1, 1e16, 5e-324])).filter(lambda x: x <= hi)


_TEXTS = st.one_of(st.text(max_size=12),
                   st.text(st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\u2028\u2029é€ñ日 a'),
                           max_size=12))


@st.composite
def _page_dicts(draw):
    """A JSON mask page ``PageDetections.from_dict`` accepts, with int and float sizes
    and edges, strings that need escaping, and empty or absent entry lists."""
    size = st.one_of(st.integers(1, 10**30), st.floats(1e-300, 1e300))
    width, height = draw(size), draw(size)

    def box():
        left, right = sorted(draw(st.lists(_number(width), min_size=2, max_size=2, unique=True)))
        top, bottom = sorted(draw(st.lists(_number(height), min_size=2, max_size=2, unique=True)))
        return {"left": left, "top": top, "right": right, "bottom": bottom}

    raw = {"doc_id": draw(_TEXTS), "page": draw(st.integers(1, 10**20)),
           "page_width": width, "page_height": height}
    if draw(st.booleans()):
        raw["detections"] = [
            {"class": draw(st.sampled_from([c.value for c in DetectionClass])),
             "confidence": draw(st.one_of(st.floats(0, 1), st.sampled_from([0, 1, 5e-324, 1e-7]))),
             "bbox": box()}
            for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        raw["ocr"] = [{"bbox": box(), "text": draw(_TEXTS)} for _ in range(draw(st.integers(0, 4)))]
    return raw


@seed(20261019)
@settings(max_examples=400, deadline=None, database=None)
@given(raw=_page_dicts())
def test_page_writer_writes_the_bytes_of_json_dumps(raw, tmp_path_factory):
    page = PageDetections.from_dict(raw)
    path = tmp_path_factory.getbasetemp() / "page.json"
    model.dump_page_detections(page, path)
    expected = json.dumps(page_detections_dict(page), ensure_ascii=False, indent=2) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")
    assert model.load_page_detections(path) == page


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
    RawTable(BBox(0, 0, 40, 12), rows)
    with pytest.raises(ValueError):
        RawTable(BBox(0, 0, 40, 12),
                 ((Cell(BBox(20, 0, 30, 10), "b"), Cell(BBox(0, 0, 10, 10), "a")),))


def test_records_round_trip():
    perf = Record(TableType.PERFORMANCE_SCENARIOS, {
        (Scenario.STRESS, Period.INITIAL, "refund"): Decimal("9915.45"),
        (Scenario.STRESS, Period.INITIAL, "yield_pct"): Decimal("-0.85"),
        (Scenario.MODERATE, Period.RECOMMENDED, "refund"): Decimal("12000.00"),
        (Scenario.MODERATE, Period.RECOMMENDED, "yield_pct"): None,
    })
    assert Record.from_dict(perf.ttype, perf.to_dict()) == perf
    evo = Record(TableType.COSTS_EVOLUTION, {(Period.INITIAL, "total_cost"): Decimal("150.00"),
                                             (Period.INITIAL, "riy_pct"): Decimal("0.50")})
    assert Record.from_dict(evo.ttype, evo.to_dict()) == evo
    comp = Record(TableType.COSTS_COMPOSITION, {(CostCategory.ENTRY,): Decimal("0.50"),
                                                (CostCategory.EXIT,): None})
    assert Record.from_dict(comp.ttype, comp.to_dict()) == comp


def test_missing_marker_serializes_as_null_not_zero():
    record = Record(TableType.PERFORMANCE_SCENARIOS,
                    {(Scenario.STRESS, Period.INITIAL, "refund"): None,
                     (Scenario.STRESS, Period.INITIAL, "yield_pct"): Decimal("0")})
    d = record.to_dict()["entries"]["stress"]["initial"]
    assert d["refund"] is None
    assert d["yield_pct"] == "0"


def test_dec_str_never_scientific():
    assert dec_str(Decimal("1E+2")) == "100"
    assert dec_str(Decimal("9915.45")) == "9915.45"


@pytest.mark.parametrize("ttype, path", [
    (TableType.PERFORMANCE_SCENARIOS, (Period.INITIAL, "total_cost")),
    (TableType.PERFORMANCE_SCENARIOS, (Scenario.STRESS, Period.INITIAL, "refnd")),
    (TableType.PERFORMANCE_SCENARIOS, (Scenario.STRESS, Period.INITIAL)),
    (TableType.COSTS_EVOLUTION, (Scenario.STRESS, Period.INITIAL, "refund")),
    (TableType.COSTS_COMPOSITION, (CostCategory.ENTRY, "value")),
    (TableType.COSTS_COMPOSITION, (Period.INITIAL,)),
], ids=["other-type", "unknown-name", "no-name", "evolution-other-type",
        "composition-name", "composition-wrong-enum"])
def test_record_path_outside_its_schema_raises(ttype, path):
    with pytest.raises(ValueError, match="is no .* path"):
        Record(ttype, {path: Decimal("1")})


def test_record_cell_is_all_or_nothing():
    refund = (Scenario.STRESS, Period.INITIAL, "refund")
    yield_pct = (Scenario.STRESS, Period.INITIAL, "yield_pct")
    record = Record(TableType.PERFORMANCE_SCENARIOS, {refund: Decimal("1.5")})
    assert record.values == {refund: Decimal("1.5"), yield_pct: None}
    assert record == Record(TableType.PERFORMANCE_SCENARIOS, {refund: Decimal("1.50"),
                                                              yield_pct: None})
    assert record != Record(TableType.COSTS_EVOLUTION)
    assert record.to_dict() == {"entries": {"stress": {"initial": {"refund": "1.5",
                                                                   "yield_pct": None}}}}
    # a str enum member equals its value, so a path of plain strings is the same
    # path; the record keeps the enum members
    spelled = Record(TableType.PERFORMANCE_SCENARIOS, {("stress", "initial", "refund"): None})
    assert [type(key) for path in spelled.values for key in path[:2]] == [Scenario, Period] * 2


# --- records against the class-per-table reference ---------------------------

@functools.cache
def _gold_table_rows() -> tuple[str, ...]:
    with tempfile.TemporaryDirectory() as tmp:
        gen_corpus(3, 42, 0.0, tmp)
        return tuple(Path(tmp, "gold", "tables.jsonl").read_text(encoding="utf-8").splitlines())


_RECORD_JUNK = st.sampled_from([
    None, "NaN", "-NaN", "sNaN", "Infinity", "-Infinity", "inf", "1.50", "1.5", "-0", "1E+2",
    " 2.5 ", "1_000", "abc", "", 5, 2.5, math.nan, math.inf, True, [], {}, {"refund": "1"}])
_RECORD_KEYS = st.sampled_from([
    "refnd", "bogus", "", "refund", "yield_pct", "total_cost", "riy_pct", "stress", "moderate",
    "initial", "recommended", "entry", "exit", "entries"])


@st.composite
def _mutated_record(draw):
    row = json.loads(draw(st.sampled_from(_gold_table_rows())))
    record = row["record"]
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(record))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, path[:-1], record)
        action = draw(st.sampled_from(["set", "delete", "add", "rename"]))
        if action == "set" or not isinstance(parent, dict):
            parent[path[-1]] = draw(_RECORD_JUNK)
        elif action == "delete":
            del parent[path[-1]]
        elif action == "add":
            parent[draw(_RECORD_KEYS)] = draw(st.one_of(_RECORD_JUNK, st.just({})))
        else:
            parent[draw(_RECORD_KEYS)] = parent.pop(path[-1])
    return TableType(row["type"]), json.loads(draw(st.sampled_from(_gold_table_rows()))), record


def _non_finite(x) -> bool:
    try:
        return x is not None and not Decimal(str(x)).is_finite()
    except InvalidOperation:
        return False


def _breaks_a_new_record_rule(ttype, record) -> bool:
    """A non-finite value, an unknown cell key or an unknown scenario key: the
    reference accepts each, the record rejects it."""
    entries = record.get("entries", {})
    if not isinstance(entries, dict):
        return False
    if ttype is TableType.COSTS_COMPOSITION:
        return any(map(_non_finite, entries.values()))
    if ttype is TableType.PERFORMANCE_SCENARIOS:
        if any(key not in {s.value for s in Scenario} for key in entries):
            return True
        cells, names = [cell for periods in entries.values() if isinstance(periods, dict)
                        for cell in periods.values()], {"refund", "yield_pct"}
    else:
        cells, names = list(entries.values()), {"total_cost", "riy_pct"}
    return any(isinstance(cell, dict) and (set(cell) - names or any(map(_non_finite, cell.values())))
               for cell in cells)


@seed(20221019)
@settings(max_examples=500, deadline=None, database=None)
@given(case=_mutated_record())
def test_record_agrees_with_class_reference_on_mutated_rows(case):
    ttype, other, record = case
    try:
        expected = record_oracle(ttype, copy.deepcopy(record))
    except SchemaError:
        expected = None
    if expected is None or _breaks_a_new_record_rule(ttype, record):
        with pytest.raises(SchemaError):
            Record.from_dict(ttype, record)
        return
    parsed = Record.from_dict(ttype, record)
    assert parsed.to_dict() == expected.to_dict()
    assert json.dumps(parsed.to_dict()) == json.dumps(expected.to_dict())
    if other["type"] == ttype.value:
        assert (parsed == Record.from_dict(ttype, other["record"])) == \
            (expected == record_oracle(ttype, other["record"]))
    assert parsed == Record.from_dict(ttype, parsed.to_dict())


# --- tuple-backed geometry ----------------------------------------------------

def test_bbox_and_ocr_entry_are_immutable():
    box = BBox(1, 2, 3, 4)
    entry = OcrEntry(box, "x")
    for obj, name in ((box, "left"), (box, "area"), (box, "extra"), (entry, "text")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)


def test_bbox_make_and_replace_reject_degenerate_boxes():
    box = BBox._make([1, 2, 3, 4])
    assert type(box) is BBox and box == BBox(1, 2, 3, 4)
    assert box._replace(right=9) == BBox(1, 2, 9, 4)
    with pytest.raises(ValueError, match=r"degenerate bbox \(3, 2, 3, 4\)"):
        BBox._make([3, 2, 3, 4])
    with pytest.raises(ValueError, match=r"degenerate bbox \(1, 2, 3, 1\)"):
        box._replace(bottom=1)
    with pytest.raises(TypeError):
        BBox._make([1, 2, 3])


@pytest.mark.parametrize("edges", [(math.nan, 0, 1, 1), (0, 0, math.nan, 1),
                                   (0, math.nan, 1, 1), (0, 0, 1, math.nan)])
def test_bbox_nan_edge_is_degenerate(edges):
    with pytest.raises(ValueError, match="degenerate bbox"):
        BBox(*edges)


def test_geometry_repr_and_hash_match_the_frozen_dataclass_values():
    # a frozen dataclass hashes the tuple of its fields and reprs them by name
    box = BBox(1, 2, 3, 4)
    entry = OcrEntry(box, "x")
    assert repr(box) == "BBox(left=1, top=2, right=3, bottom=4)"
    assert repr(entry) == "OcrEntry(bbox=BBox(left=1, top=2, right=3, bottom=4), text='x')"
    assert hash(box) == hash((1, 2, 3, 4))
    assert hash(entry) == hash(((1, 2, 3, 4), "x"))
    assert (box.width, box.height, box.area) == (2, 2, 4)


@pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy,
                                        lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_geometry_copy_and_pickle_round_trip(round_trip):
    entry = OcrEntry(BBox(1, 2, 3, 4), "x")
    out = round_trip(entry)
    assert out == entry and type(out) is OcrEntry and type(out.bbox) is BBox


def test_bbox_equals_the_plain_tuple_of_its_edges():
    # accepted: boxes are values, no code keys a mapping by both boxes and
    # plain tuples, and a Python __eq__ would slow every comparison
    assert BBox(1, 2, 3, 4) == (1, 2, 3, 4)
    assert OcrEntry(BBox(1, 2, 3, 4), "x") == ((1, 2, 3, 4), "x")
    assert BBox(1, 2, 3, 4) != OcrEntry(BBox(1, 2, 3, 4), "x")


# --- page detections loader ---------------------------------------------------

_JUNK = st.one_of(
    st.sampled_from([None, True, False, 0, -1, 1, 2.5, 10 ** 400, math.nan, math.inf, -math.inf,
                     "", "3", "0.5", "abc", "cell", [], [1, 2, 3, 4], {}, {"left": 1}]),
    st.integers(-5, 130))
_EDGE_JUNK = st.one_of(
    st.sampled_from([-1, -0.5, 0.5, 121, 10 ** 30, math.nan, math.inf, -math.inf, "1", True, None]),
    st.integers(-2, 122))


def _paths(node, prefix=()):
    """Every key path below ``node`` in a JSON tree."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated_page(draw):
    width, height = draw(st.integers(1, 120)), draw(st.integers(1, 120))

    def box():
        left, top = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
        return {"left": left, "top": top, "right": draw(st.integers(left + 1, width)),
                "bottom": draw(st.integers(top + 1, height))}

    page = {"doc_id": "d", "page": draw(st.integers(1, 3)),
            "page_width": width, "page_height": height,
            "detections": [{"class": draw(st.sampled_from(list(DetectionClass))).value,
                            "confidence": draw(st.floats(0.0, 1.0)), "bbox": box()}
                           for _ in range(draw(st.integers(0, 3)))],
            "ocr": [{"bbox": box(), "text": draw(st.text(max_size=3))}
                    for _ in range(draw(st.integers(0, 6)))]}
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(page))
        # a box edge (off the page, degenerate or no number), a text, or any value
        kind = draw(st.sampled_from(BBox._fields + ("text", "any")))
        targets = [path for path in paths if path[-1] == kind] or paths
        path = draw(st.sampled_from(targets))
        value = draw(_EDGE_JUNK if path[-1] in BBox._fields else _JUNK)
        parent = functools.reduce(operator.getitem, path[:-1], page)
        if isinstance(parent, dict) and draw(st.integers(0, 3)) == 0:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return page


@seed(20220608)
@settings(max_examples=500, deadline=None, database=None)
@given(page=_mutated_page())
def test_loader_agrees_with_per_entry_reference_on_mutated_pages(page):
    try:
        expected = page_detections_oracle(copy.deepcopy(page))
    except Exception:
        expected = None
    if expected is None:
        with pytest.raises(SchemaError):
            PageDetections.from_dict(page)
        return
    loaded = PageDetections.from_dict(page)
    assert loaded == expected
    assert all(type(e) is OcrEntry and type(e.bbox) is BBox for e in loaded.ocr)


def _valid_page():
    box = {"left": 0, "top": 0, "right": 5, "bottom": 5}
    return {"doc_id": "d", "page": 1, "page_width": 100, "page_height": 100,
            "detections": [{"class": "cell", "confidence": 0.5, "bbox": dict(box)}],
            "ocr": [{"bbox": dict(box), "text": str(i)} for i in range(4)]}


@pytest.mark.parametrize("key, value, message", [
    ("left", -1, "bbox (-1, 0, 5, 5) outside page 100x100"),
    ("top", -0.5, "bbox (0, -0.5, 5, 5) outside page 100x100"),
    ("right", 101, "bbox (0, 0, 101, 5) outside page 100x100"),
    ("bottom", 100.5, "bbox (0, 0, 5, 100.5) outside page 100x100"),
    ("left", -math.inf, "bbox (-inf, 0, 5, 5) outside page 100x100"),
    ("bottom", math.inf, "bbox (0, 0, 5, inf) outside page 100x100"),
    ("left", math.nan, "degenerate bbox (nan, 0, 5, 5)"),
    ("top", math.nan, "degenerate bbox (0, nan, 5, 5)"),
    ("right", math.nan, "degenerate bbox (0, 0, nan, 5)"),
    ("bottom", math.nan, "degenerate bbox (0, 0, 5, nan)"),
    ("right", 0, "degenerate bbox (0, 0, 0, 5)"),
    ("top", 5, "degenerate bbox (0, 5, 5, 5)"),
    ("right", True, "bbox: 'right' must be a number, got True"),
    ("bottom", "5", "bbox: 'bottom' must be a number, got '5'"),
    ("top", None, "bbox: 'top' must be a number, got None"),
    ("text", 7, "'text' must be a string, got 7"),
    ("text", None, "'text' must be a string, got None"),
], ids=["left-negative", "top-negative", "right-past-page", "bottom-past-page", "left-minus-inf",
        "bottom-inf", "left-nan", "top-nan", "right-nan", "bottom-nan", "zero-width",
        "zero-height", "edge-a-bool", "edge-a-string", "edge-null", "text-a-number", "text-null"])
def test_one_bad_ocr_value_is_named_with_its_entry_index(key, value, message):
    page = _valid_page()
    entry = page["ocr"][2]
    (entry if key == "text" else entry["bbox"])[key] = value
    with pytest.raises(SchemaError, match=f"^{re.escape('ocr[2]: ' + message)}$"):
        PageDetections.from_dict(page)


@pytest.mark.parametrize("edit, message", [
    (lambda p: p.update(page_width=math.nan), "page_width: must be a finite number, got nan"),
    (lambda p: p.update(page_height=math.inf), "page_height: must be a finite number, got inf"),
    (lambda p: p.update(page_width="100"), "page_width: must be a finite number, got '100'"),
    (lambda p: p.update(page=True), "page: must be a 1-based page number"),
    (lambda p: p.update(page=0), "page: must be a 1-based page number"),
    (lambda p: p.update(doc_id=["d"]), "doc_id: must be a string, got ['d']"),
    (lambda p: p.update(detections={}), "detections: expected a list, got {}"),
    (lambda p: p["detections"][0].update(confidence=10 ** 400),
     "detections[0]: 'confidence' must be a number in [0, 1], got 1" + "0" * 400),
    (lambda p: p["detections"][0].update(confidence=math.inf),
     "detections[0]: 'confidence' must be a number in [0, 1], got inf"),
    (lambda p: p["detections"][0].update({"class": "table"}), "detections[0]: unknown class 'table'"),
    (lambda p: p["detections"][0]["bbox"].update(bottom=101),
     "detections[0]: bbox (0, 0, 5, 101) outside page 100x100"),
], ids=["width-nan", "height-inf", "width-a-string", "page-a-bool", "page-zero", "doc-id-a-list",
        "detections-an-object", "confidence-huge", "confidence-inf", "class-unknown",
        "detection-off-page"])
def test_bad_page_or_detection_value_is_named(edit, message):
    page = _valid_page()
    edit(page)
    with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
        PageDetections.from_dict(page)


def test_loading_a_dense_page_makes_no_python_call_per_ocr_entry(monkeypatch):
    rng = random.Random(8)
    ocr = []
    for i in range(400):
        left, top = rng.randrange(0, 2000), rng.randrange(0, 3000)
        ocr.append({"bbox": {"left": left, "top": top, "right": left + rng.randrange(1, 400),
                             "bottom": top + rng.randrange(1, 400)}, "text": f"w{i}"})
    raw = {"doc_id": "d", "page": 2, "page_width": 2480, "page_height": 3508,
           "detections": [{"class": "cell", "confidence": 0.9,
                           "bbox": {"left": 10, "top": 20, "right": 110, "bottom": 60}}],
           "ocr": ocr}
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    for cls in (BBox, OcrEntry):
        monkeypatch.setattr(cls, "__new__", counting(f"{cls.__name__}.__new__", cls.__new__))
    page = PageDetections.from_dict(raw)
    assert len(page.ocr) == 400 and page.ocr[7].text == "w7"
    assert calls == ["BBox.__new__"]  # the one detection box
    monkeypatch.undo()
    assert page == page_detections_oracle(raw)
