import random
import re
import statistics
from decimal import Decimal

import pytest
from hypothesis import given, seed, settings, strategies as st

from kidex import tabrec
from kidex.annotate import PUNCT_CHARS
from kidex.model import (BBox, Cell, CostCategory, Detection, DetectionClass, OcrEntry,
                         PageDetections, Period, RawTable, Scenario, SchemaError, iou)
from kidex.tabrec import (AmbiguousTableError, LabelsConfig, TabConfig, TableType, assign_cells,
                          cell_text, default_labels_config, enlarge_bbox, extract_table,
                          filter_detections, group_rows, identify_pages, identify_table,
                          index_ocr, map_to_record, parse_table_row, split_multiline)
from oracles import (cluster_rows_oracle, label_key_oracle, label_pool_oracle,
                     ocr_association_oracle)

CFG = TabConfig()
LABELS = default_labels_config()


def det(cls, conf, box):
    return Detection(cls, conf, box)


def cell(left, top, right, bottom, text=""):
    return Cell(BBox(left, top, right, bottom), text)


# --- identify_pages ----------------------------------------------------------

def test_identify_pages_substring_scan():
    pages = ["intro", "rischi", "Gli Scenari di performance ipotizzati", "costi"]
    assert identify_pages(pages, CFG)[TableType.PERFORMANCE_SCENARIOS] == 3


def test_identify_pages_absent_when_no_anchor():
    assert TableType.COSTS_EVOLUTION not in identify_pages(["a", "b"], CFG)


def test_identify_pages_first_page_wins():
    pages = ["x", "x", "Andamento dei costi", "x", "x", "x", "Andamento dei costi"]
    assert identify_pages(pages, CFG)[TableType.COSTS_EVOLUTION] == 3


def test_identify_pages_case_and_whitespace_insensitive():
    pages = ["SCENARI   DI\nPERFORMANCE"]
    assert identify_pages(pages, CFG)[TableType.PERFORMANCE_SCENARIOS] == 1


# --- filter_detections -------------------------------------------------------

def _page(detections, ocr=(), page=3):
    return PageDetections("d", page, 2480, 3508, tuple(detections), tuple(ocr))


def test_filter_below_threshold_dropped():
    page = _page([det(DetectionClass.CELL, 0.59, BBox(0, 0, 10, 10))])
    tables, cells = filter_detections(page, CFG)
    assert tables == [] and cells == []


def test_filter_boundary_is_inclusive():
    page = _page([det(DetectionClass.CELL, 0.6, BBox(0, 0, 10, 10))])
    _, cells = filter_detections(page, CFG)
    assert len(cells) == 1


def test_filter_partitions_table_classes():
    page = _page([det(DetectionClass.BORDERED_TABLE, 0.9, BBox(0, 0, 10, 10)),
                  det(DetectionClass.BORDERLESS_TABLE, 0.9, BBox(20, 0, 30, 10)),
                  det(DetectionClass.CELL, 0.9, BBox(1, 1, 5, 5))])
    tables, cells = filter_detections(page, CFG)
    assert len(tables) == 2 and len(cells) == 1


def test_filter_empty():
    assert filter_detections(_page([]), CFG) == ([], [])


# --- assign_cells ------------------------------------------------------------

def test_assign_interior_cell():
    tables = [det(DetectionClass.BORDERED_TABLE, 0.9, BBox(0, 0, 100, 100))]
    cells = [det(DetectionClass.CELL, 0.9, BBox(10, 10, 20, 20))]
    assert assign_cells(tables, cells) == {0: cells}


def test_assign_discards_outside_cells():
    tables = [det(DetectionClass.BORDERED_TABLE, 0.9, BBox(0, 0, 100, 100))]
    cells = [det(DetectionClass.CELL, 0.9, BBox(200, 200, 220, 220))]
    assert assign_cells(tables, cells) == {0: []}


def test_assign_overlapping_tables_max_iou_wins():
    # cell center (50, 50) lies in both; the small table overlaps the cell more
    big = det(DetectionClass.BORDERED_TABLE, 0.9, BBox(0, 0, 400, 400))
    small = det(DetectionClass.BORDERLESS_TABLE, 0.9, BBox(30, 30, 80, 80))
    the_cell = det(DetectionClass.CELL, 0.9, BBox(40, 40, 60, 60))
    # hand-computed: iou(cell, small) = 400/2500 = 0.16 > iou(cell, big) = 400/160000
    out = assign_cells([big, small], [the_cell])
    assert out[1] == [the_cell] and out[0] == []


# --- enlarge_bbox ------------------------------------------------------------

def test_enlarge_rounding_outward():
    # width 100 -> 5 per side; height 50 -> 2.5 per side, rounded outward
    assert enlarge_bbox(BBox(100, 100, 200, 150), CFG, 2480, 3508) == BBox(95, 97, 205, 153)


def test_enlarge_clamped_at_page_corner():
    out = enlarge_bbox(BBox(0, 0, 100, 50), CFG, 2480, 3508)
    assert (out.left, out.top) == (0, 0)
    assert out == BBox(0, 0, 105, 53)


def test_enlarge_ratio_zero_is_identity():
    cfg = TabConfig(enlargement_ratio=0.0)
    box = BBox(7, 8, 30, 40)
    assert enlarge_bbox(box, cfg, 100, 100) == box


def test_enlarge_never_shrinks():
    rng = random.Random(9)
    for _ in range(200):
        left, top = rng.randrange(0, 400), rng.randrange(0, 400)
        box = BBox(left, top, left + rng.randrange(1, 200), top + rng.randrange(1, 200))
        out = enlarge_bbox(box, CFG, 600, 600)
        assert out.left <= box.left and out.top <= box.top
        assert out.right >= box.right and out.bottom >= box.bottom


# --- cell_text ---------------------------------------------------------------

BIG = 10 ** 9  # a page size that no enlargement reaches, so none is clamped

def test_cell_text_exact_match():
    box = BBox(10, 10, 100, 40)
    assert cell_text(box, index_ocr([OcrEntry(box, "Scenario di stress")]), CFG, BIG, BIG) == \
        "Scenario di stress"


def test_cell_text_absent_without_overlap():
    ocr = index_ocr([OcrEntry(BBox(500, 500, 600, 540), "x")])
    assert cell_text(BBox(10, 10, 100, 40), ocr, CFG, BIG, BIG) is None


def test_cell_text_best_iou_wins():
    # with enlargement 0 the IoUs are exactly 0.7 and 0.4
    cfg = TabConfig(enlargement_ratio=0.0)
    box = BBox(0, 0, 10, 10)
    entries = [OcrEntry(BBox(0, 6, 10, 10), "worse"), OcrEntry(BBox(0, 0, 10, 7), "better")]
    assert cell_text(box, index_ocr(entries), cfg, BIG, BIG) == "better"


def test_cell_text_threshold_applies():
    cfg = TabConfig(enlargement_ratio=0.0, ocr_iou_threshold=0.5)
    box = BBox(0, 0, 10, 10)
    ocr = index_ocr([OcrEntry(BBox(0, 6, 10, 10), "x")])
    assert cell_text(box, ocr, cfg, BIG, BIG) is None  # IoU 0.4


def test_cell_text_identical_boxes_first_in_page_order_wins():
    box = BBox(0, 0, 10, 10)
    entries = [OcrEntry(BBox(50, 50, 60, 60), "far"), OcrEntry(box, "first"),
               OcrEntry(box, "second")]
    assert cell_text(box, index_ocr(entries), CFG, BIG, BIG) == "first"


def test_cell_text_equal_iou_from_different_boxes_first_in_page_order_wins():
    # both entries score 1/3; "B" has the lower top edge, "A" comes first on the page
    cfg = TabConfig(enlargement_ratio=0.0, ocr_iou_threshold=0.3)
    entries = [OcrEntry(BBox(0, 15, 10, 25), "A"), OcrEntry(BBox(0, 5, 10, 15), "B")]
    assert cell_text(BBox(0, 10, 10, 20), index_ocr(entries), cfg, BIG, BIG) == "A"


def test_cell_text_finds_tall_entry_starting_well_above_the_cell():
    # IoU 20/76 >= 0.25 although the entry starts 56 px above a 20 px cell
    cfg = TabConfig(enlargement_ratio=0.0, ocr_iou_threshold=0.25)
    box = BBox(0, 100, 10, 120)
    entries = [OcrEntry(BBox(0, 44, 10, 120), "tall"), OcrEntry(BBox(0, 150, 10, 160), "x")]
    assert cell_text(box, index_ocr(entries), cfg, BIG, BIG) == "tall"


_coord = st.integers(0, 120)
_box = st.tuples(_coord, _coord, st.integers(1, 80), st.integers(1, 80)).map(
    lambda t: BBox(t[0], t[1], t[0] + t[2], t[1] + t[3]))


@seed(20220602)
@settings(max_examples=400, deadline=None, database=None)
@given(boxes=st.lists(_box, max_size=12),
       copies=st.lists(st.integers(0, 11), max_size=4),
       cells=st.lists(_box, min_size=1, max_size=4),
       ratio=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       threshold=st.one_of(st.sampled_from([1.0, 0.05]), st.floats(0.05, 1.0)),
       margin=st.one_of(st.none(), st.tuples(st.integers(0, 20), st.integers(0, 20))))
def test_cell_text_agrees_with_all_pairs_reference(boxes, copies, cells, ratio, threshold,
                                                    margin):
    boxes += [boxes[i] for i in copies if i < len(boxes)]  # duplicate boxes tie
    entries = [OcrEntry(b, str(i)) for i, b in enumerate(boxes)]
    cfg = TabConfig(enlargement_ratio=ratio, ocr_iou_threshold=threshold)
    page_w = page_h = BIG
    if margin is not None:  # the page ends 0-20 px past the farthest box, so enlargement clamps
        page_w = max(b.right for b in cells + boxes) + margin[0]
        page_h = max(b.bottom for b in cells + boxes) + margin[1]
    ocr = index_ocr(entries)
    for box in cells + boxes:  # cells equal to an entry reach IoU 1
        assert cell_text(box, ocr, cfg, page_w, page_h) == \
            ocr_association_oracle(box, entries, cfg, page_w, page_h)


# --- identify_table ----------------------------------------------------------

def test_identify_table_by_anchor():
    cells = [cell(0, 0, 10, 10, "Scenario di stress"), cell(0, 20, 10, 30, "€ 1,00")]
    assert identify_table(cells, CFG) is TableType.PERFORMANCE_SCENARIOS


def test_identify_table_absent_when_headers_missing():
    cells = [cell(0, 0, 10, 10, "€ 1,00"), cell(0, 20, 10, 30, "2,50%")]
    assert identify_table(cells, CFG) is None


def test_identify_table_ambiguity_is_an_error():
    cells = [cell(0, 0, 10, 10, "Scenario di stress"), cell(0, 20, 10, 30, "Costi totali")]
    with pytest.raises(AmbiguousTableError, match="performance_scenarios.*costs_evolution"):
        identify_table(cells, CFG)


# --- group_rows --------------------------------------------------------------

def _cells_with_tops(tops, height=10):
    return [cell(5 * i, top, 5 * i + 4, top + height, str(i)) for i, top in enumerate(tops)]


def test_group_rows_documented_examples():
    # height 10, ratio 0.5 -> alignment factor 5
    table = group_rows(_cells_with_tops([100, 103, 160]), CFG)
    assert [[c.text for c in row] for row in table.rows] == [["0", "1"], ["2"]]

    # anchored to the row's first cell: 108 - 100 > 5 starts a new row
    table = group_rows(_cells_with_tops([100, 104, 108]), CFG)
    assert [[c.text for c in row] for row in table.rows] == [["0", "1"], ["2"]]


def test_group_rows_single_cell():
    table = group_rows(_cells_with_tops([42]), CFG)
    assert len(table.rows) == 1 and len(table.rows[0]) == 1


def test_group_rows_is_partition_and_sorted():
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randrange(1, 15)
        cells = []
        for i in range(n):
            top = rng.randrange(0, 400)
            left = rng.randrange(0, 400)
            h = rng.randrange(8, 60)
            cells.append(Cell(BBox(left, top, left + rng.randrange(5, 80), top + h), str(i)))
        table = group_rows(cells, CFG)
        seen = [c.text for row in table.rows for c in row]
        assert sorted(seen, key=int) == [str(i) for i in range(n)]
        for row in table.rows:
            lefts = [c.bbox.left for c in row]
            assert lefts == sorted(lefts)


def test_group_rows_agrees_with_oracle():
    rng = random.Random(77)
    import statistics
    for _ in range(300):
        n = rng.randrange(1, 14)
        tops = [rng.randrange(0, 300) for _ in range(n)]
        heights = [rng.randrange(10, 40) for _ in range(n)]
        cells = [Cell(BBox(3 * i, tops[i], 3 * i + 2, tops[i] + heights[i]), str(i))
                 for i in range(n)]
        factor = CFG.alignment_factor_ratio * statistics.median(heights)
        expected = cluster_rows_oracle(tops, factor)
        table = group_rows(cells, CFG)
        got = [sorted(int(c.text) for c in row) for row in table.rows]
        assert got == expected


# --- split_multiline ---------------------------------------------------------

def test_split_label_plus_number():
    row = [cell(0, 0, 100, 40, "Costi totali\n€ 150")]
    out = split_multiline(row, ["Costi totali"])
    assert [c.text for c in out] == ["Costi totali", "€ 150"]
    assert out[0].bbox == BBox(0, 0, 100, 20)
    assert out[1].bbox == BBox(0, 20, 100, 40)


def test_prose_multiline_unchanged():
    row = [cell(0, 0, 100, 40, "che potrebbe\nrimborsare")]
    assert split_multiline(row, ["Costi totali"]) == row


def test_no_newline_unchanged():
    row = [cell(0, 0, 100, 40, "Costi totali")]
    assert split_multiline(row, ["Costi totali"]) == row


def test_split_requires_distinct_labels():
    row = [cell(0, 0, 100, 40, "Costi totali\nCosti totali")]
    assert split_multiline(row, ["Costi totali"]) == row
    out = split_multiline([cell(0, 0, 100, 40, "Costi di ingresso\nCosti di uscita")],
                          ["Costi di ingresso", "Costi di uscita"])
    assert len(out) == 2


def test_split_three_lines_even_boxes():
    row = [cell(0, 0, 90, 90, "1,00\n2,00\n3,00")]
    out = split_multiline(row, [])
    assert [c.bbox.top for c in out] == [0, 30, 60]
    assert [c.bbox.bottom for c in out] == [30, 60, 90]


# --- map_to_record -----------------------------------------------------------

def _one_row_table(cells):
    return group_rows(cells, CFG)


def test_map_performance_row_without_period_header():
    table = _one_row_table([cell(0, 0, 100, 20, "Scenario di stress"),
                            cell(110, 0, 200, 20, "€ 9.915,45"),
                            cell(210, 0, 300, 20, "-0,85%")])
    record, warnings = map_to_record(TableType.PERFORMANCE_SCENARIOS, table, LABELS)
    assert record.values[(Scenario.STRESS, Period.INITIAL, "refund")] == Decimal("9915.45")
    assert record.values[(Scenario.STRESS, Period.INITIAL, "yield_pct")] == Decimal("-0.85")
    assert any("period header" in w for w in warnings)


def test_map_composition_row():
    table = _one_row_table([cell(0, 0, 100, 20, "Costi di ingresso"),
                            cell(110, 0, 200, 20, "0,50%")])
    record, _ = map_to_record(TableType.COSTS_COMPOSITION, table, LABELS)
    assert record.values[(CostCategory.ENTRY,)] == Decimal("0.50")


def test_map_header_only_table_all_missing_with_warning():
    table = _one_row_table([cell(0, 0, 100, 20, "Investimento di € 10.000"),
                            cell(110, 0, 200, 20, "1 anno")])
    record, warnings = map_to_record(TableType.COSTS_EVOLUTION, table, LABELS)
    assert record.values == {}
    assert any("all-missing" in w for w in warnings)


def test_map_evolution_with_period_columns():
    rows = [
        [cell(0, 0, 100, 20, "Investimento"), cell(110, 0, 200, 20, "1 anno"),
         cell(210, 0, 300, 20, "3 anni"), cell(310, 0, 400, 20, "6 anni")],
        [cell(0, 40, 100, 60, "Costi totali"), cell(110, 40, 200, 60, "€ 120,00"),
         cell(210, 40, 300, 60, "€ 380,00"), cell(310, 40, 400, 60, "€ 650,00")],
        [cell(0, 80, 100, 100, "Impatto sul rendimento (RIY) per anno"),
         cell(110, 80, 200, 100, "1,20%"), cell(210, 80, 300, 100, "1,26%"),
         cell(310, 80, 400, 100, "1,30%")],
    ]
    table = group_rows([c for row in rows for c in row], CFG)
    record, warnings = map_to_record(TableType.COSTS_EVOLUTION, table, LABELS)
    assert warnings == []
    assert record.values[(Period.INITIAL, "total_cost")] == Decimal("120.00")
    assert record.values[(Period.INTERMEDIATE, "riy_pct")] == Decimal("1.26")
    assert record.values[(Period.RECOMMENDED, "total_cost")] == Decimal("650.00")


def test_map_applies_confusion_repair():
    table = _one_row_table([cell(0, 0, 100, 20, "Costi di ingresso"),
                            cell(110, 0, 200, 20, "0,/5%")])
    record, _ = map_to_record(TableType.COSTS_COMPOSITION, table, LABELS)
    assert record.values[(CostCategory.ENTRY,)] == Decimal("0.75")


def _grid(*rows):
    """A RawTable with one 100x20 cell per text, rows 40 px and columns 110 px apart."""
    return RawTable(tuple(tuple(cell(110 * j, 40 * i, 110 * j + 100, 40 * i + 20, text)
                                for j, text in enumerate(row)) for i, row in enumerate(rows)))


NO_HEADER = "no period header readable; assigning by column order"


@pytest.mark.parametrize("ttype, rows, values, warnings", [
    (TableType.COSTS_COMPOSITION, [["Costi di ingresso", "0,50%", "0,70%"]],
     {(CostCategory.ENTRY,): Decimal("0.50")},
     ["composition row entry: extra numeric cells ignored"]),
    (TableType.PERFORMANCE_SCENARIOS,
     [["Altro", "€ 100,00"], ["Scenario di stress", "€ 9.915,45"]],
     {(Scenario.STRESS, Period.INITIAL, "refund"): Decimal("9915.45")},
     [NO_HEADER, "performance row unmatched: ['Altro', '€ 100,00']"]),
    (TableType.COSTS_EVOLUTION, [["Costi totali", "€ 120,00"], ["Altro", "€ 5,00"]],
     {(Period.INITIAL, "total_cost"): Decimal("120.00")},
     [NO_HEADER, "evolution row unmatched: ['Altro', '€ 5,00']"]),
    (TableType.COSTS_EVOLUTION, [["Costi totali", "1,00", "2,00", "3,00", "4,00"]],
     {(Period.INITIAL, "total_cost"): Decimal("1.00"),
      (Period.INTERMEDIATE, "total_cost"): Decimal("2.00"),
      (Period.RECOMMENDED, "total_cost"): Decimal("3.00")},
     [NO_HEADER, "more numeric cells than periods: '4,00' ignored"]),
], ids=["extra-numeric", "performance-unmatched", "evolution-unmatched", "too-many-numerics"])
def test_map_warns_of_each_row_it_cannot_use(ttype, rows, values, warnings):
    record, got = map_to_record(ttype, _grid(*rows), LABELS)
    assert got == warnings
    assert {k: v for k, v in record.values.items() if v is not None} == values


def _composition_keys(texts, labels=LABELS):
    """Categories a one-row composition table maps: label cells, then one value."""
    cells = [cell(100 * i, 0, 100 * i + 90, 20, t) for i, t in enumerate(texts)]
    cells.append(cell(100 * len(texts), 0, 100 * len(texts) + 90, 20, "0,50%"))
    record, _ = map_to_record(TableType.COSTS_COMPOSITION, _one_row_table(cells), labels)
    return [category for category, in record.values]


def _categories(pools):
    return LabelsConfig(initial_period=("1 anno",), scenarios={}, perf_metrics={},
                        evolution_metrics={}, categories=pools)


def test_label_first_matching_cell_decides():
    # the later cell holds a label of the earlier (entry) pool; the first cell wins
    assert _composition_keys(["Costi di uscita", "Costi di ingresso"]) == [CostCategory.EXIT]


def test_label_cell_with_two_pools_maps_to_first_pool():
    assert _composition_keys(["Costi di uscita e Costi di ingresso"]) == [CostCategory.ENTRY]


def test_label_folds_case_whitespace_and_punctuation():
    assert _composition_keys(["COSTI  di ingresso:"]) == [CostCategory.ENTRY]
    assert _composition_keys(["(Costi di\ningresso)"]) == [CostCategory.ENTRY]
    assert _composition_keys(["Costi-di ingresso"]) == []


def test_label_matches_at_word_boundaries_only():
    # "1 anno" inside "21 anno" is no initial period: 21 years is the recommended one
    rows = [[cell(0, 0, 100, 20, "Investimento"), cell(110, 0, 200, 20, "3 anni"),
             cell(210, 0, 300, 20, "21 anno")],
            [cell(0, 40, 100, 60, "Costi totali"), cell(110, 40, 200, 60, "€ 380,00"),
             cell(210, 40, 300, 60, "€ 650,00")]]
    table = group_rows([c for row in rows for c in row], CFG)
    record, _ = map_to_record(TableType.COSTS_EVOLUTION, table, LABELS)
    assert {period for period, _name in record.values} == {Period.INTERMEDIATE,
                                                           Period.RECOMMENDED}
    assert _composition_keys(["Costi di ingressox"]) == []


def test_label_that_normalizes_to_empty_never_matches():
    labels = _categories({CostCategory.ENTRY: ("...", " "),
                          CostCategory.EXIT: ("Costi di uscita",)})
    assert _composition_keys(["-", "Costi di uscita"], labels) == [CostCategory.EXIT]
    assert _composition_keys(["-"], labels) == []


# whitespace by str.isspace and by re's \s alike (the file and unit separators, NEL,
# no-break, line separator, ideographic space), a zero-width space, which is neither,
# letters whose casefold differs from their lowercase, and the label punctuation
_KEY_CHARS = (" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000\u200b" "aZßẞİ1-"
              + "".join(sorted(PUNCT_CHARS)))


@seed(20220609)
@settings(max_examples=300, deadline=None, database=None)
@given(text=st.text(st.sampled_from(_KEY_CHARS), max_size=12))
def test_text_keys_agree_with_their_regex_forms(text):
    assert tabrec._norm_ws(text) == re.sub(r"\s+", " ", text).strip().casefold()
    assert tabrec._norm_label(text) == label_key_oracle(text)


_WORDS = ["costi", "Costi", "di", "ingresso", "uscita", "1", "21", "anno", "stress", "RIY", "ß",
          "SS", "e"]
_SEPS = [" ", "  ", "\t", "\n", ":", ", ", "(", ")", "%", "-", "€", "'", "«", "."]
_phrase = st.lists(st.tuples(st.sampled_from(_WORDS), st.sampled_from(_SEPS)),
                   max_size=5).map(lambda parts: "".join(w + s for w, s in parts))
_cased = st.tuples(_phrase, st.sampled_from([str, str.upper, str.lower, str.title])).map(
    lambda pc: pc[1](pc[0]))


@seed(20220601)
@settings(max_examples=300, deadline=None, database=None)
@given(pools=st.lists(st.lists(_cased, min_size=1, max_size=3), min_size=1, max_size=4),
       texts=st.lists(_cased, min_size=1, max_size=3))
def test_label_pools_agree_with_per_label_reference(pools, texts):
    pools = dict(zip(CostCategory, map(tuple, pools)))
    expected = next((k for k in (label_pool_oracle(t, pools) for t in texts)
                     if k is not None), None)
    want = [] if expected is None else [expected]
    assert _composition_keys(texts, _categories(pools)) == want


# --- extract_table -----------------------------------------------------------

def _synthetic_page(anchor_conf=0.9):
    """Two-row costs-evolution-like grid with its two header label cells."""
    dets = [det(DetectionClass.BORDERLESS_TABLE, 0.95, BBox(0, 0, 900, 300))]
    ocr = []
    grid = [
        (BBox(10, 10, 300, 60), "Costi totali", anchor_conf),
        (BBox(320, 10, 500, 60), "€ 120,00", 0.9),
        (BBox(10, 110, 300, 160), "Impatto sul rendimento (RIY) per anno", anchor_conf),
        (BBox(320, 110, 500, 160), "1,20%", 0.9),
    ]
    for box, text, conf in grid:
        dets.append(det(DetectionClass.CELL, conf, box))
        ocr.append(OcrEntry(box, text))
    return PageDetections("d", 4, 2480, 3508, tuple(dets), tuple(ocr))


def test_extract_table_identifies_and_groups():
    hit = extract_table(_synthetic_page(), None, CFG, LABELS)
    assert hit is not None
    ttype, table = hit
    assert ttype is TableType.COSTS_EVOLUTION
    assert [[c.text for c in row] for row in table.rows] == \
        [["Costi totali", "€ 120,00"], ["Impatto sul rendimento (RIY) per anno", "1,20%"]]


def test_extract_table_zero_detections_absent():
    page = PageDetections("d", 4, 100, 100)
    assert extract_table(page, None, CFG, LABELS) is None


def test_extract_table_header_below_threshold_reproduces_missing():
    # numerical cell masks fine, header cells below confidence: not identified
    assert extract_table(_synthetic_page(anchor_conf=0.4), None, CFG, LABELS) is None


def test_extract_table_hint_must_match():
    page = _synthetic_page()
    assert extract_table(page, TableType.PERFORMANCE_SCENARIOS, CFG, LABELS) is None
    assert extract_table(page, TableType.COSTS_EVOLUTION, CFG, LABELS) is not None


def test_extract_table_scores_only_nearby_ocr(monkeypatch):
    # 400 word-level entries below the table, clear of every box, as on dense pages
    page = _synthetic_page()
    rng = random.Random(4)
    words = []
    for _ in range(400):
        left, top = rng.randrange(40, 2000), rng.randrange(340, 3400)
        words.append(OcrEntry(BBox(left, top, left + rng.randrange(60, 361),
                                   top + rng.randrange(28, 49)), "parola"))
    ocr = list(page.ocr) + words
    rng.shuffle(ocr)
    dense = PageDetections("d", 4, 2480, 3508, page.detections, tuple(ocr))
    expected = extract_table(page, None, CFG, LABELS)
    calls = []

    def counting_iou(a, b):
        calls.append(1)
        return iou(a, b)

    monkeypatch.setattr(tabrec, "iou", counting_iou)
    assert extract_table(dense, None, CFG, LABELS) == expected
    n_cells = len(page.detections) - 1
    assert len(calls) < n_cells * len(ocr) / 10


def test_cell_text_skips_entries_in_the_row_band_without_horizontal_overlap(monkeypatch):
    # 400 words share the cells' row band but lie left or right of the whole row
    rng = random.Random(11)
    cells = [BBox(1000 + 150 * i, 500, 1100 + 150 * i, 540) for i in range(4)]
    words = [OcrEntry(box, f"cell {k}") for k, box in enumerate(cells)]
    for _ in range(400):
        left = rng.choice([rng.randrange(0, 900), rng.randrange(1600, 2300)])
        top = rng.randrange(480, 740)
        words.append(OcrEntry(BBox(left, top, left + rng.randrange(20, 80),
                                   top + rng.randrange(20, 60)), "parola"))
    rng.shuffle(words)
    ocr = index_ocr(words)
    calls = []

    def counting_iou(a, b):
        calls.append(1)
        return iou(a, b)

    monkeypatch.setattr(tabrec, "iou", counting_iou)
    texts = [cell_text(box, ocr, CFG, 2480, 3508) for box in cells]
    assert texts == [f"cell {k}" for k in range(len(cells))]
    assert texts == [ocr_association_oracle(box, words, CFG, 2480, 3508) for box in cells]
    assert len(calls) <= len(cells)


def test_extract_table_regroups_after_split():
    # one merged cell stacks a label over a second label; splitting must
    # push the lower part into the second row
    dets = [det(DetectionClass.BORDERLESS_TABLE, 0.95, BBox(0, 0, 900, 260))]
    merged = BBox(10, 10, 300, 210)
    ocr = [OcrEntry(merged, "Costi di ingresso\nCosti di uscita"),
           OcrEntry(BBox(320, 10, 500, 110), "0,50%"),
           OcrEntry(BBox(320, 120, 500, 210), "0,25%")]
    dets.append(det(DetectionClass.CELL, 0.9, merged))
    dets.append(det(DetectionClass.CELL, 0.9, BBox(320, 10, 500, 110)))
    dets.append(det(DetectionClass.CELL, 0.9, BBox(320, 120, 500, 210)))
    page = PageDetections("d", 5, 2480, 3508, tuple(dets), tuple(ocr))
    hit = extract_table(page, TableType.COSTS_COMPOSITION, CFG, LABELS)
    assert hit is not None
    record, _ = map_to_record(TableType.COSTS_COMPOSITION, hit[1], LABELS)
    assert record.values[(CostCategory.ENTRY,)] == Decimal("0.50")
    assert record.values[(CostCategory.EXIT,)] == Decimal("0.25")


def _labels_dict() -> dict:
    return {"periods": {"initial": ["1 anno"]},
            "performance_scenarios": {"scenarios": {"stress": ["Scenario di stress"]},
                                      "metrics": {"refund": ["Possibile rimborso"]}},
            "costs_evolution": {"metrics": {"total_cost": ["Costi totali"]}},
            "costs_composition": {"categories": {"entry": ["Costi di ingresso"]}}}


@pytest.mark.parametrize("path", [("periods", "initial"),
                                  ("performance_scenarios", "scenarios", "stress"),
                                  ("performance_scenarios", "metrics", "refund"),
                                  ("costs_evolution", "metrics", "total_cost"),
                                  ("costs_composition", "categories", "entry")])
@pytest.mark.parametrize("bad", ["Costi di ingresso", ["Costi di ingresso", 3], None])
def test_labels_config_pool_must_be_a_list_of_strings(path, bad):
    d = _labels_dict()
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = bad
    with pytest.raises(SchemaError, match=re.escape(f"labels config: '{'.'.join(path)}'")):
        LabelsConfig.from_dict(d)


def test_labels_config_unknown_category_is_schema_error():
    d = _labels_dict()
    d["costs_composition"]["categories"]["bogus"] = ["x"]
    with pytest.raises(SchemaError, match="'costs_composition.categories': unknown key 'bogus'"):
        LabelsConfig.from_dict(d)


@pytest.mark.parametrize("spec, named", [
    ({"page_strings": "Costi", "table_strings": ["Costi totali"]}, "page_strings"),
    ({"page_strings": ["Costi"], "table_strings": ["Costi totali", None]}, "table_strings"),
    ({"page_strings": ["Costi"]}, "table_strings"),
])
def test_tab_config_anchor_list_must_be_a_list_of_strings(spec, named):
    with pytest.raises(SchemaError, match=re.escape(f"'anchors.costs_evolution.{named}'")):
        TabConfig.from_dict({"anchors": {"costs_evolution": spec}})


def test_tab_config_out_of_range_is_schema_error():
    with pytest.raises(SchemaError, match="tab config: ocr_iou_threshold must be in"):
        TabConfig.from_dict({"ocr_iou_threshold": 0})


def _composition_row(entries) -> dict:
    return {"doc_id": "d", "page": 5, "type": "costs_composition", "status": "extracted",
            "record": {"entries": entries}}


@pytest.mark.parametrize("row, message", [
    ({"doc_id": "d", "type": "bogus", "status": "missing"}, "tables row: unknown type 'bogus'"),
    (_composition_row({"bogus": "0.5"}), "record: unknown category 'bogus'"),
    (_composition_row({"entry": "abc"}), "record: not a number 'abc'"),
    (dict(_composition_row({"entry": "0.5"}), status="missing"),
     "tables row: status 'missing' requires a null record"),
])
def test_parse_table_row_rejects_unknown_values(row, message):
    with pytest.raises(SchemaError, match=re.escape(message)):
        parse_table_row(row)


def test_config_validation():
    with pytest.raises(ValueError):
        TabConfig(confidence_threshold=0.0)
    with pytest.raises(ValueError):
        TabConfig(alignment_factor_ratio=1.5)


def test_filter_and_assign_monotone_under_removal():
    # dropping an input detection never grows any downstream output
    rng = random.Random(41)
    for _ in range(100):
        tables = [det(DetectionClass.BORDERED_TABLE, rng.uniform(0.3, 1.0),
                      BBox(x, y, x + rng.randrange(50, 200), y + rng.randrange(50, 200)))
                  for x, y in ((rng.randrange(0, 300), rng.randrange(0, 300))
                               for _ in range(rng.randrange(1, 4)))]
        cells = [det(DetectionClass.CELL, rng.uniform(0.3, 1.0),
                     BBox(x, y, x + rng.randrange(5, 60), y + rng.randrange(5, 60)))
                 for x, y in ((rng.randrange(0, 450), rng.randrange(0, 450))
                              for _ in range(rng.randrange(0, 10)))]
        page = _page(tables + cells)
        kept_tables, kept_cells = filter_detections(page, CFG)
        full_total = sum(len(v) for v in assign_cells(kept_tables, kept_cells).values())
        if not cells:
            continue
        drop = rng.choice(cells)
        smaller = _page([d for d in tables + cells if d is not drop])
        s_tables, s_cells = filter_detections(smaller, CFG)
        assert len(s_tables) <= len(kept_tables) and len(s_cells) <= len(kept_cells)
        smaller_total = sum(len(v) for v in assign_cells(s_tables, s_cells).values())
        assert smaller_total <= full_total


_number = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                    st.floats(allow_nan=False, allow_infinity=False))


@seed(20220603)
@settings(max_examples=400, deadline=None, database=None)
@given(values=st.lists(_number, min_size=1, max_size=9))
def test_median_agrees_with_statistics_median(values):
    got = tabrec._median(values)
    assert got == statistics.median(values) and type(got) is type(statistics.median(values))


def _rows_by_stable_sorts(cells, factor):
    """Row texts by the documented rule, with ties kept in input order by stable sorts."""
    ordered = sorted(cells, key=lambda c: (c.bbox.top, c.bbox.left, c.bbox.right))
    rows, anchor = [], None
    for c in ordered:
        if rows and c.bbox.top - anchor <= factor:
            rows[-1].append(c)
        else:
            rows.append([c])
            anchor = c.bbox.top
    return [[c.text for c in sorted(row, key=lambda c: (c.bbox.left, c.bbox.top))]
            for row in rows]


_tied_box = st.tuples(st.sampled_from([0, 5, 10]), st.sampled_from([0, 1, 2, 20, 21]),
                      st.sampled_from([1, 3, 8]), st.sampled_from([1, 4, 9])).map(
    lambda t: BBox(t[0], t[1], t[0] + t[2], t[1] + t[3]))


@seed(20220605)
@settings(max_examples=400, deadline=None, database=None)
@given(boxes=st.lists(_tied_box, min_size=1, max_size=12),
       ratio=st.sampled_from([0.1, 0.5, 1.0]))
def test_group_rows_orders_tied_cells_as_stable_sorts_do(boxes, ratio):
    cells = [Cell(box, str(i)) for i, box in enumerate(boxes)]
    cfg = TabConfig(alignment_factor_ratio=ratio)
    factor = ratio * statistics.median(box.height for box in boxes)
    table = group_rows(cells, cfg)
    assert [[c.text for c in row] for row in table.rows] == _rows_by_stable_sorts(cells, factor)
