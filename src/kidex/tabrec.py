"""Table reconstruction from detection masks and OCR text.

Pipeline per page: confidence filtering, cell-to-table assignment by box
centers, bbox enlargement, OCR text association by IoU, table
identification by anchor strings, alignment-factor row grouping, and
multi-line cell splitting. Identified tables are then mapped onto one of
the three typed financial records.
"""
from __future__ import annotations

import bisect
import functools
import json
import math
import re
from decimal import Decimal
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Optional

from .annotate import PUNCT_CHARS
from .model import (DATA, RECORD_SCHEMAS, BBox, Cell, CostCategory, Detection, Document,
                    Factory, OcrEntry, PageDetections, Period, RawTable, Record, Scenario,
                    SchemaError, Struct, TableType, enum_member, iou, json_fields, json_number,
                    json_object, json_strings, parse_json_object, read_jsonl, read_utf8)
from .normalize import ConfusionMap, fix_confusions, normalize_number


class AmbiguousTableError(ValueError):
    """Anchor strings for two different table types matched the same table."""


class AnchorSet(Struct):
    page_strings: tuple[str, ...]
    table_strings: tuple[str, ...]


DEFAULT_ANCHORS: dict[TableType, AnchorSet] = {
    TableType.PERFORMANCE_SCENARIOS: AnchorSet(
        page_strings=("Scenari di performance", "Performance scenarios"),
        table_strings=("Scenario di stress", "Stress scenario"),
    ),
    TableType.COSTS_EVOLUTION: AnchorSet(
        page_strings=("Andamento dei costi", "Evoluzione dei costi", "Costs over time"),
        # the identification of this table rides on just these two header cells
        table_strings=("Costi totali", "Impatto sul rendimento",
                       "Total costs", "Impact on return"),
    ),
    TableType.COSTS_COMPOSITION: AnchorSet(
        page_strings=("Composizione dei costi", "Composition of costs"),
        table_strings=("Costi di ingresso", "Costi di uscita",
                       "Entry costs", "Exit costs"),
    ),
}


_RATIOS = ("confidence_threshold", "alignment_factor_ratio", "enlargement_ratio",
           "ocr_iou_threshold")


class TabConfig(Struct):
    confidence_threshold: float = 0.6
    alignment_factor_ratio: float = 0.5  # fraction of the median cell height
    enlargement_ratio: float = 0.05      # per side
    ocr_iou_threshold: float = 0.5
    anchors: Mapping[TableType, AnchorSet] = Factory(lambda: dict(DEFAULT_ANCHORS))

    def _check(self):
        for name in _RATIOS:
            v = getattr(self, name)
            if not (0.0 < v <= 1.0) and not (name == "enlargement_ratio" and v == 0.0):
                raise ValueError(f"{name} must be in (0, 1], got {v}")
        for ttype, anchors in self.anchors.items():
            if not anchors.page_strings or not anchors.table_strings:
                raise ValueError(f"{ttype.value}: needs at least one page and one table anchor")
            for name in AnchorSet._fields:
                for anchor in getattr(anchors, name):
                    if not _norm_ws(anchor):  # an empty needle occurs in every text
                        raise ValueError(f"{ttype.value}: {name} holds a blank anchor {anchor!r}")

    @classmethod
    def from_dict(cls, d: Mapping) -> "TabConfig":
        d = json_fields(d, "tab config", optional=(*_RATIOS, "anchors"))
        kwargs = {name: json_number(d[name], f"tab config: {name!r} must be a number")
                  for name in _RATIOS if name in d}
        if "anchors" in d:
            anchors = dict(DEFAULT_ANCHORS)
            for key, spec in json_object(d["anchors"], "tab config: 'anchors'").items():
                ttype = enum_member(TableType, key, "tab config: 'anchors': unknown table type")
                spec = json_fields(spec, f"tab config: 'anchors.{key}'",
                                   optional=AnchorSet._fields)
                page, table = (json_strings(spec.get(name), f"tab config: 'anchors.{key}.{name}'")
                               for name in AnchorSet._fields)
                anchors[ttype] = AnchorSet(page, table)
            kwargs["anchors"] = anchors
        try:
            return cls(**kwargs)
        except ValueError as e:
            raise SchemaError(f"tab config: {e}") from None


def _norm_ws(s: str) -> str:
    """Text comparison key: case insensitive, each run of whitespace one space, none at
    either end."""
    return " ".join(s.split()).casefold()


_PUNCT_STRIP_RE = re.compile("[" + re.escape("".join(sorted(PUNCT_CHARS))) + "]")


def _norm_label(s: str) -> str:
    """Label comparison key: case, whitespace and punctuation insensitive."""
    return _norm_ws(_PUNCT_STRIP_RE.sub(" ", s))


@functools.cache
def _pool_re(labels: tuple[str, ...]) -> re.Pattern:
    """One word-bounded alternation over a label pool, searched in normalized text.

    Labels that normalize to nothing never match. Keys are label tuples from
    the labels config, never document text, so the cache stays small.
    """
    needles = [re.escape(n) for n in map(_norm_label, labels) if n]
    return re.compile(r"(?<!\w)(?:" + ("|".join(needles) or r"(?!)") + r")(?!\w)")


# ---------------------------------------------------------------------------
# Pipeline operations
# ---------------------------------------------------------------------------

def identify_pages(doc_pages: list[str], cfg: TabConfig) -> dict[TableType, int]:
    """First page (1-based) whose text contains any page anchor of each type."""
    normed = [_norm_ws(p) for p in doc_pages]
    out: dict[TableType, int] = {}
    for ttype, anchors in cfg.anchors.items():
        needles = [_norm_ws(s) for s in anchors.page_strings]
        for pageno, page in enumerate(normed, start=1):
            if any(needle in page for needle in needles):
                out[ttype] = pageno
                break
    return out


def filter_detections(page: PageDetections, cfg: TabConfig) -> tuple[list[Detection], list[Detection]]:
    """Keep detections at or above the confidence threshold, split tables/cells."""
    tables, cells = [], []
    for det in page.detections:
        if det.confidence < cfg.confidence_threshold:
            continue
        (tables if det.cls.is_table else cells).append(det)
    return tables, cells


def assign_cells(tables: list[Detection], cells: list[Detection]) -> dict[int, list[Detection]]:
    """Cell goes to the table containing its center; IoU breaks multi-table ties."""
    out: dict[int, list[Detection]] = {i: [] for i in range(len(tables))}
    boxes = [t.bbox for t in tables]
    # a center on an edge counts as inside; doubled coordinates keep a half-pixel center exact
    doubled = [(2 * left, 2 * top, 2 * right, 2 * bottom) for left, top, right, bottom in boxes]
    for cell in cells:
        box = cell.bbox
        left, top, right, bottom = box
        cx2, cy2 = left + right, top + bottom
        holders = [i for i, (l2, t2, r2, b2) in enumerate(doubled)
                   if l2 <= cx2 <= r2 and t2 <= cy2 <= b2]
        if not holders:
            continue
        best = (holders[0] if len(holders) == 1
                else max(holders, key=lambda i: (iou(box, boxes[i]), -i)))
        out[best].append(cell)
    return out


def enlarge_bbox(cell: BBox, cfg: TabConfig, page_w: int, page_h: int) -> BBox:
    """Pad each side outward by ratio x that dimension, clamped to the page.

    Fractional pads round outward (floor the mins, ceil the maxes) so
    enlargement never loses a pixel to rounding.
    """
    left, top, right, bottom = cell
    dx = cfg.enlargement_ratio * (right - left)
    dy = cfg.enlargement_ratio * (bottom - top)
    left, top = math.floor(left - dx), math.floor(top - dy)
    right, bottom = math.ceil(right + dx), math.ceil(bottom + dy)
    return BBox(left if left > 0 else 0, top if top > 0 else 0,
                right if right < page_w else page_w, bottom if bottom < page_h else page_h)


class OcrIndex(NamedTuple):
    """A page's OCR entries sorted by top edge, so ``cell_text`` can look up a band.

    ``entries`` holds (page-order index, entry) pairs by ascending top, ties
    in page order; ``tops[k]`` is the top edge of ``entries[k]``.
    """
    tops: list[int]
    entries: list[tuple[int, OcrEntry]]


def index_ocr(ocr: Iterable[OcrEntry]) -> OcrIndex:
    """Sort OcrEntry tuples by top edge."""
    ocr = tuple(ocr)
    tops = [entry.bbox.top for entry in ocr]
    order = sorted(range(len(ocr)), key=tops.__getitem__)
    return OcrIndex(list(map(tops.__getitem__, order)),
                    list(zip(order, map(ocr.__getitem__, order))))


def cell_text(cell: BBox, ocr: OcrIndex, cfg: TabConfig, page_w: int, page_h: int) -> Optional[str]:
    """Text of the OCR entry overlapping the enlarged cell best, if well enough.

    Ties go to the entry first in page order. Only entries whose top lies in
    a vertical band around the enlarged cell are considered: an entry reaching
    IoU t is at most h/t tall (h the enlarged height), so one whose top is
    more than ceil(h/t) above the enlarged top, or at or below its bottom,
    scores under t. One more pixel of reach absorbs float rounding. Of those,
    an entry with no horizontal overlap scores 0, under any threshold, and is
    not scored.
    """
    enlarged = enlarge_bbox(cell, cfg, page_w, page_h)
    left, top, right, bottom = enlarged
    threshold = cfg.ocr_iou_threshold
    reach = math.ceil((bottom - top) / threshold) + 1
    lo = bisect.bisect_left(ocr.tops, top - reach)
    hi = bisect.bisect_left(ocr.tops, bottom, lo)
    best_score, best_index, best_text = -1.0, 0, None
    for index, (box, text) in ocr.entries[lo:hi]:
        if box.left < right and box.right > left:
            score = iou(enlarged, box)
            if score > best_score or score == best_score and index < best_index:
                best_score, best_index, best_text = score, index, text
    return best_text if best_score >= threshold else None


def identify_table(cells_with_text: Iterable[Cell], cfg: TabConfig) -> Optional[TableType]:
    """The unique table type whose anchors occur in some cell text; None if none."""
    # no needle holds a newline, so none matches across two cells
    texts = "\n".join([_norm_ws(c.text) for c in cells_with_text if c.text])
    matched = [ttype for ttype, anchors in cfg.anchors.items()
               if any(_norm_ws(s) in texts for s in anchors.table_strings)]
    if not matched:
        return None
    if len(matched) > 1:
        raise AmbiguousTableError("table matches anchors of multiple types: "
                                  + ", ".join(t.value for t in matched))
    return matched[0]


def _median(values: list) -> float:
    """The middle value, or the mean of the two middle ones, as ``statistics.median``."""
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def group_rows(cells: list[Cell], cfg: TabConfig) -> RawTable:
    """Cluster cells into rows by top coordinate.

    The alignment factor is ``alignment_factor_ratio`` x the median cell
    height. Scanning cells by ascending top, a cell joins the current row
    while its top is within the factor of the row's FIRST cell; otherwise
    it starts a new row. Rows are left-to-right sorted.
    """
    if not cells:
        raise ValueError("group_rows needs at least one cell")
    boxes = [c.bbox for c in cells]
    factor = cfg.alignment_factor_ratio * _median([bottom - top
                                                   for _, top, _, bottom in boxes])
    # sort keys end in the cell's index: cells are never compared, and cells with
    # equal edges keep their input order, as a stable sort on the edges would
    scan = sorted([(top, left, right, i) for i, (left, top, right, _) in enumerate(boxes)])
    rows: list[list[tuple]] = []  # per row, (left, top, right, index) of each cell
    for top, left, right, i in scan:
        if rows and top - anchor_top <= factor:
            rows[-1].append((left, top, right, i))
        else:
            rows.append([(left, top, right, i)])
            anchor_top = top
    return RawTable(tuple(tuple([cells[key[3]] for key in sorted(row)]) for row in rows))


def _is_numericish(text: str) -> bool:
    return normalize_number(text) is not None


def split_multiline(cells: Iterable[Cell], schema_labels: Iterable[str]) -> list[Cell]:
    """Split cells that wrongly merged vertically stacked fields, each cell on its own.

    A cell splits only when every newline-separated part is either a known
    field label (each a distinct one) or a numeric value; genuine
    multi-line prose is left alone. The bbox is divided evenly by line count.
    """
    label_keys: Optional[set[str]] = None
    out: list[Cell] = []
    for cell in cells:
        parts = [p.strip() for p in cell.text.split("\n")] if cell.text else []
        if len(parts) < 2 or any(not p for p in parts):
            out.append(cell)
            continue
        if label_keys is None:
            label_keys = {_norm_label(lbl) for lbl in schema_labels}
        used_labels: set[str] = set()
        splittable = True
        for part in parts:
            key = _norm_label(part)
            if key in label_keys and key not in used_labels:
                used_labels.add(key)
            elif not _is_numericish(part):
                splittable = False
                break
        if not splittable:
            out.append(cell)
            continue
        k = len(parts)
        left, top, right, bottom = cell.bbox
        height = bottom - top
        for i, part in enumerate(parts):
            out.append(Cell(BBox(left, top + height * i // k, right,
                                 top + height * (i + 1) // k if i + 1 < k else bottom), part))
    return out


def extract_table(page: PageDetections, type_hint: Optional[TableType],
                  cfg: TabConfig, labels: "LabelsConfig") -> Optional[tuple[TableType, RawTable]]:
    """Full per-page composition; None when no table is identified (a Missing)."""
    tables, cells = filter_detections(page, cfg)
    if not tables:
        return None
    assignment = assign_cells(tables, cells)
    ocr = index_ocr(page.ocr)
    order = sorted(range(len(tables)), key=lambda i: (tables[i].bbox.top, tables[i].bbox.left))
    for idx in order:
        assigned = assignment[idx]
        if not assigned:
            continue
        resolved = []
        for det in assigned:
            text = cell_text(det.bbox, ocr, cfg, page.page_width, page.page_height)
            resolved.append(Cell(det.bbox, text or ""))
        ttype = identify_table(resolved, cfg)
        if ttype is None or (type_hint is not None and ttype is not type_hint):
            continue
        return ttype, group_rows(split_multiline(resolved, labels.all_labels(ttype)), cfg)
    return None


# ---------------------------------------------------------------------------
# Labels config and record mapping
# ---------------------------------------------------------------------------

# the groups of a labels config and the keys each holds
_LABEL_GROUPS = {"periods": ("initial",), "performance_scenarios": ("scenarios", "metrics"),
                 "costs_evolution": ("metrics",), "costs_composition": ("categories",)}


class LabelsConfig(Struct):
    """Label phrases that tie grid rows/columns to record fields."""
    initial_period: tuple[str, ...]
    scenarios: Mapping[Scenario, tuple[str, ...]]
    perf_metrics: Mapping[str, tuple[str, ...]]       # refund | yield_pct
    evolution_metrics: Mapping[str, tuple[str, ...]]  # total_cost | riy_pct
    categories: Mapping[CostCategory, tuple[str, ...]]

    def all_labels(self, ttype: TableType) -> list[str]:
        if ttype is TableType.PERFORMANCE_SCENARIOS:
            pools = list(self.scenarios.values()) + list(self.perf_metrics.values())
        elif ttype is TableType.COSTS_EVOLUTION:
            pools = list(self.evolution_metrics.values())
        else:
            pools = list(self.categories.values())
        return [label for pool in pools for label in pool]

    @classmethod
    def from_dict(cls, d: Mapping) -> "LabelsConfig":
        top = json_fields(d, "labels config", _LABEL_GROUPS, optional=())
        groups = {name: json_fields(top[name], f"labels config: '{name}'", keys, optional=())
                  for name, keys in _LABEL_GROUPS.items()}

        def pools(group: str, key: str, members: Iterable) -> dict:
            """The pools of ``group.key``, keyed by ``members`` (enum members or value names)."""
            where = f"{group}.{key}"
            by_name = {getattr(m, "value", m): m for m in members}
            node = json_fields(groups[group][key], f"labels config: '{where}'", optional=by_name)
            return {by_name[k]: json_strings(v, f"labels config: '{where}.{k}'")
                    for k, v in node.items()}

        return cls(
            initial_period=json_strings(groups["periods"]["initial"],
                                        "labels config: 'periods.initial'"),
            scenarios=pools("performance_scenarios", "scenarios", Scenario),
            perf_metrics=pools("performance_scenarios", "metrics",
                               RECORD_SCHEMAS[TableType.PERFORMANCE_SCENARIOS][1]),
            evolution_metrics=pools("costs_evolution", "metrics",
                                    RECORD_SCHEMAS[TableType.COSTS_EVOLUTION][1]),
            categories=pools("costs_composition", "categories", CostCategory),
        )


def load_labels_config(path: str | Path) -> LabelsConfig:
    return LabelsConfig.from_dict(parse_json_object(read_utf8(path), path))


def default_labels_config() -> LabelsConfig:
    return load_labels_config(DATA / "labels.json")


_PERIOD_RE = re.compile(r"(\d+)\s*(?:anni|anno|years|year)(?!\w)")


def _row_label(norms: list[str], pools: Mapping) -> Optional[object]:
    """Key of the pool whose label occurs in a row's normalized cell texts.

    The first matching cell in row order decides; within it, the first
    pool in config order.
    """
    searches = [(key, _pool_re(tuple(labels)).search) for key, labels in pools.items()]
    for norm in norms:
        for key, search in searches:
            if search(norm):
                return key
    return None


def _period_columns(table: RawTable, norm_rows: list[list[str]],
                    initial: re.Pattern) -> list[tuple[int, Period]]:
    """(column center x, period) pairs discovered from header-like cells."""
    found: list[tuple[int, Decimal]] = []  # (center_x, years)
    for row, norms in zip(table.rows, norm_rows):
        for cell, norm in zip(row, norms):
            left, _, right, _ = cell.bbox
            center = (left + right) // 2
            if initial.search(norm):
                found.append((center, 1))
                continue
            m = _PERIOD_RE.search(norm)
            if m:
                found.append((center, Decimal(m.group(1))))  # int() stops at 4,300 digits
    if not found:
        return []
    years = sorted({y for _, y in found})
    max_years = years[-1]
    out = []
    for center, y in found:
        if y == 1:
            period = Period.INITIAL
        elif y == max_years and max_years > 1:
            period = Period.RECOMMENDED
        else:
            period = Period.INTERMEDIATE
        out.append((center, period))
    return out


def _numeric_cells(row: Iterable[Cell], cmap: ConfusionMap) -> list[tuple[Cell, Decimal, bool]]:
    out = []
    for cell in row:
        if not cell.text:
            continue
        repaired = fix_confusions(cell.text, cmap)
        value = normalize_number(repaired)
        if value is not None:
            out.append((cell, value, "%" in cell.text))
    return out


def map_to_record(ttype: TableType, table: RawTable, labels: LabelsConfig,
                  cmap: Optional[ConfusionMap] = None) -> tuple[Record, list[str]]:
    """Map a reconstructed grid onto its typed record; returns (record, warnings).

    Rows are matched by label cells; numeric cells go to periods by column
    position. When no period header is readable, numeric cells are taken
    in column order with a warning. A record with nothing matched is still
    returned, all-missing.
    """
    cmap = cmap or ConfusionMap()
    warnings: list[str] = []
    norm_rows = [[_norm_label(cell.text) for cell in row] for row in table.rows]
    values: dict[tuple, Optional[Decimal]] = {}

    if ttype is TableType.COSTS_COMPOSITION:
        for row, norms in zip(table.rows, norm_rows):
            category = _row_label(norms, labels.categories)
            numerics = _numeric_cells(row, cmap)
            if category is None:
                if numerics:
                    warnings.append(f"composition row unmatched: {[c.text for c in row]!r}")
                continue
            values[(category,)] = numerics[0][1] if numerics else None
            if len(numerics) > 1:
                warnings.append(f"composition row {category.value}: extra numeric cells ignored")
    else:
        initial = _pool_re(tuple(labels.initial_period))
        columns = _period_columns(table, norm_rows, initial)
        if not columns:
            warnings.append("no period header readable; assigning by column order")
        # a performance scenario label may sit on the first of a pair of metric
        # rows, so it carries forward until the next label; an evolution row
        # needs a metric label of its own, and its values sit under the empty key
        period_order = list(Period)
        perf = ttype is TableType.PERFORMANCE_SCENARIOS
        metrics = labels.perf_metrics if perf else labels.evolution_metrics
        scenario_key = None
        for row, norms in zip(table.rows, norm_rows):
            scenario = _row_label(norms, labels.scenarios) if perf else None
            if scenario is not None:
                scenario_key = (scenario,)
            metric = _row_label(norms, metrics)
            numerics = _numeric_cells(row, cmap)
            if not numerics:
                continue
            key = scenario_key if perf else (() if metric is not None else None)
            if key is None:
                if not _row_is_header(norms, initial):
                    kind = "performance" if perf else "evolution"
                    warnings.append(f"{kind} row unmatched: {[c.text for c in row]!r}")
                continue
            # without a period header the ordinal fallback counts per value name,
            # so a refund and a yield in the same row both land on the first period
            counters: dict[str, int] = {}
            for cell, value, is_pct in numerics:
                name = metric or ("yield_pct" if is_pct else "refund")
                if columns:  # the period of the nearest header column
                    left, _, right, _ = cell.bbox
                    center = (left + right) // 2
                    period = min(columns, key=lambda cp: abs(cp[0] - center))[1]
                else:
                    idx = counters[name] = counters.get(name, -1) + 1
                    if idx >= len(period_order):
                        warnings.append(f"more numeric cells than periods: {cell.text!r} ignored")
                        continue
                    period = period_order[idx]
                values[key + (period, name)] = value
    if not values:
        warnings.append(f"{ttype.value.replace('_', ' ')}: nothing matched, all-missing record")
    return Record(ttype, values), warnings


def _row_is_header(norms: list[str], initial: re.Pattern) -> bool:
    """Heuristic: a row whose only numerics sit in period-label cells."""
    return any(_PERIOD_RE.search(norm) or initial.search(norm) for norm in norms)


def tables_doc(doc: Document, pages: Mapping[int, PageDetections], cfg: TabConfig,
               labels: LabelsConfig, cmap: Optional[ConfusionMap] = None
               ) -> list[tuple[TableType, Optional[int], Optional[Record], list[str]]]:
    """(type, page, record or None, warnings) per table type of ``doc``, in enum order.

    ``page`` holds the type's page anchors, or is None; ``pages`` maps a page number to its
    detections. Anchors of two types on one table are a warning, not an error."""
    page_map = identify_pages(doc.page_texts(), cfg)
    out = []
    for ttype in TableType:
        pageno = page_map.get(ttype)
        record, warnings = None, []
        if pageno in pages:
            try:
                hit = extract_table(pages[pageno], ttype, cfg, labels)
            except AmbiguousTableError as e:
                hit, warnings = None, [str(e)]
            if hit is not None:
                record, warnings = map_to_record(*hit, labels, cmap)
        out.append((ttype, pageno, record, warnings))
    return out


# ---------------------------------------------------------------------------
# Tables JSONL output
# ---------------------------------------------------------------------------

def parse_table_row(d: Mapping) -> tuple[str, TableType, Optional[Record]]:
    """The (doc_id, type, record) of one tables row; ``None`` for a missing table."""
    d = json_fields(d, "tables row", ("doc_id", "type", "status"))
    if not isinstance(d["doc_id"], str):
        raise SchemaError(f"tables row: 'doc_id' must be a string, got {d['doc_id']!r}")
    ttype = enum_member(TableType, d["type"], "tables row: unknown type")
    page = d.get("page")
    if page is not None and (type(page) is not int or page < 1):
        raise SchemaError(f"tables row: 'page' must be null or a page number from 1, "
                          f"got {page!r}")
    status, record = d["status"], d.get("record")
    if status not in ("extracted", "missing"):
        raise SchemaError(f"tables row: unknown status {status!r}")
    if (status == "extracted") != (record is not None):
        raise SchemaError(f"tables row: status {status!r} requires "
                          f"{'a' if record is None else 'a null'} record")
    if record is not None:
        record = Record.from_dict(ttype, json_object(record, "tables row: 'record'"))
    return d["doc_id"], ttype, record


def write_tables_jsonl(rows: Iterable[tuple], path: str | Path) -> None:
    """Write (doc_id, type, page, record) rows, ``None`` for a missing table."""
    text = "".join(json.dumps({"doc_id": doc_id, "page": page, "type": ttype.value,
                               "status": "extracted" if record is not None else "missing",
                               "record": record.to_dict() if record is not None else None},
                              ensure_ascii=False) + "\n"
                   for doc_id, ttype, page, record in rows)
    Path(path).write_text(text, encoding="utf-8")


def read_tables_jsonl(path: str | Path) -> list[tuple[int, dict]]:
    """(line number, row) for every row of a tables JSONL file."""
    return read_jsonl(path)
