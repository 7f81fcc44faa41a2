"""Shared domain types: tokens, annotations, boxes, detections and typed records.

Everything here is immutable after construction. Geometry uses integer
pixel coordinates with a top-left origin.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Optional, TypeVar

E = TypeVar("E", bound=Enum)


class SchemaError(ValueError):
    """An input file violates its documented schema; the message names the field."""


def json_object(value, where: str) -> dict:
    """``value`` if it is a JSON object; otherwise a SchemaError led by ``where``."""
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    return value


def read_utf8(path: str | Path) -> str:
    """The text of the file at ``path``; bytes that are not UTF-8 are a SchemaError."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: invalid UTF-8 at byte offset {e.start}") from None


def parse_json_object(text: str, source: str | Path) -> dict:
    """Parse ``text``, read from ``source``, as one JSON object."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{source}: not valid JSON ({e.msg} at line {e.lineno})") from None
    return json_object(data, str(source))


def read_jsonl(path: str | Path) -> list[tuple[int, dict]]:
    """(line number, object) for every non-blank line of a JSON-lines file."""
    rows = []
    for lineno, line in enumerate(read_utf8(path).splitlines(), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as e:
            raise SchemaError(f"{path}:{lineno}: not valid JSON ({e.msg})") from None
        rows.append((lineno, json_object(row, f"{path}:{lineno}")))
    return rows


def enum_member(enum_cls: type[E], value, where: str) -> E:
    """``enum_cls(value)``; an unknown value is a SchemaError, ``where`` leads its message."""
    try:
        return enum_cls(value)
    except ValueError:
        raise SchemaError(f"{where} {value!r}") from None


def dec_str(value: Decimal) -> str:
    """Fixed-point rendering of a decimal, never scientific notation."""
    return format(value, "f")


# ---------------------------------------------------------------------------
# Text side
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Token:
    """A whitespace/punctuation unit of the document text.

    ``begin``/``end`` are character offsets into the source text,
    end-exclusive. ``index`` is the token's ordinal position.
    """
    text: str
    begin: int
    end: int
    index: int

    def __post_init__(self):
        if not (0 <= self.begin < self.end):
            raise ValueError(f"token span invalid: [{self.begin}, {self.end})")
        if len(self.text) != self.end - self.begin:
            raise ValueError("token text length disagrees with its span")


@dataclass(frozen=True)
class Annotation:
    """A key/value label over an inclusive token-index range."""
    key: str
    value: str
    first: int
    last: int
    rule_id: str = "system"

    def __post_init__(self):
        if not self.key:
            raise ValueError("annotation key must be non-empty")
        if not (0 <= self.first <= self.last):
            raise ValueError(f"annotation range invalid: [{self.first}, {self.last}]")

    def to_dict(self) -> dict:
        return {"key": self.key, "value": self.value, "first": self.first,
                "last": self.last, "rule_id": self.rule_id}

    @classmethod
    def from_dict(cls, d: Mapping) -> "Annotation":
        return cls(d["key"], d["value"], d["first"], d["last"], d.get("rule_id", "system"))


def _check_tokens(text: str, tokens: tuple[Token, ...]) -> None:
    prev_end = -1
    for i, tok in enumerate(tokens):
        if tok.index != i:
            raise ValueError(f"token {i} carries index {tok.index}")
        if tok.begin < prev_end:
            raise ValueError(f"token {i} overlaps its predecessor")
        if text[tok.begin:tok.end] != tok.text:
            raise ValueError(f"token {i} text disagrees with source substring")
        prev_end = tok.end


def _check_annotations(annotations: tuple[Annotation, ...], n: int) -> None:
    for ann in annotations:
        if ann.last >= n:
            raise ValueError(f"annotation {ann.key} exceeds token count {n}")


@dataclass(frozen=True)
class Document:
    """Source text plus its token layer and annotation store.

    ``pages``, when present, holds the character offsets at which pages
    2..k begin (strictly increasing); ``None`` means no page structure.
    """
    doc_id: str
    text: str
    tokens: tuple[Token, ...] = ()
    annotations: tuple[Annotation, ...] = ()
    pages: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        _check_tokens(self.text, self.tokens)
        _check_annotations(self.annotations, len(self.tokens))
        if self.pages is not None:
            for a, b in zip(self.pages, self.pages[1:]):
                if b <= a:
                    raise ValueError("page-break offsets must be strictly increasing")

    def with_tokens(self, tokens: Iterable[Token]) -> "Document":
        return Document(self.doc_id, self.text, tuple(tokens), self.annotations, self.pages)

    def with_annotations(self, extra: Iterable[Annotation]) -> "Document":
        """A copy with ``extra`` appended; the checked, immutable tokens are reused as they are."""
        extra = tuple(extra)
        _check_annotations(extra, len(self.tokens))
        doc = object.__new__(Document)
        doc.__dict__.update(self.__dict__, annotations=self.annotations + extra)
        return doc

    def page_texts(self) -> list[str]:
        """Per-page text; the single-newline page separators are dropped."""
        if self.pages is None:
            return [self.text]
        starts = [0, *self.pages]
        out = []
        for i, s in enumerate(starts):
            end = starts[i + 1] - 1 if i + 1 < len(starts) else len(self.text)
            out.append(self.text[s:end])
        return out

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "text": self.text,
            "tokens": [{"text": t.text, "begin": t.begin, "end": t.end, "index": t.index}
                       for t in self.tokens],
            "annotations": [a.to_dict() for a in self.annotations],
            "pages": list(self.pages) if self.pages is not None else None,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "Document":
        return cls(
            doc_id=d["doc_id"],
            text=d["text"],
            tokens=tuple(Token(**t) for t in d["tokens"]),
            annotations=tuple(Annotation.from_dict(a) for a in d["annotations"]),
            pages=tuple(d["pages"]) if d.get("pages") is not None else None,
        )


# ---------------------------------------------------------------------------
# Geometry and detections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixels, top-left origin, end-exclusive edges not implied."""
    left: int
    top: int
    right: int
    bottom: int

    def __post_init__(self):
        if self.left >= self.right or self.top >= self.bottom:
            raise ValueError(f"degenerate bbox {self.as_tuple()}")

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.left, self.top, self.right, self.bottom)

    @property
    def width(self) -> int:
        return self.right - self.left

    @property
    def height(self) -> int:
        return self.bottom - self.top

    @property
    def area(self) -> int:
        return self.width * self.height

    def to_dict(self) -> dict:
        return {"left": self.left, "top": self.top, "right": self.right, "bottom": self.bottom}

    @classmethod
    def from_dict(cls, d: Mapping) -> "BBox":
        try:
            return cls(d["left"], d["top"], d["right"], d["bottom"])
        except KeyError as e:
            raise SchemaError(f"bbox: missing field {e.args[0]!r}") from None


def iou(a: BBox, b: BBox) -> float:
    """Intersection area over union area; 0.0 for disjoint boxes."""
    iw = min(a.right, b.right) - max(a.left, b.left)
    ih = min(a.bottom, b.bottom) - max(a.top, b.top)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def contains_center(outer: BBox, inner: BBox) -> bool:
    """True iff the exact midpoint of ``inner`` lies in ``outer``, edges inclusive.

    The midpoint comparison is done in doubled integer coordinates, so a
    half-pixel center is handled exactly.
    """
    cx2 = inner.left + inner.right
    cy2 = inner.top + inner.bottom
    return (2 * outer.left <= cx2 <= 2 * outer.right
            and 2 * outer.top <= cy2 <= 2 * outer.bottom)


class DetectionClass(str, Enum):
    BORDERED_TABLE = "bordered_table"
    BORDERLESS_TABLE = "borderless_table"
    CELL = "cell"

    @property
    def is_table(self) -> bool:
        return self is not DetectionClass.CELL


@dataclass(frozen=True)
class Detection:
    cls: DetectionClass
    confidence: float
    bbox: BBox

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")

    def to_dict(self) -> dict:
        return {"class": self.cls.value, "confidence": self.confidence,
                "bbox": self.bbox.to_dict()}

    @classmethod
    def from_dict(cls, d: Mapping) -> "Detection":
        if "class" not in d:
            raise SchemaError("detection: missing field 'class'")
        kind = enum_member(DetectionClass, d["class"], "detection: unknown class")
        if "confidence" not in d:
            raise SchemaError("detection: missing field 'confidence'")
        return cls(kind, float(d["confidence"]), BBox.from_dict(d["bbox"]))


@dataclass(frozen=True)
class OcrEntry:
    bbox: BBox
    text: str

    def to_dict(self) -> dict:
        return {"bbox": self.bbox.to_dict(), "text": self.text}

    @classmethod
    def from_dict(cls, d: Mapping) -> "OcrEntry":
        if "text" not in d:
            raise SchemaError("ocr entry: missing field 'text'")
        return cls(BBox.from_dict(d["bbox"]), d["text"])


@dataclass(frozen=True)
class PageDetections:
    """Externally produced masks and OCR text for one page of one document."""
    doc_id: str
    page: int
    page_width: int
    page_height: int
    detections: tuple[Detection, ...] = ()
    ocr: tuple[OcrEntry, ...] = ()

    def __post_init__(self):
        if self.page < 1:
            raise SchemaError("page: must be a 1-based page number")
        for det in self.detections:
            self._check_bounds(det.bbox, "detections")
        for entry in self.ocr:
            self._check_bounds(entry.bbox, "ocr")

    def _check_bounds(self, box: BBox, which: str) -> None:
        if box.left < 0 or box.top < 0 or box.right > self.page_width or box.bottom > self.page_height:
            raise SchemaError(f"{which}: bbox {box.as_tuple()} outside page "
                              f"{self.page_width}x{self.page_height}")

    def to_dict(self) -> dict:
        return {
            "doc_id": self.doc_id,
            "page": self.page,
            "page_width": self.page_width,
            "page_height": self.page_height,
            "detections": [d.to_dict() for d in self.detections],
            "ocr": [o.to_dict() for o in self.ocr],
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "PageDetections":
        for key in ("doc_id", "page", "page_width", "page_height"):
            if key not in d:
                raise SchemaError(f"page detections: missing field {key!r}")
        return cls(
            doc_id=d["doc_id"],
            page=d["page"],
            page_width=d["page_width"],
            page_height=d["page_height"],
            detections=tuple(Detection.from_dict(x) for x in d.get("detections", [])),
            ocr=tuple(OcrEntry.from_dict(x) for x in d.get("ocr", [])),
        )


def load_page_detections(path: str | Path) -> PageDetections:
    return PageDetections.from_dict(parse_json_object(read_utf8(path), path))


def dump_page_detections(page: PageDetections, path: str | Path) -> None:
    Path(path).write_text(json.dumps(page.to_dict(), ensure_ascii=False, indent=2) + "\n",
                          encoding="utf-8")


# ---------------------------------------------------------------------------
# Reconstructed tables and typed records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    bbox: BBox
    text: str

    def to_dict(self) -> dict:
        return {"bbox": self.bbox.to_dict(), "text": self.text}

    @classmethod
    def from_dict(cls, d: Mapping) -> "Cell":
        return cls(BBox.from_dict(d["bbox"]), d["text"])


@dataclass(frozen=True)
class RawTable:
    """Row-major grid of cells; within a row, cells are sorted by left edge."""
    table_bbox: BBox
    rows: tuple[tuple[Cell, ...], ...]

    def __post_init__(self):
        for r, row in enumerate(self.rows):
            if not row:
                raise ValueError(f"row {r} is empty")
            for a, b in zip(row, row[1:]):
                if b.bbox.left < a.bbox.left:
                    raise ValueError(f"row {r} cells not sorted by left edge")

    def to_dict(self) -> dict:
        return {"table_bbox": self.table_bbox.to_dict(),
                "rows": [[c.to_dict() for c in row] for row in self.rows]}

    @classmethod
    def from_dict(cls, d: Mapping) -> "RawTable":
        return cls(BBox.from_dict(d["table_bbox"]),
                   tuple(tuple(Cell.from_dict(c) for c in row) for row in d["rows"]))


class Scenario(str, Enum):
    STRESS = "stress"
    UNFAVOURABLE = "unfavourable"
    MODERATE = "moderate"
    FAVOURABLE = "favourable"


class Period(str, Enum):
    INITIAL = "initial"
    INTERMEDIATE = "intermediate"
    RECOMMENDED = "recommended"


class CostCategory(str, Enum):
    ENTRY = "entry"
    EXIT = "exit"
    PORTFOLIO_TRANSACTION = "portfolio_transaction"
    OTHER_RECURRENT = "other_recurrent"
    PERFORMANCE_FEES = "performance_fees"
    OVERPERFORMANCE_FEES = "overperformance_fees"


def _dec_or_none(x) -> Optional[Decimal]:
    if x is None:
        return None
    try:
        return Decimal(str(x))
    except InvalidOperation:
        raise SchemaError(f"record: not a number {x!r}") from None


@dataclass(frozen=True)
class ScenarioCell:
    """One (scenario, period) entry; ``None`` is the explicit missing marker."""
    refund: Optional[Decimal] = None
    yield_pct: Optional[Decimal] = None

    def to_dict(self) -> dict:
        return {"refund": None if self.refund is None else dec_str(self.refund),
                "yield_pct": None if self.yield_pct is None else dec_str(self.yield_pct)}

    @classmethod
    def from_dict(cls, d: Mapping) -> "ScenarioCell":
        return cls(_dec_or_none(d.get("refund")), _dec_or_none(d.get("yield_pct")))


@dataclass(frozen=True, eq=False)
class PerformanceScenariosRecord:
    entries: Mapping[tuple[Scenario, Period], ScenarioCell] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict = {}
        for scenario in Scenario:
            periods = {p.value: self.entries[(scenario, p)].to_dict()
                       for p in Period if (scenario, p) in self.entries}
            if periods:
                out[scenario.value] = periods
        return {"entries": out}

    @classmethod
    def from_dict(cls, d: Mapping) -> "PerformanceScenariosRecord":
        entries = {}
        for s_name, periods in json_object(d.get("entries", {}), "record: 'entries'").items():
            for p_name, cell in json_object(periods, f"record: 'entries.{s_name}'").items():
                key = (enum_member(Scenario, s_name, "record: unknown scenario"),
                       enum_member(Period, p_name, "record: unknown period"))
                cell = json_object(cell, f"record: 'entries.{s_name}.{p_name}'")
                entries[key] = ScenarioCell.from_dict(cell)
        return cls(entries)

    def __eq__(self, other):
        return isinstance(other, PerformanceScenariosRecord) and dict(self.entries) == dict(other.entries)


@dataclass(frozen=True)
class PeriodCosts:
    total_cost: Optional[Decimal] = None
    riy_pct: Optional[Decimal] = None

    def to_dict(self) -> dict:
        return {"total_cost": None if self.total_cost is None else dec_str(self.total_cost),
                "riy_pct": None if self.riy_pct is None else dec_str(self.riy_pct)}

    @classmethod
    def from_dict(cls, d: Mapping) -> "PeriodCosts":
        return cls(_dec_or_none(d.get("total_cost")), _dec_or_none(d.get("riy_pct")))


@dataclass(frozen=True, eq=False)
class CostsEvolutionRecord:
    entries: Mapping[Period, PeriodCosts] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"entries": {p.value: self.entries[p].to_dict()
                            for p in Period if p in self.entries}}

    @classmethod
    def from_dict(cls, d: Mapping) -> "CostsEvolutionRecord":
        return cls({enum_member(Period, k, "record: unknown period"):
                    PeriodCosts.from_dict(json_object(v, f"record: 'entries.{k}'"))
                    for k, v in json_object(d.get("entries", {}), "record: 'entries'").items()})

    def __eq__(self, other):
        return isinstance(other, CostsEvolutionRecord) and dict(self.entries) == dict(other.entries)


@dataclass(frozen=True, eq=False)
class CostsCompositionRecord:
    entries: Mapping[CostCategory, Optional[Decimal]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"entries": {c.value: (None if self.entries[c] is None else dec_str(self.entries[c]))
                            for c in CostCategory if c in self.entries}}

    @classmethod
    def from_dict(cls, d: Mapping) -> "CostsCompositionRecord":
        return cls({enum_member(CostCategory, k, "record: unknown category"): _dec_or_none(v)
                    for k, v in json_object(d.get("entries", {}), "record: 'entries'").items()})

    def __eq__(self, other):
        return isinstance(other, CostsCompositionRecord) and dict(self.entries) == dict(other.entries)


TypedRecord = PerformanceScenariosRecord | CostsEvolutionRecord | CostsCompositionRecord
