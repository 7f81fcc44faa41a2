"""Shared domain types: documents, annotations, boxes, detections and typed records.

A document's tokens are plain strings, in text order; a token is named by
its position in ``Document.tokens``, which is the index annotations and
extraction results hold.

Everything here is immutable after construction. Geometry uses integer
pixel coordinates with a top-left origin.
"""
from __future__ import annotations

import json
import math
import operator
import re
from collections import namedtuple
from decimal import Decimal, InvalidOperation
from enum import Enum
from itertools import chain, product, repeat
from json.encoder import encode_basestring
from pathlib import Path
from typing import Collection, Iterable, Mapping, Optional, TypeVar

E = TypeVar("E", bound=Enum)

# the packaged rules and configs, read by the same loaders as a user's files
DATA = Path(__file__).parent / "data"


class SchemaError(ValueError):
    """An input file violates its documented schema; the message names the field."""


_NUMBERS = frozenset((int, float))  # JSON numbers; bool, a subclass of int, is not one


def json_object(value, where: str) -> dict:
    """``value`` if it is a JSON object; otherwise a SchemaError led by ``where``."""
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected a JSON object")
    return value


def json_strings(value, where: str) -> tuple[str, ...]:
    """``value`` as a tuple if it is a JSON list of strings; otherwise a SchemaError."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SchemaError(f"{where}: expected a list of strings")
    return tuple(value)


def json_number(value, where: str) -> float:
    """``value`` as a float if it is a JSON number a float holds: an int or float, not a
    bool, finite and in range. Otherwise a SchemaError reading ``{where}, got {value!r}``."""
    if type(value) in _NUMBERS:
        try:
            number = float(value)
        except OverflowError:
            number = math.nan
        if math.isfinite(number):
            return number
    raise SchemaError(f"{where}, got {value!r}")


def json_fields(value, where: str, required: Collection[str] = (),
                optional: Optional[Collection[str]] = None) -> dict:
    """``value`` if it is a JSON object holding every ``required`` key; otherwise a
    SchemaError led by ``where``. Given ``optional``, the object is closed: a key
    that is neither required nor optional is an error too."""
    obj = json_object(value, where)
    if optional is not None:
        for key in obj:
            if key not in required and key not in optional:
                raise SchemaError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{where}: missing field {key!r}")
    return obj


def read_utf8(path: str | Path) -> str:
    """The text of the file at ``path``; bytes that are not UTF-8 are a SchemaError."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: invalid UTF-8 at byte offset {e.start}") from None


_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def _reject_lone_surrogates(value, where: str) -> None:
    """A SchemaError led by ``where`` if a string or key in the parsed ``value`` holds a
    lone surrogate, which no UTF-8 output can hold (RFC 8259 section 8.2)."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, str):
            m = _SURROGATE_RE.search(v)
            if m:
                raise SchemaError(f"{where}: a string holds a lone surrogate "
                                  f"(\\u{ord(m.group()):04x})")
        elif isinstance(v, dict):
            stack += v
            stack += v.values()
        elif isinstance(v, list):
            stack += v


def _json_loads(text: str, where: str, at_line: bool):
    """``json.loads(text)``; text it rejects, or a lone surrogate escape in it, is a
    SchemaError led by ``where``."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as e:
        why = f"{e.msg} at line {e.lineno}" if at_line else e.msg
    except ValueError:  # an integer literal past the interpreter's digit limit
        why = "a number with too many digits"
    except RecursionError:
        why = "nested too deeply"
    else:
        if "\\u" in text:  # UTF-8 text holds no surrogate; only an escape gives one
            _reject_lone_surrogates(value, where)
        return value
    raise SchemaError(f"{where}: not valid JSON ({why})")


def parse_json_object(text: str, source: str | Path) -> dict:
    """Parse ``text``, read from ``source``, as one JSON object."""
    return json_object(_json_loads(text, str(source), at_line=True), str(source))


def read_jsonl(path: str | Path) -> list[tuple[int, dict]]:
    """(line number, object) for every non-blank line of a JSON-lines file."""
    rows = []
    for lineno, line in enumerate(read_utf8(path).splitlines(), 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        rows.append((lineno, json_object(_json_loads(line, where, at_line=False), where)))
    return rows


def enum_member(enum_cls: type[E], value, where: str) -> E:
    """``enum_cls(value)``; an unknown value is a SchemaError, ``where`` leads its message."""
    try:
        return enum_cls(value)
    except ValueError:
        raise SchemaError(f"{where} {value!r}") from None


# ---------------------------------------------------------------------------
# Value classes
# ---------------------------------------------------------------------------

class Factory:
    """A field default built afresh for each instance: ``tab: dict = Factory(dict)``."""
    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make


class Struct:
    """Base of the value classes: immutable, compared and hashed by value.

    The fields are the class's own annotations, in order; a class attribute
    named after a field is its default, and a ``Factory`` default is built
    per instance. ``_uncompared`` names the fields left out of ``==`` and
    ``hash``; ``_check()`` runs after the generic ``__init__``. Two objects
    are equal when they have the same class and equal compared fields, the
    hash is that of the tuple of compared fields and the repr is
    ``Name(field=value, ...)``. A class built in bulk defines its own
    ``__init__``, which checks its arguments and then fills ``__dict__``.
    """
    _fields: tuple[str, ...] = ()
    _uncompared: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._compared = tuple(f for f in cls._fields if f not in cls._uncompared)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} arguments, got {len(args)}")
        values = dict(zip(self._fields, args))
        for field in self._fields[len(args):]:
            if field in kwargs:
                values[field] = kwargs.pop(field)
            elif field in self._defaults:
                default = self._defaults[field]
                values[field] = default.make() if type(default) is Factory else default
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got unexpected or repeated arguments {sorted(kwargs)}")
        self.__dict__.update(values)
        self._check()

    def _check(self) -> None:
        """Raise ValueError when the fields break the class's invariants."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._compared))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Text side
# ---------------------------------------------------------------------------

class Annotation(Struct):
    """A key/value label over an inclusive token-index range."""
    key: str
    value: str
    first: int
    last: int
    rule_id: str

    def __init__(self, key: str, value: str, first: int, last: int, rule_id: str = "system"):
        if not key:
            raise ValueError("annotation key must be non-empty")
        if not (0 <= first <= last):
            raise ValueError(f"annotation range invalid: [{first}, {last}]")
        self.__dict__.update(key=key, value=value, first=first, last=last, rule_id=rule_id)


def _check_tokens(text: str, tokens: tuple[str, ...]) -> None:
    """Each token is a non-empty string found in ``text`` at or after the end of the one before."""
    pos = 0
    for i, tok in enumerate(tokens):
        if not tok:
            raise ValueError(f"token {i} is empty")
        at = text.find(tok, pos)
        if at < 0:
            raise ValueError(f"token {i} does not occur in the text after the tokens before it")
        pos = at + len(tok)


def _check_annotations(annotations: tuple[Annotation, ...], n: int) -> None:
    for ann in annotations:
        if ann.last >= n:
            raise ValueError(f"annotation {ann.key} exceeds token count {n}")


class Document(Struct):
    """Source text plus its token layer and annotation store.

    ``pages`` holds the character offsets at which pages 2..k begin
    (strictly increasing); a one-page document has none.
    """
    doc_id: str
    text: str
    tokens: tuple[str, ...] = ()
    annotations: tuple[Annotation, ...] = ()
    pages: tuple[int, ...] = ()

    def _check(self):
        _check_tokens(self.text, self.tokens)
        _check_annotations(self.annotations, len(self.tokens))
        for a, b in zip(self.pages, self.pages[1:]):
            if b <= a:
                raise ValueError("page-break offsets must be strictly increasing")

    def with_tokens(self, tokens: Iterable[str]) -> "Document":
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
        starts = [0, *self.pages]
        out = []
        for i, s in enumerate(starts):
            end = starts[i + 1] - 1 if i + 1 < len(starts) else len(self.text)
            out.append(self.text[s:end])
        return out


# ---------------------------------------------------------------------------
# Geometry and detections
# ---------------------------------------------------------------------------

class BBox(namedtuple("BBox", "left top right bottom")):
    """Axis-aligned box in pixels, top-left origin, end-exclusive edges not implied.

    A tuple subclass, so field reads are C getters; like any tuple it
    compares equal to the plain 4-tuple of its edges. The constructor,
    ``_make``, ``_replace``, copy and pickle all reject a degenerate box,
    and a NaN edge counts as degenerate.
    """
    __slots__ = ()

    def __new__(cls, left, top, right, bottom):
        if not (left < right and top < bottom):
            raise ValueError(f"degenerate bbox {(left, top, right, bottom)}")
        return tuple.__new__(cls, (left, top, right, bottom))

    @classmethod
    def _make(cls, iterable) -> "BBox":
        return cls(*iterable)

    @property
    def width(self) -> int:
        return self.right - self.left

    @property
    def height(self) -> int:
        return self.bottom - self.top

    @property
    def area(self) -> int:
        return self.width * self.height


def iou(a: BBox, b: BBox) -> float:
    """Intersection area over union area; 0.0 for disjoint boxes."""
    al, at, ar, ab = a
    bl, bt, br, bb = b
    # min(ar, br) - max(al, bl) and its vertical twin; each conditional returns the
    # operand the builtin would, without the call
    iw = (br if br < ar else ar) - (bl if bl > al else al)
    ih = (bb if bb < ab else ab) - (bt if bt > at else at)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / ((ar - al) * (ab - at) + (br - bl) * (bb - bt) - inter)


class DetectionClass(str, Enum):
    BORDERED_TABLE = "bordered_table"
    BORDERLESS_TABLE = "borderless_table"
    CELL = "cell"

    @property
    def is_table(self) -> bool:
        return self is not DetectionClass.CELL


_STRINGS = frozenset((str,))
_BBOX = operator.itemgetter("bbox")
_TEXT = operator.itemgetter("text")
_CLASS = operator.itemgetter("class")
_CONFIDENCE = operator.itemgetter("confidence")
_EDGES = operator.itemgetter(*BBox._fields)
_CLASSES = {member.value: member for member in DetectionClass}


def _json_box(value, where: str) -> BBox:
    """The box a JSON bbox object describes: four number edges, non-degenerate."""
    box = json_fields(value, f"{where}: 'bbox'", BBox._fields)
    for name in BBox._fields:
        if type(box[name]) not in _NUMBERS:
            raise SchemaError(f"{where}: bbox: {name!r} must be a number, got {box[name]!r}")
    try:
        return BBox._make(_EDGES(box))
    except ValueError as e:
        raise SchemaError(f"{where}: {e}") from None


def _check_bounds(box: BBox, where: str, width, height) -> None:
    if box.left < 0 or box.top < 0 or box.right > width or box.bottom > height:
        raise SchemaError(f"{where}: bbox {tuple(box)} outside page {width}x{height}")


def _json_list(d: Mapping, key: str) -> list:
    value = d.get(key, [])
    if type(value) is not list:
        raise SchemaError(f"{key}: expected a list, got {value!r}")
    return value


def _boxes_fit(edges: list, width, height) -> bool:
    """Whether every 4-tuple of edges is JSON numbers giving a non-degenerate box
    inside the page: ``lt`` is false for NaN, so NaN edges fail, and the page
    bounds stop infinite ones."""
    lefts, tops, rights, bottoms = zip(*edges) if edges else ((),) * 4
    return (_NUMBERS.issuperset(map(type, chain(lefts, tops, rights, bottoms)))
            and all(map(operator.lt, lefts, rights)) and all(map(operator.lt, tops, bottoms))
            and min(lefts, default=0) >= 0 and min(tops, default=0) >= 0
            and max(rights, default=0) <= width and max(bottoms, default=0) <= height)


def _boxes(edges: list):
    """BBox tuples of edges ``_boxes_fit`` passed, built with no Python call per box."""
    return map(tuple.__new__, repeat(BBox), edges)


class Detection(Struct):
    cls: DetectionClass
    confidence: float
    bbox: BBox

    def __init__(self, cls: DetectionClass, confidence: float, bbox: BBox):
        if not (0.0 <= confidence <= 1.0):
            raise ValueError(f"confidence {confidence} outside [0, 1]")
        self.__dict__.update(cls=cls, confidence=confidence, bbox=bbox)

    @classmethod
    def from_dict(cls, d: Mapping, where: str = "detection") -> "Detection":
        """Every schema violation is a SchemaError led by ``where``."""
        d = json_fields(d, where, ("class", "confidence", "bbox"))
        kind = enum_member(DetectionClass, d["class"], f"{where}: unknown class")
        need = f"{where}: 'confidence' must be a number in [0, 1]"
        confidence = json_number(d["confidence"], need)
        if not 0.0 <= confidence <= 1.0:
            raise SchemaError(f"{need}, got {d['confidence']!r}")
        return cls(kind, confidence, _json_box(d["bbox"], where))


def _detections(raw: list, width, height) -> tuple[Detection, ...]:
    """A page's detections, checked and built with no Python call per detection.

    Each needs a known ``class``, a number ``confidence`` in [0, 1], as
    ``json_number`` reads it, and a box that fits the page. When a check
    fails, one pass of ``Detection.from_dict`` over the entries names the
    first bad one.
    """
    try:
        edges = list(map(_EDGES, map(_BBOX, raw)))
        kinds = list(map(_CLASSES.__getitem__, map(_CLASS, raw)))
        confidences = list(map(_CONFIDENCE, raw))
        ok = _NUMBERS.issuperset(map(type, confidences))
        if ok:
            confidences = list(map(float, confidences))
            ok = (all(map(operator.le, repeat(0.0), confidences))
                  and all(map(operator.ge, repeat(1.0), confidences))
                  and _boxes_fit(edges, width, height))
    except (KeyError, TypeError, OverflowError):  # no object, no key, unknown class, huge number
        ok = False
    if not ok:
        for i, entry in enumerate(raw):
            where = f"detections[{i}]"
            _check_bounds(Detection.from_dict(entry, where).bbox, where, width, height)
        raise AssertionError("the bulk detection check failed but every entry passes alone")
    detections = tuple(map(object.__new__, repeat(Detection, len(edges))))
    fields = map(zip, repeat(Detection._fields), zip(kinds, confidences, _boxes(edges)))
    any(map(dict.update, map(vars, detections), fields))  # update returns None: runs for all
    return detections


class OcrEntry(namedtuple("OcrEntry", "bbox text")):
    """One OCR text box; a tuple subclass like ``BBox``."""
    __slots__ = ()


def _ocr_entries(raw: list, width, height) -> tuple[OcrEntry, ...]:
    """A page's OcrEntry tuples, checked and built with no Python call per entry.

    Each entry needs a string ``text`` and a ``bbox`` that fits the page.
    When a check fails, one pass over the entries names the first bad one.
    """
    try:
        edges = list(map(_EDGES, map(_BBOX, raw)))
        texts = list(map(_TEXT, raw))
        ok = _STRINGS.issuperset(map(type, texts)) and _boxes_fit(edges, width, height)
    except (KeyError, TypeError):  # an entry or bbox that is not an object, or lacks a key
        ok = False
    if not ok:
        for i, entry in enumerate(raw):
            where = f"ocr[{i}]"
            entry = json_fields(entry, where, OcrEntry._fields)
            if type(entry["text"]) is not str:
                raise SchemaError(f"{where}: 'text' must be a string, got {entry['text']!r}")
            _check_bounds(_json_box(entry["bbox"], where), where, width, height)
        raise AssertionError("the bulk OCR check failed but every entry passes alone")
    return tuple(map(tuple.__new__, repeat(OcrEntry), zip(_boxes(edges), texts)))


class PageDetections(Struct):
    """Externally produced masks and OCR text for one page of one document."""
    doc_id: str
    page: int
    page_width: int
    page_height: int
    detections: tuple[Detection, ...] = ()
    ocr: tuple[OcrEntry, ...] = ()

    def _check(self):
        if self.page < 1:
            raise SchemaError("page: must be a 1-based page number")
        for det in self.detections:
            _check_bounds(det.bbox, "detections", self.page_width, self.page_height)
        for entry in self.ocr:
            _check_bounds(entry.bbox, "ocr", self.page_width, self.page_height)

    @classmethod
    def from_dict(cls, d: Mapping) -> "PageDetections":
        """The page a JSON object describes; any schema violation is a SchemaError
        naming the field and, inside ``detections`` or ``ocr``, the entry index."""
        d = json_fields(d, "page detections", ("doc_id", "page", "page_width", "page_height"))
        doc_id, page, width, height = d["doc_id"], d["page"], d["page_width"], d["page_height"]
        if type(doc_id) is not str:
            raise SchemaError(f"doc_id: must be a string, got {doc_id!r}")
        if type(page) is not int or page < 1:
            raise SchemaError("page: must be a 1-based page number")
        for name, size in (("page_width", width), ("page_height", height)):
            if not (type(size) is int or type(size) is float and math.isfinite(size)):
                raise SchemaError(f"{name}: must be a finite number, got {size!r}")
        detections = _detections(_json_list(d, "detections"), width, height)
        ocr = _ocr_entries(_json_list(d, "ocr"), width, height)
        # every check of _check ran above, once per entry
        out = object.__new__(cls)
        out.__dict__.update(doc_id=doc_id, page=page, page_width=width, page_height=height,
                            detections=detections, ocr=ocr)
        return out


def load_page_detections(path: str | Path) -> PageDetections:
    return PageDetections.from_dict(parse_json_object(read_utf8(path), path))


_PAGE_JSON = ('{\n  "doc_id": %s,\n  "page": %r,\n  "page_width": %r,\n  "page_height": %r,\n'
              '  "detections": %s,\n  "ocr": %s\n}\n')
_DETECTION_JSON = ('\n    {\n      "class": %s,\n      "confidence": %r,\n      "bbox": {\n'
                   '        "left": %r,\n        "top": %r,\n        "right": %r,\n'
                   '        "bottom": %r\n      }\n    }')
_OCR_JSON = ('\n    {\n      "bbox": {\n        "left": %r,\n        "top": %r,\n'
             '        "right": %r,\n        "bottom": %r\n      },\n      "text": %s\n    }')


def _json_array(items: list[str]) -> str:
    return "[" + ",".join(items) + "\n  ]" if items else "[]"


def dump_page_detections(page: PageDetections, path: str | Path) -> None:
    """Write the bytes ``json.dumps(..., ensure_ascii=False, indent=2)`` and a newline
    give for ``page``, without that call's pure-Python encoder: strings go through its
    escaper, and numbers through ``%r``, which is its ``int.__repr__`` or
    ``float.__repr__`` for the finite numbers of every page ``from_dict`` accepts."""
    detections = [_DETECTION_JSON % (encode_basestring(d.cls.value), d.confidence, *d.bbox)
                  for d in page.detections]
    ocr = [_OCR_JSON % (*box, encode_basestring(text)) for box, text in page.ocr]
    Path(path).write_text(_PAGE_JSON % (encode_basestring(page.doc_id), page.page,
                                        page.page_width, page.page_height,
                                        _json_array(detections), _json_array(ocr)),
                          encoding="utf-8")


# ---------------------------------------------------------------------------
# Reconstructed tables and typed records
# ---------------------------------------------------------------------------

class Cell(Struct):
    bbox: BBox
    text: str

    def __init__(self, bbox: BBox, text: str):
        self.__dict__.update(bbox=bbox, text=text)


class RawTable(Struct):
    """Row-major grid of cells; within a row, cells are sorted by left edge."""
    rows: tuple[tuple[Cell, ...], ...]

    def _check(self):
        for r, row in enumerate(self.rows):
            if not row:
                raise ValueError(f"row {r} is empty")
            for a, b in zip(row, row[1:]):
                if b.bbox.left < a.bbox.left:
                    raise ValueError(f"row {r} cells not sorted by left edge")


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


class TableType(str, Enum):
    PERFORMANCE_SCENARIOS = "performance_scenarios"
    COSTS_EVOLUTION = "costs_evolution"
    COSTS_COMPOSITION = "costs_composition"


# Per table type: the enum levels of a record's key paths, then the names of
# the values one cell holds; with no names, the value sits on the last level.
RECORD_SCHEMAS: dict[TableType, tuple[tuple[type[Enum], ...], tuple[str, ...]]] = {
    TableType.PERFORMANCE_SCENARIOS: ((Scenario, Period), ("refund", "yield_pct")),
    TableType.COSTS_EVOLUTION: ((Period,), ("total_cost", "riy_pct")),
    TableType.COSTS_COMPOSITION: ((CostCategory,), ()),
}
_LEVEL_NAMES = {Scenario: "scenario", Period: "period", CostCategory: "category"}
_MEMBERS = {level: {m.value: m for m in level} for level in _LEVEL_NAMES}
# per table type, in output order (enum declaration order, then value names):
# the parent JSON keys, the JSON key and the value paths of every cell
_CELLS = {ttype: tuple((tuple(m.value for m in key[:-1]), key[-1].value,
                        tuple(key + (name,) for name in names) or (key,))
                       for key in product(*levels))
          for ttype, (levels, names) in RECORD_SCHEMAS.items()}
# per table type: every value path, mapped to the paths of its cell
_CELL_OF = {ttype: {path: paths for *_keys, paths in cells for path in paths}
            for ttype, cells in _CELLS.items()}


def _dec_or_none(x) -> Optional[Decimal]:
    """``None``, or the finite decimal ``x`` spells; anything else is a SchemaError."""
    try:
        value = None if x is None else Decimal(str(x))
    except InvalidOperation:
        value = Decimal("NaN")
    if value is None or value.is_finite():
        return value
    raise SchemaError(f"record: not a number {x!r}")


def _parse_level(node, levels: tuple, names: tuple, prefix: tuple, where: str,
                 values: dict) -> None:
    """Store into ``values`` every cell under ``node``, the JSON object at ``prefix``."""
    level = levels[len(prefix)]
    for key, child in json_object(node, f"record: '{where}'").items():
        member = _MEMBERS[level].get(key)
        if member is None:
            raise SchemaError(f"record: unknown {_LEVEL_NAMES[level]} {key!r}")
        path = prefix + (member,)
        if len(path) < len(levels):
            _parse_level(child, levels, names, path, f"{where}.{key}", values)
        elif names:
            cell = json_object(child, f"record: '{where}.{key}'")
            for name in cell:
                if name not in names:
                    raise SchemaError(f"record: '{where}.{key}': unknown field {name!r}")
            for name in names:
                values[path + (name,)] = _dec_or_none(cell.get(name))
        else:
            values[path] = _dec_or_none(child)


class Record(Struct):
    """One typed table: a flat map from key path to value, ``None`` the missing marker.

    ``RECORD_SCHEMAS[ttype]`` fixes the paths, for example
    ``(Scenario.STRESS, Period.INITIAL, "refund")`` or ``(CostCategory.ENTRY,)``;
    building a record with any other path raises. A cell is all or nothing:
    once one of its values is given, the others are stored too, as ``None``.
    """
    ttype: TableType
    values: Mapping[tuple, Optional[Decimal]] = Factory(dict)

    def _check(self):
        cell_of = _CELL_OF[self.ttype]
        for path in self.values:
            if path not in cell_of:
                raise ValueError(f"record: {path!r} is no {self.ttype.value} path")
        self.__dict__["values"] = {p: self.values.get(p)
                                   for path in self.values for p in cell_of[path]}

    def to_dict(self) -> dict:
        text = {path: None if v is None else format(v, "f")  # fixed point, never scientific
                for path, v in self.values.items()}
        names = RECORD_SCHEMAS[self.ttype][1]
        out: dict = {}
        for parents, key, paths in _CELLS[self.ttype]:
            if paths[0] in text:
                node = out
                for parent in parents:
                    node = node.setdefault(parent, {})
                node[key] = (dict(zip(names, map(text.__getitem__, paths))) if names
                             else text[paths[0]])
        return {"entries": out}

    @classmethod
    def from_dict(cls, ttype: TableType, d: Mapping) -> "Record":
        """The ``ttype`` record a JSON object describes; any schema violation is a
        SchemaError led by ``record:``."""
        values: dict = {}
        _parse_level(d.get("entries", {}), *RECORD_SCHEMAS[ttype], (), "entries", values)
        record = object.__new__(cls)  # the walk stores whole cells on schema paths only
        record.__dict__.update(ttype=ttype, values=values)
        return record
