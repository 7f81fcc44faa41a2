"""Independent oracles the test suite checks the real implementations against.

These deliberately avoid the production code paths: the matcher oracle
walks the pattern AST enumerating whole derivations, the row oracle
implements the clustering definition set-wise, the number oracle is a
direct decision table for single-separator numerals, the number parser
and confusion repair oracles are the full parser and map without their
early return for digit-free text, the OCR association oracle scores every
OCR entry on the page, the tokenizer oracle scans the text one character
at a time, the sections oracle compares every header phrase at every token
position, the page detections oracle builds every box and entry one at a
time, the page dict is the JSON object the mask page writer must lay out,
the record oracle parses tables rows with one hand-written class per
table, and the rule lexer oracle reads a rule file one character at a
time. The canonical rule printer is the parser's round-trip reference,
``contains_center`` states the cell-assignment rule one cell and table at
a time, and ``dec_str`` renders the record oracle's decimals.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from typing import Mapping, Optional

from kidex import ruledsl
from kidex.annotate import PUNCT_CHARS, SECTION_KEY, tokenize
from kidex.model import (Annotation, BBox, CostCategory, Detection, DetectionClass, OcrEntry,
                         PageDetections, Period, Scenario, SchemaError, TableType,
                         enum_member, iou, json_object)
from kidex.normalize import ConfusionMap, strip_currency
from kidex.ruledsl import (Alt, AnnotateAction, AttrSet, Constraint, NamedGroup, PatternExpr,
                           Repeat, RuleFile, Seq, TokenRegex, VarRef)
from kidex.tabrec import enlarge_bbox


class TokenListCtx:
    """Minimal matching context over plain token texts plus optional annotations."""

    def __init__(self, texts, annotations=None):
        self.texts = list(texts)
        self.annotations = annotations or {}  # key -> {token_index: [values]}

    def token_text(self, i):
        return self.texts[i]

    def ann_values(self, key, i):
        return self.annotations.get(key, {}).get(i, [])

    def __len__(self):
        return len(self.texts)


def _constraint_ok(c: ruledsl.Constraint, ctx, pos, env) -> bool:
    if c.key == "word":
        text = ctx.token_text(pos)
        if c.kind == "lit":
            return text == c.value
        body = env[c.value].regex if c.kind == "ref" else c.value
        return re.fullmatch(body, text) is not None
    values = ctx.ann_values(c.key, pos)
    if c.kind == "lit":
        return c.value in values
    body = env[c.value].regex if c.kind == "ref" else c.value
    return any(re.fullmatch(body, v) for v in values)


def _derive(node, ctx, pos, caps, env):
    """Yield (end, captures) for every derivation, in backtracking preference order:
    ordered alternation, greedy prefers another iteration, lazy prefers stopping,
    and an unbounded-loop iteration must consume at least one token."""
    if isinstance(node, ruledsl.TokenRegex):
        if pos < len(ctx) and (node.wildcard
                               or re.fullmatch(node.body, ctx.token_text(pos))):
            yield pos + 1, caps
    elif isinstance(node, ruledsl.AttrSet):
        if pos < len(ctx) and all(_constraint_ok(c, ctx, pos, env) for c in node.constraints):
            yield pos + 1, caps
    elif isinstance(node, ruledsl.VarRef):
        binding = env[node.name]
        if binding.pattern is not None:
            yield from _derive(binding.pattern, ctx, pos, caps, env)
        elif pos < len(ctx) and re.fullmatch(binding.regex, ctx.token_text(pos)):
            yield pos + 1, caps
    elif isinstance(node, ruledsl.Seq):
        yield from _derive_seq(node.items, 0, ctx, pos, caps, env)
    elif isinstance(node, ruledsl.Alt):
        for option in node.options:
            yield from _derive(option, ctx, pos, caps, env)
    elif isinstance(node, ruledsl.NamedGroup):
        for end, c2 in _derive(node.body, ctx, pos, caps, env):
            yield end, {**c2, node.name: (pos, end)}
    elif isinstance(node, ruledsl.Repeat):
        yield from _derive_repeat(node, ctx, pos, caps, env, 0)
    else:
        raise TypeError(f"not a pattern node: {node!r}")


def _derive_seq(items, k, ctx, pos, caps, env):
    if k == len(items):
        yield pos, caps
        return
    for p2, c2 in _derive(items[k], ctx, pos, caps, env):
        yield from _derive_seq(items, k + 1, ctx, p2, c2, env)


def _derive_repeat(node, ctx, pos, caps, env, count):
    if count < node.lo:  # mandatory copies, zero-width allowed
        for p2, c2 in _derive(node.body, ctx, pos, caps, env):
            yield from _derive_repeat(node, ctx, p2, c2, env, count + 1)
        return
    if node.hi is None:
        # unbounded tail: iterations must make progress
        if node.lazy:
            yield pos, caps
        for p2, c2 in _derive(node.body, ctx, pos, caps, env):
            if p2 > pos:
                yield from _derive_repeat(node, ctx, p2, c2, env, count + 1)
        if not node.lazy:
            yield pos, caps
        return
    if count >= node.hi:
        yield pos, caps
        return
    # bounded optional copies behave like nested ?, zero-width allowed
    if node.lazy:
        yield pos, caps
    for p2, c2 in _derive(node.body, ctx, pos, caps, env):
        yield from _derive_repeat(node, ctx, p2, c2, env, count + 1)
    if not node.lazy:
        yield pos, caps


def brute_find(node, ctx: TokenListCtx, start: int = 0,
               bindings=()) -> Optional[tuple[int, int, dict]]:
    """Leftmost (start, end, captures) by full enumeration; None if no match."""
    env = {b.name: b for b in bindings}
    for s in range(start, len(ctx) + 1):
        for end, caps in _derive(node, ctx, s, {}, env):
            return s, end, caps
    return None


# ---------------------------------------------------------------------------
# Row clustering
# ---------------------------------------------------------------------------

def cluster_rows_oracle(tops: list[int], factor: float) -> list[list[int]]:
    """Anchored-chain clustering by definition: repeatedly take the lowest
    remaining top as anchor and collect everything within the factor of it.
    Returns a partition over input indices, rows by ascending anchor."""
    remaining = set(range(len(tops)))
    rows = []
    while remaining:
        anchor = min(remaining, key=lambda i: (tops[i], i))
        row = {i for i in remaining if tops[i] - tops[anchor] <= factor}
        rows.append(sorted(row))
        remaining -= row
    return rows


# ---------------------------------------------------------------------------
# Single-separator numeral formats
# ---------------------------------------------------------------------------

def expected_number(d1: str, d2: str, sep: Optional[str]) -> Optional[Decimal]:
    """Decision table for digit strings around at most one separator: a dot or
    a comma is grouping iff the digits after it are exactly 3, else decimal."""
    if not (d1 + d2):
        return None
    if sep is None:
        return Decimal(d1)
    if len(d2) == 3:
        return Decimal(d1 + d2)
    if not d2:
        return Decimal(d1)
    return Decimal((d1 or "0") + "." + d2)


# ``normalize_number`` and ``fix_confusions`` without their early return for text
# that holds no digit, so tests can show that the return changes no result.
_SEPARATOR_CHARS = set(" \t.,%€$£+-")


def fix_confusions_oracle(text: str, cmap: Optional[ConfusionMap] = None) -> str:
    cmap = cmap or ConfusionMap()
    core = [ch for ch in text if ch not in _SEPARATOR_CHARS]
    digits = sum(ch.isdigit() for ch in core)
    if not core or 2 * digits < len(core):
        return text
    return "".join(cmap.pairs.get(ch, ch) for ch in text)


def normalize_number_oracle(text: str) -> Optional[Decimal]:
    s = strip_currency(text).replace("\u2212", "-").strip()
    if s.endswith("%"):
        s = s[:-1]
    s = re.sub(r"\s+", "", s)
    negative = False
    if s[:1] in ("+", "-"):
        negative = s[0] == "-"
        s = s[1:]
    if not s or not any(ch.isdigit() for ch in s):
        return None
    if any(ch not in "0123456789.," for ch in s):
        return None

    has_dot = "." in s
    has_comma = "," in s
    if has_dot and has_comma:
        decimal_sep = "." if s.rfind(".") > s.rfind(",") else ","
        grouping_sep = "," if decimal_sep == "." else "."
        s = s.replace(grouping_sep, "")
        if s.count(decimal_sep) != 1:
            return None
        s = s.replace(decimal_sep, ".")
    elif has_dot or has_comma:
        sep = "." if has_dot else ","
        parts = s.split(sep)
        if len(parts) >= 2 and all(len(p) == 3 for p in parts[1:]):
            s = "".join(parts)
        elif len(parts) == 2:
            s = parts[0] + "." + parts[1]
        else:
            return None

    try:
        value = Decimal(s)
    except InvalidOperation:
        return None
    return -value if negative else value


# ---------------------------------------------------------------------------
# Label pools
# ---------------------------------------------------------------------------

_LABEL_PUNCT_RE = re.compile(r"[.,:;!?()\[\]{}\"'«»%€]")


def label_key_oracle(s: str) -> str:
    return re.sub(r"\s+", " ", _LABEL_PUNCT_RE.sub(" ", s)).strip().casefold()


def label_pool_oracle(text: str, pools: dict) -> Optional[object]:
    """Key of the first pool with a label in the text, one label at a time:
    both sides fold case, whitespace and punctuation, the label must sit at
    word boundaries, and a label that folds to nothing never matches."""
    hay = label_key_oracle(text)
    if not hay:
        return None
    for key, labels in pools.items():
        for label in labels:
            needle = label_key_oracle(label)
            if needle and re.search(r"(?<!\w)" + re.escape(needle) + r"(?!\w)", hay):
                return key
    return None


# ---------------------------------------------------------------------------
# Cell assignment
# ---------------------------------------------------------------------------

def contains_center(outer: BBox, inner: BBox) -> bool:
    """True iff the exact midpoint of ``inner`` lies in ``outer``, edges inclusive.

    The midpoint comparison is done in doubled integer coordinates, so a
    half-pixel center is handled exactly.
    """
    left, top, right, bottom = outer
    il, it, ir, ib = inner
    cx2 = il + ir
    cy2 = it + ib
    return 2 * left <= cx2 <= 2 * right and 2 * top <= cy2 <= 2 * bottom


# ---------------------------------------------------------------------------
# OCR association
# ---------------------------------------------------------------------------

def ocr_association_oracle(cell, ocr, cfg, page_w, page_h) -> Optional[str]:
    """All-pairs OCR association: every entry is scored against the enlarged
    cell, the first maximum in ``ocr`` order wins, and it must reach the
    IoU threshold."""
    enlarged = enlarge_bbox(cell, cfg, page_w, page_h)
    best_text, best_iou = None, 0.0
    for entry in ocr:
        score = iou(enlarged, entry.bbox)
        if score > best_iou:
            best_text, best_iou = entry.text, score
    if best_iou >= cfg.ocr_iou_threshold:
        return best_text
    return None


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

def tokenize_oracle(text: str, punct: set) -> tuple:
    """Whitespace runs by ``str.isspace``, one character at a time; edge
    characters from ``punct`` are peeled off a chunk as one-character tokens
    while at least one character is left."""
    tokens: list = []
    emit = tokens.append
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        end = pos
        while end < n and not text[end].isspace():
            end += 1
        i, j = pos, end
        trailing: list = []
        while j - i > 1 and text[i] in punct:
            emit(text[i])
            i += 1
        while j - i > 1 and text[j - 1] in punct:
            trailing.append(j - 1)
            j -= 1
        emit(text[i:j])
        for k in reversed(trailing):
            emit(text[k])
        pos = end
    return tuple(tokens)


def sections_oracle(doc, cfg) -> tuple:
    """The SECTION annotations ``annotate_sections`` should add to ``doc``.

    Every header phrase is re-tokenized and compared at every token
    position: candidates sort by (start, section rank, end, name), a
    candidate overlapping an earlier kept header is dropped, and each kept
    header's section runs to the token before the next one.
    """
    texts = [t.casefold() for t in doc.tokens]
    n = len(texts)
    candidates = []
    for rank, spec in enumerate(cfg.sections):
        for pattern in spec.header_patterns:
            key = [t.casefold() for t in tokenize(pattern)]
            while key and all(c in PUNCT_CHARS for c in key[0]):
                key.pop(0)
            while key and all(c in PUNCT_CHARS for c in key[-1]):
                key.pop()
            if not key:
                continue
            k = len(key)
            for i in range(n - k + 1):
                if texts[i:i + k] == key:
                    candidates.append((i, rank, i + k - 1, spec.name))
    candidates.sort()
    kept = []
    last_end = -1
    for start, _rank, end, name in candidates:
        if start > last_end:
            kept.append((start, name))
            last_end = end
    return tuple(Annotation(SECTION_KEY, name, start,
                            kept[idx + 1][0] - 1 if idx + 1 < len(kept) else n - 1, "system")
                 for idx, (start, name) in enumerate(kept))


# ---------------------------------------------------------------------------
# Page detections
# ---------------------------------------------------------------------------

def _finite_number(x) -> bool:
    return type(x) is int or (type(x) is float and math.isfinite(x))


def _oracle_box(d) -> BBox:
    if not isinstance(d, dict):
        raise TypeError("bbox is not an object")
    edges = [d["left"], d["top"], d["right"], d["bottom"]]
    if not all(map(_finite_number, edges)):
        raise TypeError("bbox edge is not a finite number")
    return BBox(*edges)


def _oracle_list(d, key) -> list:
    value = d.get(key, [])
    if not isinstance(value, list):
        raise TypeError(f"{key} is not a list")
    return value


def page_detections_oracle(d) -> PageDetections:
    """The per-entry loader chain: each detection, OCR entry and box is built
    on its own and the PageDetections constructor checks every box against
    the page. It adds the JSON types the chain itself never checked (string
    ``doc_id`` and ``text``, integer ``page``, finite numbers for the page
    size and the box edges). Any schema violation raises some exception."""
    if not isinstance(d["doc_id"], str) or type(d["page"]) is not int:
        raise TypeError("doc_id or page of the wrong type")
    if not (_finite_number(d["page_width"]) and _finite_number(d["page_height"])):
        raise TypeError("page size is not a finite number")
    detections = []
    for x in _oracle_list(d, "detections"):
        confidence = float(x["confidence"])
        detections.append(Detection(DetectionClass(x["class"]), confidence, _oracle_box(x["bbox"])))
    ocr = []
    for x in _oracle_list(d, "ocr"):
        if not isinstance(x["text"], str):
            raise TypeError("text is not a string")
        ocr.append(OcrEntry(_oracle_box(x["bbox"]), x["text"]))
    return PageDetections(d["doc_id"], d["page"], d["page_width"], d["page_height"],
                          tuple(detections), tuple(ocr))


def _box_dict(box: BBox) -> dict:
    return {"left": box.left, "top": box.top, "right": box.right, "bottom": box.bottom}


def page_detections_dict(page: PageDetections) -> dict:
    """The JSON object of a mask page, keys in file order; ``json.dumps`` of it with
    ``ensure_ascii=False, indent=2`` is what ``dump_page_detections`` must write."""
    return {
        "doc_id": page.doc_id,
        "page": page.page,
        "page_width": page.page_width,
        "page_height": page.page_height,
        "detections": [{"class": d.cls.value, "confidence": d.confidence,
                        "bbox": _box_dict(d.bbox)} for d in page.detections],
        "ocr": [{"bbox": _box_dict(o.bbox), "text": o.text} for o in page.ocr],
    }


# ---------------------------------------------------------------------------
# Typed records
# ---------------------------------------------------------------------------
# One class per table type, each with its own to_dict, from_dict and __eq__.
# A value is ``Decimal(str(x))``, so non-finite values parse, and unknown
# cell keys are ignored.

def dec_str(value: Decimal) -> str:
    """Fixed-point rendering of a decimal, never scientific notation."""
    return format(value, "f")


def _dec_or_none(x) -> Optional[Decimal]:
    if x is None:
        return None
    try:
        return Decimal(str(x))
    except InvalidOperation:
        raise SchemaError(f"record: not a number {x!r}") from None


@dataclass(frozen=True)
class ScenarioCell:
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


_ORACLE_RECORDS = {
    TableType.PERFORMANCE_SCENARIOS: PerformanceScenariosRecord,
    TableType.COSTS_EVOLUTION: CostsEvolutionRecord,
    TableType.COSTS_COMPOSITION: CostsCompositionRecord,
}


def record_oracle(ttype: TableType, d: Mapping):
    """The ``ttype`` record a tables-row ``record`` object describes, parsed by
    the reference class; a schema violation raises SchemaError."""
    return _ORACLE_RECORDS[ttype].from_dict(d)


# ---------------------------------------------------------------------------
# Rule lexer
# ---------------------------------------------------------------------------
# The character-at-a-time lexer the regex scanner replaced, kept verbatim but
# for its tokens, which are plain (kind, value, line, col) tuples. It reads
# any Unicode digit as part of an int token, where the scanner reads ASCII
# digits only.

_IDENT_START = re.compile(r"[A-Za-z_]")
_IDENT_CONT = re.compile(r"[A-Za-z0-9_]")
_OP_CHARS = set("()[]{}|&=:,?*+")


def lex_oracle(source: str) -> list[tuple[str, str, int, int]]:
    """Rule-file tokens; raises RuleParseError as the rule lexer does."""
    RuleParseError = ruledsl.RuleParseError
    toks: list[tuple[str, str, int, int]] = []
    i, line, col = 0, 1, 1
    n = len(source)

    def advance(k: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            while i < n and source[i] != "\n":
                advance()
            continue
        start_line, start_col = line, col
        if ch == "/":
            advance()
            body: list[str] = []
            while i < n and source[i] != "/":
                if source[i] == "\n":
                    raise RuleParseError("unterminated token regex", start_line, start_col)
                if source[i] == "\\" and i + 1 < n:
                    nxt = source[i + 1]
                    body.append("/" if nxt == "/" else "\\" + nxt)
                    advance(2)
                else:
                    body.append(source[i])
                    advance()
            if i >= n:
                raise RuleParseError("unterminated token regex", start_line, start_col)
            advance()
            toks.append(("regex", "".join(body), start_line, start_col))
            continue
        if ch == '"':
            advance()
            body = []
            while i < n and source[i] != '"':
                if source[i] == "\n":
                    raise RuleParseError("unterminated string", start_line, start_col)
                if source[i] == "\\" and i + 1 < n:
                    nxt = source[i + 1]
                    body.append(nxt if nxt in '"\\' else "\\" + nxt)
                    advance(2)
                else:
                    body.append(source[i])
                    advance()
            if i >= n:
                raise RuleParseError("unterminated string", start_line, start_col)
            advance()
            toks.append(("string", "".join(body), start_line, start_col))
            continue
        if ch == "$":
            advance()
            if i >= n or not _IDENT_START.match(source[i]):
                raise RuleParseError("expected a name after '$'", start_line, start_col)
            s = i
            while i < n and _IDENT_CONT.match(source[i]):
                advance()
            toks.append(("pname", source[s:i], start_line, start_col))
            continue
        if ch.isdigit():
            s = i
            while i < n and source[i].isdigit():
                advance()
            toks.append(("int", source[s:i], start_line, start_col))
            continue
        if _IDENT_START.match(ch):
            s = i
            while i < n and _IDENT_CONT.match(source[i]):
                advance()
            toks.append(("ident", source[s:i], start_line, start_col))
            continue
        if ch in _OP_CHARS:
            if ch in "*+" and i + 1 < n and source[i + 1] == "?":
                toks.append(("op", ch + "?", start_line, start_col))
                advance(2)
            else:
                toks.append(("op", ch, start_line, start_col))
                advance()
            continue
        raise RuleParseError(f"unexpected character {ch!r}", start_line, start_col)
    toks.append(("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# Canonical printer
# ---------------------------------------------------------------------------

_ALT, _SEQ, _QUANT, _ATOM = range(4)


def _escape_regex_body(body: str) -> str:
    """Escape each bare ``/``; existing escapes pass through whole."""
    return re.sub(r"(\\.)|/", lambda m: m[1] or "\\/", body, flags=re.DOTALL)


def _escape_string(body: str) -> str:
    return body.replace("\\", "\\\\").replace('"', '\\"')


def _print_constraint(c: Constraint) -> str:
    if c.kind == "lit":
        return '{%s:"%s"}' % (c.key, _escape_string(c.value))
    if c.kind == "regex":
        return "{%s:/%s/}" % (c.key, _escape_regex_body(c.value))
    return "{%s:$%s}" % (c.key, c.value)


def print_pattern(node: PatternExpr, prec: int = _ALT) -> str:
    if isinstance(node, TokenRegex):
        return "/%s/" % _escape_regex_body(node.body)
    if isinstance(node, AttrSet):
        return "[%s]" % " & ".join(_print_constraint(c) for c in node.constraints)
    if isinstance(node, VarRef):
        return "$" + node.name
    if isinstance(node, NamedGroup):
        return "(?$%s %s)" % (node.name, print_pattern(node.body, _ALT))
    if isinstance(node, Seq):
        if not node.items:
            return "()"
        text = " ".join(print_pattern(item, _QUANT) for item in node.items)
        return "(%s)" % text if prec > _SEQ else text
    if isinstance(node, Alt):
        text = " | ".join(print_pattern(o, _SEQ) for o in node.options)
        return "(%s)" % text if prec > _ALT else text
    if isinstance(node, Repeat):
        suffixes = {(0, 1, False): "?", (0, None, False): "*", (1, None, False): "+",
                    (0, None, True): "*?", (1, None, True): "+?"}
        suffix = suffixes.get((node.lo, node.hi, node.lazy), "{%d,%d}" % (node.lo, node.hi or 0))
        text = print_pattern(node.body, _ATOM) + suffix
        return "(%s)" % text if prec > _QUANT else text
    raise TypeError(f"not a pattern node: {node!r}")


def _print_action(action: AnnotateAction) -> str:
    value = "CAPTURED_TEXT" if action.value is None else '"%s"' % _escape_string(action.value)
    if action.group is None:
        return "Annotate(%s, %s)" % (action.key, value)
    return "Annotate($%s, %s, %s)" % (action.group, action.key, value)


def print_rules(rule_file: RuleFile) -> str:
    """Canonical textual form; parse(print_rules(parse(s))) == parse(s)."""
    lines: list[str] = []
    for binding in rule_file.bindings:
        if binding.pattern is not None:
            lines.append("$%s = ( %s )" % (binding.name, print_pattern(binding.pattern, _ALT)))
        else:
            lines.append('$%s = "/%s/"' % (binding.name,
                                           _escape_string(_escape_regex_body(binding.regex))))
    for rule in rule_file.rules:
        parts = ['ruleType: "tokens"',
                 "pattern: ( %s )" % print_pattern(rule.pattern, _ALT),
                 "action: ( %s )" % ", ".join(_print_action(a) for a in rule.actions)]
        if rule.stage:
            parts.append("stage: %d" % rule.stage)
        lines.append("{ %s }" % ", ".join(parts))
    return "\n".join(lines) + "\n"
