"""Execution of compiled token rules over annotated documents.

Semantics are those of a backtracking matcher: ordered alternation, greedy
``* +`` and lazy ``*? +?``, leftmost match wins. A quantifier iteration
that consumes no token is discarded (the loop exits instead), so patterns
like ``(/a/?)*`` terminate. Matches of one rule never overlap: scanning
resumes after the previous match, or one token further for empty matches.
"""
from __future__ import annotations

import csv
import io
import json
import operator
from bisect import bisect_left
from itertools import compress, islice
from pathlib import Path
from typing import Iterable, Mapping, Optional

from .model import Annotation, Document, Struct, read_jsonl, read_utf8
from .ruledsl import (OP_GEND, OP_JMP, OP_MATCH, OP_PRED, OP_PROGRESS, OP_SETPOS, OP_SPLIT,
                      CompiledPattern, CompiledRule, CompiledRules)

BACKTRACK_STEP_LIMIT = 10 ** 6


class RuleComplexityError(RuntimeError):
    """A rule exceeded the backtracking budget at one start token."""

    def __init__(self, rule_id: str):
        self.rule_id = rule_id
        super().__init__(f"rule {rule_id}: backtracking exceeded "
                         f"{BACKTRACK_STEP_LIMIT} steps at one start position")


class Match(Struct):
    """A rule match; spans are half-open token index ranges."""
    rule_id: str
    start: int
    end: int
    captures: Mapping[str, tuple[int, int]]

    def __init__(self, rule_id: str, start: int, end: int,
                 captures: Mapping[str, tuple[int, int]]):
        self.__dict__.update(rule_id=rule_id, start=start, end=end, captures=captures)


class ExtractionResult(Struct):
    """One extracted field; the token range is the annotated capture, inclusive."""
    doc_id: str
    field: str
    value: str
    tag: str
    first_token: int
    last_token: int
    rule_id: str

    def __init__(self, doc_id: str, field: str, value: str, tag: str, first_token: int,
                 last_token: int, rule_id: str):
        self.__dict__.update(doc_id=doc_id, field=field, value=value, tag=tag,
                             first_token=first_token, last_token=last_token, rule_id=rule_id)

    def to_dict(self) -> dict:
        return dict(zip(CSV_COLUMNS, _columns(self)))


# the columns of both export formats, in order
CSV_COLUMNS = ExtractionResult._fields
_columns = operator.attrgetter(*CSV_COLUMNS)


class DocContext:
    """The tokens plus a per-token annotation index the predicates query."""

    def __init__(self, doc: Document):
        self.doc = doc
        self.texts = doc.tokens
        self._index: dict[str, dict[int, list[str]]] = {}
        self._starts: dict[CompiledPattern, list[int]] = {}
        for ann in doc.annotations:
            self.add_annotation(ann)

    def add_annotation(self, ann: Annotation) -> None:
        per_token = self._index.setdefault(ann.key, {})
        for i in range(ann.first, ann.last + 1):
            per_token.setdefault(i, []).append(ann.value)

    def ann_values(self, key: str, i: int) -> list[str]:
        return self._index.get(key, {}).get(i, [])

    def __len__(self) -> int:
        return len(self.texts)

    def candidate_starts(self, pattern: CompiledPattern) -> list[int]:
        """Ascending offsets whose token text may pass ``pattern``'s prefilter.

        Built once per pattern: texts never change, and annotations are left
        to the exact prefilter test at each candidate.
        """
        starts = self._starts.get(pattern)
        if starts is None:
            flags = list(map(pattern.first_text_memo.get, self.texts))
            if None in flags:
                may_start = pattern.may_start
                flags = [may_start(t) if f is None else f for t, f in zip(self.texts, flags)]
            starts = self._starts[pattern] = list(compress(range(len(flags)), flags))
        return starts


def _attempt(pattern: CompiledPattern, ctx: DocContext, start: int,
             rule_id: str) -> Optional[tuple[int, dict[str, tuple[int, int]]]]:
    """Run the program anchored at ``start``; (end, captures) or None."""
    instrs = pattern.instrs
    n = len(ctx)
    pc, pos = 0, start
    caps: dict[str, tuple[int, int]] = {}
    regs: dict = {}
    stack: list = []
    steps = 0
    while True:
        steps += 1
        if steps > BACKTRACK_STEP_LIMIT:
            raise RuleComplexityError(rule_id)
        op, a, b = instrs[pc]
        if op == OP_PRED:
            if pos < n and a.test(ctx, pos):
                pos += 1
                pc += 1
                continue
        elif op == OP_SPLIT:
            stack.append((b, pos, dict(caps), dict(regs)))
            pc = a
            continue
        elif op == OP_JMP:
            pc = a
            continue
        elif op == OP_SETPOS:
            regs[a] = pos
            pc += 1
            continue
        elif op == OP_GEND:
            caps[a] = (regs[b], pos)
            pc += 1
            continue
        elif op == OP_PROGRESS:
            if pos > regs[a]:
                pc += 1
                continue
        elif op == OP_MATCH:
            return pos, caps
        # failed: backtrack
        if not stack:
            return None
        pc, pos, caps, regs = stack.pop()


def find_matches(pattern: CompiledPattern, doc: Document | DocContext,
                 start: int = 0, rule_id: str = "pattern") -> Optional[Match]:
    """Leftmost match at or after ``start`` under backtracking semantics."""
    ctx = doc if isinstance(doc, DocContext) else DocContext(doc)
    n = len(ctx)
    first = pattern.first_preds
    if first is None:
        offsets = range(start, n + 1)
    else:
        starts = ctx.candidate_starts(pattern)
        offsets = islice(starts, bisect_left(starts, start), None)
    for s in offsets:
        if first is not None and not any(p.test(ctx, s) for p in first):
            continue
        hit = _attempt(pattern, ctx, s, rule_id)
        if hit is not None:
            end, caps = hit
            return Match(rule_id, s, end, caps)
    return None


def _fire_actions(rule: CompiledRule, match: Match, ctx: DocContext,
                  new_annotations: list[Annotation],
                  results: list[ExtractionResult]) -> None:
    for action in rule.actions:
        if action.group is None:
            span = (match.start, match.end)
        else:
            span = match.captures.get(action.group)
        if span is None or span[0] >= span[1]:
            continue  # group not executed, or captured nothing
        first, last = span[0], span[1] - 1
        value = " ".join(ctx.texts[first:last + 1])
        tag = action.value if action.value is not None else value
        ann = Annotation(action.key, tag, first, last, rule.rule_id)
        ctx.add_annotation(ann)
        new_annotations.append(ann)
        results.append(ExtractionResult(ctx.doc.doc_id, action.key, value, tag,
                                        first, last, rule.rule_id))


def run_rules(compiled: CompiledRules, doc: Document) -> tuple[Document, list[ExtractionResult]]:
    """Apply stages in ascending order, rules in file order within a stage.

    Annotations written by earlier rules and stages are visible to later
    patterns. For each rule, matches are collected left to right and never
    overlap. Duplicate extractions (same field and token span) are dropped.
    """
    ctx = DocContext(doc)
    n = len(ctx)
    new_annotations: list[Annotation] = []
    results: list[ExtractionResult] = []
    for _stage, rules in compiled.stages:
        for rule in rules:
            s = 0
            while s <= n:
                match = find_matches(rule.pattern, ctx, s, rule.rule_id)
                if match is None:
                    break
                _fire_actions(rule, match, ctx, new_annotations, results)
                s = match.end if match.end > match.start else match.start + 1

    seen: set[tuple[str, int, int]] = set()
    deduped = []
    for r in results:
        key = (r.field, r.first_token, r.last_token)
        if key in seen:
            continue
        seen.add(key)
        deduped.append(r)
    return doc.with_annotations(new_annotations), deduped


def render_results_csv(results: Iterable[ExtractionResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)  # "\r\n" line endings per RFC 4180
    writer.writerow(CSV_COLUMNS)
    writer.writerows(map(_columns, results))
    return buf.getvalue()


def render_results_jsonl(results: Iterable[ExtractionResult]) -> str:
    return "".join(json.dumps(r.to_dict(), ensure_ascii=False) + "\n" for r in results)


def export_results(results: Iterable[ExtractionResult], format: str,
                   dest: str | Path) -> Path:
    """Write results as CSV (RFC 4180) or JSONL with identical keys."""
    if format not in ("csv", "jsonl"):
        raise ValueError(f"unknown export format {format!r}")
    text = render_results_csv(results) if format == "csv" else render_results_jsonl(results)
    dest = Path(dest)
    dest.write_text(text, encoding="utf-8", newline="")
    return dest


def read_results_file(path: str | Path) -> list[dict]:
    """Read back an exported results file (either format) as dicts."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        text = read_utf8(path)
        # no field is longer than the file's text; the limit is process-wide, so only raised
        csv.field_size_limit(max(csv.field_size_limit(), len(text)))
        return [dict(row) for row in csv.DictReader(io.StringIO(text, newline=""))]
    return [row for _lineno, row in read_jsonl(path)]
