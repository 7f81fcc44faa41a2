r"""Tokenization and system annotations (document sections).

Tokens split on whitespace: each maximal run of characters for which
``str.isspace()`` is false (in ``str`` patterns ``\s`` is exactly that set)
is a chunk. Leading/trailing punctuation is peeled off a chunk as
single-character tokens so cues like ``ISIN :`` and ``12,5 %`` become
separate tokens while interior punctuation (``1.234,56``, ``CH0524993752``)
stays put. One regex scan does both: a token is one punctuation character,
or a run of non-space characters that starts and ends with a character that
is neither space nor punctuation.
"""
from __future__ import annotations

import re
from functools import cached_property
from pathlib import Path

from .model import (DATA, Annotation, Document, SchemaError, Struct, json_fields,
                    json_strings, parse_json_object, read_utf8)

SECTION_KEY = "SECTION"

PUNCT_CHARS = set(".,:;!?()[]{}\"'«»%€")

_PUNCT = re.escape("".join(sorted(PUNCT_CHARS)))
_TOKEN_RE = re.compile(rf"[{_PUNCT}]|[^\s{_PUNCT}](?:\S*[^\s{_PUNCT}])?")


def tokenize(text: str) -> tuple[str, ...]:
    return tuple(_TOKEN_RE.findall(text))


def tokenize_document(doc: Document) -> Document:
    return doc.with_tokens(tokenize(doc.text))


class SectionSpec(Struct):
    name: str
    header_patterns: tuple[str, ...]


class SectionConfig(Struct):
    sections: tuple[SectionSpec, ...]

    def _check(self):
        names = [s.name for s in self.sections]
        if len(set(names)) != len(names):
            raise ValueError("section names must be unique")
        for s in self.sections:
            if not s.header_patterns:
                raise ValueError(f"section {s.name}: needs at least one header pattern")

    @cached_property
    def _header_index(self) -> dict[str, list[tuple[tuple[str, ...], int, str]]]:
        """Header keys by first token: ``{first: [(key, rank, name), ...]}``."""
        index: dict[str, list[tuple[tuple[str, ...], int, str]]] = {}
        for rank, spec in enumerate(self.sections):
            for pattern in spec.header_patterns:
                key = _header_key(pattern)
                if key:
                    index.setdefault(key[0], []).append((key, rank, spec.name))
        return index

    @classmethod
    def from_dict(cls, d) -> "SectionConfig":
        d = json_fields(d, "section config", ("sections",), optional=())
        if not isinstance(d["sections"], list):
            raise SchemaError("section config: 'sections': expected a list of objects")
        specs = []
        for i, entry in enumerate(d["sections"]):
            at = f"sections[{i}]"
            entry = json_fields(entry, f"section config: '{at}'", SectionSpec._fields,
                                optional=())
            name = entry["name"]
            if not isinstance(name, str):
                raise SchemaError(f"section config: '{at}.name': expected a string, got {name!r}")
            patterns = json_strings(entry["header_patterns"],
                                    f"section config: '{at}.header_patterns'")
            specs.append(SectionSpec(name, patterns))
        try:
            return cls(tuple(specs))
        except ValueError as e:
            raise SchemaError(f"section config: {e}") from None


def load_section_config(path: str | Path) -> SectionConfig:
    return SectionConfig.from_dict(parse_json_object(read_utf8(path), path))


def default_section_config() -> SectionConfig:
    return load_section_config(DATA / "sections.json")


def _header_key(pattern: str) -> tuple[str, ...]:
    """Casefolded tokens of a header phrase, edge punctuation dropped."""
    toks = [t.casefold() for t in tokenize(pattern)]
    while toks and all(c in PUNCT_CHARS for c in toks[0]):
        toks.pop(0)
    while toks and all(c in PUNCT_CHARS for c in toks[-1]):
        toks.pop()
    return tuple(toks)


def annotate_sections(doc: Document, cfg: SectionConfig) -> Document:
    """Attach one SECTION annotation per matched header, running to the next header.

    Header matching is case-insensitive on token sequences; when matched
    header phrases overlap, the earlier one wins and the later is dropped.
    The phrases are keyed by their first token once per config, so one
    pass over the tokens compares only the phrases that start at each one.
    """
    texts = tuple(t.casefold() for t in doc.tokens)
    n = len(texts)
    index = cfg._header_index
    candidates: list[tuple[int, int, int, str]] = []  # (start, rank, end, name)
    for i, text in enumerate(texts):
        for key, rank, name in index.get(text, ()):
            if texts[i:i + len(key)] == key:
                candidates.append((i, rank, i + len(key) - 1, name))
    candidates.sort()

    kept: list[tuple[int, int, str]] = []  # (start, header_end, name)
    last_end = -1
    for start, _rank, end, name in candidates:
        if start <= last_end:
            continue
        kept.append((start, end, name))
        last_end = end

    annotations = []
    for idx, (start, _hend, name) in enumerate(kept):
        stop = kept[idx + 1][0] - 1 if idx + 1 < len(kept) else n - 1
        annotations.append(Annotation(SECTION_KEY, name, start, stop, "system"))
    return doc.with_annotations(annotations)
