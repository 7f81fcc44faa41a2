"""Cleaning of raw extracted text into a normalized, tokenizable form.

The upstream PDF-to-text step is out of scope: input is either a plain
UTF-8 text file or a page-text JSON file ``{"doc_id": ..., "pages": [...]}``.
"""
from __future__ import annotations

import re
from pathlib import Path
from typing import Optional

from .model import Document, SchemaError, json_fields, parse_json_object, read_utf8


LIGATURES = {"ﬁ": "fi", "ﬂ": "fl", "ﬀ": "ff", "ﬃ": "ffi", "ﬄ": "ffl"}

# letter "-" newline letter; a blank line after the hyphen never joins
_DEHYPHEN_RE = re.compile(r"(?<=[^\W\d_])-\n(?=[^\W\d_])", re.UNICODE)
_HSPACE_RE = re.compile(r"[ \t]{2,}|\t")
_MANY_NEWLINES_RE = re.compile(r"\n{3,}")
# Unicode category Cc except newline and tab; tabs are folded to spaces by
# the collapse step
_CONTROL_RE = re.compile(r"[\x00-\x08\x0b-\x1f\x7f-\x9f]")


def normalize_text(raw: str) -> str:
    """Deterministic cleanup: control chars, ligatures, line-break hyphens, whitespace."""
    text = _CONTROL_RE.sub("", raw)
    for lig, repl in LIGATURES.items():
        text = text.replace(lig, repl)
    text = _DEHYPHEN_RE.sub("", text)
    text = _HSPACE_RE.sub(" ", text)
    return _MANY_NEWLINES_RE.sub("\n\n", text)


def _parse_page_file(raw: str, path: Path) -> tuple[Optional[str], list[str]]:
    data = json_fields(parse_json_object(raw, path), str(path), ("pages",))
    pages = data["pages"]
    if not isinstance(pages, list):
        raise SchemaError(f"{path}: field 'pages' must be a list of strings")
    for i, page in enumerate(pages):
        if not isinstance(page, str):
            raise SchemaError(f"{path}: field 'pages[{i}]' must be a string")
    doc_id = data.get("doc_id")
    if doc_id is not None and not isinstance(doc_id, str):
        raise SchemaError(f"{path}: field 'doc_id' must be a string")
    return doc_id, pages


def load_document(doc_id: str, source: str | Path) -> Document:
    """Load and normalize a plain-text or page-text file into an untokenized Document.

    Page-text files (``.json``) record page-break offsets: each page is
    normalized on its own, pages are joined with a single newline, and the
    offset where each later page begins is kept. A ``doc_id`` inside the
    file takes precedence over the argument.
    """
    path = Path(source)
    raw = read_utf8(path)
    if path.suffix.lower() == ".json":
        file_doc_id, pages = _parse_page_file(raw, path)
        normed = [normalize_text(p) for p in pages]
        text = "\n".join(normed)
        breaks: list[int] = []
        pos = 0
        for page in normed[:-1]:
            pos += len(page) + 1
            breaks.append(pos)
        return Document(doc_id=file_doc_id or doc_id, text=text, pages=tuple(breaks))
    return Document(doc_id=doc_id, text=normalize_text(raw))
