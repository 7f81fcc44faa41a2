"""Deterministic cleanup of OCR cell text: numeric formats, currency, confusions.

Numbers are returned as exact decimals; percents are returned as printed
(``12,5%`` gives 12.5, not 0.125) and the percent flag is the caller's
business. A dot and a comma follow one rule: separators of one kind that
split the digits into 3-digit groups after the first are grouping, and a
lone one that does not is the decimal mark.
"""
from __future__ import annotations

import re
from decimal import Decimal, InvalidOperation
from typing import Optional

from .model import Factory, SchemaError, Struct, json_fields, json_object

_CURRENCY_RE = re.compile(r"[€$£]|(?i:\b(?:EUR|USD|GBP|CHF)\b)")
_MULTISPACE_RE = re.compile(r" {2,}")

# deletes the chars ignored when deciding whether a string is "mostly digits"
_DROP_SEPARATORS = str.maketrans("", "", " \t.,%€$£+-")
# deletes the chars a number may hold once sign, percent and spaces are gone
_DROP_NUMERIC = str.maketrans("", "", "0123456789.,")


class ConfusionMap(Struct):
    """Char-for-char OCR repairs, by default the slash-for-seven confusion."""
    pairs: dict = Factory(lambda: {"/": "7"})

    def _check(self):
        if set(self.pairs.values()) & set(self.pairs.keys()):
            raise ValueError("confusion map must be acyclic: a target char cannot also be a source")
        # not a field: the pairs as the str.translate table fix_confusions applies
        self.__dict__["_table"] = str.maketrans(self.pairs)

    @classmethod
    def from_dict(cls, d, where: str) -> "ConfusionMap":
        """The map JSON object ``d`` describes, a key it leaves out at its default; a
        fault is a SchemaError led by ``where``."""
        d = json_fields(d, where, optional=cls._fields)
        for source, target in json_object(d.get("pairs", {}), f"{where}: 'pairs'").items():
            if len(source) != 1 or not isinstance(target, str) or len(target) != 1:
                raise SchemaError(f"{where}: 'pairs': expected one character for one character, "
                                  f"got {source!r}: {target!r}")
        try:
            return cls(**d)
        except ValueError as e:
            raise SchemaError(f"{where}: {e}") from None


def fix_confusions(text: str, cmap: Optional[ConfusionMap] = None) -> str:
    """Apply the confusion map to a digit-heavy string; return any other unchanged."""
    if not any(map(str.isdigit, text)):  # most label cells: nothing is numeric
        return text
    core = text.translate(_DROP_SEPARATORS)
    if not core or 2 * sum(map(str.isdigit, core)) < len(core):
        return text
    return text.translate((cmap or ConfusionMap())._table)


def strip_currency(text: str) -> str:
    """Drop currency symbols and ISO codes (word-bounded), collapsing double spaces."""
    out = _CURRENCY_RE.sub("", text)
    return (_MULTISPACE_RE.sub(" ", out) if "  " in out else out).strip()


def _grouped_ok(parts: list[str]) -> bool:
    """True when parts look like thousands grouping: 3-digit groups after the first.

    The first group is unconstrained (it may even be empty, as when OCR
    leaves a stray leading separator); only the later groups must be
    exactly three digits.
    """
    return len(parts) >= 2 and all(len(p) == 3 for p in parts[1:])


def normalize_number(text: str) -> Optional[Decimal]:
    """Parse a numeric string to an exact decimal; None when unparseable.

    Steps: currency stripping; sign normalization; then separator
    resolution. With both separators present the rightmost is the decimal
    mark. With a single kind, dot or comma alike, the separators are
    grouping when they partition the digits into exact 3-digit groups after
    the first, else a lone separator is decimal, else the text is no number.
    """
    if not any(map(str.isdigit, text)):  # the steps below never add a digit
        return None
    s = strip_currency(text).replace("\u2212", "-").strip()
    if s.endswith("%"):
        s = s[:-1]
    s = "".join(s.split())
    negative = False
    if s[:1] in ("+", "-"):
        negative = s[0] == "-"
        s = s[1:]
    if s.translate(_DROP_NUMERIC):
        return None

    if "." in s and "," in s:
        decimal_sep = "." if s.rfind(".") > s.rfind(",") else ","
        grouping_sep = "," if decimal_sep == "." else "."
        s = s.replace(grouping_sep, "")
        if s.count(decimal_sep) != 1:
            return None
        s = s.replace(decimal_sep, ".")
    else:  # at most one kind of separator, read alike
        parts = s.replace(",", ".").split(".")
        if _grouped_ok(parts):
            s = "".join(parts)
        elif len(parts) > 2:
            return None
        else:
            s = ".".join(parts)

    try:
        value = Decimal(s)
    except InvalidOperation:
        return None
    return -value if negative else value
