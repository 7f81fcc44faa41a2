"""Shared test utilities: document builders and the bounded random pattern space."""
from __future__ import annotations

import random

from kidex import ruledsl
from kidex.model import Document

ALPHABET = "abcd"

# a small fixed environment so random patterns exercise binding references:
# a char-regex binding and a two-token pattern binding, all within the alphabet
STD_BINDINGS = (
    ruledsl.Binding("w", regex="a|b"),
    ruledsl.Binding("P", pattern=ruledsl.Seq((ruledsl.TokenRegex("c"),
                                              ruledsl.TokenRegex("d")))),
)


def make_doc(texts, doc_id="doc") -> Document:
    """Document whose tokens are exactly ``texts``, single-space separated."""
    return Document(doc_id, " ".join(texts), tuple(texts))


def rand_pattern(rng: random.Random, depth: int) -> ruledsl.PatternExpr:
    """Random pattern within the bounded space: alphabet <= 4, quantifier bounds <= 3."""
    if depth <= 0 or rng.random() < 0.4:
        r = rng.random()
        if r < 0.4:
            return ruledsl.TokenRegex(rng.choice(ALPHABET))
        if r < 0.55:
            return ruledsl.TokenRegex(rng.choice(ALPHABET) + "|" + rng.choice(ALPHABET))
        if r < 0.65:
            return ruledsl.TokenRegex("*")
        if r < 0.75:
            return ruledsl.VarRef(rng.choice(("w", "P")))
        if r < 0.85:
            return ruledsl.AttrSet((ruledsl.Constraint("word", "ref", "w"),))
        return ruledsl.AttrSet((ruledsl.Constraint("word", "lit", rng.choice(ALPHABET)),))
    r = rng.random()
    if r < 0.3:
        return ruledsl.Seq(tuple(rand_pattern(rng, depth - 1)
                                 for _ in range(rng.randrange(2, 4))))
    if r < 0.55:
        return ruledsl.Alt(tuple(rand_pattern(rng, depth - 1)
                                 for _ in range(rng.randrange(2, 4))))
    if r < 0.75:
        return ruledsl.NamedGroup(f"g{rng.randrange(3)}", rand_pattern(rng, depth - 1))
    choice = rng.random()
    if choice < 0.4:
        lo = rng.randrange(0, 2)
        hi, lazy = None, rng.random() < 0.5
    elif choice < 0.6:
        lo, hi, lazy = 0, 1, False
    else:
        lo = rng.randrange(0, 3)
        hi, lazy = min(lo + rng.randrange(0, 4 - lo), 3), False
    return ruledsl.Repeat(rand_pattern(rng, depth - 1), lo, hi, lazy)


def rand_tokens(rng: random.Random, max_len: int = 8) -> list[str]:
    return [rng.choice(ALPHABET) for _ in range(rng.randrange(0, max_len + 1))]
