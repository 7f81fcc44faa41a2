"""Token-level extraction-rule language: parser and compiler.

A rule file is a sequence of bindings and rules::

    $StartISIN = (
        /ISIN/ /:/ |
        /Codice/ /del/ /Prodotto|prodotto/ /:/
    )
    $code = "/([A-Za-z][A-Za-z][0-9]{10})/"
    {
        ruleType: "tokens",
        pattern: ( ($StartISIN) (?$CodeISIN [{word:$code} & {SECTION:"SECTION_PRODUCT"}]+?) (/*/) ),
        action: ( Annotate($CodeISIN, ISIN, "ISIN") )
    }

Pattern atoms match whole tokens: ``/regex/`` anchors a character regex
against the token text, ``/*/`` matches any token, ``[{key:value} & ...]``
is a conjunction over token text (key ``word``) and annotations, ``$name``
references an earlier binding. ``| ? * + *? +? {n,m}`` behave as in
backtracking regexes with ordered alternation. Line comments start ``//``.

Compilation turns each pattern into a small instruction program over token
predicates with capture slots; execution lives in :mod:`kidex.matcher`.
"""
from __future__ import annotations

import re
import warnings
from typing import Iterable, NamedTuple, Optional

from .model import Struct


class RuleError(ValueError):
    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = f"line {line}, column {col}: " if line is not None else ""
        super().__init__(where + message)


class RuleParseError(RuleError):
    pass


class RuleCompileError(RuleError):
    pass


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class Tok(NamedTuple):
    kind: str  # pname | ident | int | string | regex | op | eof
    value: str
    line: int
    col: int


# one alternative per token kind; each holds exactly one group, named after
# its kind, so ``lastgroup`` is the kind and the group is the token's value
_TOKEN_RE = re.compile(r"""
      (?P<skip> [ \t\r\n]+ | //[^\n]* )
    | / (?P<regex> (?: \\[\s\S] | [^/\\\n] )* ) /
    | " (?P<string> (?: \\[\s\S] | [^"\\\n] )* ) "
    | \$ (?P<pname> [A-Za-z_][A-Za-z0-9_]* )
    | (?P<int> [0-9]+ )
    | (?P<ident> [A-Za-z_][A-Za-z0-9_]* )
    | (?P<op> [*+]\?? | [()\[\]{}|&=:,?] )
""", re.VERBOSE)

# what a character that starts no token means
_LEX_ERRORS = {"/": "unterminated token regex", '"': "unterminated string",
               "$": "expected a name after '$'"}

_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def _unescape(body: str, chars: str) -> str:
    """Drop the backslash before each of ``chars``; every other escape is kept."""
    return _ESCAPE_RE.sub(lambda m: m[1] if m[1] in chars else m[0], body)


_UNESCAPE = {"regex": "/", "string": '"\\'}


def _lex(source: str) -> list[Tok]:
    toks: list[Tok] = []
    pos, line, line_start = 0, 1, 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            ch = source[pos]
            raise RuleParseError(_LEX_ERRORS.get(ch, f"unexpected character {ch!r}"),
                                 line, pos - line_start + 1)
        kind = m.lastgroup
        if kind != "skip":
            value = m[kind]
            if kind in _UNESCAPE:
                value = _unescape(value, _UNESCAPE[kind])
            toks.append(Tok(kind, value, line, pos - line_start + 1))
        newlines = source.count("\n", pos, m.end())
        if newlines:
            line += newlines
            line_start = source.rindex("\n", pos, m.end()) + 1
        pos = m.end()
    toks.append(Tok("eof", "", line, pos - line_start + 1))
    return toks


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

class TokenRegex(Struct):
    """Character regex anchored against the whole token text; body ``*`` is the any-token wildcard."""
    body: str
    pos: Optional[tuple[int, int]] = None
    _uncompared = ("pos",)

    @property
    def wildcard(self) -> bool:
        return self.body == "*"


class Constraint(Struct):
    """One ``{key:value}`` clause; ``kind`` is lit, regex or ref."""
    key: str
    kind: str
    value: str
    pos: Optional[tuple[int, int]] = None
    _uncompared = ("pos",)


class AttrSet(Struct):
    constraints: tuple[Constraint, ...]
    pos: Optional[tuple[int, int]] = None
    _uncompared = ("pos",)


class VarRef(Struct):
    name: str
    pos: Optional[tuple[int, int]] = None
    _uncompared = ("pos",)


class NamedGroup(Struct):
    name: str
    body: "PatternExpr"
    pos: Optional[tuple[int, int]] = None
    _uncompared = ("pos",)


class Seq(Struct):
    items: tuple["PatternExpr", ...]


class Alt(Struct):
    options: tuple["PatternExpr", ...]


class Repeat(Struct):
    """Quantifier: ``hi`` is None for unbounded; ``lazy`` only for *? and +?."""
    body: "PatternExpr"
    lo: int
    hi: Optional[int]
    lazy: bool = False


PatternExpr = TokenRegex | AttrSet | VarRef | NamedGroup | Seq | Alt | Repeat


class AnnotateAction(Struct):
    """Annotate(group, KEY, value); value None means the captured tokens' text."""
    group: Optional[str]
    key: str
    value: Optional[str]


class Rule(Struct):
    pattern: PatternExpr
    actions: tuple[AnnotateAction, ...]
    stage: int = 0
    # diagnostics only: source:line, so reprinting must not affect equality
    rule_id: str = ""
    pos: Optional[tuple[int, int]] = None
    _uncompared = ("rule_id", "pos")


class Binding(Struct):
    """``$name = (pattern)`` or ``$name = "/char-regex/"``; exactly one side is set."""
    name: str
    pattern: Optional[PatternExpr] = None
    regex: Optional[str] = None
    pos: Optional[tuple[int, int]] = None
    _uncompared = ("pos",)


class RuleFile(Struct):
    bindings: tuple[Binding, ...]
    rules: tuple[Rule, ...]

    def binding_map(self) -> dict[str, Binding]:
        return {b.name: b for b in self.bindings}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, source: str, source_name: str):
        self.toks = _lex(source)
        self.i = 0
        self.source_name = source_name
        self.env: dict[str, Binding] = {}
        # capture names: of each pattern binding, and of the pattern being parsed
        self.binding_groups: dict[str, frozenset[str]] = {}
        self.groups: set[str] = set()
        self.depth = 0  # groups open around the current token

    def peek(self, ahead: int = 0) -> Tok:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> Tok:
        tok = self.toks[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def error(self, message: str, tok: Optional[Tok] = None) -> RuleParseError:
        tok = tok or self.peek()
        return RuleParseError(message, tok.line, tok.col)

    def at_op(self, *values: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.value in values

    def expect_op(self, value: str) -> Tok:
        tok = self.peek()
        if tok.kind != "op" or tok.value != value:
            raise self.error(f"expected {value!r}, found {tok.value or tok.kind!r}")
        return self.next()

    def expect_kind(self, kind: str, what: str) -> Tok:
        tok = self.peek()
        if tok.kind != kind:
            raise self.error(f"expected {what}, found {tok.value or tok.kind!r}")
        return self.next()

    def expect_int(self, what: str) -> tuple[Tok, int]:
        tok = self.expect_kind("int", what)
        if len(tok.value) > 9:
            raise self.error(f"{what} has more than 9 digits", tok)
        return tok, int(tok.value)

    # --- file level ------------------------------------------------------

    def parse_file(self) -> RuleFile:
        bindings: list[Binding] = []
        rules: list[Rule] = []
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind == "pname":
                bindings.append(self.parse_binding())
            elif self.at_op("{"):
                rules.append(self.parse_rule())
            else:
                raise self.error("expected a '$name =' binding or a '{...}' rule")
        return RuleFile(tuple(bindings), tuple(rules))

    def parse_binding(self) -> Binding:
        name_tok = self.next()
        if name_tok.value in self.env:
            raise self.error(f"duplicate binding ${name_tok.value}", name_tok)
        self.expect_op("=")
        tok = self.peek()
        self.groups = set()
        if self.at_op("("):
            self.next()
            pattern = self.parse_alt()
            self.expect_op(")")
            binding = Binding(name_tok.value, pattern=pattern,
                              pos=(name_tok.line, name_tok.col))
        elif tok.kind == "string":
            self.next()
            body = tok.value
            if len(body) < 2 or not (body.startswith("/") and body.endswith("/")):
                raise self.error("a string binding must hold a \"/char-regex/\"", tok)
            binding = Binding(name_tok.value, regex=_unescape(body[1:-1], "/"),
                              pos=(name_tok.line, name_tok.col))
        else:
            raise self.error("binding must be '( pattern )' or a \"/char-regex/\" string")
        self.env[binding.name] = binding
        self.binding_groups[binding.name] = frozenset(self.groups)
        return binding

    def parse_rule(self) -> Rule:
        brace = self.expect_op("{")
        self._expect_key("ruleType")
        rtype = self.expect_kind("string", "a string")
        if rtype.value != "tokens":
            raise self.error(f'ruleType must be "tokens", found "{rtype.value}"', rtype)
        self.expect_op(",")
        self._expect_key("pattern")
        self.expect_op("(")
        self.groups = set()
        pattern = self.parse_alt()
        self.expect_op(")")
        self.expect_op(",")
        self._expect_key("action")
        self.expect_op("(")
        actions = [self.parse_action()]
        while self.at_op(","):
            self.next()
            actions.append(self.parse_action())
        self.expect_op(")")
        stage = 0
        if self.at_op(","):
            self.next()
            self._expect_key("stage")
            _, stage = self.expect_int("a stage number")
        self.expect_op("}")
        rule_id = f"{self.source_name}:{brace.line}"
        return Rule(pattern, tuple(actions), stage, rule_id, pos=(brace.line, brace.col))

    def _expect_key(self, key: str) -> None:
        tok = self.peek()
        if tok.kind != "ident" or tok.value != key:
            raise self.error(f"expected {key!r}, found {tok.value or tok.kind!r}")
        self.next()
        self.expect_op(":")

    def parse_action(self) -> AnnotateAction:
        head = self.expect_kind("ident", "'Annotate'")
        if head.value != "Annotate":
            raise self.error(f"unknown action {head.value!r}, expected 'Annotate'", head)
        self.expect_op("(")
        group: Optional[str] = None
        if self.peek().kind == "pname":
            group_tok = self.next()
            group = group_tok.value
            if group not in self.groups:
                raise self.error(f"action references group ${group} not bound in the pattern",
                                 group_tok)
            self.expect_op(",")
        key = self.expect_kind("ident", "an annotation key").value
        self.expect_op(",")
        tok = self.peek()
        if tok.kind == "string":
            self.next()
            value: Optional[str] = tok.value
        elif tok.kind == "ident" and tok.value == "CAPTURED_TEXT":
            self.next()
            value = None
        else:
            raise self.error("expected a \"literal\" or CAPTURED_TEXT")
        self.expect_op(")")
        return AnnotateAction(group, key, value)

    # --- pattern level ----------------------------------------------------

    def parse_alt(self) -> PatternExpr:
        options = [self.parse_seq()]
        while self.at_op("|"):
            self.next()
            options.append(self.parse_seq())
        return options[0] if len(options) == 1 else Alt(tuple(options))

    def parse_seq(self) -> PatternExpr:
        items: list[PatternExpr] = []
        while self.peek().kind in ("regex", "pname") or self.at_op("(", "["):
            items.append(self.parse_quant())
        return items[0] if len(items) == 1 else Seq(tuple(items))

    def parse_quant(self) -> PatternExpr:
        atom = self.parse_atom()
        tok = self.peek()
        if self.at_op("?", "*", "+", "*?", "+?"):
            self.next()
            lo, hi = {"?": (0, 1), "*": (0, None), "+": (1, None),
                      "*?": (0, None), "+?": (1, None)}[tok.value]
            return Repeat(atom, lo, hi, lazy=tok.value in ("*?", "+?"))
        if self.at_op("{") and self.peek(1).kind == "int":
            self.next()
            lo_tok, lo = self.expect_int("a repeat bound")
            self.expect_op(",")
            _, hi = self.expect_int("a repeat bound")
            self.expect_op("}")
            if lo > hi:
                raise self.error(f"repeat bounds {{{lo},{hi}}} are inverted", lo_tok)
            return Repeat(atom, lo, hi)
        return atom

    def parse_atom(self) -> PatternExpr:
        tok = self.peek()
        if tok.kind == "regex":
            self.next()
            return TokenRegex(tok.value, pos=(tok.line, tok.col))
        if tok.kind == "pname":
            self.next()
            if tok.value not in self.env:
                raise self.error(f"undefined binding ${tok.value}", tok)
            self.groups |= self.binding_groups.get(tok.value, frozenset())
            return VarRef(tok.value, pos=(tok.line, tok.col))
        if self.at_op("["):
            return self.parse_attrset()
        if self.at_op("("):
            if self.depth == MAX_NESTING:
                raise self.error("pattern nested too deeply")
            self.next()
            self.depth += 1
            named = self.at_op("?") and self.peek(1).kind == "pname"
            if named:
                self.next()
                name_tok = self.next()
                self.groups.add(name_tok.value)
            inner = self.parse_alt()
            self.expect_op(")")
            self.depth -= 1
            if named:
                return NamedGroup(name_tok.value, inner, pos=(name_tok.line, name_tok.col))
            return inner
        raise self.error("expected a pattern atom (/regex/, [..], $name or a group)")

    def parse_attrset(self) -> AttrSet:
        open_tok = self.expect_op("[")
        constraints = [self.parse_constraint()]
        while self.at_op("&"):
            self.next()
            constraints.append(self.parse_constraint())
        self.expect_op("]")
        return AttrSet(tuple(constraints), pos=(open_tok.line, open_tok.col))

    def parse_constraint(self) -> Constraint:
        self.expect_op("{")
        key_tok = self.expect_kind("ident", "a constraint key")
        self.expect_op(":")
        tok = self.next()
        kind = {"string": "lit", "regex": "regex", "pname": "ref"}.get(tok.kind)
        if kind is None:
            raise self.error("expected a \"literal\", /regex/ or $name constraint value")
        if kind == "ref":
            binding = self.env.get(tok.value)
            if binding is None:
                raise self.error(f"undefined binding ${tok.value}", tok)
            if binding.regex is None:
                raise self.error(f"${tok.value} is a pattern binding; a constraint "
                                 "needs a \"/char-regex/\" binding", tok)
        self.expect_op("}")
        return Constraint(key_tok.value, kind, tok.value, pos=(tok.line, tok.col))


def parse_rules(source: str, source_name: str = "rules") -> RuleFile:
    """Parse a rule file; raises RuleParseError with line/column on bad input."""
    return _Parser(source, source_name).parse_file()


def parse_pattern(source: str, bindings: Iterable[Binding] = ()) -> PatternExpr:
    """Parse a bare pattern expression; the tests use it as the pattern-level API."""
    parser = _Parser(source, "pattern")
    parser.env = {b.name: b for b in bindings}
    expr = parser.parse_alt()
    if parser.peek().kind != "eof":
        raise parser.error("trailing input after pattern")
    return expr


# ---------------------------------------------------------------------------
# Predicates and compiled form
# ---------------------------------------------------------------------------

# Every predicate has ``test(ctx, i)`` and ``may_pass(text)``: the latter is
# False only if no token with this text can pass ``test``, whatever its
# annotations, so the matcher can memoise it per distinct token text.

class AnyPred:
    def test(self, ctx, i: int) -> bool:
        return True

    def may_pass(self, text: str) -> bool:
        return True


class TextRegexPred:
    __slots__ = ("rx",)

    def __init__(self, rx: re.Pattern):
        self.rx = rx

    def test(self, ctx, i: int) -> bool:
        return self.rx.fullmatch(ctx.texts[i]) is not None

    def may_pass(self, text: str) -> bool:
        return self.rx.fullmatch(text) is not None


class TextEqPred:
    __slots__ = ("value",)

    def __init__(self, value: str):
        self.value = value

    def test(self, ctx, i: int) -> bool:
        return ctx.texts[i] == self.value

    def may_pass(self, text: str) -> bool:
        return text == self.value


class AnnEqPred:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: str):
        self.key = key
        self.value = value

    def test(self, ctx, i: int) -> bool:
        return self.value in ctx.ann_values(self.key, i)

    def may_pass(self, text: str) -> bool:
        return True


class AnnRegexPred:
    __slots__ = ("key", "rx")

    def __init__(self, key: str, rx: re.Pattern):
        self.key = key
        self.rx = rx

    def test(self, ctx, i: int) -> bool:
        return any(self.rx.fullmatch(v) for v in ctx.ann_values(self.key, i))

    def may_pass(self, text: str) -> bool:
        return True


class AndPred:
    __slots__ = ("preds",)

    def __init__(self, preds: tuple):
        self.preds = preds

    def test(self, ctx, i: int) -> bool:
        return all(p.test(ctx, i) for p in self.preds)

    def may_pass(self, text: str) -> bool:
        return all(p.may_pass(text) for p in self.preds)


# instruction opcodes; programs are tuples of (op, a, b)
OP_PRED, OP_SPLIT, OP_JMP, OP_GSTART, OP_GEND, OP_SETPOS, OP_PROGRESS, OP_MATCH = range(8)


# entries a pattern's first-token memo may hold before it is cleared
FIRST_TEXT_MEMO_CAP = 1 << 16


class CompiledPattern(Struct):
    """Backtracking program over token predicates with capture slots.

    ``first_preds`` is a prefilter: the set of predicates one of which must
    accept the first token of any non-empty match. ``None`` means the
    pattern may match the empty token sequence, so every start offset must
    be attempted. ``may_start`` memoises the prefilter's text part per
    distinct token text in ``first_text_memo``, across every document the
    pattern runs on; the memo is no field, so the repr leaves it out. A
    pattern is compared and hashed by identity, so it can key per-document
    caches.
    """
    instrs: tuple
    first_preds: Optional[tuple]
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, instrs: tuple, first_preds: Optional[tuple]):
        self.__dict__.update(instrs=instrs, first_preds=first_preds,
                             first_text_memo={})

    def may_start(self, text: str) -> bool:
        """False only if no token with this text can pass ``first_preds``."""
        memo = self.first_text_memo
        ok = memo.get(text)
        if ok is None:
            if len(memo) >= FIRST_TEXT_MEMO_CAP:
                memo.clear()
            ok = memo[text] = any(p.may_pass(text) for p in self.first_preds)
        return ok


class CompiledRule(Struct):
    rule_id: str
    stage: int
    pattern: CompiledPattern
    actions: tuple[AnnotateAction, ...]


class CompiledRules(Struct):
    """Rules grouped by ascending stage, file order preserved within a stage."""
    stages: tuple[tuple[int, tuple[CompiledRule, ...]], ...]

    def all_rules(self) -> list[CompiledRule]:
        return [rule for _, rules in self.stages for rule in rules]


# instructions one compiled pattern may hold: bounded repeats and binding references copy
# their bodies, so a short file could compile to millions (the largest packaged has 21)
MAX_PROGRAM_SIZE = 10_000
# how deep groups may nest in a pattern: in its source, and once binding references are
# expanded; parsing and compiling at this depth stay far inside the default recursion limit
MAX_NESTING = 100
_RANKS = {Alt: 3, Seq: 2, Repeat: 1}


class _RuleRegex(str):
    """A rule's character regex, as ``re`` compiles it.

    ``re`` keys its cache of compiled patterns by the pattern's type, and
    warns only while it really compiles. A pattern of this type is cached
    only by ``_PatternCompiler._regex``, which turns warnings into errors,
    so one that warns is never cached and warns on every compile, whoever
    compiled the same string before.
    """


class _PatternCompiler:
    def __init__(self, env: dict[str, Binding], pos: Optional[tuple[int, int]] = None):
        self.env = env
        self.pos = pos or (None, None)
        self.instrs: list = []
        self.n_regs = 0
        self.depth = 0  # group levels open around the current node

    def emit(self, op: int, a=None, b=None) -> int:
        if len(self.instrs) >= MAX_PROGRAM_SIZE:
            raise RuleCompileError(
                f"pattern compiles to more than {MAX_PROGRAM_SIZE} instructions", *self.pos)
        self.instrs.append([op, a, b])
        return len(self.instrs) - 1

    def compile(self, node: PatternExpr) -> CompiledPattern:
        self._node(node)
        self.emit(OP_MATCH)
        instrs = tuple(tuple(ins) for ins in self.instrs)
        return CompiledPattern(instrs, _first_preds(instrs))

    def _regex(self, body: str, pos) -> re.Pattern:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # e.g. FutureWarning: Possible nested set
                return re.compile(_RuleRegex(body))
        except (re.error, OverflowError, RecursionError, Warning) as e:
            line, col = pos or (None, None)
            raise RuleCompileError(f"invalid character regex /{body}/: {e}", line, col) from None

    def _constraint_pred(self, c: Constraint):
        if c.kind == "lit":
            return TextEqPred(c.value) if c.key == "word" else AnnEqPred(c.key, c.value)
        rx = self._regex(self.env[c.value].regex if c.kind == "ref" else c.value, c.pos)
        return TextRegexPred(rx) if c.key == "word" else AnnRegexPred(c.key, rx)

    def _node(self, node: PatternExpr, outer: int = 0) -> None:
        # the depth counts group levels as a source writes them, bindings expanded: a level
        # opens at a named group, a pattern binding's body, and an Alt, Seq or Repeat held by
        # one of no higher rank ``outer`` on its level, which takes a "(" (0: held by none)
        rank = _RANKS.get(type(node), 0)
        opens = (rank >= outer > 0 or isinstance(node, NamedGroup)
                 or isinstance(node, VarRef) and self.env[node.name].pattern is not None)
        if opens:
            if self.depth == MAX_NESTING:
                raise RuleCompileError("pattern nested too deeply", *self.pos)
            self.depth += 1
        if isinstance(node, TokenRegex):
            pred = AnyPred() if node.wildcard else TextRegexPred(self._regex(node.body, node.pos))
            self.emit(OP_PRED, pred)
        elif isinstance(node, AttrSet):
            preds = tuple(self._constraint_pred(c) for c in node.constraints)
            self.emit(OP_PRED, preds[0] if len(preds) == 1 else AndPred(preds))
        elif isinstance(node, VarRef):
            binding = self.env[node.name]
            if binding.pattern is not None:
                self._node(binding.pattern)
            else:
                self.emit(OP_PRED, TextRegexPred(self._regex(binding.regex, node.pos)))
        elif isinstance(node, Seq):
            for item in node.items:
                self._node(item, rank)
        elif isinstance(node, Alt):
            jumps = []
            for k, option in enumerate(node.options):
                last = k == len(node.options) - 1
                split = None if last else self.emit(OP_SPLIT)
                self._node(option, rank)
                if not last:
                    jumps.append(self.emit(OP_JMP))
                    self.instrs[split][1] = split + 1
                    self.instrs[split][2] = len(self.instrs)
            end = len(self.instrs)
            for j in jumps:
                self.instrs[j][1] = end
        elif isinstance(node, NamedGroup):
            # one register per group instance: nested same-name groups must
            # not clobber each other's start, the last-closed capture wins
            reg = self.n_regs
            self.n_regs += 1
            self.emit(OP_GSTART, reg)
            self._node(node.body)
            self.emit(OP_GEND, node.name, reg)
        elif isinstance(node, Repeat):
            for _ in range(node.lo):
                size = len(self.instrs)
                self._node(node.body, rank)
                if len(self.instrs) == size:  # an empty body: more copies add nothing
                    break
            if node.hi is None:
                self._star_tail(node.body, node.lazy)
            else:
                self._bounded_tail(node.body, node.hi - node.lo, node.lazy)
        else:
            raise TypeError(f"not a pattern node: {node!r}")
        if opens:
            self.depth -= 1

    def _star_tail(self, body: PatternExpr, lazy: bool) -> None:
        # an iteration that consumes nothing fails via OP_PROGRESS, which
        # backtracks to the exit arm: zero-width loop iterations never happen
        reg = self.n_regs
        self.n_regs += 1
        top = self.emit(OP_SPLIT)
        self.emit(OP_SETPOS, reg)
        self._node(body, _RANKS[Repeat])
        self.emit(OP_PROGRESS, reg)
        self.emit(OP_JMP, top)
        end = len(self.instrs)
        self.instrs[top][1:] = [end, top + 1] if lazy else [top + 1, end]

    def _bounded_tail(self, body: PatternExpr, count: int, lazy: bool) -> None:
        # flattened nested optionals: greedy prefers taking one more copy
        splits = []
        for _ in range(count):
            splits.append(self.emit(OP_SPLIT))
            self._node(body, _RANKS[Repeat])
        end = len(self.instrs)
        for s in splits:
            self.instrs[s][1:] = [end, s + 1] if lazy else [s + 1, end]


def _first_preds(instrs: tuple) -> Optional[tuple]:
    """Predicates reachable before any token is consumed; None if MATCH is reachable."""
    preds: list = []
    seen: set[int] = set()
    work = [0]
    while work:
        pc = work.pop()
        if pc in seen:
            continue
        seen.add(pc)
        op, a, b = instrs[pc]
        if op == OP_PRED:
            preds.append(a)
        elif op == OP_MATCH:
            return None
        elif op == OP_SPLIT:
            work.extend((a, b))
        elif op == OP_JMP:
            work.append(a)
        else:  # capture/register bookkeeping falls through
            work.append(pc + 1)
    return tuple(preds)


def compile_pattern(node: PatternExpr, bindings: Iterable[Binding] = ()) -> CompiledPattern:
    """Compile a bare pattern expression; the tests use it as the pattern-level API."""
    env = {b.name: b for b in bindings}
    return _PatternCompiler(env).compile(node)


def compile_rules(rules: RuleFile) -> CompiledRules:
    """Compile every rule; total on valid rule files except malformed char regexes,
    patterns nested past MAX_NESTING once bindings are expanded and programs past
    MAX_PROGRAM_SIZE."""
    env = rules.binding_map()
    by_stage: dict[int, list[CompiledRule]] = {}
    for rule in rules.rules:
        pattern = _PatternCompiler(env, rule.pos).compile(rule.pattern)
        by_stage.setdefault(rule.stage, []).append(
            CompiledRule(rule.rule_id, rule.stage, pattern, rule.actions))
    stages = tuple((stage, tuple(by_stage[stage])) for stage in sorted(by_stage))
    return CompiledRules(stages)
