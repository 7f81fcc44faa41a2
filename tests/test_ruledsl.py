import random
import re
import sys
import warnings
from importlib import resources

import pytest
from hypothesis import given, seed, settings, strategies as st

from helpers import STD_BINDINGS, rand_pattern
from kidex import ruledsl
from kidex.ruledsl import (Alt, AnnotateAction, AttrSet, Constraint, NamedGroup, Repeat,
                           RuleCompileError, RuleParseError, Seq, TokenRegex, VarRef,
                           compile_pattern, compile_rules, parse_pattern, parse_rules)
from oracles import lex_oracle, print_pattern, print_rules

ISIN_RULE = '''
$StartISIN = (
    /ISIN/ /:/ |
    /Codice/ /del/ /Prodotto|prodotto/ /:/
)
$EndISIN = (
    /*/
)
$code = "/([A-Za-z][A-Za-z][0-9]{10})/"
{
    ruleType: "tokens",
    pattern: (
        ($StartISIN) (?$CodeISIN [{word:$code} &
        {SECTION:"SECTION_PRODUCT"}]+?) ($EndISIN)
    ),
    action: ( Annotate($CodeISIN, ISIN, "ISIN") )
}
'''


def test_reference_isin_rule_parses_to_expected_shape():
    rf = parse_rules(ISIN_RULE, "isin")
    assert [b.name for b in rf.bindings] == ["StartISIN", "EndISIN", "code"]
    start, end, code = rf.bindings
    assert isinstance(start.pattern, Alt) and len(start.pattern.options) == 2
    assert end.pattern == TokenRegex("*")
    assert code.regex == "([A-Za-z][A-Za-z][0-9]{10})"

    assert len(rf.rules) == 1
    rule = rf.rules[0]
    assert rule.stage == 0
    # plain parens are grouping only: the pattern is a 3-item sequence
    assert isinstance(rule.pattern, Seq)
    first, group, last = rule.pattern.items
    assert first == VarRef("StartISIN")
    assert last == VarRef("EndISIN")
    assert isinstance(group, NamedGroup) and group.name == "CodeISIN"
    rep = group.body
    assert isinstance(rep, Repeat) and rep.lazy and (rep.lo, rep.hi) == (1, None)
    assert rep.body == AttrSet((Constraint("word", "ref", "code"),
                                Constraint("SECTION", "lit", "SECTION_PRODUCT")))
    assert rule.actions == (AnnotateAction("CodeISIN", "ISIN", "ISIN"),)


def test_simple_binding():
    rf = parse_rules("$X = (/a/ /b/)")
    assert rf.bindings[0].pattern == Seq((TokenRegex("a"), TokenRegex("b")))


def test_undefined_binding_is_an_error_with_location():
    src = '{ ruleType: "tokens", pattern: ( $Undefined ), action: ( Annotate(K, "v") ) }'
    with pytest.raises(RuleParseError, match=r"\$Undefined") as exc:
        parse_rules(src)
    assert exc.value.line == 1 and exc.value.col is not None


def test_binding_must_be_defined_before_use():
    src = '$A = ( $B )\n$B = ( /x/ )'
    with pytest.raises(RuleParseError, match=r"\$B"):
        parse_rules(src)


def test_duplicate_binding_rejected():
    with pytest.raises(RuleParseError, match="duplicate"):
        parse_rules("$A = (/x/)\n$A = (/y/)")


def test_rule_type_must_be_tokens():
    src = '{ ruleType: "chars", pattern: ( /a/ ), action: ( Annotate(K, "v") ) }'
    with pytest.raises(RuleParseError, match='"tokens"'):
        parse_rules(src)


def test_action_group_must_be_bound():
    src = '{ ruleType: "tokens", pattern: ( /a/ ), action: ( Annotate($G, K, "v") ) }'
    with pytest.raises(RuleParseError, match=r"\$G"):
        parse_rules(src)


def test_action_group_found_through_binding():
    src = ('$G1 = ( (?$Inner /a/) )\n'
           '{ ruleType: "tokens", pattern: ( $G1 ), action: ( Annotate($Inner, K, "v") ) }')
    rf = parse_rules(src)
    assert rf.rules[0].actions[0].group == "Inner"


def test_stage_field_and_ordering():
    src = ('{ ruleType: "tokens", pattern: ( /b/ ), action: ( Annotate(B, "b") ), stage: 2 }\n'
           '{ ruleType: "tokens", pattern: ( /a/ ), action: ( Annotate(A, "a") ) }')
    compiled = compile_rules(parse_rules(src))
    assert [stage for stage, _ in compiled.stages] == [0, 2]


def test_syntax_error_reports_position():
    with pytest.raises(RuleParseError) as exc:
        parse_rules("$X = (/a/")
    assert "expected" in str(exc.value)
    assert exc.value.line == 1


def test_comments_and_elision_free_grammar():
    rf = parse_rules("// just a comment\n$X = (/a/) // trailing\n")
    assert len(rf.bindings) == 1


def test_quantifier_bounds_validated():
    with pytest.raises(RuleParseError, match="inverted"):
        parse_pattern("/a/{3,1}")


def test_captured_text_sentinel():
    src = '{ ruleType: "tokens", pattern: ( (?$G /a/) ), action: ( Annotate($G, K, CAPTURED_TEXT) ) }'
    rf = parse_rules(src)
    assert rf.rules[0].actions[0].value is None


def test_constraint_value_must_be_string_regex_binding():
    src = ('$P = ( /a/ )\n'
           '{ ruleType: "tokens", pattern: ( [{word:$P}] ), action: ( Annotate(K, "v") ) }')
    with pytest.raises(RuleParseError, match="pattern binding"):
        parse_rules(src)


def test_invalid_char_regex_reported_at_compile():
    rf = parse_rules('{ ruleType: "tokens", pattern: ( /[unclosed/ ), action: ( Annotate(K, "v") ) }')
    with pytest.raises(RuleCompileError, match="invalid character regex"):
        compile_rules(rf)


def test_compile_is_total_on_valid_files():
    rf = parse_rules(ISIN_RULE)
    compiled = compile_rules(rf)
    assert len(compiled.all_rules()) == 1


def test_escaped_slash_in_regex():
    rf = parse_rules(r"$d = ( /[0-9]\/[0-9]/ )")
    assert rf.bindings[0].pattern == TokenRegex("[0-9]/[0-9]")


def test_round_trip_reference_rule():
    rf = parse_rules(ISIN_RULE)
    assert parse_rules(print_rules(rf)) == rf


def test_round_trip_property_random_patterns():
    rng = random.Random(4242)
    for _ in range(500):
        pat = rand_pattern(rng, 3)
        src = print_pattern(pat)
        once = parse_pattern(src, STD_BINDINGS)
        again = parse_pattern(print_pattern(once), STD_BINDINGS)
        assert once == again, src


def test_wildcard_predicate_matches_everything():
    from helpers import make_doc
    from kidex.matcher import find_matches
    cp = compile_pattern(parse_pattern("/*/"))
    assert find_matches(cp, make_doc(["qualunque"])).end == 1


def test_anchored_token_regex():
    from helpers import make_doc
    from kidex.matcher import find_matches
    cp = compile_pattern(parse_pattern("/Prodotto|prodotto/"))
    assert find_matches(cp, make_doc(["Prodotto"])) is not None
    assert find_matches(cp, make_doc(["prodotti"])) is None
    assert find_matches(cp, make_doc(["ilProdotto"])) is None


def test_default_ruleset_parses_and_prints():
    from importlib import resources
    src = resources.files("kidex.data").joinpath("default_rules.tre").read_text("utf-8")
    rf = parse_rules(src, "default")
    assert len(rf.rules) == 8
    assert parse_rules(print_rules(rf)) == rf


def test_string_binding_keeps_escaped_backslash_before_slash():
    # the string "/\\\\//" holds /\\//, whose body \\/ is an escaped backslash, then a slash
    rf = parse_rules('$b = "/\\\\\\\\//"')
    assert rf.bindings[0].regex == "\\\\/"
    assert parse_rules(print_rules(rf)) == rf


def test_int_tokens_are_ascii_digits():
    with pytest.raises(RuleParseError, match="unexpected character '²'"):
        parse_pattern("/a/{0,²}")


def test_numbers_past_nine_digits_rejected():
    assert parse_pattern("/a/{0,999999999}") == Repeat(TokenRegex("a"), 0, 999999999)
    with pytest.raises(RuleParseError, match="a repeat bound has more than 9 digits"):
        parse_pattern("/a/{0,1000000000}")


def test_deep_nesting_is_a_parse_error():
    src = '{ ruleType: "tokens", pattern: ( %s ), action: ( Annotate(K, "v") ) }'
    with pytest.raises(RuleParseError, match="pattern nested too deeply"):
        parse_rules(src % ("(" * 300 + "/a/" + ")" * 300))


@pytest.mark.parametrize("recursion_limit", [1000, 20_000], ids=["default", "raised"])
def test_nesting_limit_is_one_number(recursion_limit):
    src = '{ ruleType: "tokens", pattern: ( %s ), action: ( Annotate(K, "v") ) }'
    n = ruledsl.MAX_NESTING

    def nested(depth, named):
        open_ = "(?$G /b/ " if named else "(/b/ "
        return open_ * depth + "/a/" + ")*" * depth

    def chain(depth, body="/b/ $b{}"):
        """Each pattern binding wraps the one before it, as if it were a group."""
        bindings = "".join(f"$b{i} = ( {body.format(i - 1)} )\n" for i in range(1, depth))
        return "$b0 = ( /a/ )\n" + bindings + src % f"$b{depth - 1}"

    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(recursion_limit)
    try:
        for named in (False, True):
            assert compile_rules(parse_rules(src % nested(n, named)))
            with pytest.raises(RuleParseError, match="pattern nested too deeply"):
                parse_rules(src % nested(n + 1, named))
        assert compile_rules(parse_rules(chain(n)))
        with pytest.raises(RuleCompileError,
                           match=f"^line {n + 2}, column 1: pattern nested too deeply$"):
            compile_rules(parse_rules(chain(n + 1)))
        # a group inside each binding: two levels per binding, one for $b0
        assert compile_rules(parse_rules(chain(n // 2, "/b/ (/c/ $b{})")))
        with pytest.raises(RuleCompileError, match="pattern nested too deeply"):
            compile_rules(parse_rules(chain(n // 2 + 1, "/b/ (/c/ $b{})")))
    finally:
        sys.setrecursionlimit(saved)


def test_program_size_is_capped_at_the_rule():
    src = '\n{ ruleType: "tokens", pattern: ( %s ), action: ( Annotate(K, "v") ) }'
    limit = ruledsl.MAX_PROGRAM_SIZE
    # /a/{0,n} compiles to n SPLIT + n PRED instructions and a MATCH
    n = (limit - 1) // 2
    fits = compile_rules(parse_rules(src % "/a/{0,%d}" % n))
    assert len(fits.all_rules()[0].pattern.instrs) == 2 * n + 1 <= limit
    with pytest.raises(RuleCompileError, match=f"more than {limit} instructions") as exc:
        compile_rules(parse_rules(src % "/a/{0,%d}" % (n + 1)))
    assert (exc.value.line, exc.value.col) == (2, 1)


def test_empty_body_repeated_compiles_at_once():
    compiled = compile_pattern(parse_pattern("(/a/{0,0}){999999999,999999999} /b/"))
    assert len(compiled.instrs) == 2


def test_regex_overflow_is_a_compile_error():
    with pytest.raises(RuleCompileError, match="repetition number is too large"):
        compile_pattern(parse_pattern("/a{99999999999}/"))


# --- properties over rule sources -------------------------------------------

_PACKAGED = resources.files("kidex.data").joinpath("default_rules.tre").read_text("utf-8")
_SOURCES = (_PACKAGED, ISIN_RULE,
            '$G1 = ( (?$Inner /a/) )\n'
            '{ ruleType: "tokens", pattern: ( $G1 /b/{1,3} ), action: ( Annotate($Inner, K, "v") ),'
            ' stage: 2 }',
            r'$d = ( /[0-9]\/[0-9]/ ) $s = "/a\\/b\\\\/" // c' '\n'
            '{ ruleType: "tokens", pattern: ( $d [{word:$s} & {K:/x|y/}]*? ), '
            'action: ( Annotate(K, "q\\"\\\\") ) }')
_EDIT_CHARS = list('()[]{}|&=:,?*+/"\\$ \n\tab_09é') + ["//", "\\\n"]
# past the parser's limits: deep nesting (the test runner may raise the recursion
# limit), numbers past int()'s digit limit, oversized programs and char regexes
_EDIT_PHRASES = ["{0,", "$x", "(?$G ", ", stage: 3", "(" * 5000, "{0,%s}" % ("9" * 5000),
                 ", stage: %s" % ("9" * 5000), "{0,%s}" % ("9" * 12), "/a{99999999999}/",
                 "/[/", "/a/{0,200000}"]


def _mutate(rng, chars, phrases):
    """One of _SOURCES after 1-3 edits: a char inserted, deleted or substituted at any
    offset, or a phrase inserted at a whitespace offset, where it stands as its own tokens."""
    src = rng.choice(_SOURCES)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice("idswww")
        offsets = [m.start() for m in re.finditer(r"\s", src)] if op == "w" else []
        i = rng.choice(offsets) if offsets else rng.randint(0, len(src))
        text = rng.choice(phrases if op == "w" else chars) if op != "d" else ""
        src = src[:i] + text + src[i + (op in "ds"):]
    return src


def _mutated(chars, phrases):
    # edits come from a seeded Random, so they spread over the whole source
    return st.integers(0, 2 ** 32 - 1).map(lambda n: _mutate(random.Random(n), chars, phrases))


@seed(20221018)
@settings(max_examples=400, deadline=None, database=None)
@given(src=_mutated(_EDIT_CHARS + ["²", "٣"], _EDIT_PHRASES + ["{0,²}", ", stage: ²"]))
def test_mutated_rule_sources_raise_only_rule_errors(src):
    try:
        compile_rules(parse_rules(src, "mutated"))
    except ruledsl.RuleError as e:
        assert e.line is not None and e.col is not None


@seed(20221019)
@settings(max_examples=400, deadline=None, database=None)
@given(src=_mutated(_EDIT_CHARS, _EDIT_PHRASES))
def test_lexer_agrees_with_character_loop_reference(src):
    try:
        expected = lex_oracle(src)
    except RuleParseError as e:
        with pytest.raises(RuleParseError) as exc:
            ruledsl._lex(src)
        assert str(exc.value) == str(e)
    else:
        assert [tuple(t) for t in ruledsl._lex(src)] == expected


_RX = st.lists(st.sampled_from(["a", "b|c", "[0-9]", "\\/", "\\\\", "\\d", ".", '"', "é"]),
               min_size=1, max_size=4).map("".join)
_LIT = st.lists(st.sampled_from(["a", '\\"', "\\\\", "\\n", "/", " ", "é"]),
                max_size=4).map("".join)
# inside "/.../": \\/ reads as \/, \\\\/ as \\/, \\\\ as \\, \" as "
_STRING_RX = st.lists(st.sampled_from(["a", "[0-9]", "/", "\\\\/", "\\\\\\\\/", "\\\\\\\\",
                                       '\\"', "\\\\d"]), min_size=1, max_size=4).map("".join)
_SPACE = st.sampled_from([" ", "\n", "\t", " // note\n"])


@st.composite
def _pattern_source(draw, names, depth=3):
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        kind = draw(st.integers(0, 3 if names else 2))
        if kind == 0:
            return "/%s/" % draw(_RX)
        if kind == 1:
            return "/*/"
        if kind == 2:
            value = draw(st.one_of(_LIT.map('"{}"'.format), _RX.map("/{}/".format),
                                   st.sampled_from(["$R"] if "R" in names else ['"x"'])))
            return "[{word:%s} & {KEY:%s}]" % (value, draw(_LIT.map('"{}"'.format)))
        return "$" + draw(st.sampled_from(names))
    inner = st.lists(_pattern_source(names, depth - 1), min_size=1, max_size=3)
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(_SPACE).join(draw(inner))
    if kind == 1:
        return " | ".join(draw(inner))
    if kind == 2:
        return "(?$G%d %s)" % (draw(st.integers(0, 2)), " ".join(draw(inner)))
    quant = draw(st.sampled_from(["?", "*", "+", "*?", "+?", "{0,2}", "{1,1}", ""]))
    return "(%s)%s" % (" ".join(draw(inner)), quant)


@st.composite
def _rule_file_source(draw):
    lines = ['$R = "/%s/"' % draw(_STRING_RX)]
    names = ["R"]
    for k in range(draw(st.integers(0, 2))):
        lines.append("$P%d = ( %s )" % (k, draw(_pattern_source(names))))
        names.append("P%d" % k)
    for _ in range(draw(st.integers(1, 3))):
        pattern = "(?$Cap %s)" % draw(_pattern_source(names))
        group = draw(st.sampled_from(["", "$Cap, "]))
        value = draw(st.one_of(st.just("CAPTURED_TEXT"), _LIT.map('"{}"'.format)))
        stage = draw(st.sampled_from(["", ", stage: 0", ", stage: 12"]))
        lines.append('{ ruleType: "tokens", pattern: ( %s ), action: ( Annotate(%sK, %s) )%s }'
                     % (pattern, group, value, stage))
    return draw(_SPACE).join(lines)


@seed(20221020)
@settings(max_examples=200, deadline=None, database=None)
@given(src=_rule_file_source())
def test_print_parse_round_trip_on_generated_rule_files(src):
    rf = parse_rules(src, "generated")
    assert parse_rules(print_rules(rf)) == rf


def test_regex_warning_is_an_error_even_when_re_cached_the_pattern():
    # re warns only while it really compiles; a copy it cached earlier, compiled by
    # other code with warnings ignored, must not let the rule through
    src = '{ ruleType: "tokens", pattern: ( /[[a]/ ), action: ( Annotate(K, "v") ) }'
    message = r"^line 1, column 34: invalid character regex /\[\[a\]/: Possible nested set"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        re.compile("[[a]")
    for _ in range(2):
        with pytest.raises(RuleCompileError, match=message):
            compile_rules(parse_rules(src))
