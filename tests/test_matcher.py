import random
from importlib import resources

import pytest
from hypothesis import given, seed, settings, strategies as st

from helpers import ALPHABET, STD_BINDINGS, make_doc, rand_pattern, rand_tokens
from kidex import annotate, corpusgen, matcher, ruledsl, textprep
from kidex.matcher import (DocContext, ExtractionResult, RuleComplexityError, annotate_doc,
                           export_results, find_matches, read_results_file, render_results_csv,
                           run_rules)
from kidex.model import DATA, Annotation, Document, read_utf8
from oracles import TokenListCtx, brute_find, print_pattern


def _compiled(src, bindings=()):
    return ruledsl.compile_pattern(ruledsl.parse_pattern(src, bindings))


def test_only_possible_match():
    m = find_matches(_compiled("/a/ /b/"), make_doc(["x", "a", "b", "c"]))
    assert (m.start, m.end) == (1, 3)


def test_lazy_capture_cannot_shrink_below_anchor():
    # derived by enumerating all capture splits: the anchor forces two x's
    m = find_matches(_compiled("/A/ (?$G /x/+?) /B/"), make_doc(["A", "x", "x", "B"]))
    assert m.captures["G"] == (1, 3)  # tokens 1..2 inclusive


def test_ordered_alternation_prefers_first():
    m = find_matches(_compiled("/a/ | /a/ /b/"), make_doc(["a", "b"]))
    assert (m.start, m.end) == (0, 1)


def test_greedy_vs_lazy():
    doc = make_doc(["a", "a", "a"])
    assert find_matches(_compiled("/a/*"), doc).end == 3
    assert find_matches(_compiled("/a/*?"), doc).end == 0


def test_empty_match_is_allowed():
    m = find_matches(_compiled("/a/*"), make_doc(["b", "b"]))
    assert (m.start, m.end) == (0, 0)


def test_zero_width_loop_terminates():
    m = find_matches(_compiled("(/a/?)*"), make_doc(["b"]))
    assert (m.start, m.end) == (0, 0)


def test_start_offset_respected():
    doc = make_doc(["a", "x", "a"])
    assert find_matches(_compiled("/a/"), doc, start=1).start == 2


def test_annotation_constraints():
    doc = make_doc(["isin", "X", "isin"])
    doc = doc.with_annotations([Annotation("SECTION", "S1", 0, 1)])
    cp = _compiled('[{word:"isin"} & {SECTION:"S1"}]')
    ctx = DocContext(doc)
    assert find_matches(cp, ctx).start == 0
    assert find_matches(cp, ctx, start=1) is None  # token 2 lacks the section


def test_oracle_equivalence_bounded_space():
    rng = random.Random(2024)
    for _ in range(2000):
        pattern = rand_pattern(rng, 3)
        texts = rand_tokens(rng)
        expected = brute_find(pattern, TokenListCtx(texts), bindings=STD_BINDINGS)
        m = find_matches(ruledsl.compile_pattern(pattern, STD_BINDINGS), make_doc(texts))
        got = None if m is None else (m.start, m.end, dict(m.captures))
        assert got == expected, (print_pattern(pattern), texts)


def test_oracle_equivalence_with_annotations():
    rng = random.Random(77)
    for _ in range(500):
        texts = rand_tokens(rng)
        anns = {}
        if texts:
            first = rng.randrange(len(texts))
            last = rng.randrange(first, len(texts))
            anns = {"S": {i: ["v1"] for i in range(first, last + 1)}}
        pattern = ruledsl.Seq((
            rand_pattern(rng, 2),
            ruledsl.AttrSet((ruledsl.Constraint("S", "lit", "v1"),)),
        ))
        expected = brute_find(pattern, TokenListCtx(texts, anns), bindings=STD_BINDINGS)
        doc = make_doc(texts)
        if anns:
            doc = doc.with_annotations([Annotation("S", "v1", first, last)])
        m = find_matches(ruledsl.compile_pattern(pattern, STD_BINDINGS), doc)
        got = None if m is None else (m.start, m.end, dict(m.captures))
        assert got == expected


def _first_atom(rng):
    """A first atom mixing a word constraint with an annotation constraint."""
    word = rng.choice([ruledsl.Constraint("word", "lit", rng.choice(ALPHABET)),
                       ruledsl.Constraint("word", "regex", rng.choice(ALPHABET) + "|c"),
                       ruledsl.Constraint("word", "ref", "w")])
    ann = rng.choice([ruledsl.Constraint("S", "lit", rng.choice(("v1", "v2"))),
                      ruledsl.Constraint("S", "regex", "v[12]")])
    both = ruledsl.AttrSet((word, ann) if rng.random() < 0.5 else (ann, word))
    return rng.choice([both,
                       ruledsl.AttrSet((ann,)),
                       ruledsl.Alt((both, ruledsl.AttrSet((word,)))),
                       ruledsl.Alt((ruledsl.AttrSet((ann,)), ruledsl.TokenRegex("d"))),
                       ruledsl.Repeat(both, 1, None, rng.random() < 0.5)])


def _rand_s_annotations(rng, n):
    """Random S spans over n tokens: {token: [values]} plus the Annotation list."""
    index, anns = {}, []
    for _ in range(rng.randrange(0, 3) if n else 0):
        first = rng.randrange(n)
        last = rng.randrange(first, min(n, first + 4))
        value = rng.choice(("v1", "v2"))
        anns.append(Annotation("S", value, first, last))
        for i in range(first, last + 1):
            index.setdefault(i, []).append(value)
    return index, anns


def test_pattern_compiled_once_agrees_with_oracle_across_documents(monkeypatch):
    # one compiled pattern (and so one first-token memo) serves many documents
    # that share token texts but not annotations; the backtracking program
    # runs exactly at the offsets whose token passes the full prefilter
    attempted = []
    attempt = matcher._attempt

    def recording(pattern, ctx, s, rule_id):
        attempted.append(s)
        return attempt(pattern, ctx, s, rule_id)

    monkeypatch.setattr(matcher, "_attempt", recording)
    rng = random.Random(5150)
    for _ in range(150):
        pattern = ruledsl.Seq((_first_atom(rng), rand_pattern(rng, 2)))
        compiled = ruledsl.compile_pattern(pattern, STD_BINDINGS)
        for _ in range(25):
            texts = rand_tokens(rng, 10)
            index, anns = _rand_s_annotations(rng, len(texts))
            ctx = DocContext(make_doc(texts).with_annotations(anns))
            oracle_ctx = TokenListCtx(texts, {"S": index})
            passing = [s for s in range(len(texts))
                       if any(p.test(ctx, s) for p in compiled.first_preds)]
            for start in range(len(texts) + 1):
                expected = brute_find(pattern, oracle_ctx, start, bindings=STD_BINDINGS)
                attempted.clear()
                m = find_matches(compiled, ctx, start)
                got = None if m is None else (m.start, m.end, dict(m.captures))
                assert got == expected, (print_pattern(pattern), texts, anns, start)
                last = len(texts) if m is None else m.start
                assert attempted == [s for s in passing if start <= s <= last]


# regex metacharacters plus two letters: a literal that holds them must match only itself
_META_TEXTS = st.text(".*+?()[]{}|\\^$ab", min_size=1, max_size=3)


@st.composite
def _literal_case(draw):
    """Token texts, K annotations and a sequence of literal conjunctions over ``word`` and
    ``K``, drawn from one small pool of texts, so a literal often meets a text it is a
    regex for but not equal to (``a.`` and ``ab``)."""
    pool = draw(st.lists(_META_TEXTS, min_size=1, max_size=4))
    texts = draw(st.lists(st.sampled_from(pool), max_size=6))
    spans = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2), st.sampled_from(pool)),
                          max_size=3))
    anns = [Annotation("K", value, first, min(first + width, len(texts) - 1))
            for first, width, value in spans if first < len(texts)]
    atoms = draw(st.lists(st.lists(st.tuples(st.sampled_from(("word", "K")),
                                             st.sampled_from(pool)), min_size=1, max_size=2),
                          min_size=1, max_size=3))
    pattern = ruledsl.Seq(tuple(
        ruledsl.AttrSet(tuple(ruledsl.Constraint(key, "lit", value) for key, value in atom))
        for atom in atoms))
    return texts, anns, pattern


@seed(20221021)
@settings(max_examples=400, deadline=None, database=None)
@given(case=_literal_case())
def test_literals_holding_regex_metacharacters_agree_with_oracle(case):
    texts, anns, pattern = case
    index = {}
    for ann in anns:
        for i in range(ann.first, ann.last + 1):
            index.setdefault(i, []).append(ann.value)
    compiled = ruledsl.compile_pattern(pattern)
    ctx = DocContext(make_doc(texts).with_annotations(anns))
    for start in range(len(texts) + 1):
        expected = brute_find(pattern, TokenListCtx(texts, {"K": index}), start)
        m = find_matches(compiled, ctx, start)
        assert (None if m is None else (m.start, m.end, dict(m.captures))) == expected


def test_later_stage_first_token_needs_earlier_stage_annotation():
    # stage 0 tags "a" tokens inside section S1; the stage-1 rule must start
    # on a tagged "a". Both documents have the same text, so only their
    # sections, read fresh per document, tell the starts apart.
    src = ('{ ruleType: "tokens", pattern: ( (?$G [{word:"a"} & {SECTION:"S1"}]) ), '
           'action: ( Annotate($G, TAG, "t") ) }\n'
           '{ ruleType: "tokens", pattern: ( (?$H [{word:/a|b/} & {TAG:"t"}]) /b/ ), '
           'action: ( Annotate($H, SECOND, "s") ), stage: 1 }')
    compiled = ruledsl.compile_rules(ruledsl.parse_rules(src))
    texts = ["a", "b", "x", "a", "b"]
    docs = [make_doc(texts, "d1").with_annotations([Annotation("SECTION", "S1", 0, 1),
                                                    Annotation("SECTION", "S2", 2, 4)]),
            make_doc(texts, "d2").with_annotations([Annotation("SECTION", "S2", 0, 2),
                                                    Annotation("SECTION", "S1", 3, 4)])]

    def fields(doc):
        _, results = run_rules(compiled, doc)
        return sorted((r.field, r.first_token) for r in results)

    expected = {"d1": [("SECOND", 0), ("TAG", 0)], "d2": [("SECOND", 3), ("TAG", 3)]}
    for doc in docs + docs:
        assert fields(doc) == expected[doc.doc_id]


def test_prefilter_tests_each_text_once_per_rule_across_documents(tmp_path, monkeypatch):
    source = resources.files("kidex.data").joinpath("default_rules.tre").read_text(encoding="utf-8")
    compiled = ruledsl.compile_rules(ruledsl.parse_rules(source))
    rules = compiled.all_rules()
    corpusgen.gen_corpus(30, 11, 0.1, tmp_path)
    sections = annotate.default_section_config()
    docs = [annotate.annotate_sections(
                annotate.tokenize_document(textprep.load_document(path.stem, path)), sections)
            for path in sorted((tmp_path / "docs").iterdir())]
    calls = 0
    may_pass = ruledsl.TokenPred.may_pass

    def counting(self, text):  # counts the tests that hold a text regex
        nonlocal calls
        calls += bool(self.texts)
        return may_pass(self, text)

    monkeypatch.setattr(ruledsl.TokenPred, "may_pass", counting)
    for doc in docs:
        run_rules(compiled, doc)
    vocabulary = len({t for doc in docs for t in doc.tokens})
    tokens = sum(len(doc.tokens) for doc in docs)
    first_regexes = sum(bool(p.texts) for rule in rules for p in rule.pattern.first_preds)
    assert 0 < calls <= vocabulary * first_regexes
    assert vocabulary * first_regexes * 4 < tokens * len(rules)


def test_first_token_memo_never_exceeds_its_cap():
    cap = ruledsl.FIRST_TEXT_MEMO_CAP
    compiled = _compiled("/t5|t7/ /t[0-9]+/")
    texts = [f"t{i}" for i in range(cap + 50)] + ["t5", "t9"]
    doc = make_doc(texts)
    assert find_matches(compiled, doc).start == 5
    assert len(compiled.first_text_memo) <= cap
    assert find_matches(compiled, doc, start=8).start == cap + 50
    assert find_matches(compiled, make_doc(["t9", "t7", "t5"])).start == 1
    assert len(compiled.first_text_memo) <= cap


def test_non_overlap_and_sorted_within_rule():
    rng = random.Random(31)
    src = '{ ruleType: "tokens", pattern: ( /a/ /*/? ), action: ( Annotate(HIT, "x") ) }'
    compiled = ruledsl.compile_rules(ruledsl.parse_rules(src))
    for _ in range(200):
        doc = make_doc(rand_tokens(rng))
        _, results = run_rules(compiled, doc)
        spans = [(r.first_token, r.last_token) for r in results]
        assert spans == sorted(spans)
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            assert b1 < a2


def test_run_rules_stage_visibility():
    # stage 0 tags token "a"; stage 1 matches only tokens tagged at stage 0
    src = ('{ ruleType: "tokens", pattern: ( (?$G /a/) ), action: ( Annotate($G, TAG, "t") ) }\n'
           '{ ruleType: "tokens", pattern: ( (?$H [{TAG:"t"}]) ), '
           'action: ( Annotate($H, SECOND, "s") ), stage: 1 }')
    compiled = ruledsl.compile_rules(ruledsl.parse_rules(src))
    _, results = run_rules(compiled, make_doc(["a", "b", "a"]))
    fields = sorted((r.field, r.first_token) for r in results)
    assert fields == [("SECOND", 0), ("SECOND", 2), ("TAG", 0), ("TAG", 2)]


def test_monotone_staging():
    base = '{ ruleType: "tokens", pattern: ( (?$G /a/) ), action: ( Annotate($G, TAG, "t") ) }'
    later = '\n{ ruleType: "tokens", pattern: ( /b/ ), action: ( Annotate(B, "b") ), stage: 3 }'
    doc = make_doc(["a", "b", "a"])
    _, with_later = run_rules(ruledsl.compile_rules(ruledsl.parse_rules(base + later)), doc)
    _, without = run_rules(ruledsl.compile_rules(ruledsl.parse_rules(base)), doc)
    stage0 = [r for r in with_later if r.field == "TAG"]
    assert [(r.field, r.first_token, r.value) for r in stage0] == \
        [(r.field, r.first_token, r.value) for r in without]


def test_dedup_same_field_and_span():
    src = ('{ ruleType: "tokens", pattern: ( /x/ (?$G /a/) ), action: ( Annotate($G, K, "1") ) }\n'
           '{ ruleType: "tokens", pattern: ( /*/ (?$G /a/) ), action: ( Annotate($G, K, "2") ) }')
    compiled = ruledsl.compile_rules(ruledsl.parse_rules(src))
    _, results = run_rules(compiled, make_doc(["x", "a"]))
    assert len(results) == 1
    assert results[0].tag == "1"


def test_empty_capture_fires_nothing():
    src = '{ ruleType: "tokens", pattern: ( /b/ (?$G /a/*) ), action: ( Annotate($G, K, "k") ) }'
    compiled = ruledsl.compile_rules(ruledsl.parse_rules(src))
    doc2, results = run_rules(compiled, make_doc(["b", "c"]))
    assert results == []
    assert doc2.annotations == ()


def test_backtracking_guard_raises_with_rule_name():
    # nested unbounded quantifiers over a long uniform token run
    src = '{ ruleType: "tokens", pattern: ( ((/a/|/a/ /a/)+)+ /b/ ), action: ( Annotate(K, "v") ) }'
    compiled = ruledsl.compile_rules(ruledsl.parse_rules(src, "guard"))
    doc = make_doc(["a"] * 40)
    with pytest.raises(RuleComplexityError, match="guard:1"):
        run_rules(compiled, doc)


def test_captured_text_value_and_tag():
    src = ('{ ruleType: "tokens", pattern: ( /k/ /:/ (?$G /*/ /*/) ), '
           'action: ( Annotate($G, NAME, CAPTURED_TEXT) ) }')
    compiled = ruledsl.compile_rules(ruledsl.parse_rules(src))
    doc = make_doc(["k", ":", "Fondo", "Alfa"])
    doc2, results = run_rules(compiled, doc)
    assert results[0].value == "Fondo Alfa"
    assert results[0].tag == "Fondo Alfa"
    ann = doc2.annotations[-1]
    assert (ann.key, ann.value, ann.first, ann.last) == ("NAME", "Fondo Alfa", 2, 3)


# --- export ------------------------------------------------------------------

def _result(**kw):
    base = dict(doc_id="d1", field="ISIN", value="CH0524993752", tag="ISIN",
                first_token=2, last_token=2, rule_id="r:1")
    base.update(kw)
    return ExtractionResult(**base)


def test_csv_columns_and_header(tmp_path):
    out = export_results([_result()], tmp_path / "out.csv")
    lines = out.read_bytes().split(b"\r\n")  # RFC 4180 line endings
    assert lines[0] == b"doc_id,field,value,tag,first_token,last_token,rule_id"
    assert lines[1] == b"d1,ISIN,CH0524993752,ISIN,2,2,r:1"


def test_empty_results_header_only(tmp_path):
    out = export_results([], tmp_path / "out.csv")
    assert out.read_bytes() == b"doc_id,field,value,tag,first_token,last_token,rule_id\r\n"


def test_rfc4180_quoting():
    text = render_results_csv([_result(value='Fondo, "Alfa"')])
    assert '"Fondo, ""Alfa"""' in text


def test_csv_round_trip(tmp_path):
    rows = [_result(), _result(field="PRODUCT_NAME", value='Fondo, "Alfa"\r\nB')]
    back = read_results_file(export_results(rows, tmp_path / "out.jsonl"))
    assert [r["field"] for r in back] == ["ISIN", "PRODUCT_NAME"]
    assert back[1]["value"] == 'Fondo, "Alfa"\r\nB'
    assert back[0]["first_token"] == "2"


def test_deterministic_exports(tmp_path):
    rows = [_result(), _result(field="B")]
    a = export_results(rows, tmp_path / "a.csv").read_bytes()
    b = export_results(rows, tmp_path / "b.csv").read_bytes()
    assert a == b


# --- the reference ISIN rule against a product-section fixture ------------------

PRODUCT_FIXTURE = (
    "Documento contenente le informazioni chiave\n"
    "Cos'è questo prodotto?\n"
    "Tipo: certificato con capitale condizionatamente protetto\n"
    "ISIN: CH0524993752\n"
    "Emittente: Credit Suisse AG\n"
    "Quali sono i rischi e qual è il potenziale rendimento?\n"
)


def _fixture_doc(with_sections=True):
    doc = annotate.tokenize_document(Document("fig1", textprep.normalize_text(PRODUCT_FIXTURE)))
    if with_sections:
        doc = annotate.annotate_sections(doc, annotate.default_section_config())
    return doc


def test_reference_isin_rule_extracts_the_code():
    from test_ruledsl import ISIN_RULE
    compiled = ruledsl.compile_rules(ruledsl.parse_rules(ISIN_RULE, "isin"))
    _, results = run_rules(compiled, _fixture_doc())
    assert [(r.field, r.value) for r in results] == [("ISIN", "CH0524993752")]


def test_reference_isin_rule_needs_section_annotations():
    from test_ruledsl import ISIN_RULE
    compiled = ruledsl.compile_rules(ruledsl.parse_rules(ISIN_RULE, "isin"))
    _, results = run_rules(compiled, _fixture_doc(with_sections=False))
    assert results == []


def test_two_isin_occurrences_two_results():
    from test_ruledsl import ISIN_RULE
    text = ("Cos'è questo prodotto?\n"
            "ISIN: CH0524993752 della classe A.\n"
            "Codice del Prodotto : LU1234567890 per la classe B.\n")
    compiled = ruledsl.compile_rules(ruledsl.parse_rules(ISIN_RULE, "isin"))
    results = annotate_doc(Document("d", textprep.normalize_text(text)), compiled,
                           annotate.default_section_config())
    assert [r.value for r in results] == ["CH0524993752", "LU1234567890"]
    spans = [(r.first_token, r.last_token) for r in results]
    assert spans == sorted(spans)


def test_annotate_doc_is_tokenize_then_sections_then_rules(tmp_path):
    corpusgen.gen_corpus(20, 42, 0.1, tmp_path)
    compiled = ruledsl.compile_rules(ruledsl.parse_rules(
        read_utf8(DATA / "default_rules.tre"), "default_rules.tre"))
    sections = annotate.default_section_config()
    found = 0
    for path in sorted((tmp_path / "docs").iterdir()):
        doc = textprep.load_document(path.stem, path)
        steps = annotate.annotate_sections(annotate.tokenize_document(doc), sections)
        results = annotate_doc(doc, compiled, sections)
        assert results == run_rules(compiled, steps)[1]
        found += len(results)
    assert found == 20 * 8
