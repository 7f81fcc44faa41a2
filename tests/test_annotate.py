import json
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from kidex import annotate as annotate_mod
from kidex.annotate import (PUNCT_CHARS, SECTION_KEY, SectionConfig, SectionSpec,
                            annotate_sections, default_section_config, load_section_config,
                            tokenize, tokenize_document)
from kidex.cli import main
from kidex.corpusgen import gen_corpus
from kidex.matcher import read_results_file
from kidex.model import Document
from oracles import sections_oracle, tokenize_oracle, tokenize_reference


def texts(tokens):
    return list(tokens)


def test_isin_line_tokenization():
    assert texts(tokenize("ISIN: CH0524993752")) == ["ISIN", ":", "CH0524993752"]


def test_percent_peeled():
    assert texts(tokenize("12,5%")) == ["12,5", "%"]


def test_both_sides_peeled():
    assert texts(tokenize("(Codice)")) == ["(", "Codice", ")"]


def test_interior_punctuation_kept():
    assert texts(tokenize("1.234,56 www.acme.it")) == ["1.234,56", "www.acme.it"]


def test_all_punct_chunk():
    assert texts(tokenize("... :")) == [".", ".", ".", ":"]


def test_empty_text():
    assert tokenize("") == ()


_token_chars = st.one_of(
    st.sampled_from("aZ09"),
    st.sampled_from(sorted(PUNCT_CHARS)),
    st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2009\u2028\u202f\u3000"),  # whitespace
    st.sampled_from("-/+*\u200b\ufeff"),  # neither whitespace nor punctuation
    st.characters(),
)


@seed(20220603)
@settings(max_examples=500, deadline=None, database=None)
@given(text=st.text(_token_chars, max_size=60))
def test_tokenize_agrees_with_char_scan_reference(text):
    assert tokenize(text) == tokenize_oracle(text, PUNCT_CHARS)


@seed(20261021)
@settings(max_examples=500, deadline=None, database=None)
@given(text=st.text(_token_chars, max_size=60))
def test_tokenize_agrees_with_chunk_peeling_reference(text):
    assert tokenize(text) == tokenize_reference(text)


def test_tokens_partition_the_non_space_text():
    rng = random.Random(23)
    pieces = ["ISIN:", "(x)", "a,b", "«ciao»", "12,5%", "e'", "fine.", "-", "€5"]
    for _ in range(200):
        text = " ".join(rng.choice(pieces) for _ in range(rng.randrange(0, 10)))
        tokens = tokenize(text)
        assert "".join(tokens) == "".join(text.split())
        assert all(tokens)


def _doc(text):
    return tokenize_document(Document("d", text))


CFG = SectionConfig((
    SectionSpec("SECTION_PRODUCT", ("Cos'è questo prodotto?",)),
    SectionSpec("SECTION_RISK", ("Quali sono i rischi",)),
))


def test_sections_cover_until_next_header():
    doc = _doc("intro Cos'è questo prodotto? ISIN: X Quali sono i rischi molto testo")
    doc = annotate_sections(doc, CFG)
    by_key = {}
    for ann in doc.annotations:
        assert ann.key == SECTION_KEY
        by_key[ann.value] = (ann.first, ann.last)
    # brute-force expectation: header tokens located by linear scan
    toks = doc.tokens
    start_product = toks.index("Cos'è")
    start_risk = toks.index("Quali")
    assert by_key["SECTION_PRODUCT"] == (start_product, start_risk - 1)
    assert by_key["SECTION_RISK"] == (start_risk, len(toks) - 1)
    # the leading token is in no section
    assert all(not (a.first <= 0 <= a.last) for a in doc.annotations)


def test_header_match_is_case_and_edge_punct_insensitive():
    doc = _doc("COS'È QUESTO PRODOTTO testo While")
    doc = annotate_sections(doc, CFG)
    assert [a.value for a in doc.annotations] == ["SECTION_PRODUCT"]


def test_no_headers_no_annotations():
    doc = annotate_sections(_doc("nessuna intestazione qui"), CFG)
    assert doc.annotations == ()


def test_same_section_twice_two_ranges():
    cfg = SectionConfig((SectionSpec("S", ("Header uno",)),))
    doc = _doc("Header uno a b Header uno c")
    doc = annotate_sections(doc, cfg)
    values = [(a.value, a.first, a.last) for a in doc.annotations]
    assert len(values) == 2
    assert values[0][0] == values[1][0] == "S"
    assert values[0][2] == values[1][1] - 1


def test_sections_never_overlap():
    doc = _doc("Cos'è questo prodotto? Quali sono i rischi fine")
    doc = annotate_sections(doc, CFG)
    seen = {}
    for ann in doc.annotations:
        for i in range(ann.first, ann.last + 1):
            assert i not in seen
            seen[i] = ann.value


def test_overlapping_headers_earlier_wins():
    cfg = SectionConfig((SectionSpec("LONG", ("alpha beta gamma",)),
                         SectionSpec("SHORT", ("beta gamma",))))
    doc = _doc("alpha beta gamma resto")
    doc = annotate_sections(doc, cfg)
    assert [a.value for a in doc.annotations] == ["LONG"]


def test_tied_headers_shortest_phrase_wins_and_next_header_may_follow():
    # both S0 phrases start at "alpha": the shorter one ends first, so S1's
    # phrase right after it is kept
    cfg = SectionConfig((SectionSpec("S0", ("alpha beta", "alpha")),
                         SectionSpec("S1", ("beta gamma",))))
    doc = annotate_sections(_doc("alpha beta gamma resto"), cfg)
    assert [(a.value, a.first, a.last) for a in doc.annotations] == [("S0", 0, 0), ("S1", 1, 3)]


def test_default_config_ships_five_sections():
    cfg = default_section_config()
    names = [s.name for s in cfg.sections]
    assert names == ["SECTION_PRODUCT", "SECTION_RISK", "SECTION_PERFORMANCE",
                     "SECTION_COSTS", "SECTION_COMPLAINTS"]


def test_config_validation():
    with pytest.raises(ValueError):
        SectionConfig((SectionSpec("A", ("x",)), SectionSpec("A", ("y",))))
    with pytest.raises(ValueError):
        SectionConfig((SectionSpec("A", ()),))


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "sections.json"
    path.write_text('{"sections": [{"name": "S1", "header_patterns": ["Intestazione"]}]}',
                    encoding="utf-8")
    cfg = load_section_config(path)
    assert cfg.sections[0].name == "S1"


# header words with case variants (casefold maps "ß" to "ss"), words with
# edge punctuation, and the punctuation itself, which alone tokenizes away
_HEADER_WORDS = ("Cos'è", "COS'È", "questo", "prodotto", "Prodotto?", "PRODOTTO", "rischi",
                 "(Rischi)", "costi", "COSTI:", "Straße", "STRASSE", "x")
_header_word = st.one_of(st.sampled_from(_HEADER_WORDS), st.sampled_from(sorted(PUNCT_CHARS)))


@st.composite
def _text_and_section_config(draw):
    """A section config plus a text that strings its phrases among random words.

    Phrases come from one small pool holding every word prefix of each drawn
    phrase and the empty phrase, so sections repeat phrases and phrases
    overlap or prefix each other; an empty or punctuation-only phrase has
    no key.
    """
    phrases = draw(st.lists(st.lists(_header_word, min_size=1, max_size=4),
                            min_size=1, max_size=4))
    pool = sorted({" ".join(words[:k]) for words in phrases for k in range(len(words) + 1)})
    phrase = st.sampled_from(pool)
    specs = tuple(SectionSpec(f"S{r}", tuple(draw(st.lists(phrase, min_size=1, max_size=3))))
                  for r in range(draw(st.integers(1, 4))))
    text = " ".join(draw(st.lists(st.one_of(_header_word, phrase), min_size=1, max_size=30)))
    return text, SectionConfig(specs)


@seed(20221018)
@settings(max_examples=400, deadline=None, database=None)
@given(case=_text_and_section_config())
def test_sections_agree_with_all_phrases_reference(case):
    text, cfg = case
    doc = _doc(text)
    assert annotate_sections(doc, cfg).annotations == sections_oracle(doc, cfg)


def test_annotate_tokenizes_each_header_phrase_once_per_run(tmp_path, monkeypatch):
    gen_corpus(4, 11, 0.0, tmp_path / "corpus")
    texts = []

    def counting(text):
        texts.append(text)
        return tokenize(text)

    monkeypatch.setattr(annotate_mod, "tokenize", counting)
    assert main(["annotate", "--in", str(tmp_path / "corpus" / "docs"),
                 "--out", str(tmp_path / "fields.csv")]) == 0
    phrases = [p for spec in default_section_config().sections for p in spec.header_patterns]
    assert len(texts) == 4 + len(phrases)
    assert sorted(set(texts) & set(phrases)) == sorted(set(phrases))


@pytest.mark.parametrize("space", ["  ", "\xa0"], ids=["doubled", "nbsp"])
def test_annotate_fields_hold_when_spaces_change(tmp_path, space):
    corpus = gen_corpus(10, 42, 0.1, tmp_path / "corpus")
    edited = tmp_path / "edited"
    edited.mkdir()
    for src in sorted((corpus / "docs").iterdir()):
        doc = json.loads(src.read_text(encoding="utf-8"))
        doc["pages"] = [page.replace(" ", space) for page in doc["pages"]]
        (edited / src.name).write_text(json.dumps(doc), encoding="utf-8")
    fields = []
    for docs in (corpus / "docs", edited):
        out = tmp_path / f"{docs.name}.csv"
        assert main(["annotate", "--in", str(docs), "--out", str(out)]) == 0
        fields.append({(r["doc_id"], r["field"], r["value"]) for r in read_results_file(out)})
    assert fields[0] and fields[1] == fields[0]
