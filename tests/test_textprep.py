import json
import random

import pytest

from kidex.model import SchemaError
from kidex.textprep import load_document, normalize_text


def test_ligatures_mapped():
    assert normalize_text("rendimento ﬁnanziario") == "rendimento finanziario"
    assert normalize_text("ﬂusso ﬀari ﬃ ﬄ") == "flusso ffari ffi ffl"


def test_dehyphenation_joins_wrapped_words():
    assert normalize_text("pro-\ndotto") == "prodotto"


def test_dehyphenation_keeps_numeric_ranges():
    assert normalize_text("2019-\n2020") == "2019-\n2020"


def test_dehyphenation_stops_at_blank_lines():
    assert normalize_text("pro-\n\ndotto") == "pro-\n\ndotto"


def test_whitespace_collapsed():
    assert normalize_text("a \t b") == "a b"
    assert normalize_text("a\tb") == "a b"
    assert normalize_text("a\n\n\n\nb") == "a\n\nb"


def test_control_chars_stripped_except_newline():
    assert normalize_text("a\x00b\x07c\nd") == "abc\nd"


def test_every_control_char_but_tab_and_newline_stripped():
    controls = [chr(c) for c in (*range(0x20), *range(0x7F, 0xA0)) if chr(c) not in "\t\n"]
    assert len(controls) == 63
    assert normalize_text("a" + "".join(controls) + "b\xa0c\u2028d") == "ab\xa0c\u2028d"


def test_crlf_becomes_lf():
    assert normalize_text("a\r\nb") == "a\nb"


def test_idempotence_on_random_noise():
    rng = random.Random(17)
    pieces = ["pro-\ndotto", "ﬁ", "a  \t b", "x\n\n\n\ny", "2019-\n2020", " ", "\x01", "täst"]
    for _ in range(200):
        raw = "".join(rng.choice(pieces) for _ in range(rng.randrange(1, 12)))
        once = normalize_text(raw)
        assert normalize_text(once) == once


def test_no_ligature_or_control_in_output():
    out = normalize_text("ﬁﬂﬀﬃﬄ \x02\x03 a\tb")
    assert not any(ch in out for ch in "ﬁﬂﬀﬃﬄ")
    assert all(ch == "\n" or ord(ch) >= 32 for ch in out)


def test_load_plain_text_document(tmp_path):
    path = tmp_path / "doc1.txt"
    path.write_text("ISIN:  CH0524993752", encoding="utf-8")
    doc = load_document("doc1", path)
    assert doc.doc_id == "doc1"
    assert doc.text == "ISIN: CH0524993752"
    assert doc.pages == ()
    assert doc.tokens == ()


def test_load_page_file_records_breaks(tmp_path):
    path = tmp_path / "doc2.pages.json"
    path.write_text(json.dumps({"doc_id": "doc2", "pages": ["uno", "due due", "tre"]}),
                    encoding="utf-8")
    doc = load_document("ignored", path)
    assert doc.doc_id == "doc2"
    assert doc.pages == (4, 12)
    assert doc.pages[0] < doc.pages[1]
    assert doc.page_texts() == ["uno", "due due", "tre"]


def test_load_empty_file_is_fine(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    doc = load_document("e", path)
    assert doc.text == ""
    assert doc.tokens == ()


def test_invalid_utf8_names_byte_offset(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ok \xff\xfe more")
    with pytest.raises(SchemaError, match="byte offset 3"):
        load_document("bad", path)


def test_malformed_page_file_names_field(tmp_path):
    path = tmp_path / "bad.pages.json"
    path.write_text(json.dumps({"doc_id": "x"}), encoding="utf-8")
    with pytest.raises(SchemaError, match="pages"):
        load_document("x", path)
    path.write_text(json.dumps({"pages": ["ok", 3]}), encoding="utf-8")
    with pytest.raises(SchemaError, match=r"pages\[1\]"):
        load_document("x", path)


def test_missing_file_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_document("x", tmp_path / "nope.txt")
