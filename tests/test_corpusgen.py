import hashlib
import json
import re
from pathlib import Path

import pytest

from kidex.corpusgen import gen_corpus
from kidex.evalkit import load_gold_fields
from kidex.model import load_page_detections
from kidex.tabrec import TabConfig, TableType, default_labels_config, extract_table


def _tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_layout_and_counts(tmp_path):
    out = gen_corpus(2, 42, 0.0, tmp_path / "c")
    assert sorted(p.name for p in (out / "docs").iterdir()) == \
        ["kid00001.pages.json", "kid00002.pages.json"]
    assert len(list((out / "masks").iterdir())) == 6  # three table pages per doc
    gold = load_gold_fields(out / "gold" / "fields.jsonl")
    assert len(gold) == 16  # eight fields per document
    tables = (out / "gold" / "tables.jsonl").read_text(encoding="utf-8").splitlines()
    assert len(tables) == 6


def test_gold_isin_matches_code_format(tmp_path):
    out = gen_corpus(4, 1, 0.0, tmp_path / "c")
    for doc_id, field, value in load_gold_fields(out / "gold" / "fields.jsonl"):
        if field == "ISIN":
            assert re.fullmatch(r"[A-Za-z][A-Za-z][0-9]{10}", value), value


# sha256 of every file `kidex gen --n 3 --seed 42 --noise 0.1` writes
_PINNED = {
    "docs/kid00001.pages.json": "07a5d49474d89967c4fd14f8f712668ad9ed7c6af44af927de66206cbde512d5",
    "docs/kid00002.pages.json": "f01ab1700b833ec6b85237dc8d67175fe8d3f160b14df15f95cddf9176dfb67a",
    "docs/kid00003.pages.json": "116a22dc066d9ffe359ec0833e16a97196e83f4ee9bab5f9464ecaddf57ead30",
    "gold/fields.jsonl": "dacea8602105e7b1e3fdc798d61a26cb78130b18866ba69969a401912f04b854",
    "gold/noise.json": "bbc13943abcdcc846e289fbd6d8171edff194aa8bca285410e5dc82996860c17",
    "gold/tables.jsonl": "733691eb63984d8176f29a0b4170ae3084c2fbaeaa340d72e3771ee60482dd5c",
    "masks/kid00001.p3.json": "4130585e4707c5e4e0fbbc23c13a6adc29943fa108c65760a68aceae132a7317",
    "masks/kid00001.p4.json": "2a4dc13f5f800ca2b0c17acf1ff2a6425bf359455b183cbee431cd30c74a0821",
    "masks/kid00001.p5.json": "638bcffb9ca41e3fc41e27bb54519da2d87f2f6e43189b122562fc17d3904106",
    "masks/kid00002.p3.json": "04df78bc3f9501f91d9ffec459055351d69f235d1f3aa6102adb9099ecca858f",
    "masks/kid00002.p4.json": "2e0a92e9a5a9eb8cb093b6d30595904ab95b70bb1b865b81280c6c6e0500fa90",
    "masks/kid00002.p5.json": "49b73fb935a185ae27539a099bd5bce842be18a7ffd4c79e02dd245ca36d51ad",
    "masks/kid00003.p3.json": "21a344810ae81410809e1eecefe258e3bfa510ef4f25a303218550b2081314cd",
    "masks/kid00003.p4.json": "003704b2722ea90bebe0053e5e2e1602cac7b31f27d76f01a6d92f9101ff17c9",
    "masks/kid00003.p5.json": "303080040d0a67f4d7d7dd0a8e00d92e1c5004e3d7ccb12d4b95aa23c0cab94d",
}


def test_gen_writes_the_pinned_bytes(tmp_path):
    out = gen_corpus(3, 42, 0.1, tmp_path / "c")
    assert {path: hashlib.sha256(data).hexdigest()
            for path, data in _tree_bytes(out).items()} == _PINNED


def test_same_seed_byte_identical(tmp_path):
    a = gen_corpus(3, 42, 0.25, tmp_path / "a")
    b = gen_corpus(3, 42, 0.25, tmp_path / "b")
    assert _tree_bytes(a) == _tree_bytes(b)


def test_different_seed_differs(tmp_path):
    a = gen_corpus(2, 1, 0.0, tmp_path / "a")
    b = gen_corpus(2, 2, 0.0, tmp_path / "b")
    assert _tree_bytes(a) != _tree_bytes(b)


def test_noise_zero_has_empty_bookkeeping(tmp_path):
    out = gen_corpus(3, 5, 0.0, tmp_path / "c")
    log = json.loads((out / "gold" / "noise.json").read_text(encoding="utf-8"))
    assert log["dropped_headers"] == []
    assert log["confused_texts"] == 0


def test_full_noise_drops_every_header(tmp_path):
    out = gen_corpus(3, 5, 1.0, tmp_path / "c")
    log = json.loads((out / "gold" / "noise.json").read_text(encoding="utf-8"))
    assert len(log["dropped_headers"]) == 9  # every (doc, type)
    cfg = TabConfig()
    labels = default_labels_config()
    for path in sorted((out / "masks").iterdir()):
        page = load_page_detections(path)
        hint = {3: TableType.PERFORMANCE_SCENARIOS, 4: TableType.COSTS_EVOLUTION,
                5: TableType.COSTS_COMPOSITION}[page.page]
        assert extract_table(page, hint, cfg, labels) is None


def test_page_bboxes_valid(tmp_path):
    out = gen_corpus(2, 9, 0.0, tmp_path / "c")
    for path in (out / "masks").iterdir():
        page = load_page_detections(path)  # constructor validates bounds
        assert page.detections and page.ocr


def test_n_must_be_positive(tmp_path):
    with pytest.raises(ValueError):
        gen_corpus(0, 1, 0.0, tmp_path / "c")
    with pytest.raises(ValueError):
        gen_corpus(1, 1, 1.5, tmp_path / "c")


def test_noisy_numeric_texts_always_repair(tmp_path):
    # the document content stream is independent of the noise stream, so the
    # clean twin identifies which OCR texts are numeric; after full confusion
    # injection every one of them must repair to the same value
    from kidex.normalize import fix_confusions, normalize_number
    clean = gen_corpus(4, 13, 0.0, tmp_path / "clean")
    noisy = gen_corpus(4, 13, 1.0, tmp_path / "noisy")
    compared = 0
    for path in sorted((clean / "masks").iterdir()):
        page_clean = load_page_detections(path)
        page_noisy = load_page_detections(noisy / "masks" / path.name)
        assert len(page_clean.ocr) == len(page_noisy.ocr)
        for a, b in zip(page_clean.ocr, page_noisy.ocr):
            value = normalize_number(a.text)
            if value is None:
                continue
            assert normalize_number(fix_confusions(b.text)) == value, (a.text, b.text)
            compared += 1
    assert compared > 50
