import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kidex.model import (BBox, Detection, DetectionClass, OcrEntry, PageDetections,
                         dump_page_detections)

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def _composition_page(doc_id, page, rows) -> PageDetections:
    """A page holding one borderless table: a label cell and a value cell per row."""
    detections = [Detection(DetectionClass.BORDERLESS_TABLE, 0.95,
                            BBox(80, 80, 1100, 120 + 130 * len(rows)))]
    ocr = []
    for i, texts in enumerate(rows):
        top = 100 + 130 * i
        for box, text in zip((BBox(100, top, 700, top + 80), BBox(750, top, 1050, top + 80)),
                             texts):
            detections.append(Detection(DetectionClass.CELL, 0.9, box))
            ocr.append(OcrEntry(box, text))
    return PageDetections(doc_id, page, 2480, 3508, tuple(detections), tuple(ocr))


def test_readme_library_use_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.DOTALL)[1]
    (tmp_path / "rules.tre").write_bytes((ROOT / "src" / "kidex" / "data"
                                          / "default_rules.tre").read_bytes())
    (tmp_path / "doc1.txt").write_text("Cos'è questo prodotto?\n"
                                       "Prodotto: Fondo Bilanciato Prudente 2030\n"
                                       "ISIN: IT0001234567\nEmittente: Esempio SGR\n"
                                       "Composizione dei costi\n",
                                       encoding="utf-8")
    dump_page_detections(_composition_page("doc1", 1, [("Costi di ingresso", "0,50%"),
                                                       ("Costi ignoti", "0,20%")]),
                         tmp_path / "doc1.p1.json")
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert sorted((r.field, r.value) for r in scope["results"]) == [
        ("ISIN", "IT0001234567"), ("PRODUCT_NAME", "Fondo Bilanciato Prudente 2030")]
    out, err = capsys.readouterr()
    assert out == "costs_composition p1: composition row unmatched: ['Costi ignoti', '0,20%']\n"
    assert err == ""
