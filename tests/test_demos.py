import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_readme_library_use_runs(tmp_path, monkeypatch):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.DOTALL)[1]
    (tmp_path / "rules.tre").write_bytes((ROOT / "src" / "kidex" / "data"
                                          / "default_rules.tre").read_bytes())
    (tmp_path / "doc1.txt").write_text("Cos'è questo prodotto?\n"
                                       "Prodotto: Fondo Bilanciato Prudente 2030\n"
                                       "ISIN: IT0001234567\nEmittente: Esempio SGR\n",
                                       encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert sorted((r.field, r.value) for r in scope["results"]) == [
        ("ISIN", "IT0001234567"), ("PRODUCT_NAME", "Fondo Bilanciato Prudente 2030")]
