"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` runs the same assertions silently.
"""
import json
import random
import statistics
import time
from decimal import Decimal

import pytest

from helpers import STD_BINDINGS, make_doc, rand_pattern, rand_tokens
from kidex import annotate, ruledsl, textprep
from kidex.cli import main
from kidex.evalkit import GoldSet, evaluate, f_measure
from kidex.matcher import find_matches, run_rules
from kidex.model import BBox, Cell, Document
from kidex.normalize import normalize_number
from kidex.tabrec import TabConfig, group_rows
from oracles import TokenListCtx, brute_find, cluster_rows_oracle, expected_number


def _ok(name, detail=""):
    print(f"\nACCEPTANCE PASS: {name}" + (f" ({detail})" if detail else ""))


# --- 1. matcher oracle equivalence -------------------------------------------

def test_matcher_oracle_equivalence_10k_under_60s():
    rng = random.Random(20240)
    started = time.perf_counter()
    cases = 10_000
    for _ in range(cases):
        pattern = rand_pattern(rng, 3)
        texts = rand_tokens(rng, max_len=8)
        expected = brute_find(pattern, TokenListCtx(texts), bindings=STD_BINDINGS)
        m = find_matches(ruledsl.compile_pattern(pattern, STD_BINDINGS), make_doc(texts))
        got = None if m is None else (m.start, m.end, dict(m.captures))
        assert got == expected, (ruledsl.print_pattern(pattern), texts)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"oracle equivalence took {elapsed:.1f}s"
    _ok("matcher oracle equivalence", f"{cases} cases in {elapsed:.1f}s")


# --- 2. reference ISIN rule fidelity ---------------------------------------------------

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

PRODUCT_SECTION_FIXTURE = (
    "Documento contenente le informazioni chiave\n"
    "Cos'è questo prodotto?\n"
    "Tipo: certificato con capitale condizionatamente protetto\n"
    "ISIN: CH0524993752\n"
    "Emittente: Credit Suisse AG\n"
)


def test_reference_isin_rule_fidelity():
    compiled = ruledsl.compile_rules(ruledsl.parse_rules(ISIN_RULE, "isin"))
    doc = annotate.tokenize_document(Document("fig1", textprep.normalize_text(PRODUCT_SECTION_FIXTURE)))
    with_sections = annotate.annotate_sections(doc, annotate.default_section_config())
    _, results = run_rules(compiled, with_sections)
    assert [(r.field, r.value) for r in results] == [("ISIN", "CH0524993752")]
    _, bare = run_rules(compiled, doc)
    assert bare == []
    _ok("reference ISIN rule fidelity", 'one extraction "CH0524993752"; zero without sections')


# --- 3. F-measure consistency ---------------------------------------------------

def test_f_measure_consistency_with_reported_rows():
    assert f_measure(0.98, 0.96) == pytest.approx(0.9699, abs=1e-4)
    assert f_measure(0.98, 0.94) == pytest.approx(0.9596, abs=1e-4)
    # realized through evaluate: tp=1176 fp=24 fn=49 gives P=0.98, R=0.96
    for tp, fp, fn, p_want, r_want, f_want in ((1176, 24, 49, 0.98, 0.96, 0.9699),
                                               (2303, 47, 147, 0.98, 0.94, 0.9596)):
        gold = [("d", "F", f"tp{i}") for i in range(tp)] + \
               [("d", "F", f"fn{i}") for i in range(fn)]
        pred = [("d", "F", f"tp{i}") for i in range(tp)] + \
               [("d", "F", f"fp{i}") for i in range(fp)]
        report = evaluate(GoldSet.from_parts(gold), pred)
        assert report.micro.precision == pytest.approx(p_want, abs=1e-9)
        assert report.micro.recall == pytest.approx(r_want, abs=1e-9)
        assert report.micro.f == pytest.approx(f_want, abs=1e-4)
    _ok("F-measure consistency", "0.98/0.96 -> 0.9699 and 0.98/0.94 -> 0.9596")


# --- 4. end-to-end golden -------------------------------------------------------

@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def test_end_to_end_golden_200_docs(workdir):
    corpus = workdir / "golden"
    pred = workdir / "golden_pred"
    pred.mkdir()
    started = time.perf_counter()
    assert main(["gen", "--n", "200", "--seed", "42", "--noise", "0",
                 "--out", str(corpus)]) == 0
    assert main(["annotate", "--in", str(corpus / "docs"),
                 "--out", str(pred / "fields.csv")]) == 0
    assert main(["tables", "--masks", str(corpus / "masks"),
                 "--pages", str(corpus / "docs"), "--out", str(pred / "tables.jsonl")]) == 0
    assert main(["eval", "--gold", str(corpus / "gold"), "--pred", str(pred)]) == 0
    elapsed = time.perf_counter() - started

    report = json.loads((pred / "eval_report.json").read_text(encoding="utf-8"))
    assert report["fields"], "no fields scored"
    for field, score in report["fields"].items():
        assert score["precision"] == 1.0 and score["recall"] == 1.0, (field, score)
    assert report["micro"]["precision"] == 1.0 and report["micro"]["recall"] == 1.0
    for ttype, score in report["tables"].items():
        assert score["missing"] == 0 and score["incorrect"] == 0, (ttype, score)
        assert score["extracted"] == 200
    assert elapsed < 30.0, f"golden pipeline took {elapsed:.1f}s"
    _ok("end-to-end golden", f"200 docs, P=R=1.0, Missing=0, {elapsed:.1f}s")


# --- 5. failure-mode reproduction ----------------------------------------------

def test_failure_mode_dropped_headers_exactly_reconciled(workdir):
    corpus = workdir / "noisy"
    assert main(["gen", "--n", "120", "--seed", "7", "--noise", "0.3",
                 "--out", str(corpus)]) == 0
    out = workdir / "noisy_tables.jsonl"
    assert main(["tables", "--masks", str(corpus / "masks"),
                 "--pages", str(corpus / "docs"), "--out", str(out)]) == 0

    log = json.loads((corpus / "gold" / "noise.json").read_text(encoding="utf-8"))
    dropped = {(doc_id, ttype) for doc_id, ttype in log["dropped_headers"]}
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    missing = {(r["doc_id"], r["type"]) for r in rows if r["status"] == "missing"}

    dropped_evo = {d for d in dropped if d[1] == "costs_evolution"}
    missing_evo = {m for m in missing if m[1] == "costs_evolution"}
    assert len(dropped_evo) > 0, "noise produced no drops; test is vacuous"
    assert missing_evo == dropped_evo
    assert len(missing_evo) == len(dropped_evo)
    # the numerical cell masks were detected: only header-dropped tables went missing
    assert missing == dropped
    _ok("failure-mode reproduction",
        f"costs_evolution Missing == dropped headers == {len(dropped_evo)}")


# --- 6. row-grouping oracle ------------------------------------------------------

def test_row_grouping_oracle_1000_layouts():
    rng = random.Random(31337)
    cfg = TabConfig()
    for _ in range(1000):
        n = rng.randrange(1, 16)
        tops = [rng.randrange(0, 500) for _ in range(n)]
        heights = [rng.randrange(8, 70) for _ in range(n)]
        cells = [Cell(BBox(3 * i, tops[i], 3 * i + 2, tops[i] + heights[i]), str(i))
                 for i in range(n)]
        factor = cfg.alignment_factor_ratio * statistics.median(heights)
        expected = cluster_rows_oracle(tops, factor)
        got = [sorted(int(c.text) for c in row) for row in group_rows(cells, cfg).rows]
        assert got == expected, (tops, heights)
    _ok("row-grouping oracle", "1000 layouts")


# --- 7. normalization suite -------------------------------------------------------

def test_normalization_suite_rules_and_enumeration():
    # the documented rule examples
    assert normalize_number("1.234,56") == Decimal("1234.56")
    assert normalize_number("€ 9.915,45") == Decimal("9915.45")
    assert normalize_number("1.234") == Decimal("1234")
    assert normalize_number("-0,85 %") == Decimal("-0.85")
    assert normalize_number("12,5%") == Decimal("12.5")
    # every single-separator format with <= 7 digits against the oracle
    checked = 0
    fill = "1234567"
    for n1 in range(0, 8):
        for n2 in range(0, 8 - n1):
            if n1 + n2 == 0:
                continue
            d1, d2 = fill[:n1], fill[n1:n1 + n2]
            for sep in (".", ","):
                value = normalize_number(d1 + sep + d2)
                assert value == expected_number(d1, d2, sep), (d1, sep, d2)
                if value is not None:
                    assert normalize_number(format(value, "f")) == value
                checked += 1
    for n in range(1, 8):
        assert normalize_number(fill[:n]) == expected_number(fill[:n], "", None)
        checked += 1
    _ok("normalization suite", f"{checked} formats, idempotent on canonical outputs")


# --- 8. determinism across runs ---------------------------------------------------

def test_every_command_deterministic_across_runs(workdir):
    corpus_a = workdir / "det_a"
    corpus_b = workdir / "det_b"
    assert main(["gen", "--n", "30", "--seed", "3", "--noise", "0.2", "--out", str(corpus_a)]) == 0
    assert main(["gen", "--n", "30", "--seed", "3", "--noise", "0.2", "--out", str(corpus_b)]) == 0
    tree_a = {str(p.relative_to(corpus_a)): p.read_bytes()
              for p in sorted(corpus_a.rglob("*")) if p.is_file()}
    tree_b = {str(p.relative_to(corpus_b)): p.read_bytes()
              for p in sorted(corpus_b.rglob("*")) if p.is_file()}
    assert tree_a == tree_b

    outputs = []
    for run in (1, 2):
        fields = workdir / f"det_fields_r{run}.csv"
        tables = workdir / f"det_tables_r{run}.jsonl"
        pred = workdir / f"det_pred_r{run}"
        pred.mkdir(exist_ok=True)
        assert main(["annotate", "--in", str(corpus_a / "docs"), "--out", str(fields)]) == 0
        assert main(["tables", "--masks", str(corpus_a / "masks"),
                     "--pages", str(corpus_a / "docs"), "--out", str(tables)]) == 0
        (pred / "fields.csv").write_bytes(fields.read_bytes())
        (pred / "tables.jsonl").write_bytes(tables.read_bytes())
        assert main(["eval", "--gold", str(corpus_a / "gold"), "--pred", str(pred)]) == 0
        outputs.append((fields.read_bytes(), tables.read_bytes(),
                        (pred / "eval_report.json").read_bytes()))
    assert outputs[0] == outputs[1]
    _ok("determinism", "annotate/tables/eval byte-identical across two runs; gen trees identical")
