import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kidex.cli
import kidex.tabrec
from kidex.cli import main
from kidex.matcher import read_results_file
from kidex.model import TableType


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert main(["gen", "--n", "3", "--seed", "8", "--noise", "0", "--out", str(root)]) == 0
    return root


def test_gen_same_seed_identical_trees(tmp_path):
    assert main(["gen", "--n", "2", "--seed", "5", "--noise", "0", "--out", str(tmp_path / "a")]) == 0
    assert main(["gen", "--n", "2", "--seed", "5", "--noise", "0", "--out", str(tmp_path / "b")]) == 0
    a = {p.relative_to(tmp_path / "a"): p.read_bytes() for p in sorted((tmp_path / "a").rglob("*.json*"))}
    b = {p.relative_to(tmp_path / "b"): p.read_bytes() for p in sorted((tmp_path / "b").rglob("*.json*"))}
    assert a == b


def test_annotate_end_to_end(corpus, tmp_path):
    out = tmp_path / "fields.csv"
    assert main(["annotate", "--in", str(corpus / "docs"), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].startswith("doc_id,field,value")
    assert len(lines) == 1 + 3 * 8


def test_annotate_csv_and_jsonl_read_back_the_same_rows(corpus, tmp_path):
    rows = {}
    for fmt in ("csv", "jsonl"):
        out = tmp_path / f"fields.{fmt}"
        assert main(["annotate", "--in", str(corpus / "docs"), "--out", str(out),
                     "--format", fmt]) == 0
        rows[fmt] = [{k: str(v) for k, v in row.items()} for row in read_results_file(out)]
    assert len(rows["csv"]) == 3 * 8
    assert rows["csv"] == rows["jsonl"]  # the same (doc_id, field, value) and token range


def test_eval_report_is_the_same_for_csv_and_jsonl_predictions(corpus, tmp_path):
    tables = tmp_path / "tables.jsonl"
    assert main(["tables", "--masks", str(corpus / "masks"), "--pages", str(corpus / "docs"),
                 "--out", str(tables)]) == 0
    reports = []
    for fmt in ("csv", "jsonl"):
        pred = tmp_path / fmt
        pred.mkdir()
        shutil.copy(tables, pred / "tables.jsonl")
        assert main(["annotate", "--in", str(corpus / "docs"),
                     "--out", str(pred / f"fields.{fmt}"), "--format", fmt]) == 0
        assert main(["eval", "--gold", str(corpus / "gold"), "--pred", str(pred)]) == 0
        reports.append((pred / "eval_report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["micro"]["precision"] == 1.0


_PAGE_FILE = '{"doc_id": "kid%s", "pages": ["Cos\'è questo prodotto?\\nISIN: IT0001234567 fine"]}\n'


@pytest.mark.parametrize("command", ["annotate", "tables", "config"])
def test_lone_surrogate_escape_is_an_input_or_config_error(tmp_path, capsys, command):
    docs, masks, out = tmp_path / "docs", tmp_path / "masks", tmp_path / "out"
    docs.mkdir()
    masks.mkdir()
    page, cfg = docs / "kid1.pages.json", tmp_path / "cfg.json"
    page.write_text(_PAGE_FILE % "\\ud800", encoding="utf-8")  # a config error comes first
    cfg.write_text('{"labels": "\\udc00"}', encoding="utf-8")
    argv = {"annotate": ["annotate", "--in", str(docs)],
            "tables": ["tables", "--masks", str(masks), "--pages", str(docs)],
            "config": ["--config", str(cfg), "tables", "--masks", str(masks),
                       "--pages", str(docs)]}[command]
    assert main(argv + ["--out", str(out)]) == 1
    first = capsys.readouterr().err.splitlines()[0]
    if command == "config":
        assert first == f"config error: {cfg}: a string holds a lone surrogate (\\udc00)"
    else:
        assert first == f"input error: {page}: a string holds a lone surrogate (\\ud800)"
    assert not out.exists()


def test_escaped_surrogate_pair_still_extracts(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "kid1.pages.json").write_text(_PAGE_FILE % "\\ud83d\\ude00", encoding="utf-8")
    out = tmp_path / "fields.jsonl"
    assert main(["annotate", "--in", str(docs), "--out", str(out), "--format", "jsonl"]) == 0
    assert [(r["doc_id"], r["field"], r["value"]) for r in read_results_file(out)] == \
        [("kid\U0001F600", "ISIN", "IT0001234567")]


def test_eval_reads_a_csv_field_longer_than_the_csv_modules_default_limit(tmp_path):
    docs, pred = tmp_path / "docs", tmp_path / "pred"
    docs.mkdir()
    pred.mkdir()
    text = "Cos'è questo prodotto?\nProdotto : " + "parola " * 30000 + "\nISIN : IT0001234567 fine\n"
    (docs / "kid1.pages.json").write_text(json.dumps({"pages": [text]}), encoding="utf-8")
    for fmt in ("jsonl", "csv"):
        assert main(["annotate", "--in", str(docs), "--out", str(pred / f"fields.{fmt}"),
                     "--format", fmt]) == 0
    rows = read_results_file(pred / "fields.csv")
    assert rows == [{k: str(v) for k, v in row.items()}
                    for row in read_results_file(pred / "fields.jsonl")]
    assert max(len(r["value"]) for r in rows) > 131072  # the csv module's default field limit
    (pred / "fields.jsonl").unlink()
    gold = tmp_path / "gold"
    gold.mkdir()
    for name in ("fields.jsonl", "tables.jsonl"):
        (gold / name).write_text("", encoding="utf-8")
    assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 0


@pytest.mark.parametrize("command", ["annotate", "tables"])
@pytest.mark.parametrize("page_file, message", [
    ({"doc_id": "kid1", "pages": "abc"}, "field 'pages' must be a list of strings"),
    ({"doc_id": 5, "pages": ["abc"]}, "field 'doc_id' must be a string"),
], ids=["pages-a-string", "doc-id-a-number"])
def test_malformed_page_file_is_input_error(tmp_path, capsys, page_file, message, command):
    docs, masks, out = tmp_path / "docs", tmp_path / "masks", tmp_path / "out"
    docs.mkdir()
    masks.mkdir()
    page = docs / "kid1.pages.json"
    page.write_text(json.dumps(page_file), encoding="utf-8")
    argv = {"annotate": ["annotate", "--in", str(docs)],
            "tables": ["tables", "--masks", str(masks), "--pages", str(docs)]}[command]
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"input error: {page}: {message}\n"
    assert not out.exists()


def test_annotate_bad_rules_exit_3(corpus, tmp_path):
    bad = tmp_path / "bad.tre"
    bad.write_text("$X = (/a/", encoding="utf-8")
    code = main(["annotate", "--rules", str(bad), "--in", str(corpus / "docs"),
                 "--out", str(tmp_path / "o.csv")])
    assert code == 3


_RULE = '{ ruleType: "tokens", pattern: ( %s ), action: ( Annotate(K, "v") )%s }\n'


def _chain(n, body):
    """``$b0 = ( /a/ )``, then ``$bN = ( body )`` for N = 1 .. n-1, and a rule on the last."""
    bindings = "".join(f"$b{i} = ( {body.format(i - 1)} )\n" for i in range(1, n))
    return "$b0 = ( /a/ )\n" + bindings + _RULE % (f"$b{n - 1}", "")


@pytest.mark.parametrize("source, message", [
    (_RULE % ("/a/", ", stage: ²"), "line 1, column 78: unexpected character '²'"),
    (_RULE % ("/a/{0,²}", ""), "line 1, column 40: unexpected character '²'"),
    (_RULE % ("/a/", ", stage: " + "9" * 5000), "a stage number has more than 9 digits"),
    (_RULE % ("/a/{0," + "9" * 5000 + "}", ""), "a repeat bound has more than 9 digits"),
    (_RULE % ("(" * 300 + "/a/" + ")" * 300, ""), "pattern nested too deeply"),
    (_chain(3000, "$b{}"), "line 3001, column 1: pattern nested too deeply"),
    (_RULE % ("/a{99999999999}/", ""),
     "invalid character regex /a{99999999999}/: the repetition number is too large"),
    (_RULE % ("/a/{0,200000}", ""),
     "line 1, column 1: pattern compiles to more than 10000 instructions"),
    (_chain(19, "$b{0} $b{0}"),
     "line 20, column 1: pattern compiles to more than 10000 instructions"),
    ('$x = "abc"\n' + _RULE % ("/a/", ""),
     'line 1, column 6: a string binding must hold a "/char-regex/"'),
    # bindings that no rule uses
    ('$bad = "/[/"\n' + _RULE % ("/a/", ""),
     "line 1, column 1: invalid character regex /[/: unterminated character set at position 0"),
    ("$p = ( /a/ /[/ )\n" + _RULE % ("/a/", ""),
     "line 1, column 12: invalid character regex /[/: unterminated character set at position 0"),
    ('$w = "/[[a]/"\n' + _RULE % ("/a/", ""),
     "line 1, column 1: invalid character regex /[[a]/: Possible nested set at position 1"),
], ids=["non-ascii-stage", "non-ascii-bound", "long-stage", "long-bound", "deep-parens",
        "binding-chain", "regex-overflow", "repeat-size", "doubling-bindings",
        "string-binding-no-slashes", "unused-regex-binding", "unused-pattern-binding",
        "unused-binding-re-warns"])
def test_annotate_malformed_rules_is_rule_error(corpus, tmp_path, capsys, source, message):
    rules = tmp_path / "bad.tre"
    rules.write_text(source, encoding="utf-8")
    code = main(["annotate", "--rules", str(rules), "--in", str(corpus / "docs"),
                 "--out", str(tmp_path / "o.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("rule error: line ") and err.endswith(message + "\n"), err


def test_annotate_empty_dir_header_only(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    out = tmp_path / "o.csv"
    assert main(["annotate", "--in", str(empty), "--out", str(out)]) == 0
    assert out.read_bytes() == b"doc_id,field,value,tag,first_token,last_token,rule_id\r\n"


def test_annotate_missing_dir_exit_1(tmp_path):
    assert main(["annotate", "--in", str(tmp_path / "nope"),
                 "--out", str(tmp_path / "o.csv")]) == 1


def test_tables_end_to_end(corpus, tmp_path, capsys):
    out = tmp_path / "tables.jsonl"
    assert main(["tables", "--masks", str(corpus / "masks"),
                 "--pages", str(corpus / "docs"), "--out", str(out)]) == 0
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == 9
    assert all(r["status"] == "extracted" for r in rows)
    summary = capsys.readouterr().out
    assert "Missing" in summary and "Extracted" in summary


def _mask_with_two_types_of_table_anchor(masks):
    """kid00001's composition table also holds an evolution table anchor."""
    mask = masks / "kid00001.p5.json"
    text = mask.read_text(encoding="utf-8")
    assert '"text": "Costi di uscita"' in text
    mask.write_text(text.replace("Costi di uscita", "Costi totali"), encoding="utf-8")


def test_tables_ambiguous_table_anchors_warn_and_leave_the_table_missing(corpus, tmp_path,
                                                                         capsys):
    masks = shutil.copytree(corpus / "masks", tmp_path / "masks")
    _mask_with_two_types_of_table_anchor(masks)
    out = tmp_path / "tables.jsonl"
    assert main(["tables", "--masks", str(masks), "--pages", str(corpus / "docs"),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().err == ("warning: kid00001 p5: table matches anchors of multiple "
                                       "types: costs_evolution, costs_composition\n")
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    missing = [r for r in rows if r["status"] == "missing"]
    assert missing == [{"doc_id": "kid00001", "page": 5, "type": "costs_composition",
                        "status": "missing", "record": None}]
    assert len(rows) == 9


def test_tables_single_page_file(corpus, tmp_path):
    out = tmp_path / "one.jsonl"
    one = sorted((corpus / "docs").iterdir())[0]
    assert main(["tables", "--masks", str(corpus / "masks"), "--pages", str(one),
                 "--out", str(out)]) == 0
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert len(rows) == 3


def test_tables_malformed_mask_warns_not_fails(corpus, tmp_path, capsys):
    masks = tmp_path / "masks"
    masks.mkdir()
    for p in (corpus / "masks").iterdir():
        (masks / p.name).write_bytes(p.read_bytes())
    (masks / "kid00001.p3.json").write_text("{broken", encoding="utf-8")
    out = tmp_path / "tables.jsonl"
    assert main(["tables", "--masks", str(masks), "--pages", str(corpus / "docs"),
                 "--out", str(out)]) == 0
    assert "skipping malformed" in capsys.readouterr().err


def test_tables_malformed_mask_skips_doc_whose_id_contains_dot_p(corpus, tmp_path):
    # doc id "kid.pa01": only the trailing ".p<page>.json" names the page
    docs, masks = tmp_path / "docs", tmp_path / "masks"
    docs.mkdir()
    masks.mkdir()
    for doc_id, new_id in (("kid00001", "kid.pa01"), ("kid00002", "kid00002")):
        doc = json.loads((corpus / "docs" / f"{doc_id}.pages.json").read_text(encoding="utf-8"))
        doc["doc_id"] = new_id
        (docs / f"{new_id}.pages.json").write_text(json.dumps(doc), encoding="utf-8")
        for p in (corpus / "masks").glob(f"{doc_id}.p*.json"):
            mask = json.loads(p.read_text(encoding="utf-8"))
            mask["doc_id"] = new_id
            (masks / p.name.replace(doc_id, new_id)).write_text(json.dumps(mask), encoding="utf-8")
    (masks / "kid.pa01.p3.json").write_text("{broken", encoding="utf-8")
    out = tmp_path / "tables.jsonl"
    assert main(["tables", "--masks", str(masks), "--pages", str(docs), "--out", str(out)]) == 0
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert [r["doc_id"] for r in rows] == ["kid00002"] * 3


@pytest.mark.parametrize("strict", [False, True], ids=["warn", "strict"])
def test_tables_warns_of_masks_no_page_file_holds(corpus, tmp_path, capsys, strict):
    pages = tmp_path / "pages"
    pages.mkdir()
    shutil.copy(corpus / "docs" / "kid00001.pages.json", pages)
    out = tmp_path / "tables.jsonl"
    code = main(["--strict"] * strict + ["tables", "--masks", str(corpus / "masks"),
                                         "--pages", str(pages), "--out", str(out)])
    assert code == (1 if strict else 0)
    assert capsys.readouterr().err.splitlines() == [
        f"warning: no page file holds {doc_id}; ignoring its mask files "
        f"{doc_id}.p3.json, {doc_id}.p4.json, {doc_id}.p5.json"
        for doc_id in ("kid00002", "kid00003")]
    assert out.exists() != strict


def test_tables_reads_a_documents_masks_with_its_page_file(corpus, tmp_path, monkeypatch):
    # one document's mask pages in memory at a time: kid00002's are read after kid00001 is done
    calls = []

    def logged(name, real):
        def call(arg, *rest):
            calls.append((name, Path(arg).name if name == "load" else arg))
            return real(arg, *rest)
        return call

    monkeypatch.setattr(kidex.cli, "load_page_detections",
                        logged("load", kidex.cli.load_page_detections))
    monkeypatch.setattr(kidex.tabrec, "identify_pages",
                        logged("identify", kidex.tabrec.identify_pages))
    assert main(["tables", "--masks", str(corpus / "masks"), "--pages", str(corpus / "docs"),
                 "--out", str(tmp_path / "tables.jsonl")]) == 0
    names = [arg if name == "load" else name for name, arg in calls]
    assert names == [f"kid0000{i}.p{p}.json" if p else "identify"
                     for i in (1, 2, 3) for p in (3, 4, 5, None)]


def test_tables_does_not_read_masks_no_page_file_holds(corpus, tmp_path, capsys):
    masks = shutil.copytree(corpus / "masks", tmp_path / "masks")
    (masks / "kid00003.p4.json").write_text("{broken", encoding="utf-8")
    pages = tmp_path / "pages"
    pages.mkdir()
    shutil.copy(corpus / "docs" / "kid00001.pages.json", pages)
    shutil.copy(corpus / "docs" / "kid00002.pages.json", pages)
    assert main(["tables", "--masks", str(masks), "--pages", str(pages),
                 "--out", str(tmp_path / "tables.jsonl")]) == 0
    assert capsys.readouterr().err == ("warning: no page file holds kid00003; ignoring its mask "
                                       "files kid00003.p3.json, kid00003.p4.json, "
                                       "kid00003.p5.json\n")


def test_tables_strict_malformed_exit_1(corpus, tmp_path):
    masks = tmp_path / "masks"
    masks.mkdir()
    (masks / "kid00001.p3.json").write_text("{broken", encoding="utf-8")
    assert main(["--strict", "tables", "--masks", str(masks),
                 "--pages", str(corpus / "docs"), "--out", str(tmp_path / "t.jsonl")]) == 1


def _packaged_labels() -> dict:
    return json.loads((Path(kidex.__file__).parent / "data" / "labels.json")
                      .read_text(encoding="utf-8"))


def _labels_pool_a_string(labels):
    labels["costs_composition"]["categories"]["entry"] = "Costi di ingresso"


def _labels_without_performance_scenarios(labels):
    del labels["performance_scenarios"]


def _labels_group_a_list(labels):
    labels["costs_evolution"]["metrics"] = [["Costi totali"]]


def _labels_group_typo(labels):
    labels["perfromance_scenarios"] = {}


def _labels_sub_group_typo(labels):
    labels["costs_evolution"]["metrix"] = {}


def _labels_without_evolution_metrics(labels):
    del labels["costs_evolution"]["metrics"]


@pytest.mark.parametrize("edit, named", [
    (_labels_pool_a_string, "'costs_composition.categories.entry'"),
    (_labels_without_performance_scenarios, "'performance_scenarios'"),
    (_labels_group_a_list, "'costs_evolution.metrics': expected a JSON object"),
    (_labels_group_typo, "labels config: unknown key 'perfromance_scenarios'"),
    (_labels_sub_group_typo, "labels config: 'costs_evolution': unknown key 'metrix'"),
    (_labels_without_evolution_metrics,
     "labels config: 'costs_evolution': missing field 'metrics'"),
], ids=["pool-a-string", "no-performance-scenarios", "group-a-list", "group-typo",
        "sub-group-typo", "no-evolution-metrics"])
def test_tables_bad_labels_config_is_input_error(corpus, tmp_path, capsys, edit, named):
    labels = _packaged_labels()
    edit(labels)
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(labels), encoding="utf-8")
    out = tmp_path / "tables.jsonl"
    assert main(["tables", "--masks", str(corpus / "masks"), "--pages", str(corpus / "docs"),
                 "--labels", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: labels config: ")
    assert named in err
    assert not out.exists()


def _sections(name="A", header_patterns=("Prodotto",)):
    return {"sections": [{"name": name, "header_patterns": header_patterns}]}


@pytest.mark.parametrize("sections, message", [
    (_sections(header_patterns="Prodotto"),
     "'sections[0].header_patterns': expected a list of strings"),
    ({"sections": 5}, "'sections': expected a list of objects"),
    ({"sections": [5]}, "'sections[0]': expected a JSON object"),
    (_sections(header_patterns=[5]), "'sections[0].header_patterns': expected a list of strings"),
    (_sections(name=["A"]), "'sections[0].name': expected a string, got ['A']"),
    ({"sections": _sections()["sections"] * 2}, "section names must be unique"),
    (_sections(header_patterns=[]), "section A: needs at least one header pattern"),
    ({**_sections(), "sectons": []}, "unknown key 'sectons'"),
    ({"sections": [{**_sections()["sections"][0], "header_pattern": ["x"]}]},
     "'sections[0]': unknown key 'header_pattern'"),
    ({"sections": [{"header_patterns": ["Prodotto"]}]}, "'sections[0]': missing field 'name'"),
], ids=["patterns-a-string", "sections-a-number", "section-a-number", "pattern-a-number",
        "name-a-list", "duplicate-names", "no-patterns", "top-level-typo", "section-key-typo",
        "no-name"])
def test_annotate_bad_section_config_is_input_error(corpus, tmp_path, capsys, sections,
                                                    message):
    path = tmp_path / "sections.json"
    path.write_text(json.dumps(sections), encoding="utf-8")
    out = tmp_path / "fields.csv"
    assert main(["annotate", "--sections", str(path), "--in", str(corpus / "docs"),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"input error: section config: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("group, key", [
    ("performance_scenarios", "refund"),
    ("costs_evolution", "riy_pct"),
], ids=["performance", "evolution"])
def test_tables_unknown_metric_key_is_input_error(corpus, tmp_path, capsys, group, key):
    labels = _packaged_labels()
    metrics = labels[group]["metrics"]
    metrics[key[:3] + "nd"] = metrics.pop(key)
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(labels), encoding="utf-8")
    out = tmp_path / "tables.jsonl"
    assert main(["tables", "--masks", str(corpus / "masks"), "--pages", str(corpus / "docs"),
                 "--labels", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"input error: labels config: '{group}.metrics': "
                                       f"unknown key {key[:3] + 'nd'!r}\n")
    assert not out.exists()


def test_tables_missing_labels_file_is_input_error(corpus, tmp_path, capsys):
    missing = tmp_path / "nonexistent.json"
    assert main(["tables", "--masks", str(corpus / "masks"), "--pages", str(corpus / "docs"),
                 "--labels", str(missing), "--out", str(tmp_path / "t.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert str(missing) in err


@pytest.mark.parametrize("argv, prefix", [
    (["--config", "", "gen", "--n", "1", "--seed", "1", "--out", "c"], "config error: "),
    (["annotate", "--rules", "", "--in", "{docs}", "--out", "o.csv"], "input error: "),
    (["annotate", "--sections", "", "--in", "{docs}", "--out", "o.csv"], "input error: "),
    (["tables", "--labels", "", "--masks", "{masks}", "--pages", "{docs}", "--out", "t.jsonl"],
     "input error: "),
    (["eval", "--gold", "{gold}", "--pred", "pred", "--report", ""], "cannot write output: "),
], ids=["config", "rules", "sections", "labels", "report"])
def test_an_empty_path_is_an_error_not_the_default(corpus, tmp_path, monkeypatch, capsys, argv,
                                                   prefix):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pred").mkdir()
    dirs = {name: str(corpus / name) for name in ("docs", "masks", "gold")}
    assert main([arg.format(**dirs) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1, err
    assert [p.name for p in tmp_path.rglob("*")] == ["pred"]  # nothing written


@pytest.mark.parametrize("tab, named", [
    ({"ocr_iou_threshold": 1.5}, "ocr_iou_threshold"),
    ({"enlargement_ratio": "wide"}, "'enlargement_ratio'"),
    ({"anchors": {"costs_evolution": {"page_strings": "Costi",
                                      "table_strings": ["Costi totali"]}}},
     "'anchors.costs_evolution.page_strings'"),
    ({"anchors": {"bogus": {"page_strings": ["a"], "table_strings": ["b"]}}}, "'bogus'"),
    ({"anchors": []}, "'anchors': expected a JSON object"),
    ({"anchors": {"costs_evolution": "Costi"}},
     "'anchors.costs_evolution': expected a JSON object"),
    ({"confidence_threshold": "0.7"}, "'confidence_threshold' must be a number, got '0.7'"),
    ({"ocr_iou_threshold": True}, "'ocr_iou_threshold' must be a number, got True"),
    ({"enlargement_ratio": 10 ** 400}, "'enlargement_ratio' must be a number, got 1" + "0" * 400),
    # a blank anchor folds to "", which occurs in every page and cell text
    ({"anchors": {"costs_evolution": {"page_strings": [""], "table_strings": ["Total costs"]}}},
     "costs_evolution: page_strings holds a blank anchor ''"),
    ({"anchors": {"costs_evolution": {"page_strings": ["Costs over time"],
                                      "table_strings": ["Total costs", " \t"]}}},
     "costs_evolution: table_strings holds a blank anchor ' \\t'"),
    ({"anchors": {"costs_evolution": {"page_strings": [], "table_strings": ["Total costs"]}}},
     "costs_evolution: needs at least one page and one table anchor"),
], ids=["threshold-out-of-range", "ratio-not-a-number", "anchors-a-string", "unknown-type",
        "anchors-a-list", "anchor-spec-a-string", "threshold-a-numeric-string",
        "threshold-a-bool", "ratio-past-float-range", "page-anchor-blank", "table-anchor-blank",
        "page-anchors-empty"])
@pytest.mark.parametrize("command", ["gen", "tables"])
def test_bad_tab_config_is_config_error(corpus, tmp_path, capsys, tab, named, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tab": tab}), encoding="utf-8")
    out = tmp_path / "out"
    argv = {"gen": ["gen", "--n", "1", "--seed", "1", "--out", str(out)],
            "tables": ["tables", "--masks", str(corpus / "masks"), "--pages", str(corpus / "docs"),
                       "--out", str(out)]}[command]
    assert main(["--config", str(cfg), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: tab config: ") and err.count("\n") == 1
    assert named in err
    assert not out.exists()


def test_period_header_past_the_int_digit_limit_is_read(corpus, tmp_path):
    masks = shutil.copytree(corpus / "masks", tmp_path / "masks")
    mask = masks / "kid00001.p3.json"
    header = "5 anni (periodo di detenzione raccomandato)"
    text = mask.read_text(encoding="utf-8")
    assert header in text
    mask.write_text(text.replace(header, "9" * 5000 + header[1:]), encoding="utf-8")
    outs = []
    for masks_dir in (corpus / "masks", masks):
        outs.append(tmp_path / f"tables{len(outs)}.jsonl")
        assert main(["tables", "--masks", str(masks_dir), "--pages", str(corpus / "docs"),
                     "--out", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_missing_page_makes_type_missing(corpus, tmp_path):
    # a doc without the costs-evolution anchor page: type reported missing
    docs = tmp_path / "docs"
    docs.mkdir()
    src = json.loads((corpus / "docs" / "kid00001.pages.json").read_text(encoding="utf-8"))
    src["pages"] = [p.replace("Andamento dei costi", "testo generico") for p in src["pages"]]
    (docs / "kid00001.pages.json").write_text(json.dumps(src), encoding="utf-8")
    out = tmp_path / "tables.jsonl"
    assert main(["tables", "--masks", str(corpus / "masks"), "--pages", str(docs),
                 "--out", str(out)]) == 0
    rows = {json.loads(l)["type"]: json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()}
    assert rows["costs_evolution"]["status"] == "missing"
    assert rows["costs_evolution"]["page"] is None
    assert rows["performance_scenarios"]["status"] == "extracted"


def test_eval_gold_vs_itself_is_perfect(corpus, tmp_path, capsys):
    pred = tmp_path / "pred"
    pred.mkdir()
    # gold as predictions: convert gold fields to a jsonl prediction file
    rows = []
    for line in (corpus / "gold" / "fields.jsonl").read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        row.update({"tag": "x", "first_token": 0, "last_token": 0, "rule_id": "g"})
        rows.append(json.dumps(row))
    (pred / "fields.jsonl").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (pred / "tables.jsonl").write_bytes((corpus / "gold" / "tables.jsonl").read_bytes())
    assert main(["eval", "--gold", str(corpus / "gold"), "--pred", str(pred)]) == 0
    out = capsys.readouterr().out
    assert "1.0000" in out
    report = json.loads((pred / "eval_report.json").read_text(encoding="utf-8"))
    assert report["micro"]["precision"] == 1.0
    assert report["tables"]["costs_evolution"]["missing"] == 0


def test_eval_missing_gold_exit_1(tmp_path, capsys):
    pred = tmp_path / "pred"
    pred.mkdir()
    assert main(["eval", "--gold", str(tmp_path / "nogold"), "--pred", str(pred)]) == 1
    assert "fields.jsonl" in capsys.readouterr().err


def _pred_dir_with_fields(tmp_path, lines):
    pred = tmp_path / "pred"
    pred.mkdir()
    (pred / "fields.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return pred


def test_eval_malformed_prediction_line_exit_1(corpus, tmp_path, capsys):
    good = json.dumps({"doc_id": "kid00001", "field": "isin", "value": "X"})
    pred = _pred_dir_with_fields(tmp_path, [good, "{broken"])
    assert main(["eval", "--gold", str(corpus / "gold"), "--pred", str(pred)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert "fields.jsonl:2: not valid JSON" in err


@pytest.mark.parametrize("key", ["doc_id", "field", "value"])
def test_eval_prediction_row_missing_key_exit_1(corpus, tmp_path, capsys, key):
    row = {"doc_id": "kid00001", "field": "isin", "value": "X"}
    del row[key]
    pred = _pred_dir_with_fields(tmp_path, [json.dumps(row)])
    assert main(["eval", "--gold", str(corpus / "gold"), "--pred", str(pred)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert repr(key) in err


def test_eval_gold_value_not_a_string_exit_1(tmp_path, capsys):
    gold = tmp_path / "gold"
    gold.mkdir()
    (gold / "fields.jsonl").write_text(
        json.dumps({"doc_id": "kid00001", "field": "isin", "value": 5}) + "\n", encoding="utf-8")
    pred = _pred_dir_with_fields(tmp_path, [])
    assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert "fields.jsonl:1: field 'value' missing or not a string" in err
    assert "Traceback" not in err


def _bogus_type(row):
    row["type"] = "bogus"


def _bogus_scenario(row):
    row["record"]["entries"]["bogus"] = row["record"]["entries"].pop("stress")


def _bogus_period(row):
    row["record"]["entries"]["stress"]["bogus"] = row["record"]["entries"]["stress"].pop("initial")


def _eval_with_edited_table_row(corpus, tmp_path, side, ttype, edit):
    """Run eval on gold vs gold with one extracted ``ttype`` row edited on ``side``.

    Returns the exit code, the edited file and the edited row's line number.
    """
    dirs = {name: tmp_path / name for name in ("gold", "pred")}
    for d in dirs.values():
        d.mkdir()
        for name in ("fields.jsonl", "tables.jsonl"):
            (d / name).write_bytes((corpus / "gold" / name).read_bytes())
    tables = dirs[side] / "tables.jsonl"
    rows = [json.loads(l) for l in tables.read_text(encoding="utf-8").splitlines()]
    lineno, row = next((i, r) for i, r in enumerate(rows, 1)
                       if r["type"] == ttype and r["status"] == "extracted")
    edit(row)
    tables.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    code = main(["eval", "--gold", str(dirs["gold"]), "--pred", str(dirs["pred"])])
    return code, tables, lineno


@pytest.mark.parametrize("side", ["gold", "pred"])
@pytest.mark.parametrize("edit, message", [
    (_bogus_type, "tables row: unknown type 'bogus'"),
    (_bogus_scenario, "record: unknown scenario 'bogus'"),
    (_bogus_period, "record: unknown period 'bogus'"),
], ids=["type", "scenario", "period"])
def test_eval_unknown_table_enum_value_exit_1(corpus, tmp_path, capsys, side, edit, message):
    code, tables, lineno = _eval_with_edited_table_row(corpus, tmp_path, side,
                                                       "performance_scenarios", edit)
    assert code == 1
    assert capsys.readouterr().err == f"input error: {tables}:{lineno}: {message}\n"


def _set(*path, value):
    def edit(row):
        node = row
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


@pytest.mark.parametrize("side", ["gold", "pred"])
@pytest.mark.parametrize("ttype, edit, message", [
    ("performance_scenarios", _set("record", value="x"), "tables row: 'record'"),
    ("performance_scenarios", _set("record", "entries", value=[]), "record: 'entries'"),
    ("performance_scenarios", _set("record", "entries", "stress", value=[]),
     "record: 'entries.stress'"),
    ("performance_scenarios", _set("record", "entries", "stress", "initial", value="5"),
     "record: 'entries.stress.initial'"),
    ("costs_evolution", _set("record", "entries", "initial", value=None),
     "record: 'entries.initial'"),
    ("costs_composition", _set("record", "entries", value="0.5"), "record: 'entries'"),
], ids=["record", "entries", "periods", "scenario-cell", "period-costs", "categories"])
def test_eval_table_row_part_not_an_object_exit_1(corpus, tmp_path, capsys, side, ttype, edit,
                                                  message):
    code, tables, lineno = _eval_with_edited_table_row(corpus, tmp_path, side, ttype, edit)
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"input error: {tables}:{lineno}: {message}: expected a JSON object\n"


@pytest.mark.parametrize("side", ["gold", "pred"])
@pytest.mark.parametrize("ttype, edit, value", [
    (ttype, _set("record", "entries", *path, value=value), value)
    for ttype, path, value in [
        ("performance_scenarios", ("stress", "initial", "refund"), "NaN"),
        ("performance_scenarios", ("stress", "initial", "yield_pct"), "sNaN"),
        ("performance_scenarios", ("moderate", "recommended", "refund"), "Infinity"),
        ("costs_evolution", ("intermediate", "riy_pct"), "-Infinity"),
        ("costs_composition", ("exit",), "NaN"),
    ]
], ids=["nan", "snan", "infinity", "evolution-minus-infinity", "composition-nan"])
def test_eval_non_finite_record_value_exit_1(corpus, tmp_path, capsys, side, ttype, edit, value):
    code, tables, lineno = _eval_with_edited_table_row(corpus, tmp_path, side, ttype, edit)
    assert code == 1
    assert capsys.readouterr().err == \
        f"input error: {tables}:{lineno}: record: not a number {value!r}\n"


@pytest.mark.parametrize("side", ["gold", "pred"])
@pytest.mark.parametrize("ttype, edit, message", [
    ("performance_scenarios", _set("record", "entries", "stress", "initial", "refnd", value="1"),
     "record: 'entries.stress.initial': unknown field 'refnd'"),
    ("costs_evolution", _set("record", "entries", "initial", "riy", value=None),
     "record: 'entries.initial': unknown field 'riy'"),
    ("performance_scenarios", _set("record", "entries", "bogus", value={}),
     "record: unknown scenario 'bogus'"),
], ids=["cell-key", "evolution-cell-key", "scenario-without-periods"])
def test_eval_unknown_record_key_exit_1(corpus, tmp_path, capsys, side, ttype, edit, message):
    code, tables, lineno = _eval_with_edited_table_row(corpus, tmp_path, side, ttype, edit)
    assert code == 1
    assert capsys.readouterr().err == f"input error: {tables}:{lineno}: {message}\n"


@pytest.mark.parametrize("side", ["gold", "pred"])
@pytest.mark.parametrize("edit, message", [
    (_set("doc_id", value=["kid00001"]), "tables row: 'doc_id' must be a string, got ['kid00001']"),
    (_set("status", value="extractd"), "tables row: unknown status 'extractd'"),
    (_set("status", value=None), "tables row: unknown status None"),
    (_set("page", value="x"), "tables row: 'page' must be null or a page number from 1, got 'x'"),
    (_set("page", value=[3]), "tables row: 'page' must be null or a page number from 1, got [3]"),
    (_set("status", value="missing"), "tables row: status 'missing' requires a null record"),
], ids=["doc-id-list", "status-typo", "status-null", "page-a-string", "page-a-list",
        "missing-with-record"])
def test_eval_table_row_bad_doc_id_or_status_exit_1(corpus, tmp_path, capsys, side, edit, message):
    code, tables, lineno = _eval_with_edited_table_row(corpus, tmp_path, side,
                                                       "costs_evolution", edit)
    assert code == 1
    assert capsys.readouterr().err == f"input error: {tables}:{lineno}: {message}\n"


def test_eval_counts_a_table_for_a_document_gold_lacks_incorrect(tmp_path, capsys):
    corpus, pred = tmp_path / "corpus", tmp_path / "pred"
    assert main(["gen", "--n", "2", "--seed", "3", "--out", str(corpus)]) == 0
    pred.mkdir()
    rows = (corpus / "gold" / "tables.jsonl").read_text(encoding="utf-8").splitlines()
    ghost = dict(json.loads(rows[0]), doc_id="kid99999")
    assert ghost["status"] == "extracted"
    (pred / "tables.jsonl").write_text("\n".join(rows + [json.dumps(ghost)]) + "\n",
                                       encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--gold", str(corpus / "gold"), "--pred", str(pred)]) == 0
    out = capsys.readouterr().out
    assert out.count("Incorrect") == 1 and f"{'':<24} Incorrect {1:>6}\n" in out
    report = json.loads((pred / "eval_report.json").read_text(encoding="utf-8"))
    assert report["tables"][ghost["type"]] == {"extracted": 2, "incorrect": 1, "missing": 0}


def test_eval_accepts_what_tables_writes(tmp_path):
    corpus, pred = tmp_path / "corpus", tmp_path / "pred"
    assert main(["gen", "--n", "8", "--seed", "5", "--noise", "0.5", "--out", str(corpus)]) == 0
    pred.mkdir()
    # one document is skipped for a malformed mask, another loses a page anchor
    sorted((corpus / "masks").glob("kid00002.p*.json"))[0].write_text("{broken", encoding="utf-8")
    anchorless = corpus / "docs" / "kid00003.pages.json"
    anchorless.write_text(anchorless.read_text(encoding="utf-8")
                          .replace("Andamento dei costi", "testo generico"), encoding="utf-8")
    assert main(["tables", "--masks", str(corpus / "masks"), "--pages", str(corpus / "docs"),
                 "--out", str(pred / "tables.jsonl")]) == 0
    assert main(["eval", "--gold", str(corpus / "gold"), "--pred", str(pred)]) == 0
    report = json.loads((pred / "eval_report.json").read_text(encoding="utf-8"))
    noise = json.loads((corpus / "gold" / "noise.json").read_text(encoding="utf-8"))
    missing = {tuple(pair) for pair in noise["dropped_headers"]}
    types = [t.value for t in TableType]
    missing |= {("kid00002", t) for t in types} | {("kid00003", "costs_evolution")}
    for ttype in types:
        count = sum(1 for _doc_id, t in missing if t == ttype)
        assert report["tables"][ttype] == {"extracted": 8 - count, "incorrect": 0,
                                           "missing": count}


@pytest.mark.parametrize("command", ["annotate", "tables"])
def test_doc_id_in_two_input_files_is_input_error(corpus, tmp_path, capsys, command):
    docs = shutil.copytree(corpus / "docs", tmp_path / "docs")
    shutil.copy(docs / "kid00001.pages.json", docs / "copy.pages.json")
    out = tmp_path / "out"
    argv = {"annotate": ["annotate", "--in", str(docs)],
            "tables": ["tables", "--masks", str(corpus / "masks"), "--pages", str(docs)]}
    assert main(argv[command] + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"input error: {docs / 'kid00001.pages.json'}: doc_id "
                                       f"'kid00001' repeats {docs / 'copy.pages.json'}\n")
    assert not out.exists()


def test_workers_flag_rejected(tmp_path):
    # commands run single-process; a stray --workers must fail loudly, not be ignored
    src = Path(kidex.__file__).resolve().parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "kidex.cli", "--workers", "2", "annotate",
                           "--in", str(tmp_path), "--out", str(tmp_path / "o.csv")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: kidex")
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o.csv").exists()


def test_config_file_overrides(tmp_path, corpus):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tab": {"confidence_threshold": 0.99}}), encoding="utf-8")
    out = tmp_path / "tables.jsonl"
    assert main(["--config", str(cfg), "tables", "--masks", str(corpus / "masks"),
                 "--pages", str(corpus / "docs"), "--out", str(out)]) == 0
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    # threshold 0.99 kills most detections: nothing should be extracted
    assert all(r["status"] == "missing" for r in rows)


def test_gen_invalid_n_exit_1(tmp_path):
    assert main(["gen", "--n", "0", "--seed", "1", "--out", str(tmp_path / "x")]) == 1


@pytest.mark.parametrize("layout_dir", ["docs", "masks", "gold"])
def test_gen_into_a_non_empty_tree_is_gen_error(tmp_path, capsys, layout_dir):
    out = tmp_path / "st"
    assert main(["gen", "--n", "4", "--seed", "1", "--out", str(out)]) == 0
    for name in {"docs", "masks", "gold"} - {layout_dir}:
        shutil.rmtree(out / name)
    before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert main(["gen", "--n", "2", "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"gen error: {out / layout_dir} is not empty; "
                                       "gen writes a corpus into empty directories only\n")
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before


NOT_UTF8 = b'{"x": "\xff\xfe"}\n'  # the first undecodable byte is at offset 7


def _eval_argv(corpus, tmp_path):
    return ["eval", "--gold", str(tmp_path / "gold"), "--pred", str(tmp_path / "pred")]


@pytest.mark.parametrize("bad_file, argv, prefix", [
    ("bad.json", lambda c, t: ["annotate", "--sections", str(t / "bad.json"),
                               "--in", str(c / "docs"), "--out", str(t / "o.csv")],
     "input error: "),
    ("bad.tre", lambda c, t: ["annotate", "--rules", str(t / "bad.tre"),
                              "--in", str(c / "docs"), "--out", str(t / "o.csv")],
     "input error: "),
    ("bad.json", lambda c, t: ["tables", "--labels", str(t / "bad.json"), "--masks",
                               str(c / "masks"), "--pages", str(c / "docs"),
                               "--out", str(t / "t.jsonl")],
     "input error: "),
    ("bad.json", lambda c, t: ["--config", str(t / "bad.json"), "gen", "--n", "1", "--seed", "1",
                               "--out", str(t / "x")],
     "config error: "),
    ("gold/fields.jsonl", _eval_argv, "input error: "),
    ("gold/tables.jsonl", _eval_argv, "input error: "),
    ("pred/fields.jsonl", _eval_argv, "input error: "),
    ("pred/fields.csv", _eval_argv, "input error: "),
    ("pred/tables.jsonl", _eval_argv, "input error: "),
], ids=["sections", "rules", "labels", "config", "gold-fields", "gold-tables",
        "pred-fields-jsonl", "pred-fields-csv", "pred-tables"])
def test_input_not_utf8_exit_1(corpus, tmp_path, capsys, bad_file, argv, prefix):
    shutil.copytree(corpus / "gold", tmp_path / "gold")
    (tmp_path / "pred").mkdir()
    bad = tmp_path / bad_file
    bad.write_bytes(NOT_UTF8)
    assert main(argv(corpus, tmp_path)) == 1
    assert capsys.readouterr().err == f"{prefix}{bad}: invalid UTF-8 at byte offset 7\n"


@pytest.mark.parametrize("strict", [False, True], ids=["skip", "strict"])
def test_tables_mask_not_utf8_is_malformed(corpus, tmp_path, capsys, strict):
    masks = shutil.copytree(corpus / "masks", tmp_path / "masks")
    (masks / "kid00001.p3.json").write_bytes(NOT_UTF8)
    out = tmp_path / "tables.jsonl"
    argv = ["tables", "--masks", str(masks), "--pages", str(corpus / "docs"), "--out", str(out)]
    assert main(["--strict"] * strict + argv) == (1 if strict else 0)
    err = capsys.readouterr().err
    assert err.startswith("warning: skipping malformed mask file kid00001.p3.json: "
                          f"{masks / 'kid00001.p3.json'}: invalid UTF-8 at byte offset 7\n")
    if not strict:
        rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert sorted({r["doc_id"] for r in rows}) == ["kid00002", "kid00003"]


@pytest.mark.parametrize("config, message", [
    ({"tab": {"ocr_iou_treshold": 0.9}},
     "config error: tab config: unknown key 'ocr_iou_treshold'"),
    ({"confusions": 5}, "config error: {cfg}: 'confusions': expected a JSON object"),
    ({"confusions": None}, "config error: {cfg}: 'confusions': expected a JSON object"),
    ({"tab": 3}, "config error: {cfg}: 'tab': expected a JSON object"),
    ({"tab": None}, "config error: {cfg}: 'tab': expected a JSON object"),
    ({"tab": "tab.json"}, "config error: {cfg}: 'tab': expected a JSON object"),
    ({"lables": "labels.json"}, "config error: {cfg}: unknown key 'lables'"),
    ({"confusions": {"pairs": {"/": "7"}, "numeric_only": False}},
     "config error: {cfg}: 'confusions': unknown key 'numeric_only'"),
    ({"tab": {"anchors": {"costs_evolution": {"page_strings": ["Costi"],
                                              "table_strings": ["Costi totali"],
                                              "tabel_strings": ["Costi"]}}}},
     "config error: tab config: 'anchors.costs_evolution': unknown key 'tabel_strings'"),
], ids=["tab-key-typo", "confusions-a-number", "confusions-null", "tab-a-number", "tab-null",
        "tab-a-file-path", "unknown-top-level-key", "confusions-key-typo", "anchor-spec-typo"])
def test_config_typo_or_wrong_shape_exit_1(corpus, tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "t.jsonl"
    assert main(["--config", str(cfg), "tables", "--masks", str(corpus / "masks"),
                 "--pages", str(corpus / "docs"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == message.format(cfg=cfg) + "\n"
    assert not out.exists()


def _set(path, value):
    """A mask edit that sets the value at a key path, e.g. ("ocr", 2, "text")."""
    def edit(mask):
        node = mask
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def _drop(path):
    def edit(mask):
        node = mask
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
    return edit


@pytest.mark.parametrize("edit, message", [
    (_drop(("ocr", 2, "bbox")), "ocr[2]: missing field 'bbox'"),
    (_drop(("detections", 3, "bbox")), "detections[3]: missing field 'bbox'"),
    (_set(("ocr", 2, "bbox"), [1, 2, 3, 4]), "ocr[2]: 'bbox': expected a JSON object"),
    (_set(("ocr", 2), "Costi"), "ocr[2]: expected a JSON object"),
    (_set(("ocr", 2, "bbox", "right"), 10), "ocr[2]: degenerate bbox ("),
    (_set(("ocr", 2, "bbox", "left"), "10"), "ocr[2]: bbox: 'left' must be a number, got '10'"),
    (_set(("detections", 3, "confidence"), "abc"),
     "detections[3]: 'confidence' must be a number in [0, 1], got 'abc'"),
    (_set(("detections", 3, "confidence"), math.nan),
     "detections[3]: 'confidence' must be a number in [0, 1], got nan"),
    (_set(("detections", 3, "confidence"), "0.9"),
     "detections[3]: 'confidence' must be a number in [0, 1], got '0.9'"),
    (_set(("detections", 3, "confidence"), True),
     "detections[3]: 'confidence' must be a number in [0, 1], got True"),
    (_set(("detections", 3, "confidence"), 1.5),
     "detections[3]: 'confidence' must be a number in [0, 1], got 1.5"),
    (_set(("ocr",), 5), "ocr: expected a list, got 5"),
    (_set(("page",), "3"), "page: must be a 1-based page number"),
    (_set(("ocr", 2, "text"), 7), "ocr[2]: 'text' must be a string, got 7"),
    (_drop(("ocr", 2, "bbox", "left")), "ocr[2]: 'bbox': missing field 'left'"),
], ids=["ocr-no-bbox", "detection-no-bbox", "bbox-a-list", "entry-a-string", "degenerate-box",
        "coordinate-a-string", "confidence-abc", "confidence-nan", "confidence-a-numeric-string",
        "confidence-a-bool", "confidence-past-one", "ocr-a-number",
        "page-a-string", "text-a-number", "bbox-no-left"])
def test_tables_malformed_mask_value_is_skipped(corpus, tmp_path, capsys, edit, message):
    masks = shutil.copytree(corpus / "masks", tmp_path / "masks")
    bad = masks / "kid00002.p4.json"
    mask = json.loads(bad.read_text(encoding="utf-8"))
    edit(mask)
    bad.write_text(json.dumps(mask), encoding="utf-8")
    out = tmp_path / "tables.jsonl"
    argv = ["tables", "--masks", str(masks), "--pages", str(corpus / "docs"), "--out", str(out)]
    assert main(argv) == 0
    err = capsys.readouterr().err
    assert err.startswith(f"warning: skipping malformed mask file kid00002.p4.json: {message}")
    assert err.count("\n") == 1
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert sorted({r["doc_id"] for r in rows}) == ["kid00001", "kid00003"]
    assert main(["--strict"] + argv) == 1


@pytest.mark.parametrize("config, message", [
    # the files a flag names are no config keys
    ({"rules": 5}, "unknown key 'rules'"),
    ({"sections": ["x"]}, "unknown key 'sections'"),
    ({"labels": 5}, "unknown key 'labels'"),
    ({"confusions": {"pairs": 5}}, "'confusions': 'pairs': expected a JSON object"),
    ({"confusions": {"pairs": {"/": 7}}},
     "'confusions': 'pairs': expected one character for one character, got '/': 7"),
    ({"confusions": {"pairs": {"/": "7", "7": "/"}}},
     "'confusions': confusion map must be acyclic: a target char cannot also be a source"),
    ({"confusions": {"numeric_context_only": "no"}},
     "'confusions': unknown key 'numeric_context_only'"),
    ({"locale_hint": "it"}, "unknown key 'locale_hint'"),
], ids=["rules-a-number", "sections-a-list", "labels-a-number", "pairs-a-number",
        "pair-target-a-number", "pairs-cyclic", "numeric-only-a-string", "locale-hint-unknown"])
def test_config_value_of_the_wrong_type_exit_1(corpus, tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "t.jsonl"
    assert main(["--config", str(cfg), "tables", "--masks", str(corpus / "masks"),
                 "--pages", str(corpus / "docs"), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"config error: {cfg}: {message}\n"
    assert not out.exists()


# JSON that the parser gives up on: an integer literal past the interpreter's
# 4,300-digit limit, and arrays nested past the recursion limit
_PAST_PARSER_LIMITS = {
    "long-number": ('{"page_width": ' + "9" * 5000 + "}", "a number with too many digits"),
    "deep-nesting": ("[" * 100_000, "nested too deeply"),
}


@pytest.mark.parametrize("text, why", _PAST_PARSER_LIMITS.values(), ids=_PAST_PARSER_LIMITS)
def test_tables_mask_past_json_parser_limits_is_malformed(corpus, tmp_path, capsys, text, why):
    masks = shutil.copytree(corpus / "masks", tmp_path / "masks")
    bad = masks / "kid00002.p4.json"
    if text.startswith("{"):  # the number goes into a real mask
        text = bad.read_text(encoding="utf-8").replace('"page_width": 2480',
                                                       '"page_width": ' + "9" * 5000)
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "tables.jsonl"
    argv = ["tables", "--masks", str(masks), "--pages", str(corpus / "docs"), "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ("warning: skipping malformed mask file kid00002.p4.json: "
                                       f"{bad}: not valid JSON ({why})\n")
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert sorted({r["doc_id"] for r in rows}) == ["kid00001", "kid00003"]
    assert main(["--strict"] + argv) == 1


@pytest.mark.parametrize("text, why", _PAST_PARSER_LIMITS.values(), ids=_PAST_PARSER_LIMITS)
@pytest.mark.parametrize("bad_file, argv, prefix, where", [
    ("gold/tables.jsonl", _eval_argv, "input error: ", ":1"),
    ("pred/tables.jsonl", _eval_argv, "input error: ", ":1"),
    ("bad.json", lambda c, t: ["tables", "--labels", str(t / "bad.json"), "--masks",
                               str(c / "masks"), "--pages", str(c / "docs"),
                               "--out", str(t / "t.jsonl")],
     "input error: ", ""),
    ("bad.json", lambda c, t: ["--config", str(t / "bad.json"), "gen", "--n", "1", "--seed", "1",
                               "--out", str(t / "x")],
     "config error: ", ""),
], ids=["gold-tables", "pred-tables", "labels", "config"])
def test_json_past_parser_limits_exit_1(corpus, tmp_path, capsys, bad_file, argv, prefix, where,
                                        text, why):
    shutil.copytree(corpus / "gold", tmp_path / "gold")
    (tmp_path / "pred").mkdir()
    bad = tmp_path / bad_file
    bad.write_text(text + "\n", encoding="utf-8")
    assert main(argv(corpus, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err == f"{prefix}{bad}{where}: not valid JSON ({why})\n"


@pytest.mark.parametrize("flag", ["--in", "--masks", "--pages", "--pred"])
def test_missing_input_directory_is_an_input_error(corpus, tmp_path, capsys, flag):
    missing, out = tmp_path / "nope", tmp_path / "o.csv"
    argv = {"--in": ["annotate", "--in", corpus / "docs", "--out", out],
            "--pred": ["eval", "--gold", corpus / "gold", "--pred", tmp_path, "--report", out],
            }.get(flag, ["tables", "--masks", corpus / "masks", "--pages", corpus / "docs",
                         "--out", out])
    argv[argv.index(flag) + 1] = missing
    assert main(list(map(str, argv))) == 1
    assert capsys.readouterr().err == f"input error: not a directory: {missing}\n"
    assert not out.exists()


def test_eval_empty_pred_directory_is_scored(corpus, tmp_path, capsys):
    (tmp_path / "pred").mkdir()
    assert main(["eval", "--gold", str(corpus / "gold"), "--pred", str(tmp_path / "pred")]) == 0
    report = json.loads((tmp_path / "pred" / "eval_report.json").read_text(encoding="utf-8"))
    assert report["micro"]["recall"] == 0.0


def _mask_holding_another_doc(masks):
    (masks / "kid00001.p3.json").write_bytes((masks / "kid00003.p3.json").read_bytes())
    return "kid00001.p3.json", "doc_id 'kid00003' and page 3 disagree with the file name", \
        ["kid00002", "kid00003"]


def _mask_holding_another_page(masks):
    mask = json.loads((masks / "kid00002.p4.json").read_text(encoding="utf-8"))
    mask["page"] = 5
    (masks / "kid00002.p4.json").write_text(json.dumps(mask), encoding="utf-8")
    return "kid00002.p4.json", "doc_id 'kid00002' and page 5 disagree with the file name", \
        ["kid00001", "kid00003"]


def _mask_with_a_bad_name(masks):
    shutil.copy(masks / "kid00002.p4.json", masks / "kid00002.p4.bak.json")
    return "kid00002.p4.bak.json", "the name is not <doc_id>.p<page>.json", \
        ["kid00001", "kid00002", "kid00003"]


@pytest.mark.parametrize("strict", [False, True], ids=["skip", "strict"])
@pytest.mark.parametrize("edit", [_mask_holding_another_doc, _mask_holding_another_page,
                                  _mask_with_a_bad_name], ids=["doc-id", "page", "name"])
def test_tables_mask_name_must_agree_with_its_content(corpus, tmp_path, capsys, edit, strict):
    masks = shutil.copytree(corpus / "masks", tmp_path / "masks")
    name, why, kept = edit(masks)
    out = tmp_path / "tables.jsonl"
    argv = ["tables", "--masks", str(masks), "--pages", str(corpus / "docs"), "--out", str(out)]
    assert main(["--strict"] * strict + argv) == (1 if strict else 0)
    assert capsys.readouterr().err == f"warning: skipping malformed mask file {name}: {why}\n"
    if strict:
        assert not out.exists()
        return
    rows = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert sorted({r["doc_id"] for r in rows}) == kept
    assert all(r["status"] == "extracted" for r in rows)


def test_annotate_regex_that_re_warns_about_is_rule_error(corpus, tmp_path, capsys, recwarn):
    rules = tmp_path / "bad.tre"
    rules.write_text(_RULE % ("/[[a]/", ""), encoding="utf-8")
    code = main(["annotate", "--rules", str(rules), "--in", str(corpus / "docs"),
                 "--out", str(tmp_path / "o.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("rule error: line 1, column 34: invalid character regex /[[a]/: "), err
    assert err.count("\n") == 1
    assert not recwarn.list
    assert not (tmp_path / "o.csv").exists()


def _policy_case(corpus, tmp_path, row):
    """The argv of one run that ends in ``row`` of the README's error table."""
    docs, masks, gold = (str(corpus / d) for d in ("docs", "masks", "gold"))
    out = str(tmp_path / "out.jsonl")
    if row == "rule-error":
        (tmp_path / "bad.tre").write_text("$X = (/a/", encoding="utf-8")
        return ["annotate", "--rules", str(tmp_path / "bad.tre"), "--in", docs, "--out", out]
    if row == "rule-error-unused-binding":
        (tmp_path / "bad.tre").write_text('$bad = "/[/"\n' + _RULE % ("/a/", ""),
                                          encoding="utf-8")
        return ["annotate", "--rules", str(tmp_path / "bad.tre"), "--in", docs, "--out", out]
    if row == "rule-error-backtracking":
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "d.txt").write_text("a " * 40, encoding="utf-8")
        (tmp_path / "slow.tre").write_text(_RULE % ("((/a/|/a/ /a/)+)+ /b/", ""),
                                           encoding="utf-8")
        return ["annotate", "--rules", str(tmp_path / "slow.tre"), "--in",
                str(tmp_path / "docs"), "--out", out]
    if row == "input-error":
        return ["eval", "--gold", gold, "--pred", str(tmp_path / "nope")]
    if row == "config-error":
        return ["--config", str(tmp_path / "nope.json"), "gen", "--n", "1", "--seed", "1",
                "--out", str(tmp_path / "c")]
    if row == "cannot-write-output":
        return ["tables", "--masks", masks, "--pages", docs, "--out", str(tmp_path / "no" / "t")]
    if row == "gen-error":
        return ["gen", "--n", "0", "--seed", "1", "--out", str(tmp_path / "c")]
    if row == "duplicate-doc-id":  # relative paths: the run's working directory is tmp_path
        dup = shutil.copytree(corpus / "docs", tmp_path / "docs")
        shutil.copy(dup / "kid00001.pages.json", dup / "copy.pages.json")
        return ["annotate", "--in", "docs", "--out", out]
    strict = ["--strict"] if row.endswith("strict") else []
    if row.startswith("orphan-masks"):
        pages = tmp_path / "pages"
        pages.mkdir()
        for doc_id in ("kid00001", "kid00002"):
            shutil.copy(corpus / "docs" / f"{doc_id}.pages.json", pages)
        return strict + ["tables", "--masks", masks, "--pages", str(pages), "--out", out]
    bad_masks = shutil.copytree(corpus / "masks", tmp_path / "masks")
    if row.startswith("mask-skipped"):
        (bad_masks / "kid00001.p3.json").write_text("{broken", encoding="utf-8")
        return strict + ["tables", "--masks", str(bad_masks), "--pages", docs, "--out", out]
    if row == "ambiguous-table":
        _mask_with_two_types_of_table_anchor(bad_masks)
        return ["tables", "--masks", str(bad_masks), "--pages", docs, "--out", out]
    assert row == "table-warning"
    mask = bad_masks / "kid00001.p5.json"
    mask.write_text(mask.read_text(encoding="utf-8").replace("Costi di ingresso", "Costi ignoti"),
                    encoding="utf-8")
    return ["tables", "--masks", str(bad_masks), "--pages", docs, "--out", out]


# one case per row of the error table in README.md: stderr prefix and exit code
_POLICY_ROWS = {
    "rule-error": ("rule error: line 1, column 10: ", 3),
    "rule-error-unused-binding": ("rule error: line 1, column 1: invalid character regex /[/", 3),
    "rule-error-backtracking": ("rule error: rule ", 3),
    "input-error": ("input error: not a directory: ", 1),
    "duplicate-doc-id": ("input error: docs/kid00001.pages.json: doc_id 'kid00001' repeats "
                         "docs/copy.pages.json", 1),
    "config-error": ("config error: ", 1),
    "cannot-write-output": ("cannot write output: ", 1),
    "gen-error": ("gen error: n must be >= 1", 1),
    "mask-skipped": ("warning: skipping malformed mask file kid00001.p3.json: ", 0),
    "mask-skipped-strict": ("warning: skipping malformed mask file kid00001.p3.json: ", 1),
    "ambiguous-table": ("warning: kid00001 p5: table matches anchors of multiple types: "
                        "costs_evolution, costs_composition", 0),
    "table-warning": ("warning: kid00001 p5: composition row unmatched: ", 0),
    "orphan-masks": ("warning: no page file holds kid00003; ignoring its mask files ", 0),
    "orphan-masks-strict": ("warning: no page file holds kid00003; ignoring its mask files ", 1),
    "usage": ("usage: kidex ", 2),
}


@pytest.mark.parametrize("row", _POLICY_ROWS)
def test_error_policy_table(corpus, tmp_path, row):
    prefix, code = _POLICY_ROWS[row]
    argv = ["annotate"] if row == "usage" else _policy_case(corpus, tmp_path, row)
    src = Path(kidex.__file__).resolve().parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "kidex.cli", *argv], cwd=tmp_path,
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr[:len(prefix)]) == (code, prefix), proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1 or row == "usage"
