"""Command-line entry point: annotate, tables, eval, gen.

Documents are processed one at a time in a single process. Outputs are
sorted by (doc_id, field/type) before writing, so reruns produce
byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from . import annotate, evalkit, matcher, ruledsl, tabrec, textprep
from .corpusgen import gen_corpus
from .model import (DATA, Factory, PageDetections, SchemaError, Struct, json_fields,
                    json_object, load_page_detections, parse_json_object, read_utf8)
from .normalize import ConfusionMap

EXIT_OK = 0
EXIT_IO = 1
EXIT_RULES = 3  # usage errors keep argparse's 2


class OutputError(Exception):
    """Writing an output file failed; the message is the OSError's."""


@contextmanager
def _writing():
    try:
        yield
    except OSError as e:
        raise OutputError(e) from None


# The error policy of annotate, tables and eval: the stderr prefix and exit code per
# exception class. Config errors, tables warnings and gen errors are reported where they occur.
_ERRORS = {
    OutputError: ("cannot write output", EXIT_IO),
    ruledsl.RuleError: ("rule error", EXIT_RULES),
    matcher.RuleComplexityError: ("rule error", EXIT_RULES),
    OSError: ("input error", EXIT_IO),
    SchemaError: ("input error", EXIT_IO),
}


class Config(Struct):
    tab: tabrec.TabConfig = Factory(tabrec.TabConfig)
    confusions: ConfusionMap = Factory(ConfusionMap)

    @classmethod
    def load(cls, path: Optional[str]) -> "Config":
        if path is None:
            return cls()
        data = json_fields(parse_json_object(read_utf8(path), path), path, optional=cls._fields)
        return cls(tabrec.TabConfig.from_dict(json_object(data.get("tab", {}), f"{path}: 'tab'")),
                   ConfusionMap.from_dict(data.get("confusions", {}), f"{path}: 'confusions'"))


def _files(directory: Path, keep) -> list[Path]:
    """The files in ``directory`` whose path ``keep`` accepts, in name order."""
    if not directory.is_dir():
        raise NotADirectoryError(f"not a directory: {directory}")
    return sorted(p for p in directory.iterdir() if keep(p) and p.is_file())


# mask files are named <doc_id>.p<page>.json
_MASK_NAME_RE = re.compile(r"(.+)\.p(\d+)\.json")


def _warn_malformed_mask(path: Path, reason) -> None:
    print(f"warning: skipping malformed mask file {path.name}: {reason}", file=sys.stderr)


def _doc_id_for(path: Path) -> str:
    stem = path.stem
    return stem[:-6] if stem.endswith(".pages") else stem


def _load_documents(paths: list[Path]):
    """The document of each file; a doc_id that an earlier file holds is an input error."""
    first: dict[str, Path] = {}
    for path in paths:
        doc = textprep.load_document(_doc_id_for(path), path)
        earlier = first.setdefault(doc.doc_id, path)
        if earlier != path:
            raise SchemaError(f"{path}: doc_id {doc.doc_id!r} repeats {earlier}")
        yield doc


# ---------------------------------------------------------------------------
# annotate
# ---------------------------------------------------------------------------

def cmd_annotate(args, config: Config) -> int:
    path, name = ((DATA / "default_rules.tre", "default_rules.tre") if args.rules is None
                  else (args.rules, args.rules))  # rule_ids start with name
    compiled = ruledsl.compile_rules(ruledsl.parse_rules(read_utf8(path), name))
    sections = annotate.load_section_config(args.sections)
    docs = _files(Path(args.in_dir), lambda p: p.suffix.lower() in (".txt", ".json"))
    results = [r for doc in _load_documents(docs)
               for r in matcher.annotate_doc(doc, compiled, sections)]
    results.sort(key=lambda r: (r.doc_id, r.field, r.first_token, r.last_token, r.rule_id))
    with _writing():
        matcher.export_results(results, args.format, args.out)
    print(f"annotate: {len(docs)} documents, {len(results)} extractions -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def cmd_tables(args, config: Config) -> int:
    labels = tabrec.load_labels_config(args.labels)

    # mask file paths by the doc_id and page their names give, which a mask's content must
    # repeat; a document's files are read with its page file, so one document's are held
    mask_files: dict[str, list[tuple[str, Path]]] = {}
    for path in _files(Path(args.masks), lambda p: p.suffix == ".json"):
        named = _MASK_NAME_RE.fullmatch(path.name)
        if named is None:
            _warn_malformed_mask(path, "the name is not <doc_id>.p<page>.json")
            if args.strict:
                return EXIT_IO
            continue
        mask_files.setdefault(named[1], []).append((named[2], path))

    pages = Path(args.pages)
    page_files = [pages] if pages.is_file() else _files(pages, lambda p: p.name.endswith(".json"))
    rows = []  # (doc_id, type, page, record or None)
    for doc in _load_documents(page_files):
        masks: dict[int, PageDetections] = {}
        skipped = False
        for named_page, path in mask_files.pop(doc.doc_id, ()):
            try:
                page = load_page_detections(path)
                if (page.doc_id, str(page.page)) != (doc.doc_id, named_page):
                    raise SchemaError(f"doc_id {page.doc_id!r} and page {page.page} "
                                      "disagree with the file name")
                masks[page.page] = page
            except (SchemaError, OSError) as e:
                _warn_malformed_mask(path, e)
                if args.strict:
                    return EXIT_IO
                skipped = True
        if skipped:
            continue
        for ttype, pageno, record, warnings in tabrec.tables_doc(doc, masks, config.tab, labels,
                                                                 config.confusions):
            for w in warnings:
                print(f"warning: {doc.doc_id} p{pageno}: {w}", file=sys.stderr)
            rows.append((doc.doc_id, ttype, pageno, record))

    # the mask files of each doc_id that no page file holds, unread
    for doc_id, files in sorted(mask_files.items()):
        names = ", ".join(path.name for _page, path in sorted(files, key=lambda f: int(f[0])))
        print(f"warning: no page file holds {doc_id}; ignoring its mask files {names}",
              file=sys.stderr)
    if mask_files and args.strict:
        return EXIT_IO

    rows.sort(key=lambda r: (r[0], r[1].value))
    with _writing():
        tabrec.write_tables_jsonl(rows, args.out)

    print(f"{'table type':<24} {'Extracted':>10} {'Missing':>10}")
    for ttype in tabrec.TableType:
        records = [record for _doc_id, t, _page, record in rows if t is ttype]
        extracted = sum(r is not None for r in records)
        print(f"{evalkit.TABLE_TITLES[ttype]:<24} {extracted:>10} {len(records) - extracted:>10}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval and gen
# ---------------------------------------------------------------------------

def cmd_eval(args, config: Config) -> int:
    gold = evalkit.load_gold_set(Path(args.gold))
    fields, tables = evalkit.load_predictions(args.pred)
    report = evalkit.evaluate(gold, fields, tables)
    sys.stdout.write(evalkit.format_report(report))
    report_path = (Path(args.pred) / "eval_report.json" if args.report is None
                   else Path(args.report))
    with _writing():
        report_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    print(f"report -> {report_path}")
    return EXIT_OK


def cmd_gen(args, config: Config) -> int:
    try:
        out = gen_corpus(args.n, args.seed, args.noise, args.out)
    except (OSError, ValueError) as e:
        print(f"gen error: {e}", file=sys.stderr)
        return EXIT_IO
    print(f"gen: {args.n} documents (seed {args.seed}, noise {args.noise}) -> {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kidex",
                                     description="Key-information-document extraction toolkit")
    parser.add_argument("--config",
                        help="JSON config file holding the 'tab' and 'confusions' objects")
    parser.add_argument("--strict", action="store_true",
                        help="fail on malformed inputs instead of skipping")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="run extraction rules over documents")
    p.add_argument("--rules", help="rule file (.tre); defaults to the packaged ruleset")
    p.add_argument("--sections", default=DATA / "sections.json",
                   help="section config JSON; defaults packaged")
    p.add_argument("--in", dest="in_dir", required=True, help="directory of .txt / page .json docs")
    p.add_argument("--out", required=True, help="output file")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("tables", help="reconstruct typed tables from detection masks")
    p.add_argument("--masks", required=True, help="directory of page-detections JSON files")
    p.add_argument("--pages", required=True, help="page-text file or directory of them")
    p.add_argument("--labels", default=DATA / "labels.json",
                   help="labels config JSON; defaults packaged")
    p.add_argument("--out", required=True, help="output tables JSONL")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("eval", help="score predictions against gold data")
    p.add_argument("--gold", required=True, help="gold directory (fields.jsonl, tables.jsonl)")
    p.add_argument("--pred", required=True, help="predictions directory")
    p.add_argument("--report", help="JSON report path (default: <pred>/eval_report.json)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gen", help="generate a synthetic gold corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = Config.load(args.config)
    except (OSError, SchemaError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_IO
    try:
        return args.func(args, config)
    except tuple(_ERRORS) as e:
        prefix, code = next(_ERRORS[cls] for cls in _ERRORS if isinstance(e, cls))
        print(f"{prefix}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
