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

from . import annotate, evalkit, matcher, ruledsl, tabrec, textprep
from .corpusgen import gen_corpus
from .model import (DATA, Factory, PageDetections, SchemaError, Struct, json_fields,
                    json_object, load_page_detections, parse_json_object, read_utf8)
from .normalize import ConfusionMap

EXIT_OK = 0
EXIT_IO = 1
EXIT_RULES = 3  # usage errors keep argparse's 2


class ConfigError(Exception):
    """The --config file is unreadable or breaks its format; the message is the cause's."""


class GenError(Exception):
    """gen cannot write its corpus; the message is the cause's."""


class OutputError(Exception):
    """Writing an output file failed; the message is the OSError's."""


@contextmanager
def _raising(error: type[Exception], *caught: type[Exception]):
    """Re-raise an OSError, or one of ``caught``, from the block as ``error``."""
    try:
        yield
    except (OSError, *caught) as e:
        raise error(e) from None


# The error policy of every command: the stderr prefix and exit code per exception class,
# the first class that matches. Warnings are the only lines printed where they occur.
_ERRORS = {
    ConfigError: ("config error", EXIT_IO),
    GenError: ("gen error", EXIT_IO),
    OutputError: ("cannot write output", EXIT_IO),
    ruledsl.RuleError: ("rule error", EXIT_RULES),
    matcher.RuleComplexityError: ("rule error", EXIT_RULES),
    OSError: ("input error", EXIT_IO),
    SchemaError: ("input error", EXIT_IO),
}


def _path(value: str | Path, option: str) -> Path:
    """The path an option names; an empty one names no file, though ``Path("")`` is ``.``."""
    if value == "":
        raise OSError(f"{option}: the path is empty")
    return Path(value)


class Config(Struct):
    tab: tabrec.TabConfig = Factory(tabrec.TabConfig)
    confusions: ConfusionMap = Factory(ConfusionMap)

    @classmethod
    def load(cls, path: Path) -> "Config":
        data = json_fields(parse_json_object(read_utf8(path), path), path, optional=cls._fields)
        return cls(tabrec.TabConfig.from_dict(json_object(data.get("tab", {}), f"{path}: 'tab'")),
                   ConfusionMap.from_dict(data.get("confusions", {}), f"{path}: 'confusions'"))


def _files(directory: Path, keep) -> list[Path]:
    """The files in ``directory`` whose path ``keep`` accepts, in name order."""
    if not directory.is_dir():
        raise NotADirectoryError(f"not a directory: {directory}")
    return sorted(p for p in directory.iterdir() if keep(p) and p.is_file())


def _page_files(path: Path) -> list[Path]:
    """The page-text files of ``--in`` or ``--pages``: a file is read as itself, and a
    directory gives its files whose suffix, in any case, is .json or .txt."""
    if path.is_file():
        return [path]
    return _files(path, lambda p: p.suffix.lower() in (".json", ".txt"))


# mask files are named <doc_id>.p<page>.json
_MASK_NAME_RE = re.compile(r"(.+)\.p(\d+)\.json")


def _warn_malformed_mask(path: Path, reason) -> None:
    print(f"warning: skipping malformed mask file {path.name}: {reason}", file=sys.stderr)


def _load_documents(paths: list[Path]):
    """The document of each file; a doc_id that an earlier file holds is an input error."""
    first: dict[str, Path] = {}
    for path in paths:
        doc = textprep.load_document(path.stem.removesuffix(".pages"), path)
        earlier = first.setdefault(doc.doc_id, path)
        if earlier != path:
            raise SchemaError(f"{path}: doc_id {doc.doc_id!r} repeats {earlier}")
        yield doc


# ---------------------------------------------------------------------------
# annotate
# ---------------------------------------------------------------------------

def cmd_annotate(args) -> int:
    path, name = ((DATA / "default_rules.tre", "default_rules.tre") if args.rules is None
                  else (_path(args.rules, "--rules"), args.rules))  # rule_ids start with name
    compiled = ruledsl.compile_rules(ruledsl.parse_rules(read_utf8(path), name))
    sections = annotate.load_section_config(_path(args.sections, "--sections"))
    docs = _page_files(_path(args.in_dir, "--in"))
    results = [r for doc in _load_documents(docs)
               for r in matcher.annotate_doc(doc, compiled, sections)]
    results.sort(key=lambda r: (r.doc_id, r.field, r.first_token, r.last_token, r.rule_id))
    with _raising(OutputError):
        matcher.export_results(results, _path(args.out, "--out"))
    print(f"annotate: {len(docs)} documents, {len(results)} extractions -> {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def cmd_tables(args) -> int:
    with _raising(ConfigError, SchemaError):  # read before any input file
        config = Config() if args.config is None else Config.load(_path(args.config, "--config"))
    labels = tabrec.load_labels_config(_path(args.labels, "--labels"))
    skipped = False  # a malformed mask file was skipped

    # mask file paths by the doc_id and page their names give, which a mask's content must
    # repeat; a document's files are read with its page file, so one document's are held
    mask_files: dict[str, list[tuple[str, Path]]] = {}
    for path in _files(_path(args.masks, "--masks"), lambda p: p.suffix == ".json"):
        named = _MASK_NAME_RE.fullmatch(path.name)
        if named is None:
            _warn_malformed_mask(path, "the name is not <doc_id>.p<page>.json")
            skipped = True
            continue
        mask_files.setdefault(named[1], []).append((named[2], path))

    rows = []  # (doc_id, type, page, record or None)
    for doc in _load_documents(_page_files(_path(args.pages, "--pages"))):
        masks: dict[int, PageDetections] = {}
        malformed = False
        for named_page, path in mask_files.pop(doc.doc_id, ()):
            try:
                page = load_page_detections(path)
                if (page.doc_id, str(page.page)) != (doc.doc_id, named_page):
                    raise SchemaError(f"doc_id {page.doc_id!r} and page {page.page} "
                                      "disagree with the file name")
                masks[page.page] = page
            except (SchemaError, OSError) as e:
                _warn_malformed_mask(path, e)
                malformed = skipped = True
        if malformed:
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
    if args.strict and (skipped or mask_files):  # every skip warning is printed, nothing written
        return EXIT_IO

    rows.sort(key=lambda r: (r[0], r[1].value))
    with _raising(OutputError):
        tabrec.write_tables_jsonl(rows, _path(args.out, "--out"))

    print(f"{'table type':<24} {'Extracted':>10} {'Missing':>10}")
    for ttype in tabrec.TableType:
        records = [record for _doc_id, t, _page, record in rows if t is ttype]
        extracted = sum(r is not None for r in records)
        print(f"{evalkit.TABLE_TITLES[ttype]:<24} {extracted:>10} {len(records) - extracted:>10}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval and gen
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    gold = evalkit.load_gold_set(_path(args.gold, "--gold"))
    pred = _path(args.pred, "--pred")
    fields, tables = evalkit.load_predictions(pred)
    report = evalkit.evaluate(gold, fields, tables)
    with _raising(OutputError):
        report_path = (pred / "eval_report.json" if args.report is None
                       else _path(args.report, "--report"))
        report_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    sys.stdout.write(evalkit.format_report(report))
    print(f"report -> {report_path}")
    return EXIT_OK


def cmd_gen(args) -> int:
    with _raising(GenError, ValueError):
        out = gen_corpus(args.n, args.seed, args.noise, _path(args.out, "--out"))
    print(f"gen: {args.n} documents (seed {args.seed}, noise {args.noise}) -> {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kidex",
                                     description="Key-information-document extraction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("annotate", help="run extraction rules over documents")
    p.add_argument("--rules", help="rule file (.tre); defaults to the packaged ruleset")
    p.add_argument("--sections", default=DATA / "sections.json",
                   help="section config JSON; defaults packaged")
    p.add_argument("--in", dest="in_dir", required=True, help="page-text file or directory of them")
    p.add_argument("--out", required=True, help="output CSV file")
    p.set_defaults(func=cmd_annotate)

    p = sub.add_parser("tables", help="reconstruct typed tables from detection masks")
    p.add_argument("--masks", required=True, help="directory of page-detections JSON files")
    p.add_argument("--pages", required=True, help="page-text file or directory of them")
    p.add_argument("--labels", default=DATA / "labels.json",
                   help="labels config JSON; defaults packaged")
    p.add_argument("--config", help="JSON config file: the 'tab' and 'confusions' objects")
    p.add_argument("--strict", action="store_true", help="exit 1 if a mask file is skipped")
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_ERRORS) as e:
        prefix, code = next(_ERRORS[cls] for cls in _ERRORS if isinstance(e, cls))
        print(f"{prefix}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
