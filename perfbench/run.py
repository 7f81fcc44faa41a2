#!/usr/bin/env python3
"""Seeded benchmark of the kidex command line.

Run from the repository root:

    python3 perfbench/run.py --workload noisy --seed 42 --seconds 55 --trace 0

The benchmark generates the workload's corpus from the seed, then, until
``--seconds`` have passed, runs rounds of the four CLI commands (gen,
annotate, tables, eval) as one subprocess each, one at a time (a closed
loop with one client), plus a fresh-interpreter set-up probe. Every output
is checked against the corpus gold files. End-to-end metrics are medians
over the rounds.

With ``--trace 1`` the same commands run in-process through
``kidex.cli.main``, alternately untraced and traced (see ``tracing.py``),
and the per-layer metrics are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; one operation is one
(document, command) pair. Metric names and units come from BENCHMARK.json.
Run metadata (machine, seed, doc counts, commit, source line count and
output digests) is written with the result to ``.perfbench/results/``.
Exit code 0 means every check passed, 1 that a check failed (the result
is still printed) and 2 that the benchmark could not run.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import (Expected, failed_field_docs, failed_table_docs, file_sha256,
                    report_problems, tree_sha256)
from tracing import Tracer, TraceError

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
COMMANDS = ("gen", "annotate", "tables", "eval")
RUN_LIMIT_S = 170  # every run ends within the 180 s a run is allowed
MIN_BATCH_S = 1.0


@dataclass(frozen=True)
class Workload:
    docs: int
    noise: float
    dense_ocr: int  # seeded word-level OCR entries added to every mask page


# One round of the four commands takes several seconds at these sizes, so
# a run holds several rounds to take medians over.
WORKLOADS = {
    "noisy": Workload(docs=120, noise=0.1, dense_ocr=0),
    "dense-ocr": Workload(docs=40, noise=0.0, dense_ocr=400),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# dense-ocr inputs
# ---------------------------------------------------------------------------

_WORDS = ("il", "dei", "costi", "rendimento", "investimento", "prodotto", "rischio",
          "periodo", "della", "per", "anni", "importo", "indicatore", "mercato",
          "cliente", "fondo", "gestione", "totale", "commissioni", "2035", "10.000")
_MARGIN, _GAP = 40, 40


def _overlaps(a: dict, b: dict) -> bool:
    return (a["left"] < b["right"] and b["left"] < a["right"]
            and a["top"] < b["bottom"] and b["top"] < a["bottom"])


def add_dense_ocr(masks_dir: Path, per_page: int, seed: int) -> None:
    """Add ``per_page`` seeded word-level OCR entries to every mask page.

    The entries sit in bands above and below the page's tables, inside the
    page and clear of every detection box, so they cannot change which OCR
    entry any cell is associated with; the eval check proves it.
    """
    for path in sorted(masks_dir.glob("*.json")):
        page = json.loads(path.read_text(encoding="utf-8"))
        rng = random.Random(f"{seed}:dense-ocr:{path.name}")
        width, height = page["page_width"], page["page_height"]
        boxes = [d["bbox"] for d in page["detections"]]
        tables = [d["bbox"] for d in page["detections"] if d["class"] != "cell"]
        bands = [(_MARGIN, min(b["top"] for b in tables) - _GAP),
                 (max(b["bottom"] for b in tables) + _GAP, height - _MARGIN)]
        bands = [(lo, hi) for lo, hi in bands if hi - lo >= 100]
        weights = [hi - lo for lo, hi in bands]
        added = []
        for _ in range(per_page):
            lo, hi = rng.choices(bands, weights)[0]
            w, h = rng.randrange(60, 361), rng.randrange(28, 49)
            left, top = rng.randrange(_MARGIN, width - _MARGIN - w), rng.randrange(lo, hi - h)
            box = {"left": left, "top": top, "right": left + w, "bottom": top + h}
            if box["right"] > width or box["bottom"] > height or any(_overlaps(box, b) for b in boxes):
                raise BenchError(f"{path.name}: dense OCR entry {box} leaves its band")
            added.append({"bbox": box, "text": rng.choice(_WORDS)})
        ocr = page["ocr"] + added
        rng.shuffle(ocr)
        page["ocr"] = ocr
        path.write_text(json.dumps(page, ensure_ascii=False) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Exit:
    wall_s: float
    rss_mb: float
    code: int


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        if not (SRC / "kidex" / "cli.py").is_file():
            raise BenchError(f"no kidex sources under {SRC}")
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.spec = _load_spec()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.src_sha256 = tree_sha256(SRC / "kidex")
        self.dir = WORK / f"{workload}-seed{seed}"
        self.corpus = self.dir / "corpus"
        self.gens = 0  # gen invocations so far; each writes a directory of its own
        self.pred = self.dir / "pred"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict = {}     # command -> digest every run of this code and seed repeats
        self.checked: dict = {}     # (command, digest) -> failed documents
        self.probes: list[dict] = []
        self.samples: dict = {c: [] for c in ("setup", *COMMANDS)}  # batches per round

    # -- processes ----------------------------------------------------------

    def _spawn(self, argv: list[str], log: Path, stdout=subprocess.DEVNULL) -> Exit:
        timeout = max(1.0, self.started + RUN_LIMIT_S - time.perf_counter())
        with log.open("wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=stdout, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Exit(wall, usage.ru_maxrss / 1024, proc.returncode)

    def argv(self, command: str) -> list[str]:
        w, c, p = self.workload, self.corpus, self.pred
        return {
            "gen": ["gen", "--n", str(w.docs), "--seed", str(self.seed),
                    "--noise", str(w.noise), "--out", str(self.regen)],
            "annotate": ["annotate", "--in", str(c / "docs"), "--out", str(p / "fields.csv")],
            "tables": ["tables", "--masks", str(c / "masks"), "--pages", str(c / "docs"),
                       "--out", str(p / "tables.jsonl")],
            "eval": ["eval", "--gold", str(c / "gold"), "--pred", str(p)],
        }[command]

    @property
    def regen(self) -> Path:
        return self.dir / "regen" / str(self.gens)

    def next_gen_dir(self) -> None:
        """Point gen at a new directory. Old ones go when the run ends: deleting
        hundreds of files just before a timed gen slows it by a varying amount."""
        self.gens += 1

    def run_cli(self, command: str) -> Exit:
        if command == "gen":
            self.next_gen_dir()
        return self._spawn(["-m", "kidex.cli", *self.argv(command)],
                           self.dir / f"{command}.stderr")

    def probe(self) -> Exit:
        out = self.dir / "probe.stdout"
        with out.open("wb") as fh:
            result = self._spawn([str(BENCH_DIR / "setup_probe.py")],
                                 self.dir / "probe.stderr", stdout=fh)
        if result.code != 0:
            raise BenchError(f"set-up probe exited {result.code}: "
                             + (self.dir / "probe.stderr").read_text(errors="replace")[-2000:])
        info = json.loads(out.read_text(encoding="utf-8"))
        if not Path(info["module"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"kidex imported from {info['module']}, not from {SRC}")
        self.probes.append(info)
        return result

    # -- set-up -------------------------------------------------------------

    def prepare(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.pred.mkdir(parents=True)
        self.probe()  # compiles bytecode once, so no timed run pays for it
        w = self.workload
        made = self._spawn(["-m", "kidex.cli", "gen", "--n", str(w.docs), "--seed", str(self.seed),
                            "--noise", str(w.noise), "--out", str(self.corpus)],
                           self.dir / "setup.stderr")
        if made.code != 0:
            raise BenchError(f"generating the corpus failed with exit code {made.code}")
        self.corpus_sha256 = tree_sha256(self.corpus)
        self.expected = Expected.load(self.corpus / "gold")
        if len(self.expected.doc_ids) != w.docs:
            raise BenchError(f"corpus has {len(self.expected.doc_ids)} documents, expected {w.docs}")
        if w.dense_ocr:
            add_dense_ocr(self.corpus / "masks", w.dense_ocr, self.seed)
        # outputs must repeat for the same program, benchmark code and inputs
        self.record_key = (f"{self.name}:{w}:{self.seed}:{self.src_sha256}:"
                           f"{tree_sha256(BENCH_DIR)}")
        self.digests = dict(_read_json(WORK / "digests.json").get(self.record_key, {}))

    # -- checks -------------------------------------------------------------

    def output_digest(self, command: str) -> str:
        if command == "gen":
            return tree_sha256(self.regen)
        name = {"annotate": "fields.csv", "tables": "tables.jsonl", "eval": "eval_report.json"}
        return file_sha256(self.pred / name[command])

    def _failed_docs(self, command: str, digest: str) -> int:
        n = self.workload.docs
        if command == "gen":
            if digest != self.corpus_sha256:
                self.problems.append("gen: corpus differs from the set-up corpus of the same seed")
                return n
            return 0
        if command == "annotate":
            bad = failed_field_docs(self.pred / "fields.csv", self.expected)
        elif command == "tables":
            bad = failed_table_docs(self.pred / "tables.jsonl", self.expected)
        else:
            problems = report_problems(self.pred / "eval_report.json", self.expected)
            self.problems.extend(f"eval: {p}" for p in problems)
            return n if problems else 0
        if bad:
            self.problems.append(f"{command}: wrong output for {len(bad)} documents, "
                                 f"e.g. {sorted(bad)[:3]}")
        return len(bad)

    def check(self, command: str, code: int, strict: bool = False) -> None:
        """Count one command's operations and the documents it got wrong.

        Outputs must repeat byte for byte across rounds and across runs of
        the same code and seed; with ``strict`` a difference is an error.
        """
        n = self.workload.docs
        self.attempted += n
        if code != 0:
            self.failed += n
            self.problems.append(f"{command}: exit code {code}")
            return
        digest = self.output_digest(command)
        reference = self.digests.setdefault(command, digest)
        if digest != reference:
            if strict:
                raise TraceError(f"{command}: in-process output differs from the CLI's output")
            self.failed += n
            self.problems.append(f"{command}: output differs from an earlier round or run "
                                 "of this code and seed")
            return
        if (command, digest) not in self.checked:
            self.checked[(command, digest)] = self._failed_docs(command, digest)
        self.failed += self.checked[(command, digest)]

    # -- end-to-end ---------------------------------------------------------

    def _batch(self, run) -> list[Exit]:
        """Repeat ``run`` for at least MIN_BATCH_S of wall time.

        The host's speed swings within a second; a sample of at least a
        second averages over those swings instead of landing in one, so
        short commands do not give bimodal samples.
        """
        batch = [run()]
        while sum(r.wall_s for r in batch) < MIN_BATCH_S:
            batch.append(run())
        return batch

    def _command(self, command: str) -> Exit:
        result = self.run_cli(command)
        self.check(command, result.code)
        return result

    def run_e2e(self) -> tuple[dict, int]:
        started = time.perf_counter()
        rounds = 0
        while _another_round(started, rounds, self.seconds):
            self.samples["setup"].append(self._batch(self.probe))
            for command in COMMANDS:
                self.samples[command].append(self._batch(lambda: self._command(command)))
            rounds += 1
        n = self.workload.docs
        med = statistics.median

        def mean_wall(batch):
            return sum(r.wall_s for r in batch) / len(batch)

        s = self.samples
        metrics = {"setup_s": med(mean_wall(b) for b in s["setup"])}
        for command in COMMANDS:
            metrics[f"{command}_docs_per_s"] = med(n / mean_wall(b) for b in s[command])
        metrics["pipeline_docs_per_s"] = med(
            n / (mean_wall(a) + mean_wall(t) + mean_wall(e))
            for a, t, e in zip(s["annotate"], s["tables"], s["eval"]))
        for command in ("annotate", "tables", "eval"):
            metrics[f"{command}_peak_rss_mb"] = med(r.rss_mb for b in s[command] for r in b)
        return metrics, rounds

    # -- traced -------------------------------------------------------------

    def run_traced(self) -> tuple[dict, int]:
        started = time.perf_counter()
        for command in COMMANDS:  # the untraced reference outputs, from the real CLI
            self.check(command, self.run_cli(command).code)
        sys.path.insert(0, str(SRC))
        import kidex.cli
        tracer = Tracer()
        overhead: dict = {c: [] for c in COMMANDS}

        def fresh_output(command):
            """The command's argv, with a new output directory for gen."""
            if command == "gen":
                self.next_gen_dir()
            return self.argv(command)

        for command in COMMANDS:  # warm the interpreter's caches before timing
            argv = fresh_output(command)
            self.check(command, _quiet(lambda: kidex.cli.main(argv)), strict=True)

        rounds = 0
        while _another_round(started, rounds, self.seconds):
            self.probe()
            for command in COMMANDS:
                argv = fresh_output(command)
                start = time.perf_counter()
                code = _quiet(lambda: kidex.cli.main(argv))
                untraced = time.perf_counter() - start
                self.check(command, code, strict=True)
                argv = fresh_output(command)
                code, traced = tracer.run(command, lambda: _quiet(lambda: kidex.cli.main(argv)))
                self.check(command, code, strict=True)
                overhead[command].append(traced / untraced)
            rounds += 1
        rule_ids = self.probes[-1]["rule_ids"]
        tracer.check_calls(rule_ids)
        return layer_metrics(tracer.profile, self.workload.docs * rounds, self.probes,
                             rule_ids, overhead), rounds

    # -- result -------------------------------------------------------------

    def metadata(self, rounds: int) -> dict:
        lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "kidex").rglob("*.py")))
        return {
            "workload": self.name, "seed": self.seed, "seconds": self.seconds,
            "trace": int(self.trace), "docs": self.workload.docs, "noise": self.workload.noise,
            "dense_ocr_per_page": self.workload.dense_ocr, "rounds": rounds,
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "git_commit": _git_commit(),
            "src_sha256": self.src_sha256, "src_kidex_lines": lines,
            "output_sha256": dict(self.digests),
        }

    def save_digests(self) -> None:
        if self.failed:
            return  # only outputs that passed every check become the reference
        path = WORK / "digests.json"
        records = _read_json(path)
        records.setdefault(self.record_key, dict(self.digests))
        _write_json(path, records)


def _another_round(started: float, rounds: int, seconds: float) -> bool:
    """Start a round while at least half of a mean round still fits in the run."""
    elapsed = time.perf_counter() - started
    return rounds == 0 or elapsed + elapsed / rounds / 2 < seconds


def _quiet(fn):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return fn()
        except SystemExit as e:
            return e.code if isinstance(e.code, int) else 1


def layer_metrics(prof, docs: int, probes: list[dict], rule_ids: list[str],
                  overhead: dict) -> dict:
    """Per-layer metrics from the folded trace; times are self times."""
    def per_doc(seconds):
        return seconds * 1e3 / docs

    def per_call(name):
        return prof.self_s[name] * 1e3 / prof.calls[name]

    def self_per_doc(name):
        return per_doc(prof.self_s[name])

    m = {
        "cli.import_ms": statistics.median(p["import_ms"] for p in probes),
        "cli.self_ms_per_doc": per_doc(sum(prof.root_self_s.values())),
        "cli.build_parser_ms": per_call("cli.build_parser"),
        "ruledsl.parse_rules_ms": per_call("ruledsl.parse_rules"),
        "ruledsl.compile_rules_ms": per_call("ruledsl.compile_rules"),
        "corpusgen.gen_corpus_ms_per_doc": self_per_doc("corpusgen.gen_corpus"),
        "textprep.load_document_ms_per_doc": self_per_doc("textprep.load_document"),
        "annotate.tokenize_document_ms_per_doc": self_per_doc("annotate.tokenize_document"),
        "annotate.annotate_sections_ms_per_doc": self_per_doc("annotate.annotate_sections"),
        "annotate.tokens_per_doc": prof.counts["annotate.tokens"] / docs,
        "matcher.run_rules_ms_per_doc": self_per_doc("matcher.run_rules"),
        "matcher.find_matches_ms_per_doc": self_per_doc("matcher.find_matches"),
        "matcher.find_matches_calls_per_doc": prof.calls["matcher.find_matches"] / docs,
        "matcher.match_ratio": prof.counts["matcher.matches"] / prof.calls["matcher.find_matches"],
        "matcher.export_results_ms": per_call("matcher.export_results"),
        "model.load_page_detections_ms_per_page": per_call("model.load_page_detections"),
        "model.ocr_entries_per_page": (prof.counts["model.ocr_entries"]
                                       / prof.calls["model.load_page_detections"]),
        "model.iou_calls_per_doc": prof.calls["model.iou"] / docs,
        "tabrec.cell_text_calls_per_doc": prof.calls["tabrec.cell_text"] / docs,
        "tabrec.extract_hit_ratio": (prof.counts["tabrec.extract_hits"]
                                     / prof.calls["tabrec.extract_table"]),
        "tabrec.map_warnings_per_doc": prof.counts["tabrec.map_warnings"] / docs,
        "tabrec.write_tables_jsonl_ms": per_call("tabrec.write_tables_jsonl"),
        "normalize.normalize_number_ms_per_doc": self_per_doc("normalize.normalize_number"),
        "normalize.normalize_number_calls_per_doc": prof.calls["normalize.normalize_number"] / docs,
        "normalize.fix_confusions_ms_per_doc": self_per_doc("normalize.fix_confusions"),
        "normalize.repair_ratio": (prof.counts["normalize.repairs"]
                                   / prof.calls["normalize.fix_confusions"]),
        "evalkit.load_gold_set_ms": per_call("evalkit.load_gold_set"),
        "evalkit.evaluate_ms": per_call("evalkit.evaluate"),
        "evalkit.format_report_ms": per_call("evalkit.format_report"),
        "matcher.read_results_file_ms": per_call("matcher.read_results_file"),
        "tabrec.read_tables_jsonl_ms": per_call("tabrec.read_tables_jsonl"),
        "tabrec.parse_table_row_ms_per_doc": self_per_doc("tabrec.parse_table_row"),
    }
    for step in ("identify_pages", "filter_detections", "assign_cells", "cell_text",
                 "identify_table", "group_rows", "split_multiline", "extract_table",
                 "map_to_record"):
        m[f"tabrec.{step}_ms_per_doc"] = self_per_doc(f"tabrec.{step}")
    for rule_id in rule_ids:
        m[f"matcher.rule.{rule_id.replace(':', '-')}.ms_per_doc"] = per_doc(prof.rule_s[rule_id])
    for command in COMMANDS:
        m[f"trace.{command}.coverage"] = 1 - prof.root_self_s[command] / prof.wall_s[command]
        m[f"trace.{command}.overhead_ratio"] = statistics.median(overhead[command])
    return m


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def _write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def _load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found next to {BENCH_DIR.name}/")
    spec = json.loads(path.read_text(encoding="utf-8"))
    declared = [w["name"] for w in spec["workloads"]]
    if sorted(declared) != sorted(WORKLOADS):
        raise BenchError(f"BENCHMARK.json workloads {declared} != {sorted(WORKLOADS)}")
    return spec


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _declared(spec: dict, trace: bool) -> dict:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be between 1 and 60")

    try:
        bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
        bench.prepare()
        metrics, rounds = bench.run_traced() if args.trace else bench.run_e2e()
        declared = _declared(bench.spec, bool(args.trace))
        if set(metrics) != set(declared):
            raise BenchError("metrics differ from BENCHMARK.json: missing "
                             f"{sorted(set(declared) - set(metrics))}, undeclared "
                             f"{sorted(set(metrics) - set(declared))}")
    except (BenchError, TraceError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2

    correct = bench.failed == 0
    result = {
        "correct": correct, "attempted": bench.attempted, "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    meta = bench.metadata(rounds)
    _write_json(WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
                {"result": result, "meta": meta, "problems": bench.problems,
                 "probes": bench.probes,
                 "samples": {c: [[vars(r) for r in batch] for batch in batches]
                             for c, batches in bench.samples.items()}})
    bench.save_digests()
    shutil.rmtree(bench.dir, ignore_errors=True)

    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, unit in declared.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"ops_failed_frac = {bench.failed / bench.attempted:.6g} ratio "
          f"({bench.failed} of {bench.attempted} (doc, command) operations)")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
