"""Span tracer for the benchmark's traced pass.

The program runs unmodified: the tracer replaces public kidex functions at
the module attributes where their callers look them up, and restores them
afterwards. Each replacement records a span (name, start, end, parent) and
the counts the per-layer metrics need. A layer's self time is its span's
duration minus the durations of its direct child spans.

Span stacks are kept per thread. The CLI runs documents on a worker
thread; a span opened on a thread with an empty stack takes the command's
root span as its parent, which is exact while one worker runs at a time,
as it does with the CLI's default of one worker.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict


class TraceError(RuntimeError):
    """The traced pass cannot measure what it claims to measure."""


def _rule_id_getter(fn):
    params = list(inspect.signature(fn).parameters)
    if "rule_id" not in params:
        raise TraceError(f"{fn.__qualname__} no longer takes a rule_id to split time per rule")
    position = params.index("rule_id")

    def rule_id(args, kwargs):
        if "rule_id" in kwargs:
            return kwargs["rule_id"]
        return args[position] if len(args) > position else "pattern"
    return rule_id


def _count_tokens(counts, args, result):
    counts["annotate.tokens"] += len(result.tokens)


def _count_match(counts, args, result):
    counts["matcher.matches"] += result is not None


def _count_ocr(counts, args, result):
    counts["model.ocr_entries"] += len(result.ocr)


def _count_hit(counts, args, result):
    counts["tabrec.extract_hits"] += result is not None


def _count_warnings(counts, args, result):
    counts["tabrec.map_warnings"] += len(result[1])


def _count_repair(counts, args, result):
    counts["normalize.repairs"] += result != args[0]


# (module, attribute, span name, observer of the result)
SPANS = (
    ("kidex.cli", "build_parser", "cli.build_parser", None),
    ("kidex.cli", "gen_corpus", "corpusgen.gen_corpus", None),
    ("kidex.ruledsl", "parse_rules", "ruledsl.parse_rules", None),
    ("kidex.ruledsl", "compile_rules", "ruledsl.compile_rules", None),
    ("kidex.textprep", "load_document", "textprep.load_document", None),
    ("kidex.annotate", "tokenize_document", "annotate.tokenize_document", _count_tokens),
    ("kidex.annotate", "annotate_sections", "annotate.annotate_sections", None),
    ("kidex.matcher", "run_rules", "matcher.run_rules", None),
    ("kidex.matcher", "find_matches", "matcher.find_matches", _count_match),
    ("kidex.matcher", "export_results", "matcher.export_results", None),
    ("kidex.cli", "load_page_detections", "model.load_page_detections", _count_ocr),
    ("kidex.tabrec", "identify_pages", "tabrec.identify_pages", None),
    ("kidex.tabrec", "extract_table", "tabrec.extract_table", _count_hit),
    ("kidex.tabrec", "filter_detections", "tabrec.filter_detections", None),
    ("kidex.tabrec", "assign_cells", "tabrec.assign_cells", None),
    ("kidex.tabrec", "cell_text", "tabrec.cell_text", None),
    ("kidex.tabrec", "identify_table", "tabrec.identify_table", None),
    ("kidex.tabrec", "group_rows", "tabrec.group_rows", None),
    ("kidex.tabrec", "split_multiline", "tabrec.split_multiline", None),
    ("kidex.tabrec", "map_to_record", "tabrec.map_to_record", _count_warnings),
    ("kidex.tabrec", "normalize_number", "normalize.normalize_number", None),
    ("kidex.tabrec", "fix_confusions", "normalize.fix_confusions", _count_repair),
    ("kidex.tabrec", "write_tables_jsonl", "tabrec.write_tables_jsonl", None),
    ("kidex.evalkit", "load_gold_set", "evalkit.load_gold_set", None),
    ("kidex.evalkit", "evaluate", "evalkit.evaluate", None),
    ("kidex.evalkit", "format_report", "evalkit.format_report", None),
    ("kidex.matcher", "read_results_file", "matcher.read_results_file", None),
    ("kidex.tabrec", "read_tables_jsonl", "tabrec.read_tables_jsonl", None),
    ("kidex.tabrec", "parse_table_row", "tabrec.parse_table_row", None),
)

# (module, attribute, counter name): called too often for a span each
COUNTED = (
    ("kidex.tabrec", "iou", "model.iou"),
)

# spans whose rule_id argument splits their time per rule
PER_RULE = {"matcher.find_matches"}


class Profile:
    """Self times and counts folded from the spans of traced commands."""

    def __init__(self):
        self.self_s: dict = defaultdict(float)       # span name -> seconds
        self.calls: Counter = Counter()               # span or counter name -> calls
        self.counts: Counter = Counter()              # observer counts
        self.rule_s: dict = defaultdict(float)        # rule_id -> seconds
        self.wall_s: dict = defaultdict(float)        # command -> traced wall seconds
        self.root_self_s: dict = defaultdict(float)   # command -> seconds outside any span


class _ThreadState:
    def __init__(self):
        self.stack: list = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list = []   # (thread, state) of every thread that traced
        self._ids = itertools.count(1)
        self._spans: list = []    # (id, name, tag, start, end, parent)
        self._root = None
        self._patched: list = []
        self.profile = Profile()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            self._states.append((threading.current_thread(), state))
        return state

    def _span(self, name, fn, observe):
        tag_of = _rule_id_getter(fn) if name in PER_RULE else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # the wrapper's own bookkeeping falls inside the span it records,
            # so tracing cost lands on the traced layer, not on its caller
            start = time.perf_counter()
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else tracer._root
            span_id = next(tracer._ids)
            tag = tag_of(args, kwargs) if tag_of else None
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
                state.calls[name] += 1
                if observe is not None:
                    observe(state.counts, args, result)
                return result
            finally:
                stack.pop()
                tracer._spans.append((span_id, name, tag, start, time.perf_counter(), parent))
        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._state().calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Replace every traced attribute; fails if one no longer exists."""
        try:
            for module_name, attr, name, observe in SPANS:
                self._patch(module_name, attr, lambda fn, n=name, o=observe: self._span(n, fn, o))
            for module_name, attr, name in COUNTED:
                self._patch(module_name, attr, lambda fn, n=name: self._counter(n, fn))
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, module_name, attr, make) -> None:
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            raise TraceError(f"traced attribute {module_name}.{attr} no longer exists")
        original = getattr(module, attr)
        setattr(module, attr, make(original))
        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def run(self, command: str, call):
        """Run ``call()`` traced as one command; returns (result, wall seconds)."""
        self._spans = []
        self._root = next(self._ids)
        self.install()
        try:
            start = time.perf_counter()
            result = call()
            end = time.perf_counter()
        finally:
            self.uninstall()
        self._fold(command, end - start)
        return result, end - start

    def _fold(self, command: str, wall: float) -> None:
        prof = self.profile
        child_s: dict = defaultdict(float)
        for _id, _name, _tag, start, end, parent in self._spans:
            child_s[parent] += end - start
        for span_id, name, tag, start, end, _parent in self._spans:
            own = (end - start) - child_s.get(span_id, 0.0)
            prof.self_s[name] += own
            if tag is not None:
                prof.rule_s[tag] += own
        prof.wall_s[command] += wall
        prof.root_self_s[command] += wall - child_s.get(self._root, 0.0)
        for _thread, state in self._states:
            prof.calls.update(state.calls)
            prof.counts.update(state.counts)
            state.calls.clear()
            state.counts.clear()
        self._states = [(t, s) for t, s in self._states if t.is_alive()]
        self._spans = []

    def check_calls(self, rule_ids) -> None:
        """Fail if a traced layer or packaged rule was never reached."""
        names = [name for _m, _a, name, _o in SPANS] + [name for _m, _a, name in COUNTED]
        silent = [name for name in names if not self.profile.calls[name]]
        silent += [f"rule {rid}" for rid in rule_ids if rid not in self.profile.rule_s]
        if silent:
            raise TraceError("traced layers recorded zero calls: " + ", ".join(silent))
