"""The benchmark's traced pass still reaches every layer it traces.

``perfbench/tracing.py`` replaces kidex functions at the module attributes
their callers look up; a rewrite that stops calling one through its module
attribute leaves that layer with zero calls, and the benchmark's
``--trace 1`` run fails. This test runs the same check on a small corpus.
"""
import contextlib
import importlib.util
import io
from pathlib import Path

from kidex import cli, ruledsl
from kidex.model import DATA, read_utf8

_TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def test_traced_pass_reaches_every_traced_layer_and_packaged_rule(tmp_path):
    tracing = _tracing_module()
    corpus, pred, regen = tmp_path / "corpus", tmp_path / "pred", tmp_path / "regen"
    assert cli.main(["gen", "--n", "4", "--seed", "42", "--noise", "0.1",
                     "--out", str(corpus)]) == 0
    pred.mkdir()
    commands = {
        "gen": ["gen", "--n", "4", "--seed", "42", "--noise", "0.1", "--out", str(regen)],
        "annotate": ["annotate", "--in", str(corpus / "docs"), "--out", str(pred / "fields.csv")],
        "tables": ["tables", "--masks", str(corpus / "masks"), "--pages", str(corpus / "docs"),
                   "--out", str(pred / "tables.jsonl")],
        "eval": ["eval", "--gold", str(corpus / "gold"), "--pred", str(pred)],
    }
    tracer = tracing.Tracer()
    for command, argv in commands.items():
        code, _wall = tracer.run(command, lambda: _quiet_main(argv))
        assert code == 0, command
    rules = ruledsl.compile_rules(ruledsl.parse_rules(read_utf8(DATA / "default_rules.tre"),
                                                      "default_rules.tre"))
    rule_ids = [rule.rule_id for rule in rules.all_rules()]
    assert rule_ids
    tracer.check_calls(rule_ids)
