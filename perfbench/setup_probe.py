"""Set-up probe: the work every kidex command does before its first document.

Run in a fresh interpreter with ``src`` on the path. It imports the CLI,
parses and compiles the packaged rules and loads the packaged section and
label configs, then prints the phase times in ms and the rule ids as one
JSON line. The benchmark times the whole process from spawn to exit.
"""
import time

started = time.perf_counter()
import kidex.cli  # noqa: E402,F401  (the import is what is timed)

imported = time.perf_counter()
import json  # noqa: E402
from importlib import resources  # noqa: E402

from kidex import annotate, ruledsl, tabrec  # noqa: E402

source = resources.files("kidex.data").joinpath("default_rules.tre").read_text(encoding="utf-8")
rule_file = ruledsl.parse_rules(source, "default_rules.tre")
parsed = time.perf_counter()
compiled = ruledsl.compile_rules(rule_file)
compiled_at = time.perf_counter()
annotate.default_section_config()
tabrec.default_labels_config()
done = time.perf_counter()

print(json.dumps({
    "import_ms": (imported - started) * 1e3,
    "parse_ms": (parsed - imported) * 1e3,
    "compile_ms": (compiled_at - parsed) * 1e3,
    "configs_ms": (done - compiled_at) * 1e3,
    "rule_ids": [rule.rule_id for rule in compiled.all_rules()],
    "module": kidex.cli.__file__,
}))
