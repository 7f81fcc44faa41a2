"""The value-class contract of ``model.Struct``, one class from each module, and the
start-up cost it removes: importing the CLI loads no ``dataclasses`` and no
``importlib.resources``, and importing one kidex module loads only the kidex
modules it imports."""
import copy
import pickle
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

from kidex import annotate, cli, evalkit, matcher, model, normalize, ruledsl, tabrec
from kidex.model import BBox, CostCategory, DetectionClass, TableType

SRC = Path(__file__).resolve().parents[1] / "src"

RULE = ruledsl.Rule(ruledsl.TokenRegex("a", (1, 2)), (ruledsl.AnnotateAction("g", "K", None),),
                    1, "f:3", (3, 1))

# the repr each class printed as a dataclass, byte for byte
REPRS = [
    (model.Annotation("K", "v", 0, 1),
     "Annotation(key='K', value='v', first=0, last=1, rule_id='system')"),
    (model.Document("d", "ab", ("ab",)),
     "Document(doc_id='d', text='ab', tokens=('ab',), annotations=(), pages=None)"),
    (model.Detection(DetectionClass.CELL, 0.5, BBox(1, 2, 3, 4)),
     "Detection(cls=<DetectionClass.CELL: 'cell'>, confidence=0.5, "
     "bbox=BBox(left=1, top=2, right=3, bottom=4))"),
    (model.RawTable(((model.Cell(BBox(1, 2, 3, 4), "x"),),)),
     "RawTable(rows=((Cell(bbox=BBox(left=1, top=2, right=3, bottom=4), text='x'),),))"),
    (model.Record(TableType.COSTS_COMPOSITION, {(CostCategory.ENTRY,): Decimal("1.5")}),
     "Record(ttype=<TableType.COSTS_COMPOSITION: 'costs_composition'>, "
     "values={(<CostCategory.ENTRY: 'entry'>,): Decimal('1.5')})"),
    (model.PageDetections("d", 1, 10, 10),
     "PageDetections(doc_id='d', page=1, page_width=10, page_height=10, detections=(), ocr=())"),
    (RULE, "Rule(pattern=TokenRegex(body='a', pos=(1, 2)), actions=(AnnotateAction(group='g', "
           "key='K', value=None),), stage=1, rule_id='f:3', pos=(3, 1))"),
    (ruledsl.Repeat(ruledsl.VarRef("x"), 1, None),
     "Repeat(body=VarRef(name='x', pos=None), lo=1, hi=None, lazy=False)"),
    (tabrec.AnchorSet(("a",), ("b",)), "AnchorSet(page_strings=('a',), table_strings=('b',))"),
    (evalkit.EvalReport({}, evalkit.FieldScore(0, 0, 0)),
     "EvalReport(fields={}, micro=FieldScore(tp=0, fp=0, fn=0), tables={})"),
    (matcher.Match("r", 0, 1, {"g": (0, 1)}), "Match(rule_id='r', start=0, end=1, "
                                               "captures={'g': (0, 1)})"),
    (matcher.ExtractionResult("d", "f", "v", "t", 0, 1, "r"),
     "ExtractionResult(doc_id='d', field='f', value='v', tag='t', first_token=0, "
     "last_token=1, rule_id='r')"),
    (annotate.SectionSpec("S", ("h",)), "SectionSpec(name='S', header_patterns=('h',))"),
    (normalize.ConfusionMap(), "ConfusionMap(pairs={'/': '7'})"),
    (cli.Config(tab=tabrec.TabConfig(anchors={})),
     "Config(tab=TabConfig(confidence_threshold=0.6, alignment_factor_ratio=0.5, "
     "enlargement_ratio=0.05, ocr_iou_threshold=0.5, anchors={}), "
     "confusions=ConfusionMap(pairs={'/': '7'}))"),
]


@pytest.mark.parametrize("obj, text", REPRS, ids=[type(o).__name__ for o, _ in REPRS])
def test_repr_is_the_dataclass_repr(obj, text):
    assert repr(obj) == text


def test_default_tab_config_repr_lists_the_default_anchors():
    assert repr(tabrec.TabConfig()).startswith(
        "TabConfig(confidence_threshold=0.6, alignment_factor_ratio=0.5, "
        "enlargement_ratio=0.05, ocr_iou_threshold=0.5, anchors={<TableType.PERFORMANCE_"
        "SCENARIOS: 'performance_scenarios'>: AnchorSet(page_strings=('Scenari di performance', ")


def test_equality_needs_the_same_class_and_equal_compared_fields():
    ann = model.Annotation("K", "v", 0, 1)
    assert ann == model.Annotation("K", "v", 0, 1)
    assert ann != model.Annotation("K", "v", 0, 2)
    assert ann.__eq__(("K", "v", 0, 1, "system")) is NotImplemented
    a = ruledsl.TokenRegex("a")
    assert ruledsl.Seq((a,)) != ruledsl.Alt((a,))  # equal fields, other class
    assert evalkit.FieldScore(1, 2, 3) == evalkit.FieldScore(1, 2, 3)
    assert evalkit.FieldScore(1, 2, 3) != evalkit.TableScore(1, 2, 3)
    assert annotate.SectionSpec("S", ("h",)) != annotate.SectionSpec("S", ("h", "i"))
    assert (cli.Config(confusions=normalize.ConfusionMap({"O": "0"}))
            == cli.Config(confusions=normalize.ConfusionMap({"O": "0"})) != cli.Config())


def test_pos_and_rule_id_do_not_count():
    assert ruledsl.TokenRegex("a", (1, 2)) == ruledsl.TokenRegex("a", (5, 6))
    assert ruledsl.Binding("x", regex="a", pos=(1, 1)) == ruledsl.Binding("x", regex="a")
    same = ruledsl.Rule(RULE.pattern, RULE.actions, RULE.stage, "other:9", None)
    assert same == RULE and hash(same) == hash(RULE)
    assert ruledsl.Rule(RULE.pattern, RULE.actions, 2, "f:3", (3, 1)) != RULE


def test_hash_is_the_hash_of_the_compared_fields():
    assert hash(model.Annotation("K", "v", 0, 1)) == hash(("K", "v", 0, 1, "system"))
    assert hash(ruledsl.TokenRegex("a", (1, 2))) == hash(("a",))
    assert hash(RULE) == hash((RULE.pattern, RULE.actions, RULE.stage))
    assert hash(tabrec.AnchorSet(("a",), ("b",))) == hash((("a",), ("b",)))
    assert hash(annotate.SectionSpec("S", ("h",))) == hash(("S", ("h",)))
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(normalize.ConfusionMap())


@pytest.mark.parametrize("obj, name", [
    (model.Document("d", "ab", ("ab",)), "text"), (model.Record(TableType.COSTS_COMPOSITION), "values"),
    (RULE, "pos"), (tabrec.TabConfig(), "anchors"), (evalkit.FieldScore(0, 0, 0), "tp"),
    (matcher.Match("r", 0, 1, {}), "extra"), (annotate.SectionSpec("S", ("h",)), "name"),
    (normalize.ConfusionMap(), "pairs"), (cli.Config(), "tab")])
def test_fields_cannot_be_set_or_deleted(obj, name):
    with pytest.raises(AttributeError):
        setattr(obj, name, 0)
    with pytest.raises(AttributeError):
        delattr(obj, name)


def test_factory_defaults_are_built_per_instance():
    assert tabrec.TabConfig().anchors == tabrec.TabConfig().anchors
    assert tabrec.TabConfig().anchors is not tabrec.TabConfig().anchors
    assert cli.Config().tab is not cli.Config().tab
    assert normalize.ConfusionMap().pairs is not normalize.ConfusionMap().pairs
    assert model.Record(TableType.COSTS_EVOLUTION).values == {}


def test_generic_init_takes_defaults_keywords_and_checks():
    assert ruledsl.Binding("x", regex="a") == ruledsl.Binding("x", None, "a", None)
    with pytest.raises(TypeError, match="missing argument 'lo'"):
        ruledsl.Repeat(ruledsl.TokenRegex("a"))
    with pytest.raises(TypeError):
        ruledsl.VarRef("x", None, None)
    with pytest.raises(TypeError, match="'ps'"):
        ruledsl.VarRef("x", ps=(1, 1))
    with pytest.raises(TypeError):
        ruledsl.VarRef("x", name="y")
    with pytest.raises(ValueError, match="confidence_threshold"):
        tabrec.TabConfig(confidence_threshold=2.0)
    with pytest.raises(ValueError, match="section names must be unique"):
        annotate.SectionConfig((annotate.SectionSpec("S", ("h",)),) * 2)


@pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy,
                                        lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("obj", [
    model.Document("d", "ab", ("ab",), (model.Annotation("K", "v", 0, 0),)),
    model.Record(TableType.COSTS_COMPOSITION, {(CostCategory.ENTRY,): Decimal("1.5")}),
    RULE, tabrec.TabConfig(), evalkit.FieldScore(1, 2, 3),
    matcher.ExtractionResult("d", "f", "v", "t", 0, 1, "r"),
    annotate.SectionSpec("S", ("h",)), normalize.ConfusionMap(),
    cli.Config(tab=tabrec.TabConfig(0.7))],
    ids=lambda o: type(o).__name__)
def test_copy_and_pickle_round_trips_are_equal(obj, round_trip):
    out = round_trip(obj)
    assert out == obj and type(out) is type(obj) and repr(out) == repr(obj)


def test_compiled_pattern_is_equal_only_to_itself():
    node = ruledsl.TokenRegex("a")
    pattern = ruledsl.compile_pattern(node)
    twin = ruledsl.compile_pattern(node)
    assert pattern == pattern and pattern != twin
    assert hash(pattern) == object.__hash__(pattern)
    assert len({pattern, twin}) == 2
    assert pattern.may_start("a") and not pattern.may_start("b")
    assert pattern.first_text_memo == {"a": True, "b": False}
    assert "first_text_memo" not in repr(pattern)
    assert repr(pattern).startswith("CompiledPattern(instrs=((0, <kidex.ruledsl.TextRegexPred ")


def test_importing_the_cli_loads_no_dataclasses_inspect_statistics_or_importlib_resources():
    # -S keeps site-packages start-up hooks from importing these modules first
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import kidex.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect', 'statistics', 'fractions', "
            "'importlib.resources', 'tempfile') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == "[]\n", out.stdout + out.stderr


@pytest.mark.parametrize("module, absent", [
    ("model", ("annotate", "cli", "corpusgen", "evalkit", "matcher", "normalize", "ruledsl",
               "tabrec", "textprep")),
    ("tabrec", ("ruledsl", "matcher", "evalkit")),
    ("corpusgen", ("ruledsl", "matcher", "evalkit", "textprep")),
    ("annotate", ("cli", "corpusgen", "evalkit", "matcher", "normalize", "ruledsl", "tabrec",
                  "textprep")),
    ("textprep", ("annotate", "cli", "corpusgen", "evalkit", "matcher", "normalize", "ruledsl",
                  "tabrec")),
])
def test_importing_a_module_loads_only_the_kidex_modules_it_imports(module, absent):
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import kidex.{module}; "
            f"print(sorted(m for m in {absent!r} if 'kidex.' + m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == "[]\n", out.stdout + out.stderr
