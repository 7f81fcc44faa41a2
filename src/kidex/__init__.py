"""Information extraction for key information documents.

Two pipelines: a token-level extraction-rule engine driven by a staged
pattern DSL, and a table-reconstruction pipeline that turns externally
produced detection masks plus OCR text into typed financial records.
Includes an evaluation harness and a seeded synthetic-corpus generator.
"""
from .annotate import SectionConfig, annotate_sections, tokenize, tokenize_document
from .evalkit import EvalReport, GoldSet, evaluate, f_measure
from .matcher import ExtractionResult, Match, export_results, find_matches, run_rules
from .model import (Annotation, BBox, Cell, CostCategory, Detection, DetectionClass, Document,
                    OcrEntry, PageDetections, Period, RawTable, Record, Scenario, Token,
                    contains_center, iou)
from .normalize import ConfusionMap, fix_confusions, normalize_number, strip_currency
from .ruledsl import CompiledRules, RuleFile, compile_rules, parse_rules, print_rules
from .tabrec import (LabelsConfig, TabConfig, TableType, extract_table, group_rows,
                     identify_pages, map_to_record, split_multiline)
from .textprep import load_document, normalize_text

__version__ = "0.1.0"

__all__ = [
    "Annotation", "BBox", "Cell", "CompiledRules", "ConfusionMap", "CostCategory",
    "Detection", "DetectionClass", "Document", "EvalReport", "ExtractionResult", "GoldSet",
    "LabelsConfig", "Match", "OcrEntry", "PageDetections", "Period", "RawTable", "Record",
    "RuleFile", "Scenario", "SectionConfig", "TabConfig", "TableType", "Token",
    "annotate_sections", "compile_rules", "contains_center", "evaluate", "export_results",
    "extract_table", "f_measure", "find_matches", "fix_confusions", "group_rows",
    "identify_pages", "iou", "load_document", "map_to_record", "normalize_number",
    "normalize_text", "parse_rules", "print_rules", "run_rules", "split_multiline",
    "strip_currency", "tokenize", "tokenize_document",
]
