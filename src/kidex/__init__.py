"""Information extraction for key information documents.

Two pipelines: a token-level extraction-rule engine driven by a staged
pattern DSL, and a table-reconstruction pipeline that turns externally
produced detection masks plus OCR text into typed financial records.
Includes an evaluation harness and a seeded synthetic-corpus generator.
"""
__version__ = "0.1.0"
