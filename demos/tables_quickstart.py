"""Reconstruct a typed record from detection masks plus OCR entries.

Run:  python demos/tables_quickstart.py
"""
from kidex.model import BBox, Detection, DetectionClass, OcrEntry, PageDetections
from kidex.tabrec import TabConfig, default_labels_config, extract_table, map_to_record

# What a detector + OCR would hand us for a costs-composition table:
# one table mask, one mask per cell, and the OCR text for each region.
GRID = [
    (BBox(100, 100, 700, 180), "Costi di ingresso"),
    (BBox(750, 100, 1050, 180), "0,50%"),
    (BBox(100, 230, 700, 310), "Costi di uscita"),
    (BBox(750, 230, 1050, 310), "0,00%"),
    (BBox(100, 360, 700, 440), "Commissioni di performance"),
    (BBox(750, 360, 1050, 440), "1,/5%"),  # OCR read a seven as a slash
]

detections = [Detection(DetectionClass.BORDERLESS_TABLE, 0.95, BBox(80, 80, 1100, 470))]
ocr = []
for box, text in GRID:
    detections.append(Detection(DetectionClass.CELL, 0.9, box))
    ocr.append(OcrEntry(box, text))

page = PageDetections("demo", 5, 2480, 3508, tuple(detections), tuple(ocr))

cfg = TabConfig()  # confidence 0.6, enlargement 5%, alignment 0.5 x median height
labels = default_labels_config()

ttype, table = extract_table(page, None, cfg, labels)
print("identified:", ttype.value)
for row in table.rows:
    print("  row:", [c.text for c in row])

record, warnings = map_to_record(ttype, table, labels)
for (category,), value in record.values.items():  # composition paths: one category each
    print(f"  {category.value}: {value}")  # the 1,/5% cell was repaired to 1.75
for w in warnings:
    print("  warning:", w)
