"""Seeded synthetic corpus: page texts, detection masks, OCR entries, gold files.

Each document is a small Italian-style key information document spread over
five pages: product and risk sections as text, and one table per type on
pages 3-5 delivered as detection masks plus OCR entries. Gold field
triples and gold table records are written alongside.

``noise`` injects the slash-for-seven OCR confusion into numeric texts and
drops the anchor-bearing header cells of a table with the given
probability per (document, table type); drops are logged to
``gold/noise.json`` so failure-mode tests can reconcile counts exactly.
"""
from __future__ import annotations

import json
import random
from decimal import Decimal
from pathlib import Path

from .model import (BBox, CostCategory, Detection, DetectionClass, OcrEntry, PageDetections,
                    Period, Record, Scenario, TableType, dump_page_detections)
from .tabrec import DEFAULT_ANCHORS, _norm_ws, write_tables_jsonl

PAGE_W, PAGE_H = 2480, 3508
PERF_PAGE, EVOLUTION_PAGE, COMPOSITION_PAGE = 3, 4, 5

_PRODUCT_KINDS = ["Fondo Azionario", "Fondo Bilanciato", "Certificato Protetto",
                  "Fondo Obbligazionario", "Piano Dinamico", "Polizza Multiramo"]
_PRODUCT_THEMES = ["Globale", "Europa", "Italia", "Sostenibile", "Mercati Emergenti",
                   "Prudente", "Tecnologia", "Dividendo"]
_MAKER_NAMES = ["Aurora", "Meridiana", "Girasole", "Vettore", "Larice", "Brennero",
                "Tirreno", "Dolomiti"]
_MAKER_SUFFIXES = ["Asset Management", "SGR", "Investimenti", "Capital Partners", "Gestioni"]
_COUNTRIES = ["CH", "IT", "LU", "DE", "FR", "IE", "XS", "GB"]
_AUTHORITIES = ["CONSOB", "BaFin", "AMF", "CNMV", "FCA", "FINMA"]
_TLDS = [".it", ".com", ".eu"]
_RHP_CHOICES = [4, 5, 6, 8, 10]

_SCENARIO_LABELS = {Scenario.STRESS: "Scenario di stress",
                    Scenario.UNFAVOURABLE: "Scenario sfavorevole",
                    Scenario.MODERATE: "Scenario moderato",
                    Scenario.FAVOURABLE: "Scenario favorevole"}
_CATEGORY_LABELS = {CostCategory.ENTRY: "Costi di ingresso",
                    CostCategory.EXIT: "Costi di uscita",
                    CostCategory.PORTFOLIO_TRANSACTION: "Costi di transazione del portafoglio",
                    CostCategory.OTHER_RECURRENT: "Altri costi correnti",
                    CostCategory.PERFORMANCE_FEES: "Commissioni di performance",
                    CostCategory.OVERPERFORMANCE_FEES: "Commissioni di overperformance"}
_REFUND_LABEL = "Possibile rimborso al netto dei costi"
_YIELD_LABEL = "Rendimento medio per ciascun anno"
_TOTAL_LABEL = "Costi totali"
_RIY_LABEL = "Impatto sul rendimento (RIY) per anno"

_YIELD_RANGES = {Scenario.STRESS: (-1500, -100), Scenario.UNFAVOURABLE: (-800, 300),
                 Scenario.MODERATE: (0, 800), Scenario.FAVOURABLE: (300, 1500)}


def _fmt_amount(value: Decimal) -> str:
    units = int(value)
    cents = int((value - units) * 100)
    grouped = f"{units:,}".replace(",", ".")
    return f"€ {grouped},{cents:02d}"


def _fmt_pct(value: Decimal) -> str:
    return format(value, ".2f").replace(".", ",") + "%"


def _draw_scaled(rng: random.Random, lo: int, hi: int) -> Decimal:
    """Two-decimal value whose digits stay majority non-seven.

    Keeps the numeric-context repair guard effective even when every
    seven in the rendered numeral gets confused into a slash.
    """
    while True:
        raw = rng.randrange(lo, hi + 1)
        digits = str(abs(raw))
        if digits.count("7") * 2 <= len(digits):
            return Decimal(raw).scaleb(-2)


class _NoiseBox:
    def __init__(self, rng: random.Random, rate: float):
        self.rng = rng
        self.rate = rate
        self.confused = 0

    def maybe_confuse(self, text: str) -> str:
        if self.rate <= 0 or "7" not in text:
            return text
        out = []
        hit = False
        for ch in text:
            if ch == "7" and self.rng.random() < self.rate:
                out.append("/")
                hit = True
            else:
                out.append(ch)
        if hit:
            self.confused += 1
        return "".join(out)


def _doc_fields(rng: random.Random, index: int) -> dict:
    name = f"{rng.choice(_PRODUCT_KINDS)} {rng.choice(_PRODUCT_THEMES)} {rng.randrange(2024, 2036)}"
    maker = f"{rng.choice(_MAKER_NAMES)} {rng.choice(_MAKER_SUFFIXES)}"
    isin = rng.choice(_COUNTRIES) + "".join(str(rng.randrange(10)) for _ in range(10))
    website = f"www.{maker.split()[0].lower()}{rng.choice(_TLDS)}"
    phone = "+39" + "".join(str(rng.randrange(10)) for _ in range(9))
    date = f"{rng.randrange(1, 29):02d}/{rng.randrange(1, 13):02d}/{rng.randrange(2018, 2022)}"
    return {
        "doc_id": f"kid{index:05d}",
        "product_name": name,
        "manufacturer": maker,
        "isin": isin,
        "website": website,
        "phone": phone,
        "date": date,
        "authority": rng.choice(_AUTHORITIES),
        "risk": rng.randrange(1, 8),
        "rhp": rng.choice(_RHP_CHOICES),
    }


def _page_texts(f: dict) -> list[str]:
    rhp = f["rhp"]
    p1 = (
        "Documento contenente le informazioni chiave\n"
        "Scopo: il presente documento fornisce le informazioni chiave relative a "
        "questo prodotto di investimento.\n"
        "Cos'è questo prodotto?\n"
        f"Prodotto: {f['product_name']}\n"
        f"ISIN: {f['isin']}\n"
        f"Ideatore: {f['manufacturer']}\n"
        f"Sito web: {f['website']}\n"
        f"Telefono: {f['phone']}\n"
        f"Autorità competente: {f['authority']}\n"
        f"Data di realizzazione: {f['date']}\n"
        "Tipo: il prodotto è un organismo di investimento collettivo del risparmio.\n"
    )
    p2 = (
        "Quali sono i rischi e qual è il potenziale rendimento?\n"
        f"Indicatore sintetico di rischio: abbiamo classificato questo prodotto al "
        f"livello {f['risk']} di 7.\n"
        "L'indicatore presuppone che il prodotto sia mantenuto per il periodo di "
        "detenzione raccomandato.\n"
    )
    p3 = (
        "Scenari di performance\n"
        f"Periodo di detenzione raccomandato: {rhp} anni\n"
        "Esempio di investimento: € 10.000\n"
        "Gli scenari presentati sono una stima della performance futura e non "
        "costituiscono un indicatore esatto.\n"
    )
    p4 = (
        "Quali sono i costi?\n"
        "Andamento dei costi nel tempo\n"
        "La diminuzione del rendimento esprime l'impatto dei costi totali sostenuti "
        "sul possibile rendimento dell'investimento.\n"
    )
    p5 = (
        "Composizione dei costi\n"
        "La tabella seguente illustra l'impatto annuale delle differenti tipologie "
        "di costi.\n"
        "Come presentare reclami?\n"
        f"In caso di reclamo è possibile scrivere all'ideatore tramite il sito "
        f"{f['website']}/reclami.\n"
    )
    return [p1, p2, p3, p4, p5]


def _gold_fields(f: dict) -> list[dict]:
    pairs = [("ISIN", f["isin"]), ("PRODUCT_NAME", f["product_name"]),
             ("MANUFACTURER", f["manufacturer"]), ("MANUFACTURER_WEBSITE", f["website"]),
             ("CONTACT_PHONE", f["phone"]), ("DOCUMENT_DATE", f["date"]),
             ("COMPETENT_AUTHORITY", f["authority"]), ("SRI_RISK_CLASS", str(f["risk"]))]
    return [{"doc_id": f["doc_id"], "field": key, "value": value} for key, value in pairs]


# --- mask grids -------------------------------------------------------------

_ROW_PITCH = 130
_CELL_H = 80


class _GridBuilder:
    """Accumulates jittered cell masks plus their OCR entries for one page."""

    def __init__(self, rng: random.Random, noise: _NoiseBox):
        self.rng = rng
        self.noise = noise
        self.cells: list[tuple[BBox, str, bool]] = []  # (bbox, ocr_text, numeric)

    def add_row(self, top: int, columns: list[tuple[int, int]],
                texts: list[str | None], numeric_from: int) -> None:
        for col, ((left, right), text) in enumerate(zip(columns, texts)):
            if text is None:
                continue
            jitter = self.rng.randrange(-6, 7)
            height = _CELL_H + self.rng.randrange(0, 5)
            box = BBox(left, top + jitter, right, top + jitter + height)
            self.cells.append((box, text, col >= numeric_from))

    def build(self, doc_id: str, ttype: TableType, pageno: int, table_box: BBox, drops: dict,
              values: dict) -> tuple[PageDetections, Record]:
        """The ``ttype`` table's page of ``doc_id`` and its gold record; when
        ``drops[ttype]`` is set, the cells holding a table anchor of the type lose
        their masks."""
        drop_keys = ([_norm_ws(s) for s in DEFAULT_ANCHORS[ttype].table_strings]
                     if drops[ttype] else [])
        detections = [Detection(self.rng.choice((DetectionClass.BORDERED_TABLE,
                                                 DetectionClass.BORDERLESS_TABLE)),
                                round(self.rng.uniform(0.7, 0.99), 4), table_box)]
        ocr: list[OcrEntry] = []
        for box, text, numeric in self.cells:
            dropped = any(key in _norm_ws(text) for key in drop_keys)
            # confidence drawn unconditionally so the content stream is
            # identical whatever the noise level does to this cell
            confidence = round(self.rng.uniform(0.62, 0.99), 4)
            if not dropped:
                detections.append(Detection(DetectionClass.CELL, confidence, box))
            wobble = [self.rng.randrange(-2, 3) for _ in range(4)]
            ocr_box = BBox(box.left + wobble[0], box.top + wobble[1],
                           box.right + wobble[2], box.bottom + wobble[3])
            ocr_text = self.noise.maybe_confuse(text) if numeric else text
            ocr.append(OcrEntry(ocr_box, ocr_text))
        page = PageDetections(doc_id, pageno, PAGE_W, PAGE_H, tuple(detections), tuple(ocr))
        return page, Record(ttype, values)


def _period_header(rhp: int) -> list[str]:
    mid = rhp // 2
    return ["1 anno", f"{mid} anni", f"{rhp} anni (periodo di detenzione raccomandato)"]


def _perf_table(doc_id: str, rng: random.Random, noise: _NoiseBox, rhp: int,
                drops: dict) -> tuple[PageDetections, Record]:
    label_col = (220, 700)
    metric_col = (720, 1300)
    period_cols = [(1340, 1620), (1660, 1940), (1980, 2260)]
    columns = [label_col, metric_col, *period_cols]
    grid = _GridBuilder(rng, noise)
    top = 620
    grid.add_row(top, columns, ["Scenari", None, *_period_header(rhp)], numeric_from=5)

    values: dict = {}
    for scenario in Scenario:
        refunds = [_draw_scaled(rng, 300000, 2500000) for _ in range(3)]
        lo, hi = _YIELD_RANGES[scenario]
        yields = [_draw_scaled(rng, lo, hi) for _ in range(3)]
        top += _ROW_PITCH
        grid.add_row(top, columns,
                     [_SCENARIO_LABELS[scenario], _REFUND_LABEL,
                      *[_fmt_amount(r) for r in refunds]], numeric_from=2)
        top += _ROW_PITCH
        grid.add_row(top, columns,
                     [None, _YIELD_LABEL, *[_fmt_pct(y) for y in yields]], numeric_from=2)
        for period, refund, ypct in zip(Period, refunds, yields):
            values[(scenario, period, "refund")] = refund
            values[(scenario, period, "yield_pct")] = ypct

    table_box = BBox(200, 580, 2300, top + _ROW_PITCH + 40)
    return grid.build(doc_id, TableType.PERFORMANCE_SCENARIOS, PERF_PAGE, table_box, drops,
                      values)


def _evolution_table(doc_id: str, rng: random.Random, noise: _NoiseBox, rhp: int,
                     drops: dict) -> tuple[PageDetections, Record]:
    label_col = (220, 1200)
    period_cols = [(1340, 1620), (1660, 1940), (1980, 2260)]
    columns = [label_col, *period_cols]
    grid = _GridBuilder(rng, noise)
    top = 700
    grid.add_row(top, columns, ["Investimento di € 10.000", *_period_header(rhp)],
                 numeric_from=4)
    totals = sorted(_draw_scaled(rng, 5000, 200000) for _ in range(3))
    riys = [_draw_scaled(rng, 10, 400) for _ in range(3)]
    top += _ROW_PITCH
    grid.add_row(top, columns, [_TOTAL_LABEL, *[_fmt_amount(t) for t in totals]],
                 numeric_from=1)
    top += _ROW_PITCH
    grid.add_row(top, columns, [_RIY_LABEL, *[_fmt_pct(r) for r in riys]], numeric_from=1)

    values = {}
    for period, total, riy in zip(Period, totals, riys):
        values[(period, "total_cost")] = total
        values[(period, "riy_pct")] = riy
    table_box = BBox(200, 660, 2300, top + _ROW_PITCH + 40)
    return grid.build(doc_id, TableType.COSTS_EVOLUTION, EVOLUTION_PAGE, table_box, drops,
                      values)


def _composition_table(doc_id: str, rng: random.Random, noise: _NoiseBox,
                       drops: dict) -> tuple[PageDetections, Record]:
    label_col = (220, 1200)
    value_col = (1300, 1700)
    grid = _GridBuilder(rng, noise)
    top = 700
    values = {}
    for category in CostCategory:
        value = _draw_scaled(rng, 0, 350)
        values[(category,)] = value
        grid.add_row(top, [label_col, value_col],
                     [_CATEGORY_LABELS[category], _fmt_pct(value)], numeric_from=1)
        top += _ROW_PITCH
    table_box = BBox(200, 660, 1800, top + 40)
    return grid.build(doc_id, TableType.COSTS_COMPOSITION, COMPOSITION_PAGE, table_box, drops,
                      values)


def gen_corpus(n: int, seed: int, noise: float, out_dir: str | Path) -> Path:
    """Write a deterministic corpus of ``n`` documents under ``out_dir``.

    Layout: ``docs/`` page-text files, ``masks/`` one detections file per
    table page, ``gold/fields.jsonl``, ``gold/tables.jsonl`` and
    ``gold/noise.json`` (drop bookkeeping). A layout directory that already
    holds anything is a FileExistsError, raised before any write, so no file
    of an earlier corpus can stay behind among the new ones.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 <= noise <= 1.0):
        raise ValueError("noise must be in [0, 1]")
    out = Path(out_dir)
    docs_dir = out / "docs"
    masks_dir = out / "masks"
    gold_dir = out / "gold"
    for d in (docs_dir, masks_dir, gold_dir):
        if d.is_dir() and any(d.iterdir()):
            raise FileExistsError(f"{d} is not empty; gen writes a corpus into empty "
                                  "directories only")
    for d in (docs_dir, masks_dir, gold_dir):
        d.mkdir(parents=True, exist_ok=True)

    gold_field_lines: list[str] = []
    gold_table_rows: list[tuple] = []
    dropped_headers: list[list[str]] = []
    confused_total = 0

    for i in range(1, n + 1):
        rng = random.Random(f"{seed}:{i}:content")
        rng_noise = random.Random(f"{seed}:{i}:noise")
        fields = _doc_fields(rng, i)
        doc_id = fields["doc_id"]

        drops = {}
        for ttype in TableType:
            drops[ttype] = noise > 0 and rng_noise.random() < noise
            if drops[ttype]:
                dropped_headers.append([doc_id, ttype.value])
        noise_box = _NoiseBox(rng_noise, noise)

        pages = _page_texts(fields)
        (docs_dir / f"{doc_id}.pages.json").write_text(
            json.dumps({"doc_id": doc_id, "pages": pages}, ensure_ascii=False, indent=2) + "\n",
            encoding="utf-8")

        tables = (_perf_table(doc_id, rng, noise_box, fields["rhp"], drops),
                  _evolution_table(doc_id, rng, noise_box, fields["rhp"], drops),
                  _composition_table(doc_id, rng, noise_box, drops))
        for page, _record in tables:
            dump_page_detections(page, masks_dir / f"{doc_id}.p{page.page}.json")

        for row in _gold_fields(fields):
            gold_field_lines.append(json.dumps(row, ensure_ascii=False))
        gold_table_rows += [(doc_id, record.ttype, page.page, record) for page, record in tables]
        confused_total += noise_box.confused

    (gold_dir / "fields.jsonl").write_text("\n".join(gold_field_lines) + "\n", encoding="utf-8")
    write_tables_jsonl(gold_table_rows, gold_dir / "tables.jsonl")
    (gold_dir / "noise.json").write_text(
        json.dumps({"n": n, "seed": seed, "noise": noise,
                    "dropped_headers": dropped_headers,
                    "confused_texts": confused_total}, ensure_ascii=False, indent=2) + "\n",
        encoding="utf-8")
    return out
