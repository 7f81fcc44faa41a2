"""Walk a document through the rule pipeline: normalize, tokenize, sections, rules.

Run:  python demos/rules_quickstart.py
"""
from kidex import annotate, matcher, ruledsl, textprep
from kidex.model import Document

# A rule file holds $bindings and {...} rules. Patterns match whole tokens:
# /regex/ anchors against the token text, [{key:value}] checks the token's
# annotations, and +? is a lazy repeat, exactly as in character regexes.
RULES = """
$StartISIN = ( /ISIN/ /:/ | /Codice/ /del/ /Prodotto|prodotto/ /:/ )
$code = "/([A-Za-z][A-Za-z][0-9]{10})/"
{
    ruleType: "tokens",
    pattern: ( ($StartISIN) (?$Code [{word:$code} & {SECTION:"SECTION_PRODUCT"}]+?) (/*/) ),
    action: ( Annotate($Code, ISIN, "ISIN") )
}
{
    ruleType: "tokens",
    pattern: ( /Prodotto/ /:/ (?$Name [{SECTION:"SECTION_PRODUCT"}]+?) (/ISIN/) ),
    action: ( Annotate($Name, PRODUCT_NAME, CAPTURED_TEXT) )
}
"""

TEXT = """Documento contenente le informazioni chiave
Cos'è questo prodotto?
Prodotto: Fondo Bilanciato Prudente 2030
ISIN: IT0001234567
Emittente: Esempio SGR
"""

compiled = ruledsl.compile_rules(ruledsl.parse_rules(RULES, "demo"))

doc = Document("demo-doc", textprep.normalize_text(TEXT))
doc = annotate.tokenize_document(doc)
print("tokens:", list(doc.tokens)[:12], "...")

# section annotations make the {SECTION:...} constraints satisfiable
doc = annotate.annotate_sections(doc, annotate.default_section_config())
print("sections:", [(a.value, a.first, a.last) for a in doc.annotations])

doc, results = matcher.run_rules(compiled, doc)
for r in results:
    print(f"extracted {r.field} = {r.value!r} (tokens {r.first_token}..{r.last_token})")

# without section annotations the same rules extract nothing
bare = annotate.tokenize_document(Document("bare", textprep.normalize_text(TEXT)))
_, nothing = matcher.run_rules(compiled, bare)
print("without sections:", nothing)
