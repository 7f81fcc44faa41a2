from decimal import Decimal

import pytest
from hypothesis import given, seed, settings, strategies as st

from kidex.normalize import ConfusionMap, fix_confusions, normalize_number, strip_currency
from oracles import expected_number, fix_confusions_oracle, normalize_number_oracle


# --- normalize_number rule examples -----------------------------------------

def test_both_separators_rightmost_is_decimal():
    assert normalize_number("1.234,56") == Decimal("1234.56")
    assert normalize_number("1,234.56") == Decimal("1234.56")


def test_currency_then_separators():
    assert normalize_number("€ 9.915,45") == Decimal("9915.45")


def test_lone_dot_three_digit_group_is_grouping():
    assert normalize_number("1.234") == Decimal("1234")


def test_lone_dot_other_shapes_are_decimal():
    assert normalize_number("12.34") == Decimal("12.34")
    assert normalize_number("1.2345") == Decimal("1.2345")


def test_sign_kept_with_percent():
    assert normalize_number("-0,85 %") == Decimal("-0.85")


def test_lone_comma_one_or_two_trailing_digits_is_decimal():
    assert normalize_number("12,5") == Decimal("12.5")
    assert normalize_number("0,85") == Decimal("0.85")
    assert normalize_number("1,234") == Decimal("1234")


def test_comma_follows_the_dot_rule():
    assert normalize_number("0,1234") == Decimal("0.1234")
    assert normalize_number("1,2345") == Decimal("1.2345")
    assert normalize_number("1,2,3") is None
    assert normalize_number("1,234") == Decimal("1234")
    assert normalize_number("12,5") == Decimal("12.5")
    assert normalize_number("1,234,567") == Decimal("1234567")


def test_multi_group_grouping():
    assert normalize_number("1.234.567") == Decimal("1234567")
    assert normalize_number("12.345.678") == Decimal("12345678")


def test_unparseable_is_none():
    assert normalize_number("N/A") is None
    assert normalize_number("") is None
    assert normalize_number("%") is None
    assert normalize_number("1.23.4") is None


def test_unicode_minus():
    assert normalize_number("−0,85%") == Decimal("-0.85")


def test_enumeration_oracle_every_format_up_to_seven_digits():
    # every (len1, len2, separator) shape with <= 7 digits, several digit fills
    fills = ["1234567", "9081726", "1000000"]
    for fill in fills:
        for n1 in range(0, 8):
            for n2 in range(0, 8 - n1):
                d1, d2 = fill[:n1], fill[n1:n1 + n2]
                for sep in (".", ","):
                    if n1 + n2 == 0:
                        continue
                    text = d1 + sep + d2
                    value = normalize_number(text)
                    assert value == expected_number(d1, d2, sep), text
                    if value is not None:  # idempotence on the canonical rendering
                        assert normalize_number(format(value, "f")) == value, text
        for n in range(1, 8):
            assert normalize_number(fill[:n]) == expected_number(fill[:n], "", None)


def test_idempotent_on_canonical_rendering():
    for text in ("1.234,56", "€ 9.915,45", "1.234", "-0,85 %", "12,5", "0,07"):
        value = normalize_number(text)
        assert value is not None
        assert normalize_number(format(value, "f")) == value


# --- fix_confusions ----------------------------------------------------------

def test_slash_repaired_in_numeric_context():
    assert fix_confusions("1/2,50") == "172,50"


def test_untouched_outside_numeric_context():
    assert fix_confusions("a/b") == "a/b"
    assert fix_confusions("//") == "//"


def test_context_guard_counts_non_separator_chars():
    # exactly half digits passes the guard
    assert fix_confusions("1/") == "17"
    assert fix_confusions("€ 9./15,45") == "€ 9.715,45"


def test_custom_map_only_in_numeric_context():
    cmap = ConfusionMap(pairs={"O": "0"})
    assert fix_confusions("1O5", cmap) == "105"
    assert fix_confusions("O K", cmap) == "O K"


def test_confusion_map_rejects_cycles():
    with pytest.raises(ValueError):
        ConfusionMap(pairs={"/": "7", "7": "1"})


# --- strip_currency ----------------------------------------------------------

def test_codes_and_symbols_removed():
    assert strip_currency("EUR 10.000") == "10.000"
    assert strip_currency("10.000 €") == "10.000"
    assert strip_currency("CHF 5,00 usd") == "5,00"


def test_word_boundary_keeps_euro_word():
    assert strip_currency("EURO zone") == "EURO zone"


def test_never_removes_digits():
    for text in ("€150", "USD99", "£ 12,5", "EUR7"):
        stripped = strip_currency(text)
        assert [c for c in stripped if c.isdigit()] == [c for c in text if c.isdigit()]


_digits = st.text("0123456789", max_size=8)


@seed(20220604)
@settings(max_examples=500, deadline=None, database=None)
@given(d1=_digits, d2=_digits, sep=st.sampled_from([None, ".", ","]))
def test_single_separator_numerals_follow_the_decision_table(d1, d2, sep):
    if sep is None:
        text, expected = d1 + d2, expected_number(d1 + d2, "", None)
    else:
        text, expected = d1 + sep + d2, expected_number(d1, d2, sep)
    assert normalize_number(text) == expected


# label-cell text with no digit, and numerals with Unicode digits and the
# chars the parser and the map treat specially
_digit_free = st.text(st.characters(blacklist_categories=("Cs",),
                                    blacklist_characters="0123456789"), max_size=40).filter(
    lambda text: not any(map(str.isdigit, text)))
_numeric = st.text("0123456789²٣ .,%€$£+-/O\u2212EUR", max_size=12)


@seed(20261019)
@settings(max_examples=500, deadline=None, database=None)
@given(text=st.one_of(_digit_free, st.sampled_from(["Possibile rimborso al netto dei costi",
                                                    "/ / /", "€ ./,", "²", "O/O"]), _numeric),
       cmap=st.sampled_from([None, ConfusionMap(pairs={"O": "0", "/": "7"})]))
def test_digit_guard_changes_no_result(text, cmap):
    assert normalize_number(text) == normalize_number_oracle(text)
    assert fix_confusions(text, cmap) == fix_confusions_oracle(text, cmap)

