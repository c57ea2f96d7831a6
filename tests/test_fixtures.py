import json
import re
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf, workprec

from apery_words import constants, fixtures
from apery_words.constants import CONSTANT_WORDS
from apery_words.fixtures import (
    ORACLE_DIGITS,
    _oracle_values,
    load_fixtures,
    render_report_table,
    supported_digits,
    verify_fixtures,
)
from apery_words.oracle import OracleConfig, direct_harmonic_sum, direct_sum
from apery_words.series import SeriesSpec


@pytest.fixture(scope="module")
def report():
    # the repository's flagship check: every bundled record verifies at
    # 40-digit working precision; one run serves every test below
    return verify_fixtures(precision_bits=140)


def test_bundled_set_shape():
    records = load_fixtures()
    assert len(records) >= 40
    for rec in records:
        assert rec.closed_form is not None or rec.printed_value is not None, rec.id
        # a series record is the one part (1, spec), never mixed with harmonic parts
        series = [spec for _, spec in rec.parts if isinstance(spec, SeriesSpec)]
        assert rec.parts and (not series or rec.parts == [(1, series[0])]), rec.id


def test_tolerance_from_decimal_count():
    records = {r.id: r for r in load_fixtures()}
    assert abs(records["b07-sq-low-1"].abs_tolerance - 1e-4) < 1e-12  # 0.36338
    assert abs(records["a11-odd-even-11"].abs_tolerance - 1e-9) < 1e-18


def test_flagship_bundled_fixtures_pass(report):
    failing = [r["id"] for r in report["records"] if r["status"] != "PASS"]
    assert not failing, failing
    assert report["passed"] == report["total"] >= 40
    table = render_report_table(report)
    assert f"passed {report['total']}/{report['total']}" in table


def test_report_is_sorted_and_json_stable(report):
    ids = [r["id"] for r in report["records"]]
    assert ids == sorted(ids)
    blob = json.dumps(report, sort_keys=True)
    assert json.dumps(json.loads(blob), sort_keys=True) == blob


def test_report_carries_weight_bookkeeping(report):
    by_id = {r["id"]: r for r in report["records"]}
    rep = by_id["a22-low-even-21"]["weight_report"]
    assert rep == {"weight": 3, "nu": 1, "max_word_weight": 2}
    rep = by_id["b17-sq-low-even-21"]["weight_report"]
    assert rep["max_word_weight"] == max(rep["weight"] + 1 - rep["eta"], rep["iota"])


def test_report_oracle_matches_single_sums(report):
    # verify sums every record in one batch; each record summed on its own
    # must print the same oracle value and estimate
    records = sorted(load_fixtures(), key=lambda r: r.id)
    assert [r["id"] for r in report["records"]] == [rec.id for rec in records]
    cfg = OracleConfig(precision_digits=ORACLE_DIGITS)
    with workprec(140 + 16):
        for rec, entry in zip(records, report["records"]):
            value = error = mpf(0)
            for coef, spec in rec.parts:
                c = mpf(coef.numerator) / coef.denominator
                res = direct_sum(spec, cfg) if isinstance(spec, SeriesSpec) else direct_harmonic_sum(spec, cfg)
                value += res.value * c
                error += res.error_estimate * abs(c)
            assert entry["oracle"] == mpmath.nstr(value, supported_digits(value, error, 16)), rec.id
            assert entry["oracle_error_estimate"] == mpmath.nstr(error, 3), rec.id


def test_report_prints_only_the_oracle_digits_its_estimate_supports(report):
    # the unit of the last oracle digit printed is at least the record's
    # estimate, which keeps many records below 16 digits
    records = sorted(load_fixtures(), key=lambda r: r.id)
    cfg = OracleConfig(precision_digits=ORACLE_DIGITS)
    short = 0
    with workprec(200):
        for entry, (value, error) in zip(report["records"], _oracle_values(records, cfg)):
            printed = Decimal(entry["oracle"])
            places = printed.as_tuple().exponent
            assert mpf(10) ** places >= error, entry["id"]
            assert abs(mpf(entry["oracle"]) - value) <= mpf(10) ** places / 2, entry["id"]
            short += len(printed.as_tuple().digits) < 16
    assert short >= 27


def test_oracle_prints_the_digits_of_its_config(tmp_path):
    # this sum's estimate at 20 digits, 3.35e-24, supports all 20 of them
    path = tmp_path / "fx.json"
    path.write_text(json.dumps([{"id": "odd-2", "series": "S[2n+1^2 >= 0]"}]))
    report = verify_fixtures(str(path), precision_bits=100, oracle_cfg=OracleConfig(precision_digits=20))
    entry = report["records"][0]
    assert entry["status"] == "PASS"
    assert mpf(entry["oracle_error_estimate"]) < mpf("1e-23")
    assert len(Decimal(entry["oracle"]).as_tuple().digits) == 20


def test_verify_evaluates_each_catalog_constant_once(monkeypatch):
    # the closed forms share one table of constants per run, and each
    # record's closed form is still one eval_const call
    words, closed_forms = Counter(), []
    eval_word, eval_const = constants.eval_word, fixtures.eval_const
    monkeypatch.setattr(
        constants, "eval_word", lambda word, *a: words.update([word]) or eval_word(word, *a)
    )
    monkeypatch.setattr(
        fixtures, "eval_const", lambda expr, *a: closed_forms.append(expr) or eval_const(expr, *a)
    )
    # the oracle plays no part in the closed forms
    monkeypatch.setattr(
        fixtures, "_oracle_values", lambda records, cfg: [(mpf(0), mpf(0))] * len(records)
    )
    verify_fixtures(precision_bits=140)
    records = sorted(load_fixtures(), key=lambda r: r.id)
    expected = [rec.closed_form for rec in records if rec.closed_form is not None]
    assert closed_forms == expected
    named = {name for expr in expected for name in re.findall(r"[A-Za-z_]\w*", expr)}
    assert set(words) == {CONSTANT_WORDS[name][0] for name in named - {"pi", "log2"}}
    assert set(words.values()) == {1}


def _floor_log10(x: Fraction) -> int:
    k = 0
    while Fraction(10) ** k > x:
        k -= 1
    while Fraction(10) ** (k + 1) <= x:
        k += 1
    return k


def _exact(x: mpf) -> Fraction:
    man, exp = x.man_exp
    return abs(Fraction(man) * Fraction(2) ** exp)


def _around(x: Fraction, bits: int) -> list[mpf]:
    """The `bits`-bit mpf nearest x and its two neighbours one ulp away."""
    with workprec(bits):
        man, exp = (mpf(x.numerator) / x.denominator).man_exp
        shift = bits - man.bit_length()
        return [mpf(((man << shift) + d, exp - shift)) for d in (-1, 0, 1)]


@pytest.mark.parametrize("bits", [53, 140])
def test_supported_digits_are_exact_beside_powers_of_ten(bits):
    # the value at and one ulp beside 10^k, the estimate at and beside the
    # mpf nearest 10^-j (exactly 10^-j for j <= 0)
    for k in (-30, -7, -1, 0, 1, 5, 30):
        for value in _around(Fraction(10) ** k, bits):
            for j in (-3, 0, 1, 8, 16, 40):
                for error in _around(Fraction(10) ** -j, bits):
                    lead, last = _floor_log10(_exact(value)), _floor_log10(_exact(error))
                    last += Fraction(10) ** last != _exact(error)
                    expected = max(1, min(60, lead - last + 1))
                    assert supported_digits(value, error, 60) == expected, (value, error)
                    assert supported_digits(-value, error, 60) == expected
