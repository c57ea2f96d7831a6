import json
from decimal import Decimal

import mpmath
import pytest
from mpmath import mpf, workprec

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
