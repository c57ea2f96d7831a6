"""Bundled reference values and the verifier that checks them three ways.

Each record carries a series (or harmonic-weighted) sum, optionally a closed
form over the constant catalog, and optionally the reference decimal it is
known to equal.  Verification evaluates the compiled path, the summation
oracle, and the closed form, and demands pairwise agreement: decimals within
10^(1-d) for d printed decimals, compiled-vs-closed within 10^-(digits-10),
anything against the oracle within max(decimal tolerance, 1e-8).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import mpmath
from mpmath import mpf, workprec

from .constants import eval_const
from .evaluate import ValueCache, eval_wordsums
from .oracle import ConfigTooSmallError, OracleConfig, direct_sums
from .pipeline import compile_harmonic, compile_spec
from .trig import predicted_weight_report
from .series import HarmonicSpec, SeriesSpec, parse_head, parse_spec

# the oracle gate is max(decimal tolerance, 1e-8), so 16 digits are all it
# uses, whatever the compiled precision
ORACLE_DIGITS = 16

# ASCII only: mpf and Fraction would also read other scripts' digits, "_"
# and blanks, and mpf "nan"
_PRINTED = re.compile(r"-?[0-9]+\.[0-9]+")
_COEF = re.compile(r"-?[0-9]+(/[0-9]+)?")


@dataclass
class FixtureRecord:
    id: str
    # the record's sum as (coefficient, spec) parts; a series is [(1, spec)]
    parts: list[tuple[Fraction, SeriesSpec | HarmonicSpec]]
    closed_form: str | None
    printed_value: str | None
    anchor: str

    @property
    def abs_tolerance(self) -> float | None:
        if self.printed_value is None:
            return None
        decimals = len(self.printed_value.partition(".")[2])
        return 10.0 ** (1 - decimals)


def _text(data: dict, field: str, owner: str, required: bool = False) -> str | None:
    value = data.get(field)
    if (required or value is not None) and not isinstance(value, str):
        raise ValueError(f"fixture {owner}: {field} must be a string")
    return value


def _harmonic_part(part, owner: str, j: int) -> tuple[Fraction, HarmonicSpec]:
    where = f"{owner}: harmonic part {j}"
    if not isinstance(part, dict) or "head" not in part:
        raise ValueError(f"fixture {where} has no head")
    parity, exp = parse_head(_text(part, "head", where, required=True))
    weights = []
    for field in ("k", "l"):
        vec = part.get(field, [])
        # type(), not isinstance(): JSON true would pass as the int 1
        if not isinstance(vec, list) or not all(type(v) is int and v > 0 for v in vec):
            raise ValueError(f"fixture {where}: {field} must be a list of positive integers")
        weights.append(tuple(vec))
    binom = part.get("binom", 1)
    if type(binom) is not int or binom not in (1, 2):
        raise ValueError(f"fixture {where}: binom must be 1 or 2")
    coef = part.get("coef", "1")
    try:
        ascii_coef = type(coef) is int or type(coef) is str and _COEF.fullmatch(coef)
        coef = Fraction(coef) if ascii_coef else None
    except ZeroDivisionError:
        coef = None
    if coef is None:
        raise ValueError(f"fixture {where}: coef must be an integer or a fraction string")
    try:
        return coef, HarmonicSpec(*weights, parity, exp, binom)
    except ValueError as exc:
        raise ValueError(f"fixture {where}: {exc}") from exc


def _series(text: str, owner: str) -> SeriesSpec:
    try:
        spec = parse_spec(text)
    except ValueError as exc:
        raise ValueError(f"fixture {owner}: {exc}") from exc
    if spec.tail_bound or spec.argument != 1:
        raise ValueError(f"fixture {owner}: a series with @tail > 0 or @x < 1 has no compiled value")
    return spec


def _record_from_dict(data: dict, index: int) -> FixtureRecord:
    if not isinstance(data, dict):
        raise ValueError(f"fixture record {index} is not an object")
    if "id" not in data:
        raise ValueError(f"fixture record {index} has no id")
    owner = _text(data, "id", f"record {index}", required=True)
    series, harmonic = _text(data, "series", owner), data.get("harmonic")
    if harmonic is not None and not isinstance(harmonic, list):
        raise ValueError(f"fixture {owner}: harmonic must be a list of parts")
    if series and harmonic:
        raise ValueError(f"fixture {owner} has both a series and harmonic parts")
    if series:
        parts = [(Fraction(1), _series(series, owner))]
    elif harmonic:
        parts = [_harmonic_part(part, owner, j) for j, part in enumerate(harmonic)]
    else:
        raise ValueError(f"fixture {owner} has neither a series nor harmonic parts")
    closed_form = _text(data, "closed_form", owner)
    printed = _text(data, "printed_value", owner)
    if printed is not None and not _PRINTED.fullmatch(printed):
        raise ValueError(f"fixture {owner}: printed_value {printed!r} is not [-]digits.digits")
    return FixtureRecord(
        id=owner,
        parts=parts,
        closed_form=closed_form,
        printed_value=printed,
        # null, as for the other optional fields, is the field left out
        anchor=_text(data, "anchor", owner) or "",
    )


def load_fixtures(path: str | None = None) -> list[FixtureRecord]:
    if path is None:
        text = resources.files("apery_words").joinpath("data/fixtures.json").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("fixtures file nests JSON too deeply to read") from None
    if not isinstance(data, list):
        raise ValueError("fixtures file must hold a JSON list of records")
    records: dict[str, FixtureRecord] = {}
    for i, item in enumerate(data):
        rec = _record_from_dict(item, i)
        if records.setdefault(rec.id, rec) is not rec:
            raise ValueError(f"fixture {rec.id}: id is used by two records")
    return list(records.values())


def _mpf(q: Fraction) -> mpf:
    return mpf(q.numerator) / q.denominator


def _compiled_values(
    records: list[FixtureRecord], precision_bits: int, cache: ValueCache | None
) -> list[mpmath.mpc]:
    """Every record's compiled value, sum coef * value over its parts, with
    the word sums of all the records' parts from one eval_wordsums call."""
    sums = [
        compile_spec(spec) if isinstance(spec, SeriesSpec) else compile_harmonic(spec)
        for rec in records
        for _, spec in rec.parts
    ]
    values = iter(eval_wordsums(sums, precision_bits, cache))
    totals = []
    for rec in records:
        total = mpmath.mpc(0)
        for coef, _ in rec.parts:
            total += next(values).to_mpc() * _mpf(coef)
        totals.append(total)
    return totals


def _log10(x: mpf) -> tuple[int, bool]:
    """(k, whether |x| = 10^k) for the k with 10^k <= |x| < 10^(k + 1), of a
    finite nonzero mpf; exact, on the integers of its mantissa and exponent."""
    if not mpmath.isfinite(x) or not x:
        raise ValueError(f"no decimal exponent for {x}")
    _, man, exp, bc = x._mpf_

    def cmp(k: int) -> int:  # the sign of |x| - 10^k
        num, den = man << max(exp, 0), 1 << max(-exp, 0)
        if k >= 0:
            den *= 10**k
        else:
            num *= 10**-k
        return (num > den) - (num < den)

    # 2^(exp + bc - 1) <= |x| < 2^(exp + bc), so the guess is off by at most one
    k = math.floor((exp + bc - 1) * math.log10(2))
    while cmp(k) < 0:
        k -= 1
    while cmp(k + 1) >= 0:
        k += 1
    return k, cmp(k) == 0


def supported_digits(value: mpf, error_estimate: mpf, digits: int) -> int:
    """The significant digits of an oracle value that its estimate supports.

    At most `digits`, and at most as many as leave the error estimate within
    one unit in the last digit printed, the rule by which the oracle settles:
    floor(log10 |value|) - ceil(log10 error_estimate) + 1.  The count is
    exact, also at a power of ten: both logarithms are found on the integers
    of the mantissas and exponents (see _log10).
    """
    if not (value and error_estimate):
        return digits
    lead, _ = _log10(value)
    last, power = _log10(error_estimate)
    last += not power  # the ceiling
    return max(1, min(digits, lead - last + 1))


def _oracle_values(records: list[FixtureRecord], cfg: OracleConfig) -> list[tuple[mpf, mpf]]:
    """Every record's oracle value and error estimate, from one batched
    direct summation; a record's estimate is sum |coef| * estimate over its
    parts.

    A ConfigTooSmallError is raised again with the id of the first record
    whose sum raised it.
    """
    owners = [rec.id for rec in records for _ in rec.parts]
    try:
        results = iter(direct_sums([spec for rec in records for _, spec in rec.parts], cfg))
    except ConfigTooSmallError as exc:
        raise ConfigTooSmallError(f"{owners[exc.index]}: {exc}") from exc
    values = []
    for rec in records:
        total = error = mpf(0)
        for coef, _ in rec.parts:
            res, c = next(results), _mpf(coef)
            total += res.value * c
            error += res.error_estimate * abs(c)
        values.append((total, error))
    return values


def verify_fixtures(
    path: str | None = None,
    precision_bits: int = 140,
    oracle_cfg: OracleConfig | None = None,
    cache: ValueCache | None = None,
) -> dict:
    """Check every record; returns the JSON-ready report (sorted by id)."""
    records = sorted(load_fixtures(path), key=lambda r: r.id)
    cfg = oracle_cfg or OracleConfig(precision_digits=ORACLE_DIGITS)
    digits = int(precision_bits * math.log10(2))
    closed_tol = mpf(10) ** (-(digits - 10))
    report_records = []
    failures = 0
    # the run's catalog-constant values, shared by its closed forms
    constants: dict[str, mpmath.mpc] = {}
    with workprec(precision_bits + 16):
        for rec, (oracle, error), compiled in zip(
            records, _oracle_values(records, cfg), _compiled_values(records, precision_bits, cache)
        ):
            entry: dict = {
                "id": rec.id,
                "anchor": rec.anchor,
                "compiled": mpmath.nstr(compiled.real, digits),
                "oracle": mpmath.nstr(oracle, supported_digits(oracle, error, cfg.precision_digits)),
                "oracle_error_estimate": mpmath.nstr(error, 3),
            }
            spec = rec.parts[0][1]
            if isinstance(spec, SeriesSpec):
                entry["weight_report"] = predicted_weight_report(spec)
            checks: list[bool] = []
            base_tol = mpf(rec.abs_tolerance) if rec.abs_tolerance is not None else mpf(0)
            oracle_tol = max(base_tol, mpf(1e-8))
            dev = abs(compiled.real - oracle)
            entry["dev_compiled_oracle"] = mpmath.nstr(dev, 3)
            checks.append(dev <= oracle_tol)
            if rec.closed_form is not None:
                closed = eval_const(rec.closed_form, precision_bits, cache, constants)
                dev = abs(compiled - closed)
                entry["closed"] = mpmath.nstr(closed.real, digits)
                entry["dev_compiled_closed"] = mpmath.nstr(dev, 3)
                checks.append(dev <= closed_tol)
            if rec.printed_value is not None:
                printed = mpf(rec.printed_value)
                dev = abs(compiled.real - printed)
                entry["printed"] = rec.printed_value
                entry["dev_compiled_printed"] = mpmath.nstr(dev, 3)
                checks.append(dev <= base_tol)
            entry["status"] = "PASS" if all(checks) else "FAIL"
            failures += entry["status"] == "FAIL"
            report_records.append(entry)
    return {
        "precision_bits": precision_bits,
        "records": report_records,
        "total": len(report_records),
        "failed": failures,
        "passed": len(report_records) - failures,
    }


def render_report_table(report: dict) -> str:
    lines = [
        f"{'id':34s} {'status':6s} {'value':24s} {'vs oracle':10s} {'vs closed':10s} {'vs printed':10s}"
    ]
    for rec in report["records"]:
        lines.append(
            f"{rec['id']:34s} {rec['status']:6s} {rec['compiled'][:23]:24s} "
            f"{rec.get('dev_compiled_oracle', '-'):10s} "
            f"{rec.get('dev_compiled_closed', '-'):10s} "
            f"{rec.get('dev_compiled_printed', '-'):10s}"
        )
    lines.append(f"passed {report['passed']}/{report['total']}")
    return "\n".join(lines)
