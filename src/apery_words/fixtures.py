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
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

import mpmath
from mpmath import mpf, workprec

from .constants import eval_const
from .evaluate import ValueCache, eval_wordsum
from .oracle import ConfigTooSmallError, OracleConfig, direct_sums
from .pipeline import compile_harmonic, compile_spec
from .trig import predicted_weight_report
from .series import HarmonicSpec, SeriesSpec, parse_head, parse_spec

# the oracle gate is max(decimal tolerance, 1e-8), so 16 digits are all it
# uses.  The 13 samples at 1000 * 2^(i/2), i = 0..12, end at n = 64,000; on
# the bundled items the largest tail estimate is 6.1e-15, and every value is
# within 1.3e-16 of a sweep to n = 1,280,000
VERIFY_ORACLE = OracleConfig(cutoff=1_000, extrapolation_levels=6, precision_digits=16)


@dataclass
class HarmonicPart:
    coef: Fraction
    spec: HarmonicSpec


@dataclass
class FixtureRecord:
    id: str
    series: SeriesSpec | None
    harmonic: list[HarmonicPart] | None
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


def _harmonic_part(part, owner: str, j: int) -> HarmonicPart:
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
        coef = Fraction(coef) if type(coef) in (str, int) else None
    except (ValueError, ZeroDivisionError):
        coef = None
    if coef is None:
        raise ValueError(f"fixture {where}: coef must be an integer or a fraction string")
    try:
        return HarmonicPart(coef, HarmonicSpec(*weights, parity, exp, binom))
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
    series = _text(data, "series", owner)
    series = _series(series, owner) if series else None
    harmonic = None
    if data.get("harmonic"):
        if not isinstance(data["harmonic"], list):
            raise ValueError(f"fixture {owner}: harmonic must be a list of parts")
        harmonic = [_harmonic_part(part, owner, j) for j, part in enumerate(data["harmonic"])]
    if series is None and harmonic is None:
        raise ValueError(f"fixture {owner} has neither a series nor harmonic parts")
    return FixtureRecord(
        id=owner,
        series=series,
        harmonic=harmonic,
        closed_form=_text(data, "closed_form", owner),
        printed_value=_text(data, "printed_value", owner),
        anchor=data.get("anchor", ""),
    )


def load_fixtures(path: str | None = None) -> list[FixtureRecord]:
    if path is None:
        text = resources.files("apery_words").joinpath("data/fixtures.json").read_text()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("fixtures file must hold a JSON list of records")
    return [_record_from_dict(item, i) for i, item in enumerate(data)]


def _compiled_value(rec: FixtureRecord, precision_bits: int, cache: ValueCache | None):
    if rec.series is not None:
        return eval_wordsum(compile_spec(rec.series), precision_bits, cache).to_mpc()
    total = mpmath.mpc(0)
    for part in rec.harmonic:
        value = eval_wordsum(compile_harmonic(part.spec), precision_bits, cache).to_mpc()
        value *= mpf(part.coef.numerator) / part.coef.denominator
        total += value
    return total


def _oracle_values(records: list[FixtureRecord], cfg: OracleConfig) -> list[mpf]:
    """Every record's oracle value, from one batched direct summation.

    A ConfigTooSmallError is raised again with the id of the first record
    whose sum raised it.
    """
    items, owners = [], []
    for rec in records:
        parts = [rec.series] if rec.series is not None else [part.spec for part in rec.harmonic]
        items += parts
        owners += [rec.id] * len(parts)
    try:
        results = iter(direct_sums(items, cfg))
    except ConfigTooSmallError as exc:
        raise ConfigTooSmallError(f"{owners[exc.index]}: {exc}") from exc
    values = []
    for rec in records:
        if rec.series is not None:
            values.append(next(results).value)
            continue
        total = mpf(0)
        for part in rec.harmonic:
            total += next(results).value * mpf(part.coef.numerator) / part.coef.denominator
        values.append(total)
    return values


def verify_fixtures(
    path: str | None = None,
    precision_bits: int = 140,
    oracle_cfg: OracleConfig | None = None,
    cache: ValueCache | None = None,
) -> dict:
    """Check every record; returns the JSON-ready report (sorted by id)."""
    records = sorted(load_fixtures(path), key=lambda r: r.id)
    cfg = oracle_cfg or VERIFY_ORACLE
    digits = int(precision_bits * math.log10(2))
    closed_tol = mpf(10) ** (-(digits - 10))
    report_records = []
    failures = 0
    with workprec(precision_bits + 16):
        for rec, oracle in zip(records, _oracle_values(records, cfg)):
            compiled = _compiled_value(rec, precision_bits, cache)
            entry: dict = {
                "id": rec.id,
                "anchor": rec.anchor,
                "compiled": mpmath.nstr(compiled.real, digits),
                "oracle": mpmath.nstr(oracle, 16),
            }
            if rec.series is not None:
                entry["weight_report"] = predicted_weight_report(rec.series)
            checks: list[bool] = []
            base_tol = mpf(rec.abs_tolerance) if rec.abs_tolerance is not None else mpf(0)
            oracle_tol = max(base_tol, mpf(1e-8))
            dev = abs(compiled.real - oracle)
            entry["dev_compiled_oracle"] = mpmath.nstr(dev, 3)
            checks.append(dev <= oracle_tol)
            if rec.closed_form is not None:
                closed = eval_const(rec.closed_form, precision_bits, cache)
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
