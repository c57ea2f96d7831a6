"""End-to-end glue: compile a spec to a word sum and evaluate either way."""

from __future__ import annotations

from fractions import Fraction

from .evaluate import BigComplex, ValueCache, eval_wordsum
from .oracle import OracleConfig, OracleResult, direct_sum
from .series import HarmonicSpec, SeriesSpec, canonical_key, expand_harmonic
from .trig import TrigExpr, TrigForm, compile_spec_to_trig
from .words import WordSum, cov

_compile_memo: dict[str, WordSum] = {}


def compile_spec(spec: SeriesSpec) -> WordSum:
    """Spec -> convergent word sum (memoized by canonical key)."""
    key = canonical_key(spec)
    hit = _compile_memo.get(key)
    if hit is None:
        hit = cov(compile_spec_to_trig(spec))
        _compile_memo[key] = hit
    return hit


def evaluate_compiled(
    spec: SeriesSpec, precision_bits: int = 160, cache: ValueCache | None = None
) -> BigComplex:
    return eval_wordsum(compile_spec(spec), precision_bits, cache)


def evaluate_direct(spec: SeriesSpec, cfg: OracleConfig | None = None) -> OracleResult:
    return direct_sum(spec, cfg)


def combine_wordsums(parts: list[tuple[Fraction, WordSum]]) -> WordSum:
    """Rational combination of word sums sharing one 2/pi scale."""
    if not parts:
        return WordSum()
    total = WordSum(pi_scale=parts[0][1].pi_scale)
    for coef, ws in parts:
        if ws.pi_scale != total.pi_scale:
            raise ValueError("cannot combine word sums with different 2/pi scales")
        scaled = ws.scaled(coef)
        for w, c in scaled.terms.items():
            total.add_term(w, c)
        total.scalar = total.scalar + scaled.scalar
        total.scalar_pi += scaled.scalar_pi
    return total


def compile_harmonic(h: HarmonicSpec) -> WordSum:
    return combine_wordsums([(coef, compile_spec(s)) for coef, s in expand_harmonic(h)])


def trig_to_json_dict(expr: TrigExpr) -> dict:
    words = sorted(expr.terms.items(), key=lambda kv: (len(kv[0]), [f.value for f in kv[0]]))
    return {
        "two_over_pi_power": expr.two_over_pi_power,
        "constant": str(expr.constant),
        "constant_pi": str(expr.constant_pi),
        "terms": [
            {"word": [f.value for f in w], "coef": str(c)} for w, c in words
        ],
    }


def trig_from_json_dict(data: dict) -> TrigExpr:
    expr = TrigExpr(two_over_pi_power=int(data["two_over_pi_power"]))
    expr.constant = Fraction(data["constant"])
    expr.constant_pi = Fraction(data["constant_pi"])
    by_value = {f.value: f for f in TrigForm}
    for item in data["terms"]:
        expr.add_term(tuple(by_value[v] for v in item["word"]), Fraction(item["coef"]))
    return expr
