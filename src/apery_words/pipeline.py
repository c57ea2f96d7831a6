"""End-to-end glue: compile a plain or harmonic-weighted spec to a word sum."""

from __future__ import annotations

from .gauss import WordSum
from .series import HarmonicSpec, SeriesSpec, canonical_key, expand_harmonic
from .trig import compile_spec_to_trig
from .words import cov

_compile_memo: dict[str, WordSum] = {}


def compile_spec(spec: SeriesSpec) -> WordSum:
    """Spec -> convergent word sum (memoized by canonical key)."""
    key = canonical_key(spec)
    hit = _compile_memo.get(key)
    if hit is None:
        hit = cov(compile_spec_to_trig(spec))
        _compile_memo[key] = hit
    return hit


def compile_harmonic(h: HarmonicSpec) -> WordSum:
    """Harmonic-weighted sum -> the rational combination of its plain parts."""
    total = WordSum(pi_scale=1 if h.binom_power == 2 else 0)
    for coef, s in expand_harmonic(h):
        total += compile_spec(s).scaled(coef)
    return total
