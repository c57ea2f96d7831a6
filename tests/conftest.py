"""Shared fixtures: the random spec corpus and its evaluated results.

The corpus is evaluated once per session (oracle + compiled at 140 bits) and
reused by the equivalence, reality, audit and acceptance tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import pytest

from apery_words import evaluate
from apery_words.evaluate import BigComplex
from apery_words.oracle import OracleConfig, _scale_bits, direct_sum, direct_sums

# reference constants in the tests are compared at up to ~1e-45; keep the
# ambient mpmath precision comfortably above that
mpmath.mp.dps = 60
from apery_words.pipeline import compile_spec
from apery_words.evaluate import eval_wordsums
from apery_words.series import IndexTerm, Parity, Relation, SeriesSpec, SpecValidationError
from apery_words.words import WordSum

CORPUS_BITS = 140
ORACLE_CFG = OracleConfig(precision_digits=16)


def random_spec(rng: random.Random, max_depth: int = 3, max_weight: int = 5) -> SeriesSpec:
    while True:
        depth = rng.randint(1, max_depth)
        exponents = []
        budget = max_weight
        for j in range(depth):
            hi = max(1, min(3, budget - (depth - 1 - j)))
            e = rng.randint(1, hi)
            exponents.append(e)
            budget -= e
        terms = tuple(
            IndexTerm(rng.choice(list(Parity)), e) for e in exponents
        )
        relations = tuple(rng.choice(list(Relation)) for _ in range(depth))
        try:
            return SeriesSpec(rng.choice((1, 2)), terms, relations)
        except SpecValidationError:
            continue


def build_corpus(count: int, seed: int = 20240817) -> list[SeriesSpec]:
    rng = random.Random(seed)
    seen: set[str] = set()
    out: list[SeriesSpec] = []
    from apery_words.series import render

    while len(out) < count:
        spec = random_spec(rng)
        key = render(spec)
        if key not in seen:
            seen.add(key)
            out.append(spec)
    return out


def depth4_specs(count: int = 8) -> list[SeriesSpec]:
    """The first `count` distinct depth-4 specs that
    random_spec(random.Random(7), max_depth=4, max_weight=6) draws: a fixed
    set beyond the corpus's depth 3 and weight 5, chosen by this rule alone."""
    from apery_words.series import render

    rng = random.Random(7)
    seen: set[str] = set()
    out: list[SeriesSpec] = []
    while len(out) < count:
        spec = random_spec(rng, max_depth=4, max_weight=6)
        if len(spec.terms) == 4 and render(spec) not in seen:
            seen.add(render(spec))
            out.append(spec)
    return out


def split_value(word, c: Fraction, precision_bits: int) -> BigComplex:
    """A word's value over [0, 1] by Chen's rule split at c, not at 1/2."""
    return evaluate._to_big(evaluate._eval_words((word,), c, precision_bits, None)[0], precision_bits)


def central_ratio(n: int, x: Fraction | float = Fraction(1), digits: int = 40):
    """a_n(x) = binom(2n, n) x^(2n) / 4^n by the ratio recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x = Fraction(x)
    F = _scale_bits(digits)
    one = 1 << F
    x2 = (x.numerator * x.numerator << F) // (x.denominator * x.denominator)
    a = one
    for k in range(1, n + 1):
        a = a * (2 * k - 1) // (2 * k)
        if x2 != one:
            a = (a * x2) >> F
    with mpmath.workdps(digits + 15):
        return mpmath.mpf(a) / mpmath.mpf(one)


def gamma_tail_check(n: int, d: int, cfg: OracleConfig | None = None):
    """Tail sum over n_1 > ... > n_d > n of a_{n_1}/((2n_1-1)...(2n_d-1)).

    Compare against central_ratio(n, 1): the two agree exactly.
    """
    spec = SeriesSpec(
        1,
        tuple(IndexTerm(Parity.ODD_LOW, 1) for _ in range(d)),
        tuple(Relation.STRICT for _ in range(d)),
        tail_bound=n,
    )
    return direct_sum(spec, cfg).value


@dataclass
class CorpusEntry:
    spec: SeriesSpec
    words: WordSum
    compiled: BigComplex
    oracle_value: mpmath.mpf
    oracle_error: mpmath.mpf


@pytest.fixture(scope="session")
def corpus() -> list[SeriesSpec]:
    return build_corpus(100)


@pytest.fixture(scope="session")
def depth4() -> list[SeriesSpec]:
    return depth4_specs()


@pytest.fixture(scope="session")
def corpus_results(corpus) -> list[CorpusEntry]:
    sums = [compile_spec(spec) for spec in corpus]
    return [
        CorpusEntry(spec, words, compiled, res.value, res.error_estimate)
        for spec, words, compiled, res in zip(
            corpus, sums, eval_wordsums(sums, CORPUS_BITS), direct_sums(corpus, ORACLE_CFG)
        )
    ]


@pytest.fixture(scope="session")
def oracle_cfg() -> OracleConfig:
    return ORACLE_CFG
