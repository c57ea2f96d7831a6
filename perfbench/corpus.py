"""The benchmark's own copy of the tier-1 random spec generator.

It must yield, for the same seed, exactly the specs of
`tests/conftest.py::build_corpus` in the same order; `run.py --selftest`
checks that.  It is a copy rather than an import so that the benchmark does
not depend on the test suite.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator

from apery_words.series import (
    IndexTerm,
    Parity,
    Relation,
    SeriesSpec,
    SpecValidationError,
    render,
)

# the tier-1 corpus seed; depth <= 3, weight <= 5, mixed parity and relations
CORPUS_SEED = 20240817


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
        terms = tuple(IndexTerm(rng.choice(list(Parity)), e) for e in exponents)
        relations = tuple(rng.choice(list(Relation)) for _ in range(depth))
        try:
            return SeriesSpec(rng.choice((1, 2)), terms, relations)
        except SpecValidationError:
            continue


def iter_corpus(seed: int = CORPUS_SEED) -> Iterator[SeriesSpec]:
    """The generator's distinct specs for `seed`, in order."""
    rng = random.Random(seed)
    seen: set[str] = set()
    while True:
        spec = random_spec(rng)
        key = render(spec)
        if key not in seen:
            seen.add(key)
            yield spec


def build_corpus(count: int, seed: int = CORPUS_SEED) -> list[SeriesSpec]:
    return list(itertools.islice(iter_corpus(seed), count))


def first_depth3_weight5(seed: int = CORPUS_SEED) -> SeriesSpec:
    return next(s for s in iter_corpus(seed) if s.depth == 3 and s.weight == 5)
