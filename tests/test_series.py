import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from apery_words.oracle import OracleConfig, direct_harmonic_sum, direct_sum
from apery_words.series import (
    HarmonicSpec,
    IndexTerm,
    Parity,
    Relation,
    SeriesSpec,
    SpecSyntaxError,
    SpecValidationError,
    canonical_key,
    expand_harmonic,
    parse_head,
    parse_spec,
    render,
)

FAST_CFG = OracleConfig(cutoff=5_000, extrapolation_levels=4, precision_digits=15)


def enumerate_specs(limit: int) -> list[SeriesSpec]:
    """Deterministic enumeration of small valid specs (for key-collision tests)."""
    specs: list[SeriesSpec] = []
    parities = list(Parity)
    relations = list(Relation)
    for depth in (1, 2, 3):
        for p in (1, 2):
            for terms in itertools.product(
                [(par, e) for par in parities for e in (1, 2, 3)], repeat=depth
            ):
                for rels in itertools.product(relations, repeat=depth):
                    try:
                        specs.append(
                            SeriesSpec(
                                p,
                                tuple(IndexTerm(par, e) for par, e in terms),
                                rels,
                            )
                        )
                    except SpecValidationError:
                        continue
                    if len(specs) >= limit:
                        return specs
    return specs


def test_parse_minimal():
    spec = parse_spec("S[2n^1 > 0]")
    assert spec.binom_power == 1
    assert spec.terms == (IndexTerm(Parity.EVEN, 1),)
    assert spec.relations == (Relation.STRICT,)


def test_parse_mixed():
    spec = parse_spec("S[2n+1^1 >= 2n^1 > 0]")
    assert spec.terms == (IndexTerm(Parity.ODD_HIGH, 1), IndexTerm(Parity.EVEN, 1))
    assert spec.relations == (Relation.WEAK, Relation.STRICT)


def test_parse_squared():
    spec = parse_spec("S2[2n-1^2 > 2n-1^1 > 0]")
    assert spec.binom_power == 2
    assert spec.terms == (IndexTerm(Parity.ODD_LOW, 2), IndexTerm(Parity.ODD_LOW, 1))


def test_parse_suffixes():
    spec = parse_spec("S[2n^2 > 0]@tail=3@x=0.5")
    assert spec.tail_bound == 3
    assert spec.argument == Fraction(1, 2)


def test_parse_rejects_weak_even_bottom():
    with pytest.raises(SpecValidationError):
        parse_spec("S[2n^1 >= 0]")


def test_parse_rejects_reachable_zero_denominator():
    # all-weak chain lets the even index hit n = 0
    with pytest.raises(SpecValidationError):
        parse_spec("S[2n^1 >= 2n+1^1 >= 0]")
    # a strict step below the even index makes it fine
    parse_spec("S[2n^1 > 2n+1^1 >= 0]")


def test_parse_syntax_errors_carry_position():
    with pytest.raises(SpecSyntaxError):
        parse_spec("S[2n > 0]")
    with pytest.raises(SpecSyntaxError):
        parse_spec("T[2n^1 > 0]")
    with pytest.raises(SpecSyntaxError):
        parse_spec("S[2n^1 >")
    # a bare trailing '@' and a repeated suffix key
    for text in ("S[2n^1 > 0]@", "S[2n^1 > 0]@tail=3@", "S[2n^1 > 0]@tail=3@tail=5",
                 "S[2n^1 > 0]@x=1/2@x=1/3"):
        with pytest.raises(SpecSyntaxError):
            parse_spec(text)


def test_roundtrip_enumerated():
    for spec in enumerate_specs(500):
        assert parse_spec(render(spec)) == spec


def test_roundtrip_corpus(corpus):
    for spec in corpus:
        assert parse_spec(render(spec)) == spec


@st.composite
def _specs(draw) -> SeriesSpec:
    depth = draw(st.integers(1, 4))
    terms = tuple(
        IndexTerm(draw(st.sampled_from(list(Parity))), draw(st.integers(1, 12)))
        for _ in range(depth)
    )
    rels = tuple(draw(st.sampled_from(list(Relation))) for _ in range(depth))
    tail = draw(st.integers(0, 10**6))
    x = draw(st.fractions(0, 1, max_denominator=10**6).filter(bool))
    try:
        return SeriesSpec(draw(st.sampled_from((1, 2))), terms, rels, tail, x)
    except SpecValidationError:
        assume(False)


@given(_specs())
def test_roundtrip_property(spec):
    assert parse_spec(render(spec)) == spec


def test_parse_head():
    assert parse_head("2n-1^2") == (Parity.ODD_LOW, 2)
    assert parse_head("2n+1^13") == (Parity.ODD_HIGH, 13)
    assert parse_head("2n") == (Parity.EVEN, 1)
    for bad in ("2m^2", "3n^2", "2n^", "2n^0", "2n^-1", "2n^ 2", "2n^2^3", ""):
        with pytest.raises(SpecSyntaxError):
            parse_head(bad)


def test_canonical_key_pinned_digest():
    # the on-disk caches are keyed by these digests: they must not move
    assert canonical_key(parse_spec("S[2n-1^2 > 2n^1 > 0]")) == (
        "8e4b4b72d9959a2c6331f160223deb809c21c4c507547c4e7a19e245330b4bb4"
    )
    assert canonical_key(parse_spec("S2[2n+1^1 >= 2n^2 > 0]@tail=3@x=0.50")) == (
        "3f34a17005cb6b20ad0ed277f9c2bf91a5ed1c72d270d767b42664a386dae907"
    )


def test_equal_keys_for_spellings():
    assert canonical_key(parse_spec("S[2n^1>0]")) == canonical_key(parse_spec("S[ 2n^1 > 0 ]"))
    assert canonical_key(parse_spec("S[2n^1 > 0]@x=0.50")) == canonical_key(
        parse_spec("S[2n^1 > 0]@x=1/2")
    )


def test_distinct_keys_on_enumeration():
    specs = enumerate_specs(10_000)
    keys = {canonical_key(s) for s in specs}
    assert len(keys) == len(specs)


def test_expand_harmonic_no_weights():
    h = HarmonicSpec((), (), Parity.EVEN, 2, 1)
    assert expand_harmonic(h) == [(Fraction(4), parse_spec("S[2n^2 > 0]"))]


def test_expand_harmonic_single_zeta_weight():
    h = HarmonicSpec((1,), (), Parity.EVEN, 2, 1)
    [(coef, spec)] = expand_harmonic(h)
    assert coef == 8
    assert spec == parse_spec("S[2n^2 >= 2n^1 > 0]")


@pytest.mark.parametrize(
    "h",
    [
        HarmonicSpec((1,), (), Parity.EVEN, 2, 1),
        HarmonicSpec((2,), (), Parity.EVEN, 3, 2),
        HarmonicSpec((1,), (1,), Parity.ODD_HIGH, 2, 1),
        HarmonicSpec((), (2,), Parity.ODD_LOW, 1, 2),
        HarmonicSpec((1, 1), (), Parity.ODD_LOW, 2, 2),
    ],
)
def test_expand_harmonic_matches_direct_sum(h):
    direct = direct_harmonic_sum(h, FAST_CFG).value
    expanded = sum(
        float(coef) * float(direct_sum(spec, FAST_CFG).value)
        for coef, spec in expand_harmonic(h)
    )
    assert abs(float(direct) - expanded) < 1e-8


def test_harmonic_validation():
    with pytest.raises(SpecValidationError):
        HarmonicSpec((1,), (), Parity.EVEN, 1, 1)  # head exponent too small
    with pytest.raises(SpecValidationError):
        HarmonicSpec((0,), (), Parity.EVEN, 2, 1)
    HarmonicSpec((), (), Parity.ODD_LOW, 1, 2)  # squared heads allow exponent 1


def test_spec_invariants():
    with pytest.raises(SpecValidationError):
        SeriesSpec(3, (IndexTerm(Parity.EVEN, 1),), (Relation.STRICT,))
    with pytest.raises(SpecValidationError):
        SeriesSpec(1, (), ())
    with pytest.raises(SpecValidationError):
        SeriesSpec(1, (IndexTerm(Parity.EVEN, 1),), (Relation.STRICT,), argument=Fraction(2))
