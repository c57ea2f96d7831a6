import random
from fractions import Fraction
from itertools import product

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apery_words.gauss import WordSum
from apery_words.oracle import OracleConfig, direct_sum
from apery_words.series import (
    IndexTerm,
    Parity,
    Relation,
    SeriesSpec,
    SpecValidationError,
    parse_spec,
)
from apery_words.trig import (
    CompileError,
    TrigForm,
    _merge_factors,
    compile_blocks,
    compile_spec_to_trig,
    convert_relations,
    eliminate_inner_oddlow,
    rewrite_to_block_shape,
)

from conftest import random_spec

FAST_CFG = OracleConfig(precision_digits=15)


def _oracle(spec, coef):
    return float(coef) * float(direct_sum(spec, FAST_CFG).value)


# --- partial fractions -------------------------------------------------------

def test_pf_11():
    # 1/(2n (2n+1)) = 1/(2n) - 1/(2n+1)
    assert _merge_factors(Parity.EVEN, 1, Parity.ODD_HIGH, 1) == [
        (Fraction(1), IndexTerm(Parity.EVEN, 1)),
        (Fraction(-1), IndexTerm(Parity.ODD_HIGH, 1)),
    ]


def test_pf_21():
    # 1/((2n+1)^2 2n) = 1/(2n) - 1/(2n+1) - 1/(2n+1)^2
    assert _merge_factors(Parity.ODD_HIGH, 2, Parity.EVEN, 1) == [
        (Fraction(1), IndexTerm(Parity.EVEN, 1)),
        (Fraction(-1), IndexTerm(Parity.ODD_HIGH, 1)),
        (Fraction(-1), IndexTerm(Parity.ODD_HIGH, 2)),
    ]


@pytest.mark.parametrize("a,b", [(1, 2), (2, 3), (3, 1)])
def test_pf_rational_evaluation(a, b):
    # 1/(x^a (x-1)^b) with x = 2n+1, so x-1 = 2n
    for n in (1, 2, 3):
        x = Fraction(2 * n + 1)
        direct = 1 / (x**a * (x - 1) ** b)
        expanded = sum(
            coef / Fraction(t.parity.index_value(n)) ** t.exponent
            for coef, t in _merge_factors(Parity.ODD_HIGH, a, Parity.EVEN, b)
        )
        assert expanded == direct


@pytest.mark.parametrize("p1,p2", list(product(Parity, Parity)), ids=lambda p: p.name)
def test_merge_factors_exact(p1, p2):
    # every ordered parity pair and exponents 1-4, in exact rationals at n = 1..6
    for e1 in range(1, 5):
        for e2 in range(1, 5):
            terms = _merge_factors(p1, e1, p2, e2)
            for n in range(1, 7):
                expanded = sum(coef / Fraction(t.parity.index_value(n)) ** t.exponent for coef, t in terms)
                assert expanded == 1 / (Fraction(p1.index_value(n)) ** e1 * p2.index_value(n) ** e2)


# --- relation conversion -----------------------------------------------------

def test_convert_block_shape_is_identity():
    spec = parse_spec("S[2n+1^1 >= 2n^1 > 0]")
    assert convert_relations(spec) == WordSum({spec: Fraction(1)}, Fraction(0))


def test_convert_strict_odd_pair():
    # the strict variant loses the diagonal slice, which splits by partial
    # fractions into single depth-1 sums
    items = convert_relations(parse_spec("S[2n+1^1 > 2n^1 > 0]"))
    total = float(items.scalar) + sum(_oracle(s, c) for s, c in items.terms.items())
    want = float(direct_sum(parse_spec("S[2n+1^1 > 2n^1 > 0]"), FAST_CFG).value)
    assert abs(total - want) < 1e-8
    assert abs(want - 0.6207872894) < 1e-9


def test_convert_oracle_equivalence_random():
    rng = random.Random(77)
    for _ in range(30):
        spec = random_spec(rng, max_depth=2, max_weight=4)
        items = convert_relations(spec)
        for s in items.terms:
            for term, rel in zip(s.terms, s.relations):
                assert (rel is Relation.WEAK) == (term.parity is Parity.ODD_HIGH)
        total = float(items.scalar) + sum(_oracle(s, c) for s, c in items.terms.items())
        want = float(direct_sum(spec, FAST_CFG).value)
        assert abs(total - want) < 1e-8


# --- inner 2n-1 elimination --------------------------------------------------

def test_eliminate_noop():
    spec = parse_spec("S[2n-1^2 > 2n^1 > 0]")
    assert eliminate_inner_oddlow(spec) == WordSum({spec: Fraction(1)}, Fraction(0))


def test_eliminate_inner_oddlow_value():
    items = rewrite_to_block_shape(parse_spec("S[2n^1 > 2n-1^1 > 0]"))
    total = float(items.scalar) + sum(_oracle(s, c) for s, c in items.terms.items())
    want = float(mpmath.pi**2 / 8 + mpmath.log(2) - 1)
    assert abs(total - want) < 1e-8
    for s in items.terms:
        assert all(t.parity is not Parity.ODD_LOW for t in s.terms[1:])


def test_eliminate_oracle_equivalence_random():
    rng = random.Random(909)
    done = 0
    while done < 30:
        spec = random_spec(rng)
        if not any(t.parity is Parity.ODD_LOW for t in spec.terms[1:]):
            continue
        done += 1
        items = rewrite_to_block_shape(spec)
        total = float(items.scalar) + sum(_oracle(s, c) for s, c in items.terms.items())
        want = float(direct_sum(spec, FAST_CFG).value)
        assert abs(total - want) < 1e-8, spec


# --- leading 2n-1 heads ------------------------------------------------------

def test_reduce_leading_gamma_drop():
    # sum_{n>m} a_n/(2n-1) = a_m: a weight-1 leading 2n-1 index drops
    assert compile_spec_to_trig(parse_spec("S[2n-1^1 > 2n^1 > 0]")) == compile_spec_to_trig(
        parse_spec("S[2n^1 > 0]")
    )


def test_reduce_depth1_gamma_is_scalar():
    assert compile_spec_to_trig(parse_spec("S[2n-1^1 > 0]")) == WordSum(scalar=Fraction(1))


def test_reduce_leading_gamma_identity():
    # a spec without a leading 2n-1 index compiles as its own single block
    spec = parse_spec("S[2n+1^2 >= 0]")
    assert compile_spec_to_trig(spec) == compile_blocks(spec, 1)


@st.composite
def _compilable_specs(draw) -> SeriesSpec:
    depth = draw(st.integers(1, 4))
    terms = tuple(
        IndexTerm(draw(st.sampled_from(list(Parity))), draw(st.integers(1, 3)))
        for _ in range(depth)
    )
    rels = tuple(draw(st.sampled_from(list(Relation))) for _ in range(depth))
    try:
        return SeriesSpec(draw(st.sampled_from((1, 2))), terms, rels)
    except SpecValidationError:
        assume(False)


@settings(max_examples=100, deadline=None)
@given(_compilable_specs())
def test_block_shape_items_compile_one_by_one(spec):
    # every item of the rewrite is already in block shape, and the compiled
    # sum is the coefficient-weighted sum of the items' blocks plus the
    # rewrite's scalar times 1, which is (2/pi)*(pi/2) in a squared sum
    p = spec.binom_power
    rewrite = rewrite_to_block_shape(spec)
    total = WordSum(scalar=Fraction(0), pi_scale=1 if p == 2 else 0)
    for item, coef in rewrite.terms.items():
        assert rewrite_to_block_shape(item) == WordSum({item: Fraction(1)}, Fraction(0))
        total += compile_blocks(item, p).scaled(coef)
    if p == 2:
        total.scalar_pi += rewrite.scalar / 2
    else:
        total.scalar += rewrite.scalar
    assert compile_spec_to_trig(spec) == total


# --- block emission ----------------------------------------------------------

@pytest.mark.parametrize("s", [1, 2, 3])
def test_compile_even_end_block(s):
    expr = compile_blocks(parse_spec(f"S[2n^{s} > 0]"), 1)
    F = (TrigForm.COT,) * (s - 1)
    assert expr.terms == {
        F + (TrigForm.CSC,): Fraction(1),
        F + (TrigForm.COT,): Fraction(-1),
    }
    assert expr.scalar == 0 and expr.pi_scale == 0


@pytest.mark.parametrize("s", [1, 2, 4])
def test_compile_odd_end_block(s):
    expr = compile_blocks(parse_spec(f"S[2n+1^{s} >= 0]"), 1)
    assert expr.terms == {(TrigForm.COT,) * (s - 1) + (TrigForm.DT,): Fraction(1)}


def test_compile_squared_odd_prefix():
    expr = compile_blocks(parse_spec("S2[2n+1^1 >= 0]"), 2)
    assert expr.terms == {(TrigForm.CSC, TrigForm.DT): Fraction(1)}
    assert expr.pi_scale == 1


def test_constant_only_from_gamma_heads(corpus):
    for spec in corpus:
        expr = compile_spec_to_trig(spec)
        block_items = rewrite_to_block_shape(spec)
        gamma_ran = block_items.scalar != 0 or any(
            item.terms[0].parity is Parity.ODD_LOW for item in block_items.terms
        )
        if not gamma_ran:
            assert expr.scalar == 0 and expr.scalar_pi == 0, spec


def test_compile_rejects_tail_and_argument():
    with pytest.raises(CompileError):
        compile_spec_to_trig(parse_spec("S[2n^1 > 0]@tail=1"))
    with pytest.raises(CompileError):
        compile_spec_to_trig(parse_spec("S[2n^1 > 0]@x=1/2"))


def test_compile_rejects_gamma_gamma_head():
    with pytest.raises(CompileError):
        compile_blocks(parse_spec("S[2n-1^2 > 2n-1^1 > 2n^1 > 0]"), 1)


def test_gamma_drop_compiled_exact():
    # compiled agreement of the weight-1 leading 2n-1 drop, within 1e-10
    from apery_words.evaluate import eval_wordsum
    from apery_words.pipeline import compile_spec

    for tail_text in ("S[2n^2 > 0]", "S[2n+1^1 >= 2n^1 > 0]", "S[2n^1 > 2n+1^1 >= 0]"):
        tail = parse_spec(tail_text)
        headed = SeriesSpec(
            1,
            (IndexTerm(Parity.ODD_LOW, 1),) + tail.terms,
            (Relation.STRICT,) + tail.relations,
        )
        a = eval_wordsum(compile_spec(headed), 140)
        b = eval_wordsum(compile_spec(tail), 140)
        assert abs(a.to_mpc() - b.to_mpc()) < 1e-10
