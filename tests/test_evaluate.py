import math
import random
from fractions import Fraction
from itertools import product

import mpmath
import pytest
from mpmath import mpf, workprec

from apery_words.evaluate import (
    BigComplex,
    DivergentWordError,
    PoleTooCloseError,
    SegmentWord,
    ValueCache,
    eval_segment,
    eval_word,
    eval_wordsum,
    split_consistency,
)
from apery_words.gauss import GaussRat
from apery_words.words import W0, X1, XI, XM1, XMI, Atom, WordSum, word_key

POLE2 = Atom(GaussRat(2))
# the atoms of the lower pieces of a word split at c, and their t -> 1-t images
LOWER = (W0, X1, XM1, XI, XMI)
UPPER = tuple(Atom(GaussRat(1) - a.pole, -a.sign) for a in LOWER)


def test_segment_xm1():
    value = eval_segment(SegmentWord((XM1,)), 128).to_mpc()
    assert abs(value - (-mpmath.log(mpf(3) / 2))) < 1e-36


def test_segment_pole_two():
    value = eval_segment(SegmentWord((POLE2,)), 128).to_mpc()
    assert abs(value - mpmath.log(mpf(4) / 3)) < 1e-36


@pytest.mark.parametrize("bits", [140, 660])
def test_segment_polylog_half(bits):
    # over [0, 1/2], w0^(k-1) x1 is Li_k(1/2)
    for k in range(2, 6):
        value = eval_segment(SegmentWord((W0,) * (k - 1) + (X1,)), bits)
        with workprec(bits + 32):
            assert abs(value.to_mpc() - mpmath.polylog(k, mpf(1) / 2)) < mpf(2) ** (-bits)


def test_segment_single_atom_logs():
    # every nonzero pole of either alphabet (pole 0 alone diverges):
    # sign * dt/(b - t) over [0, c] is -sign * log(1 - c/b)
    poles = {a.pole for a in LOWER + UPPER if a.pole}
    bits = 140
    for pole, sign, c in product(poles, (1, -1), (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))):
        value = eval_segment(SegmentWord((Atom(pole, sign),), c), bits)
        with workprec(bits + 32):
            expected = -sign * mpmath.log(1 - (mpf(c.numerator) / c.denominator) / pole.to_mpc())
            assert abs(value.to_mpc() - expected) < mpf(2) ** (-bits)


def test_segment_precision_agreement():
    # rounding plus truncation: 64 more bits move no length <= 3 word over
    # either alphabet by more than 2^-bits
    bits = 140
    for alphabet in (LOWER, UPPER):
        for k in (1, 2, 3):
            for atoms in product(alphabet, repeat=k):
                if atoms[-1].pole == GaussRat(0):
                    continue
                lo = eval_segment(SegmentWord(atoms), bits)
                hi = eval_segment(SegmentWord(atoms), bits + 64)
                with workprec(bits + 96):
                    assert abs(lo.to_mpc() - hi.to_mpc()) < mpf(2) ** (-bits)


def _mpc_segment(atoms, radius, bits):
    """Reference: the power-series recurrence run on mpmath complex numbers."""
    n_terms = math.ceil((bits + 48) * math.log(2) / -math.log(float(radius)))
    with workprec(bits + 64):
        coeffs = [mpmath.mpc(1)] + [mpmath.mpc(0)] * n_terms
        for atom in reversed(atoms):
            new = [mpmath.mpc(0)] * (n_terms + 1)
            if atom.pole == GaussRat(0):
                for m in range(1, n_terms + 1):
                    new[m] = -atom.sign * coeffs[m] / m
            else:
                inv_b, q = 1 / atom.pole.to_mpc(), mpmath.mpc(0)
                for m in range(1, n_terms + 1):
                    q = (coeffs[m - 1] + q) * inv_b
                    new[m] = atom.sign * q / m
            coeffs = new
        return mpmath.polyval(coeffs[::-1], mpf(radius.numerator) / radius.denominator)


def test_segment_matches_mpc_reference():
    rng = random.Random(7)
    bits = 140
    for _ in range(40):
        alphabet = rng.choice((LOWER, UPPER))
        atoms = tuple(rng.choice(alphabet) for _ in range(rng.randint(4, 6)))
        if atoms[-1].pole == GaussRat(0):
            continue
        radius = rng.choice((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)))
        value = eval_segment(SegmentWord(atoms, radius), bits)
        with workprec(bits + 64):
            assert abs(value.to_mpc() - _mpc_segment(atoms, radius, bits)) < mpf(2) ** (-bits)


def test_segment_guards():
    with pytest.raises(DivergentWordError):
        eval_segment(SegmentWord((XM1, W0)), 128)
    with pytest.raises(PoleTooCloseError):
        eval_segment(SegmentWord((Atom(GaussRat(Fraction(1, 2))),)), 128)


def test_eval_word_log2():
    value = eval_word((XM1,), 160).to_mpc()
    assert abs(value - (-mpmath.log(2))) < 1e-45


def test_eval_word_dilog_minus_one():
    value = eval_word((W0, XM1), 160).to_mpc()
    assert abs(value - (-mpmath.pi**2 / 12)) < 1e-45


def test_eval_word_dilog_i():
    # independent series oracle: Li_2(i) = sum i^n / n^2
    partial = complex(0)
    for n in range(1, 1_000_001):
        partial += (1j) ** (n % 4) / n**2
    value = eval_word((W0, XMI), 160).to_mpc()
    assert abs(complex(value) - partial) < 1e-9
    assert abs(value - (-mpmath.pi**2 / 48 + 1j * mpmath.catalan)) < 1e-45


def test_eval_word_pi_over_two_combination():
    with workprec(170):
        value = 1j * (eval_word((XMI,), 160).to_mpc() - eval_word((XI,), 160).to_mpc())
        assert abs(-value - mpmath.pi / 2) < 1e-45


def test_divergent_word_rejected():
    with pytest.raises(DivergentWordError):
        eval_word((X1, XM1), 128)
    with pytest.raises(DivergentWordError):
        eval_word((XM1, W0), 128)


def test_eval_wordsum_scalar_pi():
    ws = WordSum(scalar_pi=Fraction(1, 2))
    assert abs(eval_wordsum(ws, 140).to_mpc() - mpmath.pi / 2) < 1e-40


def test_split_consistency_points():
    words = [(XM1, X1), (W0, XMI), (XMI, XM1, XI)]
    for word in words:
        base = eval_word(word, 160).to_mpc()
        for c in (Fraction(1, 3), Fraction(2, 3)):
            other = split_consistency(word, c, 160).to_mpc()
            assert abs(base - other) < mpf(2) ** (-150)


def test_split_zeta_words():
    z2 = split_consistency((W0, X1), Fraction(1, 3), 160).to_mpc()
    assert abs(z2 - mpmath.pi**2 / 6) < 1e-45
    z3a = eval_word((W0, W0, X1), 160).to_mpc()
    z3b = split_consistency((W0, W0, X1), Fraction(2, 3), 160).to_mpc()
    assert abs(z3a - mpmath.zeta(3)) < 1e-45
    assert abs(z3b - mpmath.zeta(3)) < 1e-40


def test_depth3_word_against_quadrature():
    word = (XM1, POLE2, XMI)
    value = eval_word(word, 160).to_mpc()
    with workprec(100):
        # the innermost integral in closed form:
        # int_0^t dt3 / (-i - t3) = -log(1 - i t)
        def f2(t2):
            return -mpmath.log(1 - mpmath.mpc(0, 1) * t2) / (2 - t2)

        def f1(t1):
            return mpmath.quad(f2, [0, t1]) / (-1 - t1)

        quad = mpmath.quad(f1, [0, 1])
    assert abs(value - quad) < 1e-20


def test_truncation_robustness():
    word = (XM1, XI, POLE2)
    base_terms = 128 + 48
    a = eval_segment(SegmentWord(word), 128, n_terms=base_terms).to_mpc()
    b = eval_segment(SegmentWord(word), 128, n_terms=2 * base_terms).to_mpc()
    assert abs(a - b) < mpf(2) ** (-base_terms // 2)


def test_precision_scaling(corpus_results):
    words = sorted(
        {w for entry in corpus_results[:20] for w in entry.words.terms},
        key=word_key,
    )[:10]
    for word in words:
        lo = eval_word(word, 128).to_mpc()
        hi = eval_word(word, 256).to_mpc()
        scale = max(abs(hi), mpf(1))
        assert abs(lo - hi) / scale < mpf(2) ** (-120)


def test_conjugation_symmetry(corpus_results):
    seen = []
    for entry in corpus_results:
        for word in entry.words.terms:
            if word not in seen:
                seen.append(word)
            if len(seen) >= 50:
                break
        if len(seen) >= 50:
            break
    for word in seen:
        conj = tuple(Atom(GaussRat(a.pole.re, -a.pole.im), a.sign) for a in word)
        v = eval_word(word, 120).to_mpc()
        w = eval_word(conj, 120).to_mpc()
        assert abs(v.conjugate() - w) < mpf(2) ** (-100)


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = ValueCache(path)
    word = (W0, XMI)
    fresh = eval_word(word, 140, cache)
    hit = eval_word(word, 140, cache)
    assert abs(hit.to_mpc() - fresh.to_mpc()) == 0
    # reload from disk: agreement within 2^(-bits+8)
    reloaded = ValueCache(path)
    stored = reloaded.get(word_key(word), 140)
    assert stored is not None
    assert abs(stored.to_mpc() - fresh.to_mpc()) < mpf(2) ** (-140 + 8)


def test_cache_ignores_corruption(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('garbage\n{"k": "w0.x1", "p": "bad"}\n')
    cache = ValueCache(path)
    assert cache.get("w0.x1", 140) is None
    value = eval_word((W0, X1), 140, cache)
    assert abs(value.to_mpc() - mpmath.pi**2 / 6) < 1e-40


def test_to_mpc_keeps_precision_outside_workprec():
    value = eval_word((W0, X1), 660)
    with workprec(53):  # mpmath's default; conftest.py raises the ambient precision
        loose = value.to_mpc()
    with workprec(660):
        assert abs(loose - value.to_mpc()) < mpf(2) ** -600


def test_bigcomplex_invariants():
    with pytest.raises(ValueError):
        BigComplex(mpf(1), mpf(0), 32)
    with pytest.raises(ValueError):
        BigComplex(mpf("inf"), mpf(0), 128)
