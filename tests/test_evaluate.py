import math
import random
from fractions import Fraction
from itertools import product

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpc, mpf, workprec

from apery_words import evaluate
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
from apery_words.fixtures import load_fixtures
from apery_words.gauss import GaussRat
from apery_words.pipeline import compile_harmonic, compile_spec
from apery_words.words import W0, X1, XI, XM1, XMI, Atom, WordSum, word_key
from conftest import build_corpus

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


def _reference_eval_segment(sw, precision_bits, n_terms=None):
    """Reference: one piece integrated from scratch, atom by atom, as the
    segment kernel did before pieces shared the steps of their suffixes."""
    radius = sw.segment_radius
    for i, atom in enumerate(sw.atoms):
        if atom.pole == GaussRat(0):
            if i == len(sw.atoms) - 1:
                raise DivergentWordError("dt/t-type atom at the position nearest 0")
        elif atom.pole.norm2() < 1:
            raise PoleTooCloseError(f"pole {atom.pole} inside the unit disk")
    if n_terms is None:
        n_terms = int(
            math.ceil((precision_bits + 48) * math.log(2) / -math.log(float(radius)))
        )
    frac_bits = precision_bits + 24
    sign = 1
    re = [1 << frac_bits] + [0] * n_terms
    im = [0] * (n_terms + 1)
    for atom in reversed(sw.atoms):
        if atom.pole == GaussRat(0):
            sign = -sign * atom.sign
            re = [0] + [c // m for m, c in enumerate(re[1:], 1)]
            im = [0] + [c // m for m, c in enumerate(im[1:], 1)]
            continue
        sign *= atom.sign
        u, v, e = evaluate._inverse(atom.pole)
        new_re, new_im = [0], [0]
        q_re = q_im = 0
        for m in range(1, n_terms + 1):
            p_re, p_im = re[m - 1] + q_re, im[m - 1] + q_im
            q_re = (p_re * u - p_im * v) // e
            q_im = (p_re * v + p_im * u) // e
            new_re.append(q_re // m)
            new_im.append(q_im // m)
        re, im = new_re, new_im
    num, den = radius.numerator, radius.denominator
    total_re = total_im = 0
    for c_re, c_im in zip(reversed(re), reversed(im)):
        total_re = total_re * num // den + c_re
        total_im = total_im * num // den + c_im
    with workprec(frac_bits):
        value = mpc(mpf((sign * total_re, -frac_bits)), mpf((sign * total_im, -frac_bits)))
    return BigComplex.from_mpc(value, precision_bits)


def _walk_pieces(pieces, radius, bits, n_terms=None):
    root = evaluate._Node()
    for atoms in pieces:
        evaluate._add_piece(root, atoms)
    return evaluate._walk(root, radius, bits, n_terms)


def _assert_walk_matches_reference(pieces, radius, bits, n_terms=None):
    values = _walk_pieces(pieces, radius, bits, n_terms)
    assert set(values) == set(pieces)
    for atoms, value in values.items():
        ref = _reference_eval_segment(SegmentWord(atoms, radius), bits, n_terms)
        assert (value.real, value.imag) == (ref.real, ref.imag), word_key(atoms)


def _split_pieces(word_sums):
    """Every nonempty piece of Chen's rule at 1/2 over the words of the sums."""
    pieces = {}
    for ws in word_sums:
        for word in ws.terms:
            for i in range(len(word) + 1):
                upper = tuple(evaluate._flip(a) for a in reversed(word[:i]))
                for atoms in (upper, word[i:]):
                    if atoms:
                        pieces[atoms] = None
    return list(pieces)


def test_walk_bit_identical_on_corpus_and_verify_pieces():
    sums = [compile_spec(spec) for spec in build_corpus(5)]
    for rec in load_fixtures():
        if rec.series is not None:
            sums.append(compile_spec(rec.series))
        else:
            sums += [compile_harmonic(part.spec) for part in rec.harmonic]
    pieces = _split_pieces(sums)
    assert len(pieces) > 1000
    _assert_walk_matches_reference(pieces, Fraction(1, 2), 140)


_LOWER_POLES = tuple(a.pole for a in LOWER)
_UPPER_POLES = tuple(a.pole for a in UPPER)


@st.composite
def _piece_sets(draw):
    poles = draw(st.sampled_from((_LOWER_POLES, _UPPER_POLES, _LOWER_POLES + _UPPER_POLES)))
    atom = st.builds(Atom, st.sampled_from(poles), st.sampled_from((1, -1)))
    piece = st.lists(atom, min_size=1, max_size=5).map(tuple).filter(lambda p: p[-1].pole != 0)
    return draw(st.lists(piece, min_size=1, max_size=8, unique=True))


@settings(max_examples=40, deadline=None)
@given(
    pieces=_piece_sets(),
    radius=st.sampled_from((Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))),
    bits=st.sampled_from((64, 140, 330)),
    n_terms=st.one_of(st.none(), st.integers(1, 120)),
)
def test_walk_bit_identical_on_random_piece_sets(pieces, radius, bits, n_terms):
    _assert_walk_matches_reference(pieces, radius, bits, n_terms)


def test_eval_segment_is_the_walk_over_one_piece():
    assert eval_segment(SegmentWord(()), 128).to_mpc() == 1
    for atoms in ((XM1,), (W0, XMI), (XM1, XI, POLE2), (UPPER[0], UPPER[3], UPPER[2])):
        for n_terms in (None, 17):
            got = eval_segment(SegmentWord(atoms, Fraction(2, 3)), 140, n_terms)
            ref = _reference_eval_segment(SegmentWord(atoms, Fraction(2, 3)), 140, n_terms)
            assert (got.real, got.imag) == (ref.real, ref.imag)


@pytest.mark.parametrize(
    "word, error, message",
    [
        ((XM1, Atom(GaussRat(Fraction(1, 2)))), PoleTooCloseError, "pole 1/2 inside the unit disk"),
        # only an upper piece, the flip of the first atom, is too close
        ((Atom(GaussRat(Fraction(3, 2))), XI, XM1), PoleTooCloseError, "pole -1/2 inside the unit disk"),
        # of two faults in one piece, the one nearer its first atom
        ((XM1, Atom(GaussRat(Fraction(1, 2))), Atom(GaussRat(0), 1)), PoleTooCloseError,
         "pole 1/2 inside the unit disk"),
        ((XM1, Atom(GaussRat(0), 1)), DivergentWordError, "dt/t-type atom at the position nearest 0"),
        ((XI, W0), DivergentWordError, "xi.w0"),
    ],
)
def test_eval_wordsum_errors_leave_the_memo_unchanged(monkeypatch, word, error, message):
    monkeypatch.setattr(evaluate, "_segment_memo", {})
    eval_word((XI, XM1), 140)
    before = dict(evaluate._segment_memo)
    # a good word that misses the memo comes first
    ws = WordSum(terms={(XMI, XM1, XI): GaussRat(1), word: GaussRat(1)})
    with pytest.raises(error) as info:
        eval_wordsum(ws, 140)
    assert str(info.value) == message
    assert evaluate._segment_memo == before


def test_warm_eval_wordsum_never_walks(monkeypatch, tmp_path):
    ws = compile_spec(build_corpus(3)[2])
    cache = ValueCache(tmp_path / "cache.jsonl")
    monkeypatch.setattr(evaluate, "_segment_memo", {})
    cold = eval_wordsum(ws, 140, cache)

    def no_walk(*args):
        raise AssertionError("a warm cache reached the walk")

    monkeypatch.setattr(evaluate, "_walk", no_walk)
    monkeypatch.setattr(evaluate, "_segment_memo", {})
    warm = eval_wordsum(ws, 140, cache)
    assert (warm.real, warm.imag) == (cold.real, cold.imag)
    assert not evaluate._segment_memo


def test_cold_eval_wordsum_writes_the_lines_of_eval_word(monkeypatch, tmp_path):
    ws = compile_spec(build_corpus(3)[2])
    assert len(ws.terms) > 5
    monkeypatch.setattr(evaluate, "_segment_memo", {})
    eval_wordsum(ws, 140, ValueCache(tmp_path / "sum.jsonl"))
    monkeypatch.setattr(evaluate, "_segment_memo", {})
    by_word = ValueCache(tmp_path / "words.jsonl")
    for word in ws.terms:
        eval_word(word, 140, by_word)
    lines = (tmp_path / "sum.jsonl").read_bytes()
    assert lines.count(b"\n") == sum(1 for w in ws.terms if w)
    assert lines == (tmp_path / "words.jsonl").read_bytes()


def test_cold_eval_wordsum_opens_the_cache_once(monkeypatch, tmp_path):
    # every missing word is put, and the lines go through one handle that is
    # closed afterwards, also when a put fails; a warm call opens nothing
    ws = compile_spec(build_corpus(3)[2])
    opened = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(evaluate, "open", recording_open, raising=False)
    monkeypatch.setattr(evaluate, "_segment_memo", {})
    cache = ValueCache(tmp_path / "cache.jsonl")
    puts = []
    put = cache.put
    cache.put = lambda *args: puts.append(args[0]) or put(*args)
    eval_wordsum(ws, 140, cache)
    assert len(opened) == 1 and opened[0].closed
    assert puts == [word_key(w) for w in ws.terms if w]
    opened.clear()
    eval_wordsum(ws, 140, cache)
    assert not opened

    def failing_put(*args):
        raise OSError("disk full")

    failing = ValueCache(tmp_path / "failing.jsonl")
    failing.put = failing_put
    with pytest.raises(OSError):
        eval_wordsum(ws, 140, failing)
    assert len(opened) == 1 and opened[0].closed
    assert failing._fh is None
