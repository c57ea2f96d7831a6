import hashlib
import math
import random
import time
from fractions import Fraction
import json
from itertools import product

import mpmath
import pytest
from hypothesis import example, given, settings
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
    eval_wordsums,
)
from apery_words.fixtures import load_fixtures
from apery_words.gauss import GaussRat
from apery_words.pipeline import compile_harmonic, compile_spec
from apery_words.series import SeriesSpec, parse_spec
from apery_words.words import W0, X1, XI, XM1, XMI, Atom, WordSum, deconcatenations, word_key
from conftest import build_corpus, split_value

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
            other = split_value(word, c, 160).to_mpc()
            assert abs(base - other) < mpf(2) ** (-150)


def test_split_zeta_words():
    z2 = split_value((W0, X1), Fraction(1, 3), 160).to_mpc()
    assert abs(z2 - mpmath.pi**2 / 6) < 1e-45
    z3a = eval_word((W0, W0, X1), 160).to_mpc()
    z3b = split_value((W0, W0, X1), Fraction(2, 3), 160).to_mpc()
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
    # reload from disk: the value written, bit for bit, on the line of the
    # representative w0.xi; the word's own key has none
    reloaded = ValueCache(path)
    assert len(reloaded._mem) == 1
    assert reloaded.get(word_key((W0, XI)), 140) is not None
    assert reloaded.get(word_key(word), 140) is None
    again = eval_word(word, 140, reloaded)
    assert (again.real, again.imag) == (fresh.real, fresh.imag)


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


def _reference_segment_ints(sw, precision_bits, n_terms=None):
    """Reference: one piece integrated from scratch, atom by atom, as the
    segment kernel did before pieces shared the steps of their suffixes, in
    the scaled variable s = t/r with 12 bits below 2^-F; the pair of ints
    (re, im) at 2^-F.

    Coefficient m is that of t^m times r^m, at 2^-(F + 12).  An atom
    dt/(b - t) divides by b/r, which is taken exactly from the Fractions, and
    its loop stops at n_terms, or once past the parent's length with both
    parts of the quotient floored to 0 or -1.
    """
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
    sign = 1
    re, im = [1 << (precision_bits + 24 + 12)], [0]
    for atom in reversed(sw.atoms):
        if atom.pole == GaussRat(0):
            sign = -sign * atom.sign
            re = [0] + [c // m for m, c in enumerate(re[1:], 1)]
            im = [0] + [c // m for m, c in enumerate(im[1:], 1)]
            continue
        sign *= atom.sign
        # r/b = r * conj(b) / |b|^2 = (u + v*i)/e
        pole = atom.pole
        z_re = radius * pole.re / pole.norm2()
        z_im = -radius * pole.im / pole.norm2()
        e = math.lcm(z_re.denominator, z_im.denominator)
        u, v = int(z_re * e), int(z_im * e)
        new_re, new_im = [0], [0]
        q_re = q_im = 0
        for m in range(1, n_terms + 1):
            if m > len(re) and q_re in (0, -1) and q_im in (0, -1):
                break
            p_re = (re[m - 1] if m <= len(re) else 0) + q_re
            p_im = (im[m - 1] if m <= len(im) else 0) + q_im
            q_re = (p_re * u - p_im * v) // e
            q_im = (p_re * v + p_im * u) // e
            new_re.append(q_re // m)
            new_im.append(q_im // m)
        re, im = new_re, new_im
    half = 1 << 11
    return sign * ((sum(re) + half) >> 12), sign * ((sum(im) + half) >> 12)


def _reference_eval_segment(sw, precision_bits, n_terms=None):
    """The reference pair as the segment kernel converted it, mpc at F bits."""
    total_re, total_im = _reference_segment_ints(sw, precision_bits, n_terms)
    frac_bits = precision_bits + 24
    with workprec(frac_bits):
        value = mpc(mpf((total_re, -frac_bits)), mpf((total_im, -frac_bits)))
    return BigComplex(value.real, value.imag, precision_bits)


def _walk_pieces(pieces, radius, bits, n_terms=None):
    root = evaluate._Node()
    for atoms in pieces:
        evaluate._add_piece(root, atoms)
    return evaluate._walk(root, radius, bits, n_terms)


def _assert_walk_matches_reference(pieces, radius, bits, n_terms=None):
    values = _walk_pieces(pieces, radius, bits, n_terms)
    assert set(values) == set(pieces)
    for atoms, value in values.items():
        ref = _reference_segment_ints(SegmentWord(atoms, radius), bits, n_terms)
        assert value == ref, word_key(atoms)


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


def _verify_word_sums():
    """The word sums of the bundled records: one per part, 74 in all."""
    return [
        compile_spec(spec) if isinstance(spec, SeriesSpec) else compile_harmonic(spec)
        for rec in load_fixtures()
        for _, spec in rec.parts
    ]


def _verify_words():
    """The distinct nonempty words of the bundled records' word sums."""
    return list(dict.fromkeys(word for ws in _verify_word_sums() for word in ws.terms if word))


@pytest.mark.parametrize("bits", [140, 330])
def test_word_values_are_split_sums_rounded_to_the_grid(monkeypatch, bits):
    # a representative's value is its split sum over the memo's pieces, exact
    # at 2^-2F, rounded half up to a multiple of 2^-F; its conjugate takes
    # (re, -im)
    monkeypatch.setattr(evaluate, "_segment_memo", {})
    frac_bits = bits + evaluate._GUARD_BITS
    words = _verify_words()
    values = evaluate._eval_words(words, Fraction(1, 2), bits, None)
    piece = {(): (1 << frac_bits, 0)}
    piece.update((atoms, v) for (atoms, r, b), v in evaluate._segment_memo.items() if b == bits)
    for word, value in zip(words, values):
        rep, conjugated = evaluate._representative(word)
        total_re = total_im = 0
        for i in range(len(rep) + 1):
            u_re, u_im = piece[tuple(evaluate._flip(a) for a in reversed(rep[:i]))]
            l_re, l_im = piece[rep[i:]]
            total_re += u_re * l_re - u_im * l_im
            total_im += u_re * l_im + u_im * l_re
        re, im = [(2 * total + (1 << frac_bits)) // (1 << (frac_bits + 1))
                  for total in (total_re, total_im)]
        assert value == (re, -im if conjugated else im), word_key(word)


def test_word_values_within_length_plus_one_units_of_the_grid(monkeypatch):
    # each part at 140 bits lies within k + 1 units of 2^-F of its value at
    # 204 bits (64 more), k the word's length
    monkeypatch.setattr(evaluate, "_segment_memo", {})
    words = _verify_words()
    assert len(words) == 643
    low = evaluate._eval_words(words, Fraction(1, 2), 140, None)
    high = evaluate._eval_words(words, Fraction(1, 2), 204, None)
    shift = 204 - 140
    for word, parts, h_parts in zip(words, low, high):
        for part, h_part in zip(parts, h_parts):
            # on integers at 2^-F of 204 bits, where a unit of 2^-F at 140 is 2^shift
            error = abs((part << shift) - h_part)
            assert error <= (len(word) + 1) << shift, word_key(word)


def test_walk_bit_identical_on_corpus_and_verify_pieces():
    sums = [compile_spec(spec) for spec in build_corpus(5)] + _verify_word_sums()
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


@pytest.mark.parametrize("bits", [140, 600])
def test_walk_error_within_its_stated_bound(bits):
    # _walk: a k-atom piece is within 2 sqrt(2) k (n_terms + 1 + k) units of
    # 2^-(F + 12), plus half a unit of 2^-F for the rounding, of its series
    # truncated at n_terms; the walk at 64 more bits stands in for the series
    rng = random.Random(11)
    pieces = set()
    while len(pieces) < 40:
        atoms = tuple(rng.choice(rng.choice((LOWER, UPPER))) for _ in range(rng.randint(1, 6)))
        if atoms[-1].pole:
            pieces.add(atoms)
    radius = Fraction(1, 2)
    got, fine = _walk_pieces(pieces, radius, bits), _walk_pieces(pieces, radius, bits + 64)
    n_terms = bits + 48  # the default cap at radius 1/2
    worst = 0
    for atoms in pieces:
        bound = 2 * math.sqrt(2) * len(atoms) * (n_terms + 1 + len(atoms)) / 2**12 + 0.5
        (re, im), (fine_re, fine_im) = got[atoms], fine[atoms]
        error = abs(complex((re << 64) - fine_re, (im << 64) - fine_im)) / 2**64
        assert error <= bound, word_key(atoms)
        worst = max(worst, error)
    assert worst > 0


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
        # a word evaluated through its conjugate names its own poles, in a
        # lower piece and in an upper one
        ((XM1, Atom(GaussRat(Fraction(1, 2), Fraction(-1, 2)))), PoleTooCloseError,
         "pole 1/2-1/2i inside the unit disk"),
        ((Atom(GaussRat(Fraction(3, 2), Fraction(-1, 2))), XM1, XI), PoleTooCloseError,
         "pole -1/2+1/2i inside the unit disk"),
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


@pytest.mark.parametrize("call", ["eval_word", "eval_wordsum", "eval_wordsums"])
def test_precision_under_64_bits_raises_before_any_work(monkeypatch, tmp_path, call):
    # no cache lookup, walk or write comes before the error
    path = tmp_path / "cache.jsonl"
    eval_word((W0, XM1), 140, ValueCache(path))
    text = path.read_text()
    monkeypatch.setattr(evaluate, "_segment_memo", {})
    eval_word((XI, XM1), 140)
    before = dict(evaluate._segment_memo)
    ws = compile_spec(parse_spec("S[2n^1 > 2n+1^1 > 0]"))
    run = {"eval_word": lambda cache: eval_word((W0, XI, XM1), 63, cache),
           "eval_wordsum": lambda cache: eval_wordsum(ws, 63, cache),
           "eval_wordsums": lambda cache: eval_wordsums([ws], 63, cache)}[call]
    with pytest.raises(ValueError, match="precision_bits must be >= 64"):
        run(ValueCache(path))
    assert path.read_text() == text
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
    reps = {evaluate._representative(w)[0] for w in ws.terms if w}
    assert len(reps) < sum(1 for w in ws.terms if w)
    assert lines.count(b"\n") == len(reps)
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
    # one put per representative, in the order the words first reach them
    reps = dict.fromkeys(evaluate._representative(w)[0] for w in ws.terms if w)
    assert puts == [word_key(rep) for rep in reps]
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


def _assert_same_values(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert (g.real, g.imag, g.bits_lost) == (e.real, e.imag, e.bits_lost)


@pytest.mark.parametrize("source", ["verify", "corpus"])
def test_eval_wordsums_is_eval_wordsum_per_sum(monkeypatch, tmp_path, source):
    if source == "verify":
        sums = _verify_word_sums()
    else:
        sums = [compile_spec(spec) for spec in build_corpus(20)]
    # cold: the memo empty and a fresh cache file each
    monkeypatch.setattr(evaluate, "_segment_memo", {})
    one_by_one = ValueCache(tmp_path / "each.jsonl")
    expected = [eval_wordsum(ws, 140, one_by_one) for ws in sums]
    monkeypatch.setattr(evaluate, "_segment_memo", {})
    _assert_same_values(eval_wordsums(sums, 140, ValueCache(tmp_path / "batch.jsonl")), expected)
    # the same lines in the same order
    assert (tmp_path / "batch.jsonl").read_bytes() == (tmp_path / "each.jsonl").read_bytes()
    # warm: every value from the reloaded cache, and no walk
    monkeypatch.setattr(evaluate, "_segment_memo", {})
    monkeypatch.setattr(evaluate, "_walk", None)
    _assert_same_values(eval_wordsums(sums, 140, ValueCache(tmp_path / "batch.jsonl")), expected)
    assert not evaluate._segment_memo


@pytest.mark.parametrize("bad", [(XI, W0), (XM1, Atom(GaussRat(Fraction(1, 2))))])
def test_eval_wordsums_raises_the_first_error_of_its_sums(monkeypatch, bad):
    # the faulty word sits in a later sum, and another fault in a sum after it
    good = [compile_spec(s) for s in build_corpus(3)]
    sums = good[:2] + [WordSum(terms={(XI, XM1): GaussRat(1), bad: GaussRat(1)})]
    sums += [WordSum(terms={(XM1, Atom(GaussRat(Fraction(-1, 3)))): GaussRat(1)}), good[2]]
    errors = []
    for call in (lambda: [eval_wordsum(ws, 140) for ws in sums], lambda: eval_wordsums(sums, 140)):
        monkeypatch.setattr(evaluate, "_segment_memo", {})
        with pytest.raises(ValueError) as info:
            call()
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0][0] in (DivergentWordError, PoleTooCloseError)


def _mpc_piece(atoms, radius, bits):
    """A memoized piece as the walk once converted it: mpc at F bits."""
    if not atoms:
        return mpc(1)
    re, im = evaluate._segment_memo[(atoms, radius.as_integer_ratio(), bits)]
    frac_bits = bits + evaluate._GUARD_BITS
    with workprec(frac_bits):
        return mpc(mpf((re, -frac_bits)), mpf((im, -frac_bits)))


def _reference_mpc_wordsum(ws, precision_bits):
    """Reference: the split sums and the word-sum assembly in mpc, as the
    evaluator ran them before word values stayed on integers; each product
    and sum rounds to F bits."""
    c = Fraction(1, 2)
    evaluate._eval_words(ws.terms, c, precision_bits, None)  # fills the memo
    values = {}
    for word in ws.terms:
        if not word:
            with workprec(precision_bits):
                values[word] = BigComplex(mpf(1), mpf(0), precision_bits)
            continue
        # the memo holds the pieces of representatives only
        rep, conjugated = evaluate._representative(word)
        splits = [
            (tuple([evaluate._flip(a) for a in reversed(prefix)]), suffix)
            for prefix, suffix in deconcatenations(rep)
        ]
        with workprec(precision_bits + evaluate._GUARD_BITS):
            total = mpc(0)
            for upper, lower in splits:
                total += _mpc_piece(upper, 1 - c, precision_bits) * _mpc_piece(
                    lower, c, precision_bits
                )
            total = +total
            if conjugated:
                total = total.conjugate()
            values[word] = BigComplex(total.real, total.imag, precision_bits)
    with workprec(precision_bits + evaluate._GUARD_BITS):
        total = mpc(0)
        for word, coef in ws.terms.items():
            total += coef.to_mpc() * values[word].to_mpc()
        total += ws.scalar.to_mpc()
        if ws.scalar_pi:
            total += mpf(ws.scalar_pi.numerator) / ws.scalar_pi.denominator * mpmath.pi
        if ws.pi_scale:
            total *= (2 / mpmath.pi) ** ws.pi_scale
        total = +total
        return BigComplex(total.real, total.imag, precision_bits)


def _assert_agrees_with_mpc_reference(ws, bits):
    got, ref = eval_wordsum(ws, bits), _reference_mpc_wordsum(ws, bits)
    with workprec(bits + 64):
        ref = ref.to_mpc()
        assert abs(got.to_mpc() - ref) <= mpf(2) ** -bits * max(1, abs(ref))


def test_integer_word_sums_match_mpc_reference_on_verify_sums():
    sums = _verify_word_sums()
    assert len(sums) == 74
    for ws in sums:
        _assert_agrees_with_mpc_reference(ws, 140)
    for bits in (64, 330):
        for ws in sums[::15]:
            _assert_agrees_with_mpc_reference(ws, bits)


def test_bits_lost_stay_inside_the_guard(corpus_results):
    lost = [eval_wordsum(ws, 140).bits_lost for ws in _verify_word_sums()]
    lost += [entry.compiled.bits_lost for entry in corpus_results]
    assert len(lost) == 174
    assert max(lost) < evaluate._GUARD_BITS


def test_bits_lost_is_the_l1_bound_over_the_sum():
    for ws in _verify_word_sums()[::10]:
        got = eval_wordsum(ws, 140).bits_lost
        with workprec(400):
            bound = total = 0
            for word, coef in ws.terms.items():
                c, v = coef.to_mpc(), eval_word(word, 140).to_mpc()
                bound += (abs(c.real) + abs(c.imag)) * (abs(v.real) + abs(v.imag))
                total += c * v
            expected = mpmath.log(bound / (abs(total.real) + abs(total.imag)), 2)
        assert abs(got - expected) < 1e-9
    assert eval_wordsum(WordSum(scalar_pi=Fraction(1, 2)), 140).bits_lost == 0


_CACHE_BITS = (64, 140, 330, 660)
# F = 15,000 bits: a mantissa of 4,516 decimal digits, past the 4,300 that
# Python converts between int and decimal text
_WIDE_BITS = 15_000 - evaluate._GUARD_BITS


@st.composite
def _cache_values(draw):
    """A precision and a value on its grid, integers at 2^-F: each part zero,
    or signed with |part| in (0, 2^-60), in [2^-12, 1) or in [1, 8)."""
    bits = draw(st.sampled_from(_CACHE_BITS))
    frac_bits = bits + evaluate._GUARD_BITS

    def part():
        kind = draw(st.sampled_from(("zero", "tiny", "unit", "large")))
        if kind == "zero":
            return 0
        low, high = {"tiny": (0, frac_bits - 60), "unit": (frac_bits - 12, frac_bits),
                     "large": (frac_bits, frac_bits + 3)}[kind]
        man = draw(st.integers(1 << low, (1 << high) - 1))
        return draw(st.sampled_from((1, -1))) * man

    return bits, (part(), part())


def _digest_text(key, bits, value, exp):
    """A line's digest as _digest computes it, but over any exponent: the
    digest of a line that older versions wrote off the grid."""
    re, im = value
    text = f"{bits + evaluate._GUARD_BITS} {exp} {re:x} {im:x} {key}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _line(key, bits, value):
    """The cache line that `put` writes for the value."""
    re, im = value
    return {"d": evaluate._digest(key, bits, value), "e": -bits - evaluate._GUARD_BITS,
            "im": f"{im:x}", "k": key, "p": bits, "re": f"{re:x}"}


@settings(max_examples=200, deadline=None)
@given(drawn=_cache_values())
@example(drawn=(140, (0, 0)))
@example(drawn=(140, (0, -(3 << 162))))
@example(drawn=(_WIDE_BITS, ((1 << 14_999) + 1, -(1 << 15_000) + 1)))
def test_cache_lines_read_back_exactly(tmp_path_factory, drawn):
    bits, value = drawn
    path = tmp_path_factory.mktemp("cache") / "cache.jsonl"
    ValueCache(path).put("w0.x1", bits, value)
    assert json.loads(path.read_text()) == _line("w0.x1", bits, value)
    assert ValueCache(path).get("w0.x1", bits) == value


def test_cache_skips_lines_it_does_not_write(monkeypatch, tmp_path):
    path = tmp_path / "cache.jsonl"
    value = (0x1a51a6627bafd1ab3b7c9f18a1d30d1b0f0, 0)
    good = _line("w0.x1", 140, value)
    other = _line("x-1.x1", 140, value)
    bad = [
        {k: v for k, v in other.items() if k != "d"},
        {**other, "d": "0" * 16},
        {**other, "d": good["d"]},
        # a value changed under its digest, and parts that are not hex strings
        {**other, "re": other["re"].replace("0f0", "0f1")},
        {**other, "re": "0x1g"},
        {**other, "re": "1.5"},
        {**other, "im": 0},
        # precisions and exponents that are not JSON integers
        {**other, "p": 140.0},
        {**other, "p": True},
        {**other, "p": "140"},
        {**other, "e": -164.0},
        {**other, "e": False},
        {**other, "e": "-164"},
        # the same under digests made for those fields
        {**other, "p": 140.0, "d": evaluate._digest("x-1.x1", 140.0, value)},
        {**other, "e": -164.0, "d": _digest_text("x-1.x1", 140, value, -164.0)},
        # the value at an exponent off the grid, under its digest
        {**other, "e": -165, "re": f"{2 * value[0]:x}",
         "d": _digest_text("x-1.x1", 140, (2 * value[0], 0), -165)},
        # past the digits Python reads as an int
        {**other, "e": "9" * 5000},
    ]
    # a line written under another guard width
    monkeypatch.setattr(evaluate, "_GUARD_BITS", evaluate._GUARD_BITS + 8)
    bad.append(_line("x-1.x1", 140, value))
    monkeypatch.undo()
    text = "".join(json.dumps(rec) + "\n" for rec in bad + [good])
    path.write_text(text.replace('"' + "9" * 5000 + '"', "9" * 5000))
    start = time.perf_counter()
    cache = ValueCache(path)
    assert time.perf_counter() - start < 1.0
    assert list(cache._mem) == [("w0.x1", 140)]
    assert cache.get("w0.x1", 140) == value


def test_cache_skips_deeply_nested_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    value = (0x1a51a6627bafd1ab3b7c9f18a1d30d1b0f0, 0)
    path.write_text("[" * 200_000 + "\n" + '{"k": ' * 200_000 + "\n"
                    + json.dumps(_line("w0.x1", 140, value)) + "\n")
    cache = ValueCache(path)
    assert list(cache._mem) == [("w0.x1", 140)]
    assert abs(eval_word((W0, XM1), 140, cache).to_mpc() + mpmath.pi**2 / 12) < 1e-40


def _counted_walks(monkeypatch) -> list:
    """Record the arguments of every walk from here on."""
    walk, walks = evaluate._walk, []

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(evaluate, "_walk", counted)
    return walks


# lines that the evaluator wrote while its cache held decimal strings
_PARENT_LINES = [
    ((W0, XMI), '{"im": "0.91596559417721901505460351493238411077414937428162", "k": "w0.x-i", "p": 140, '
     '"re": "-0.20561675835602830455905189583075314865236873765086"}'),
    ((XMI, XM1, XI), '{"im": "-0.033577147847015273028336577963425591055083255853866", "k": "x-i.x-1.xi", '
     '"p": 140, "re": "-0.080132960889429167583965221111821448919344805956399"}'),
    ((XM1, X1), '{"im": "0.0", "k": "x-1.x1", "p": 64, "re": "-0.582240526465012505902656319"}'),
    ((W0, W0, XM1), '{"im": "0.0", "k": "w0.w0.x-1", "p": 330, "re": "-0.9015426773696957140498036211'
     '3358749307373971925537416134420366650637865433973481763984190520700144360964937"}'),
    ((XI,), '{"im": "-0.7853981633974483096156608458198757210492923498437764552437361480769541015715522496'
     '5700870633552926699553702162832057666177346115238764555793133985203212027936257102567548463027638991115'
     '573723873259549110721", "k": "xi", "p": 660, "re": "-0.34657359027997265470861606072908828403775006718'
     '012762706034000474669681098484735780293166349820934377100074051028534286684276011787906527851633537581'
     '753798096536378541418571759515351931194583673556167505769"}'),
    ((W0, X1), '{"im": "0.0", "k": "w0.x1", "p": 140, "re": "1.6449340668482264364724151666460251892189499012066"}'),
]


def test_parent_cache_lines_are_never_served(monkeypatch, tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(line + "\n" for _, line in _PARENT_LINES))
    cache = ValueCache(path)
    assert not cache._mem
    monkeypatch.setattr(evaluate, "_segment_memo", {})
    walks = _counted_walks(monkeypatch)
    reps = []
    for word, line in _PARENT_LINES:
        rec = json.loads(line)
        bits, before = rec["p"], len(walks)
        evaluate._segment_memo.clear()
        value = eval_word(word, bits, cache).to_mpc()
        assert len(walks) > before, rec["k"]  # recomputed, not served
        with workprec(bits + 64):
            old = mpc(mpf(rec["re"]), mpf(rec["im"]))
            assert abs(value - old) <= mpf(2) ** -bits * abs(old)
        reps.append((word_key(evaluate._representative(word)[0]), bits))
    # the first write drops the skipped lines: the file holds each recomputed
    # representative once, and serves it from then on
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(rec["k"], rec["p"]) for rec in lines] == reps
    monkeypatch.setattr(evaluate, "_walk", None)
    reloaded = ValueCache(path)
    for word, line in _PARENT_LINES:
        eval_word(word, json.loads(line)["p"], reloaded)


def test_first_write_drops_the_lines_the_load_skipped(tmp_path):
    path = tmp_path / "cache.jsonl"
    value = (0x1a51a6627bafd1ab3b7c9f18a1d30d1b0f0, 0)
    served = json.dumps(_line("w0.x1", 140, value), sort_keys=True) + "\n"
    edited = {**_line("x-1.x1", 140, value), "d": "0" * 16}
    text = "".join([served, served, _PARENT_LINES[2][1] + "\n", json.dumps(edited) + "\n",
                    "[" * 200_000 + "\n"])
    path.write_text(text)
    # a run that writes nothing leaves the file alone
    got, want = eval_word((W0, X1), 140, ValueCache(path)), evaluate._to_big(value, 140)
    assert (got.real, got.imag) == (want.real, want.imag)
    assert path.read_text() == text
    # the first miss rewrites it to the served line, then appends
    eval_word((XM1, X1), 140, ValueCache(path))
    lines = path.read_text().splitlines(keepends=True)
    assert [lines[0], json.loads(lines[1])["k"]] == [served, "x-1.x1"] and len(lines) == 2
    # a cache that skipped nothing keeps its bytes and is appended to
    text = path.read_text()
    eval_word((W0, W0, X1), 140, ValueCache(path))
    assert path.read_text().startswith(text) and len(path.read_text().splitlines()) == 3
    # a last line without its newline is rewritten before a put appends
    path.write_text(served[:-1])
    ValueCache(path).put("x-1.x1", 140, value)
    assert list(ValueCache(path)._mem) == [("w0.x1", 140), ("x-1.x1", 140)]


def test_lines_off_the_grid_are_skipped_and_recomputed_once(monkeypatch, tmp_path):
    # a verify word's value at 2^-(F + 1), its parts doubled, under a valid
    # digest: the same value off the grid, as older versions could write it
    word = (XI, XM1, XMI)
    assert word in _verify_words() and evaluate._representative(word) == (word, False)
    key, bits, frac_bits = word_key(word), 140, 140 + evaluate._GUARD_BITS
    value = evaluate._eval_words([word], Fraction(1, 2), bits, None)[0]
    doubled = tuple(2 * part for part in value)
    off = {**_line(key, bits, doubled), "e": -frac_bits - 1,
           "d": _digest_text(key, bits, doubled, -frac_bits - 1)}
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps(off, sort_keys=True) + "\n")
    cache = ValueCache(path)
    assert not cache._mem
    monkeypatch.setattr(evaluate, "_segment_memo", {})
    walks = _counted_walks(monkeypatch)
    got, want = eval_word(word, bits, cache), evaluate._to_big(value, bits)
    assert (got.real, got.imag) == (want.real, want.imag)
    assert len(walks) == 1
    # the first write dropped the line: the file holds the grid line alone,
    # which the next run serves without a walk
    assert [json.loads(line) for line in path.read_text().splitlines()] == [_line(key, bits, value)]
    evaluate._segment_memo.clear()
    got = eval_word(word, bits, ValueCache(path))
    assert (got.real, got.imag) == (want.real, want.imag)
    assert len(walks) == 1


# lines of the verify cache at 149 bits that a version rounding each word's
# split sum to F significant bits wrote: only the first lies on the grid
_SIGNIFICANT_BIT_LINES = [
    ((W0, XM1), '{"d": "168f8e36c175f9f3", "e": -173, "im": "0", "k": "w0.x-1", "p": 149, '
     '"re": "-1a51a6625307d3230e7b1224401759cbd6b911b55023"}'),
    ((W0, X1), '{"d": "ca8ee5f43405f7d8", "e": -172, "im": "0", "k": "w0.x1", "p": 149, '
     '"re": "1a51a6625307d3230e7b1224401759cbd6b911b55023"}'),
    ((XM1, XM1), '{"d": "ab31c0518374c1ee", "e": -175, "im": "0", "k": "x-1.x-1", "p": 149, '
     '"re": "1ebfbdff82c58ea86f16b06ec9735fcaa3a2751c30d1"}'),
]


def test_only_grid_lines_of_older_versions_are_served(monkeypatch, tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(line + "\n" for _, line in _SIGNIFICANT_BIT_LINES))
    cache = ValueCache(path)
    assert list(cache._mem) == [("w0.x-1", 149)]
    monkeypatch.setattr(evaluate, "_segment_memo", {})
    walks = _counted_walks(monkeypatch)
    for (word, _), walked in zip(_SIGNIFICANT_BIT_LINES, (False, True, True)):
        before = len(walks)
        served = eval_word(word, 149, cache)
        assert (len(walks) > before) == walked, word_key(word)
        fresh = eval_word(word, 149)
        assert (served.real, served.imag) == (fresh.real, fresh.imag), word_key(word)
    # the grid line stays first, and each key is held once, at -F
    lines = path.read_text().splitlines()
    assert lines[0] == _SIGNIFICANT_BIT_LINES[0][1]
    recs = [json.loads(line) for line in lines]
    assert [rec["k"] for rec in recs] == ["w0.x-1", "w0.x1", "x-1.x-1"]
    assert all(rec["e"] == -149 - evaluate._GUARD_BITS for rec in recs)


def test_cache_never_serves_lines_of_non_representatives(monkeypatch, tmp_path):
    # lines for x-i.x-1.xi and w0.x-i with valid digests, as if a version that
    # cached every word had written them, the second with a wrong value: each
    # word takes the conjugate of its representative, which is walked and put
    path = tmp_path / "cache.jsonl"
    written = ValueCache(path)
    written.put("x-i.x-1.xi", 140, evaluate._eval_words([(XMI, XM1, XI)], Fraction(1, 2), 140, None)[0])
    written.put("w0.x-i", 140, (2, 1))
    cache = ValueCache(path)
    assert cache.get("w0.x-i", 140) == (2, 1)
    monkeypatch.setattr(evaluate, "_segment_memo", {})
    for word in ((XMI, XM1, XI), (W0, XMI)):
        served = eval_word(word, 140, cache)
        fresh = eval_word(word, 140)
        assert (served.real, served.imag) == (fresh.real, fresh.imag)
    assert abs(served.to_mpc() - (-mpmath.pi**2 / 48 + 1j * mpmath.catalan)) < 1e-40
    assert evaluate._segment_memo
    keys = [json.loads(line)["k"] for line in path.read_text().splitlines()]
    assert keys == ["x-i.x-1.xi", "w0.x-i", "xi.x-1.x-i", "w0.xi"]


def test_conjugate_words_are_exact_conjugates(monkeypatch):
    monkeypatch.setattr(evaluate, "_segment_memo", {})
    far = Atom(GaussRat(2, 1))
    words = [(W0, XMI), (XMI, XM1, XI), (XM1, W0, XI, XMI), (W0, XI, X1, XMI, XM1), (XM1, far, XMI)]
    for word in words:
        # the conjugate built from its poles, which gives back the shared atoms
        conj = tuple(Atom(GaussRat(a.pole.re, -a.pole.im), a.sign) for a in word)
        for bits in (64, 140, 330):
            v, w = eval_word(word, bits), eval_word(conj, bits)
            with workprec(bits + 64):  # so that negating rounds nothing
                assert (w.real, w.imag) == (v.real, -v.imag), word_key(word)
    # a representative is made of the atoms of words
    rep, conjugated = evaluate._representative((W0, XMI, XM1, XI))
    assert conjugated and [a is b for a, b in zip(rep, (W0, XI, XM1, XMI))] == [True] * 4
    assert evaluate._representative((XM1, XI, XMI)) == ((XM1, XI, XMI), False)


@pytest.mark.parametrize("bits", [64, 140, 330])
def test_eval_wordsum_from_a_reloaded_cache_is_bit_identical(bits, tmp_path):
    path = tmp_path / "cache.jsonl"
    for ws in [compile_spec(build_corpus(3)[2])] + _verify_word_sums()[::20]:
        cold = eval_wordsum(ws, bits, ValueCache(path))
        warm = eval_wordsum(ws, bits, ValueCache(path))
        assert (warm.real, warm.imag, warm.bits_lost) == (cold.real, cold.imag, cold.bits_lost)
