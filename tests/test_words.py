import copy
import pickle
import random
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apery_words.evaluate import _conj, _flip, eval_wordsum
from apery_words.fixtures import load_fixtures
from apery_words.gauss import GaussRat
from apery_words.pipeline import compile_spec
from apery_words.series import SeriesSpec, expand_harmonic
from apery_words.trig import CompileError, TrigForm, compile_spec_to_trig
from apery_words.words import (
    W0,
    X1,
    XI,
    XM1,
    XMI,
    Atom,
    NonconvergentWordError,
    WordSum,
    atom_name,
    cov,
    deconcatenations,
    is_convergent,
    word_key,
)

from conftest import build_corpus, random_spec
from test_cli import _small_specs


def _expr(words, constant=Fraction(0), pow2=0):
    e = WordSum(pi_scale=pow2)
    for word, coef in words.items():
        e.add_term(word, Fraction(coef))
    e.scalar = Fraction(constant)
    return e


def test_cov_dt():
    ws = cov(_expr({(TrigForm.DT,): 1}))
    assert ws.terms == {(XMI,): GaussRat(0, -1), (XI,): GaussRat(0, 1)}
    value = eval_wordsum(ws, 140).to_mpc()
    assert abs(value - mpmath.pi / 2) < 1e-40


def test_cov_even_weight_one():
    # x1 cancels and leaves; the other words keep their first-seen order
    ws = cov(_expr({(TrigForm.CSC,): 1, (TrigForm.COT,): -1}))
    assert list(ws.terms.items()) == [
        ((XM1,), GaussRat(-2)),
        ((XMI,), GaussRat(1)),
        ((XI,), GaussRat(1)),
    ]
    assert abs(eval_wordsum(ws, 140).to_mpc() - mpmath.log(2)) < 1e-40


def test_cov_scalar_only():
    ws = cov(_expr({}, constant=Fraction(3, 7)))
    assert ws.terms == {} and ws.scalar == GaussRat(Fraction(3, 7))
    assert abs(eval_wordsum(ws, 140).to_mpc() - mpmath.mpf(3) / 7) < 1e-40


_RATIONALS = st.fractions(max_denominator=12).filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 2**32), _RATIONALS, _RATIONALS)
def test_cov_linearity(seed_a, seed_b, p, q):
    # cov(p A + q B) == p cov(A) + q cov(B) for corpus-style specs A and B
    a = random_spec(random.Random(seed_a))
    b = replace(random_spec(random.Random(seed_b)), binom_power=a.binom_power)
    e1, e2 = compile_spec_to_trig(a), compile_spec_to_trig(b)
    combined = e1.scaled(p)
    combined += e2.scaled(q)
    lhs = cov(combined)
    rhs = cov(e1).scaled(p)
    rhs += cov(e2).scaled(q)
    assert lhs == rhs


def test_cov_rejects_unpeeled_sin():
    with pytest.raises(CompileError):
        cov(_expr({(TrigForm.SIN, TrigForm.DT): 1}))


def test_deconcatenations():
    assert deconcatenations(()) == [((), ())]
    assert deconcatenations((XM1,)) == [((), (XM1,)), ((XM1,), ())]
    word = (W0, XM1, XI)
    splits = deconcatenations(word)
    assert len(splits) == 4
    for u, v in splits:
        assert u + v == word


def test_convergence_rule():
    assert is_convergent(())
    assert is_convergent((XM1, X1))
    assert not is_convergent((X1, XM1))
    assert not is_convergent((XM1, W0))


def test_reality_coefficient_audit(corpus_results):
    from apery_words.series import Parity
    from apery_words.trig import rewrite_to_block_shape

    for entry in corpus_results:
        spec = entry.spec
        if spec.binom_power != 1:
            continue
        items = rewrite_to_block_shape(spec)
        parities = {item.terms[0].parity for item in items.terms}
        if parities == {Parity.EVEN}:
            assert all(c.im == 0 for c in entry.words.terms.values()), spec
        if parities == {Parity.ODD_HIGH}:
            assert all(c.re == 0 for c in entry.words.terms.values()), spec


def test_word_count_bound(corpus_results):
    for entry in corpus_results:
        w = entry.spec.weight + (1 if entry.spec.binom_power == 2 else 0)
        assert len(entry.words.terms) <= 4**w, entry.spec


def test_all_corpus_words_convergent(corpus_results):
    for entry in corpus_results:
        for word in entry.words.terms:
            assert is_convergent(word)


def test_atom_names_roundtrip():
    # word keys are the value-cache keys: these names must not drift
    atoms = {
        W0: "w0",
        X1: "x1",
        XM1: "x-1",
        XI: "xi",
        XMI: "x-i",
        Atom(GaussRat(2)): "x(2)",
        Atom(GaussRat(1, -1)): "x(1-1i)",
        Atom(GaussRat(Fraction(-3, 2), Fraction(1, 4))): "x(-3/2+1/4i)",
        Atom(GaussRat(2), -1): "-x(2)",
    }
    for atom, name in atoms.items():
        assert atom_name(atom) == name


def test_nonconvergent_word_error():
    # a lone tan form would put dt/t at the 0-end after the substitution
    with pytest.raises(NonconvergentWordError):
        cov(_expr({(TrigForm.TAN,): 1}))


# the change of variables as a product of GaussRat coefficients, step by step:
# the plain reading of the substitution table, kept to check cov against
_REFERENCE_COV = {
    TrigForm.DT: ((GaussRat(0, 1), XMI), (GaussRat(0, -1), XI)),
    TrigForm.COT: ((GaussRat(1), XMI), (GaussRat(1), XI), (GaussRat(-1), XM1), (GaussRat(-1), X1)),
    TrigForm.CSC: ((GaussRat(1), XM1), (GaussRat(-1), X1)),
    TrigForm.TAN: ((GaussRat(-1), W0), (GaussRat(-1), XMI), (GaussRat(-1), XI)),
    TrigForm.SEC: ((GaussRat(-1), W0),),
    TrigForm.SECCSC: ((GaussRat(-1), W0), (GaussRat(-1), XM1), (GaussRat(-1), X1)),
}


def _reference_cov(expr):
    ws = WordSum(scalar=GaussRat(expr.scalar), scalar_pi=expr.scalar_pi, pi_scale=expr.pi_scale)
    for tword, coef in expr.terms.items():
        sign = -1 if len(tword) % 2 else 1
        stack = [(GaussRat(coef * sign), ())]
        for f in tword:
            stack = [(c * fc, w + (atom,)) for c, w in stack for fc, atom in _REFERENCE_COV[f]]
        for c, w in stack:
            ws.add_term(tuple(reversed(w)), c)
    return ws


def _verify_specs():
    specs = []
    for rec in load_fixtures():
        for _, spec in rec.parts:
            specs += [spec] if isinstance(spec, SeriesSpec) else [s for _, s in expand_harmonic(spec)]
    return specs


def test_cov_matches_reference_expansion():
    # same words, same coefficients and the same term order: word sums are
    # exact integer sums, so the order sets only the order of cache lines
    exprs = [compile_spec_to_trig(s) for s in build_corpus(100) + _small_specs() + _verify_specs()]
    # w0.x-1 and w0.x1 cancel after two trig words and come back, last, with
    # the third; no compiled spec above moves a surviving word that way
    exprs.append(_expr({(TrigForm.COT, TrigForm.TAN): 1, (TrigForm.COT, TrigForm.SEC): -1,
                        (TrigForm.CSC, TrigForm.TAN): 2}))
    for expr in exprs:
        got, want = cov(expr), _reference_cov(expr)
        assert list(got.terms.items()) == list(want.terms.items()), expr
        assert (got.scalar, got.scalar_pi, got.pi_scale) == (
            want.scalar, want.scalar_pi, want.pi_scale), expr


def test_atom_pole_is_coerced():
    # an Atom equal to a canonical one hashes and names the same
    for atom in (Atom(1), Atom(Fraction(1)), Atom(GaussRat(1))):
        assert atom == X1 and hash(atom) == hash(X1)
        assert atom_name(atom) == "x1"
        assert isinstance(atom.pole, GaussRat)
    assert Atom(0, -1) == W0 and atom_name(Atom(0, -1)) == "w0"
    assert word_key((Atom(1), Atom(-1))) == word_key((X1, XM1)) == "x1.x-1"


def test_gaussrat_hash_matches_equal_numbers():
    for value in (0, 1, -3, Fraction(5, 7), Fraction(-1, 2)):
        assert GaussRat(value) == value and hash(GaussRat(value)) == hash(value)
    assert hash(GaussRat(1, 1)) == hash(GaussRat(Fraction(2, 2), 1))
    assert {GaussRat(2): "a"}[2] == "a"


def test_each_atom_is_one_object_through_coercion_and_copies():
    assert Atom(1) is X1 and Atom(Fraction(1)) is X1 and Atom(GaussRat(1), 1) is X1
    for atom in (W0, X1, XM1, XI, XMI, Atom(GaussRat(2, 1))):
        assert _flip(_flip(atom)) is atom and _conj(_conj(atom)) is atom
        assert copy.deepcopy(atom) is atom and pickle.loads(pickle.dumps(atom)) is atom
        with pytest.raises(FrozenInstanceError):
            atom.pole = GaussRat(3)


def test_atoms_equal_by_pole_and_sign():
    # atoms built alike are one object; the sign tells atoms apart, and so
    # does the pole where two poles' hashes collide (hash(-1) is hash(-2) in
    # CPython)
    for value in (0, 2, -1, Fraction(1, 3), GaussRat(Fraction(-3, 2), Fraction(1, 4))):
        for sign in (1, -1):
            assert Atom(value, sign) == Atom(value, sign) != Atom(value, -sign)
            assert hash(Atom(value, sign)) == hash(Atom(value, sign))
    if hash(Atom(-1)) == hash(Atom(-2)):
        assert Atom(-1) != Atom(-2)
    assert _flip(X1) == W0 and _flip(W0) == X1
    for other in (1, GaussRat(1), (GaussRat(1), 1), "x1", None):
        assert (X1 == other) is False and (other == X1) is False and X1 != other


def test_gaussrat_keeps_a_given_fraction():
    half = Fraction(1, 2)
    z = GaussRat(half, half)
    assert z.re is half and z.im is half
    assert type(GaussRat(1).re) is Fraction and GaussRat(1).im == 0
    assert type(GaussRat(0, -3).im) is Fraction and GaussRat(0, -3) == GaussRat(0, Fraction(-3))


def _convergent_by_fields(word) -> bool:
    # the rule read field by field, as dataclass equality compared atoms
    def same(a, b):
        return (a.pole.re, a.pole.im, a.sign) == (b.pole.re, b.pole.im, b.sign)

    return not word or not (same(word[0], X1) or same(word[-1], W0))


def test_is_convergent_matches_field_comparison():
    # every word of the verify word sums, reversed and flipped too, so that
    # both verdicts occur
    words = {word for spec in _verify_specs() for word in compile_spec(spec).terms}
    assert len(words) > 600
    verdicts = set()
    for word in words:
        for variant in (word, word[::-1], tuple(map(_flip, word))):
            verdict = is_convergent(variant)
            assert verdict == _convergent_by_fields(variant), word_key(variant)
            verdicts.add(verdict)
    assert verdicts == {True, False}
