import mpmath
import pytest
from mpmath import mpf, workprec

from apery_words.constants import (
    CONSTANT_WORDS,
    ConstExprError,
    ConstZeroDivisionError,
    constant_value,
    eval_const,
)
from apery_words.evaluate import eval_word
from apery_words.oracle import OracleConfig, direct_harmonic_sum
from apery_words.series import HarmonicSpec, Parity


def test_zeta2():
    with workprec(200):
        assert abs(constant_value("zeta2", 160) - mpmath.zeta(2)) < 1e-45


def test_catalan():
    with workprec(200):
        assert abs(constant_value("G", 160) - mpmath.catalan) < 1e-45


def test_catalog_against_references():
    with workprec(200):
        refs = {
            "pi": mpmath.pi,
            "log2": mpmath.log(2),
            "zeta2": mpmath.zeta(2),
            "zeta3": mpmath.zeta(3),
            "G": mpmath.catalan,
            "beta4": mpmath.nsum(lambda k: (-1) ** k / (2 * k + 1) ** 4, [0, mpmath.inf]),
            "li2_half": mpmath.polylog(2, mpmath.mpf(1) / 2),
            "li3_half": mpmath.polylog(3, mpmath.mpf(1) / 2),
            "li4_half": mpmath.polylog(4, mpmath.mpf(1) / 2),
            "reli3": mpmath.polylog(3, mpmath.mpc(1, 1) / 2).real,
            "imli3": mpmath.polylog(3, mpmath.mpc(1, 1) / 2).imag,
            "reli4": mpmath.polylog(4, mpmath.mpc(1, 1) / 2).real,
            "imli4": mpmath.polylog(4, mpmath.mpc(1, 1) / 2).imag,
        }
        for name in CONSTANT_WORDS:
            got = constant_value(name, 160)
            assert abs(got - refs[name]) < 1e-40, name


def test_builtin_vs_word_switch():
    # pi and log 2 come from mpmath; their pinned words must give the same values
    for name in ("pi", "log2"):
        builtin = constant_value(name, 160)
        word, part, mult, _ = CONSTANT_WORDS[name]
        with workprec(176):
            value = eval_word(word, 160).to_mpc()
            value = value.real if part == "re" else value.imag
            assert abs(builtin - value * mult.numerator / mult.denominator) < 1e-45


def test_harmonic_closed_form():
    # sum a_n^2 H_n / (2n-1) equals (8 log 2 - 4)/pi
    h = HarmonicSpec((1,), (), Parity.ODD_LOW, 1, 2)
    cfg = OracleConfig(precision_digits=16)
    direct = direct_harmonic_sum(h, cfg).value
    closed = eval_const("(8*log2 - 4)/pi", 160).real
    assert abs(direct - closed) < 1e-8


def test_eval_const_arithmetic():
    v = eval_const("(3 - pi/2 - 2*log2)*2/pi", 160)
    want = (3 - mpmath.pi / 2 - 2 * mpmath.log(2)) * 2 / mpmath.pi
    assert abs(v - want) < 1e-40
    assert abs(eval_const("2**3 - 1", 128) - 7) < 1e-30


def test_eval_const_rejects_unknown_name():
    with pytest.raises(ConstExprError):
        eval_const("pi + bogus", 128)


def test_eval_const_rejects_floats_and_calls():
    with pytest.raises(ConstExprError):
        eval_const("0.5*pi", 128)
    with pytest.raises(ConstExprError):
        eval_const("__import__('os')", 128)


def test_eval_const_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        eval_const("1/(2-2)", 128)


@pytest.mark.parametrize("expr", ["pi+", "1/(2-2)", "(pi-pi)**-1"])
def test_eval_const_errors_are_typed(expr):
    with pytest.raises(ConstExprError):
        eval_const(expr, 128)


def test_eval_const_signed_exponents():
    # Python parses pi**-2 as pi ** (-(2)): one sign over the literal
    with workprec(200):
        assert abs(eval_const("pi**-2", 160) - 1 / mpmath.pi**2) < mpf(2) ** -120
    with pytest.raises(ConstZeroDivisionError):
        eval_const("(pi-pi)**-1", 128)
    with pytest.raises(ConstExprError):
        eval_const("pi**--2", 128)


@pytest.mark.parametrize("expr", ["True*pi", "pi**True"])
def test_eval_const_rejects_booleans(expr):
    with pytest.raises(ConstExprError):
        eval_const(expr, 128)
