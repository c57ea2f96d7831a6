"""Acceptance criteria, one test per criterion, each printing a PASS line.

Compiled values run at 140 bits (> 40 decimal digits); the oracle runs its
default schedule at 16 digits (cutoff 125, 7 levels, 15 samples).
"""

import time
from pathlib import Path

import mpmath
from mpmath import mpf, workprec

from apery_words.constants import eval_const
from apery_words.evaluate import eval_wordsum
from apery_words.oracle import OracleConfig, direct_harmonic_sum, direct_sum
from apery_words.pipeline import compile_harmonic, compile_spec
from apery_words.series import HarmonicSpec, Parity, parse_spec
from apery_words.words import is_convergent

from conftest import CORPUS_BITS, ORACLE_CFG, central_ratio, gamma_tail_check

BITS = 140
TAIL_CFG = OracleConfig(precision_digits=15)


def _compiled(text: str):
    return eval_wordsum(compile_spec(parse_spec(text)), BITS).to_mpc()


def _report(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_depth1_exact_values():
    cases = [
        ("S[2n^1 > 0]", "log2"),
        ("S[2n+1^1 >= 0]", "pi/2"),
        ("S[2n+1^2 >= 0]", "pi*log2/2"),
    ]
    worst_c, worst_o, slowest = mpf(0), mpf(0), 0.0
    with workprec(BITS + 16):
        for text, closed in cases:
            t0 = time.monotonic()
            compiled = _compiled(text)
            closed_value = eval_const(closed, BITS)
            oracle = direct_sum(parse_spec(text), ORACLE_CFG).value
            elapsed = time.monotonic() - t0
            worst_c = max(worst_c, abs(compiled - closed_value))
            worst_o = max(worst_o, abs(compiled.real - oracle))
            slowest = max(slowest, elapsed)
            assert elapsed < 5.0, f"{text} took {elapsed:.1f}s"
    ok = worst_c < mpf(10) ** -30 and worst_o < 1e-8
    _report(
        "1 depth-1 exact values",
        ok,
        f"max |compiled-closed|={mpmath.nstr(worst_c, 3)}, "
        f"max |compiled-oracle|={mpmath.nstr(worst_o, 3)}, slowest {slowest:.1f}s < 5s",
    )


def test_criterion_2_depth2_mixed_parity():
    cases = [
        ("S[2n+1^1 >= 2n^1 > 0]", "2*G - pi*log2/2", "0.7431381432"),
        ("S[2n^1 > 2n+1^1 >= 0]", "pi**2/8", "1.2337005"),
        ("S[2n-1^2 > 2n^1 > 0]", "2*G - pi*log2/2 - log2", "0.04999096264"),
    ]
    t0 = time.monotonic()
    worst_c, worst_o = mpf(0), mpf(0)
    with workprec(BITS + 16):
        for text, closed, printed in cases:
            compiled = _compiled(text)
            worst_c = max(worst_c, abs(compiled - eval_const(closed, BITS)))
            worst_o = max(
                worst_o, abs(compiled.real - direct_sum(parse_spec(text), ORACLE_CFG).value)
            )
            decimals = len(printed.partition(".")[2])
            assert abs(compiled.real - mpf(printed)) < mpf(10) ** (1 - decimals)
    elapsed = time.monotonic() - t0
    ok = worst_c < mpf(10) ** -30 and worst_o < 1e-8 and elapsed < 30
    _report(
        "2 depth-2 mixed parity",
        ok,
        f"max |compiled-closed|={mpmath.nstr(worst_c, 3)}, "
        f"max |compiled-oracle|={mpmath.nstr(worst_o, 3)}, {elapsed:.1f}s < 30s",
    )


def test_criterion_3_squared_binomial():
    cases = [
        ("S2[2n^1 > 0]", "2*(pi*log2 - 2*G)/pi", "0.2200507"),
        ("S2[2n+1^1 >= 0]", "4*G/pi", "1.1662436"),
        ("S2[2n-1^1 > 0]", "2*(pi/2 - 1)/pi", "0.36338"),
        ("S2[2n-1^2 > 2n-1^1 > 0]", "2*(3 - pi/2 - 2*log2)/pi", "0.0273169"),
        ("S2[2n-1^1 > 2n-1^1 > 2n+1^1 >= 0]", "2*(2*log2 - pi**2/12 - log2**2/2)/pi", "0.20601068"),
    ]
    t0 = time.monotonic()
    worst_c = mpf(0)
    with workprec(BITS + 16):
        for text, closed, printed in cases:
            compiled = _compiled(text)
            worst_c = max(worst_c, abs(compiled - eval_const(closed, BITS)))
            decimals = len(printed.partition(".")[2])
            assert abs(compiled.real - mpf(printed)) < mpf(10) ** (1 - decimals)
            assert abs(compiled.real - mpf(printed)) < 1e-4
    elapsed = time.monotonic() - t0
    ok = worst_c < mpf(10) ** -30 and elapsed < 60
    _report(
        "3 squared-binomial values",
        ok,
        f"max |compiled-closed|={mpmath.nstr(worst_c, 3)}, {elapsed:.1f}s < 60s",
    )


def test_criterion_4_harmonic_identities():
    half = mpf(1) / 2
    cases = [
        ([(1, HarmonicSpec((1,), (), Parity.ODD_LOW, 1, 2))], "(8*log2 - 4)/pi"),
        ([(1, HarmonicSpec((1,), (), Parity.ODD_LOW, 2, 2))], "(12 - 16*log2)/pi"),
        (
            [
                (half, HarmonicSpec((1,), (), Parity.ODD_LOW, 2, 2)),
                (1, HarmonicSpec((), (1,), Parity.ODD_LOW, 2, 2)),
            ],
            "(4*G - 12*log2 + 6)/pi",
        ),
    ]
    worst_c, worst_o = mpf(0), mpf(0)
    with workprec(BITS + 16):
        for parts, closed in cases:
            compiled = sum(
                coef * eval_wordsum(compile_harmonic(h), BITS).to_mpc() for coef, h in parts
            )
            oracle = sum(coef * direct_harmonic_sum(h, ORACLE_CFG).value for coef, h in parts)
            worst_c = max(worst_c, abs(compiled - eval_const(closed, BITS)))
            worst_o = max(worst_o, abs(compiled.real - oracle))
    ok = worst_c < mpf(10) ** -25 and worst_o < 1e-8
    _report(
        "4 harmonic-weight identities",
        ok,
        f"max |compiled-closed|={mpmath.nstr(worst_c, 3)}, "
        f"max |compiled-oracle|={mpmath.nstr(worst_o, 3)}",
    )


def test_criterion_5a_corpus_equivalence(corpus_results):
    worst = mpf(0)
    for entry in corpus_results:
        worst = max(worst, abs(entry.compiled.real - entry.oracle_value))
    ok = worst < 1e-8 and len(corpus_results) == 100
    _report(
        "5a oracle-vs-compiled corpus",
        ok,
        f"100 specs (depth<=3, weight<=5, both powers), max dev {mpmath.nstr(worst, 3)}",
    )


def test_criterion_5b_gamma_tails():
    worst = mpf(0)
    for d in range(1, 5):
        for n in range(0, 11):
            tail = gamma_tail_check(n, d, TAIL_CFG)
            worst = max(worst, abs(tail - central_ratio(n)))
    ok = worst < 1e-8
    _report("5b gamma tail identity", ok, f"d<=4, n<=10, max dev {mpmath.nstr(worst, 3)}")


def test_criterion_5c_leading_gamma_drop():
    from apery_words.series import IndexTerm, Relation, SeriesSpec

    worst = mpf(0)
    for tail_text in ("S[2n^2 > 0]", "S[2n+1^1 >= 2n^1 > 0]", "S[2n^1 > 2n+1^1 >= 0]"):
        tail = parse_spec(tail_text)
        headed = SeriesSpec(
            1,
            (IndexTerm(Parity.ODD_LOW, 1),) + tail.terms,
            (Relation.STRICT,) + tail.relations,
        )
        a = eval_wordsum(compile_spec(headed), BITS).to_mpc()
        b = eval_wordsum(compile_spec(tail), BITS).to_mpc()
        worst = max(worst, abs(a - b))
    ok = worst < 1e-10
    _report("5c leading-gamma drop", ok, f"compiled max dev {mpmath.nstr(worst, 3)}")


def test_criterion_5d_reality(corpus_results):
    worst = max(abs(entry.compiled.imag) for entry in corpus_results)
    assert CORPUS_BITS >= 133  # at least 40 decimal digits
    ok = worst < mpf(10) ** -20
    _report("5d reality of compiled values", ok, f"max |Im| = {mpmath.nstr(worst, 3)}")


def test_criterion_5e_evaluator_checks(corpus_results):
    from fractions import Fraction

    from apery_words.evaluate import eval_word, split_consistency

    words = []
    for entry in corpus_results:
        for w in entry.words.terms:
            if 2 <= len(w) <= 4 and w not in words:
                words.append(w)
        if len(words) >= 8:
            break
    worst_split, worst_prec = mpf(0), mpf(0)
    for w in words[:8]:
        assert is_convergent(w)
        base = eval_word(w, 160).to_mpc()
        alt = split_consistency(w, Fraction(1, 3), 160).to_mpc()
        worst_split = max(worst_split, abs(base - alt))
        lo = eval_word(w, 128).to_mpc()
        hi = eval_word(w, 256).to_mpc()
        worst_prec = max(worst_prec, abs(lo - hi) / max(abs(hi), mpf(1)))
    ok = worst_split < mpf(2) ** -150 and worst_prec < mpf(2) ** -120
    _report(
        "5e split-point and precision checks",
        ok,
        f"split dev {mpmath.nstr(worst_split, 3)}, precision dev {mpmath.nstr(worst_prec, 3)}",
    )


def test_criterion_6_membership_claims_documented():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = readme.read_text()
    ok = "not machine-checked" in text and "weight" in text
    _report(
        "6 membership claims are documentation-only",
        ok,
        "README states the basis-membership claims are replaced by numeric checks",
    )
