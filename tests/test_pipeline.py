from fractions import Fraction

import mpmath
import pytest
from mpmath import workprec

from apery_words.constants import eval_const
from apery_words.evaluate import eval_wordsum
from apery_words.fixtures import load_fixtures
from apery_words.oracle import OracleConfig, direct_sum, direct_sums
from apery_words.pipeline import compile_harmonic, compile_spec
from apery_words.series import HarmonicSpec, Parity, SeriesSpec, expand_harmonic, parse_spec, render
from apery_words.trig import predicted_weight_report
from apery_words.words import words_to_json_dict

CFG = OracleConfig(precision_digits=16)


def test_pipeline_equivalence_on_corpus(corpus_results):
    worst = 0.0
    for entry in corpus_results:
        dev = abs(entry.compiled.real - entry.oracle_value)
        worst = max(worst, float(dev))
        assert dev < 1e-8, entry.spec
    assert worst < 1e-8


def test_depth4_compiled_values(depth4):
    # conftest.depth4_specs: the first 8 distinct depth-4 specs of
    # random_spec(random.Random(7), max_depth=4, max_weight=6).  Compiled values
    # at 140 and 200 bits agree within 2^-130, which an exhausted guard would
    # break, and meet the 16-digit oracle within the corpus's 1e-8 gate
    assert len({render(spec) for spec in depth4}) == 8
    assert {len(spec.terms) for spec in depth4} == {4}
    for spec, res in zip(depth4, direct_sums(depth4, CFG)):
        ws = compile_spec(spec)
        lo, hi = eval_wordsum(ws, 140), eval_wordsum(ws, 200)
        with workprec(264):
            assert abs(lo.to_mpc() - hi.to_mpc()) < mpmath.mpf(2) ** -130, render(spec)
            assert abs(lo.real - res.value) < 1e-8, render(spec)


def test_compile_is_memoized():
    a = compile_spec(parse_spec("S[2n^2 > 0]"))
    b = compile_spec(parse_spec("S[ 2n^2 > 0 ]"))
    assert a is b


def test_deep_gamma_head_chain_vs_oracle():
    # weight-2 head over a depth-2 tail: the head recursion composed with the
    # full remainder chain, not just a single end block
    for text in ("S[2n-1^2 > 2n^1 > 2n+1^1 >= 0]", "S[2n-1^2 > 2n+1^1 >= 2n^1 > 0]",
                 "S2[2n-1^2 > 2n+1^1 >= 2n+1^1 >= 0]"):
        spec = parse_spec(text)
        compiled = eval_wordsum(compile_spec(spec), 140)
        want = direct_sum(spec, CFG).value
        assert abs(compiled.real - want) < 1e-8, text


def test_worked_identity_h2_over_np1():
    # sum a_n^2 H_n^(2)/(n+1) = 8*(low-odd/even (1,3)-chain) + 8*((2,2)-chain)
    with workprec(160):
        v1 = eval_wordsum(compile_spec(parse_spec("S2[2n-1^1 > 2n^2 > 0]")), 140).to_mpc()
        w2 = eval_wordsum(compile_spec(parse_spec("S2[2n-1^2 > 2n^2 > 0]")), 140).to_mpc()
        closed = eval_const("2*(16*G + pi**2/3 - 8*pi*log2)/pi", 140)
        assert abs(8 * (v1 + w2) - closed) < 1e-35


def test_worked_identity_zh11_over_np1():
    # sum a_n^2 zh_n(1,1)/(n+1) reduces to 8*(Y1 + Y2); check against a plain
    # partial sum (its tail is ~1.1e-4 at this cutoff, hence the loose bound)
    with workprec(160):
        y1 = eval_wordsum(compile_spec(parse_spec("S2[2n-1^1 > 2n^1 > 2n^1 > 0]")), 140).to_mpc()
        y2 = eval_wordsum(compile_spec(parse_spec("S2[2n-1^2 > 2n^1 > 2n^1 > 0]")), 140).to_mpc()
    a, h, zh11, partial = 1.0, 0.0, 0.0, 0.0
    for n in range(1, 300_000):
        zh11 += h / n
        h += 1.0 / n
        a *= (2 * n - 1) / (2 * n)
        partial += a * a * zh11 / (n + 1)
    assert 0 < float(8 * (y1 + y2).real) - partial < 3e-4


def test_worked_identity_h2n_over_odd():
    # sum a_n H_{2n}/(2n+1) = 2G, assembled from three compiled sums
    with workprec(160):
        a = eval_wordsum(compile_spec(parse_spec("S[2n+1^1 >= 2n^1 > 0]")), 140).to_mpc()
        b = eval_wordsum(compile_spec(parse_spec("S[2n+1^1 >= 2n+1^1 >= 0]")), 140).to_mpc()
        c = eval_wordsum(compile_spec(parse_spec("S[2n+1^2 >= 0]")), 140).to_mpc()
        assert abs((a + b - c) - 2 * mpmath.catalan) < 1e-35


def test_harmonic_compiled_vs_closed():
    h = HarmonicSpec((1,), (), Parity.ODD_LOW, 1, 2)
    value = eval_wordsum(compile_harmonic(h), 140).to_mpc()
    closed = eval_const("(8*log2 - 4)/pi", 140)
    assert abs(value - closed) < 1e-30


def test_combine_wordsums_scalars():
    a = compile_spec(parse_spec("S2[2n-1^2 > 0]"))
    b = compile_spec(parse_spec("S2[2n-1^1 > 0]"))
    total = a.scaled(Fraction(2))
    total += b.scaled(Fraction(-1))
    with workprec(150):
        got = eval_wordsum(total, 140).to_mpc()
        want = 2 * eval_wordsum(a, 140).to_mpc() - eval_wordsum(b, 140).to_mpc()
        assert abs(got - want) < 1e-35


def test_weight_report():
    assert predicted_weight_report(parse_spec("S[2n^2 > 0]")) == {
        "weight": 2,
        "nu": 0,
        "max_word_weight": 2,
    }
    assert predicted_weight_report(parse_spec("S[2n-1^2 > 2n^1 > 0]")) == {
        "weight": 3,
        "nu": 1,
        "max_word_weight": 2,
    }
    rep = predicted_weight_report(parse_spec("S2[2n-1^2 > 2n^1 > 0]"))
    assert rep["eta"] == 2 and rep["iota"] == 2 and rep["max_word_weight"] == 2
    rep = predicted_weight_report(parse_spec("S2[2n-1^1 > 0]"))
    assert rep["iota"] == 1  # the depth-1 convention


def test_compile_harmonic_leaves_memo_intact():
    # compile_harmonic adds scaled copies; the memoized parts must not change
    h = HarmonicSpec((1, 2), (1,), Parity.ODD_LOW, 2, 2)
    parts = [compile_spec(s) for _, s in expand_harmonic(h)]
    before = [words_to_json_dict(ws) for ws in parts]
    compile_harmonic(h)
    compile_harmonic(h)
    assert [words_to_json_dict(ws) for ws in parts] == before


def test_compiled_words_match_weight_bound(corpus_results):
    # compiled word length never exceeds the series weight (+1 for squared)
    for entry in corpus_results:
        bound = entry.spec.weight + (1 if entry.spec.binom_power == 2 else 0)
        assert entry.words.max_weight() <= bound, entry.spec


def test_weight_report_bounds_compiled_words(corpus, depth4):
    # the reported maximal word weight bounds the compiled words: a 2n-1 lead
    # of exponent 1 is not unrolled, at either binomial power
    plain = [spec for rec in load_fixtures() for _, spec in rec.parts if isinstance(spec, SeriesSpec)]
    for spec in corpus + plain + depth4:
        assert compile_spec(spec).max_weight() <= predicted_weight_report(spec)["max_word_weight"], render(spec)


@pytest.mark.parametrize("text", [
    "S[2n^2 > 0]", "S[2n+1^2 >= 0]", "S[2n-1^2 > 0]", "S[2n^1 > 2n^1 > 0]",
    "S[2n+1^1 >= 2n^1 > 0]", "S[2n-1^1 > 2n^1 > 0]", "S2[2n^1 > 0]", "S2[2n+1^1 >= 0]",
])
def test_weight_report_admits_the_value_found_by_pslq(text):
    # the value (pi times it for an S2 sum) is an integer relation over the
    # level-4 basis of weight <= 2, pi and log 2 of weight 1, that uses no
    # element above the reported maximal word weight; for example
    # S[2n^2 > 0] = (pi^2 - 12 log^2 2)/24
    spec = parse_spec(text)
    with workprec(400):
        value = eval_wordsum(compile_spec(spec), 400).real * mpmath.pi ** (spec.binom_power - 1)
        pi, log2 = mpmath.pi, mpmath.log(2)
        basis = [(1, 0), (pi, 1), (log2, 1), (pi**2, 2), (pi * log2, 2), (log2**2, 2),
                 (mpmath.catalan, 2)]
        relation = mpmath.pslq([value] + [b for b, _ in basis], maxcoeff=10**6,
                               maxsteps=1000)
    assert relation is not None and relation[0] != 0, text
    top = predicted_weight_report(spec)["max_word_weight"]
    assert all(w <= top for c, (_, w) in zip(relation[1:], basis) if c), (text, relation)
