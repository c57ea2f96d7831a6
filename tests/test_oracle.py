import hashlib
import io
import keyword
import random
import re
import tokenize
import weakref
from dataclasses import replace
from fractions import Fraction
from types import CodeType

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import from_man_exp, round_nearest

from apery_words import oracle, sweep
from apery_words.fixtures import load_fixtures
from apery_words.oracle import (
    ConfigTooSmallError,
    OracleConfig,
    _checkpoints,
    _job,
    _partial_sums,
    _scale_bits,
    direct_harmonic_sum,
    direct_sum,
    direct_sums,
)
from apery_words.series import (
    HarmonicSpec,
    IndexTerm,
    Parity,
    Relation,
    SeriesSpec,
    SpecValidationError,
    parse_spec,
)

from conftest import build_corpus, central_ratio, gamma_tail_check, random_spec

# the block length of an earlier kernel, kept as the spacing of some points
_BLOCK = 256

FAST_CFG = OracleConfig(precision_digits=15)
CFG = OracleConfig(precision_digits=16)


def test_central_ratio_small_values():
    assert central_ratio(0) == 1
    assert abs(central_ratio(1) - mpf(1) / 2) < mpf(10) ** -50
    assert abs(central_ratio(2) - mpf(3) / 8) < mpf(10) ** -50
    assert abs(central_ratio(3) - mpf(5) / 16) < mpf(10) ** -50


def test_central_ratio_stirling():
    value = central_ratio(10**6)
    stirling = 1 / mpmath.sqrt(mpmath.pi * 10**6)
    assert abs(value - stirling) / stirling < 0.005


def test_direct_sum_log2_default_config():
    res = direct_sum(parse_spec("S[2n^1 > 0]"))
    assert abs(res.value - mpmath.log(2)) < 1e-10
    assert res.error_estimate < mpf(10) ** -20


def test_direct_sum_depth2():
    res = direct_sum(parse_spec("S[2n^1 > 2n^1 > 0]"), CFG)
    want = mpmath.log(2) ** 2 / 2 + mpmath.zeta(2) / 4
    assert abs(res.value - want) < 1e-8


def test_direct_sum_squared_gamma():
    res = direct_sum(parse_spec("S2[2n-1^1 > 0]"), CFG)
    assert abs(res.value - 2 / mpmath.pi * (mpmath.pi / 2 - 1)) < 1e-5


@pytest.mark.parametrize("tail", [200, 30_000])
def test_direct_sum_tail_beyond_the_cutoff(tail):
    # the samples start at the first index, past the cutoff; the reference
    # is log 2 less the terms up to the tail bound
    cfg = OracleConfig(cutoff=125, extrapolation_levels=7, precision_digits=16)
    res = direct_sum(parse_spec(f"S[2n^1 > 0]@tail={tail}"), cfg)
    with mpmath.workdps(40):
        a, head = mpf(1), mpf(0)
        for n in range(1, tail + 1):
            a = a * (2 * n - 1) / (2 * n)
            head += a / (2 * n)
        want = mpmath.log(2) - head
    assert abs(res.value - want) < 1e-12
    assert res.terms_used == (tail + 1) * 2**cfg.extrapolation_levels + 1


def test_slow_geometric_decay_settles():
    # x^(2N) at 125 * 2^7 is still 0.04: the samples move out until it is
    # below 10^-19, and the value matches a sweep from 20,000 on
    spec = parse_spec("S[2n^1 > 2n+1^1 >= 0]@x=0.9999")
    res = direct_sum(spec, CFG)
    ref = direct_sum(spec, OracleConfig(cutoff=20_000, extrapolation_levels=4, precision_digits=16))
    assert abs(res.value - ref.value) < 1e-12


def test_config_too_small():
    with pytest.raises(ConfigTooSmallError):
        direct_sum(
            parse_spec("S[2n^1 > 0]"),
            OracleConfig(cutoff=100, extrapolation_levels=0, precision_digits=30),
        )


def test_gamma_tail_values():
    assert abs(gamma_tail_check(0, 1, CFG) - 1) < 1e-8
    assert abs(gamma_tail_check(0, 3, CFG) - 1) < 1e-8
    assert abs(gamma_tail_check(2, 2, CFG) - mpf(3) / 8) < 1e-8


BRUTE_FORCE_SPECS = [
    "S[2n^1 > 0]",
    "S[2n+1^2 >= 0]",
    "S[2n+1^1 >= 2n^1 > 0]",
    "S[2n^1 > 2n-1^1 > 0]",
    "S2[2n+1^1 >= 2n+1^1 >= 0]",
    "S[2n+1^1 >= 2n+1^1 >= 2n+1^1 >= 0]",
    "S[2n^2 > 2n+1^1 >= 0]@tail=2",
    "S[2n-1^1 > 2n^1 > 0]@x=1/2",
]


def test_partial_sums_match_brute_force():
    # exactness of the incremental sweep, including weak steps, against
    # straightforward nested loops at a tiny cutoff
    n_cap = 40
    for text in BRUTE_FORCE_SPECS:
        spec = parse_spec(text)
        sums, F, _ = _partial_sums([_job(spec)], [n_cap], 20)
        got = float(sums[0][0]) / float(1 << F)
        want = _brute_force(spec, n_cap)
        assert abs(got - want) < 1e-12, text


def _brute_force(spec: SeriesSpec, n_cap: int) -> float:
    import itertools

    x = float(spec.argument)
    a = [1.0]
    for n in range(1, n_cap + 1):
        a.append(a[-1] * (2 * n - 1) / (2 * n) * x * x)
    total = 0.0
    d = spec.depth
    for tup in itertools.product(range(n_cap + 1), repeat=d):
        chain = list(tup) + [spec.tail_bound]
        ok = True
        for j in range(d):
            if spec.relations[j] is Relation.STRICT:
                ok &= chain[j] > chain[j + 1]
            else:
                ok &= chain[j] >= chain[j + 1]
        if not ok:
            continue
        value = a[tup[0]] ** spec.binom_power
        for j in range(d):
            value /= spec.terms[j].parity.index_value(tup[j]) ** spec.terms[j].exponent
        total += value
    return total


def test_monotone_refinement():
    # doubling the cutoff never worsens the (noise-floored) error estimate by
    # more than 2x
    rng = random.Random(1234)
    specs = [random_spec(rng) for _ in range(50)]
    floor = mpf(10) ** -13
    for spec in specs:
        small = direct_sum(spec, OracleConfig(cutoff=2_000, extrapolation_levels=4, precision_digits=15))
        big = direct_sum(spec, OracleConfig(cutoff=4_000, extrapolation_levels=4, precision_digits=15))
        assert max(big.error_estimate, floor) <= 2 * max(small.error_estimate, floor)


@pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(7, 10)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_variable_argument_closed_form(x, d):
    # sum over the all-low-odd weight-1 chain at argument x = sin(y) equals
    # 1 - cos(y) * sum_{j=0}^{d-1} log^j(sec y)/j!
    spec = SeriesSpec(
        1,
        tuple(IndexTerm(Parity.ODD_LOW, 1) for _ in range(d)),
        tuple(Relation.STRICT for _ in range(d)),
        argument=x,
    )
    res = direct_sum(spec, FAST_CFG)
    y = mpmath.asin(mpf(x.numerator) / x.denominator)
    log_sec = mpmath.log(mpmath.sec(y))
    want = 1 - mpmath.cos(y) * sum(log_sec**j / mpmath.factorial(j) for j in range(d))
    assert abs(res.value - want) < 1e-8


def test_stuffle_identity_exact():
    # H_n^2 = 2 zh_n(1,1) + H_n^(2) in exact rationals
    h = Fraction(0)
    h2 = Fraction(0)
    zh11 = Fraction(0)
    for n in range(1, 201):
        zh11 += h * Fraction(1, n)  # new top index m1 = n contributes H_{n-1}/n
        h += Fraction(1, n)
        h2 += Fraction(1, n * n)
        assert h * h == 2 * zh11 + h2


def test_leading_gamma_drop_oracle():
    for tail_text in ("S[2n^1 > 0]", "S[2n+1^2 >= 0]", "S[2n^1 > 2n+1^1 >= 0]"):
        tail = parse_spec(tail_text)
        headed = SeriesSpec(
            1,
            (IndexTerm(Parity.ODD_LOW, 1),) + tail.terms,
            (Relation.STRICT,) + tail.relations,
        )
        a = direct_sum(headed, CFG)
        b = direct_sum(tail, CFG)
        assert abs(a.value - b.value) < float(a.error_estimate + b.error_estimate) + 1e-9


# The two sweeps the oracle ran before its single kernel, verbatim but for F,
# which is passed in (they took max(digits, 40) digits), and for the index
# values, which come straight from Parity.index_value.  At equal F the kernel
# must reproduce their scaled partial sums bit for bit.


def _reference_partial_sums(spec: SeriesSpec, checkpoints: list[int], F: int) -> list[int]:
    one = 1 << F
    d = spec.depth
    terms = spec.terms
    rels = spec.relations
    x = spec.argument
    x2 = (x.numerator * x.numerator << F) // (x.denominator * x.denominator)
    x_is_one = x == 1
    p = spec.binom_power
    n_max = max(checkpoints)
    tail = spec.tail_bound
    bottom_start = tail + (1 if rels[-1] is Relation.STRICT else 0)

    cum = [0] * (d + 1)  # cum[j]: cumulative sum for level j (1-based), cum[d] unused
    prev = [0] * (d + 1)
    a = one  # a_0 = 1
    sums: list[int] = []
    points = sorted(set(checkpoints))
    next_point = 0
    s_total = 0

    for n in range(0, n_max + 1):
        if n > 0:
            a = a * (2 * n - 1) // (2 * n)
            if not x_is_one:
                a = (a * x2) >> F
        prev[1:d] = cum[1:d]
        for j in range(d - 1, 0, -1):
            if j == d - 1:
                t_next = one if n >= bottom_start else 0
            else:
                t_next = cum[j + 1] if rels[j] is Relation.WEAK else prev[j + 1]
            if t_next:
                l = terms[j].parity.index_value(n)
                if l != 0:
                    cum[j] += t_next // (l ** terms[j].exponent)
        if d == 1:
            t1 = one if n >= bottom_start else 0
        else:
            t1 = cum[1] if rels[0] is Relation.WEAK else prev[1]
        if t1:
            l0 = terms[0].parity.index_value(n)
            if l0 != 0:
                ap = a if p == 1 else (a * a) >> F
                s_total += (ap * t1) // (l0 ** terms[0].exponent << F)
        while next_point < len(points) and n == points[next_point]:
            sums.append(s_total)
            next_point += 1
    ordered = {pt: sums[i] for i, pt in enumerate(points)}
    return [ordered[pt] for pt in checkpoints]


def _reference_harmonic_sums(h: HarmonicSpec, points: list[int], F: int) -> list[int]:
    one = 1 << F
    n_max = points[-1]
    e, f = len(h.k_vec), len(h.l_vec)
    z = [0] * (e + 1)
    z[e] = one
    t = [0] * (f + 1)
    t[f] = one
    a = one
    p = h.binom_power
    s_total = 0
    sums_at = {}
    point_set = set(points)
    for n in range(0, n_max + 1):
        if n > 0:
            a = a * (2 * n - 1) // (2 * n)
            for j in range(e):
                z[j] += z[j + 1] // n ** h.k_vec[j]
            for j in range(f):
                t[j] += t[j + 1] // (2 * n - 1) ** h.l_vec[j]
            head = n if h.head_parity is Parity.EVEN else h.head_parity.index_value(n)
            ap = a if p == 1 else (a * a) >> F
            weighted = (ap * z[0]) >> F
            weighted = (weighted * t[0]) >> F
            s_total += weighted // head**h.head_exponent
        elif h.head_parity is Parity.ODD_HIGH and e == 0 and f == 0:
            s_total += one  # n = 0 term: a_0^p / 1
        if n in point_set:
            sums_at[n] = s_total
    return [sums_at[pt] for pt in points]


def _assert_same_sums(spec: SeriesSpec, checkpoints: list[int], digits: int = 40):
    points = sorted(set(checkpoints))
    sums, F, swept = _partial_sums([_job(spec)], points, digits)
    assert sums[0] == _reference_partial_sums(spec, points, F), spec
    assert swept == max(checkpoints) + 1


def test_scale_bits_without_floor():
    assert _scale_bits(16) == 119
    assert _partial_sums([_job(parse_spec("S[2n^1 > 0]"))], [100], 16)[1] == 119


def test_sweep_matches_reference_on_brute_force_specs():
    for text in BRUTE_FORCE_SPECS:
        _assert_same_sums(parse_spec(text), [40])
        _assert_same_sums(parse_spec(text), [0, 7, 33, 7, 120, 64])


def test_sweep_matches_reference_on_random_specs():
    # cutoff 300 sweeps past several block boundaries; the variants add a
    # tail bound and a geometric argument
    rng = random.Random(20240817)
    points = _checkpoints(300, 4)
    assert points[-1] > 4 * _BLOCK
    for _ in range(40):
        spec = random_spec(rng)
        tail = rng.randint(1, 400)
        for variant in (spec, replace(spec, tail_bound=tail), replace(spec, argument=Fraction(1, 2))):
            _assert_same_sums(variant, points)


def _harmonic_shapes() -> list[HarmonicSpec]:
    shapes = {spec for rec in load_fixtures() for _, spec in rec.parts if isinstance(spec, HarmonicSpec)}
    for parity in Parity:
        for p in (1, 2):
            for k_vec, l_vec in (((), ()), ((1,), ()), ((), (2,)), ((2, 1), (1,)), ((1,), (1, 3))):
                shapes.add(HarmonicSpec(k_vec, l_vec, parity, 3 - p, p))
    return sorted(shapes, key=repr)


@pytest.mark.parametrize("points", [[150, 300], [100, 1500, 3000]])
def test_harmonic_sweep_matches_reference(points):
    F = _scale_bits(40)
    for h in _harmonic_shapes():
        assert _partial_sums([_job(h)], points, 40)[0][0] == _reference_harmonic_sums(h, points, F), h


_TERMS = st.tuples(st.sampled_from(list(Parity)), st.integers(1, 4))


@st.composite
def _small_specs(draw) -> SeriesSpec:
    depth = draw(st.integers(1, 4))
    terms = tuple(IndexTerm(*draw(_TERMS)) for _ in range(depth))
    rels = tuple(draw(st.sampled_from(list(Relation))) for _ in range(depth))
    tail = draw(st.integers(0, 30))
    x = draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(7, 10)]))
    try:
        return SeriesSpec(draw(st.sampled_from((1, 2))), terms, rels, tail, x)
    except SpecValidationError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(_small_specs(), st.lists(st.integers(0, 1200), min_size=1, max_size=4))
def test_sweep_matches_reference_property(spec, checkpoints):
    _assert_same_sums(spec, checkpoints)


def test_dropped_floor_agrees_with_forty_digits():
    for text in ("S[2n+1^2 >= 0]", "S2[2n-1^1 > 2n^2 > 0]", "S[2n-1^1 > 2n^1 > 0]@x=1/2"):
        spec = parse_spec(text)
        low = direct_sum(spec, OracleConfig(cutoff=20_000, extrapolation_levels=4, precision_digits=16))
        high = direct_sum(spec, OracleConfig(cutoff=20_000, extrapolation_levels=4, precision_digits=40))
        assert abs(low.value - high.value) < 1e-14, text


def test_harmonic_config_too_small_message():
    h = HarmonicSpec((1,), (), Parity.ODD_LOW, 1, 2)
    cfg = OracleConfig(cutoff=100, extrapolation_levels=0, precision_digits=30)
    pattern = r"^tail error estimate \d\.\d+e?-?\d* exceeds the 10\^-15 budget; raise cutoff or levels$"
    with pytest.raises(ConfigTooSmallError, match=pattern):
        direct_harmonic_sum(h, cfg)
    with pytest.raises(ConfigTooSmallError, match=pattern):
        direct_sum(parse_spec("S[2n^1 > 0]"), cfg)


def test_harmonic_zero_levels_settles_on_last_sum():
    # with no extrapolation levels the harmonic estimate is |S(N) - S(N/2)|,
    # as it is for a plain spec
    h = HarmonicSpec((1,), (), Parity.ODD_LOW, 1, 2)
    cfg = OracleConfig(cutoff=100, extrapolation_levels=0, precision_digits=30)
    F = _scale_bits(30)
    s50, s100 = _partial_sums([_job(h)], [50, 100], 30)[0][0]
    with mpmath.workdps(45):
        one = mpf(1 << F)
        err = abs(mpf(s100) / one - mpf(s50) / one)
    pattern = re.escape(f"tail error estimate {mpmath.nstr(err, 5)} exceeds")
    with pytest.raises(ConfigTooSmallError, match=pattern):
        direct_harmonic_sum(h, cfg)


# The batch kernel against the same kernel run on one item at a time, which
# the reference tests above tie to the old loops: every item's scaled sums
# must not depend on what else is in its batch.


def _assert_batch_matches_single(items, points: list[int], digits: int = 16):
    batch = _partial_sums([_job(item) for item in items], points, digits)[0]
    for item, sums in zip(items, batch):
        single = _partial_sums([_job(item)], points, digits)[0][0]
        assert sums == single, item


def _fixture_items() -> list[SeriesSpec | HarmonicSpec]:
    return [spec for rec in load_fixtures() for _, spec in rec.parts]


def test_chained_quotients_match_reference():
    # heads that share a chain and an index divide one quotient column on:
    # 2n-1 heads of exponents 1, 2 and 4 (a gap of 2, and the base -1 at
    # n = 0, where their one term is -1, 1 and 1) and 2n+1 heads of
    # exponents 1 and 3 without a chain, whose n = 0 term is 1
    texts = ["S[2n-1^1 >= 2n+1^1 >= 0]", "S[2n-1^2 >= 2n+1^1 >= 0]",
             "S[2n-1^4 >= 2n+1^1 >= 0]", "S[2n+1^1 >= 0]", "S[2n+1^3 >= 0]"]
    specs = [parse_spec(text) for text in texts]
    points = [0, 1, 7, _BLOCK - 1, _BLOCK, 3 * _BLOCK + 5]
    for spec in specs:
        _assert_same_sums(spec, points)
    _assert_batch_matches_single(specs, points)


def test_batch_matches_single_on_fixture_jobs():
    items = _fixture_items()
    assert len(items) == 74
    _assert_batch_matches_single(items, _checkpoints(300, 4))


def test_batch_matches_single_on_random_specs_and_harmonic_shapes():
    # the tail bounds start items past several block boundaries, and x = 1/2
    # brings a second a_n column
    rng = random.Random(20240817)
    items = []
    for _ in range(40):
        spec = random_spec(rng)
        tail = rng.randint(1, 400)
        items += [spec, replace(spec, tail_bound=tail), replace(spec, argument=Fraction(1, 2))]
    items += _harmonic_shapes()
    rng.shuffle(items)
    _assert_batch_matches_single(items, _checkpoints(300, 4))


@st.composite
def _harmonic_specs(draw) -> HarmonicSpec:
    weights = st.lists(st.integers(1, 3), max_size=2).map(tuple)
    p = draw(st.sampled_from((1, 2)))
    head = draw(st.integers(3 - p, 4))
    return HarmonicSpec(draw(weights), draw(weights), draw(st.sampled_from(list(Parity))), head, p)


_ITEMS = st.one_of(_small_specs(), _harmonic_specs())


@settings(max_examples=40, deadline=None)
@given(
    st.lists(_ITEMS, min_size=1, max_size=6),
    st.lists(_ITEMS, max_size=3),
    st.lists(st.integers(0, 900), min_size=1, max_size=3),
    st.randoms(use_true_random=False),
)
def test_batch_is_independent_of_its_company(items, others, points, rng):
    points = sorted(set(points))
    _assert_batch_matches_single(items, points)
    alone = _partial_sums([_job(item) for item in items], points, 16)[0]
    mixed = items + others
    rng.shuffle(mixed)
    together = dict(zip(mixed, _partial_sums([_job(item) for item in mixed], points, 16)[0]))
    assert [together[item] for item in items] == alone


def test_direct_sums_sweeps_equal_items_once(monkeypatch):
    h = HarmonicSpec((1,), (), Parity.ODD_LOW, 1, 2)
    spec = parse_spec("S[2n+1^2 >= 0]")
    batches = []

    def recording_sweep(jobs, points, digits, *args):
        batches.append(len(jobs))
        return _partial_sums(jobs, points, digits, *args)

    monkeypatch.setattr(oracle, "_partial_sums", recording_sweep)
    # a single sum is a batch of one: one sweep of one job
    want = [direct_harmonic_sum(h, FAST_CFG), direct_sum(spec, FAST_CFG)]
    assert batches == [1, 1]
    batches.clear()
    got = direct_sums([h, h, spec, h], FAST_CFG)
    assert batches == [2]
    for res, ref in zip(got, [want[0], want[0], want[1], want[0]]):
        assert (res.value, res.error_estimate, res.terms_used) == (
            ref.value, ref.error_estimate, ref.terms_used
        )


@pytest.mark.parametrize(
    "cfg",
    [OracleConfig(1_000, 6, 16), OracleConfig(1_000, 0, 16), CFG],
    ids=["1000-6", "1000-0", "settling"],
)
def test_every_result_leaves_through_the_sweep(cfg):
    # two equal items, a geometric one and one with a tail bound: without
    # levels the x = 1 items take the two-sample, last-sum fit.  Each result
    # is the item's own direct_sum, and equal items share one result
    items = [parse_spec("S2[2n^4 > 0]"), parse_spec("S2[2n^4 > 0]"),
             parse_spec("S[2n-1^1 > 2n^1 > 0]@x=1/2"), parse_spec("S2[2n+1^4 > 2n^1 > 0]@tail=5")]
    assert items[0] == items[1] and items[0] is not items[1]
    results = direct_sums(items, cfg)
    assert results[0] is results[1]
    for item, res in zip(items, results):
        alone = direct_sum(item, cfg)
        assert (res.value, res.error_estimate, res.terms_used) == (
            alone.value, alone.error_estimate, alone.terms_used
        ), item


def test_direct_sums_names_the_failing_item():
    # without levels only a geometric tail settles: at x = 1/2 the sum is
    # log(2 / (1 + sqrt(1 - x^2)))
    cfg = OracleConfig(cutoff=100, extrapolation_levels=0, precision_digits=30)
    settles = parse_spec("S[2n^1 > 0]@x=1/2")
    with pytest.raises(ConfigTooSmallError) as info:
        direct_sums([settles, settles, parse_spec("S[2n^1 > 0]"), settles], cfg)
    assert info.value.index == 2
    (res,) = direct_sums([settles], cfg)
    assert abs(res.value - mpmath.log(2 / (1 + mpmath.sqrt(3) / 2))) < mpf(10) ** -25
    assert res.terms_used == 101


# The tail fit before the shared weights, verbatim but for its name: one pair
# of LU solves per item.  The shared weights must reproduce its value and
# estimate.


def _extrapolate_per_item(
    points: list[int],
    values: list[mpf],
    alpha: Fraction,
    log_degree: int,
    levels: int,
):
    """Fit {1} + {N^(1-alpha-k) ln(N)^j, j = log_degree..0} to the samples.

    `levels`, at least 2, counts the basis functions beside the constant;
    the estimate is the change from the fit with two fewer.
    """
    basis = []
    k = 0
    while len(basis) < levels:
        for j in range(log_degree, -1, -1):
            basis.append((1 - alpha - k, j))
            if len(basis) == levels:
                break
        k += 1

    def phi(expo, j, big_n):
        return big_n ** mpf(float(expo)) * mpmath.log(big_n) ** j

    def solve(m: int):
        # columns scaled to 1 at the first sample to keep the LU well posed
        offset = len(points) - (m + 1)
        with mpmath.extradps(25):
            mat = mpmath.matrix(m + 1, m + 1)
            rhs = mpmath.matrix(m + 1, 1)
            for i in range(m + 1):
                big_n = mpf(points[offset + i])
                mat[i, 0] = mpf(1)
                for b, (expo, j) in enumerate(basis[:m]):
                    mat[i, b + 1] = phi(expo, j, big_n) / phi(expo, j, mpf(points[offset]))
                rhs[i] = values[offset + i]
            return mpmath.lu_solve(mat, rhs)[0]

    last = solve(levels)
    previous = solve(levels - 2)
    return last, abs(last - previous)


@pytest.mark.parametrize("levels", range(1, 9))
def test_fixed_point_fit_matches_lu_solve(levels):
    # 3 to 17 samples, as the schedules take up to the 25-digit cap, of
    # synthetic tails
    # c + sum b N^(1-alpha-k) ln(N)^j: the shared weights' value and estimate
    # against the per-item mpmath LU fit
    points = _checkpoints(1_000, levels)
    assert len(points) == 2 * levels + 1
    rng = random.Random(levels)
    digits = 16
    F = _scale_bits(digits)
    with mpmath.workdps(digits + 15):
        for alpha in map(Fraction, ("1", "3/2", "2", "5/2", "7/2", "9/2")):
            for log_degree in range(3):
                terms = [(1 - alpha - k, j, mpf(rng.uniform(-1, 1)))
                         for k in range(3) for j in range(log_degree + 1)]
                # the samples as the sweep gives them, integers at 2^F, and
                # their exact values for the reference
                sums = [
                    int(mpmath.ldexp(
                        mpf(1) / 3 + sum(b * mpf(big_n) ** mpf(float(expo)) * mpmath.log(big_n) ** j
                                         for expo, j, b in terms), F))
                    for big_n in points
                ]
                values = [mpmath.mp.make_mpf(from_man_exp(s, -F)) for s in sums]
                if alpha == 1 and len(points) - 1 > log_degree:
                    # the basis reaches N^0 ln(N)^0, a second constant, so M
                    # is singular; the reference LU fails on it as well
                    with pytest.raises(ZeroDivisionError):
                        oracle._extrapolate(points, sums, digits, alpha, log_degree, {})
                    continue
                value, err = oracle._extrapolate(points, sums, digits, alpha, log_degree, {})
                want_value, want_err = _extrapolate_per_item(
                    points, values, alpha, log_degree, len(points) - 1
                )
                assert abs(value - want_value) < mpf(10) ** -30, (alpha, log_degree)
                assert abs(err - want_err) < mpf(10) ** -30, (alpha, log_degree)


_OLD_VERIFY = OracleConfig(10_000, 4, 16)


@pytest.fixture(scope="module")
def verify_batch():
    """Per schedule: the verify items' results, every tail fit's arguments
    and outcome, the keys whose weights were solved, and the number of jobs
    in each sweep."""
    runs = {}

    def run(cfg: OracleConfig):
        key = (cfg.cutoff, cfg.extrapolation_levels, cfg.precision_digits)
        if key not in runs:
            fits, solved, sweeps = [], [], []
            extrapolate, fit_weights = oracle._extrapolate, oracle._fit_weights

            def recording_extrapolate(points, sums, digits, alpha, log_degree, weights):
                out = extrapolate(points, sums, digits, alpha, log_degree, weights)
                fits.append(((points, sums, digits, alpha, log_degree), out))
                return out

            def recording_fit_weights(points, alpha, log_degree, bits, weights):
                solved.append((tuple(points), alpha, log_degree))
                return fit_weights(points, alpha, log_degree, bits, weights)

            def recording_sweep(jobs, points, digits, *args):
                sweeps.append(len(jobs))
                return _partial_sums(jobs, points, digits, *args)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oracle, "_extrapolate", recording_extrapolate)
                mp.setattr(oracle, "_fit_weights", recording_fit_weights)
                mp.setattr(oracle, "_partial_sums", recording_sweep)
                results = direct_sums(_fixture_items(), cfg)
            runs[key] = results, fits, solved, sweeps
        return runs[key]

    return run


@pytest.mark.parametrize("cfg", [_OLD_VERIFY, OracleConfig(1_000, 6, 16)], ids=["10000-4", "1000-6"])
def test_shared_weights_match_per_item_fit(cfg, verify_batch):
    _, fits, solved, sweeps = verify_batch(cfg)
    # the 74 items are 72 distinct jobs, swept together once; every job is
    # fitted once, as equal items are one job and share its result, and the
    # weights of each of the 20 (alpha, log degree) keys are solved once
    assert sweeps == [72]
    assert len(fits) == 72
    keys = [(tuple(args[0]), *args[3:]) for args, _ in fits]
    assert sorted(solved, key=repr) == sorted(set(keys), key=repr)
    assert len(solved) == 20
    F = _scale_bits(cfg.precision_digits)
    with mpmath.workdps(cfg.precision_digits + 15):
        for (points, sums, _, alpha, log_degree), (value, err) in fits:
            # the reference fits the exact sums: rounded ones move its own
            # value by more than the tolerance
            values = [mpmath.mp.make_mpf(from_man_exp(s, -F)) for s in sums]
            want_value, want_err = _extrapolate_per_item(
                points, values, alpha, log_degree, len(points) - 1)
            assert abs(value - want_value) < mpf(10) ** -30, (alpha, log_degree)
            assert abs(err - want_err) < mpf(10) ** -30, (alpha, log_degree)


def test_verify_schedule_agrees_with_the_longer_sweep(verify_batch):
    # the derived schedule, 15 (17) samples from 125 on at 16 (25) digits,
    # against 9 samples from 10,000 on and 13 from 1,000 on: on the 74 items
    # every estimate stays 10^3 under the 10^(-digits/2) budget, and at 16
    # digits every value is within 1e-15 of the 13-sample sweep
    long, _, _, _ = verify_batch(_OLD_VERIFY)
    longer, _, _, _ = verify_batch(OracleConfig(1_000, 6, 16))
    for digits in (16, 25):
        short, _, _, _ = verify_batch(OracleConfig(precision_digits=digits))
        for item, res, ref, ref6 in zip(_fixture_items(), short, long, longer):
            assert res.error_estimate <= 1e-12, item
            assert res.error_estimate <= mpf(10) ** (-3 - digits / 2), item
            assert abs(res.value - ref.value) <= 1e-12, item
            assert digits != 16 or abs(res.value - ref6.value) <= 1e-15, item


# Settling: with the levels left to the config, an item leaves the sweep at
# the first 2L+1 samples whose fit meets one unit in the last digit.


def _levels_of(res, cfg: OracleConfig) -> int:
    # terms_used is the last sample + 1, cutoff * 2^L + 1 for these items
    levels = (res.terms_used - 1).bit_length() - cfg.cutoff.bit_length()
    assert res.terms_used == cfg.cutoff * 2**levels + 1
    return levels


def test_settled_items_match_the_sweep_to_their_level(verify_batch):
    # an item that settles at L has the value, estimate and terms_used of an
    # explicit L-level sweep; one that does not has those of the full cap
    cfg = OracleConfig(precision_digits=16)
    results, _, _, _ = verify_batch(cfg)
    levels = [_levels_of(res, cfg) for res in results]
    for level in sorted(set(levels)):
        pairs = [(item, res) for item, res, at in zip(_fixture_items(), results, levels) if at == level]
        explicit = direct_sums([item for item, _ in pairs], OracleConfig(cfg.cutoff, level, 16))
        for (item, res), ref in zip(pairs, explicit):
            assert (res.value, res.error_estimate, res.terms_used) == (
                ref.value, ref.error_estimate, ref.terms_used
            ), item
            assert level == cfg.extrapolation_levels or res.error_estimate <= 1e-15, item


def test_a_settled_item_is_the_same_alone_as_in_the_batch(verify_batch):
    cfg = OracleConfig(precision_digits=16)
    results, _, _, _ = verify_batch(cfg)
    for item, res in zip(_fixture_items(), results):
        (alone,) = direct_sums([item], cfg)
        assert (alone.value, alone.error_estimate, alone.terms_used) == (
            res.value, res.error_estimate, res.terms_used
        ), item


def test_verify_items_settle_below_the_cap(verify_batch):
    # at 16 digits most items meet 1e-15 well before the 7th level, and the
    # sweep indices fall with them
    cfg = OracleConfig(precision_digits=16)
    results, _, _, sweeps = verify_batch(cfg)
    cap = cfg.cutoff * 2**cfg.extrapolation_levels + 1
    early = [res for res in results if res.terms_used < cap]
    assert early and all(res.error_estimate <= mpf(10) ** -15 for res in early)
    assert len(early) > len(results) // 2
    assert sweeps == [72]


def test_retired_jobs_keep_a_prefix_of_the_full_sweep():
    # jobs leave at assorted sample counts: each one's sums are the prefix of
    # its full sweep, the others' stay whole, and the sweep stops at the
    # last point a job still needed
    items = _fixture_items() + _harmonic_shapes()
    jobs = [_job(item) for item in items]
    points = _checkpoints(300, 4)
    full = _partial_sums(jobs, points, 16)[0]
    for leave_at in (lambda j: 1 + j % len(points), lambda j: 1 + j % 3, lambda j: 2):
        calls = []

        def settled(running, sums):
            calls.extend((j, len(sums[j])) for j in running)
            return {j for j in running if len(sums[j]) >= leave_at(j)}

        sums, _, swept = _partial_sums(jobs, points, 16, settled)
        last = max(len(job_sums) for job_sums in sums)
        assert swept == points[last - 1] + 1
        for j, (job_sums, whole) in enumerate(zip(sums, full)):
            assert len(job_sums) == min(leave_at(j), len(points)), items[j]
            assert job_sums == whole[: len(job_sums)], items[j]
        # every running job is passed once per point, and none after it left
        assert sorted(calls) == sorted(
            (j, count) for j in range(len(jobs)) for count in range(1, len(sums[j]) + 1)
        )


def _results_digest(results) -> str:
    h = hashlib.sha256()
    for res in results:
        for v in (res.value, res.error_estimate):
            sign, man, exp, _ = v._mpf_
            h.update(f"{sign} {int(man)} {exp};".encode())
        h.update(f"{res.terms_used}|".encode())
    return h.hexdigest()


def test_explicit_levels_never_settle(verify_batch):
    # an explicit schedule sweeps every item to its last sample, and its
    # values and estimates are pinned bit for bit
    results, _, _, _ = verify_batch(OracleConfig(1_000, 6, 16))
    assert {res.terms_used for res in results} == {64_001}
    assert _results_digest(results) == (
        "cae1b3d3c5bba96af0d26c7b4c77e5688570d65b73c7adaf1841e2e06e4de14f"
    )


def test_batch_steps_every_x_from_its_first_index():
    # an x = 1 job from n = 1, an x = 1/2 job from n = 6, whose a_n(1/2) must
    # step from the batch's first index on and not from its own start, and a
    # 2n+1 head without weights from n = 0; the points fall on both sides of
    # every start
    plain = parse_spec("S[2n^1 > 0]")
    geometric = replace(parse_spec("S[2n-1^1 > 2n^1 > 0]@x=1/2"), tail_bound=5)
    head = HarmonicSpec((), (), Parity.ODD_HIGH, 2, 1)
    items = [plain, geometric, head]
    assert [_job(item).start for item in items] == [1, 6, 0]
    points = [0, 1, 3, 5, 6, 7, 40, 300]
    F = _scale_bits(16)
    batch = _partial_sums([_job(item) for item in items], points, 16)[0]
    assert batch[0] == _reference_partial_sums(plain, points, F)
    assert batch[1] == _reference_partial_sums(geometric, points, F)
    assert batch[2] == _reference_harmonic_sums(head, points, F)
    _assert_batch_matches_single(items, points)


_PLAN_NAME = re.compile(r"[abcuvt]\d+|[wqk]|lo|hi|plan|range|locals")


def test_plans_are_compiled_per_live_set(monkeypatch):
    sources, plans, alive = [], [], []

    def recording_compile(source, filename, mode):
        # how many plans compiled before this one are still alive
        alive.append(sum(plan() is not None for plan in plans))
        code = compile(source, filename, mode)
        sources.append(source)
        plans.extend(weakref.ref(const) for const in code.co_consts if isinstance(const, CodeType))
        return code

    monkeypatch.setattr(sweep, "compile", recording_compile, raising=False)
    # the settling verify batch has seven live sets (n = 0, every job from
    # n = 1 on, and after each of the five sample counts at which items
    # leave), each compiled as one plan; the previous plan is gone before
    # the next one compiles
    direct_sums(_fixture_items(), CFG)
    assert len(sources) == 7
    assert max(alive) == 0
    # a one-job explicit sweep compiles one plan, and one more for n = 0,
    # one at a time
    alive.clear()
    direct_sum(parse_spec("S[2n-1^2 > 2n+1^1 > 0]"), OracleConfig(1_000, 2, 16))
    assert len(sources) == 7 + 1
    direct_sum(parse_spec("S[2n+1^2 >= 0]"), OracleConfig(1_000, 2, 16))
    assert len(sources) == 7 + 1 + 2
    assert alive == [0, 0, 0]
    assert all(plan() is None for plan in plans)
    for source in sources:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            assert token.type != tokenize.STRING, source
            if token.type == tokenize.NAME:
                assert keyword.iskeyword(token.string) or _PLAN_NAME.fullmatch(token.string), token
            if token.type == tokenize.NUMBER:
                assert token.string.isdigit(), token


def test_a_level_read_weak_and_strict_is_one_node(monkeypatch):
    # the bottom level 2n^1 from n = 1 is read at n - 1 by the first head,
    # at n by the second and at n - 1 by the level above it in the third
    # spec: one trie node, summed once, with one copy taken before its add
    sources = []

    def recording_compile(source, filename, mode):
        sources.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(sweep, "compile", recording_compile, raising=False)
    texts = ["S[2n^2 > 2n^1 > 0]", "S[2n^2 >= 2n^1 > 0]", "S[2n^2 >= 2n^1 > 2n^1 > 0]"]
    specs = [parse_spec(text) for text in texts]
    points = [1, 2, 7, 40, 300]
    F = _scale_bits(16)
    batch = _partial_sums([_job(spec) for spec in specs], points, 16)[0]
    assert batch == [_reference_partial_sums(spec, points, F) for spec in specs]
    (source,) = sources
    # the shared level reads 1 at the bottom, its child reads the copy
    shared = re.findall(r"^\s*v(\d+) \+= \d+ //", source, re.M)
    assert len(shared) == 1, source
    assert len(re.findall(r"^\s*v\d+ \+=", source, re.M)) == 2, source
    assert len(re.findall(r"^\s*u\d+ = ", source, re.M)) == 1, source
    assert re.search(rf"^\s*u{shared[0]} = v{shared[0]}$", source, re.M), source
    _assert_batch_matches_single(specs, points)


# Settle decisions: every terms_used of the verify items and of
# build_corpus(20) under the settling schedule, pinned from the mpf fit that
# the exact integer fit replaced.

_TERMS_DIGESTS = {
    16: "f4721b4352c5f47de2ada28be28f708d3b6446665ffb00229024a3ffa4999db3",
    20: "87bc378afe47b3413aadec7206ce80a294e86de245870175b11aac597771861d",
    25: "31fdf18cea462c54e463279a70de7296e83d400e359159a0db9f8340ab9381a4",
}


@pytest.mark.parametrize("digits", sorted(_TERMS_DIGESTS))
def test_settle_decisions_are_pinned(digits):
    cfg = OracleConfig(precision_digits=digits)
    results = direct_sums(_fixture_items(), cfg) + direct_sums(build_corpus(20), cfg)
    terms = " ".join(str(res.terms_used) for res in results)
    assert hashlib.sha256(terms.encode()).hexdigest() == _TERMS_DIGESTS[digits]


def test_exact_fit_at_the_target():
    # synthetic sums whose estimate lies within 2x of the target on either
    # side: the value is W . S and the estimate |(W - W') . S|, exact at
    # 2^-(F+G) and rounded once to G bits, and between two adjacent last
    # sums an item goes from settling to not
    job = _job(parse_spec("S[2n-1^2 > 2n^1 > 0]"))
    digits = 16
    F, G = _scale_bits(digits), oracle._fit_bits(digits)
    points = _checkpoints(125, 7)[:9]
    weights = {}
    w, w_prev = oracle._fit_weights(points, *oracle._tail(job), G, weights)
    diff = [u - v for u, v in zip(w, w_prev)]
    with mpmath.workdps(digits + 15):
        target = mpf(10) ** (1 - digits)
    # a constant tail fits with an estimate of about 0, and the estimate is
    # linear in the last sample
    base = [(1 << F) // 3] * len(points)

    def last_at(ratio):
        return base[-1] + int(mpmath.nint(ratio * target * 2 ** (F + G) / abs(diff[-1])))

    def estimate(last):
        sums = base[:-1] + [last]
        res = oracle._fit(job, points, sums, digits, weights)
        with mpmath.workprec(G):
            for got, exact in ((res.value, sum(u * s for u, s in zip(w, sums))),
                               (res.error_estimate, abs(sum(u * s for u, s in zip(diff, sums))))):
                assert got == mpmath.ldexp(mpf(exact), -(F + G))
                assert got._mpf_ == from_man_exp(exact, -(F + G), G, round_nearest)
        assert res.terms_used == points[-1] + 1
        return res.error_estimate

    for ratio in (0.5, 0.9, 0.99, 0.999999, 1.000001, 1.01, 1.1, 2):
        assert abs(estimate(last_at(ratio)) / target - ratio) < 1e-6, ratio
    lo, hi = last_at(0.99), last_at(1.01)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if estimate(mid) > target else (mid, hi)
    assert estimate(lo) <= target < estimate(hi)


def test_direct_sums_ignore_the_working_precision():
    # the fit's precision follows from the digits alone
    items = _fixture_items() + [parse_spec("S[2n^1 > 0]@x=1/2")]
    runs = []
    for dps in (15, 60):
        with mpmath.workdps(dps):
            runs.append([(res.value._mpf_, res.error_estimate._mpf_, res.terms_used)
                         for res in direct_sums(items, CFG)])
    assert runs[0] == runs[1]


def test_cached_basis_values_are_mpmath_pow():
    # every power and log power that the fits cache, multiplied as a basis
    # value, is mpf(N) ** mpf(e) * log(N) ** j bit for bit, and every row
    # entry is that quotient truncated to 2^-G
    for digits in (16, 25):
        caches = []
        fit_weights = oracle._fit_weights

        def recording(points, alpha, log_degree, bits, weights):
            caches.append((weights, bits))
            return fit_weights(points, alpha, log_degree, bits, weights)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_fit_weights", recording)
            direct_sums(_fixture_items(), OracleConfig(precision_digits=digits))
        weights, bits = caches[-1]
        assert all(cache is weights and at == bits for cache, at in caches)
        powers, logs = weights[("pow",)], weights[("log",)]
        exponents = {twice_e for twice_e, _ in powers}
        assert len(powers) > 100 and len(exponents) > 5 and min(exponents) < -10
        with mpmath.workprec(bits):

            def reference(twice_e, j, big_n):
                return mpf(big_n) ** mpf(float(Fraction(twice_e, 2))) * mpmath.log(big_n) ** j

            for (twice_e, big_n) in powers:
                for j in sorted(j for j, n in logs if n == big_n):
                    got = mpmath.libmp.mpf_mul(powers[twice_e, big_n], logs[j, big_n], bits,
                                               mpmath.libmp.round_nearest)
                    assert got == reference(twice_e, j, big_n)._mpf_, (twice_e, j, big_n)
            rows = [(key, row) for key, row in weights.items()
                    if isinstance(key[0], int) and len(key) == 3]
            assert len(rows) > 50
            for (twice_e, j, first), row in rows:
                top = reference(twice_e, j, first)
                for big_n, entry in row.items():
                    want = int(mpmath.ldexp(reference(twice_e, j, big_n) / top, bits))
                    assert entry == want, (twice_e, j, first, big_n)
