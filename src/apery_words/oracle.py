"""Direct high-precision summation of series specs, with tail extrapolation.

One fixed-point kernel, `_sweep`, sums both plain specs and harmonic-weighted
heads.  It runs over the outer index n once and keeps, for every nesting
level, the cumulative sum over that level's index (cost O(N * depth)).  A
plain spec is one chain of levels; a harmonic head has two, the zh chain over
n and the odd chain over 2n - 1.  Arithmetic is on Python integers scaled by
2^F with F = ceil((digits + 15) * log2(10)) + 16 bits, 119 at 16 digits.

Every floor in the sweep rounds down by less than one ulp, 2^-F.  At index n,
a_n carries under 2n ulps and a level j steps above the bottom under j*n, and
the head's index power (>= n) divides both back down before they reach the
sum.  So each index loses under (2p + 1) T + depth + 1 ulps, with p the
binomial power and T the largest product of chain tops (a polylogarithm: below
500 for depth 4 at N = 3.2e5).  A sweep of that length stays within 2^31 ulps,
10^-(digits + 10), of the exact partial sum.

The tail beyond the cutoff decays like N^(1-alpha) * ln(N)^j with the known
exponent alpha = s_1 + binom_power/2 and j < depth, so the extrapolation
fits partial sums at N, 2N, ..., 2^L N against the basis
{1} + {N^(1-alpha-k) * ln(N)^j}; the error estimate is the change from the
previous extrapolation level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import mpmath
from mpmath import mpf, workdps

from .series import HarmonicSpec, Parity, Relation, SeriesSpec


class ConfigTooSmallError(ValueError):
    """The tail estimate is not credible at the requested precision."""


@dataclass
class OracleConfig:
    cutoff: int = 200_000
    extrapolation_levels: int = 4
    precision_digits: int = 40

    def __post_init__(self):
        if self.cutoff < 100:
            raise ValueError("cutoff must be >= 100")
        if self.precision_digits < 15:
            raise ValueError("precision_digits must be >= 15")
        if self.extrapolation_levels < 0:
            raise ValueError("extrapolation_levels must be >= 0")


@dataclass
class OracleResult:
    value: mpf
    error_estimate: mpf
    terms_used: int


def _scale_bits(digits: int) -> int:
    return int(math.ceil((digits + 15) * math.log2(10))) + 16


def _checkpoints(cfg: OracleConfig) -> list[int]:
    """Sample points N * 2^(i/2), i = 0..2L: one sweep, 2L+1 samples.

    The half-steps cost nothing (the sweep reaches 2^L N anyway) and buy
    enough samples to fit the log-corrected tail basis at full depth.
    """
    if cfg.extrapolation_levels == 0:
        return [cfg.cutoff // 2, cfg.cutoff]
    out = []
    for i in range(2 * cfg.extrapolation_levels + 1):
        out.append(int(round(cfg.cutoff * 2 ** (i / 2))))
    return sorted(set(out))


def central_ratio(n: int, x: Fraction | float = Fraction(1), digits: int = 40):
    """a_n(x) = binom(2n, n) x^(2n) / 4^n by the ratio recurrence."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x = Fraction(x)
    F = _scale_bits(digits)
    one = 1 << F
    x2 = (x.numerator * x.numerator << F) // (x.denominator * x.denominator)
    a = one
    for k in range(1, n + 1):
        a = a * (2 * k - 1) // (2 * k)
        if x2 != one:
            a = (a * x2) >> F
    with workdps(digits + 15):
        return mpf(a) / mpf(one)


# one nesting level of the sweep: the index m*n + c, that index's exponent,
# and whether the level above reads this level's sum at n itself (a weak
# link, >=) or at n - 1 (a strict link, >)
_Level = tuple[int, int, int, bool]

# indices per block: long enough to spread each level's per-block set-up,
# short enough that the block's columns stay small (about 0.1 MiB at 16
# digits and depth 3; 1024 took 0.4 MiB and was no faster)
_BLOCK = 256


def _sweep(
    head: tuple[int, int, int],
    chains: list[list[_Level]],
    start: int,
    binom_power: int,
    x: Fraction,
    F: int,
    points: list[int],
) -> list[int]:
    """The fixed-point sweep behind both direct_sum and direct_harmonic_sum.

    Returns, at each of the ascending `points` N, the partial sum scaled by
    2^F of  sum_{n <= N} a_n(x)^p * prod(top of each chain at n) / head(n)^q,
    where head = (m, c, q) stands for (m*n + c)^q.  A chain is a list of
    levels in bottom-up order; each level keeps the cumulative sum over its
    index of (the value it reads from the level below) / index^exponent.
    The bottom level reads 1 from n = start on, and so does the head from
    an empty chain.

    The sweep runs in blocks of at most _BLOCK indices, one level at a time:
    a level's increments over the block are one list, their running sums
    (seeded with the level's value before the block) are its values, and
    the level above reads them shifted by one index when its link is strict.
    Every floor and sum is the one the index-by-index recurrence takes, so
    the scaled sums do not depend on the blocking.
    """
    one = 1 << F
    x2 = (x.numerator * x.numerator << F) // (x.denominator * x.denominator)
    x_is_one = x == 1
    # an empty chain reads 1 at every index, which leaves the product as it is
    chains = [chain for chain in chains if chain]
    cums = [[0] * len(chain) for chain in chains]
    exponents = {head} | {(m, c, e) for chain in chains for m, c, e, _ in chain}
    sums = [0 for pt in points if pt < start]
    a = one  # a_0 = 1
    for n in range(1, start):
        a = a * (2 * n - 1) // (2 * n)
        if not x_is_one:
            a = (a * x2) >> F
    s_total = 0
    n0 = start
    for point in points[len(sums):]:
        while n0 <= point:
            ns = range(n0, min(n0 + _BLOCK, point + 1))
            n0 = ns.stop
            a_col = []
            for n in ns:
                if n:
                    a = a * (2 * n - 1) // (2 * n)
                    if not x_is_one:
                        a = (a * x2) >> F
                a_col.append(a)
            powers = {(m, c, e): [(m * n + c) ** e for n in ns] for m, c, e in exponents}
            if not ns[0]:
                # only n = 0 meets an index 2n = 0, and validate() leaves
                # nothing there to divide
                for col in powers.values():
                    col[0] = col[0] or 1
            w = a_col if binom_power == 1 else [(u * u) >> F for u in a_col]
            for chain, cum in zip(chains, cums):
                t = [one] * len(ns)
                for i, (m, c, e, weak) in enumerate(chain):
                    col = list(accumulate([u // d for u, d in zip(t, powers[m, c, e])], initial=cum[i]))
                    cum[i] = col[-1]
                    t = col[1:] if weak else col[:-1]
                w = [(u * v) >> F for u, v in zip(w, t)]
            # (w * t) // (L^q << F) == ((w * t) >> F) // L^q for L^q > 0; at
            # n = 0, where 2n - 1 = -1, w * t is a multiple of 2^F
            s_total += sum([u // d for u, d in zip(w, powers[head])])
        sums.append(s_total)
    return sums


def _partial_sums(
    spec: SeriesSpec, checkpoints: list[int], digits: int = 60
) -> tuple[list[int], int, int]:
    """Fixed-point partial sums of the outer sweep at the given checkpoints.

    Returns (scaled sums, scale bits F, terms swept).
    """
    F = _scale_bits(digits)
    rels = spec.relations
    # 2n, 2n+1 and 2n-1 are 2n + l(0)
    chain = [
        (2, term.parity.index_value(0), term.exponent, rels[j - 1] is Relation.WEAK)
        for j, term in reversed(list(enumerate(spec.terms)))
        if j
    ]
    head = (2, spec.terms[0].parity.index_value(0), spec.terms[0].exponent)
    bottom_start = spec.tail_bound + (1 if rels[-1] is Relation.STRICT else 0)
    points = sorted(set(checkpoints))
    sums = _sweep(head, [chain], bottom_start, spec.binom_power, spec.argument, F, points)
    at = dict(zip(points, sums))
    return [at[pt] for pt in checkpoints], F, points[-1] + 1


def _extrapolate(
    points: list[int],
    values: list[mpf],
    alpha: Fraction,
    log_degree: int,
    levels: int,
):
    """Fit {1} + {N^(1-alpha-k) ln(N)^j, j = log_degree..0} to the samples."""
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
    previous = solve(max(levels - 2, 0)) if levels >= 1 else values[-1]
    return last, abs(last - previous)


def _settle(
    points: list[int],
    sums: list[int],
    F: int,
    alpha: Fraction | None,
    log_degree: int,
    digits: int,
) -> tuple[mpf, mpf]:
    """Value and error estimate from the scaled partial sums at `points`.

    With alpha None the sum has converged geometrically and the last step is
    the error; otherwise the tail is extrapolated.  Raises ConfigTooSmallError
    when the estimate exceeds the 10^(-digits/2) budget.
    """
    one = mpf(1 << F)
    values = [mpf(s) / one for s in sums]
    if alpha is None:
        value, err = values[-1], abs(values[-1] - values[-2])
    else:
        value, err = _extrapolate(points, values, alpha, log_degree, len(points) - 1)
    if err > mpf(10) ** (-digits / 2):
        raise ConfigTooSmallError(
            f"tail error estimate {mpmath.nstr(err, 5)} exceeds the "
            f"10^-{digits / 2:g} budget; raise cutoff or levels"
        )
    return value, err


def direct_sum(spec: SeriesSpec, cfg: OracleConfig | None = None) -> OracleResult:
    """Sum the nested series; the outer tail is removed by extrapolation."""
    cfg = cfg or OracleConfig()
    with workdps(cfg.precision_digits + 15):
        if spec.tail_bound >= cfg.cutoff:
            return OracleResult(mpf(0), mpf(0), 0)
        points = _checkpoints(cfg)
        sums, F, swept = _partial_sums(spec, points, cfg.precision_digits)
        if spec.argument != 1 or cfg.extrapolation_levels == 0:
            # geometric decay in x^(2n): the partial sum is already converged
            alpha = None
        else:
            # outer terms decay like n^-(s_1 + p/2) times polylog: inner sums
            # only grow logarithmically, and their deficits shift the exponent
            # by integers
            alpha = Fraction(spec.terms[0].exponent) + Fraction(spec.binom_power, 2)
        value, err = _settle(points, sums, F, alpha, spec.depth - 1, cfg.precision_digits)
        return OracleResult(value, err, swept)


def gamma_tail_check(n: int, d: int, cfg: OracleConfig | None = None):
    """Tail sum over n_1 > ... > n_d > n of a_{n_1}/((2n_1-1)...(2n_d-1)).

    Compare against central_ratio(n, 1): the two agree exactly.
    """
    from .series import IndexTerm

    spec = SeriesSpec(
        1,
        tuple(IndexTerm(Parity.ODD_LOW, 1) for _ in range(d)),
        tuple(Relation.STRICT for _ in range(d)),
        tail_bound=n,
    )
    return direct_sum(spec, cfg).value


def _harmonic_partial_sums(h: HarmonicSpec, points: list[int], F: int) -> list[int]:
    """Scaled partial sums of a harmonic-weighted head at the ascending points."""
    # zh_n(k) sums over n >= m_1 > ... > m_e > 0 and odd_n(l) over
    # n >= r_1 > ... > r_f > 0 with index 2r - 1: the head reads both tops at
    # n, every other level reads the one below at n - 1, both bottoms start
    # at 1
    zh = [(1, 0, k, j == 0) for j, k in reversed(list(enumerate(h.k_vec)))]
    odd = [(2, -1, l, j == 0) for j, l in reversed(list(enumerate(h.l_vec)))]
    # EVEN heads divide by n^q (expand_harmonic's 2^q factor is the rewrite
    # to (2n)^q); odd heads divide by 2n+1 or 2n-1.  Only a 2n+1 head without
    # weights has an n = 0 term
    m, c = (1, 0) if h.head_parity is Parity.EVEN else (2, h.head_parity.index_value(0))
    start = 0 if h.head_parity is Parity.ODD_HIGH and not (h.k_vec or h.l_vec) else 1
    return _sweep((m, c, h.head_exponent), [zh, odd], start, h.binom_power, Fraction(1), F, points)


def direct_harmonic_sum(h: HarmonicSpec, cfg: OracleConfig | None = None) -> OracleResult:
    """Directly sum a harmonic-weighted series (independent of expand_harmonic)."""
    cfg = cfg or OracleConfig()
    with workdps(cfg.precision_digits + 15):
        points = _checkpoints(cfg) if cfg.extrapolation_levels else _checkpoints(
            OracleConfig(cfg.cutoff, 1, cfg.precision_digits)
        )
        F = _scale_bits(cfg.precision_digits)
        sums = _harmonic_partial_sums(h, points, F)
        alpha = Fraction(h.head_exponent) + Fraction(h.binom_power, 2)
        log_degree = len(h.k_vec) + len(h.l_vec)
        value, err = _settle(points, sums, F, alpha, log_degree, cfg.precision_digits)
        return OracleResult(value, err, points[-1] + 1)
