"""Direct high-precision summation of series specs, with tail extrapolation.

One fixed-point kernel, `_partial_sums`, sums a batch of plain specs and
harmonic-weighted heads.  It runs over the outer index n once and keeps, for
every nesting level, the cumulative sum over that level's index (cost
O(N * depth)).  A plain spec is one chain of levels; a harmonic head has two,
the zh chain over n and the odd chain over 2n - 1.  Arithmetic is on Python
integers scaled by 2^F with F = ceil((digits + 15) * log2(10)) + 16 bits, 119
at 16 digits.

`direct_sums` turns each item into a job once, hands the kernel a whole batch
at one configuration and settles every item from its job; `direct_sum` and
`direct_harmonic_sum` are batches of one.  Per block of indices the batch
shares the a_n(x) column (one per distinct x, squared only if some item needs
it) and each distinct index power column.  Chain levels form a trie keyed by
the chain's start and its bottom-up prefix, so a level common to several
chains is accumulated once.  Items start at different n (a tail bound, or the
n = 0 term of a 2n+1 head); each reads a start mask of exact 1s and 0s at its
bottom level, or at its head if it has no chain, which leaves every floor
unchanged.  Items that differ only in their head form a group, which builds
the product column (a^p * tops) >> F once per block, one group's column at a
time; only its division by head^q is per item, and equal items are swept
once.  The scaled sums are bit-identical to a sweep of each item alone.

Every floor in the sweep rounds down by less than one ulp, 2^-F.  At index n,
a_n carries under 2n ulps and a level j steps above the bottom under j*n, and
the head's index power (>= n) divides both back down before they reach the
sum.  So each index loses under (2p + 1) T + depth + 1 ulps, with p the
binomial power and T the largest product of chain tops (a polylogarithm: below
500 for depth 4 at N = 3.2e5).  A sweep of that length stays within 2^31 ulps,
10^-(digits + 10), of the exact partial sum.

The tail beyond the cutoff decays like N^(1-alpha) * ln(N)^j with the known
exponent alpha = s_1 + binom_power/2 and j < depth, so the extrapolation
fits the partial sums at N * 2^(i/2), i = 0..2L, against the basis
{1} + {N^(1-alpha-k) * ln(N)^j}; the error estimate is the change from the
fit with two basis functions fewer.  Both fits are linear in the samples S:
the value is w . S and the estimate |w . S - w' . S|, where w and w' depend
only on the sample points (whose count fixes the number of basis functions),
alpha and the log degree (generalized Richardson extrapolation; Sidi,
Practical Extrapolation Methods, 2003).  `direct_sums` solves for them once
per such key in a dict local to the call, so each item costs two dot
products.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

import mpmath
from mpmath import mpf, workdps

from .series import HarmonicSpec, Parity, Relation, SeriesSpec


class ConfigTooSmallError(ValueError):
    """The tail estimate is not credible at the requested precision.

    Raised by direct_sums, `index` is the batch position of the failing item.
    """

    index: int | None = None


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


class _Job(NamedTuple):
    """One sum for the kernel: sum_{n >= start} a_n(x)^p * tops / head(n)^q.

    head = (m, c, q) stands for (m*n + c)^q.  A chain is a nonempty tuple of
    levels in bottom-up order; its bottom reads 1 from n = start on, and so
    does the head of a job without chains.
    """

    head: tuple[int, int, int]
    chains: tuple[tuple[_Level, ...], ...]
    start: int
    binom_power: int
    x: Fraction


def _job(item: SeriesSpec | HarmonicSpec) -> _Job:
    if isinstance(item, HarmonicSpec):
        # zh_n(k) sums over n >= m_1 > ... > m_e > 0 and odd_n(l) over
        # n >= r_1 > ... > r_f > 0 with index 2r - 1: the head reads both
        # tops at n, every other level reads the one below at n - 1, both
        # bottoms start at 1
        zh = tuple((1, 0, k, j == 0) for j, k in reversed(list(enumerate(item.k_vec))))
        odd = tuple((2, -1, l, j == 0) for j, l in reversed(list(enumerate(item.l_vec))))
        # EVEN heads divide by n^q (expand_harmonic's 2^q factor is the
        # rewrite to (2n)^q); odd heads divide by 2n+1 or 2n-1.  Only a 2n+1
        # head without weights has an n = 0 term
        parity = item.head_parity
        m, c = (1, 0) if parity is Parity.EVEN else (2, parity.index_value(0))
        start = 0 if parity is Parity.ODD_HIGH and not (zh or odd) else 1
        chains = tuple(chain for chain in (zh, odd) if chain)
        return _Job((m, c, item.head_exponent), chains, start, item.binom_power, Fraction(1))
    rels = item.relations
    # 2n, 2n+1 and 2n-1 are 2n + l(0)
    chain = tuple(
        (2, term.parity.index_value(0), term.exponent, rels[j - 1] is Relation.WEAK)
        for j, term in reversed(list(enumerate(item.terms)))
        if j
    )
    head = (2, item.terms[0].parity.index_value(0), item.terms[0].exponent)
    start = item.tail_bound + (1 if rels[-1] is Relation.STRICT else 0)
    return _Job(head, (chain,) if chain else (), start, item.binom_power, item.argument)


# indices per block: long enough to spread each level's per-block set-up,
# short enough that the block's columns stay small (about 0.1 MiB at 16
# digits and depth 3; 1024 took 0.4 MiB and was no faster)
_BLOCK = 256


def _partial_sums(
    jobs: Sequence[_Job], points: list[int], digits: int
) -> tuple[list[list[int]], int, int]:
    """The fixed-point sweep behind every direct sum, for a batch of jobs.

    Returns (per job, its partial sums scaled by 2^F at each of the
    ascending `points` N; F = _scale_bits(digits); the indices swept,
    points[-1] + 1).  The batch runs over n once, from its smallest start,
    in blocks of at most _BLOCK indices.  Per block it builds each
    a_n(x) column (and its square) once per distinct x, and each index power
    column (m*n + c)^e once.  Chain levels form a trie: a node is a start and
    a bottom-up prefix of levels, shared by every chain that begins with it.
    A node's increments over the block are one list (the column it reads
    from its parent, divided by its index power), their running sums (seeded
    with the node's value before the block) are its values, and a child
    reads them shifted by one index when the link between them is strict.
    A root reads 1 from its start on and 0 before, as does the head of a job
    without chains; since 0 // d = 0 and (u * 2^F) >> F = u, the masks leave
    every floor unchanged.  Jobs that differ only in their head form a group
    and share the product column (a^p * tops) >> F, built once per block;
    only its division by the head's power is per job.  Every floor and sum
    is the one the index-by-index recurrence takes, so the scaled sums
    depend neither on the blocking nor on the rest of the batch.
    """
    F = _scale_bits(digits)
    one = 1 << F
    n0 = min(job.start for job in jobs)
    # node -> its value before the block; a parent enters before its children
    nodes: dict[tuple[int, tuple[_Level, ...]], int] = {}
    for job in jobs:
        for chain in job.chains:
            for i in range(1, len(chain) + 1):
                nodes.setdefault((job.start, chain[:i]), 0)
    exponents = {job.head for job in jobs} | {prefix[-1][:3] for _, prefix in nodes}
    squared = {job.x for job in jobs if job.binom_power == 2}
    # x -> [x^2 scaled by 2^F, the last a_n(x) reached]
    a_at: dict[Fraction, list[int]] = {}
    for x in {job.x for job in jobs}:
        x2 = (x.numerator * x.numerator << F) // (x.denominator * x.denominator)
        x_is_one = x == 1
        a = one  # a_0 = 1
        for n in range(1, n0):
            a = a * (2 * n - 1) // (2 * n)
            if not x_is_one:
                a = (a * x2) >> F
        a_at[x] = [x2, a]
    # (x, binomial power, start, chains) -> [(job position, head)]
    groups: dict[tuple, list[tuple[int, tuple[int, int, int]]]] = {}
    for j, job in enumerate(jobs):
        groups.setdefault((job.x, job.binom_power, job.start, job.chains), []).append((j, job.head))
    totals = [0] * len(jobs)
    sums: list[list[int]] = [[] for _ in jobs]
    for point in points:
        while n0 <= point:
            ns = range(n0, min(n0 + _BLOCK, point + 1))
            n0 = ns.stop
            a_cols = {}
            for x, state in a_at.items():
                x2, a = state
                x_is_one = x == 1
                col = []
                for n in ns:
                    if n:
                        a = a * (2 * n - 1) // (2 * n)
                        if not x_is_one:
                            a = (a * x2) >> F
                    col.append(a)
                state[1] = a
                a_cols[x, 1] = col
                if x in squared:
                    a_cols[x, 2] = [(u * u) >> F for u in col]
            powers = {(m, c, e): [(m * n + c) ** e for n in ns] for m, c, e in exponents}
            if not ns[0]:
                # only n = 0 meets an index 2n = 0, and validate() leaves
                # nothing there to divide
                for col in powers.values():
                    col[0] = col[0] or 1
            tops = {}
            for node, before in nodes.items():
                start, prefix = node
                m, c, e, weak = prefix[-1]
                if len(prefix) > 1:
                    t = tops[start, prefix[:-1]]
                elif start <= ns[0]:
                    t = [one] * len(ns)
                else:
                    t = [one if n >= start else 0 for n in ns]
                col = list(accumulate([u // d for u, d in zip(t, powers[m, c, e])], initial=before))
                nodes[node] = col[-1]
                tops[node] = col[1:] if weak else col[:-1]
            # one group's product column lives at a time
            for (x, binom_power, start, chains), members in groups.items():
                w = a_cols[x, binom_power]
                if not chains and start > ns[0]:
                    w = [u if n >= start else 0 for u, n in zip(w, ns)]
                # (w * t) // (L^q << F) == ((w * t) >> F) // L^q for L^q > 0;
                # at n = 0, where 2n - 1 = -1, w * t is a multiple of 2^F
                for chain in chains:
                    w = [(u * v) >> F for u, v in zip(w, tops[start, chain])]
                for j, head in members:
                    totals[j] += sum([u // d for u, d in zip(w, powers[head])])
        for job_sums, total in zip(sums, totals):
            job_sums.append(total)
    return sums, F, points[-1] + 1


# (sample points, alpha, log degree) -> (w, w', G); one dict per direct_sums
# call
_Weights = dict[tuple[tuple[int, ...], Fraction, int], tuple[list[int], list[int], int]]


def _fit_weights(points: list[int], alpha: Fraction, log_degree: int):
    """Weights w, w' of the tail fit: its value is w . S, the previous level's w' . S.

    The fit solves M c = S for the samples S against the basis
    {1} + {N^(1-alpha-k) ln(N)^j, j = log_degree..0}, and its value is the
    constant c_0 = e_0 . M^-1 S, so w solves M^T w = e_0.  The basis
    functions beside the constant are one fewer than the samples, at least
    2; w' is the same fit with two fewer over the last samples, zero on the
    first two.  Both are integers scaled by 2^G, G the working precision in
    bits, which keeps them in a third of the memory of mpf values.
    """
    levels = len(points) - 1
    basis = []
    k = 0
    while len(basis) < levels:
        for j in range(log_degree, -1, -1):
            basis.append((1 - alpha - k, j))
            if len(basis) == levels:
                break
        k += 1
    with mpmath.extradps(25):
        bits = mpmath.mp.prec
        logs = [mpmath.log(mpf(big_n)) for big_n in points]
        columns = [
            [mpf(big_n) ** mpf(float(expo)) * log**j for big_n, log in zip(points, logs)]
            for expo, j in basis
        ]

        def solve(m: int) -> list[int]:
            # columns of M scaled to 1 at the first sample to keep the LU
            # well posed; M^T holds them as rows
            offset = len(points) - (m + 1)
            mat_t = mpmath.matrix(m + 1, m + 1)
            unit = mpmath.matrix(m + 1, 1)
            unit[0] = mpf(1)
            for i in range(m + 1):
                mat_t[0, i] = mpf(1)
                for b, phi in enumerate(columns[:m]):
                    mat_t[b + 1, i] = phi[offset + i] / phi[offset]
            w = mpmath.lu_solve(mat_t, unit)
            return [0] * offset + [int(mpmath.ldexp(u, bits)) for u in w]

        return solve(levels), solve(levels - 2), bits


def _extrapolate(
    points: list[int],
    values: list[mpf],
    alpha: Fraction,
    log_degree: int,
    weights: _Weights,
):
    """The tail fit's value and estimate, |w . S - w' . S|, for samples S.

    The weights come from `weights`, solved there once per key.
    """
    key = (tuple(points), alpha, log_degree)
    if key not in weights:
        weights[key] = _fit_weights(points, alpha, log_degree)
    w, w_prev, bits = weights[key]
    with mpmath.extradps(25):
        last = mpmath.ldexp(mpmath.fdot(w, values), -bits)
        return last, abs(last - mpmath.ldexp(mpmath.fdot(w_prev, values), -bits))


def _settle(
    job: _Job,
    points: list[int],
    sums: list[int],
    F: int,
    cfg: OracleConfig,
    weights: _Weights,
) -> OracleResult:
    """Value and error estimate of `job` from its scaled partial sums.

    With no extrapolation levels, or with geometric decay in x^(2n), the last
    partial sum is the value and its step from the one before is the error;
    otherwise the tail is extrapolated.  Raises ConfigTooSmallError when the
    estimate exceeds the 10^(-digits/2) budget.
    """
    digits = cfg.precision_digits
    with workdps(digits + 15):
        one = mpf(1 << F)
        values = [mpf(s) / one for s in sums]
        if job.x != 1 or cfg.extrapolation_levels == 0:
            value, err = values[-1], abs(values[-1] - values[-2])
        else:
            # outer terms decay like n^-(q + p/2) times a polylog whose degree
            # is the number of chain levels: inner sums only grow
            # logarithmically, and their deficits shift the exponent by
            # integers
            alpha = Fraction(job.head[2]) + Fraction(job.binom_power, 2)
            log_degree = sum(len(chain) for chain in job.chains)
            value, err = _extrapolate(points, values, alpha, log_degree, weights)
        if err > mpf(10) ** (-digits / 2):
            raise ConfigTooSmallError(
                f"tail error estimate {mpmath.nstr(err, 5)} exceeds the "
                f"10^-{digits / 2:g} budget; raise cutoff or levels"
            )
        return OracleResult(value, err, points[-1] + 1)


def direct_sums(
    items: Sequence[SeriesSpec | HarmonicSpec], cfg: OracleConfig | None = None
) -> list[OracleResult]:
    """Directly sum every plain or harmonic-weighted series in one sweep.

    Equal items are swept once; a plain spec whose tail bound reaches the
    cutoff sums to 0 unswept.  A ConfigTooSmallError names the position of
    the first item that raised it in its `index`.
    """
    cfg = cfg or OracleConfig()
    points = _checkpoints(cfg)
    jobs = {
        item: _job(item)
        for item in items
        if isinstance(item, HarmonicSpec) or item.tail_bound < cfg.cutoff
    }
    unique = list(dict.fromkeys(jobs.values()))
    sums, F, _ = _partial_sums(unique, points, cfg.precision_digits) if unique else ([], 0, 0)
    swept = dict(zip(unique, sums))
    weights: _Weights = {}
    results = []
    for index, item in enumerate(items):
        if item not in jobs:
            results.append(OracleResult(mpf(0), mpf(0), 0))
            continue
        job = jobs[item]
        try:
            results.append(_settle(job, points, swept[job], F, cfg, weights))
        except ConfigTooSmallError as exc:
            exc.index = index
            raise
    return results


def direct_sum(spec: SeriesSpec, cfg: OracleConfig | None = None) -> OracleResult:
    """Sum the nested series; the outer tail is removed by extrapolation."""
    return direct_sums([spec], cfg)[0]


def direct_harmonic_sum(h: HarmonicSpec, cfg: OracleConfig | None = None) -> OracleResult:
    """Directly sum a harmonic-weighted series (independent of expand_harmonic)."""
    return direct_sums([h], cfg)[0]
