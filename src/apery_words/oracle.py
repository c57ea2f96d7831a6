"""Direct high-precision summation of series specs, with tail extrapolation.

One fixed-point kernel, `_partial_sums`, sums a batch of plain specs and
harmonic-weighted heads.  It runs over the outer index n once and keeps, for
every nesting level, the cumulative sum over that level's index (cost
O(N * depth)).  A plain spec is one chain of levels; a harmonic head has two,
the zh chain over n and the odd chain over 2n - 1.  Arithmetic is on Python
integers scaled by 2^F with F = ceil((digits + 15) * log2(10)) + 16 bits, 119
at 16 digits.

`direct_sums` turns each item into a job once, sweeps the jobs of one first
sample point in one batch and fits each item from its job; `direct_sum` and
`direct_harmonic_sum` are batches of one.  Per block of indices the batch
shares the a_n(x) column (one per distinct x, squared only if some item needs
it) and a base column m*n + c per distinct index, not its powers: dividing by
(m*n + c)^e takes e floor divisions by the base, exact as floor(floor(u/a)/b)
= floor(u/(ab)) for b > 0 and the base at n = 0 is 1 or -1 (an index 0 reads
as 1).  Chain levels form a trie keyed by the chain's start and its bottom-up
prefix, so a level common to several chains is accumulated once.  Items start
at different n (a tail bound, or the n = 0 term of a 2n+1 head); each reads a
start mask of exact 1s and 0s at its bottom level, or at its head if it has
no chain, which leaves every floor unchanged.  Items that differ only in
their head form a group, which builds the product column (a^p * tops) >> F
once per block, one group's column at a time; heads that share an index chain
their quotients in ascending exponent, and equal items are swept once.  The
scaled sums are bit-identical to a sweep of each item alone.

Every floor in the sweep rounds down by less than one ulp, 2^-F.  At index n,
a_n carries under 2n ulps and a level j steps above the bottom under j*n, and
the head's index power (>= n) divides both back down before they reach the
sum.  So each index loses under (2p + 1) T + depth + 1 ulps, with p the
binomial power and T the largest product of chain tops (a polylogarithm: below
500 for depth 4 at N = 3.2e5).  A sweep of that length stays within 2^31 ulps,
10^-(digits + 10), of the exact partial sum.

The tail beyond a sample N decays like N^(1-alpha) * ln(N)^j with the known
exponent alpha = s_1 + binom_power/2 and j < depth, so the extrapolation
fits the partial sums at N * 2^(i/2), i = 0..2L, against the basis
{1} + {N^(1-alpha-k) * ln(N)^j}; the error estimate is the change from the
fit with two basis functions fewer.  Both fits are linear in the samples S:
the value is w . S and the estimate |w . S - w' . S|, where w and w' depend
only on the sample points (whose count fixes the number of basis functions),
alpha and the log degree (generalized Richardson extrapolation; Sidi,
Practical Extrapolation Methods, 2003).  `direct_sums` solves for them once
per such key in a dict local to the call, by elimination on integers scaled
by 2^G, so each item costs two dot products.  The basis functions enter the
elimination as integer rows built once per function and sample, which the
fits over every prefix of one sample grid share.

The sweep is resumable: after each sample it asks which running items have
settled, and those leave it, with whatever only they read.  When the config
worked out its own levels, they are a cap: after every odd sample count
2L+1 >= 3 below the cap, each item with x = 1 is fitted on its samples so
far, and it settles at the first L whose estimate is at most 10^(1 - digits),
one unit in the last digit.  Its result is the one an explicit L-level
schedule gives, and its terms_used is its own last sample + 1; an item that
has not settled by the cap is swept and fitted in full.  Given levels are
always swept in full.  The fits of one sample count share their weights and
drop them before the sweep goes on; the basis rows stay for the next count,
beside half-size blocks.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate
from operator import floordiv
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
    """Samples at cutoff * 2^(i/2), i = 0..2L, L the levels.

    Left as None, the cutoff is 125 and L = max(7, (precision_digits + 25)
    // 6), and L is then a cap: each item (with x = 1) is fitted after every
    odd sample count 2l + 1 >= 3 and settles at the first l whose estimate
    is at most 10^(1 - digits), one unit in the last digit; only an item
    that has not settled by L is swept to cutoff * 2^L.  At the cap a level
    gains about 10^3, and on the bundled items every tail estimate stays
    10^3 under its 10^(-digits/2) budget (7 levels to 22 digits, 8 at 25, 10
    at 40).  Levels that are given are always swept in full.
    """

    cutoff: int | None = None
    extrapolation_levels: int | None = None
    precision_digits: int = 40
    _levels_are_cap: bool = field(default=False, init=False, repr=False)

    def __post_init__(self):
        if self.cutoff is None:
            self.cutoff = 125
        if self.extrapolation_levels is None:
            self.extrapolation_levels = max(7, (self.precision_digits + 25) // 6)
            self._levels_are_cap = True
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


def _checkpoints(first: int, levels: int) -> list[int]:
    """Sample points N * 2^(i/2), i = 0..2L, N = first: one sweep, 2L+1 samples.

    The half-steps cost nothing (the sweep reaches 2^L N anyway) and buy
    enough samples to fit the log-corrected tail basis at full depth.
    """
    if levels == 0:
        return [first // 2, first]
    return sorted({int(round(first * 2 ** (i / 2))) for i in range(2 * levels + 1)})


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
# digits and depth 3; 1024 took 0.4 MiB and was no faster).  A settling
# sweep takes half blocks: its fits' basis rows stay alive beside each
# block's columns, which at 256 took the verify batch's traced peak past
# that of the full sweep; the full sweep itself at 128 was about 1% slower
# on the benchmark's corpus workload, with 0.1 MiB more peak RSS
_BLOCK = 256


def _partial_sums(
    jobs: Sequence[_Job],
    points: list[int],
    digits: int,
    settled: Callable[[list[int], list[list[int]]], set[int]] | None = None,
) -> tuple[list[list[int]], int, int]:
    """The fixed-point sweep behind every direct sum, for a batch of jobs.

    Returns (per job, its partial sums scaled by 2^F at each of the
    ascending `points` N that it reached; F = _scale_bits(digits); the
    indices swept, the last point reached + 1).  The batch runs over n once,
    from its smallest start, in blocks of at most _BLOCK indices (half as
    many when it settles jobs).  Per block it builds each a_n(x) column (and
    its square) once per distinct x, and each base column m*n + c once, an
    index 0 (only at n = 0) read as 1.  A
    division by (m*n + c)^e is e floor divisions by the base with the same
    quotient: floor(floor(u/a)/b) = floor(u/(ab)) for b > 0, and at n = 0
    the base is 1 or -1, by which every floor is exact.
    Chain levels form a trie: a node is a start and a bottom-up prefix of
    levels, shared by every chain that begins with it.  A node's increments
    over the block are one list (the column it reads from its parent,
    divided by its index power), their running sums (seeded with the node's
    value before the block) are its values, and a child reads them shifted
    by one index when the link between them is strict.  A root reads 1 from
    its start on and 0 before, as does the head of a job without chains;
    since 0 // d = 0 and (u * 2^F) >> F = u, the masks leave every floor
    unchanged.  Jobs that differ only in their head form a group and share
    the product column (a^p * tops) >> F, built once per block; its heads
    divide it in ascending order, each going on from the quotient column of
    the head before it with the same (m, c).  Every floor and sum is the one
    the index-by-index recurrence takes, so the scaled sums depend neither on
    the blocking nor on the rest of the batch.
    With `settled`, the sweep calls settled(running, sums) after each point,
    with the positions of the jobs still running and every job's sums so
    far, and the jobs at the positions it returns leave: their sums end at
    that point, and a trie node, a_n column, base or product column that no
    running job reads is no longer built.  The sweep ends early once no job
    runs.
    """
    F = _scale_bits(digits)
    one = 1 << F
    n0 = min(job.start for job in jobs)
    # node -> its position; a parent enters before its children
    index: dict[tuple[int, tuple[_Level, ...]], int] = {}
    for job in jobs:
        for chain in job.chains:
            for i in range(1, len(chain) + 1):
                index.setdefault((job.start, chain[:i]), len(index))
    # per node: its parent's position (-1 at a root), its start and level
    nodes = [(index.get((start, prefix[:-1]), -1), start, prefix[-1]) for start, prefix in index]
    values = [0] * len(nodes)  # each node's value before the block

    def a_column(a: int, x2: int | None, lo: int, hi: int) -> list[int]:
        # a_lo(x), ..., a_(hi-1)(x) from a = a_(lo-1)(x), lo >= 1; x2 is None for x = 1
        col = []
        if x2 is None:
            for k in range(2 * lo - 1, 2 * hi - 1, 2):
                a = a * k // (k + 1)
                col.append(a)
        else:
            for k in range(2 * lo - 1, 2 * hi - 1, 2):
                a = (a * k // (k + 1) * x2) >> F
                col.append(a)
        return col

    # per x: [x^2 scaled by 2^F (None for 1), the last a_n(x)]
    xs = list(dict.fromkeys(job.x for job in jobs))
    a_at = []
    for x in xs:
        x2 = None if x == 1 else (x.numerator * x.numerator << F) // (x.denominator * x.denominator)
        a = one  # a_0 = 1
        for lo in range(1, n0, _BLOCK):
            a = a_column(a, x2, lo, min(lo + _BLOCK, n0))[-1]
        a_at.append([x2, a])
    # (x's position, binomial power - 1, start, its chain tops' nodes) ->
    # [(head, job position)] by head, so heads that share (m, c) ascend in q
    groups: dict[tuple, list[tuple[tuple[int, int, int], int]]] = {}
    for j, job in sorted(enumerate(jobs), key=lambda item: item[1].head):
        key = (xs.index(job.x), job.binom_power - 1, job.start,
               tuple(index[job.start, chain] for chain in job.chains))
        groups.setdefault(key, []).append((job.head, j))

    def reads() -> tuple[list[int], dict[int, bool], set[tuple[int, int]]]:
        # what the groups read: their trie nodes and those nodes' ancestors
        # in trie order, each x (whether squared) and the bases
        used: set[int] = set()
        for _, _, _, chain_nodes in groups:
            for node in chain_nodes:
                while node >= 0 and node not in used:
                    used.add(node)
                    node = nodes[node][0]
        squared: dict[int, bool] = {}
        for xi, p, _, _ in groups:
            squared[xi] = squared.get(xi, False) or p == 1
        live = sorted(used)
        bases = {head[:2] for members in groups.values() for head, _ in members}
        return live, squared, bases | {nodes[i][2][:2] for i in live}

    live, squared, bases = reads()
    totals = [0] * len(jobs)

    def block(lo: int, hi: int) -> None:
        # add indices lo..hi-1 to the running totals; the columns die on return
        a_cols = {}
        for xi, square in squared.items():
            state = a_at[xi]
            col = ([one] if lo == 0 else []) + a_column(state[1], state[0], max(lo, 1), hi)
            state[1] = col[-1]
            a_cols[xi] = (col, [(u * u) >> F for u in col] if square else None)
        # only n = 0 meets an index 0 (2n or n), and validate() leaves
        # nothing there to divide
        base = {(m, c): [m * lo + c or 1, *range(m * (lo + 1) + c, m * hi + c, m)]
                for m, c in bases}
        tops: list[list[int]] = [[]] * len(nodes)
        for i in live:
            parent, start, (m, c, e, weak) = nodes[i]
            if parent >= 0:
                t = tops[parent]
            elif start <= lo:
                t = [one] * (hi - lo)
            else:
                t = [one if n >= start else 0 for n in range(lo, hi)]
            for _ in range(e):
                t = list(map(floordiv, t, base[m, c]))
            col = list(accumulate(t, initial=values[i]))
            values[i] = col[-1]
            tops[i] = col[1:] if weak else col[:-1]
        # one group's product column lives at a time
        for (xi, p, start, chain_nodes), members in groups.items():
            w = a_cols[xi][p]
            if not chain_nodes and start > lo:
                w = [u if n >= start else 0 for u, n in zip(w, range(lo, hi))]
            # (w * t) // (L^q << F) == ((w * t) >> F) // L^q for L^q > 0;
            # at n = 0, where 2n - 1 = -1, w * t is a multiple of 2^F
            for node in chain_nodes:
                w = [(u * v) >> F for u, v in zip(w, tops[node])]
            quots = {}  # (m, c) -> its last head's q and quotient column
            for (m, c, q), j in members:
                q_done, quot = quots.get((m, c), (0, w))
                for _ in range(q - q_done):
                    quot = list(map(floordiv, quot, base[m, c]))
                quots[m, c] = q, quot
                totals[j] += sum(quot)

    sums: list[list[int]] = [[] for _ in jobs]
    running = list(range(len(jobs)))
    reached = 0
    size = _BLOCK if settled is None else _BLOCK // 2
    for point in points:
        while n0 <= point:
            lo, n0 = n0, min(n0 + size, point + 1)
            block(lo, n0)
        reached = point + 1
        for j in running:
            sums[j].append(totals[j])
        if settled is not None:
            done = settled(running, sums)
            if done:
                running = [j for j in running if j not in done]
                for key in list(groups):
                    groups[key] = [member for member in groups[key] if member[1] not in done]
                    if not groups[key]:
                        del groups[key]
                live, squared, bases = reads()
        if not running:
            break
    return sums, F, reached


# one dict per direct_sums call: (sample points, alpha, log degree) ->
# (w, w', G), and (exponent, log power, N_o) -> {N: that basis function at N
# over its value at N_o, an integer scaled by 2^G}
_Weights = dict[tuple, tuple | dict]


def _fit_weights(points: list[int], alpha: Fraction, log_degree: int, weights: _Weights):
    """Weights w, w' of the tail fit: its value is w . S, the previous level's w' . S.

    The fit solves M c = S for the samples S against the basis
    {1} + {N^(1-alpha-k) ln(N)^j, j = log_degree..0}, and its value is the
    constant c_0 = e_0 . M^-1 S, so w solves M^T w = e_0.  The basis
    functions beside the constant are one fewer than the samples, at least
    2; w' is the same fit with two fewer over the last samples, zero on the
    first two.  Both are integers scaled by 2^G, G the working precision in
    bits, which keeps them in a third of the memory of mpf values.  The rows
    of M^T are the basis functions over the samples a solve uses, scaled to
    1 at the first of them (the first sample for w, the third for w'): each
    entry phi(N) / phi(N_o), an mpf quotient at G bits truncated to 2^-G, is
    worked out once per call and kept in `weights` as an integer per
    (function, N_o, N).  So the fits over every prefix of one sample grid,
    and every key whose basis holds the function, share it.  The solve is
    elimination with partial pivoting on those integers and
    back-substitution, each multiplier (at most 1 by the pivoting), product
    and quotient floored to 2^-G.  A singular basis (alpha = 1) meets a zero
    pivot and raises.
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
        logs: dict[int, mpf] = {}
        phis: dict[tuple[Fraction, int, int], mpf] = {}

        def phi(expo: Fraction, j: int, big_n: int) -> mpf:
            if (expo, j, big_n) not in phis:
                if big_n not in logs:
                    logs[big_n] = mpmath.log(mpf(big_n))
                phis[expo, j, big_n] = mpf(big_n) ** mpf(float(expo)) * logs[big_n] ** j
            return phis[expo, j, big_n]

        def basis_row(expo: Fraction, j: int, offset: int) -> list[int]:
            first = points[offset]
            scaled = weights.setdefault((expo, j, first), {})
            for big_n in points[offset:]:
                if big_n not in scaled:
                    scaled[big_n] = int(mpmath.ldexp(phi(expo, j, big_n) / phi(expo, j, first), bits))
            return [scaled[big_n] for big_n in points[offset:]]

        def solve(m: int) -> list[int]:
            # columns of M scaled to 1 at the first sample they use, to keep
            # the elimination well posed; M^T holds them as rows, e_0 beside
            offset = len(points) - (m + 1)
            rows = [[1 << bits] * (m + 2)] + [
                basis_row(expo, j, offset) + [0] for expo, j in basis[:m]
            ]
            for p in range(m + 1):
                rows[p:] = sorted(rows[p:], key=lambda row: -abs(row[p]))
                pivot = rows[p]
                for row in rows[p + 1 :]:
                    f = (row[p] << bits) // pivot[p]
                    row[p:] = [u - (f * v >> bits) for u, v in zip(row[p:], pivot[p:])]
            w = [0] * (m + 1)
            for i in range(m, -1, -1):
                rest = sum(u * v for u, v in zip(rows[i][i + 1 :], w[i + 1 :])) >> bits
                w[i] = ((rows[i][m + 1] - rest) << bits) // rows[i][i]
            return [0] * offset + w

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
        weights[key] = _fit_weights(points, alpha, log_degree, weights)
    w, w_prev, bits = weights[key]
    with mpmath.extradps(25):
        last = mpmath.ldexp(mpmath.fdot(w, values), -bits)
        return last, abs(last - mpmath.ldexp(mpmath.fdot(w_prev, values), -bits))


def _fit(
    job: _Job,
    points: list[int],
    sums: list[int],
    F: int,
    digits: int,
    weights: _Weights,
) -> OracleResult:
    """Value and error estimate of `job` from its scaled partial sums at the
    first len(sums) of `points`.

    With two samples (no extrapolation levels), or with geometric decay in
    x^(2n), the last partial sum is the value and its step from the one
    before is the error; otherwise the tail is extrapolated.
    """
    points = points[: len(sums)]
    with workdps(digits + 15):
        one = mpf(1 << F)
        values = [mpf(s) / one for s in sums]
        if job.x != 1 or len(values) < 3:
            value, err = values[-1], abs(values[-1] - values[-2])
        else:
            # outer terms decay like n^-(q + p/2) times a polylog whose degree
            # is the number of chain levels: inner sums only grow
            # logarithmically, and their deficits shift the exponent by
            # integers
            alpha = Fraction(job.head[2]) + Fraction(job.binom_power, 2)
            log_degree = sum(len(chain) for chain in job.chains)
            value, err = _extrapolate(points, values, alpha, log_degree, weights)
        return OracleResult(value, err, points[-1] + 1)


def direct_sums(
    items: Sequence[SeriesSpec | HarmonicSpec], cfg: OracleConfig | None = None
) -> list[OracleResult]:
    """Directly sum every plain or harmonic-weighted series, one sweep per
    first sample point.

    Equal items are swept once.  When the config worked out its levels, they
    are a cap: after every odd sample count 2L+1 >= 3 below it, an item with
    x = 1 is fitted on its samples so far, and it settles, leaving the sweep
    with that fit as its result, at the first L whose estimate is at most
    10^(1 - digits), one unit in the last digit.  An item still running at
    the cap is fitted after the sweep, as under given levels.  Every
    result's estimate must be within the 10^(-digits/2) budget; a
    ConfigTooSmallError names the position of the first item that misses it
    in its `index`.
    """
    cfg = cfg or OracleConfig()
    digits = cfg.precision_digits
    F = _scale_bits(digits)
    jobs = {item: _job(item) for item in items}
    by_first: dict[int, list[_Job]] = {}
    for job in dict.fromkeys(jobs.values()):
        # the cutoff, but not before the job's start, and for x < 1 far enough
        # out that x^(2N) <= 10^-(digits + 3) at the last sample N
        first = max(cfg.cutoff, job.start)
        if job.x != 1:
            reach = (digits + 3) * math.log(10) / (-2 * math.log(job.x))
            first = max(first, math.ceil(reach / 2**cfg.extrapolation_levels))
        by_first.setdefault(first, []).append(job)
    with workdps(digits + 15):
        target, budget = mpf(10) ** (1 - digits), mpf(10) ** (-digits / 2)
    weights: _Weights = {}
    settled_at: dict[_Job, OracleResult] = {}
    swept = {}
    for first, group in by_first.items():
        points = _checkpoints(first, cfg.extrapolation_levels)

        # reads this group and its points: it runs only within their sweep
        def settled(running: list[int], sums: list[list[int]]) -> set[int]:
            count = len(sums[running[0]])
            if count < 3 or count % 2 == 0 or count == len(points):
                return set()
            fits = {j: _fit(group[j], points, sums[j], F, digits, weights)
                    for j in running if group[j].x == 1}
            # this count's fit weights are done with; the basis rows stay
            prefix = tuple(points[:count])
            for key in [key for key in weights if key[0] == prefix]:
                del weights[key]
            done = {j for j, result in fits.items() if result.error_estimate <= target}
            settled_at.update((group[j], fits[j]) for j in done)
            return done

        sums = _partial_sums(group, points, digits, settled if cfg._levels_are_cap else None)[0]
        swept.update((job, (points, job_sums)) for job, job_sums in zip(group, sums))
    results = []
    for index, item in enumerate(items):
        job = jobs[item]
        if job in settled_at:
            result = replace(settled_at[job])
        else:
            result = _fit(job, *swept[job], F, digits, weights)
        if result.error_estimate > budget:
            exc = ConfigTooSmallError(
                f"tail error estimate {mpmath.nstr(result.error_estimate, 5)} exceeds the "
                f"10^-{digits / 2:g} budget; raise cutoff or levels"
            )
            exc.index = index
            raise exc
        results.append(result)
    return results


def direct_sum(spec: SeriesSpec, cfg: OracleConfig | None = None) -> OracleResult:
    """Sum the nested series; the outer tail is removed by extrapolation."""
    return direct_sums([spec], cfg)[0]


def direct_harmonic_sum(h: HarmonicSpec, cfg: OracleConfig | None = None) -> OracleResult:
    """Directly sum a harmonic-weighted series (independent of expand_harmonic)."""
    return direct_sums([h], cfg)[0]
