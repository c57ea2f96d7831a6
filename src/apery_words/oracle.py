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
`direct_harmonic_sum` are batches of one.  The sweep runs loops over
k = 2n - 1 per segment of indices, generated by `sweep.compile_plan`, whose
locals hold each distinct x's a_n(x), the running sum of each level of a
trie of chain levels (a level common to several chains is accumulated once),
and the product (a^p * tops) >> F of each group of items that differ only in
their head with its heads' quotients; each loop covers the groups of at most
about `_PLAN_JOBS` items.  Equal items are swept once, and the scaled sums
are bit-identical to a sweep of each item alone.

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
fits over every prefix of one sample grid share, as every key of the call
shares the logarithms and basis values behind them.

The sweep is resumable: after each sample it asks which running items have
settled, and those leave it, with whatever only they read.  When the config
worked out its own levels, they are a cap: after every odd sample count
2L+1 >= 3 below the cap, each item with x = 1 is fitted on its samples so
far, and it settles at the first L whose estimate is at most 10^(1 - digits),
one unit in the last digit.  Its result is the one an explicit L-level
schedule gives, and its terms_used is its own last sample + 1; an item that
has not settled by the cap is swept and fitted in full.  Given levels are
always swept in full.  The fits of one sample count share their weights and
drop them before the sweep goes on; the basis rows stay for the next count.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple

import mpmath
from mpmath import mpf, workdps
from mpmath.libmp import from_int

from .series import HarmonicSpec, Parity, Relation, SeriesSpec
from .sweep import compile_plan


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


# jobs per compiled plan: compiling takes about 4 KiB per generated line
# while it runs, which on a batch of 72 verify jobs in one plan raised the
# process's peak memory; plans apart repeat only their a_n(x) steps and the
# trie nodes they share, which cost no measurable time on that batch
_PLAN_JOBS = 16


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
    from 0 if a job starts there and from 1 otherwise, in segments that end
    at each point, at each job start and after n = 0.  Each segment runs the
    loops that `sweep.compile_plan` compiles for the jobs that have started
    and still run, one per run of groups with at least _PLAN_JOBS jobs (the
    last with fewer), compiled anew only when that set changes; the plans of
    one set alone are alive.  The state between segments is the last a_n(x)
    of every x a running job reads (stepped from the first index on, also
    before that job starts, by the first plan), each trie node's value and
    each job's total.  Plans that share an x or a node each advance their
    copy alike.  A trie node is a start and a bottom-up prefix of chain
    levels, shared by every chain that begins with it.  Dividing by
    (m*n + c)^e takes e floor divisions by the base, exact as
    floor(floor(u/a)/b) = floor(u/(ab)) for b > 0 and the base at n = 0 is
    1 or -1.  Every floor and sum is the one the index-by-index
    recurrence takes, so the scaled sums depend neither on the segments nor
    on the rest of the batch.
    With `settled`, the sweep calls settled(running, sums) after each point,
    with the positions of the jobs still running and every job's sums so
    far, and the jobs at the positions it returns leave: their sums end at
    that point, and the next plans read nothing that only they read.  The
    sweep ends early once no job runs.
    """
    F = _scale_bits(digits)
    # node -> its position; a parent enters before its children
    index: dict[tuple[int, tuple[_Level, ...]], int] = {}
    for job in jobs:
        for chain in job.chains:
            for i in range(1, len(chain) + 1):
                index.setdefault((job.start, chain[:i]), len(index))
    # per node: its parent's position (-1 at a root), its start and level
    nodes = [(index.get((start, prefix[:-1]), -1), start, prefix[-1]) for start, prefix in index]
    xs = list(dict.fromkeys(job.x for job in jobs))
    x2 = [None if x == 1 else (x.numerator * x.numerator << F) // (x.denominator * x.denominator)
          for x in xs]
    x_at = [xs.index(job.x) for job in jobs]
    # (x's position, binomial power - 1, start, its chain tops' nodes) ->
    # [(head, job position)] by head, so heads that share (m, c) ascend in q
    groups: dict[tuple, list[tuple[tuple[int, int, int], int]]] = {}
    for j, job in sorted(enumerate(jobs), key=lambda item: item[1].head):
        key = (x_at[j], job.binom_power - 1, job.start,
               tuple(index[job.start, chain] for chain in job.chains))
        groups.setdefault(key, []).append((job.head, j))
    # the state between segments by its names in the plans, a_0 = 1
    state = dict.fromkeys([f"a{i}" for i in range(len(xs))], 1 << F)
    state.update(dict.fromkeys([f"v{i}" for i in range(len(nodes))], 0))
    state.update(dict.fromkeys([f"t{j}" for j in range(len(jobs))], 0))
    sums: list[list[int]] = [[] for _ in jobs]
    running = list(range(len(jobs)))
    # besides the points, a segment ends at each start and after n = 0; the
    # sweep begins at 0 only if a job starts there
    cuts = sorted({job.start for job in jobs} | {1})
    n = cuts[0]
    plans, plan_key = [], None
    reached = 0
    for point in points:
        while n <= point:
            hi = min([point + 1] + [cut for cut in cuts if cut > n])
            live = {j for j in running if jobs[j].start <= n}
            key = (n == 0, tuple(running), tuple(sorted(live)))
            if key != plan_key:
                plans = []  # gone before the next ones are compiled
                # groups in trie order, so that a plan shares most of its nodes
                chunks: list[list] = [[]]
                for (xi, p, _, chain_nodes), members in sorted(groups.items(), key=lambda g: g[0][3]):
                    members = [member for member in members if member[1] in live]
                    if members and sum(len(group[3]) for group in chunks[-1]) >= _PLAN_JOBS:
                        chunks.append([])
                    if members:
                        chunks[-1].append((xi, p, chain_nodes, members))
                # the first plan also steps the x that only jobs yet to start read
                x_read = [{xi for xi, *_ in chunk} for chunk in chunks]
                x_read[0] |= {x_at[j] for j in running}
                for chunk, xis in zip(chunks, x_read):
                    x = {xi: x2[xi] for xi in sorted(xis)}
                    plans.append(compile_plan(F, x, nodes, chunk, n == 0))
                plan_key = key
            # every plan reads the state before any writes it back: the a_n(x)
            # and trie nodes that two plans share advance alike in both
            outs = [plan(n, hi, *map(state.__getitem__, names)) for plan, names in plans]
            for (_, names), out in zip(plans, outs):
                state.update((name, out[name]) for name in names)
            n = hi
        reached = point + 1
        for j in running:
            sums[j].append(state[f"t{j}"])
        if settled is not None:
            done = settled(running, sums)
            running = [j for j in running if j not in done]
        if not running:
            break
    return sums, F, reached


# one dict per direct_sums call: (sample points, alpha, log degree) ->
# (w, w', G), w and w' as exact mpf; (exponent, log power, N_o) -> {N: that
# basis function at N over its value at N_o, an integer scaled by 2^G};
# ("log",) -> {N: ln(N)} and ("phi",) -> {(exponent, log power, N): the
# basis function at N}, both mpf at the fits' working precision
_Weights = dict[tuple, tuple | dict]


def _fit_weights(points: list[int], alpha: Fraction, log_degree: int, weights: _Weights):
    """Weights w, w' of the tail fit: its value is w . S, the previous level's w' . S.

    The fit solves M c = S for the samples S against the basis
    {1} + {N^(1-alpha-k) ln(N)^j, j = log_degree..0}, and its value is the
    constant c_0 = e_0 . M^-1 S, so w solves M^T w = e_0.  The basis
    functions beside the constant are one fewer than the samples, at least
    2; w' is the same fit with two fewer over the last samples, zero on the
    first two.  Both are integers scaled by 2^G, G the working precision in
    bits, returned as exact mpf so that each dot product reads them as they
    are.  The rows of M^T are the basis functions over the samples a solve
    uses, scaled to 1 at the first of them (the first sample for w, the
    third for w'): each entry phi(N) / phi(N_o), an mpf quotient at G bits
    truncated to 2^-G, is worked out once per call and kept in `weights` as
    an integer per (function, N_o, N), beside the ln(N) and phi(N) it is
    made from.  So the fits over every prefix of one sample grid, and every
    key whose basis holds the function, share them.  The solve is
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
        logs: dict[int, mpf] = weights.setdefault(("log",), {})
        phis: dict[tuple[Fraction, int, int], mpf] = weights.setdefault(("phi",), {})

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

        def exact(w: list[int]) -> list[mpf]:
            return [mpmath.mp.make_mpf(from_int(u)) for u in w]

        fit, fit_prev = exact(solve(levels)), exact(solve(levels - 2))
        # a later entry reads phi again only at the first sample of its row,
        # the first or third of these points
        for key in [key for key in phis if key[2] not in points[:3:2]]:
            del phis[key]
        return fit, fit_prev, bits


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
