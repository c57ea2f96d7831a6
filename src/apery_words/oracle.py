"""Direct high-precision summation of series specs, with tail extrapolation.

One fixed-point kernel, `_partial_sums`, sums a batch of plain specs and
harmonic-weighted heads.  It runs over the outer index n once and keeps, for
every nesting level, the cumulative sum over that level's index (cost
O(N * depth)).  A plain spec is one chain of levels; a harmonic head has two,
the zh chain over n and the odd chain over 2n - 1.  Arithmetic is on Python
integers scaled by 2^F with F = ceil((digits + 15) * log2(10)) + 16 bits, 119
at 16 digits.

`direct_sums` turns each item into a job once, sweeps the jobs of one first
sample point in one batch and fits each job once, at the sample where it
leaves the sweep; equal items share that result.  `direct_sum` and
`direct_harmonic_sum` are batches of one.  The sweep runs one loop over
k = 2n - 1 per segment of indices, generated by `sweep.compile_plan` for
every item that runs in it, whose locals hold each distinct x's a_n(x), the
running sum of each node of a trie of chain levels, and the product
(a^p * tops) >> F of each group of items that differ only in their head with
its heads' quotients.  A trie node is keyed by its value, so a level common
to several chains is accumulated once, whether the level above reads it at n
or at n - 1.  Equal items are swept once, and the scaled sums are
bit-identical to a sweep of each item alone.

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
with integer weights W and W' scaled by 2^G, G = dps_to_prec(digits + 40)
bits, the value is W . S and the estimate |(W - W') . S|, both exact at
2^-(F+G) and each rounded once to G bits (generalized Richardson
extrapolation; Sidi, Practical Extrapolation Methods, 2003).  W and W'
depend only on the sample points, alpha and the log degree; `direct_sums`
solves for them once per such key in a dict local to the call, by
elimination on integers, from basis rows built in libmp out of powers and
log powers each computed once per call.  G comes from the digits alone, so
the fit never reads mpmath's working precision.

The sweep is resumable: after each sample it asks which running items are
done, and those leave it, with whatever only they read.  Every result is
fitted there: at the last sample, each item still running is fitted in
full.  When the config worked out its own levels, they are a cap: after
every odd sample count 2L+1 >= 3 below the cap, each item with x = 1
settles at the first L whose fit's estimate is at most 10^(1 - digits),
with the result an explicit L-level schedule gives and terms_used its own
last sample + 1.  Other items run to the last sample, as under given
levels.  The fits of one count share their weights.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import mpmath
from mpmath import mpf, workdps
from mpmath.libmp import (dps_to_prec, from_int, from_man_exp, mpf_div, mpf_log, mpf_mul,
                          mpf_pow_int, mpf_shift, mpf_sqrt, round_nearest, to_int)

from .series import HarmonicSpec, Parity, Relation, SeriesSpec
from .sweep import Node, compile_plan


class ConfigTooSmallError(ValueError):
    """The tail estimate is not credible at the requested precision.

    Raised by direct_sums, `index` is the batch position of the failing item.
    """

    index: int | None = None


@dataclass
class OracleConfig:
    """Samples at cutoff * 2^(i/2), i = 0..2L, L the `levels`.

    Left as None, the cutoff is 125, and `extrapolation_levels` stays None:
    L = max(7, (precision_digits + 25) // 6) is then a cap.  Each item (with
    x = 1) is fitted after every odd sample count 2l + 1 >= 3 and settles at
    the first l whose estimate is at most 10^(1 - digits), one unit in the
    last digit; only an item that has not settled by L is swept to cutoff *
    2^L.  At the cap a level gains about 10^3, and on the bundled items every
    tail estimate stays 10^3 under its 10^(-digits/2) budget (7 levels to 22
    digits, 8 at 25, 10 at 40).  Given levels are always swept in full.
    """

    cutoff: int | None = None
    extrapolation_levels: int | None = None
    precision_digits: int = 40

    def __post_init__(self):
        if self.cutoff is None:
            self.cutoff = 125
        if self.cutoff < 100:
            raise ValueError("cutoff must be >= 100")
        if self.precision_digits < 15:
            raise ValueError("precision_digits must be >= 15")
        if self.extrapolation_levels is not None and self.extrapolation_levels < 0:
            raise ValueError("extrapolation_levels must be >= 0")

    @property
    def levels(self) -> int:
        given = self.extrapolation_levels
        return max(7, (self.precision_digits + 25) // 6) if given is None else given


@dataclass(frozen=True)
class OracleResult:
    value: mpf
    error_estimate: mpf
    terms_used: int


def _scale_bits(digits: int) -> int:
    return int(math.ceil((digits + 15) * math.log2(10))) + 16


def _fit_bits(digits: int) -> int:
    return dps_to_prec(digits + 40)


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
    one loop that `sweep.compile_plan` compiles for the jobs that have
    started and still run, compiled anew only when that set changes, after
    the previous loop is dropped.  The state between segments is the last
    a_n(x) of every x a running job reads (stepped from the first index on,
    also before that job starts), each trie node's value and each job's
    total.  A trie node is a start, the levels of a chain below it and its
    own (m, c, e), shared by every chain that begins with those; whether
    the level above reads it at n (weak) or at n - 1 (strict) belongs to
    that reader, so chains that differ only in that link share the node.
    Dividing by (m*n + c)^e takes e floor divisions by the base, exact as
    floor(floor(u/a)/b) = floor(u/(ab)) for b > 0 and the base at n = 0 is
    1 or -1.  Every floor and sum is the one the index-by-index recurrence
    takes, so the scaled sums depend neither on the segments nor on the
    rest of the batch.
    With `settled`, the sweep calls settled(running, sums) after each point,
    with the positions of the jobs still running and every job's sums so
    far, and the jobs at the positions it returns leave: their sums end at
    that point, and the next plan reads nothing that only they read.  The
    sweep ends early once no job runs.
    """
    F = _scale_bits(digits)
    xs = list(dict.fromkeys(job.x for job in jobs))
    x2 = [None if x == 1 else (x.numerator * x.numerator << F) // (x.denominator * x.denominator)
          for x in xs]
    x_at = [xs.index(job.x) for job in jobs]
    # trie nodes keyed by value, (start, levels below, (m, c, e)) -> position,
    # a parent before its children; a root reads 1, and its link is never
    # read.  Groups: (x's position, binomial power - 1, its chain tops'
    # (node, link)) -> [(head, job position)] by head, so heads that share
    # (m, c) ascend in q
    index: dict[tuple, int] = {}
    nodes: list[Node] = []
    groups: dict[tuple, list[tuple[tuple[int, int, int], int]]] = {}
    for j, job in sorted(enumerate(jobs), key=lambda item: item[1].head):
        tops = []
        for chain in job.chains:
            node, weak = -1, True
            for i, level in enumerate(chain):
                key = (job.start, chain[:i], level[:3])
                if key not in index:
                    index[key] = len(nodes)
                    nodes.append((node, weak, level[:3]))
                node, weak = index[key], level[3]
            tops.append((node, weak))
        groups.setdefault((x_at[j], job.binom_power - 1, tuple(tops)), []).append((job.head, j))
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
    plan_key = None
    reached = 0
    for point in points:
        while n <= point:
            hi = min([point + 1] + [cut for cut in cuts if cut > n])
            live = {j for j in running if jobs[j].start <= n}
            key = (n == 0, tuple(running), tuple(sorted(live)))
            if key != plan_key:
                plan = None  # gone before the next one is compiled
                x = {xi: x2[xi] for xi in sorted({x_at[j] for j in running})}
                chosen = [(xi, p, job_tops, [member for member in members if member[1] in live])
                          for (xi, p, job_tops), members in groups.items()]
                plan, names = compile_plan(F, x, nodes, [g for g in chosen if g[3]], n == 0)
                plan_key = key
            out = plan(n, hi, *map(state.__getitem__, names))
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


# one dict per direct_sums call, whose digits fix G, kept for all its fits:
# (sample points, 2 alpha, log degree) -> the _fit_weights pair; (2e, log
# power j, N_o) -> {N: the basis function at N over its value at N_o, an
# integer scaled by 2^G}; ("sqrt",) -> {N: sqrt(N)}, ("pow",) -> {(2e, N):
# N^e} and ("log",) -> {(j, N): ln(N)^j}, raw mpf
_Weights = dict[tuple, tuple | dict]


def _fit_weights(points: list[int], alpha: Fraction, log_degree: int, bits: int,
                 weights: _Weights) -> tuple[list[int], list[int]]:
    """Weights W, W' of the tail fit at 2^G, G = `bits`: its value is W . S,
    the previous level's W' . S.

    The fit solves M c = S for the samples S against the basis
    {1} + {N^(1-alpha-k) ln(N)^j, j = log_degree..0}, alpha a multiple of
    1/2, and its value is the constant c_0 = e_0 . M^-1 S, so W solves
    M^T W = e_0.  The basis functions beside the constant are one fewer than
    the samples, at least 2; W' is the same fit with two fewer over the last
    samples, zero on the first two.  The rows of M^T are the basis functions
    over the samples a solve uses, scaled to 1 at the first of them (the
    first sample for W, the third for W'): each entry phi(N) / phi(N_o),
    divided at G bits in libmp and truncated to 2^-G, is kept in `weights`.
    phi(N) is the product at G bits of N^e and ln(N)^j, each kept per call:
    mpf_pow_int of N, or for half-integer e of sqrt(N) at G + 10 bits, and
    of ln(N), all to nearest, as mpf(N) ** mpf(e) * log(N) ** j rounds.  The
    solve is elimination with partial pivoting on those integers and
    back-substitution, each multiplier (at most 1 by the pivoting), product
    and quotient floored to 2^-G.  A singular basis (alpha = 1) meets a zero
    pivot and raises.
    """
    levels = len(points) - 1
    twice_alpha = int(2 * alpha)
    basis = [(2 - twice_alpha - 2 * k, j)
             for k in range(levels) for j in range(log_degree, -1, -1)][:levels]
    roots, powers, logs = (weights.setdefault((name,), {}) for name in ("sqrt", "pow", "log"))

    def phi(twice_e: int, j: int, big_n: int) -> tuple:
        if (twice_e, big_n) not in powers:
            if twice_e % 2 and big_n not in roots:
                roots[big_n] = mpf_sqrt(from_int(big_n), bits + 10, round_nearest)
            base, e = (roots[big_n], twice_e) if twice_e % 2 else (from_int(big_n), twice_e // 2)
            powers[twice_e, big_n] = mpf_pow_int(base, e, bits, round_nearest)
        if (j, big_n) not in logs:
            if (1, big_n) not in logs:
                logs[1, big_n] = mpf_log(from_int(big_n), bits, round_nearest)
            logs[j, big_n] = mpf_pow_int(logs[1, big_n], j, bits, round_nearest)
        return mpf_mul(powers[twice_e, big_n], logs[j, big_n], bits, round_nearest)

    def basis_row(twice_e: int, j: int, offset: int) -> list[int]:
        scaled = weights.setdefault((twice_e, j, points[offset]), {})
        missing = [big_n for big_n in points[offset:] if big_n not in scaled]
        if missing:
            top = phi(twice_e, j, points[offset])
            for big_n in missing:
                ratio = mpf_div(phi(twice_e, j, big_n), top, bits, round_nearest)
                scaled[big_n] = to_int(mpf_shift(ratio, bits))
        return [scaled[big_n] for big_n in points[offset:]]

    def solve(m: int) -> list[int]:
        # columns of M scaled to 1 at the first sample they use, to keep
        # the elimination well posed; M^T holds them as rows, e_0 beside
        offset = len(points) - (m + 1)
        rows = [[1 << bits] * (m + 2)] + [
            basis_row(twice_e, j, offset) + [0] for twice_e, j in basis[:m]
        ]
        for p in range(m + 1):
            rows[p:] = sorted(rows[p:], key=lambda row: abs(row[p]), reverse=True)
            pivot, q = rows[p], p + 1
            # below the pivot, column p is read no more
            for row in rows[q:]:
                f = (row[p] << bits) // pivot[p]
                row[q:] = [u - (f * v >> bits) for u, v in zip(row[q:], pivot[q:])]
        w = [0] * (m + 1)
        for i in range(m, -1, -1):
            rest = sum(map(operator.mul, rows[i][i + 1 :], w[i + 1 :])) >> bits
            w[i] = ((rows[i][m + 1] - rest) << bits) // rows[i][i]
        return [0] * offset + w

    return solve(levels), solve(levels - 2)


def _rounded(man: int, shift: int, bits: int) -> mpf:
    # man * 2^-shift, rounded once to nearest at `bits` bits
    return mpmath.mp.make_mpf(from_man_exp(man, -shift, bits, round_nearest))


def _extrapolate(points: list[int], sums: list[int], digits: int, alpha: Fraction,
                 log_degree: int, weights: _Weights) -> tuple[mpf, mpf]:
    """The tail fit's value W . S and estimate |(W - W') . S| for the sums S
    at 2^F, each exact at 2^-(F+G) and rounded once to G bits."""
    F, G = _scale_bits(digits), _fit_bits(digits)
    # the key's weights, solved on first use; Fraction hashes are not cached
    key = (tuple(points), alpha.numerator * 2 // alpha.denominator, log_degree)
    if key not in weights:
        weights[key] = _fit_weights(points, alpha, log_degree, G, weights)
    w, w_prev = weights[key]
    value = sum(map(operator.mul, w, sums))
    err = abs(value - sum(map(operator.mul, w_prev, sums)))
    return _rounded(value, F + G, G), _rounded(err, F + G, G)


def _tail(job: _Job) -> tuple[Fraction, int]:
    # outer terms decay like n^-(q + p/2) times a polylog of degree the chain
    # levels: inner sums grow like logs, and their deficits shift q by integers
    return Fraction(2 * job.head[2] + job.binom_power, 2), sum(map(len, job.chains))


def _fit(job: _Job, points: list[int], sums: list[int], digits: int,
         weights: _Weights) -> OracleResult:
    """Value and error estimate of `job` from its sums at 2^F at the first
    len(sums) of `points`: with two samples, or with geometric decay in
    x^(2n), the last sum and its step, each rounded to G > F bits, which is
    exact; otherwise the tail is extrapolated.
    """
    points = points[: len(sums)]
    if job.x != 1 or len(sums) < 3:
        F, G = _scale_bits(digits), _fit_bits(digits)
        value, err = _rounded(sums[-1], F, G), _rounded(abs(sums[-1] - sums[-2]), F, G)
    else:
        value, err = _extrapolate(points, sums, digits, *_tail(job), weights)
    return OracleResult(value, err, points[-1] + 1)


def direct_sums(
    items: Sequence[SeriesSpec | HarmonicSpec], cfg: OracleConfig | None = None
) -> list[OracleResult]:
    """Directly sum every plain or harmonic-weighted series, one sweep per
    first sample point.

    Equal items are one job, swept and fitted once, and they share one
    result.  The sweep's checkpoint fits each job as it leaves: below a cap
    an item with x = 1 when it settles, as the module docstring says, and
    every job still running at the last sample.  Every result's estimate
    must be within the 10^(-digits/2) budget; a ConfigTooSmallError names
    the position of the first item that misses it in its `index`.
    """
    cfg = cfg or OracleConfig()
    digits, levels, capped = cfg.precision_digits, cfg.levels, cfg.extrapolation_levels is None
    jobs = {item: _job(item) for item in items}
    by_first: dict[int, list[_Job]] = {}
    for job in dict.fromkeys(jobs.values()):
        # the cutoff, but not before the job's start, and for x < 1 far enough
        # out that x^(2N) <= 10^-(digits + 3) at the last sample N
        first = max(cfg.cutoff, job.start)
        if job.x != 1:
            reach = (digits + 3) * math.log(10) / (-2 * math.log(job.x))
            first = max(first, math.ceil(reach / 2**levels))
        by_first.setdefault(first, []).append(job)
    with workdps(digits + 15):
        target, budget = mpf(10) ** (1 - digits), mpf(10) ** (-digits / 2)
    weights: _Weights = {}
    fitted: dict[_Job, OracleResult] = {}
    for first, group in by_first.items():
        points = _checkpoints(first, levels)

        # reads this group and its points: it runs only within their sweep
        def checkpoint(running: list[int], sums: list[list[int]]) -> set[int]:
            count = len(sums[running[0]])
            last = count == len(points)
            if not (last or capped and count >= 3 and count % 2):
                return set()
            fits = {j: _fit(group[j], points, sums[j], digits, weights)
                    for j in running if last or group[j].x == 1}
            done = {j for j, result in fits.items() if last or result.error_estimate <= target}
            fitted.update((group[j], fits[j]) for j in done)
            return done

        _partial_sums(group, points, digits, checkpoint)
    results = []
    for index, item in enumerate(items):
        result = fitted[jobs[item]]
        if result.error_estimate > budget:
            exc = ConfigTooSmallError(
                f"tail error estimate {mpmath.nstr(result.error_estimate, 5)} exceeds the "
                f"10^-{digits / 2:g} budget; raise cutoff or levels")
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
