"""Numerical evaluation of words as iterated integrals over [0, 1].

A word is evaluated by Chen's composition rule at a split point c (1/2 by
default):

    I_[0,1](w) = sum over splittings w = u.v of I_[c,1](u) * I_[0,c](v),

the upper piece is mapped onto [0, 1-c] by t -> 1-t (atom (b, s) becomes
(1-b, -s), word reversed), and each piece over [0, r] is integrated by
maintaining the suffix integral as a power series in the scaled variable
s = t/r: dividing by (b - t) = r(b/r - s) is the first-order recurrence
Q_m = (p_m + Q_{m-1}) * r/b, so one atom costs O(N), and the piece's value
is the plain sum of its coefficients.

The alphabet {0, +-1, +-i} is closed under complex conjugation, and on
[0, 1] the word with every pole conjugated has the conjugate value.  So only
one word of each conjugate pair is evaluated, its representative: the one
whose first non-real pole has a positive imaginary part.  The other takes
the representative's value with the imaginary part negated.

Piece (a1, ..., ak) is piece (a2, ..., ak) plus one such atom step.  So the
pieces of the representatives a call must evaluate, less those already in
the memo, go into one suffix trie per radius, keyed from the last atom, and
one depth-first walk evaluates them all: each trie node costs one atom step
on its parent's coefficients, plus a sum where a piece ends.  The pieces of
a word are closed under taking suffixes (the lower pieces are its
suffixes, the upper ones the flips of its reversed prefixes), so a node is
a wanted piece unless an earlier call left it in the memo, which keeps
values and not coefficients: the walk then steps through it once more on
the way to the pieces beyond it.  A call thus pays about one O(N) step per
distinct piece instead of one per atom of each piece, and the walk holds
one coefficient array per depth.

All poles keep distance >= 1 from the origin (or sit at 0 with the dt/t
form), so the series converge geometrically at rate r/|b| <= r.  Each
series runs until its own terms end (see _walk), at most to a fixed cap.

Every pole met is a Gaussian rational (the level-4 poles 0, +-1, +-i and
their t -> 1-t images 1, 2, 1-+i), so the whole chain runs on Gaussian
integers, with F = precision_bits + _GUARD_BITS:

- the walk's coefficients are pairs of Python ints scaled by
  2^(F + _WALK_BITS), r/b enters as an exact integer triple, and the memo
  keeps each piece's value as the pair (re, im) at 2^-F that the walk
  leaves;
- a word's value is its split sum of upper times lower piece, summed
  exactly at 2^-2F and rounded once: each part to F significant bits, to
  nearest with ties to even, which is the value an mpf of F bits holds.
  It is kept as (re, im, exp), (re + im*i) * 2^exp, and the cache stores
  exactly those integers, for representatives only, with a check digest;
- a word sum puts its Gaussian-rational coefficients over one common
  denominator, sums coefficient times value exactly over the smallest
  exponent, and divides by the denominator once, rounding to F bits.  The
  same loop counts the bits lost to cancellation.

Values reach mpmath only at the end of `eval_wordsums`, `eval_word` and
`eval_segment`, which return them as BigComplex.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf, workprec
from mpmath.libmp import from_man_exp

from .gauss import GaussRat
from .words import Atom, Word, WordSum, deconcatenations, is_convergent, word_key

_MIN_BITS = 64
_GUARD_BITS = 24
# bits the walk carries below 2^-F: its floor errors add up unweighted over
# the terms of each series (see _walk)
_WALK_BITS = 12

# a word value (re, im, exp): (re + im*i) * 2^exp, each part rounded to
# F = precision_bits + _GUARD_BITS significant bits
Value = tuple[int, int, int]


class DivergentWordError(ValueError):
    """eval_word was handed a word failing the convergence rule."""


class PoleTooCloseError(ValueError):
    """A nonzero pole with |b| < 1 reached the segment integrator."""


@dataclass
class BigComplex:
    """Arbitrary-precision complex value tagged with its working precision.

    `bits_lost` is what `eval_wordsum` counted as lost to cancellation in
    its sum of coefficient times word value (0 for any other value).
    """

    real: mpf
    imag: mpf
    precision_bits: int
    bits_lost: float = 0.0

    def __post_init__(self):
        if self.precision_bits < _MIN_BITS:
            raise ValueError(f"precision_bits must be >= {_MIN_BITS}")
        if not (mpmath.isfinite(self.real) and mpmath.isfinite(self.imag)):
            raise ValueError("BigComplex components must be finite")

    def to_mpc(self) -> mpc:
        # mpc() rounds to the ambient precision, 53 bits outside a workprec
        with workprec(max(mp.prec, self.precision_bits)):
            return mpc(self.real, self.imag)


def _round(num: int, den: int, exp: int, bits: int) -> tuple[int, int]:
    """(man, e) with man * 2^e = (num / den) * 2^exp, den > 0, rounded to
    `bits` significant bits, to nearest with ties to even, as mpmath rounds."""
    mag = abs(num)
    if not num or den == 1 and mag.bit_length() <= bits:
        return num, exp
    # a quotient of bits + 1 or bits + 2 bits, and whether a remainder is left
    shift = bits + 1 - mag.bit_length() + den.bit_length()
    if shift >= 0:
        quot, rem = divmod(mag << shift, den)
    else:
        quot, rem = divmod(mag, den << -shift)
    drop = quot.bit_length() - bits
    low = quot & ((1 << drop) - 1)
    quot >>= drop
    half = 1 << (drop - 1)
    if low > half or (low == half and (rem or quot & 1)):
        quot += 1
    return (quot if num > 0 else -quot), exp - shift + drop


def _join(re: tuple[int, int], im: tuple[int, int]) -> Value:
    """One value from its two parts (man, e), over the smaller exponent of
    the nonzero parts."""
    (a, e_a), (b, e_b) = re, im
    if not b:
        return a, 0, e_a
    if not a:
        return 0, b, e_b
    e = min(e_a, e_b)
    return a << (e_a - e), b << (e_b - e), e


def _to_big(value: Value, precision_bits: int) -> BigComplex:
    re, im, exp = value
    return BigComplex(
        mp.make_mpf(from_man_exp(re, exp)), mp.make_mpf(from_man_exp(im, exp)), precision_bits
    )


def _digest(key: str, precision_bits: int, value: Value) -> str:
    """A cache line's check: 16 hex digits of a sha256 over F, the value and
    the key.  The key goes last and no other field holds a space, so no two
    lines' fields give the same text."""
    re, im, exp = value
    text = f"{precision_bits + _GUARD_BITS} {exp} {re:x} {im:x} {key}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SegmentWord:
    """A word restricted to [0, c]; poles must satisfy |b| >= 1 or b = 0."""

    atoms: tuple[Atom, ...]
    segment_radius: Fraction = Fraction(1, 2)

    def __post_init__(self):
        if not (0 < self.segment_radius < 1):
            raise ValueError("segment_radius must lie in (0, 1)")


@functools.cache
def _flip(atom: Atom) -> Atom:
    """The t -> 1-t image of an atom, cached to spare its Gaussian-rational
    arithmetic."""
    return Atom(GaussRat(1) - atom.pole, -atom.sign)


@functools.cache
def _conj(atom: Atom) -> Atom:
    """The atom with its pole complex-conjugated."""
    return Atom(GaussRat(atom.pole.re, -atom.pole.im), atom.sign)


@functools.cache
def _imag_sign(atom: Atom) -> int:
    """The sign of the atom's pole's imaginary part; Fractions compare slowly."""
    return (atom.pole.im > 0) - (atom.pole.im < 0)


def _representative(word: Word) -> tuple[Word, bool]:
    """The word or its conjugate, whichever has a positive imaginary part at
    its first non-real pole (the word itself if it has none), and whether
    that is the conjugate.  I(conj w) = conj I(w) on [0, 1].
    """
    for atom in word:
        sign = _imag_sign(atom)
        if sign:
            return (word, False) if sign > 0 else (tuple([_conj(a) for a in word]), True)
    return word, False


def _scaled_inverse(pole: GaussRat, radius: Fraction) -> tuple[int, int, int]:
    """Integers (u, v, e) with radius/pole = (u + v*i)/e exactly, e > 0."""
    den = math.lcm(pole.re.denominator, pole.im.denominator)
    x, y = int(pole.re * den), int(pole.im * den)
    num = radius.numerator * den
    u, v, e = num * x, -num * y, radius.denominator * (x * x + y * y)
    g = math.gcd(u, v, e)
    return u // g, v // g, e // g


class _Node:
    """A suffix-trie node: the piece ending here, if one is wanted, and the
    children, one per atom integrated next."""

    __slots__ = ("piece", "children")

    def __init__(self):
        self.piece: tuple[Atom, ...] | None = None
        self.children: dict[Atom, _Node] = {}


def _add_piece(root: _Node, atoms: tuple[Atom, ...], conjugated: bool = False) -> None:
    """Put a piece into a suffix trie keyed from its last atom.

    Only the nodes the piece adds have their atom checked: a node's atom has
    the same place from the end in every piece through it.  Of several
    faults the one nearest the piece's first atom is raised, as a scan from
    the first atom would find it.  A piece of a representative that is the
    conjugate of the word asked for is `conjugated`, and its fault names the
    pole as that word has it.
    """
    node, fault = root, None
    for depth, atom in enumerate(reversed(atoms), 1):
        child = node.children.get(atom)
        if child is None:
            if not atom.pole:
                if depth == 1:
                    fault = DivergentWordError("dt/t-type atom at the position nearest 0")
            elif atom.pole.norm2() < 1:
                pole = _conj(atom).pole if conjugated else atom.pole
                fault = PoleTooCloseError(f"pole {pole} inside the unit disk")
            child = node.children[atom] = _Node()
        node = child
    if fault is not None:
        raise fault
    node.piece = atoms


def _walk(
    root: _Node, radius: Fraction, precision_bits: int, n_terms: int | None = None
) -> dict[tuple[Atom, ...], tuple[int, int]]:
    """Integrate every piece of a suffix trie over radius > t_1 > ... > t_k > 0.

    A depth-first walk: each node takes one atom step on its parent's
    coefficients and sums them where a piece ends, so the walk holds one
    coefficient array per depth.  The series runs in the scaled variable
    s = t/radius, in fixed point: coefficient m is a pair of Python ints
    (real, imaginary), the coefficient of t^m times radius^m scaled by
    2^(F + _WALK_BITS) with F = precision_bits + _GUARD_BITS.  So a piece's
    value is the plain sum of its coefficients, and the atom
    dt/(b - t) = ds/(b/r - s) enters as the exact triple
    r/b = (u + v*i)/e, |r/b| <= r < 1:

        Q_m = (d_{m-1} + Q_{m-1}) * r/b,   coefficient m of the child = Q_m / m,

    each division a floor.  A dt/t step divides coefficient m by m.

    A child's loop ends at n_terms, a cap where the series are truncated as
    before (ceil((precision_bits + 48) ln 2 / -ln r) by default), or sooner:
    once it is past its parent's length, where d_{m-1} is 0, and both parts
    of Q_m have floored to 0 or -1.  From there on each term only multiplies
    Q by r/b, so the series' tail is below (|Q_m| + its error) * r/(1 - r).

    Each floor errs by less than one unit (ulp) of 2^-(F + _WALK_BITS) per
    component.  With |r/b| <= 1 the error of Q_m grows by at most the
    parent's coefficient error plus sqrt(2) per term, and the division by m
    takes that growth back, so each atom adds at most 2*sqrt(2) ulps to
    every coefficient it computes.  The error of Q_m is then at most m times
    the coefficient error plus sqrt(2), so a stop drops a tail of at most
    that coefficient error plus 2*sqrt(2), times r/(1 - r), which the pieces
    beyond carry on as one more geometric series.  A k-atom piece's sum of
    at most N = n_terms + 1 terms is thus within 2*sqrt(2) * k * (N + k) ulps
    of its series truncated at n_terms.  The errors add unweighted over the
    terms, which is what the _WALK_BITS extra bits absorb: for k <= 6 at
    r = 1/2 that is under one unit of 2^-F at 140 bits and under three at
    600, far inside the guard.  A piece's value is that sum rounded to the
    nearest multiple of 2^-F, which adds half a unit: the pair (re, im) to
    be read at 2^-F.
    """
    if n_terms is None:
        n_terms = int(
            math.ceil((precision_bits + 48) * math.log(2) / -math.log(float(radius)))
        )
    half = 1 << (_WALK_BITS - 1)
    ratios: dict[Atom, tuple[int, int, int]] = {}
    values = {}

    def visit(node: _Node, re: list[int], im: list[int], sign: int) -> None:
        if node.piece is not None:
            values[node.piece] = (
                sign * ((sum(re) + half) >> _WALK_BITS),
                sign * ((sum(im) + half) >> _WALK_BITS),
            )
        # the word is linear in each atom's sign, so the signs multiply out and
        # every step integrates dt/(b - t) or, for b = 0, dt/t = -dt/(0 - t)
        for atom, child in node.children.items():
            if not atom.pole:
                # coefficient 0 is already 0: a dt/t node is never the root's child
                new_re = [0] + [c // m for m, c in enumerate(re[1:], 1)]
                new_im = [0] + [c // m for m, c in enumerate(im[1:], 1)]
                visit(child, new_re, new_im, -sign * atom.sign)
                continue
            ratio = ratios.get(atom)
            if ratio is None:
                ratio = ratios[atom] = _scaled_inverse(atom.pole, radius)
            u, v, e = ratio
            new_re, new_im = [0], [0]
            q_re = q_im = 0
            top = min(len(re), n_terms)
            for m, c_re, c_im in zip(range(1, top + 1), re, im):
                p_re, p_im = c_re + q_re, c_im + q_im
                q_re = (p_re * u - p_im * v) // e
                q_im = (p_re * v + p_im * u) // e
                new_re.append(q_re // m)
                new_im.append(q_im // m)
            for m in range(top + 1, n_terms + 1):
                if -1 <= q_re <= 0 and -1 <= q_im <= 0:
                    break
                q_re, q_im = (q_re * u - q_im * v) // e, (q_re * v + q_im * u) // e
                new_re.append(q_re // m)
                new_im.append(q_im // m)
            visit(child, new_re, new_im, sign * atom.sign)

    visit(root, [1 << (precision_bits + _GUARD_BITS + _WALK_BITS)], [0], 1)
    return values


def eval_segment(sw: SegmentWord, precision_bits: int, n_terms: int | None = None) -> BigComplex:
    """Integrate the word over c > t_1 > ... > t_k > 0 by power series: the
    walk (see _walk) of the trie that holds this one piece, rounded to F bits."""
    root = _Node()
    _add_piece(root, sw.atoms)
    frac_bits = precision_bits + _GUARD_BITS
    re, im = _walk(root, sw.segment_radius, precision_bits, n_terms)[sw.atoms]
    value = _join(_round(re, 1, -frac_bits, frac_bits), _round(im, 1, -frac_bits, frac_bits))
    return _to_big(value, precision_bits)


class ValueCache:
    """Persistent (word, precision) -> value store, JSON lines at `path`.

    Each line holds the word's key `k`, its precision `p`, the value's
    mantissas `re` and `im` as signed hex strings, their shared exponent
    `e`, and `d`, 16 hex digits of a sha256 over the key, F and the value
    (see _digest).  The integers are exact, so every value written reads
    back as itself.  Inserts
    append; a line whose digest does not match, as after an edit, a cut, a
    change of the guard bits or in the decimal lines of older versions, is
    skipped on load, so its word is computed and appended once more.
    Concurrent writers can only race on identical idempotent values.  The
    evaluator puts and gets the keys of representatives only.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._mem: dict[tuple[str, int], Value] = {}
        self._fh = None  # the append handle of an `appending` block
        if os.path.exists(self.path):
            self._load()

    def _load(self) -> None:
        # a byte that is not UTF-8 reads as U+FFFD, which no line put writes holds
        with open(self.path, "r", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                try:
                    rec = json.loads(line)
                    key, bits, exp = rec["k"], rec["p"], rec["e"]
                    # put writes JSON integers; 140.0, "140" or true is not one
                    if (not isinstance(key, str) or type(bits) is not int or type(exp) is not int
                            or bits < _MIN_BITS):
                        continue
                    value = (int(rec["re"], 16), int(rec["im"], 16), exp)
                    if rec["d"] != _digest(key, bits, value):
                        continue
                # RecursionError: JSON nested too deeply to decode
                except (ValueError, KeyError, TypeError, RecursionError):
                    continue
                self._mem[(key, bits)] = value

    def get(self, key: str, precision_bits: int) -> Value | None:
        return self._mem.get((key, precision_bits))

    def put(self, key: str, precision_bits: int, value: Value) -> None:
        if (key, precision_bits) in self._mem:
            return
        self._mem[(key, precision_bits)] = value
        re, im, exp = value
        rec = {"k": key, "p": precision_bits, "re": f"{re:x}", "im": f"{im:x}", "e": exp,
               "d": _digest(key, precision_bits, value)}
        line = json.dumps(rec, sort_keys=True) + "\n"
        if self._fh is not None:
            self._fh.write(line)
            return
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)

    @contextmanager
    def appending(self) -> Iterator[None]:
        """Let the puts inside the block share one append handle.

        The handle is line-buffered, so each line still reaches the file in
        one write, and it is closed however the block is left.
        """
        with open(self.path, "a", encoding="utf-8", buffering=1) as self._fh:
            try:
                yield
            finally:
                self._fh = None


# in-process memo for the segment pieces of representatives, keyed by (atoms,
# radius as (numerator, denominator), bits), which hash in C; prefixes repeat
# heavily across words
_segment_memo: dict[tuple[tuple[Atom, ...], tuple[int, int], int], tuple[int, int]] = {}


def _eval_words(
    words: Iterable[Word], c: Fraction, precision_bits: int, cache: ValueCache | None
) -> list[Value]:
    """Values of convergent words over [0, 1], each split at c, in the order
    of `words`.

    Only representatives (see _representative) are looked up, walked, summed
    and cached; a word that is the conjugate of its representative takes the
    representative's value (re, -im, exp).  Each representative's cache
    entry is looked up once.  The pieces of the representatives that miss
    and that the memo lacks go into one suffix trie per radius, and one walk
    of each trie fills the memo; then each missing representative's upper
    times lower pieces are summed over its splittings exactly, on the memo's
    integer pairs at 2^-F (so the sum is at 2^-2F), and rounded once to F
    bits.  The missing representatives are written to the cache in the
    order in which `words` first reaches them, through one append handle.
    """
    frac_bits = precision_bits + _GUARD_BITS
    upper_r, lower_r = (1 - c).as_integer_ratio(), c.as_integer_ratio()
    # each representative's value, None while it is missing
    values: dict[Word, Value | None] = {(): (1, 0, 0)}
    resolved = []
    missing = []
    tries: dict[tuple[int, int], _Node] = {}
    for word in words:
        if not is_convergent(word):
            raise DivergentWordError(word_key(word))
        rep, conjugated = _representative(word)
        if rep not in values:
            key = word_key(rep)
            value = values[rep] = cache.get(key, precision_bits) if cache is not None else None
            if value is None:
                # the upper piece: the prefix mapped by t -> 1-t
                splits = [
                    (tuple([_flip(a) for a in reversed(prefix)]), suffix)
                    for prefix, suffix in deconcatenations(rep)
                ]
                for upper, lower in splits:
                    for atoms, radius in ((upper, upper_r), (lower, lower_r)):
                        if atoms and (atoms, radius, precision_bits) not in _segment_memo:
                            _add_piece(tries.setdefault(radius, _Node()), atoms, conjugated)
                missing.append((rep, key, splits))
        resolved.append((rep, conjugated))
    for radius, root in tries.items():
        for atoms, value in _walk(root, Fraction(*radius), precision_bits).items():
            _segment_memo[(atoms, radius, precision_bits)] = value
    one = (1 << frac_bits, 0)
    for rep, _, splits in missing:
        total_re = total_im = 0
        for upper, lower in splits:
            u_re, u_im = _segment_memo[(upper, upper_r, precision_bits)] if upper else one
            l_re, l_im = _segment_memo[(lower, lower_r, precision_bits)] if lower else one
            total_re += u_re * l_re - u_im * l_im
            total_im += u_re * l_im + u_im * l_re
        values[rep] = _join(
            _round(total_re, 1, -2 * frac_bits, frac_bits),
            _round(total_im, 1, -2 * frac_bits, frac_bits),
        )
    if cache is not None and missing:
        with cache.appending():
            for rep, key, _ in missing:
                cache.put(key, precision_bits, values[rep])
    out = []
    for rep, conjugated in resolved:
        re, im, exp = values[rep]
        out.append((re, -im, exp) if conjugated else (re, im, exp))
    return out


def eval_word(
    word: Word,
    precision_bits: int,
    cache: ValueCache | None = None,
) -> BigComplex:
    """Value of a convergent word over [0, 1], split at 1/2."""
    return _to_big(_eval_words((word,), Fraction(1, 2), precision_bits, cache)[0], precision_bits)


def eval_wordsum(
    ws: WordSum,
    precision_bits: int,
    cache: ValueCache | None = None,
) -> BigComplex:
    """One word sum's value: a batch of one for eval_wordsums."""
    return eval_wordsums([ws], precision_bits, cache)[0]


def eval_wordsums(
    wordsums: Sequence[WordSum],
    precision_bits: int,
    cache: ValueCache | None = None,
) -> list[BigComplex]:
    """sum coef * I(word) + scalar (+ pi part), scaled by (2/pi)^pi_scale,
    for each word sum in order.

    One _eval_words pass takes the words of all the sums, in order, so each
    trie node is stepped once, the cache gets the lines that one call per
    sum would write, in the same order, and of several faulty words the
    first raises.  A sum's coefficients go over one common denominator d,
    so the sum of numerator times word value is exact on integers over the
    smallest exponent of the values; it is divided by d once and rounded to
    F bits, the one rounding of the word part.  The scalar, pi and 2/pi
    parts are added in mpmath at F bits.

    The same loop sums the L1 bound |coef|_1 * |value|_1, where |x + yi|_1 =
    |x| + |y|, and the result's `bits_lost` is log2 of that bound over
    |sum coef * value|_1: the bits of F that cancellation in the word part
    cost (infinite if the word part is exactly 0, 0 if it has no terms).  It
    overstates the loss in complex modulus by at most one bit.
    """
    words = list(dict.fromkeys(word for ws in wordsums for word in ws.terms))
    values = dict(zip(words, _eval_words(words, Fraction(1, 2), precision_bits, cache)))
    frac_bits = precision_bits + _GUARD_BITS
    out = []
    for ws in wordsums:
        coefs = ws.terms.values()
        den = math.lcm(*[q for c in coefs for q in (c.re.denominator, c.im.denominator)])
        low = min((values[word][2] for word in ws.terms), default=0)
        sum_re = sum_im = bound = 0
        for word, coef in ws.terms.items():
            re, im, exp = values[word]
            a = coef.re.numerator * (den // coef.re.denominator)
            b = coef.im.numerator * (den // coef.im.denominator)
            shift = exp - low
            sum_re += (a * re - b * im) << shift
            sum_im += (a * im + b * re) << shift
            bound += (abs(a) + abs(b)) * (abs(re) + abs(im)) << shift
        if not bound:
            bits_lost = 0.0
        elif sum_re or sum_im:
            bits_lost = math.log2(bound) - math.log2(abs(sum_re) + abs(sum_im))
        else:
            bits_lost = math.inf
        with workprec(frac_bits):
            # each part rounded once to F bits, so mpf takes it exactly
            total = mpc(
                mpf(_round(sum_re, den, low, frac_bits)), mpf(_round(sum_im, den, low, frac_bits))
            )
            total += ws.scalar.to_mpc()
            if ws.scalar_pi:
                total += mpf(ws.scalar_pi.numerator) / ws.scalar_pi.denominator * mpmath.pi
            if ws.pi_scale:
                total *= (2 / mpmath.pi) ** ws.pi_scale
            total = +total
        out.append(BigComplex(total.real, total.imag, precision_bits, bits_lost))
    return out
