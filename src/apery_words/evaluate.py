"""Numerical evaluation of words as iterated integrals over [0, 1].

A word is evaluated by Chen's composition rule at a split point c (1/2 by
default):

    I_[0,1](w) = sum over splittings w = u.v of I_[c,1](u) * I_[0,c](v),

the upper piece is mapped onto [0, 1-c] by t -> 1-t (atom (b, s) becomes
(1-b, -s), word reversed), and each piece is integrated by maintaining the
suffix integral as a truncated power series: dividing by (b - t) is the
first-order recurrence q_m = (p_m + q_{m-1})/b, so one atom costs O(N).

Piece (a1, ..., ak) is piece (a2, ..., ak) plus one such atom step.  So the
pieces of the words a call must evaluate, less those already in the memo,
go into one suffix trie per radius, keyed from the last atom, and one
depth-first walk evaluates them all: each trie node costs one atom step on
its parent's coefficients, plus a Horner sum where a piece ends.  The
pieces of a word are closed under taking suffixes (the lower pieces are its
suffixes, the upper ones the flips of its reversed prefixes), so a node is
a wanted piece unless an earlier call left it in the memo, which keeps
values and not coefficients: the walk then steps through it once more on
the way to the pieces beyond it.  A call thus pays about one O(N) step per
distinct piece instead of one per atom of each piece, and the walk holds
one coefficient array per depth.

All poles keep distance >= 1 from the origin (or sit at 0 with the dt/t
form), so the series converge geometrically at rate c/|b| <= c.

Every pole met is a Gaussian rational (the level-4 poles 0, +-1, +-i and
their t -> 1-t images 1, 2, 1-+i), so the whole chain runs on Gaussian
integers, with F = precision_bits + _GUARD_BITS:

- the walk's coefficients are pairs of Python ints scaled by 2^F, 1/b
  enters as an exact integer triple, and the memo keeps each piece's value
  as the pair (re, im) at 2^-F that the walk leaves;
- a word's value is its split sum of upper times lower piece, summed
  exactly at 2^-2F and rounded once: each part to F significant bits, to
  nearest with ties to even, which is the value an mpf of F bits holds.
  It is kept as (re, im, exp), (re + im*i) * 2^exp, and the cache stores
  and parses exactly that value;
- a word sum puts its Gaussian-rational coefficients over one common
  denominator, sums coefficient times value exactly over the smallest
  exponent, and divides by the denominator once, rounding to F bits.  The
  same loop counts the bits lost to cancellation.

Values reach mpmath only at the end of `eval_wordsum`, `eval_word` and
`eval_segment`, which return them as BigComplex.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf, workprec
from mpmath.libmp import from_man_exp, to_str

from .gauss import GaussRat
from .words import Atom, Word, WordSum, deconcatenations, is_convergent, word_key

_MIN_BITS = 64
_GUARD_BITS = 24

# a word value (re, im, exp): (re + im*i) * 2^exp, each part rounded to
# F = precision_bits + _GUARD_BITS significant bits
Value = tuple[int, int, int]

# a decimal part of a cache line, as `put` writes it: whole, fraction, exponent
_DECIMAL = re.compile(r"(-?[0-9]+)(?:\.([0-9]+))?(?:e([+-]?[0-9]+))?")


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


def _parse(text: str, bits: int) -> tuple[int, int]:
    """A decimal literal rounded to `bits` bits to nearest, as (man, e).

    Literals are what `put` writes: [-]digits[.digits][e[+-]digits].  The
    rounding is exact; it equals mpmath's from_str(text, bits, round_nearest),
    which the cache read before, wherever from_str rounds exactly (decimal
    exponents up to 400 in size).  A literal of another form, or one whose
    decimal exponent is beyond 2 * bits in size, far outside what `put`
    writes, raises ValueError, so its line counts as corrupt.
    """
    match = _DECIMAL.fullmatch(text)  # TypeError unless a string
    if match is None:
        raise ValueError(f"{text!r} is not a cached decimal")
    whole, frac, tail = match.groups(default="")
    man = int(whole + frac)
    exp10 = (int(tail) if tail else 0) - len(frac)
    if abs(exp10) > 2 * bits:
        raise ValueError(f"{text!r} has a decimal exponent out of range")
    if exp10 >= 0:
        return _round(man * 10**exp10, 1, 0, bits)
    return _round(man, 10**-exp10, 0, bits)


def _to_big(value: Value, precision_bits: int) -> BigComplex:
    re, im, exp = value
    return BigComplex(
        mp.make_mpf(from_man_exp(re, exp)), mp.make_mpf(from_man_exp(im, exp)), precision_bits
    )


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
    """The t -> 1-t image of an atom; one object per atom met."""
    return Atom(GaussRat(1) - atom.pole, -atom.sign)


def _inverse(pole: GaussRat) -> tuple[int, int, int]:
    """Integers (u, v, e) with 1/pole = (u + v*i)/e exactly, e > 0."""
    den = math.lcm(pole.re.denominator, pole.im.denominator)
    x, y = int(pole.re * den), int(pole.im * den)
    u, v, e = den * x, -den * y, x * x + y * y
    g = math.gcd(u, v, e)
    return u // g, v // g, e // g


class _Node:
    """A suffix-trie node: the piece ending here, if one is wanted, and the
    children, one per atom integrated next."""

    __slots__ = ("piece", "children")

    def __init__(self):
        self.piece: tuple[Atom, ...] | None = None
        self.children: dict[Atom, _Node] = {}


def _add_piece(root: _Node, atoms: tuple[Atom, ...]) -> None:
    """Put a piece into a suffix trie keyed from its last atom.

    Only the nodes the piece adds have their atom checked: a node's atom has
    the same place from the end in every piece through it.  Of several
    faults the one nearest the piece's first atom is raised, as a scan from
    the first atom would find it.
    """
    node, fault = root, None
    for depth, atom in enumerate(reversed(atoms), 1):
        child = node.children.get(atom)
        if child is None:
            if not atom.pole:
                if depth == 1:
                    fault = DivergentWordError("dt/t-type atom at the position nearest 0")
            elif atom.pole.norm2() < 1:
                fault = PoleTooCloseError(f"pole {atom.pole} inside the unit disk")
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
    coefficients and sums the series where a piece ends, so the walk holds
    one coefficient array per depth.  The series runs in fixed point:
    coefficients are pairs of Python ints (real, imaginary) scaled by 2^F
    with F = precision_bits + _GUARD_BITS, and every pole enters as the
    exact triple 1/b = (u + v*i)/e.  Each floor division errs by less than
    one unit (ulp) of 2^-F per component, so each atom adds at most
    2*sqrt(2) ulps to every coefficient (the division by |b| >= 1 in
    q_m = (p_m + q_{m-1})/b cannot grow an error faster than the following
    division by m + 1 shrinks it), and the Horner step at radius r weights
    coefficient errors by r^m.  For k atoms the result is within
    sqrt(2) * (2k + 1) / (1 - r) ulps of the truncated series: under 2^6
    ulps for k <= 6 at r <= 2/3, far inside the guard.  A piece's value is
    the pair of Horner sums (re, im), to be read at 2^-F, unrounded.
    """
    if n_terms is None:
        n_terms = int(
            math.ceil((precision_bits + 48) * math.log(2) / -math.log(float(radius)))
        )
    frac_bits = precision_bits + _GUARD_BITS
    num, den = radius.numerator, radius.denominator
    values = {}

    def visit(node: _Node, re: list[int], im: list[int], sign: int) -> None:
        if node.piece is not None:
            total_re = total_im = 0
            for c_re, c_im in zip(reversed(re), reversed(im)):
                total_re = total_re * num // den + c_re
                total_im = total_im * num // den + c_im
            values[node.piece] = (sign * total_re, sign * total_im)
        # the word is linear in each atom's sign, so the signs multiply out and
        # every step integrates dt/(b - t) or, for b = 0, dt/t = -dt/(0 - t)
        for atom, child in node.children.items():
            if not atom.pole:
                # coefficient 0 is already 0: a dt/t node is never the root's child
                new_re = [0] + [c // m for m, c in enumerate(re[1:], 1)]
                new_im = [0] + [c // m for m, c in enumerate(im[1:], 1)]
                visit(child, new_re, new_im, -sign * atom.sign)
                continue
            u, v, e = _inverse(atom.pole)
            new_re, new_im = [0], [0]
            q_re = q_im = 0
            for m in range(1, n_terms + 1):
                p_re, p_im = re[m - 1] + q_re, im[m - 1] + q_im
                q_re = (p_re * u - p_im * v) // e
                q_im = (p_re * v + p_im * u) // e
                new_re.append(q_re // m)
                new_im.append(q_im // m)
            visit(child, new_re, new_im, sign * atom.sign)

    visit(root, [1 << frac_bits] + [0] * n_terms, [0] * (n_terms + 1), 1)
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

    Each line holds the word's key, its precision as a JSON integer and the
    value's parts as decimal strings of ceil(F log10 2) + 1 digits; a line
    is read by rounding its decimals to F bits, to nearest, so every value
    written reads back exactly.  Lines of fewer digits, as older versions
    wrote, read the same way.  Inserts append; a line of another form than
    `put` writes is corrupt and skipped on load; concurrent writers can only
    race on identical idempotent values.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._mem: dict[tuple[str, int], Value] = {}
        self._fh = None  # the append handle of an `appending` block
        if os.path.exists(self.path):
            self._load()

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    key, bits = rec["k"], rec["p"]
                    # put writes a JSON integer; 140.0 or "140" is not one
                    if not isinstance(key, str) or type(bits) is not int or bits < _MIN_BITS:
                        continue
                    frac_bits = bits + _GUARD_BITS
                    value = _join(_parse(rec["re"], frac_bits), _parse(rec["im"], frac_bits))
                except (ValueError, KeyError, TypeError):
                    continue
                self._mem[(key, bits)] = value

    def get(self, key: str, precision_bits: int) -> Value | None:
        return self._mem.get((key, precision_bits))

    def put(self, key: str, precision_bits: int, value: Value) -> None:
        if (key, precision_bits) in self._mem:
            return
        self._mem[(key, precision_bits)] = value
        re, im = _decimals(value, precision_bits)
        line = json.dumps({"k": key, "p": precision_bits, "re": re, "im": im}, sort_keys=True) + "\n"
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


def _decimals(value: Value, precision_bits: int) -> list[str]:
    """The decimal strings of a value's parts, ceil(F log10 2) + 1 digits
    each: enough for every F-bit part to read back as itself (Matula)."""
    digits = math.ceil((precision_bits + _GUARD_BITS) * math.log10(2)) + 1
    re, im, exp = value
    return [to_str(from_man_exp(part, exp), digits) for part in (re, im)]


# in-process memo for segment pieces; prefixes repeat heavily across words
_segment_memo: dict[tuple[tuple[Atom, ...], Fraction, int], tuple[int, int]] = {}


def _eval_words(
    words: Iterable[Word], c: Fraction, precision_bits: int, cache: ValueCache | None
) -> dict[Word, Value]:
    """Values of convergent words over [0, 1], each split at c.

    Each word's cache entry is looked up once.  The pieces of the words that
    miss and that the memo lacks go into one suffix trie per radius, and one
    walk of each trie fills the memo; then each missing word's upper times
    lower pieces are summed over its splittings exactly, on the memo's
    integer pairs at 2^-F (so the sum is at 2^-2F), and rounded once to F
    bits.  The missing words are written to the cache in the order of
    `words`, through one append handle.
    """
    frac_bits = precision_bits + _GUARD_BITS
    values: dict[Word, Value] = {}
    missing = []
    tries: dict[Fraction, _Node] = {}
    for word in words:
        if not is_convergent(word):
            raise DivergentWordError(word_key(word))
        if not word:
            values[word] = (1, 0, 0)
            continue
        key = word_key(word)
        hit = cache.get(key, precision_bits) if cache is not None else None
        if hit is not None:
            values[word] = hit
            continue
        # the upper piece: the prefix mapped by t -> 1-t
        splits = [
            (tuple([_flip(a) for a in reversed(prefix)]), suffix)
            for prefix, suffix in deconcatenations(word)
        ]
        for upper, lower in splits:
            for atoms, radius in ((upper, 1 - c), (lower, c)):
                if atoms and (atoms, radius, precision_bits) not in _segment_memo:
                    _add_piece(tries.setdefault(radius, _Node()), atoms)
        missing.append((word, key, splits))
    for radius, root in tries.items():
        for atoms, value in _walk(root, radius, precision_bits).items():
            _segment_memo[(atoms, radius, precision_bits)] = value
    one = (1 << frac_bits, 0)
    for word, _, splits in missing:
        total_re = total_im = 0
        for upper, lower in splits:
            u_re, u_im = _segment_memo[(upper, 1 - c, precision_bits)] if upper else one
            l_re, l_im = _segment_memo[(lower, c, precision_bits)] if lower else one
            total_re += u_re * l_re - u_im * l_im
            total_im += u_re * l_im + u_im * l_re
        values[word] = _join(
            _round(total_re, 1, -2 * frac_bits, frac_bits),
            _round(total_im, 1, -2 * frac_bits, frac_bits),
        )
    if cache is not None and missing:
        with cache.appending():
            for word, key, _ in missing:
                cache.put(key, precision_bits, values[word])
    return values


def eval_word(
    word: Word,
    precision_bits: int,
    cache: ValueCache | None = None,
) -> BigComplex:
    """Value of a convergent word over [0, 1], split at 1/2."""
    return _to_big(_eval_words((word,), Fraction(1, 2), precision_bits, cache)[word], precision_bits)


def eval_wordsum(
    ws: WordSum,
    precision_bits: int,
    cache: ValueCache | None = None,
) -> BigComplex:
    """sum coef * I(word) + scalar (+ pi part), scaled by (2/pi)^pi_scale.

    The coefficients go over one common denominator d, so the sum of
    numerator times word value is exact on integers over the smallest
    exponent of the values; it is divided by d once and rounded to F bits,
    the one rounding of the word part.  The scalar, pi and 2/pi parts are
    added in mpmath at F bits.

    The same loop sums the L1 bound |coef|_1 * |value|_1, where |x + yi|_1 =
    |x| + |y|, and the result's `bits_lost` is log2 of that bound over
    |sum coef * value|_1: the bits of F that cancellation in the word part
    cost (infinite if the word part is exactly 0, 0 if it has no terms).  It
    overstates the loss in complex modulus by at most one bit.
    """
    values = _eval_words(ws.terms, Fraction(1, 2), precision_bits, cache)
    frac_bits = precision_bits + _GUARD_BITS
    den = math.lcm(*[q for c in ws.terms.values() for q in (c.re.denominator, c.im.denominator)])
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
    words = _to_big(
        _join(_round(sum_re, den, low, frac_bits), _round(sum_im, den, low, frac_bits)),
        precision_bits,
    )
    with workprec(frac_bits):
        total = mpc(words.real, words.imag)
        total += ws.scalar.to_mpc()
        if ws.scalar_pi:
            total += mpf(ws.scalar_pi.numerator) / ws.scalar_pi.denominator * mpmath.pi
        if ws.pi_scale:
            total *= (2 / mpmath.pi) ** ws.pi_scale
        total = +total
    return BigComplex(total.real, total.imag, precision_bits, bits_lost)
