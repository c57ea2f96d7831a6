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
their t -> 1-t images 1, 2, 1-+i), so the series kernel runs in fixed
point on Gaussian integers: coefficients are pairs of Python ints scaled by
2^(bits + guard), 1/b enters as an exact integer triple, and only the
segment's value is converted to mpmath.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpc, mpf, workprec

from .gauss import GaussRat
from .words import Atom, Word, WordSum, deconcatenations, is_convergent, word_key

_MIN_BITS = 64
_GUARD_BITS = 24


class DivergentWordError(ValueError):
    """eval_word was handed a word failing the convergence rule."""


class PoleTooCloseError(ValueError):
    """A nonzero pole with |b| < 1 reached the segment integrator."""


@dataclass
class BigComplex:
    """Arbitrary-precision complex value tagged with its working precision."""

    real: mpf
    imag: mpf
    precision_bits: int

    def __post_init__(self):
        if self.precision_bits < _MIN_BITS:
            raise ValueError(f"precision_bits must be >= {_MIN_BITS}")
        if not (mpmath.isfinite(self.real) and mpmath.isfinite(self.imag)):
            raise ValueError("BigComplex components must be finite")

    def to_mpc(self) -> mpc:
        # mpc() rounds to the ambient precision, 53 bits outside a workprec
        with workprec(max(mp.prec, self.precision_bits)):
            return mpc(self.real, self.imag)

    @classmethod
    def from_mpc(cls, value: mpc, precision_bits: int) -> "BigComplex":
        return cls(value.real, value.imag, precision_bits)


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
) -> dict[tuple[Atom, ...], mpc]:
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
    ulps for k <= 6 at r <= 2/3, far inside the guard.  Values are mpc at
    F bits.
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
            with workprec(frac_bits):
                values[node.piece] = mpc(
                    mpf((sign * total_re, -frac_bits)), mpf((sign * total_im, -frac_bits))
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
    walk (see _walk) of the trie that holds this one piece."""
    root = _Node()
    _add_piece(root, sw.atoms)
    value = _walk(root, sw.segment_radius, precision_bits, n_terms)[sw.atoms]
    return BigComplex.from_mpc(value, precision_bits)


class ValueCache:
    """Persistent (word, precision) -> value store, JSON lines on disk.

    Inserts append; corrupt lines are skipped on load; concurrent writers can
    only race on identical idempotent values.
    """

    def __init__(self, path: str | os.PathLike | None = None):
        self.path = os.fspath(path) if path is not None else None
        self._mem: dict[tuple[str, int], BigComplex] = {}
        self._fh = None  # the append handle of an `appending` block
        if self.path is not None and os.path.exists(self.path):
            self._load()

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    key, bits = rec["k"], int(rec["p"])
                    with workprec(bits + _GUARD_BITS):
                        value = BigComplex(mpf(rec["re"]), mpf(rec["im"]), bits)
                except (ValueError, KeyError, TypeError):
                    continue
                if isinstance(key, str):
                    self._mem[(key, bits)] = value

    def get(self, key: str, precision_bits: int) -> BigComplex | None:
        return self._mem.get((key, precision_bits))

    def put(self, key: str, precision_bits: int, value: BigComplex) -> None:
        if (key, precision_bits) in self._mem:
            return
        self._mem[(key, precision_bits)] = value
        if self.path is None:
            return
        digits = int(precision_bits / 3.32) + 8
        rec = {
            "k": key,
            "p": precision_bits,
            "re": mpmath.nstr(value.real, digits),
            "im": mpmath.nstr(value.imag, digits),
        }
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
        if self.path is None:
            yield
            return
        with open(self.path, "a", encoding="utf-8", buffering=1) as self._fh:
            try:
                yield
            finally:
                self._fh = None


# in-process memo for segment pieces; prefixes repeat heavily across words
_segment_memo: dict[tuple[tuple[Atom, ...], Fraction, int], mpc] = {}


def _segment_value(atoms: tuple[Atom, ...], radius: Fraction, bits: int) -> mpc:
    return _segment_memo[(atoms, radius, bits)] if atoms else mpc(1)


def _eval_words(
    words: Iterable[Word], c: Fraction, precision_bits: int, cache: ValueCache | None
) -> dict[Word, BigComplex]:
    """Values of convergent words over [0, 1], each split at c.

    Each word's cache entry is looked up once.  The pieces of the words that
    miss and that the memo lacks go into one suffix trie per radius, and one
    walk of each trie fills the memo; then each missing word is summed over
    its splittings, and the missing words are written to the cache in the
    order of `words`, through one append handle.
    """
    values: dict[Word, BigComplex] = {}
    missing = []
    tries: dict[Fraction, _Node] = {}
    for word in words:
        if not is_convergent(word):
            raise DivergentWordError(word_key(word))
        if not word:
            with workprec(precision_bits):
                values[word] = BigComplex(mpf(1), mpf(0), precision_bits)
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
    for word, _, splits in missing:
        with workprec(precision_bits + _GUARD_BITS):
            total = mpc(0)
            for upper, lower in splits:
                total += _segment_value(upper, 1 - c, precision_bits) * _segment_value(
                    lower, c, precision_bits
                )
            values[word] = BigComplex.from_mpc(+total, precision_bits)
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
    return _eval_words((word,), Fraction(1, 2), precision_bits, cache)[word]


def split_consistency(word: Word, c: Fraction, precision_bits: int) -> BigComplex:
    """Evaluate via a split at c (1/3, 1/2 or 2/3); test harness only."""
    if c not in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
        raise ValueError("split point must be 1/3, 1/2 or 2/3")
    return _eval_words((word,), c, precision_bits, None)[word]


def eval_wordsum(
    ws: WordSum,
    precision_bits: int,
    cache: ValueCache | None = None,
) -> BigComplex:
    """sum coef * I(word) + scalar (+ pi part), scaled by (2/pi)^pi_scale."""
    values = _eval_words(ws.terms, Fraction(1, 2), precision_bits, cache)
    with workprec(precision_bits + _GUARD_BITS):
        total = mpc(0)
        for word, coef in ws.terms.items():
            total += coef.to_mpc() * values[word].to_mpc()
        total += ws.scalar.to_mpc()
        if ws.scalar_pi:
            total += mpf(ws.scalar_pi.numerator) / ws.scalar_pi.denominator * mpmath.pi
        if ws.pi_scale:
            total *= (2 / mpmath.pi) ** ws.pi_scale
        return BigComplex.from_mpc(+total, precision_bits)
