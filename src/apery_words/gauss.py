"""Exact Gaussian-rational arithmetic and the exact word sums built on it.

Coefficients of word sums live in Q[i].  A GaussRat is a pair of
fractions.Fraction values (real and imaginary part); addition, subtraction and
multiplication are exact (the compiler never divides one).  Values convert to
mpmath complex numbers only at evaluation time.

A WordSum is the one sparse linear combination of the compiler: block-shape
specs (the rewrite's output), trig words with Fraction coefficients (the
emitter's output) and level-4 atom words with GaussRat coefficients (the
change of variables' output) are all WordSums.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath


class GaussRat:
    """A Gaussian rational a + b*i with exact Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # a Fraction is immutable, so one given is kept as it is
        self.re = re if re.__class__ is Fraction else Fraction(re)
        self.im = im if im.__class__ is Fraction else Fraction(im)

    def __add__(self, other) -> "GaussRat":
        other = _coerce(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other) -> "GaussRat":
        other = _coerce(other)
        return GaussRat(self.re - other.re, self.im - other.im)

    def __mul__(self, other) -> "GaussRat":
        other = _coerce(other)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (GaussRat, int, Fraction)):
            other = _coerce(other)
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        # a real value hashes as the equal int or Fraction does
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __repr__(self) -> str:
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def norm2(self) -> Fraction:
        """|z|^2, exact."""
        return self.re * self.re + self.im * self.im

    def to_mpc(self) -> mpmath.mpc:
        """Convert at the current mpmath working precision."""
        return mpmath.mpc(
            mpmath.mpf(self.re.numerator) / self.re.denominator,
            mpmath.mpf(self.im.numerator) / self.im.denominator,
        )


def _coerce(value) -> GaussRat:
    if isinstance(value, GaussRat):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussRat(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to GaussRat")


@dataclass
class WordSum:
    """An exact sparse combination of words or specs, a constant and a 2/pi scale.

    Value = (2/pi)^pi_scale * (sum coef * I(key) + scalar + scalar_pi * pi).
    Coefficients and scalar are GaussRats over atom words (the default) and
    Fractions over trig words and specs; scalar_pi is always rational.
    """

    terms: dict[Hashable, Fraction | GaussRat] = field(default_factory=dict)
    scalar: Fraction | GaussRat = GaussRat(0)
    scalar_pi: Fraction = Fraction(0)
    pi_scale: int = 0

    def add_term(self, key: Hashable, coef: Fraction | GaussRat) -> None:
        old = self.terms.get(key)
        new = coef if old is None else old + coef
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    def scaled(self, coef: Fraction) -> "WordSum":
        return WordSum(
            {w: c * coef for w, c in self.terms.items()},
            self.scalar * coef,
            self.scalar_pi * coef,
            self.pi_scale,
        )

    def __iadd__(self, other: "WordSum") -> "WordSum":
        if other.pi_scale != self.pi_scale:
            raise ValueError("cannot add word sums with different 2/pi scales")
        for w, c in other.terms.items():
            self.add_term(w, c)
        self.scalar += other.scalar
        self.scalar_pi += other.scalar_pi
        return self

    def max_weight(self) -> int:
        return max((len(w) for w in self.terms), default=0)
