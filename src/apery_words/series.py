"""Series specifications: the user-facing description of one nested sum.

A spec describes
    sum_{n_1 rel_1 n_2 rel_2 ... rel_{d-1} n_d rel_d tail}
        a(n_1)^p / (l_1(n_1)^{s_1} * ... * l_d(n_d)^{s_d}),
where a(n) = binom(2n,n) x^{2n} / 4^n, each l_j(n) is 2n, 2n+1 or 2n-1, each
relation is strict (>) or weak (>=) and p is 1 or 2.

The mini-language looks like "S2[2n-1^2 > 2n^1 > 0]" with optional suffixes
"@tail=N" and "@x=0.5".
"""

from __future__ import annotations

import hashlib
import itertools
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class Parity(Enum):
    EVEN = "2n"
    ODD_HIGH = "2n+1"
    ODD_LOW = "2n-1"

    def index_value(self, n: int) -> int:
        if self is Parity.EVEN:
            return 2 * n
        if self is Parity.ODD_HIGH:
            return 2 * n + 1
        return 2 * n - 1


class Relation(Enum):
    STRICT = ">"
    WEAK = ">="


@dataclass(frozen=True)
class IndexTerm:
    parity: Parity
    exponent: int

    def __post_init__(self):
        if self.exponent < 1:
            raise SpecValidationError(f"exponent must be >= 1, got {self.exponent}")


@dataclass(frozen=True)
class SeriesSpec:
    """One Apery-type central-binomial sum, validated on construction."""

    binom_power: int
    terms: tuple[IndexTerm, ...]
    relations: tuple[Relation, ...]
    tail_bound: int = 0
    argument: Fraction = Fraction(1)

    def __post_init__(self):
        validate(self)

    @property
    def depth(self) -> int:
        return len(self.terms)

    @property
    def weight(self) -> int:
        return sum(t.exponent for t in self.terms)


@dataclass(frozen=True)
class HarmonicSpec:
    """A harmonic-weighted head sum: sum a(n)^p * zh_n(k) * odd_n(l) / head(n)^q.

    zh_n(k) is the nested sum over n >= m_1 > ... > 0 of prod 1/m_i^{k_i};
    odd_n(l) the nested sum over n >= r_1 > ... > 0 of prod 1/(2 r_i - 1)^{l_i}.
    """

    k_vec: tuple[int, ...]
    l_vec: tuple[int, ...]
    head_parity: Parity
    head_exponent: int
    binom_power: int

    def __post_init__(self):
        if any(k < 1 for k in self.k_vec) or any(l < 1 for l in self.l_vec):
            raise SpecValidationError("harmonic weights must be positive")
        if self.binom_power not in (1, 2):
            raise SpecValidationError("binom_power must be 1 or 2")
        minimum = 2 if self.binom_power == 1 else 1
        if self.head_exponent < minimum:
            raise SpecValidationError(
                f"head exponent must be >= {minimum} for binom_power "
                f"{self.binom_power}, got {self.head_exponent}"
            )


class SpecSyntaxError(ValueError):
    """Raised when the spec text does not match the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SpecValidationError(ValueError):
    """Raised when a structurally parsed spec violates an invariant."""


def validate(spec: SeriesSpec) -> None:
    d = len(spec.terms)
    if d < 1:
        raise SpecValidationError("at least one index term required")
    if len(spec.relations) != d:
        raise SpecValidationError(
            f"need {d} relations (one per term, last one against the bound), "
            f"got {len(spec.relations)}"
        )
    if spec.binom_power not in (1, 2):
        raise SpecValidationError("binom_power must be 1 or 2")
    if spec.tail_bound < 0:
        raise SpecValidationError("tail_bound must be >= 0")
    if not (0 < spec.argument <= 1):
        raise SpecValidationError("argument x must lie in (0, 1]")
    if spec.relations[-1] is Relation.WEAK and spec.terms[-1].parity is not Parity.ODD_HIGH:
        raise SpecValidationError(
            "weak bottom relation needs a 2n+1 innermost index "
            "(otherwise the bound produces a zero denominator)"
        )
    # An EVEN index hits denominator 0 when its chain can reach n = 0: the
    # minimum value of n_j is tail_bound plus the number of strict relations
    # at or below position j.
    strict_below = 0
    for j in range(d - 1, -1, -1):
        if spec.relations[j] is Relation.STRICT:
            strict_below += 1
        if spec.terms[j].parity is Parity.EVEN and spec.tail_bound + strict_below < 1:
            raise SpecValidationError(
                f"index term {j + 1} (2n) can reach n = 0 through weak relations"
            )


# The grammar is regular: a head, one or more index terms each followed by the
# relation below it, and the bottom.  Each pattern consumes the whitespace
# after it; the spellings of parities and relations are those of the enums.
_HEAD = re.compile(r"\s*(S2?)\s*\[\s*")
_TERM = re.compile(r"(2n[+-]1|2n)\s*\^\s*([1-9][0-9]*)\s*(>=?)\s*")
_BOTTOM = re.compile(r"0\s*\]\s*")
# the @x forms the README and render use: an ASCII decimal, or p/q with q > 0
_ARGUMENT = re.compile(r"[0-9]+(?:\.[0-9]+)?|[0-9]+/[0-9]*[1-9][0-9]*")


def parse_spec(text: str) -> SeriesSpec:
    """Parse the spec mini-language: "S[" or "S2[", index terms "2n^e",
    "2n+1^e" or "2n-1^e" each followed by ">" or ">=", then "0]", with
    whitespace allowed between pieces, then the optional "@tail=N" and
    "@x=q" suffixes.  A SpecSyntaxError names the position where the piece
    that fails to match begins (a suffix error, the '@' of its suffix)."""
    body, at_sign, suffix_part = text.partition("@")
    head = _HEAD.match(body)
    if head is None:
        raise SpecSyntaxError("spec must start with 'S[' or 'S2['", 0)
    binom_power = 2 if head[1] == "S2" else 1
    pos = head.end()
    terms: list[IndexTerm] = []
    relations: list[Relation] = []
    bottom = None
    while bottom is None:
        term = _TERM.match(body, pos)
        if term is None:
            expected = "an index term (2n^e, 2n+1^e or 2n-1^e, then > or >=)"
            raise SpecSyntaxError(f"expected {expected}" + (" or '0]'" if terms else ""), pos)
        terms.append(IndexTerm(Parity(term[1]), int(term[2])))
        relations.append(Relation(term[3]))
        pos = term.end()
        bottom = _BOTTOM.match(body, pos)
    if bottom.end() != len(body):
        raise SpecSyntaxError("trailing input after ']'", bottom.end())

    tail_bound = 0
    argument = Fraction(1)
    if at_sign:
        seen = set()
        at = len(body)  # the position of this suffix's '@'
        for part in suffix_part.split("@"):
            key, _, value = part.strip().partition("=")
            key = key.strip()
            value = value.strip()
            if not key:
                raise SpecSyntaxError("empty suffix after '@'", at)
            if key in seen:
                raise SpecSyntaxError(f"suffix @{key} given twice", at)
            seen.add(key)
            if key == "tail":
                if not re.fullmatch("[0-9]+", value):
                    raise SpecSyntaxError("@tail wants a non-negative integer", at)
                tail_bound = int(value)
            elif key == "x":
                # Fraction() would also take other scripts' digits and "_"
                if not _ARGUMENT.fullmatch(value):
                    raise SpecSyntaxError(f"@x wants a decimal or p/q, got {value!r}", at)
                argument = Fraction(value)
            else:
                raise SpecSyntaxError(f"unknown suffix {key!r}", at)
            at += len(part) + 1

    return SeriesSpec(binom_power, tuple(terms), tuple(relations), tail_bound, argument)


def parse_head(text: str) -> tuple[Parity, int]:
    """Parse a harmonic head like "2n-1^2"; a missing "^e" means exponent 1."""
    symbol, caret, exp = text.partition("^")
    try:
        parity = Parity(symbol)
    except ValueError:
        raise SpecSyntaxError(f"unknown head index {symbol!r}, expected 2n, 2n+1 or 2n-1", 0) from None
    if not caret:
        return parity, 1
    if not re.fullmatch(r"[1-9][0-9]*", exp):
        raise SpecSyntaxError(f"head exponent must be a positive integer, got {exp!r}", len(symbol) + 1)
    return parity, int(exp)


def render(spec: SeriesSpec) -> str:
    """Inverse printer; parse_spec(render(s)) == s."""
    head = "S2" if spec.binom_power == 2 else "S"
    parts = []
    for term, rel in zip(spec.terms, spec.relations):
        parts.append(f"{term.parity.value}^{term.exponent} {rel.value}")
    body = f"{head}[" + " ".join(parts) + " 0]"
    if spec.tail_bound:
        body += f"@tail={spec.tail_bound}"
    if spec.argument != 1:
        body += f"@x={spec.argument.numerator}/{spec.argument.denominator}"
    return body


def canonical_key(spec: SeriesSpec) -> str:
    """Lowercase hex of a 256-bit hash of the rendering (one per valid spec)."""
    return hashlib.sha256(render(spec).encode()).hexdigest()


def expand_harmonic(h: HarmonicSpec) -> list[tuple[Fraction, SeriesSpec]]:
    """Expand a harmonic-weighted sum into plain series specs.

    The zh-chain (n >= m_1 > ... > m_e > 0, denominators rewritten
    1/m^k = 2^k/(2m)^k, so 2n indices) and the odd-chain (rewritten to 2n+1
    indices with n > r_1 > ... > r_f >= 0) are interleaved in all ways, and
    each relation follows from the parities, counting no cross-equality
    twice: a 2n index is read weakly from the head or from a 2n+1 index
    above it and strictly from a 2n index, a 2n+1 index is read strictly,
    and the bottom relation is weak under a 2n+1 index and strict otherwise.
    """
    e, f = len(h.k_vec), len(h.l_vec)
    coef = Fraction(2) ** sum(h.k_vec)
    if h.head_parity is Parity.EVEN:
        coef *= Fraction(2) ** h.head_exponent

    out: list[tuple[Fraction, SeriesSpec]] = []
    for zh_slots in itertools.combinations(range(e + f), e):
        ks, ls = iter(h.k_vec), iter(h.l_vec)
        terms = [IndexTerm(h.head_parity, h.head_exponent)]
        relations = []
        upper_is_zh = False  # the head reads a zh index weakly, whatever its parity
        for slot in range(e + f):
            is_zh = slot in zh_slots
            if is_zh:
                terms.append(IndexTerm(Parity.EVEN, next(ks)))
            else:
                terms.append(IndexTerm(Parity.ODD_HIGH, next(ls)))
            relations.append(Relation.WEAK if is_zh and not upper_is_zh else Relation.STRICT)
            upper_is_zh = is_zh
        relations.append(Relation.WEAK if terms[-1].parity is Parity.ODD_HIGH else Relation.STRICT)
        out.append((coef, SeriesSpec(h.binom_power, tuple(terms), tuple(relations))))
    return out
