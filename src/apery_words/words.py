"""Level-4 integrand words and the trig -> algebraic change of variables.

An Atom is the 1-form sign * dt/(pole - t); the canonical alphabet is
    w0  = dt/t            (pole 0, sign -1)
    x1  = dt/(1-t)        x-1 = dt/(-1-t)      xi, x-i likewise.
Words are tuples of atoms ordered with the leftmost factor nearest t = 1.
A word converges iff it does not start with x1 and does not end with w0.

cov() applies t -> arcsin((1-u^2)/(1+u^2)) to a WordSum over trig words: each
trig form maps to a fixed combination of atoms, the substitution reverses
orientation, so each word is reversed and picks up (-1)^length.  Every
coefficient of that map is a unit (+-1 or +-i), so the expansion runs on an
integer alphabet: a word is a tuple of indices into the five canonical atoms
and its coefficient a power of i mod 4 times the trig word's rational
coefficient.  The result is a WordSum over atom words with Gaussian-rational
coefficients (WordSum lives in gauss and is re-exported here);
words_to_json_dict writes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .gauss import GaussRat, WordSum
from .trig import CompileError, TrigForm


@dataclass(frozen=True, slots=True, eq=False)
class Atom:
    """1-form sign * dt/(pole - t) with an exact Gaussian-rational pole.

    An int or Fraction pole is stored as a GaussRat, so equal atoms hash and
    name alike.  Atoms are equal when their (pole, sign) are.
    """

    pole: GaussRat
    sign: int = 1
    # words are hashed as dict keys at every stage, so each atom is hashed
    # once; slots keep the stored hash from growing the atoms the evaluator
    # makes for every flipped segment
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if not isinstance(self.pole, GaussRat):
            object.__setattr__(self, "pole", GaussRat(self.pole))
        object.__setattr__(self, "_hash", hash((self.pole, self.sign)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        # shared atoms meet themselves; unequal ones nearly always differ in hash
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.pole == other.pole and self.sign == other.sign


W0 = Atom(GaussRat(0), -1)
X1 = Atom(GaussRat(1), 1)
XM1 = Atom(GaussRat(-1), 1)
XI = Atom(GaussRat(0, 1), 1)
XMI = Atom(GaussRat(0, -1), 1)

_CANONICAL_NAMES = {W0: "w0", X1: "x1", XM1: "x-1", XI: "xi", XMI: "x-i"}

Word = tuple[Atom, ...]


def atom_name(atom: Atom) -> str:
    name = _CANONICAL_NAMES.get(atom)
    if name is not None:
        return name
    sign = "" if atom.sign == 1 else "-"
    return f"{sign}x({atom.pole})"


def word_key(word: Word) -> str:
    return ".".join(atom_name(a) for a in word)


def is_convergent(word: Word) -> bool:
    if not word:
        return True
    return word[0] != X1 and word[-1] != W0


def deconcatenations(word: Word) -> list[tuple[Word, Word]]:
    """All splittings word = prefix . suffix, in order (len+1 of them)."""
    return [(word[:i], word[i:]) for i in range(len(word) + 1)]


class NonconvergentWordError(ValueError):
    """The change of variables produced a divergent word: a compiler bug."""


def words_to_json_dict(ws: WordSum) -> dict:
    """The `compile --ir words` shape; words sorted by length, then key."""
    words = sorted(ws.terms.items(), key=lambda kv: (len(kv[0]), word_key(kv[0])))
    return {
        "pi_scale": ws.pi_scale,
        "scalar": {
            "re": str(ws.scalar.re),
            "im": str(ws.scalar.im),
            "pi": str(ws.scalar_pi),
        },
        "terms": [
            {
                "word": [atom_name(a) for a in w],
                "coef": {"re": str(c.re), "im": str(c.im)},
            }
            for w, c in words
        ],
    }


# the canonical atoms by integer index, and the substitution table over them:
# each trig form becomes a fixed combination of atoms, each with coefficient
# i**power (power mod 4)
_ATOMS = (W0, X1, XM1, XI, XMI)
_W0, _X1, _XM1, _XI, _XMI = range(5)
_COV = {
    TrigForm.DT: ((1, _XMI), (3, _XI)),
    TrigForm.COT: ((0, _XMI), (0, _XI), (2, _XM1), (2, _X1)),
    TrigForm.CSC: ((0, _XM1), (2, _X1)),
    TrigForm.TAN: ((2, _W0), (2, _XMI), (2, _XI)),
    TrigForm.SEC: ((2, _W0),),
    TrigForm.SECCSC: ((2, _W0), (2, _XM1), (2, _X1)),
}


def cov(expr: WordSum) -> WordSum:
    """Change of variables onto [0, 1]: expand, reverse, sign, collect.

    Takes a word sum over trig words, returns one over atom words.  Each trig
    word expands into integer words (atom indices) with a power of i; the
    word is reversed, and its sign (-1)^length enters as i^2 per odd length.
    Contributions collect per integer word as exact (re, im) pairs, dropping
    a word whose sum cancels to 0 as WordSum.add_term does, and each word
    that survives becomes an atom word once, in first-seen order.
    """
    acc: dict[tuple[int, ...], tuple] = {}
    for tword, coef in expr.terms.items():
        for f in tword:
            if f not in _COV:
                raise CompileError(f"form {f.value} must be peeled before the change of variables")
        coef = Fraction(coef)
        # coef * i**power for power 0..3, as (re, im)
        units = ((coef, 0), (0, coef), (-coef, 0), (0, -coef))
        # prepending each form's atom builds the reversed word directly
        stack = [(2 * (len(tword) % 2), ())]
        for f in tword:
            stack = [(power + p, (k,) + word) for power, word in stack for p, k in _COV[f]]
        for power, word in stack:
            re, im = units[power & 3]
            old = acc.get(word)
            if old is not None:
                re, im = old[0] + re, old[1] + im
            if re or im:
                acc[word] = (re, im)
            else:
                acc.pop(word, None)
    ws = WordSum(
        scalar=GaussRat(expr.scalar), scalar_pi=expr.scalar_pi, pi_scale=expr.pi_scale
    )
    for word, (re, im) in acc.items():
        # from a list, not a generator, so the tuple is allocated at its size
        atoms = tuple([_ATOMS[k] for k in word])
        if word and (word[0] == _X1 or word[-1] == _W0):
            raise NonconvergentWordError(word_key(atoms))
        ws.terms[atoms] = GaussRat(re, im)
    return ws
