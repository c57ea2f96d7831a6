"""Level-4 integrand words and the trig -> algebraic change of variables.

An Atom is the 1-form sign * dt/(pole - t); the canonical alphabet is
    w0  = dt/t            (pole 0, sign -1)
    x1  = dt/(1-t)        x-1 = dt/(-1-t)      xi, x-i likewise.
Words are tuples of atoms ordered with the leftmost factor nearest t = 1.
A word converges iff it does not start with x1 and does not end with w0.

cov() applies t -> arcsin((1-u^2)/(1+u^2)) to a WordSum over trig words: each
trig form maps to a fixed combination of atoms, the substitution reverses
orientation, so each word is reversed and picks up (-1)^length.  The result is
a WordSum over atom words with Gaussian-rational coefficients (WordSum lives in
gauss and is re-exported here); words_to_json_dict writes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gauss import GaussRat, WordSum
from .trig import CompileError, TrigForm


@dataclass(frozen=True)
class Atom:
    """1-form sign * dt/(pole - t) with an exact Gaussian-rational pole."""

    pole: GaussRat
    sign: int = 1

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")


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


# the substitution table: each trig form becomes a fixed atom combination
_COV = {
    TrigForm.DT: ((GaussRat(0, 1), XMI), (GaussRat(0, -1), XI)),
    TrigForm.COT: (
        (GaussRat(1), XMI),
        (GaussRat(1), XI),
        (GaussRat(-1), XM1),
        (GaussRat(-1), X1),
    ),
    TrigForm.CSC: ((GaussRat(1), XM1), (GaussRat(-1), X1)),
    TrigForm.TAN: ((GaussRat(-1), W0), (GaussRat(-1), XMI), (GaussRat(-1), XI)),
    TrigForm.SEC: ((GaussRat(-1), W0),),
    TrigForm.SECCSC: ((GaussRat(-1), W0), (GaussRat(-1), XM1), (GaussRat(-1), X1)),
}


def cov(expr: WordSum) -> WordSum:
    """Change of variables onto [0, 1]: expand, reverse, sign, collect.

    Takes a word sum over trig words, returns one over atom words.
    """
    ws = WordSum(
        scalar=GaussRat(expr.scalar), scalar_pi=expr.scalar_pi, pi_scale=expr.pi_scale
    )
    for tword, coef in expr.terms.items():
        for f in tword:
            if f not in _COV:
                raise CompileError(f"form {f.value} must be peeled before the change of variables")
        sign = -1 if len(tword) % 2 else 1
        stack: list[tuple[GaussRat, Word]] = [(GaussRat(coef * sign), ())]
        for f in tword:
            stack = [(c * fc, w + (atom,)) for c, w in stack for fc, atom in _COV[f]]
        for c, w in stack:
            ws.add_term(tuple(reversed(w)), c)
    for word in ws.terms:
        if not is_convergent(word):
            raise NonconvergentWordError(word_key(word))
    return ws

