"""Rewrite a series spec into words of trigonometric 1-forms on (0, pi/2).

The pipeline stages, in order (the first two return a gauss.WordSum over
block-shape specs whose scalar is the coefficient of 1):

  convert_relations      -- inclusion/exclusion until each relation is weak
                            exactly after a 2n+1 index (the shape the block
                            construction needs); coinciding indices merge, and
                            mixed-parity merges split by partial fractions.
  eliminate_inner_oddlow -- index shifts 2n-1 -> 2m+1 so that a 2n-1 index
                            survives only in the leading position.
  compile_blocks         -- emits the word combination: each index contributes
                            a block of 1-forms, a block's trailing sec/tan
                            multiplies the head form of the next block, and a
                            leading 2n-1 block unrolls through the
                            weight-lowering recursion (at weight 1 it drops:
                            sum_{n>m} a_n/(2n-1) = a_m).  Squared-binomial sums
                            get a Wallis prefix form and a 2/pi scale; their
                            sin/cos prefixes are peeled into the eight-form
                            alphabet plus exact constants.

The output is a gauss.WordSum over trig words: everything here is exact, words
map to Fraction coefficients, the peeled scalar is a rational plus a rational
multiple of pi, and pi_scale marks the 2/pi factor; the emitter carries the
constant 1 as the empty word ().  trig_to_json_dict writes the output as the
`compile --ir trig` shape.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .gauss import WordSum
from .series import IndexTerm, Parity, Relation, SeriesSpec


class TrigForm(Enum):
    DT = "dt"
    COT = "cot"
    TAN = "tan"
    CSC = "csc"
    SEC = "sec"
    SECCSC = "seccsc"
    SIN = "sin"
    COS = "cos"


TrigWord = tuple[TrigForm, ...]


class CompileError(ValueError):
    """A spec reached the compiler in a shape it does not support."""


def _merge_factors(p1: Parity, e1: int, p2: Parity, e2: int) -> list[tuple[Fraction, IndexTerm]]:
    """Expand 1/(l1(n)^e1 * l2(n)^e2) into single-parity terms at the same n.

    With Y the lower index and X = Y + d the higher one (d = 1 or 2),
    1/(X^a Y^b) = sum_{j<=b} (-1)^(b-j) C(a+b-j-1, b-j) d^-(a+b-j) / Y^j
                + sum_{j<=a} (-1)^b     C(a+b-j-1, a-j) d^-(a+b-j) / X^j,
    the lower index's terms first.
    """
    if p1 is p2:
        return [(Fraction(1), IndexTerm(p1, e1 + e2))]
    (low, b), (high, a) = sorted(((p1, e1), (p2, e2)), key=lambda pe: pe[0].index_value(0))
    d, w = high.index_value(0) - low.index_value(0), a + b
    return [
        (Fraction((-1) ** (b - j) * math.comb(w - j - 1, b - j), d ** (w - j)), IndexTerm(low, j))
        for j in range(1, b + 1)
    ] + [
        (Fraction((-1) ** b * math.comb(w - j - 1, a - j), d ** (w - j)), IndexTerm(high, j))
        for j in range(1, a + 1)
    ]


def _conforming(term: IndexTerm, rel: Relation) -> bool:
    wants_weak = term.parity is Parity.ODD_HIGH
    return (rel is Relation.WEAK) == wants_weak


def _rebuild(spec: SeriesSpec, terms: list[IndexTerm], relations: list[Relation]) -> SeriesSpec:
    return SeriesSpec(spec.binom_power, tuple(terms), tuple(relations), spec.tail_bound, spec.argument)


def _one(spec: SeriesSpec) -> WordSum:
    return WordSum({spec: Fraction(1)}, Fraction(0))


def _rewrite_each(combo: WordSum, rewrite) -> WordSum:
    """Replace each spec of `combo` by its rewrite; the scalar passes through."""
    out = WordSum(scalar=combo.scalar)
    for spec, coef in combo.terms.items():
        out += rewrite(spec).scaled(coef)
    return out


def convert_relations(spec: SeriesSpec) -> WordSum:
    """Rewrite into sums whose relation after index j is weak iff l_j = 2n+1.

    The scalar of the output is the coefficient of 1 (a fully collapsed
    diagonal, whose value is a_0^p = 1).
    """
    if spec.tail_bound != 0:
        raise CompileError("relation conversion requires tail_bound = 0")
    for i in range(spec.depth):
        if _conforming(spec.terms[i], spec.relations[i]):
            continue
        flipped = Relation.WEAK if spec.relations[i] is Relation.STRICT else Relation.STRICT
        sign = 1 if spec.relations[i] is Relation.WEAK else -1  # weak = strict + diag
        rels = list(spec.relations)
        rels[i] = flipped
        out = convert_relations(_rebuild(spec, list(spec.terms), rels))
        out += _rewrite_each(_diagonal(spec, i), convert_relations).scaled(sign)
        return out
    return _one(spec)


def _diagonal(spec: SeriesSpec, i: int) -> WordSum:
    """Specs for the coinciding-index slice n_i = n_{i+1} (or n_d = bound)."""
    terms = list(spec.terms)
    rels = list(spec.relations)
    if i == spec.depth - 1:
        # bottom: only reached for a 2n+1 index against bound 0, where the
        # n = 0 slice contributes the factor 1 exactly
        assert terms[i].parity is Parity.ODD_HIGH
        return _safe_pieces(spec, terms[:-1], rels[:-1])
    out = WordSum(scalar=Fraction(0))
    for coef, merged in _merge_factors(
        terms[i].parity, terms[i].exponent, terms[i + 1].parity, terms[i + 1].exponent
    ):
        new_terms = terms[:i] + [merged] + terms[i + 2 :]
        new_rels = rels[:i] + rels[i + 1 :]
        out += _safe_pieces(spec, new_terms, new_rels).scaled(coef)
    return out


def _safe_pieces(spec: SeriesSpec, terms: list[IndexTerm], rels: list[Relation]) -> WordSum:
    """Build pieces, pre-splitting a weak bottom over a 2n-1 index.

    Such pieces arise from diagonal merges; the n = 0 slice is defined there
    (denominator (2*0-1)^s = (-1)^s), so split it off instead of rejecting.
    """
    if not terms:
        return WordSum(scalar=Fraction(1))
    if rels[-1] is Relation.WEAK and terms[-1].parity is Parity.ODD_LOW:
        s = terms[-1].exponent
        out = _safe_pieces(spec, terms, rels[:-1] + [Relation.STRICT])
        sign = Fraction(-1 if s % 2 else 1)
        out += _safe_pieces(spec, terms[:-1], rels[:-1]).scaled(sign)
        return out
    return _one(_rebuild(spec, terms, rels))


def eliminate_inner_oddlow(spec: SeriesSpec) -> WordSum:
    """Shift non-leading 2n-1 indices to 2m+1; output keeps block-shape relations.

    Pre: block-shape relations (run convert_relations first).
    """
    # the innermost non-leading 2n-1 index
    j = max((k for k in range(1, spec.depth) if spec.terms[k].parity is Parity.ODD_LOW), default=None)
    if j is None:
        return _one(spec)
    terms = list(spec.terms)
    rels = list(spec.relations)
    if rels[j] is not Relation.STRICT:
        raise CompileError("inner 2n-1 index must carry a strict lower relation")

    # main piece: n_j = m+1, so 2n_j-1 = 2m+1, the lower relation weakens and
    # the upper one tightens to strict
    shifted_terms = terms[:j] + [IndexTerm(Parity.ODD_HIGH, terms[j].exponent)] + terms[j + 1 :]
    shifted_rels = rels[:]
    shifted_rels[j] = Relation.WEAK
    upper_was_strict = rels[j - 1] is Relation.STRICT
    shifted_rels[j - 1] = Relation.STRICT
    out = rewrite_to_block_shape(_rebuild(spec, shifted_terms, shifted_rels))

    if upper_was_strict:
        # n_{j-1} > m+1 splits off the collision slice n_{j-1} = n_j
        for coef, merged in _merge_factors(
            terms[j - 1].parity, terms[j - 1].exponent, Parity.ODD_LOW, terms[j].exponent
        ):
            col_terms = terms[: j - 1] + [merged] + terms[j + 1 :]
            col_rels = rels[: j - 1] + rels[j:]
            out += rewrite_to_block_shape(_rebuild(spec, col_terms, col_rels)).scaled(-coef)
    return out


def rewrite_to_block_shape(spec: SeriesSpec) -> WordSum:
    """convert_relations + eliminate_inner_oddlow, fully normalized."""
    return _rewrite_each(convert_relations(spec), eliminate_inner_oddlow)


# ---------------------------------------------------------------------------
# block emission

_ALPHA, _BETA = Parity.EVEN, Parity.ODD_HIGH

_SEC_TIMES = {TrigForm.COT: TrigForm.CSC, TrigForm.CSC: TrigForm.SECCSC, TrigForm.DT: TrigForm.SEC}
_TAN_TIMES = {TrigForm.COT: TrigForm.DT, TrigForm.CSC: TrigForm.SEC, TrigForm.DT: TrigForm.TAN}

# cos(t) * form and sin(t) * form, expanded in the alphabet (the sin/cos
# members restart a peel)
_COS_TIMES = {
    TrigForm.DT: ((Fraction(1), TrigForm.COS),),
    TrigForm.COT: ((Fraction(1), TrigForm.CSC), (Fraction(-1), TrigForm.SIN)),
    TrigForm.TAN: ((Fraction(1), TrigForm.SIN),),
    TrigForm.CSC: ((Fraction(1), TrigForm.COT),),
    TrigForm.SEC: ((Fraction(1), TrigForm.DT),),
    TrigForm.SECCSC: ((Fraction(1), TrigForm.CSC),),
}
_SIN_TIMES = {
    TrigForm.DT: ((Fraction(1), TrigForm.SIN),),
    TrigForm.COT: ((Fraction(1), TrigForm.COS),),
    TrigForm.TAN: ((Fraction(1), TrigForm.SEC), (Fraction(-1), TrigForm.COS)),
    TrigForm.CSC: ((Fraction(1), TrigForm.DT),),
    TrigForm.SEC: ((Fraction(1), TrigForm.TAN),),
    TrigForm.SECCSC: ((Fraction(1), TrigForm.SEC),),
}

WordItems = list[tuple[Fraction, TrigWord]]


def _apply_mult(mult: TrigForm | None, word: TrigWord) -> TrigWord:
    if mult is None or not word:
        # an empty tail absorbs the multiplier (the boundary terms of the
        # underlying integration by parts cancel it exactly)
        return word
    table = _SEC_TIMES if mult is TrigForm.SEC else _TAN_TIMES
    head = table.get(word[0])
    if head is None:
        raise CompileError(f"no product rule for {mult.value} * {word[0].value}")
    return (head,) + word[1:]


# (parity, next parity or None at the chain's end) -> the block's branches,
# each (coefficient, last form, multiplier of the next block's head)
_BLOCKS = {
    (_ALPHA, None): ((1, TrigForm.CSC, None), (-1, TrigForm.COT, None)),
    (_BETA, None): ((1, TrigForm.DT, None),),
    (_ALPHA, _ALPHA): ((1, TrigForm.CSC, TrigForm.SEC), (-1, TrigForm.COT, None)),
    (_ALPHA, _BETA): ((1, TrigForm.CSC, TrigForm.TAN),),
    (_BETA, _ALPHA): ((1, TrigForm.DT, TrigForm.SEC),),
    (_BETA, _BETA): ((1, TrigForm.COT, None), (1, TrigForm.DT, TrigForm.TAN)),
}


def _plain_chain(terms: tuple[IndexTerm, ...]) -> WordItems:
    """Word combination for an EVEN/ODD_HIGH chain in block shape."""
    states: list[tuple[Fraction, TrigWord, TrigForm | None]] = [(Fraction(1), (), None)]
    for term, nxt in zip(terms, [t.parity for t in terms[1:]] + [None]):
        branches = _BLOCKS.get((term.parity, nxt))
        if branches is None:
            raise CompileError("plain chain may not contain 2n-1 indices")
        F = (TrigForm.COT,) * (term.exponent - 1)
        states = [
            (c * bc, w + _apply_mult(m, F + (form,)), bm)
            for c, w, m in states
            for bc, form, bm in branches
        ]
    return [(c, w) for c, w, _ in states]


def _peel(items: WordItems) -> WordItems:
    """Resolve sin/cos head forms into pure-alphabet words and the constant ().

    Uses, at the outer endpoint pi/2 only:
      int sin.h  = int (cos * h1).rest        int_0^{pi/2} sin dt = 1
      int cos.h  = int ((1-sin) * h1).rest    int_0^{pi/2} cos dt = 1
    Each step shortens the word, so the cascade terminates.
    """
    out: WordItems = []
    stack = list(items)
    while stack:
        c, w = stack.pop()
        if not w or w[0] not in (TrigForm.SIN, TrigForm.COS):
            out.append((c, w))
            continue
        if len(w) == 1:
            out.append((c, ()))
            continue
        f, rest = w[1], w[2:]
        if f in (TrigForm.SIN, TrigForm.COS):
            raise CompileError("sin/cos may only occur as a word head")
        if w[0] is TrigForm.SIN:
            repl = list(_COS_TIMES[f])
        else:
            repl = [(Fraction(1), f)] + [(-rc, rf) for rc, rf in _SIN_TIMES[f]]
        for rc, rf in repl:
            stack.append((c * rc, (rf,) + rest))
    return out


def _gamma_items(s: int, chain: WordItems, next_parity: Parity | None, p: int) -> WordItems:
    """Unroll a leading 2n-1 block of weight s over the compiled tail chain.

    The recursion is X(s) = -X(s-1) + W(s) with the weight-1 base; W(s) is the
    explicit added word, whose shape depends on whether the next block is an
    EVEN or a 2n+1 block.  For squared sums a sin/cos Wallis prefix rides
    along and is peeled afterwards.
    """
    beta_next = next_parity is _BETA
    pre = (TrigForm.SIN,) if p == 2 else ()

    def added(j: int) -> WordItems:
        F = pre + (TrigForm.COT,) * (j - 2)
        if beta_next:
            items = [(c, F + (TrigForm.COT,) + w) for c, w in chain]
            items += [(c, F + (TrigForm.DT,) + _apply_mult(TrigForm.TAN, w)) for c, w in chain]
        else:
            items = [(c, F + (TrigForm.DT,) + _apply_mult(TrigForm.SEC, w)) for c, w in chain]
        return items

    if p == 1:
        base: WordItems = list(chain)
    elif beta_next:
        base = [(c, (TrigForm.SIN,) + w) for c, w in chain]
        base += [(-c, (TrigForm.COS,) + _apply_mult(TrigForm.TAN, w)) for c, w in chain]
    else:
        base = [(c, (TrigForm.DT,) + w) for c, w in chain]
        base += [(-c, (TrigForm.COS,) + _apply_mult(TrigForm.SEC, w)) for c, w in chain]

    sign = 1 if (s - 1) % 2 == 0 else -1
    items: WordItems = [(sign * c, w) for c, w in base]
    for j in range(2, s + 1):
        sj = 1 if (s - j) % 2 == 0 else -1
        items += [(sj * c, w) for c, w in added(j)]
    return _peel(items) if p == 2 else items


def compile_blocks(item: SeriesSpec, binom_power: int) -> WordSum:
    """Emit the trig-word combination for one block-shape spec."""
    if item.terms[0].parity is Parity.ODD_LOW:
        tail = item.terms[1:]
        if tail and tail[0].parity is Parity.ODD_LOW:
            raise CompileError("unsupported: 2n-1 index directly after a 2n-1 head")
        chain = _plain_chain(tail) if tail else [(Fraction(1), ())]
        next_parity = tail[0].parity if tail else None
        items = _gamma_items(item.terms[0].exponent, chain, next_parity, binom_power)
    else:
        items = _plain_chain(item.terms)
        if binom_power == 2:
            prefix = TrigForm.DT if item.terms[0].parity is _ALPHA else TrigForm.CSC
            items = [(c, (prefix,) + w) for c, w in items]
    expr = WordSum(scalar=Fraction(0), pi_scale=1 if binom_power == 2 else 0)
    for c, w in items:
        if w:
            expr.add_term(w, c)
        else:
            expr.scalar += c
    return expr


def compile_spec_to_trig(spec: SeriesSpec) -> WordSum:
    """Full rewrite: relations, index shifts, block emission."""
    if spec.tail_bound != 0:
        raise CompileError("compiled path requires tail_bound = 0 (use the oracle)")
    if spec.argument != 1:
        raise CompileError("compiled path requires x = 1 (use the oracle)")
    p = spec.binom_power
    rewrite = rewrite_to_block_shape(spec)
    total = WordSum(scalar=Fraction(0), pi_scale=1 if p == 2 else 0)
    for item, coef in rewrite.terms.items():
        total += compile_blocks(item, p).scaled(coef)
    # the collapsed diagonal 1; inside a squared combination it is (2/pi)*(pi/2)
    if p == 2:
        total.scalar_pi += rewrite.scalar / 2
    else:
        total.scalar += rewrite.scalar
    return total


def trig_to_json_dict(expr: WordSum) -> dict:
    """The `compile --ir trig` shape; words sorted by length, then form names."""
    words = sorted(expr.terms.items(), key=lambda kv: (len(kv[0]), [f.value for f in kv[0]]))
    return {
        "two_over_pi_power": expr.pi_scale,
        "constant": str(expr.scalar),
        "constant_pi": str(expr.scalar_pi),
        "terms": [
            {"word": [f.value for f in w], "coef": str(c)} for w, c in words
        ],
    }


def predicted_weight_report(spec: SeriesSpec) -> dict:
    """Weight bookkeeping for reports: the maximal word weight the compiled
    value can involve, per the block structure of the leading indices."""
    w = spec.weight
    # only a 2n-1 lead of exponent >= 2 is unrolled to lower weight
    unrolled = spec.terms[0].parity is Parity.ODD_LOW and spec.terms[0].exponent >= 2
    second = spec.terms[1].parity if spec.depth > 1 else None
    if spec.binom_power == 1:
        nu = 1 if unrolled else 0
        return {"weight": w, "nu": nu, "max_word_weight": w - nu}
    eta = 2 if unrolled else 0
    iota = 2 if second is Parity.EVEN else 1
    return {
        "weight": w,
        "eta": eta,
        "iota": iota,
        "max_word_weight": max(w + 1 - eta, iota),
    }
