"""Constant catalog and closed-form expression evaluation.

Every leaf constant is pinned to a defining word (real or imaginary part of
one iterated integral over the extended pole alphabet), so closed forms are
checkable by the same evaluator that computes compiled sums.  pi and log 2
come from mpmath's built-ins; their pinned words exist for cross-checks.
"""

from __future__ import annotations

import ast
from fractions import Fraction

import mpmath
from mpmath import mpc, mpf, workprec

from .evaluate import ValueCache, eval_word
from .gauss import GaussRat
from .words import W0, X1, XMI, Atom, Word

_POLE2 = Atom(GaussRat(2))
_POLE_1MI = Atom(GaussRat(1, -1))  # 1/z for z = (1+i)/2

# name -> (word, part, rational multiplier, description); the order is the
# `constants` listing's
CONSTANT_WORDS: dict[str, tuple[Word, str, Fraction, str]] = {
    "pi": ((XMI,), "im", Fraction(4), "pi"),
    "log2": ((_POLE2,), "re", Fraction(1), "log 2"),
    "zeta2": ((W0, X1), "re", Fraction(1), "zeta(2)"),
    "zeta3": ((W0, W0, X1), "re", Fraction(1), "zeta(3)"),
    "G": ((W0, XMI), "im", Fraction(1), "Catalan constant"),
    "beta4": ((W0, W0, W0, XMI), "im", Fraction(1), "Dirichlet beta(4)"),
    "li2_half": ((W0, _POLE2), "re", Fraction(1), "Li_2(1/2)"),
    "li3_half": ((W0, W0, _POLE2), "re", Fraction(1), "Li_3(1/2)"),
    "li4_half": ((W0, W0, W0, _POLE2), "re", Fraction(1), "Li_4(1/2)"),
    "reli3": ((W0, W0, _POLE_1MI), "re", Fraction(1), "Re Li_3((1+i)/2)"),
    "imli3": ((W0, W0, _POLE_1MI), "im", Fraction(1), "Im Li_3((1+i)/2)"),
    "reli4": ((W0, W0, W0, _POLE_1MI), "re", Fraction(1), "Re Li_4((1+i)/2)"),
    "imli4": ((W0, W0, W0, _POLE_1MI), "im", Fraction(1), "Im Li_4((1+i)/2)"),
}


def constant_value(name: str, precision_bits: int = 160, cache: ValueCache | None = None) -> mpf:
    """One catalog constant; pi and log 2 come from mpmath's built-ins."""
    with workprec(precision_bits + 16):
        if name == "pi":
            return +mpmath.pi
        if name == "log2":
            return +mpmath.log(2)
        word, part, mult, _ = CONSTANT_WORDS[name]
        value = eval_word(word, precision_bits, cache).to_mpc()
        comp = value.real if part == "re" else value.imag
        return +(comp * mpf(mult.numerator) / mult.denominator)


class ConstExprError(ValueError):
    """A closed form that does not parse, or names or uses what it may not."""


class ConstZeroDivisionError(ConstExprError, ZeroDivisionError):
    """A closed form that divides by zero."""


_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def eval_const(
    expr: str,
    precision_bits: int = 160,
    cache: ValueCache | None = None,
    leaves: dict[str, mpc] | None = None,
) -> mpc:
    """Evaluate arithmetic over catalog constants and integers, e.g.
    '2*G - pi*log2/2', at the requested precision.

    `leaves` maps catalog names to their values at this precision; the call
    reads the constants it holds and adds those it evaluates, so closed
    forms that share one table evaluate each constant once.
    """
    if leaves is None:
        leaves = {}

    def leaf(name: str) -> mpc:
        if name not in CONSTANT_WORDS:
            raise ConstExprError(f"unknown constant {name!r}")
        if name not in leaves:
            leaves[name] = mpc(constant_value(name, precision_bits, cache))
        return leaves[name]

    def walk(node) -> mpc:
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant):
            if type(node.value) is int:  # not True or False
                return mpc(node.value)
            raise ConstExprError(f"only integer literals allowed, got {node.value!r}")
        if isinstance(node, ast.Name):
            return leaf(node.id)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            value = walk(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
            left, right = walk(node.left), walk(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.Div):
                if right == 0:
                    raise ConstZeroDivisionError(f"division by zero in closed form {expr!r}")
                return left / right
            # an integer literal under at most one sign, as walk(node.right) allowed
            exp, sign = node.right, 1
            if isinstance(exp, ast.UnaryOp):
                exp, sign = exp.operand, -1 if isinstance(exp.op, ast.USub) else 1
            if not isinstance(exp, ast.Constant):
                raise ConstExprError("exponents must be integer literals")
            power = sign * exp.value
            if left == 0 and power < 0:
                raise ConstZeroDivisionError(f"division by zero in closed form {expr!r}")
            return left ** power
        raise ConstExprError(f"unsupported syntax: {ast.dump(node)}")

    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ConstExprError(f"closed form {expr!r} does not parse: {exc.msg}") from None
    with workprec(precision_bits + 16):
        return +walk(tree)
