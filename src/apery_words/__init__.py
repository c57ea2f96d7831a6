"""Apery-type central-binomial series, compiled to level-4 iterated-integral
words and evaluated to arbitrary precision, with a direct-summation oracle."""

from .oracle import OracleConfig, OracleResult, direct_sum
from .pipeline import compile_spec
from .series import HarmonicSpec, SeriesSpec, expand_harmonic, parse_spec, render

__all__ = [
    "HarmonicSpec",
    "OracleConfig",
    "OracleResult",
    "SeriesSpec",
    "compile_spec",
    "direct_sum",
    "expand_harmonic",
    "parse_spec",
    "render",
]
