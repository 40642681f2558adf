"""Steklov smoothness calculus in variable-exponent Lebesgue spaces.

Core pieces: a small expression language for test functions and exponents
(`fnexpr`), Gauss-Legendre panel rules and root finding (`quad`), Luxemburg
norms (`norms`), Steklov averages and difference operators (`steklov`),
smoothness moduli and a constructive K-functional (`smoothness`), de la
Vallee Poussin bandlimited approximation (`bandlimited`), the explicit
constants used by the bound formulas (`constants`), and the inequality audit
harness plus CLI (`audit`, `cli`).
"""

from .fnexpr import ExponentField, FuncExpr, parse, differentiate
from .quad import Bracket, QuadSpec, find_root_decreasing

__all__ = [
    "ExponentField", "FuncExpr", "parse", "differentiate",
    "Bracket", "QuadSpec", "find_root_decreasing",
]

__version__ = "0.1.0"
