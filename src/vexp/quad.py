"""Quadrature and bracketed root finding.

Every integral over the real line in this package is reduced to a finite
window [a, b]; call sites pick the window from the integrand's decay and
account for the discarded tail separately.  Integrals are fixed composite
Gauss-Legendre rules on panels the call site chooses (`panel_rule`).  Root
finding is plain bisection, which is all the Luxemburg norm needs because
its defining modular is monotone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


class BracketError(ValueError):
    """Raised when a root bracket does not contain a sign change."""


@dataclass(frozen=True)
class QuadSpec:
    """The relative tolerance of the Luxemburg root find."""

    rel_tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must lie in (0, 1)")


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float
    tol: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("bracket needs lo < hi")
        if self.tol <= 0.0:
            raise ValueError("bracket tol must be positive")


DEFAULT_SPEC = QuadSpec()

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1], cached per order."""
    if n not in _GAUSS_CACHE:
        x, w = np.polynomial.legendre.leggauss(n)
        _GAUSS_CACHE[n] = ((x + 1.0) / 2.0, w / 2.0)
    return _GAUSS_CACHE[n]


def panel_rule(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights for the given panel edges."""
    edges = np.asarray(edges, dtype=float)
    x0, w0 = gauss_rule(n)
    lo = edges[:-1]
    width = np.diff(edges)
    nodes = (lo[:, None] + width[:, None] * x0[None, :]).ravel()
    weights = (width[:, None] * w0[None, :]).ravel()
    return nodes, weights


def find_root_decreasing(phi: Callable[[float], float], bracket: Bracket) -> float:
    """Bisect a decreasing function to a root.

    Requires phi(lo) >= 0 >= phi(hi).  The bracket shrinks by half each step,
    so the result is located to within bracket.tol regardless of how flat phi
    is near the root.
    """
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = phi(lo), phi(hi)
    if flo < 0.0 or fhi > 0.0:
        raise BracketError(
            f"no sign change: phi({lo:.6g})={flo:.6g}, phi({hi:.6g})={fhi:.6g}"
        )
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    while (hi - lo) > bracket.tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # float resolution exhausted
            break
        fm = phi(mid)
        if fm >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
