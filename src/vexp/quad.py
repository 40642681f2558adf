"""Quadrature and bracketed root finding.

Every integral over the real line in this package is reduced to a finite
window [a, b]; call sites pick the window from the integrand's decay and
account for the discarded tail separately.  Integrals are fixed composite
Gauss-Legendre rules on panels the call site chooses (`panel_rule`).  Roots
of monotone functions, such as the Luxemburg norm's modular, are found by
Illinois regula falsi with a bisection fallback (`find_root_decreasing`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np


class BracketError(ValueError):
    """Raised when a root bracket does not contain a sign change."""


@dataclass(frozen=True)
class QuadSpec:
    """The relative tolerance a Luxemburg norm reports (bracket_used.tol)."""

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


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1], cached per order."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def panel_rule(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights for the panel edges along the
    last axis (one rule per row of stacked edges)."""
    edges = np.asarray(edges, dtype=float)
    x0, w0 = gauss_rule(n)
    width = np.diff(edges)[..., None]
    shape = (*edges.shape[:-1], -1)
    return (edges[..., :-1, None] + width * x0).reshape(shape), (width * w0).reshape(shape)


def find_root_decreasing(phi: Callable[[float], float], bracket: Bracket) -> float:
    """The root of a decreasing function, by Illinois regula falsi.

    Requires phi(lo) >= 0 >= phi(hi).  Each step is the secant through the
    bracket ends, with the value of an end kept by two steps in a row halved
    (Dowell & Jarratt, BIT 11, 1971); a bracket that three steps did not halve
    is bisected.  It stops at a point whose value, over the shallower of its
    chords to the two ends, puts it within bracket.tol of the root (an affine
    phi takes one interior evaluation), or when the bracket is that narrow.
    """
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = phi(lo), phi(hi)
    if flo < 0.0 or fhi > 0.0:
        raise BracketError(f"no sign change: phi({lo:.6g})={flo:.6g}, "
                           f"phi({hi:.6g})={fhi:.6g}")
    if flo == 0.0 or fhi == 0.0:
        return lo if flo == 0.0 else hi
    wlo, whi, last = flo, fhi, 0.0  # secant weights; the last step's value
    x, widths = hi - whi * (hi - lo) / (whi - wlo), [math.inf] * 3
    while True:
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:  # float resolution exhausted
                return x
        fx = phi(x)
        slope = min((flo - fx) / (x - lo), (fx - fhi) / (hi - x))
        if fx == 0.0 or abs(fx) <= bracket.tol * slope:
            return x
        widths = widths[1:] + [hi - lo]
        if fx > 0.0:
            lo, flo, wlo, whi = x, fx, fx, whi * (0.5 if last > 0.0 else 1.0)
        else:
            hi, fhi, whi, wlo = x, fx, fx, wlo * (0.5 if last < 0.0 else 1.0)
        last = fx
        if hi - lo <= bracket.tol:
            return x
        # x = lo sends a bracket that three steps did not halve to bisection
        x = lo if hi - lo > 0.5 * widths[0] else hi - whi * (hi - lo) / (whi - wlo)
