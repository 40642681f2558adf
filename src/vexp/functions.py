"""Vectorized real-function wrappers shared by the operator layers.

Operators consume and produce `RealFunction` values: a vectorized callable
plus the metadata the numerics need (breakpoints for quadrature panel
splitting, the shortest oscillation wavelength for panel density, and an
optional exact-averaging engine for compactly supported piecewise
polynomials).  `as_real_function` is the one place an expression becomes a
RealFunction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fnexpr import FuncExpr, rough_spots

_SUB_CHUNK = 1 << 15  # elements per outer-product block: f's temporaries stay in L2


@dataclass(frozen=True)
class RealFunction:
    """A function R -> R evaluable on numpy arrays, or a stack of them (rows)."""

    fn: Callable[[np.ndarray], np.ndarray]
    breakpoints: tuple[float, ...] = ()
    osc_wavelength: float = math.inf
    exact: Optional[object] = None  # exact Steklov engine, when available
    expr: Optional[FuncExpr] = None
    tail_bound: float = 0.0  # truncation bound of a convolution that built fn
    rows: tuple[Callable, ...] = ()  # each output of a Steklov combination alone

    def __call__(self, x):
        scalar = np.isscalar(x)
        out = self.fn(np.asarray(x, dtype=float))
        return float(out) if scalar else np.asarray(out, dtype=float)


def as_real_function(expr: FuncExpr) -> RealFunction:
    """expr as a RealFunction.  Its breakpoints, wavelength and exact engine
    are read off its tree; ValueError when it has a kink that cannot be
    located or a frequency that cannot be bounded."""
    from .steklov import IndicatorSteklov  # steklov builds on this module
    breakpoints, freq = rough_spots(expr.ast)
    return RealFunction(fn=expr, breakpoints=breakpoints,
                        osc_wavelength=2.0 * math.pi / freq if freq else math.inf,
                        exact=IndicatorSteklov(expr, expr.terms) if expr.terms else None,
                        expr=expr)


def zero_function() -> RealFunction:
    return RealFunction(fn=lambda x: np.zeros_like(x, dtype=float))


def combine(parts: list[tuple[float, RealFunction]]) -> RealFunction:
    """Pointwise linear combination sum(c_i * f_i)."""
    def ev(x):
        return sum((c * f.fn(x) for c, f in parts), np.zeros_like(x, dtype=float))

    breakpoints = tuple(sorted({b for _, f in parts for b in f.breakpoints}))
    osc = min((f.osc_wavelength for _, f in parts), default=math.inf)
    return RealFunction(fn=ev, breakpoints=breakpoints, osc_wavelength=osc)


def outer_apply(f: RealFunction, x: np.ndarray, offsets: np.ndarray,
                weights: np.ndarray) -> np.ndarray:
    """Compute sum_j w_j f(x_i + t_j) for all i, once per row w of weights.

    An expression-backed f is sampled by its outer form (`FuncExpr.outer`),
    which takes sin, cos and sinc by the addition theorem; any other f is
    called on the outer sum x_i + t_j.  Rows go in blocks of _SUB_CHUNK // m
    (at least one): each block is one evaluation, whose temporaries stay in
    L2, and one gemv per row of weights written straight into the result.
    gemv results depend on the row count of a call, so they can differ in
    the last bit from one product over all.
    """
    x = np.asarray(x, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    weights = np.asarray(weights, dtype=float)
    flat_x = x.ravel()
    rows = weights.reshape(-1, weights.shape[-1])
    out = np.empty((rows.shape[0], flat_x.size))
    step = max(1, _SUB_CHUNK // max(offsets.size, 1))
    ev = (f.expr.outer(flat_x, offsets) if f.fn is f.expr
          else lambda s: f.fn(flat_x[s, None] + offsets[None, :]))
    for i0 in range(0, flat_x.size, step):
        vals = ev(slice(i0, i0 + step))
        for w, o in zip(rows, out):
            np.matmul(vals, w, out=o[i0:i0 + step])
    return out.reshape(weights.shape[:-1] + x.shape)
