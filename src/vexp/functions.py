"""Vectorized real-function wrappers shared by the operator layers.

Operators consume and produce `RealFunction` values: a vectorized callable
plus the metadata the numerics need (breakpoints for quadrature panel
splitting, a bound on its frequencies for panel density, and the
expression it evaluates, when it is one).  `as_real_function` is the one
place an expression becomes a RealFunction; the Steklov layer builds its
exact engine from the expression's terms where it uses one.
"""

from __future__ import annotations

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
    frequency: float = 0.0  # a bound on f's frequencies, 0 when it does not oscillate
    expr: Optional[FuncExpr] = None
    tail_bound: float = 0.0  # truncation bound of a convolution that built fn
    rows: tuple[Callable, ...] = ()  # each output of a Steklov combination alone

    def __call__(self, x):
        scalar = np.isscalar(x)
        out = self.fn(np.asarray(x, dtype=float))
        return float(out) if scalar else np.asarray(out, dtype=float)


def as_real_function(expr: FuncExpr) -> RealFunction:
    """expr as a RealFunction.  Its breakpoints and frequency are read off
    its tree; ValueError when it has a kink that cannot be located or a
    frequency that cannot be bounded."""
    breakpoints, frequency = rough_spots(expr.ast)
    return RealFunction(fn=expr, breakpoints=breakpoints, frequency=frequency, expr=expr)


def combine(parts: list[tuple[float, RealFunction]]) -> RealFunction:
    """Pointwise linear combination sum(c_i * f_i)."""
    def ev(x):
        return sum((c * f.fn(x) for c, f in parts), np.zeros_like(x, dtype=float))

    breakpoints = tuple(sorted({b for _, f in parts for b in f.breakpoints}))
    frequency = max((f.frequency for _, f in parts), default=0.0)
    return RealFunction(fn=ev, breakpoints=breakpoints, frequency=frequency)


def _finite_samples(f: Callable, x: np.ndarray) -> np.ndarray:
    """f(x), a row per output of f, without numpy's warnings; raises naming an
    x where f is not finite."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        fx = f(x)
    bad = ~np.isfinite(fx.reshape(-1, x.size)).all(axis=0)
    if bad.any():
        raise ValueError(f"f is not finite at x = {x[np.argmax(bad)]:.6g}")
    return fx


def outer_apply(f: RealFunction, x: np.ndarray, offsets: np.ndarray,
                weights: np.ndarray) -> np.ndarray:
    """Compute sum_j w_j f(x_i + t_j) for all i, once per row w of weights.

    An f whose fn has an outer form is sampled by it (`FuncExpr.outer` and
    the de la Vallee Poussin kernel's take sines and cosines by the addition
    theorem); any other f is called on the outer sum x_i + t_j.  Rows go in
    blocks of _SUB_CHUNK // m (at least one): each block is one evaluation,
    whose temporaries stay in L2, and one gemv per row of weights into the result.
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
    ev = (f.fn.outer(flat_x, offsets) if hasattr(f.fn, "outer")
          else lambda s: f.fn(flat_x[s, None] + offsets[None, :]))
    for i0 in range(0, flat_x.size, step):
        vals = ev(slice(i0, i0 + step))
        for w, o in zip(rows, out):
            np.matmul(vals, w, out=o[i0:i0 + step])
    return out.reshape(weights.shape[:-1] + x.shape)
