"""Vectorized real-function wrappers shared by the operator layers.

Operators consume and produce `RealFunction` values: a vectorized callable
plus the metadata the numerics need (decay class for window selection,
breakpoints for quadrature panel splitting, the shortest oscillation
wavelength for panel density, and an optional exact-averaging engine for
compactly supported piecewise polynomials).  `as_real_function` is the one
place an expression becomes a RealFunction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .fnexpr import Decay, FuncExpr, rough_spots, truncated_powers

_SUB_CHUNK = 1 << 15  # elements per outer-product block: f's temporaries stay in L2


@dataclass(frozen=True)
class RealFunction:
    """A function R -> R evaluable on numpy arrays."""

    fn: Callable[[np.ndarray], np.ndarray]
    name: str = "f"
    decay: Decay = field(default_factory=Decay.none_)
    breakpoints: tuple[float, ...] = ()
    osc_wavelength: float = math.inf
    exact: Optional[object] = None  # exact Steklov engine, when available
    expr: Optional[FuncExpr] = None
    tail_bound: float = 0.0  # truncation bound of a convolution that built fn

    def __call__(self, x):
        scalar = np.isscalar(x)
        out = self.fn(np.asarray(x, dtype=float))
        return float(out) if scalar else np.asarray(out, dtype=float)

    def renamed(self, name: str) -> "RealFunction":
        return replace(self, name=name)


def as_real_function(obj, name: Optional[str] = None) -> RealFunction:
    """obj as a RealFunction.  An expression's breakpoints, wavelength and
    exact engine are read off its tree; ValueError when it has a kink that
    cannot be located or a frequency that cannot be bounded."""
    if isinstance(obj, RealFunction):
        return obj if name is None else obj.renamed(name)
    if isinstance(obj, FuncExpr):
        from .steklov import IndicatorSteklov  # steklov builds on this module
        breakpoints, freq = rough_spots(obj.ast)
        terms = truncated_powers(obj.ast)
        return RealFunction(fn=obj, name=name or obj.src, decay=obj.decay_class,
                            breakpoints=breakpoints,
                            osc_wavelength=2.0 * math.pi / freq if freq else math.inf,
                            exact=IndicatorSteklov(obj, terms) if terms else None,
                            expr=obj)
    if callable(obj):
        return RealFunction(fn=obj, name=name or getattr(obj, "__name__", "f"))
    raise TypeError(f"cannot interpret {type(obj).__name__} as a real function")


def zero_function(name: str = "0") -> RealFunction:
    return RealFunction(fn=lambda x: np.zeros_like(x, dtype=float), name=name,
                        decay=Decay.compact(0.0, 0.0))


_DECAY_RANK = {"none": 0, "power": 1, "gaussian": 2, "compact_support": 3}


def _combined_decay(decays: list[Decay]) -> Decay:
    """Decay of a sum: the weakest class among the parts."""
    if not decays:
        return Decay.none_()
    weakest = min(_DECAY_RANK[d.kind] for d in decays)
    if weakest == 0:
        return Decay.none_()
    if weakest == 1:
        return Decay.power(min(d.alpha for d in decays if d.kind == "power"))
    if weakest == 2:
        return Decay.gaussian()
    return Decay.compact(min(d.a for d in decays), max(d.b for d in decays))


def combine(parts: list[tuple[float, RealFunction]], name: str) -> RealFunction:
    """Pointwise linear combination sum(c_i * f_i)."""
    fns = [(c, f) for c, f in parts]

    def ev(x):
        acc = np.zeros_like(x, dtype=float)
        for c, f in fns:
            acc += c * f.fn(x)
        return acc

    breakpoints = tuple(sorted({b for _, f in fns for b in f.breakpoints}))
    osc = min((f.osc_wavelength for _, f in fns), default=math.inf)
    return RealFunction(fn=ev, name=name,
                        decay=_combined_decay([f.decay for _, f in fns]),
                        breakpoints=breakpoints, osc_wavelength=osc)


def outer_apply(f: RealFunction, x: np.ndarray, offsets: np.ndarray,
                weights: np.ndarray) -> np.ndarray:
    """Compute sum_j w_j f(x_i + t_j) for all i.

    Rows go in blocks of _SUB_CHUNK // m (at least one): each block is one
    f evaluation, whose temporaries stay in L2, and one gemv written straight
    into the result.  gemv results depend on the row count of a call, so
    they can differ in the last bit from one product over all rows.
    """
    x = np.asarray(x, dtype=float)
    offsets = np.asarray(offsets, dtype=float)
    weights = np.asarray(weights, dtype=float)
    flat_x = x.ravel()
    out = np.empty(flat_x.size, dtype=float)
    step = max(1, _SUB_CHUNK // max(offsets.size, 1))
    for i0 in range(0, flat_x.size, step):
        np.matmul(f.fn(flat_x[i0:i0 + step, None] + offsets[None, :]), weights,
                  out=out[i0:i0 + step])
    return out.reshape(x.shape)
