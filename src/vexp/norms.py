"""The modular and the Luxemburg norm.

The modular of f at scale lam is int |f(y)/lam|^p(y) dy over a truncation
window; the Luxemburg norm is the scale eta at which the modular equals 1,
found by bisection (the modular is strictly decreasing in eta wherever f is
not identically zero on the grid).  For constant p this reproduces the
classical L_p norm.

All norm evaluations sample the integrand once on a composite Gauss-Legendre
grid (panel edges split at known breakpoints of the integrand) and then
rescale those samples during bisection, so a full norm costs one function
materialization plus cheap vector arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fnexpr import ExponentField
from .functions import RealFunction, as_real_function
from .quad import DEFAULT_SPEC, Bracket, QuadSpec, find_root_decreasing, panel_rule
from .steklov import sup_norm

__all__ = [
    "VexpNorm", "NormSpec", "NotIntegrableError", "SampledModular",
    "luxemburg_norm", "norm_of", "default_window", "window_nodes",
]

_ETA_CAP = 1e12


class NotIntegrableError(RuntimeError):
    """The modular stayed above 1 for every scale up to the cap."""


@dataclass(frozen=True)
class VexpNorm:
    value: float
    bracket_used: Optional[Bracket]
    modular_at_value: float


@dataclass(frozen=True)
class NormSpec:
    """Which norm an operation should use: sup on a window, or Luxemburg."""

    kind: str  # "sup" | "vexp"
    p: Optional[ExponentField] = None
    window: Optional[float] = None
    panels_per_unit: float = 4.0

    def __post_init__(self):
        if self.kind not in ("sup", "vexp"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind == "vexp" and self.p is None:
            raise ValueError("vexp norm needs an exponent field")

    @staticmethod
    def sup(window: float) -> "NormSpec":
        return NormSpec(kind="sup", window=window)

    @staticmethod
    def vexp(p: ExponentField, window: Optional[float] = None,
             panels_per_unit: float = 4.0) -> "NormSpec":
        return NormSpec(kind="vexp", p=p, window=window,
                        panels_per_unit=panels_per_unit)


def default_window(f: RealFunction) -> float:
    """The truncation window f's decay class calls for."""
    d = f.decay
    if d.kind == "compact_support":
        return max(12.0, abs(d.a) + 2.0, abs(d.b) + 2.0)
    return {"gaussian": 12.0, "power": 200.0}.get(d.kind, 10.0)


def window_nodes(window: float, panels_per_unit: float,
                 breakpoints: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-window, window], split at breakpoints."""
    n_panels = max(16, int(math.ceil(2.0 * window * panels_per_unit)))
    edges = np.linspace(-window, window, n_panels + 1)
    inner = [b for b in breakpoints if -window < b < window]
    if inner:
        edges = np.unique(np.concatenate([edges, np.asarray(inner, dtype=float)]))
    return panel_rule(edges, 12)


class SampledModular:
    """|f| and p sampled once on the quadrature grid; rescaling is then free."""

    def __init__(self, f, p: ExponentField, window: float,
                 panels_per_unit: float = 4.0):
        f = as_real_function(f)
        x, w = window_nodes(window, panels_per_unit, f.breakpoints)
        self.weights = w
        self.samples = np.abs(f(x))
        self.p_vals = p(x) if not p.is_constant else np.full_like(x, p.p_minus)
        self.s_max = float(np.max(self.samples)) if self.samples.size else 0.0

    def value(self, lam: float) -> float:
        if lam <= 0.0:
            raise ValueError("lam must be positive")
        with np.errstate(over="ignore", under="ignore", divide="ignore",
                         invalid="ignore"):
            # zero samples contribute nothing for any exponent >= 1
            terms = np.where(self.samples > 0.0,
                             (self.samples / lam) ** self.p_vals, 0.0)
            out = float(np.sum(self.weights * terms))
        return out

    def luxemburg(self, rel_tol: float = 1e-9) -> VexpNorm:
        if self.s_max <= 0.0:
            return VexpNorm(value=0.0, bracket_used=None, modular_at_value=0.0)
        if self.value(_ETA_CAP) >= 1.0:
            raise NotIntegrableError(
                "modular stays above 1 up to eta = 1e12; "
                "the function is numerically outside the space")
        # expand a bracket [lo, hi] with modular(lo) >= 1 >= modular(hi)
        hi = min(self.s_max, _ETA_CAP)
        for _ in range(200):
            if self.value(hi) < 1.0:
                break
            hi *= 4.0
        lo = hi
        for _ in range(2000):
            cand = lo / 4.0
            if self.value(cand) >= 1.0 or cand < 1e-280:
                lo = cand
                break
            lo = cand
        bracket = Bracket(lo=lo, hi=hi, tol=max(rel_tol * hi, 5e-300))
        root = find_root_decreasing(lambda e: self.value(e) - 1.0, bracket)
        return VexpNorm(value=root, bracket_used=bracket,
                        modular_at_value=self.value(root))


def luxemburg_norm(f, p: ExponentField, spec: QuadSpec = DEFAULT_SPEC,
                   window: Optional[float] = None,
                   panels_per_unit: float = 4.0) -> VexpNorm:
    """The Luxemburg norm: the scale at which the modular crosses 1."""
    f = as_real_function(f)
    win = window if window is not None else default_window(f)
    sm = SampledModular(f, p, win, panels_per_unit)
    return sm.luxemburg(rel_tol=spec.rel_tol)


def norm_of(f, norm: NormSpec, spec: QuadSpec = DEFAULT_SPEC) -> float:
    f = as_real_function(f)
    if norm.kind == "sup":
        win = norm.window if norm.window is not None else default_window(f)
        return sup_norm(f, win)
    return luxemburg_norm(f, norm.p, spec, window=norm.window,
                          panels_per_unit=norm.panels_per_unit).value

