"""The modular and the Luxemburg norm.

The modular of f at scale lam is int |f(y)/lam|^p(y) dy over a truncation
window; the Luxemburg norm is the scale eta at which it equals 1.  Every
norm is given its window: the corpus chooses one per input.  The
integrand is sampled once on a composite Gauss-Legendre grid (panel edges
split at its known breakpoints).  In log-log scale the modular is affine for
constant p and convex with slope in [-p+, -p-] otherwise, so its root has a
closed bracket and a secant solver reaches float resolution in a few passes
over the samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fnexpr import ExponentField
from .functions import RealFunction
from .quad import DEFAULT_SPEC, Bracket, QuadSpec, find_root_decreasing, panel_rule
from .steklov import _finite_samples, sup_norm

__all__ = [
    "VexpNorm", "NormSpec", "NotIntegrableError", "SampledModular",
    "luxemburg_norm", "norm_of", "window_nodes",
]

_ETA_CAP = 1e12
_T_TOL = 2.0 ** -50  # the root's tolerance in log(eta): 4 ulps of 1
_T_PAD = 2.0 ** -44  # the bracket's pad, far above the rounding of log(modular)


class NotIntegrableError(ValueError):
    """The Luxemburg norm's closed bracket starts above the cap."""


@dataclass(frozen=True)
class VexpNorm:
    """bracket_used is the closed bracket in eta that held the root (None for
    f = 0), with tol = rel_tol * value; the root is at float resolution."""

    value: float
    bracket_used: Optional[Bracket]
    modular_at_value: float


@dataclass(frozen=True)
class NormSpec:
    """Which norm an operation should use, on which window: sup (p is None),
    or Luxemburg in L^p(.)."""

    window: float
    p: Optional[ExponentField] = None
    panels_per_unit: float = 4.0

    def __post_init__(self):
        if not self.window > 0.0:
            raise ValueError(f"window must be positive, got {self.window:g}")

    @property
    def kind(self) -> str:
        return "sup" if self.p is None else "vexp"

    @staticmethod
    def sup(window: float) -> "NormSpec":
        return NormSpec(window=window)

    @staticmethod
    def vexp(p: ExponentField, window: float,
             panels_per_unit: float = 4.0) -> "NormSpec":
        return NormSpec(p=p, window=window, panels_per_unit=panels_per_unit)


def window_nodes(window: float, panels_per_unit: float,
                 breakpoints: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-window, window], split at breakpoints."""
    n_panels = max(16, int(math.ceil(2.0 * window * panels_per_unit)))
    edges = np.linspace(-window, window, n_panels + 1)
    inner = [b for b in breakpoints if -window < b < window]
    edges = np.unique(np.concatenate([edges, np.asarray(inner, dtype=float)]))
    return panel_rule(edges, 12)


class SampledModular:
    """log(w_i |f_i|^p_i) at the positive samples of |f| (zero samples add
    nothing for p >= 1), so the modular at any scale is one exp pass.  A
    stacked f is sampled in one pass, and `row` picks one output's modular."""

    def __init__(self, f: RealFunction, p: ExponentField, window: float,
                 panels_per_unit: float = 4.0):
        x, w = window_nodes(window, panels_per_unit, f.breakpoints)
        samples = np.abs(_finite_samples(f, x)).reshape(-1, x.size)
        self.s_max = np.max(samples, axis=1).tolist()
        pos = samples > 0.0
        self.p = [p.p_minus if p.is_constant else p(x[q]) for q in pos]
        self.log_terms = [np.log(w[q]) + pq * np.log(s[q])
                          for s, q, pq in zip(samples, pos, self.p)]

    def value(self, lam: float, row: int = 0) -> float:
        if lam <= 0.0:
            raise ValueError("lam must be positive")
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return float(np.sum(np.exp(self.log_terms[row] - self.p[row] * math.log(lam))))

    def luxemburg(self, rel_tol: float = 1e-9, row: int = 0) -> VexpNorm:
        s_max, p = self.s_max[row], self.p[row]
        if s_max <= 0.0:
            return VexpNorm(value=0.0, bracket_used=None, modular_at_value=0.0)
        # g(t) = log value(s_max e^t) has slope in [-p+, -p-]: a root in [g0/p+, g0/p-]
        g0 = math.log(self.value(s_max, row))
        lo, hi = sorted((g0 / float(np.max(p)), g0 / float(np.min(p))))
        lo, hi = lo - _T_PAD, hi + _T_PAD
        if not s_max * math.exp(lo) <= _ETA_CAP:
            raise NotIntegrableError("the modular stays above 1 up to eta = 1e12; "
                                     "the function is numerically outside the space")
        t = find_root_decreasing(
            lambda t: math.log(self.value(s_max * math.exp(t), row)),
            Bracket(lo, hi, _T_TOL))
        root = s_max * math.exp(t)
        bracket = Bracket(lo=s_max * math.exp(lo),
                          hi=s_max * math.exp(hi), tol=rel_tol * root)
        return VexpNorm(value=root, bracket_used=bracket,
                        modular_at_value=self.value(root, row))


def luxemburg_norm(f: RealFunction, p: ExponentField, spec: QuadSpec = DEFAULT_SPEC,
                   *, window: float, panels_per_unit: float = 4.0) -> VexpNorm:
    """The Luxemburg norm on [-window, window]: the scale at which the
    modular crosses 1."""
    return SampledModular(f, p, window, panels_per_unit).luxemburg(spec.rel_tol)


def norm_of(f: RealFunction, norm: NormSpec, spec: QuadSpec = DEFAULT_SPEC):
    """The norm of f, or the tuple of a stacked f's, from one sample pass."""
    if norm.kind == "sup":
        return sup_norm(f, norm.window)
    sm = SampledModular(f, norm.p, norm.window, norm.panels_per_unit)
    values = tuple(sm.luxemburg(spec.rel_tol, i).value for i in range(len(sm.s_max)))
    return values[0] if len(values) == 1 else values
