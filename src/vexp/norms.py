"""The modular and the Luxemburg norm.

The modular of f at scale lam is int |f(y)/lam|^p(y) dy over a truncation
window; the Luxemburg norm is the scale eta at which it equals 1.  Every norm,
the sup norm too, reads its window and panel density from a `NormSpec`, which
refuses either unless positive and finite.  The integrand is sampled once on a
composite 12-point Gauss-Legendre grid (`quad.window_nodes`, as for the sup
norm) whose edges are a subset of the uniform edges 1/panels_per_unit apart: a
panel starting at |x| is max(1/panels_per_unit, |x|/4) wide, rounded down to
whole uniform panels and capped at `quad.MAX_PHASE` radians of phase (f's at a
constant even integer p, p's own otherwise), then split at f's breakpoints.
Geometric meshes for smooth tails: Schwab, p- and hp-Finite Element Methods
(Oxford, 1998), ch. 4.  Each output of f then takes the uniform panels back on
every wide panel where it changes sign, unless p is a constant even integer
(|f|^p has a kink at each zero of f), and where the Legendre tail of its
samples shows a feature the grading did not allow for (`quad.unresolved`).  An
oscillating f at any other p, and a p whose `ExponentField.frequency` is nan,
keep the uniform grid, whose density is the spec's whatever f's frequency.  In
log-log scale the modular is affine for constant p and convex with slope in
[-p+, -p-] otherwise, and one exp pass over the samples gives it with its
slope.  So the Newton step from the scale max |f| lands on the root for
constant p, and inside the closed bracket [g0/p+, g0/p-] otherwise, from where
about three more passes reach float resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fnexpr import ExponentField
from .functions import RealFunction, _finite_samples
from .quad import (DEFAULT_SPEC, LEGENDRE, MAX_PHASE, Bracket, QuadSpec,
                   find_root_decreasing, kept, unresolved, window_nodes)
from .steklov import sup_norm

__all__ = [
    "VexpNorm", "NormSpec", "NotIntegrableError", "SampledModular",
    "luxemburg_norm", "norm_of",
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
        for name, value in (("window", self.window), ("panels_per_unit", self.panels_per_unit)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value:g}")

    @staticmethod
    def sup(window: float) -> "NormSpec":
        return NormSpec(window=window)

    @staticmethod
    def vexp(p: ExponentField, window: float,
             panels_per_unit: float = 4.0) -> "NormSpec":
        return NormSpec(p=p, window=window, panels_per_unit=panels_per_unit)


def _widest_panel(f: RealFunction, p: ExponentField, even: bool) -> float:
    """The widest graded panel for |f|^p: MAX_PHASE radians of f's phase at
    a constant even p, else of p's (f is refilled at its zeros); 0, the
    uniform grid, when f oscillates at any other p or p's frequency has no
    bound."""
    omega = p.frequency + f.frequency
    if math.isnan(omega) or (f.frequency and not even):
        return 0.0
    return MAX_PHASE / omega if omega else math.inf


def _refilled(row: np.ndarray, w: np.ndarray, first: np.ndarray, even: bool,
              omega: float) -> np.ndarray:
    """Which panels take the uniform nodes, for row's samples on the rule (w,
    first): each wide panel (of more than one uniform panel) that
    `quad.unresolved` names for f of frequency omega; and unless p is a
    constant even integer, each that holds a sign change of row or one end of
    a change across its edge (zero samples are passed over)."""
    wide = np.diff(first) > 1
    if not wide.any():  # the uniform grid
        return wide
    panels = row.reshape(-1, 12)
    bad = unresolved(panels @ LEGENDRE[:, 10:], np.abs(panels).max(axis=1), np.abs(row).max(),
                     w.reshape(-1, 12).sum(axis=1), omega)
    if not even:
        nz = np.flatnonzero(row)
        flip = np.flatnonzero(np.diff(row[nz] > 0.0))
        bad[nz[flip] // 12] = bad[nz[flip + 1] // 12] = True
    return bad & wide


def _row_samples(f: RealFunction,
                 norm: NormSpec) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(nodes, weights, samples) of each output of f: one f call on the norm's
    graded panels (`window_nodes`), then per output, through its own row of a
    stacked f, the uniform nodes of the panels `_refilled` names."""
    even = norm.p.is_constant and norm.p.p_minus % 2.0 == 0.0
    x, w, first, _ = window_nodes(norm.window, norm.panels_per_unit, f.breakpoints,
                                  _widest_panel(f, norm.p, even))
    out = []
    for i, s in enumerate(_finite_samples(f, x).reshape(-1, x.size)):
        refill = _refilled(s, w, first, even, f.frequency)
        if not refill.any():
            out.append((x, w, s))
            continue
        ux, uw, _, _ = window_nodes(norm.window, norm.panels_per_unit, f.breakpoints)
        keep, fill = np.repeat(~refill, 12), np.repeat(np.repeat(refill, np.diff(first)), 12)
        out.append((np.append(x[keep], ux[fill]), np.append(w[keep], uw[fill]),
                    np.append(s[keep], _finite_samples(f.rows[i] if f.rows else f, ux[fill]))))
    return out


class SampledModular:
    """The weights w_i and log |f_i| at the positive samples of |f| (zero
    samples add nothing for p >= 1), so the modular at any scale is one exp
    pass: exp(p_i (log |f_i| - log lam)) rounds alike at every node, where a
    log(w_i |f_i|^p_i) would carry the rounding of log w_i, one value for
    each panel width, into every node of that width.  A stacked f is sampled
    in one pass (`_row_samples`), and `row` picks one output's modular.  p
    is evaluated once per grid, kept in `quad.kept` (keyed by p's tree and
    the grid's bytes) and indexed per output."""

    def __init__(self, f: RealFunction, norm: NormSpec):
        p = norm.p
        if p is None:
            raise ValueError("SampledModular takes a Luxemburg norm; norm_of takes the sup norm")
        self.s_max, self.p, self.w, self.log_s = [], [], [], []
        for x, w, s in _row_samples(f, norm):
            s = np.abs(s)
            q = s > 0.0
            self.s_max.append(float(np.max(s)))
            self.p.append(p.p_minus if p.is_constant else kept(p.expr.ast, x, p)[q])
            self.w.append(w[q])
            self.log_s.append(np.log(s[q]))

    def value(self, lam: float, row: int = 0) -> tuple[float, float]:
        """The modular at lam and its log-log slope -sum p e / sum e (nan at 0)."""
        if lam <= 0.0:
            raise ValueError("lam must be positive")
        p = self.p[row]
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            e = self.w[row] * np.exp(p * (self.log_s[row] - math.log(lam)))
            total = np.sum(e)
            return float(total), float(-np.sum(p * e) / total)

    def luxemburg(self, rel_tol: float = 1e-9, row: int = 0) -> VexpNorm:
        s_max, p = self.s_max[row], self.p[row]
        if s_max <= 0.0:
            return VexpNorm(value=0.0, bracket_used=None, modular_at_value=0.0)

        def g(t):  # log value(s_max e^t), its slope, and the modular itself
            modular, slope = self.value(s_max * math.exp(t), row)
            return math.log(modular), slope, modular
        # g is convex with slope in [-p+, -p-]: a root in [g0/p+, g0/p-], where
        # the first tangent step from t = 0 lands
        at_0 = g(0.0)
        lo, hi = sorted((at_0[0] / float(np.max(p)), at_0[0] / float(np.min(p))))
        lo, hi = lo - _T_PAD, hi + _T_PAD
        if not s_max * math.exp(lo) <= _ETA_CAP:
            raise NotIntegrableError("the modular stays above 1 up to eta = 1e12; "
                                     "the function is numerically outside the space")
        t, (_, _, modular) = find_root_decreasing(g, Bracket(lo, hi, _T_TOL), 0.0, at_0)
        root = s_max * math.exp(t)
        bracket = Bracket(lo=s_max * math.exp(lo), hi=s_max * math.exp(hi), tol=rel_tol * root)
        return VexpNorm(value=root, bracket_used=bracket, modular_at_value=modular)


def luxemburg_norm(f: RealFunction, p: ExponentField, spec: QuadSpec = DEFAULT_SPEC,
                   *, window: float, panels_per_unit: float = 4.0) -> VexpNorm:
    """The Luxemburg norm of `NormSpec.vexp(p, window, panels_per_unit)`: the
    scale at which the modular crosses 1."""
    return SampledModular(f, NormSpec.vexp(p, window, panels_per_unit)).luxemburg(spec.rel_tol)


def norm_of(f: RealFunction, norm: NormSpec, spec: QuadSpec = DEFAULT_SPEC):
    """The norm of f, or the tuple of a stacked f's, from one sample pass."""
    if norm.p is None:
        return sup_norm(f, norm)
    sm = SampledModular(f, norm)
    values = tuple(sm.luxemburg(spec.rel_tol, i).value for i in range(len(sm.s_max)))
    return values[0] if len(values) == 1 else values
