"""Forward Steklov averages, their iterates and differences.

The k-th iterate of the forward average T_d f(x) = (1/d) * int_0^d f(x+t) dt
is evaluated with a single quadrature against the order-k cardinal B-spline:

    T_d^k f(x) = int_0^k f(x + d*u) B_k(u) du,

which keeps r-fold differences of high iterates affordable (no nested
quadratures).  Derivatives of iterates never differentiate f: the identity
(d/dx) T_d g = (g(. + d) - g(.)) / d turns d^r/dx^r T_d^m f into forward
differences of T_d^(m-r) f.

Every operator here is a combination sum c * T_d^k f(. + j*d) of shifted
iterates, and `steklov_combination` is the one place such a sum is
evaluated.  For smooth f each term is the kernel B_k(u - j) on the unit
panels of [0, max(k + j)], so the weights of all terms add up on one
Gauss-Legendre lattice (k = 0 terms are point columns) and one outer product
f(x_i + d*u_j) evaluates the whole sum.

Indicator-built inputs get an exact engine: T_d^k 1_[a,b](x) is
CB_k((b - x)/d) - CB_k((a - x)/d), with CB_k(t) = int_0^t B_k, and a box
pre-averaged once uses the integral of CB_k.  Both are polynomials on each
unit piece (the pp form, de Boor, A Practical Guide to Splines, ch. IX), so
they are evaluated by Horner from coefficients computed once per order in
integer arithmetic; rough corpus members go through every operator at
machine precision with no quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .fnexpr import Decay
from .functions import RealFunction, as_real_function, outer_apply, zero_function
from .quad import panel_rule

__all__ = [
    "steklov_combination", "iterated_steklov", "difference_power",
    "derivative_terms", "steklov_derivative", "IndicatorSteklov",
    "bspline_value", "sup_norm",
]


# ---------------------------------------------------------------------------
# Cardinal B-splines
# ---------------------------------------------------------------------------

def bspline_value(k: int, t) -> np.ndarray:
    """Order-k cardinal B-spline on [0, k] (k-fold convolution of 1_[0,1))."""
    t = np.asarray(t, dtype=float)
    vals = [((t - i >= 0.0) & (t - i < 1.0)).astype(float) for i in range(k)]
    for j in range(2, k + 1):
        nxt = []
        for i in range(k - j + 1):
            u = t - i
            nxt.append((u * vals[i] + (j - u) * vals[i + 1]) / (j - 1))
        vals = nxt
    return vals[0]


@functools.cache
def _pp_coefficients(k: int, n: int) -> np.ndarray:
    """pp form of (1/n!) sum_i (-1)^i C(k,i) (t - i)_+^n on [0, k].

    Row m holds the coefficients, lowest power first, of the polynomial in
    s = t - m on the piece [m, m + 1].  n! times each coefficient is an
    integer, so one int/int true division gives the correctly rounded float.
    """
    fact = math.factorial(n)
    return np.array([
        [math.comb(n, j) * sum((-1) ** i * math.comb(k, i) * (m - i) ** (n - j)
                               for i in range(m + 1)) / fact
         for j in range(n + 1)]
        for m in range(k)])


def _antiderivative(k: int, n: int, t) -> np.ndarray:
    """(n-k)-fold antiderivative of B_k from 0, for n = k or k + 1.

    n = k gives CB_k(t) = int_0^t B_k, which saturates at 1 for t >= k;
    n = k + 1 gives int_0^t CB_k, which grows with slope 1 beyond k.
    """
    t = np.asarray(t, dtype=float)
    tc = np.clip(t, 0.0, float(k))
    m = np.minimum(np.floor(tc), k - 1)
    s = tc - m
    m = m.astype(int)
    coef = _pp_coefficients(k, n)
    acc = coef[m, n]
    for j in range(n - 1, -1, -1):
        acc = acc * s + coef[m, j]
    return acc + (n - k) * np.maximum(t - k, 0.0)


# ---------------------------------------------------------------------------
# Exact averaging of indicators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndicatorSteklov:
    """Closed-form Steklov averages of 1_[a,b], optionally pre-averaged once.

    `pre` holds at most one earlier averaging width g, representing
    T_g 1_[a,b]; iterates T_d^k of either function reduce to cumulative
    B-splines evaluated at (b - x)/d and (a - x)/d, with no cancellation.
    """

    a: float
    b: float
    pre: tuple[float, ...] = ()

    def __post_init__(self):
        if len(self.pre) > 1:
            raise ValueError("at most one pre-averaging width is supported")

    def base_breakpoints(self) -> tuple[float, ...]:
        if not self.pre:
            return (self.a, self.b)
        g = self.pre[0]
        return tuple(sorted({self.a - g, self.a, self.b - g, self.b}))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if not self.pre:
            return ((x >= self.a) & (x <= self.b)).astype(float)
        g = self.pre[0]
        return (np.clip((self.b - x) / g, 0.0, 1.0)
                - np.clip((self.a - x) / g, 0.0, 1.0))

    def iterated(self, delta: float, k: int) -> Callable[[np.ndarray], np.ndarray]:
        if k == 0 or delta == 0.0:
            return self.__call__
        # one engine call per evaluation: the arrays are short, so the cost
        # is numpy dispatch per Horner step, not arithmetic
        a, b = self.a, self.b
        if not self.pre:
            def ev(x):
                x = np.asarray(x, dtype=float)
                cb = _antiderivative(k, k, np.stack([b - x, a - x]) / delta)
                return cb[0] - cb[1]
            return ev
        g = self.pre[0]

        def ev(x):
            x = np.asarray(x, dtype=float)
            icb = _antiderivative(k, k + 1, np.stack(
                [b - x, b - x - g, a - x, a - x - g]) / delta)
            return (delta / g) * ((icb[0] - icb[1]) - (icb[2] - icb[3]))
        return ev


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def _oscillation_subpanels(f: RealFunction, delta: float) -> int:
    # 12-point panels stay at machine accuracy up to ~6 radians of phase
    if not math.isfinite(f.osc_wavelength):
        return 1
    phase_per_unit = 2.0 * math.pi * delta / f.osc_wavelength
    return min(16, max(1, math.ceil(phase_per_unit / 6.0)))


def _rough_average(f: RealFunction, delta: float, k: int) -> Callable:
    """Per-point quadrature with panels split where f jumps (slow fallback)."""
    breaks = np.asarray(sorted(set(f.breakpoints)), dtype=float)

    def ev(x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        flat = x.ravel()
        res = out.ravel()
        for i, xi in enumerate(flat):
            u_breaks = (breaks - xi) / delta
            edges = np.unique(np.concatenate([
                np.arange(0.0, k + 1.0),
                u_breaks[(u_breaks > 0.0) & (u_breaks < k)],
            ]))
            nodes, wts = panel_rule(edges, 12)
            res[i] = np.sum(wts * bspline_value(k, nodes) * f.fn(xi + delta * nodes))
        return out
    return ev


def steklov_combination(f, delta: float, terms: dict[tuple[int, int], float],
                        name: str) -> RealFunction:
    """sum of c * T_d^k f(x + j*d) over terms {(k, j): c}, with j >= 0.

    Smooth f: the weights c * B_k(u - j) of all terms with k >= 1 add up on
    one lattice of unit panels, the k = 0 terms are point columns at j, and
    one outer product evaluates the sum.  Engine-backed and rough f evaluate
    each term in closed form or by `_rough_average`.
    """
    f = as_real_function(f)
    decay = f.decay
    if decay.kind == "compact_support":
        ends = [(decay.a - i * delta - j * delta, decay.b - i * delta - j * delta)
                for k, j in terms for i in (0, k)]
        decay = Decay.compact(min(a for a, _ in ends), max(b for _, b in ends))
    breakpoints = tuple(sorted({s - i * delta - j * delta for s in f.breakpoints
                                for k, j in terms for i in range(k + 1)}))

    if f.exact is not None or f.breakpoints:
        parts = [(c, j * delta, f.fn if k == 0 else
                  f.exact.iterated(delta, k) if f.exact is not None else
                  _rough_average(f, delta, k)) for (k, j), c in terms.items()]

        def ev(x):
            acc = np.zeros_like(x, dtype=float)
            for c, shift, term in parts:
                acc += c * term(x + shift)
            return acc
    else:
        top = max((k + j for k, j in terms if k > 0), default=0)
        edges = np.linspace(0.0, float(top), top * _oscillation_subpanels(f, delta) + 1)
        nodes, wts = panel_rule(edges, 12)
        kern = np.zeros_like(nodes)
        for (k, j), c in terms.items():
            if k > 0:
                kern += c * wts * bspline_value(k, nodes - j)
        points = {j: c for (k, j), c in terms.items() if k == 0}
        offsets = delta * np.concatenate([nodes, list(points)])
        weights = np.concatenate([kern, list(points.values())])

        def ev(x):
            return outer_apply(f, x, offsets, weights)

    return RealFunction(fn=ev, name=name, decay=decay, breakpoints=breakpoints,
                        osc_wavelength=f.osc_wavelength)


def iterated_steklov(f, delta: float, k: int) -> RealFunction:
    """k-th iterate of the forward average, one kernel quadrature per point."""
    f = as_real_function(f)
    if k < 0:
        raise ValueError("power must be >= 0")
    if k == 0 or delta == 0.0:
        return f
    return steklov_combination(f, delta, {(k, 0): 1.0}, f"T_{delta:g}^{k}[{f.name}]")


def difference_power(f, delta: float, r: int) -> RealFunction:
    """(I - T_d)^r f expanded by the binomial theorem; zero when d = 0."""
    f = as_real_function(f)
    if r < 1:
        raise ValueError("r must be >= 1")
    if delta == 0.0:
        return zero_function(name=f"(I-T_0)^{r}[{f.name}]")
    terms = {(j, 0): float((-1) ** j) * math.comb(r, j) for j in range(r + 1)}
    return steklov_combination(f, delta, terms, f"(I-T_{delta:g})^{r}[{f.name}]")


def derivative_terms(delta: float, m: int, r: int) -> dict[tuple[int, int], float]:
    """Terms of d^r/dx^r T_d^m f as forward differences of T_d^(m-r) f.

    Uses (d/dx) T_d g = (g(.+d) - g(.)) / d applied r times, so f itself is
    never differentiated.  Requires 1 <= r <= m.
    """
    if not 1 <= r <= m:
        raise ValueError("need 1 <= r <= m")
    scale = delta ** (-r)
    return {(m - r, j): scale * float((-1) ** (r - j)) * math.comb(r, j)
            for j in range(r + 1)}


def steklov_derivative(f, delta: float, m: int, r: int) -> RealFunction:
    """d^r/dx^r T_d^m f; see `derivative_terms`."""
    f = as_real_function(f)
    return steklov_combination(f, delta, derivative_terms(delta, m, r),
                               f"d^{r} T_{delta:g}^{m}[{f.name}]")


# ---------------------------------------------------------------------------
# Sup norm on a window
# ---------------------------------------------------------------------------

def sup_norm(f, window: float, step: Optional[float] = None,
             refine: bool = True) -> float:
    """max |f| over [-window, window] on a grid, locally refined at the peaks."""
    f = as_real_function(f)
    if step is None:
        step = min(0.02, f.osc_wavelength / 48.0)
        step = max(step, 2.0 * window / 400_000)
    n = max(64, int(round(2.0 * window / step)) + 1)
    xs = np.linspace(-window, window, n)
    extra = [b for b in f.breakpoints if abs(b) <= window]
    if extra:
        xs = np.unique(np.concatenate([xs, np.asarray(extra, dtype=float)]))
    vals = np.abs(f(xs))
    best = float(np.max(vals))
    if not refine:
        return best
    order = np.argsort(vals)[::-1][:4]
    lo = xs[np.maximum(order - 1, 0)]
    hi = xs[np.minimum(order + 1, len(xs) - 1)]
    return max(best, _ternary_max(f, lo, hi))


def _ternary_max(f: RealFunction, lo: np.ndarray, hi: np.ndarray,
                 iters: int = 48) -> float:
    """Batched ternary search for max |f| over several bracketing intervals."""
    lo = lo.copy()
    hi = hi.copy()
    for _ in range(iters):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        v = np.abs(f(np.concatenate([m1, m2])))
        v1, v2 = v[:len(m1)], v[len(m1):]
        take_right = v1 < v2
        lo = np.where(take_right, m1, lo)
        hi = np.where(take_right, hi, m2)
    return float(np.max(np.abs(f(0.5 * (lo + hi)))))
