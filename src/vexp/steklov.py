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

Compactly supported piecewise polynomials, read off the expression tree as
sums of truncated powers c (b - x)_+^n / n!, get an exact engine: T_d^k of
each term is c d^n times a polynomial on each unit piece of (b - x)/d (the
pp form, de Boor, A Practical Guide to Splines, ch. IX), evaluated by Horner
from coefficients computed once per order in integer arithmetic.  So the
indicator and the smoothed box go through every operator at machine
precision with no quadrature.  Other inputs with breakpoints get a
quadrature whose panels are split at them.
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

@functools.cache
def _pp_coefficients(k: int, n: int) -> np.ndarray:
    """pp form of (1/n!) sum_i (-1)^i C(k,i) (t - i)_+^n on [0, oo).

    Row m holds the coefficients, lowest power first, of the polynomial in
    s = t - m on the piece [m, m + 1], and row k the one on [k, oo), where
    all k + 1 powers are active (degree n - k, zero for n < k).  n! times
    each coefficient is an integer, so one int/int true division gives the
    correctly rounded float.  n = k - 1 is B_k, n = k is CB_k = int_0^t B_k.
    """
    fact = math.factorial(n)
    return np.array([
        [math.comb(n, j) * sum((-1) ** i * math.comb(k, i) * (m - i) ** (n - j)
                               for i in range(m + 1)) / fact
         for j in range(n + 1)]
        for m in range(k + 1)])


def _horner(k: int, n: int, t: np.ndarray) -> np.ndarray:
    """The pp form of `_pp_coefficients(k, n)` at t, held at its value at 0
    (which is 0 for n >= 1) for t < 0."""
    tc = np.maximum(t, 0.0)
    m = np.minimum(np.floor(tc), k)
    s = tc - m
    m = m.astype(int)
    coef = _pp_coefficients(k, n)
    acc = coef[m, n]
    for j in range(n - 1, -1, -1):
        acc = acc * s + coef[m, j]
    return acc


def bspline_value(k: int, t) -> np.ndarray:
    """Order-k cardinal B-spline (k-fold convolution of 1_[0,1)), 0 outside [0, k)."""
    t = np.asarray(t, dtype=float)
    return np.where((t >= 0.0) & (t < k), _horner(k, k - 1, t), 0.0)


# ---------------------------------------------------------------------------
# Exact averaging of piecewise polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndicatorSteklov:
    """Closed-form Steklov iterates of a compactly supported piecewise
    polynomial f = sum c (b - x)_+^n / n! over its terms (c, b, n).

    T_d^k of a term is c d^n A_{k,n}((b - x)/d), where A_{k,n}(t) = int
    B_k(u) (t - u)_+^n / n! du is the pp form of `_pp_coefficients(k, k + n)`.
    The iterates vanish off [min b - k d, max b].  k = 0 evaluates fn, f
    itself, which keeps its values at the breakpoints.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    terms: tuple[tuple[float, float, int], ...]

    def __call__(self, x):
        return self.fn(x)

    def iterated(self, delta: float, k: int) -> Callable[[np.ndarray], np.ndarray]:
        if k == 0 or delta == 0.0:
            return self.__call__
        groups: dict[int, list[tuple[float, float]]] = {}
        for c, b, n in self.terms:
            groups.setdefault(n, []).append((c * delta ** n, b))
        lo = min(b for _, b, _ in self.terms) - k * delta

        # one Horner pass per power n on the stacked arguments of its terms;
        # right of max b every argument is <= 0, where the pp form is 0
        def ev(x):
            x = np.asarray(x, dtype=float)
            acc = np.zeros_like(x)
            for n, cb in groups.items():
                vals = _horner(k, k + n, np.stack([b - x for _, b in cb]) / delta)
                for (c, _), v in zip(cb, vals):
                    acc += c * v
            return np.where(x > lo, acc, 0.0)
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
    """T_d^k f by quadrature against B_k, each point's unit panels of [0, k]
    split where f jumps or kinks; one f call for all points."""
    breaks = np.asarray(f.breakpoints, dtype=float)

    def ev(x):
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, 1)
        cuts = np.clip((breaks - flat) / delta, 0.0, float(k))
        units = np.broadcast_to(np.arange(k + 1.0), (flat.shape[0], k + 1))
        # clipped and repeated cuts give zero-width panels, which weigh nothing
        nodes, wts = panel_rule(np.sort(np.concatenate([units, cuts], axis=1)), 12)
        vals = f.fn(flat + delta * nodes)
        return np.sum(wts * bspline_value(k, nodes) * vals, axis=1).reshape(x.shape)
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
