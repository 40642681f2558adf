"""Test-only oracles for the Steklov operators, independent of the fast paths.

- `nested_steklov`: k literal nested applications of T_d, each a
  per-point quadrature split at the breakpoints when there are any.
- `bspline_cox_de_boor`: B_k by the Cox-de Boor recursion.
- `bspline_cumulative_quad`: CB_k(t) = int_0^t B_k by Gauss-Legendre
  quadrature of the Cox-de Boor values on the unit pieces.
- `truncated_power_sum`: (1/n!) sum_i (-1)^i C(k,i) (t - i)_+^n in mpmath at
  30 digits; n = k is CB_k and n = k + 1 its integral, for every real t.

`engine` gives the exact engine that `steklov_combination` builds for an
expression-backed function, or None when it takes the lattice.
"""

import math

import mpmath
import numpy as np

from vexp.functions import RealFunction, outer_apply
from vexp.quad import gauss_rule, panel_rule
from vexp.steklov import IndicatorSteklov


def engine(rf: RealFunction):
    """The exact engine of an expression with truncated-power terms, else None."""
    return IndicatorSteklov(rf.expr, rf.expr.terms) if rf.expr.terms else None


def nested_steklov(f: RealFunction, delta: float, k: int) -> RealFunction:
    """k literal nested applications of T_d (independent of the kernel path).

    Work grows geometrically with k for smooth inputs (each level multiplies
    the evaluation fan-out), so this is a test oracle, not a production path.
    """
    g = f
    for _ in range(k):
        g = _single_nested(g, delta)
    return g


def _single_nested(g: RealFunction, delta: float) -> RealFunction:
    if g.breakpoints:
        breaks = tuple(sorted({s - j * delta for s in g.breakpoints for j in (0, 1)}))
        return RealFunction(fn=lambda x: _split_average(g, delta, x), breakpoints=breaks)
    x0, w0 = gauss_rule(24)

    def ev(x):
        return outer_apply(g, x, delta * x0, w0)

    return RealFunction(fn=ev, frequency=g.frequency)


def _split_average(g: RealFunction, delta: float, x) -> np.ndarray:
    """(1/d) int_0^d g(x + t) dt, one point at a time, on [0, 1] in units of
    d split where g breaks."""
    x = np.asarray(x, dtype=float)
    breaks = np.asarray(g.breakpoints, dtype=float)
    out = np.empty(x.size)
    for i, xi in enumerate(x.ravel()):
        u = (breaks - xi) / delta
        edges = np.unique(np.concatenate([[0.0, 1.0], u[(u > 0.0) & (u < 1.0)]]))
        nodes, wts = panel_rule(edges, 12)
        out[i] = np.sum(wts * g.fn(xi + delta * nodes))
    return out.reshape(x.shape)


def bspline_cox_de_boor(k: int, t) -> np.ndarray:
    """Order-k cardinal B-spline on [0, k) by the Cox-de Boor recursion."""
    t = np.asarray(t, dtype=float)
    vals = [((t - i >= 0.0) & (t - i < 1.0)).astype(float) for i in range(k)]
    for j in range(2, k + 1):
        nxt = []
        for i in range(k - j + 1):
            u = t - i
            nxt.append((u * vals[i] + (j - u) * vals[i + 1]) / (j - 1))
        vals = nxt
    return vals[0]


def bspline_cumulative_quad(k: int, t) -> np.ndarray:
    """CB_k(t) by quadrature; exact for the degree k-1 pieces of B_k."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    for i, ti in np.ndenumerate(t):
        top = min(max(ti, 0.0), float(k))
        edges = np.unique(np.concatenate([np.arange(0.0, math.floor(top) + 1.0), [top]]))
        if len(edges) < 2:
            out[i] = 0.0
            continue
        nodes, wts = panel_rule(edges, k // 2 + 1)
        out[i] = np.sum(wts * bspline_cox_de_boor(k, nodes))
    return out


def truncated_power_sum(k: int, n: int, t) -> mpmath.mpf:
    """(1/n!) sum_{i <= k} (-1)^i C(k,i) (t - i)_+^n at 30 digits.

    t is a float or an mpf; a float converts exactly.
    """
    with mpmath.workdps(30):
        t = mpmath.mpf(t)
        total = mpmath.fsum((-1) ** i * math.comb(k, i) * (t - i) ** n
                            for i in range(k + 1) if t > i)
        return total / math.factorial(n)
