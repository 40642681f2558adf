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
evaluated.  Each term is the kernel B_k(u - j) on the unit panels of [0, top],
top = max(k + j), subdivided where f oscillates, so the weights of all terms
add up on one Gauss-Legendre lattice (k = 0 terms are point columns) and one
outer product f(x_i + d*u_j) evaluates the whole sum (`outer_apply`, which
samples an expression's sin, cos and sinc nodes by the addition theorem, at
the exact x_i + d*u_j to about an ulp).  Sums with one top stack
on one lattice: each keeps its own row of weights, and one pass over f serves
them all.  A point whose window (x, x + top*d) holds a breakpoint b of f
takes the same lattice with its panels split at (b - x)/d.

Compactly supported piecewise polynomials, read off the expression tree as
sums of truncated powers c (b - x)_+^n / n!, get an exact engine: T_d^k of
each term is c d^n times a polynomial on each unit piece of (b - x)/d (the
pp form, de Boor, A Practical Guide to Splines, ch. IX), evaluated by Horner
from coefficients computed once per order in integer arithmetic.  So the
indicator and the smoothed box go through every operator at machine
precision with no quadrature.

The sup norm samples f on a grid of step min(0.02, wavelength/48) plus the
breakpoints, then refines every distinct local maximum of the samples whose
sample plus its rise over its lower neighbour reaches the largest one.  Each
round makes one f call: 12 equispaced points inside every active bracket and
the vertex of the parabola through its best sample and neighbours.  Each
bracket stops on its own estimate, the rise of its best sample over its lower
neighbour, against its width w: it shrinks like w^2 at a smooth peak (which
stops once the parabola's height is at the rounding error), like w at a kink,
and not at all at a jump (the rise over the higher neighbour is used there)
or at the rounding floor (where the samples stop rising to the best one, and
the bracket stops).  At most 16 calls and 388 points per norm (Brent,
Algorithms for Minimization without Derivatives, 1973, for safeguarded local
search; Battles & Trefethen, SIAM J. Sci. Comput. 25, 2004, for the maximum
of a piecewise-smooth function through its local pieces).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .functions import _SUB_CHUNK, RealFunction, outer_apply, zero_function
from .quad import panel_rule

__all__ = [
    "steklov_combination", "iterated_steklov", "difference_power", "difference_terms",
    "derivative_terms", "steklov_derivative", "IndicatorSteklov", "bspline_value",
    "sup_norm",
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


def steklov_combination(f: RealFunction, delta: float,
                        *terms: dict[tuple[int, int], float]) -> RealFunction:
    """sum of c * T_d^k f(x + j*d) over terms {(k, j): c}, where a negative j
    (or d) shifts back: term by term for engine-backed f, else on one
    weighted lattice (module docstring).
    Several term maps give a stacked function, one row per map; its `rows`
    evaluate one map each, to the same bits."""
    keys = {key for t in terms for key in t}
    breakpoints = tuple(sorted({s - m * delta for s in f.breakpoints
                                for k, j in keys for m in range(j, j + k + 1)}))

    if f.exact is not None:
        parts = [[(c, j * delta, f.exact.iterated(delta, k)) for (k, j), c in t.items()]
                 for t in terms]

        def ev(x, maps):
            return np.stack([sum((c * term(x + shift) for c, shift, term in part),
                                 np.zeros_like(x, dtype=float)) for part in parts[maps]])
    else:
        top = max((k + j for k, j in keys if k > 0), default=0)
        unit = np.linspace(0.0, float(top), top * _oscillation_subpanels(f, delta) + 1)
        points = list(dict.fromkeys(j for t in terms for k, j in t if k == 0))

        def lattice(edges):
            # offsets, and one row of weights per map, for each row of edges
            nodes, wts = panel_rule(edges, 12)
            spline = {(k, j): bspline_value(k, nodes - j) for k, j in keys if k > 0}
            cols = (*nodes.shape[:-1], len(points))
            kern = [sum((c * wts * spline[k, j] for (k, j), c in t.items() if k > 0),
                        np.zeros_like(nodes)) for t in terms]
            pts = [np.broadcast_to([t.get((0, j), 0.0) for j in points], cols) for t in terms]
            return (delta * np.concatenate([nodes, np.broadcast_to(points, cols)], -1),
                    np.stack([np.concatenate(kp, -1) for kp in zip(kern, pts)]))

        offsets, weights = lattice(unit)
        breaks = np.asarray(f.breakpoints, dtype=float)
        step = max(1, _SUB_CHUNK // (offsets.size + 12 * breaks.size))

        def ev(x, maps):
            flat = np.asarray(x, dtype=float).ravel()
            cuts = (breaks - flat[:, None]) / delta
            near = np.any((cuts > 0.0) & (cuts < top), axis=1)
            if not near.any():
                return outer_apply(f, x, offsets, weights[maps])
            out = np.empty((len(weights[maps]), flat.size))
            out[:, ~near] = outer_apply(f, flat[~near], offsets, weights[maps])
            rows = np.flatnonzero(near)
            for i in (rows[i0:i0 + step] for i0 in range(0, rows.size, step)):
                # clipped and repeated cuts give zero-width panels, which weigh nothing
                edges = np.concatenate([np.broadcast_to(unit, (i.size, unit.size)),
                                        np.clip(cuts[i], 0.0, top)], axis=1)
                off, w = lattice(np.sort(edges, axis=1))
                out[:, i] = np.sum(f.fn(flat[i, None] + off) * w[maps], axis=-1)
            return out.reshape(len(out), *np.shape(x))

    # ev evaluates the maps in a slice of terms, one output row each
    rows = tuple(lambda x, i=i: ev(x, slice(i, i + 1))[0] for i in range(len(terms)))
    return RealFunction(fn=(lambda x: ev(x, slice(None))) if len(terms) > 1 else rows[0],
                        breakpoints=breakpoints, osc_wavelength=f.osc_wavelength,
                        rows=rows if len(terms) > 1 else ())


def iterated_steklov(f: RealFunction, delta: float, k: int) -> RealFunction:
    """k-th iterate of the forward average, one kernel quadrature per point."""
    if k < 0:
        raise ValueError("power must be >= 0")
    if k == 0 or delta == 0.0:
        return f
    return steklov_combination(f, delta, {(k, 0): 1.0})


def difference_power(f: RealFunction, delta: float, r: int) -> RealFunction:
    """(I - T_d)^r f expanded by the binomial theorem; zero when d = 0."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if delta == 0.0:
        return zero_function()
    return steklov_combination(f, delta, difference_terms(r))


def difference_terms(r: int) -> dict[tuple[int, int], float]:
    """Terms of (I - T_d)^r f by the binomial theorem."""
    return {(j, 0): float((-1) ** j) * math.comb(r, j) for j in range(r + 1)}


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


def steklov_derivative(f: RealFunction, delta: float, m: int, r: int) -> RealFunction:
    """d^r/dx^r T_d^m f; see `derivative_terms`."""
    return steklov_combination(f, delta, derivative_terms(delta, m, r))


# ---------------------------------------------------------------------------
# Sup norm on a window
# ---------------------------------------------------------------------------

_GRID_STEP = 0.02  # the sup grid's step where f does not oscillate faster
_LOCAL = 12  # local grid points per bracket and round; even, so none sits on the centre
_MAX_ROUNDS = 16
_MAX_POINTS = 388
_EPS = float(np.finfo(float).eps)


def sup_norm(f: RealFunction, window: float, refine: bool = True):
    """max |f| over [-window, window] on a grid, refined at its peaks; for a
    stacked f, the tuple of its outputs' maxima from one grid pass."""
    tops = _grid_maxima(f, window, refine)
    return tops[0] if len(tops) == 1 else tuple(tops)


def _finite_samples(f: Callable, x: np.ndarray) -> np.ndarray:
    """f(x), a row per output of f, without numpy's warnings; raises naming an
    x where f is not finite."""
    with np.errstate(divide="ignore", invalid="ignore"):
        fx = f(x)
    bad = ~np.isfinite(fx.reshape(-1, x.size)).all(axis=0)
    if bad.any():
        raise ValueError(f"f is not finite at x = {x[np.argmax(bad)]:.6g}")
    return fx


def _grid_maxima(f: RealFunction, window: float, refine: bool = True,
                 signed: bool = False) -> list[float]:
    """[max |f|], or [max f, max -f] when signed, over [-window, window], per
    output of f: the grid values (one f call for all outputs of a stacked f),
    each refined on its own by `_refine_peaks` unless refine is False."""
    step = max(min(_GRID_STEP, f.osc_wavelength / 48.0), 2.0 * window / 400_000)
    n = max(64, int(round(2.0 * window / step)) + 1)
    xs = np.linspace(-window, window, n)
    extra = [b for b in f.breakpoints if abs(b) <= window]
    if extra:
        xs = np.unique(np.concatenate([xs, np.asarray(extra, dtype=float)]))
    fx = _finite_samples(f, xs)
    tops = []
    for i, row in enumerate(fx.reshape(-1, xs.size)):
        groups = ([(row, np.ones_like(row)), (-row, -np.ones_like(row))] if signed
                  else [(np.abs(row), np.where(row < 0.0, -1.0, 1.0))])
        tops += (_refine_peaks(f.rows[i] if f.rows else f, xs, groups) if refine
                 else [float(np.max(v)) for v, _ in groups])
    return tops


def _peaks(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample indices (lo, best, hi) of the distinct local maxima of vals, a
    run of equal samples counting once, whose sample plus its rise over its
    lower neighbour reaches max(vals)."""
    n = vals.size
    change = np.flatnonzero(vals[1:] != vals[:-1])
    start = np.concatenate([[0], change + 1])
    end = np.concatenate([change, [n - 1]])
    run = vals[start]
    left = np.concatenate([[np.nan], run[:-1]])
    right = np.concatenate([run[1:], [np.nan]])
    peak = ~(run <= left) & ~(run <= right)  # a missing neighbour (NaN) is lower
    keep = peak & (2.0 * run - np.fmin(left, right) >= np.max(vals))
    s, e = start[keep], end[keep]
    return np.maximum(s - 1, 0), (s + e) // 2, np.minimum(e + 1, n - 1)


def _vertex(x3: list[float], v3: list[float]) -> Optional[tuple[float, float]]:
    """Vertex of the parabola through the points (x3[i], v3[i]) and its height
    over the middle one; None when it is no maximum strictly between the
    outer points."""
    u0, u2 = x3[0] - x3[1], x3[2] - x3[1]
    if not u0 < 0.0 < u2:
        return None
    s0, s2 = (v3[0] - v3[1]) / u0, (v3[2] - v3[1]) / u2
    c2 = (s2 - s0) / (u2 - u0)
    if not c2 < 0.0:
        return None
    c1 = s2 - c2 * u2
    shift = -c1 / (2.0 * c2)
    if not u0 < shift < u2:
        return None
    return x3[1] + shift, 0.5 * c1 * shift


class _Bracket:
    """A peak of s * f: its best sample and the nearest samples either side.

    `est` is the rise of the best sample over its lower neighbour, or over
    the higher one at a jump; `upper` is the best sample plus `est`.
    """

    __slots__ = ("x", "v", "sign", "group", "est", "width", "upper")

    def __init__(self, x: list[float], v: list[float], sign: float, group: int):
        self.x, self.v, self.sign, self.group = x, v, sign, group
        self.est = v[1] - min(v[0], v[2])
        self.width = x[2] - x[0]
        self.upper = v[1] + self.est

    def points(self) -> list[float]:
        """_LOCAL equispaced points inside, and the parabola's vertex (or,
        without one, the midpoint towards the higher neighbour)."""
        lo, best, hi = self.x
        step = (hi - lo) / (_LOCAL + 1)
        vertex = _vertex(self.x, self.v)
        if vertex is None:
            vertex = (0.5 * (best + (lo if self.v[0] > self.v[2] else hi)),)
        return [lo + k * step for k in range(1, _LOCAL + 1)] + [vertex[0]]

    def update(self, xs: list[float], vs: list[float]) -> bool:
        """Move to the best of the old and new samples; True when done."""
        pairs = sorted(zip(self.x + xs, self.v + vs))
        vals = [v for _, v in pairs]
        j = vals.index(max(vals))
        xb, vb = pairs[j]
        lo, hi = j, j  # nearest distinct samples either side
        while lo > 0 and pairs[lo][0] == xb:
            lo -= 1
        while hi < len(pairs) - 1 and pairs[hi][0] == xb:
            hi += 1
        x3 = [pairs[lo][0], xb, pairs[hi][0]]
        v3 = [pairs[lo][1], vb, pairs[hi][1]]
        # noise breaks the rise to the best sample on both sides; a jump's
        # low side may rise away from it
        noisy = (any(a > b for a, b in zip(vals[:j], vals[1:j + 1]))
                 and any(a < b for a, b in zip(vals[j:], vals[j + 1:])))
        rise = vb - min(v3[0], v3[2])
        width = x3[2] - x3[0]
        ratio = width / self.width
        smooth = rise <= ratio ** 1.5 * self.est
        stalled = rise > math.sqrt(ratio) * self.est
        err = vb - max(v3[0], v3[2]) if stalled and not noisy else rise
        tol = 2.0 * _EPS * abs(vb)
        vertex = _vertex(x3, v3)
        self.x, self.v, self.est, self.width, self.upper = x3, v3, rise, width, vb + err
        return (err <= tol or (smooth and vertex is not None and vertex[1] <= tol)
                or (stalled and noisy) or width <= 4.0 * _EPS * max(1.0, abs(xb)))


def _refine_peaks(f: RealFunction, xs: np.ndarray, groups) -> list[float]:
    """The largest value of s * f on [xs[0], xs[-1]] for each group (vals, s)
    of samples vals = s * f(xs): the grid's peaks refined in batched rounds,
    one f call per round (see the module docstring).  A bracket also stops at
    the resolution of x, or when its upper value falls below its group's
    best; when the point budget runs short, the highest upper values go first.
    """
    top = [float(np.max(vals)) for vals, _ in groups]
    brackets = []
    for g, (vals, sign) in enumerate(groups):
        lo, best, hi = _peaks(vals)
        for i3 in np.stack([lo, best, hi], axis=1):
            brackets.append(_Bracket(xs[i3].tolist(), vals[i3].tolist(),
                                     float(sign[i3[1]]), g))
    per = _LOCAL + 1
    rounds = points = 0
    while rounds < _MAX_ROUNDS:
        brackets = [b for b in brackets if b.upper >= top[b.group]]
        batch = sorted(brackets, key=lambda b: -b.upper)[:(_MAX_POINTS - points) // per]
        if not batch:
            break
        pts = [x for b in batch for x in b.points()]
        vals = f(np.array(pts)).tolist()
        rounds += 1
        points += len(pts)
        for i, b in enumerate(batch):
            new = slice(i * per, (i + 1) * per)
            if b.update(pts[new], [b.sign * v for v in vals[new]]):
                brackets.remove(b)
            top[b.group] = max(top[b.group], b.v[1])
    return top
