"""Forward Steklov averages, their iterates and differences.

The k-th iterate of the forward average T_d f(x) = (1/d) * int_0^d f(x+t) dt
is evaluated with a single quadrature against the order-k cardinal B-spline:

    T_d^k f(x) = int_0^k f(x + d*u) B_k(u) du,

which keeps r-fold differences of high iterates affordable (no nested
quadratures).  Derivatives of iterates never differentiate f: the identity
(d/dx) T_d g = (g(. + d) - g(.)) / d turns d^r/dx^r T_d^m f into forward
differences of T_d^(m-r) f.

Every operator here is a combination sum c * T_d^k f(. + j*d) of shifted
iterates, and `steklov_combination` is the one place such a sum is evaluated.
Each term is the kernel B_k(u - j) on the unit panels of [0, top], top =
max(k + j), each cut into `quad.phase_panels(|d|, f.frequency)` pieces and at
least ceil(|d| / 2), so that a piece spans at most 2 units of x (more than
_MAX_PANELS in all raise ValueError).  So the weights of all terms add up on
one Gauss-Legendre lattice (k = 0 terms are point columns) and one outer
product f(x_i + d*u_j) evaluates the whole sum (`outer_apply`, which samples
an expression's sin, cos and sinc nodes by the addition theorem, at the
exact x_i + d*u_j to about an ulp, from sines of x and of the offsets that
`quad.kept` holds per grid, keyed by the grid's bytes and the node's c and b,
so every d and r on a norm's nodes shares them).  `quad.kept` also holds
the unit lattices' offsets and weights, keyed by d, the panel count and the
term maps' items in dict order, the order their weights are summed in.
Sums with one top stack on one lattice: each keeps its own row of weights,
and one pass over f serves them all.  A point whose window (x, x + top*d)
holds a breakpoint b of f takes the same lattice with its panels split at
(b - x)/d, built anew.  On a lattice with top >= 4 (K-hat's) a call's points
take K Chebyshev points instead where `_order`'s tail test holds
(`_product_rule`; README).

While `SAMPLE_MEMO` holds a dict (`audit.run_suite` keeps one per member, for
that member's cases), a combination's samples are kept there, read-only,
keyed by all the call reads: f's fn, expression, breakpoints and frequency,
d, the term maps' items, the rows asked for, and x's shape and bytes.  A
repeated call returns the kept samples; outside it (None) every call samples.

Compactly supported piecewise polynomials, read off the expression tree as
sums of truncated powers c (b - x)_+^n / n!, get an exact engine, built from
the expression's terms where `steklov_combination` forms an operator of the
expression itself: T_d^k of each term is c d^n times a polynomial on each
unit piece of (b - x)/d (the pp form, de Boor, A Practical Guide to Splines,
ch. IX), evaluated by Horner from coefficients computed once per order in
integer arithmetic.  So the indicator and the smoothed box go through every
operator at machine precision with no quadrature.

The sup norm samples each output of f on `quad.window_nodes`' uniform panels
of its `NormSpec` (or `quad.MAX_PHASE` radians of f's frequency), split at its
own breakpoints, 12 nodes a panel.  Sum |c_n| of a panel's Legendre coefficients
bounds its interpolant.  The candidates are the panels whose bound reaches the
best sample and those `quad.unresolved` names, whose interpolant bounds
nothing; a named candidate is cut in _SPLIT (up to _CUTS rounds, one f call
each).  Each candidate's interpolant is resampled and polished by Newton
steps, and one f call per output at the points found (an ulp inside a panel's
end: a jump's one-sided limit) gives the norm (Battles & Trefethen, SIAM J.
Sci. Comput. 25, 2004).  With confirm=False the interpolants' values stand.
"""

from __future__ import annotations

import contextvars
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from .functions import _SUB_CHUNK, RealFunction, _finite_samples, outer_apply
from .quad import (LEGENDRE, MAX_PHASE, frozen, kept, panel_rule, phase_panels, unresolved,
                   window_nodes)

if TYPE_CHECKING:
    from .norms import NormSpec

__all__ = [
    "steklov_combination", "iterated_steklov", "difference_terms", "derivative_terms",
    "IndicatorSteklov", "bspline_value", "sup_norm",
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

_MAX_PANELS = 256  # a sup modulus on 256 and 32,000 sup panels took 5.3 s (2-core x86)


def _lattice(delta: float, items: tuple, edges, n: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Offsets delta * u and one row of weights per term map (its items,
    summed in their order) for the n-point Gauss-Legendre rule on each row of
    edges; k = 0 terms are point columns, after the nodes."""
    nodes, wts = panel_rule(edges, n)
    spline = {(k, j): bspline_value(k, nodes - j)
              for k, j in {key for t in items for key, _ in t} if k > 0}
    points = list(dict.fromkeys(j for t in items for (k, j), _ in t if k == 0))
    cols = (*nodes.shape[:-1], len(points))
    kern = [sum((c * wts * spline[k, j] for (k, j), c in t if k > 0), np.zeros_like(nodes))
            for t in items]
    pts = [np.broadcast_to([t.get((0, j), 0.0) for j in points], cols) for t in map(dict, items)]
    return (delta * np.concatenate([nodes, np.broadcast_to(points, cols)], -1),
            np.stack([np.concatenate(kp, -1) for kp in zip(kern, pts)]))


@kept.rule
def _unit_lattice(delta: float, top: int, panels: int, items: tuple):
    """`_lattice` on the equal panels of [0, top]."""
    return _lattice(delta, items, np.linspace(0.0, float(top), panels + 1))


_ORDERS = (12, 16, 20, 24, 32, 40, 48, 64)  # the point counts of the product rules
_PROBE, _MIN_CALL = 16, 64  # points a call's rule is chosen on; smaller calls take Gauss
_TAIL_BAR = 3e-14  # a point's last two Chebyshev coefficients, relative to max |c_0|
_LONG_DOUBLE = np.finfo(np.longdouble).precision > np.finfo(float).precision  # exact moments


@functools.cache
def _chebyshev(K: int):
    """K first-kind Chebyshev points on [0, 1]; samples to coefficients in double, long double."""
    theta = (2 * np.arange(K, dtype=np.longdouble) + 1) * np.arccos(np.longdouble(-1)) / (2 * K)
    coef = 2.0 / K * np.cos(np.outer(np.arange(K), theta))
    coef[0] /= 2.0
    return (0.5 * (1.0 + np.cos(theta))).astype(float), coef.astype(float), coef


@kept.rule
def _product_rule(delta: float, top: int, K: int, items: tuple):
    """Offsets; a row of weights per map, one product each (a product over all
    maps gives a map other bits than it has alone); then the rows of c_0,
    c_{K-2} and c_{K-1}."""
    points, coef, exact = _chebyshev(K)
    n = math.ceil((top + K - 1) / 2)  # Gauss nodes a unit panel: exact to degree top + K - 2
    offsets, weights = _lattice(1.0, items, np.arange(top + 1.0), n)
    m = top * n
    interp = np.polynomial.chebyshev.chebvander(
        2.0 / top * offsets[:m].astype(np.longdouble) - 1.0, K - 1) @ exact
    return (delta * np.concatenate([top * points, offsets[m:]]),
            np.stack([np.concatenate([(w[:m] @ interp).astype(float), w[m:]]) for w in weights]),
            np.pad(coef[[0, K - 2, K - 1]], ((0, 0), (0, offsets.size - m))))


def _order(f: RealFunction, delta: float, top: int, x: np.ndarray, gauss: int) -> int:
    """The fewest K of _ORDERS, at most 3/4 of the gauss offsets, whose Chebyshev
    coefficients of degree K - 2 and up at _PROBE of the points x are at most
    _TAIL_BAR of their largest |c_0|; 0, the Gauss lattice, if none, for top < 4,
    for fewer than _MIN_CALL points, or where long double is double."""
    if top < 4 or x.size < _MIN_CALL or 4 * _ORDERS[0] > 3 * gauss or not _LONG_DOUBLE:
        return 0
    kmax = max(K for K in _ORDERS if 4 * K <= 3 * gauss)
    points, coef, _ = _chebyshev(kmax)
    probe = x[np.linspace(0, x.size - 1, _PROBE).astype(int)]
    a = np.abs(coef @ f.fn(probe[:, None] + delta * top * points).T)
    tail = np.maximum.accumulate(a[::-1], axis=0)[::-1] <= _TAIL_BAR * a[0].max()
    return next((K for K in _ORDERS if K <= kmax and tail[K - 2].all()), 0)


SAMPLE_MEMO: contextvars.ContextVar[Optional[dict]] = contextvars.ContextVar(
    "SAMPLE_MEMO", default=None)


def steklov_combination(f: RealFunction, delta: float,
                        *terms: dict[tuple[int, int], float]) -> RealFunction:
    """sum of c * T_d^k f(x + j*d) over terms {(k, j): c}, where a negative j
    (or d) shifts back: term by term for an expression with truncated powers
    (the exact engine), else on one weighted lattice (module docstring).
    Several term maps give a stacked function, one row per map; its `rows`
    evaluate one map each, to the same bits."""
    keys = {key for t in terms for key in t}
    items = tuple(tuple(t.items()) for t in terms)  # in dict order: the weights' sums

    def breakpoints(keys):
        return tuple(sorted({s - m * delta for s in f.breakpoints
                             for k, j in keys for m in range(j, j + k + 1)}))

    if f.fn is f.expr and f.expr.terms:
        exact = IndicatorSteklov(f.expr, f.expr.terms)
        parts = [[(c, j * delta, exact.iterated(delta, k)) for (k, j), c in t.items()]
                 for t in terms]

        def sample(x, maps):
            return np.stack([sum((c * term(x + shift) for c, shift, term in part),
                                 np.zeros_like(x, dtype=float)) for part in parts[maps]])
    else:
        top = max((k + j for k, j in keys if k > 0), default=0)
        panels = top * max(phase_panels(abs(delta), f.frequency), math.ceil(abs(delta) / 2.0))
        if panels > _MAX_PANELS:
            raise ValueError(f"the Steklov lattice needs {panels} panels for frequency "
                             f"{f.frequency:.6g} at step {delta:.6g}, above {_MAX_PANELS}")
        offsets, weights = _unit_lattice(delta, top, panels, items)
        unit = np.linspace(0.0, float(top), panels + 1)
        breaks = np.asarray(f.breakpoints, dtype=float)
        step = max(1, _SUB_CHUNK // (offsets.size + 12 * breaks.size))

        def lattice(x, maps):  # a flat x whose windows hold no breakpoint
            if not (K := _order(f, delta, top, x, offsets.size)):
                return outer_apply(f, x, offsets, weights[maps])
            off, w, coef = _product_rule(delta, top, K, items)
            s = outer_apply(f, x, off, np.vstack([w[maps], coef]))
            bad = np.abs(s[-2:]).max(axis=0) > _TAIL_BAR * np.abs(s[-3]).max()
            if bad.any():
                s[:-3, bad] = outer_apply(f, x[bad], offsets, weights[maps])
            return s[:-3]

        def sample(x, maps):
            flat = np.asarray(x, dtype=float).ravel()
            cuts = (breaks - flat[:, None]) / delta
            near = np.any((cuts > 0.0) & (cuts < top), axis=1)
            if not near.any():
                return lattice(flat, maps).reshape(-1, *np.shape(x))
            out = np.empty((len(weights[maps]), flat.size))
            out[:, ~near] = lattice(flat[~near], maps)
            rows = np.flatnonzero(near)
            for i in (rows[i0:i0 + step] for i0 in range(0, rows.size, step)):
                # clipped and repeated cuts give zero-width panels, which weigh nothing
                edges = np.concatenate([np.broadcast_to(unit, (i.size, unit.size)),
                                        np.clip(cuts[i], 0.0, top)], axis=1)
                off, w = _lattice(delta, items, np.sort(edges, axis=1))
                out[:, i] = np.sum(f.fn(flat[i, None] + off) * w[maps], axis=-1)
            return out.reshape(len(out), *np.shape(x))

    reads = (f.fn, f.expr, f.breakpoints, f.frequency, delta, items)

    def ev(x, maps):
        if (memo := SAMPLE_MEMO.get()) is None:
            return sample(x, maps)
        x = np.asarray(x, dtype=float)
        key = (reads, maps.start, maps.stop, x.shape, x.tobytes())
        if (out := memo.get(key)) is None:
            out = memo[key] = frozen(sample(x, maps))[0]
        return out

    # ev evaluates the maps in a slice of terms, one output row each; a row
    # has the breakpoints of its own terms
    rows = tuple(RealFunction(fn=lambda x, i=i: ev(x, slice(i, i + 1))[0],
                              breakpoints=breakpoints(t), frequency=f.frequency)
                 for i, t in enumerate(terms))
    if len(terms) == 1:
        return rows[0]
    return RealFunction(fn=lambda x: ev(x, slice(None)), breakpoints=breakpoints(keys),
                        frequency=f.frequency, rows=rows)


def iterated_steklov(f: RealFunction, delta: float, k: int) -> RealFunction:
    """k-th iterate of the forward average, one kernel quadrature per point."""
    if k < 0:
        raise ValueError("power must be >= 0")
    if k == 0 or delta == 0.0:
        return f
    return steklov_combination(f, delta, {(k, 0): 1.0})


def difference_terms(r: int, step: tuple[int, int]) -> dict[tuple[int, int], float]:
    """Terms of (I - S)^r f by the binomial theorem, S f = T_d^a f(. + b*d)
    for step (a, b)."""
    a, b = step
    return {(j * a, j * b): float((-1) ** j) * math.comb(r, j) for j in range(r + 1)}


def derivative_terms(delta: float, m: int, r: int) -> dict[tuple[int, int], float]:
    """Terms of d^r/dx^r T_d^m f as forward differences of T_d^(m-r) f.

    Uses (d/dx) T_d g = (g(.+d) - g(.)) / d applied r times, so f itself is
    never differentiated: (-1/d)^r (I - E)^r T_d^(m-r) f, E g = g(. + d).
    Requires 1 <= r <= m.
    """
    if not 1 <= r <= m:
        raise ValueError("need 1 <= r <= m")
    scale = (-1) ** r * delta ** (-r)
    return {(m - r, j): scale * c for (_, j), c in difference_terms(r, (0, 1)).items()}


# ---------------------------------------------------------------------------
# Sup norm on a window
# ---------------------------------------------------------------------------

_FINE = np.linspace(-1.0, 1.0, 65)  # where each candidate's interpolant is resampled
_FINE_VANDER = np.polynomial.legendre.legvander(_FINE, 11).T
_DEGREES = np.arange(12)
_HIGHER = (_DEGREES > 0).astype(float)  # sums |c_n| over n >= 1
_POWERS = np.array([np.pad(c, (0, 12 - c.size))  # row n: P_n's power coefficients
                    for c in map(np.polynomial.legendre.leg2poly, np.eye(12))])
_TAYLOR = np.hstack([np.pad(np.polynomial.polynomial.polyder(_POWERS, m, axis=1),
                            ((0, 0), (0, m))) for m in range(3)])  # to p, p', p'' in powers
_NEWTON = 2  # Newton steps on each candidate's interpolant
_SPLIT = 8  # equal pieces of a candidate panel whose interpolant is unresolved
_CUTS = 2  # rounds of such cuts, one f call each
_BLOCK = 1536  # panels per matrix product: 1536 * 12 * 12 < 2^18 keeps BLAS on one thread
_EPS = float(np.finfo(float).eps)


def sup_norm(f: RealFunction, norm: NormSpec, confirm: bool = True, signed: bool = False):
    """max |f| on the norm's window (module docstring), or (max f, max -f)
    when signed; for a stacked f, the tuple of its outputs' maxima from one
    sample pass: one f call samples every output's panels where they share
    their breakpoints, and every later call serves one output, so each
    output's maximum has the bits it has alone.  The panels of all outputs
    are kept as one list of (output, lo, hi, samples)."""
    if signed and f.rows:
        raise ValueError(f"signed maxima need a single-output f, not a stack of {len(f.rows)}")
    outs = f.rows or (f,)
    density = max(norm.panels_per_unit, f.frequency / MAX_PHASE)
    rules = [window_nodes(norm.window, density, g.breakpoints)[::3] for g in outs]  # nodes, edges
    if len({g.breakpoints for g in outs}) == 1:
        s = _finite_samples(f, rules[0][0]).reshape(-1, 12)
    else:
        s = np.concatenate([_finite_samples(g, x).reshape(-1, 12)
                            for g, (x, _) in zip(outs, rules)])
    if signed:  # the outputs f and -f
        outs, rules, s = (f, lambda t: -f(t)), rules * 2, np.vstack([s, -s])
    row = np.repeat(np.arange(len(outs)), [e.size - 1 for _, e in rules])
    lo, hi = (np.concatenate([e[:-1] for _, e in rules]),
              np.concatenate([e[1:] for _, e in rules]))
    start = 12 * np.searchsorted(row, np.arange(len(outs)))  # each output's first sample
    scale = np.maximum.reduceat(np.abs(s).ravel(), start)  # each output's largest |sample|
    best = np.maximum.reduceat(s.ravel(), start) if signed else scale.copy()
    for cuts in range(_CUTS + 1):
        row, lo, hi, s, coef, bad = map(np.concatenate, zip(*(
            _candidates(*(a[i:i + _BLOCK] for a in (row, lo, hi, s)), best, scale,
                        f.frequency, signed) for i in range(0, len(s), _BLOCK))))
        if cuts == _CUTS or not bad.any():
            break
        # a feature narrower than its panel: the _SPLIT equal pieces of each
        # named panel, at most _SPLIT per output (the largest tails first)
        named = np.flatnonzero(bad)
        named = named[np.lexsort((-np.abs(coef[named, 10:]).max(axis=1), row[named]))]
        rank = np.arange(named.size) - np.searchsorted(row[named], row[named])
        cut = np.zeros_like(bad)
        cut[named[rank < _SPLIT]] = True
        ends = np.linspace(lo[cut], hi[cut], _SPLIT + 1)
        new = np.repeat(row[cut], _SPLIT), ends[:-1].T.ravel(), ends[1:].T.ravel()
        pieces = _output_samples(outs, new[0], panel_rule(np.stack(new[1:], axis=1), 12)[0])
        np.maximum.at(best, new[0], pieces.max(axis=1) if signed else np.abs(pieces).max(axis=1))
        row, lo, hi = (np.append(a[~cut], b) for a, b in zip((row, lo, hi), new))
        s = np.vstack([s[~cut], pieces])
    t, top = _interpolant_maxima(coef, signed)
    if confirm:  # one call per output; a panel's end is taken an ulp inside it
        top = _output_samples(outs, row, np.clip(lo + 0.5 * (t + 1.0) * (hi - lo),
                                                 np.nextafter(lo, hi), np.nextafter(hi, lo)))
    else:  # where the tail test still names a panel, its samples stand alone
        top[bad] = np.nan
    np.maximum.at(best, row, np.fmax(top if signed else np.abs(top), -np.inf))
    tops = best.tolist()  # Python floats: rows built from them hold bools
    return tops[0] if len(tops) == 1 else tuple(tops)


def _candidates(row, lo, hi, s, best, scale, omega: float, signed: bool):
    """The (row, lo, hi, s) of the panels that may hold an output's maximum,
    with their Legendre coefficients and whether the tail test names them:
    each panel whose sum |c_n| (|P_n| <= 1) reaches its output's best sample
    (the best sample's panel among them), or whose interpolant the tail test
    names, as that bounds nothing."""
    coef = s @ LEGENDRE
    bound = np.abs(coef) @ _HIGHER + (coef[:, 0] if signed else np.abs(coef[:, 0]))
    bad = unresolved(coef[:, 10:], bound, scale[row], hi - lo, omega)
    at = best[row]
    keep = (bound >= at - 256.0 * _EPS * np.abs(at)) | bad
    return row[keep], lo[keep], hi[keep], s[keep], coef[keep], bad[keep]


def _output_samples(outs, row: np.ndarray, x: np.ndarray) -> np.ndarray:
    """outs[row[i]] at x[i], by one f call per output."""
    if len(outs) == 1:
        return _finite_samples(outs[0], x.ravel()).reshape(x.shape)
    out = np.empty_like(x)
    for i in np.unique(row):
        at = row == i
        out[at] = _finite_samples(outs[i], x[at].ravel()).reshape(x[at].shape)
    return out


def _interpolant_maxima(coef: np.ndarray, signed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Where on [-1, 1] each row's Legendre series p is largest (|p| unless
    signed), and p there: the best of _FINE, polished by _NEWTON Newton steps
    on p' (in the power basis, clipped to [-1, 1]), kept where they raise the
    value; so an end stays where the series rises to it."""
    vals = coef @ _FINE_VANDER
    k = np.argmax(vals if signed else np.abs(vals), axis=1)
    start, top = _FINE[k], vals[np.arange(len(k)), k]
    taylor = (coef @ _TAYLOR).reshape(-1, 3, 12)  # p, p' and p'' in powers of t
    t = start
    with np.errstate(divide="ignore", invalid="ignore"):  # p'' = 0: a nan step, not kept
        for _ in range(_NEWTON):
            p = np.einsum("nmk,nk->nm", taylor[:, 1:], t[:, None] ** _DEGREES)
            t = np.minimum(np.maximum(t - p[:, 0] / p[:, 1], -1.0), 1.0)
    end = np.einsum("nk,nk->n", taylor[:, 0], t[:, None] ** _DEGREES)
    better = end > top if signed else np.abs(end) > np.abs(top)
    return np.where(better, t, start), np.where(better, end, top)
