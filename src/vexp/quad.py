"""Quadrature and bracketed root finding.

Every integral over the real line in this package is reduced to a finite
window [a, b]; call sites pick the window from the integrand's decay and
account for the discarded tail separately.  Integrals are fixed composite
Gauss-Legendre rules on panels the call site chooses (`panel_rule`), cut by
the one rule `phase_panels` where f oscillates; the Luxemburg and sup norms
share the window rule `window_nodes` and the Legendre tail test `unresolved`.
Roots of decreasing convex functions, such as the log of the Luxemburg norm's
modular in log scale, are found by Newton steps kept in a closed bracket, with
bisection as the fallback (`find_root_decreasing`).
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class QuadSpec:
    """The relative tolerance a Luxemburg norm reports (bracket_used.tol)."""

    rel_tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.rel_tol < 1.0:
            raise ValueError("rel_tol must lie in (0, 1)")


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float
    tol: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("bracket needs lo < hi")
        if self.tol <= 0.0:
            raise ValueError("bracket tol must be positive")


DEFAULT_SPEC = QuadSpec()
MAX_PHASE = 6.0  # radians of oscillation a 12-point panel takes at machine accuracy
_FLOOR_STEPS = 8.0  # a Newton step of up to this many tol may be rounding noise
_TAIL = 1e-7  # a wide panel's resolved Legendre tail, relative to max |f|
_WAVE_TAIL = 7.5e-5  # 21 j_10(3): the degree-10 Legendre coefficient of exp(3it)
_GRADE = 0.25  # a graded window panel at |x| is up to this fraction of |x| wide
_WINDOW_PANELS = 1 << 15  # uniform panels per window: 393,216 nodes


@functools.cache
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1], cached per order."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


# a panel's 12 samples, as a row, times LEGENDRE: the Legendre coefficients of
# their interpolant on the panel mapped to [-1, 1] (the rule is exact to degree 23)
LEGENDRE = (np.polynomial.legendre.legvander(2.0 * gauss_rule(12)[0] - 1.0, 11)
            * np.outer(gauss_rule(12)[1], 2.0 * np.arange(12) + 1.0))


def split_at(grid: np.ndarray, points) -> np.ndarray:
    """The sorted grid with every one of points strictly inside its ends
    added, each value once."""
    inner = [b for b in points if grid[0] < b < grid[-1]]
    return np.unique(np.concatenate([grid, inner])) if inner else grid


def phase_panels(width: float, frequency: float) -> int:
    """The equal pieces a panel of width needs for at most MAX_PHASE radians of frequency each."""
    return max(1, math.ceil(width * frequency / MAX_PHASE))


def unresolved(tail: np.ndarray, peak: np.ndarray, top, widths: np.ndarray,
               omega: float) -> np.ndarray:
    """Which panels of widths show a feature they were not cut for, such as a
    bump far from 0: their Legendre coefficients of degrees 10 and 11 (tail,
    (panels, 2)) exceed _TAIL of top, the largest |f| of their function
    (peak is each panel's).  Where f has frequency omega, a panel may add the
    tail of its own oscillation, a (phase / MAX_PHASE)^10 share of _WAVE_TAIL
    of its peak."""
    bar = _TAIL * top
    if omega:
        bar = bar + _WAVE_TAIL * np.minimum(omega / MAX_PHASE * widths, 1.0) ** 10 * peak
    return np.maximum(np.abs(tail[..., 0]), np.abs(tail[..., 1])) > bar


def frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only (a cached rule's), as a tuple."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


_KEPT_BYTES = 1 << 22  # 4 MiB: the rules and grids 12 members reuse in 4 norms, 3.7 MiB
_ENTRY_BYTES = 1024  # charged per key and per value for their Python objects


class Memo:
    """Read-only values, each a pure function of its key: what the builders
    wrapped by `rule` return, by their arguments, and arrays that depend on a
    grid alone (sines of a norm's nodes, p at them), by a name and the grid's
    dtype, shape and bytes, held once per grid.  The least recently used go
    first, so that the charge (bytes, _ENTRY_BYTES a key and a value) stays
    within _KEPT_BYTES; a value that would take its key's charge past it goes unkept."""

    def __init__(self):
        self.entries: dict = {}  # key -> [charge, {name: value}], least recently used first
        self.held, self._lock = 0, threading.Lock()

    def __call__(self, name, x: np.ndarray, build: Callable[[np.ndarray], np.ndarray]):
        """build(x), read-only, kept under name and x's dtype, shape and bytes."""
        grid = (x.dtype.str, x.shape, x.tobytes())
        return self._get(grid, len(grid[2]), name, build, x)

    def rule(self, build: Callable):
        """build, its arrays or tuples of arrays kept by its (hashable) arguments."""
        return functools.wraps(build)(
            lambda *args: self._get((build, args), 0, None, build, *args))

    def _get(self, key, size: int, name, build: Callable, *args):
        with self._lock:
            if (entry := self.entries.pop(key, None)) is not None:
                self.entries[key] = entry  # now the most recently used
                if name in entry[1]:
                    return entry[1][name]
        value = build(*args)
        arrays = frozen(*value) if isinstance(value, tuple) else frozen(value)
        charge = _ENTRY_BYTES + sum(a.nbytes for a in arrays)
        with self._lock:
            entry = self.entries.pop(key, None) or [_ENTRY_BYTES + size, {}]
            if name not in entry[1] and entry[0] + charge <= _KEPT_BYTES:
                self.held += charge + (0 if entry[1] else entry[0])
                entry[0] += charge
                entry[1][name] = value
            if entry[1]:
                self.entries[key] = entry
            while self.held > _KEPT_BYTES:
                self.held -= self.entries.pop(next(iter(self.entries)))[0]
        return value


kept = Memo()  # the one bounded cache: operator rules and grid invariants


def panel_rule(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights for the panel edges along the
    last axis (one rule per row of stacked edges)."""
    edges = np.asarray(edges, dtype=float)
    x0, w0 = gauss_rule(n)
    width = np.diff(edges)[..., None]
    shape = (*edges.shape[:-1], -1)
    return (edges[..., :-1, None] + width * x0).reshape(shape), (width * w0).reshape(shape)


def window_nodes(window: float, panels_per_unit: float, breakpoints: tuple[float, ...],
                 widest: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on panels of [-window, window] split at
    breakpoints, per edge its index among the uniform edges split alike
    (panel k holds the uniform panels first[k] to first[k + 1] - 1), and the
    edges.  The uniform panels, 16 to _WINDOW_PANELS (more raise ValueError),
    are 1/panels_per_unit wide or a little less; from the middle edge out, a
    panel at |x| spans as many as fit in max(1/panels_per_unit, _GRADE |x|)
    and in widest, at least one.  Read-only, kept in `kept` by all four arguments."""
    return _window_rule(window, panels_per_unit, breakpoints, widest)


@kept.rule
def _window_rule(window: float, panels_per_unit: float, breakpoints: tuple[float, ...],
                 widest: float):
    n = max(16, math.ceil(2.0 * window * panels_per_unit))
    if n > _WINDOW_PANELS:
        raise ValueError(f"the window [-{window:g}, {window:g}] needs {n} panels at "
                         f"{panels_per_unit:.6g} per unit, above {_WINDOW_PANELS}")
    u = np.linspace(-window, window, n + 1)
    uniform, h = split_at(u, breakpoints), u[1] - u[0]
    if widest / h < 2.0:  # every span is one uniform panel
        edges, first = uniform, np.arange(uniform.size)
    else:
        idx = [n // 2]
        for sign in (1, -1):
            i = n // 2
            while 0 < i < n:
                span = int(min(widest / h, max(1.0 / panels_per_unit, _GRADE * abs(u[i])) / h))
                i = min(n, max(0, i + sign * (span or 1)))
                idx.append(i)
        edges = split_at(u[np.unique(idx)], breakpoints)
        first = np.searchsorted(uniform, edges)
    return (*panel_rule(edges, 12), first, edges)


def find_root_decreasing(phi: Callable[[float], tuple], bracket: Bracket,
                         start: float, at_start: tuple) -> tuple[float, tuple]:
    """The root in the bracket of a decreasing convex function, and phi there,
    by Newton steps from start.  phi(x) leads with the value and the slope at
    x (the caller may append more), and at_start is phi(start).

    The ends are not evaluated: each evaluated point moves the end on its side
    of the root, and a step that leaves the bracket bisects it instead.  On a
    convex phi the first tangent lands at or left of the root, and the steps
    rise to it from there.  It takes the first Newton step whatever its size
    (so an affine phi ends on its root from any start), then stops when the
    Newton step or the bracket is within bracket.tol, or at phi's rounding
    floor: when a step of at most _FLOOR_STEPS tol fails to shrink |phi| or
    flips its sign, it returns the better of the two points (the new one on a
    tie).  A bracket that closes
    on one of its own ends holds no sign change, and raises ValueError.
    """
    lo, hi = bracket.lo, bracket.hi
    x, at, first = start, at_start, True
    while at[0] != 0.0 and (first or abs(at[0]) > bracket.tol * -at[1]):
        first = False
        lo, hi = (max(lo, x), hi) if at[0] > 0.0 else (lo, min(hi, x))
        if hi - lo <= bracket.tol:
            if bracket.lo < lo and hi < bracket.hi:
                return x, at
            raise ValueError(f"no sign change in [{bracket.lo:.6g}, {bracket.hi:.6g}]")
        step = x - at[0] / at[1] if at[1] < 0.0 else math.nan
        x_new = step if lo < step < hi else 0.5 * (lo + hi)
        at_new = phi(x_new)
        # the rounding floor: a step of a few tol that does not shrink |phi|,
        # or that crosses the root
        if abs(at[0]) <= _FLOOR_STEPS * bracket.tol * -at[1] and (
                abs(at_new[0]) >= abs(at[0]) or (at_new[0] > 0.0) != (at[0] > 0.0)):
            return (x, at) if abs(at[0]) < abs(at_new[0]) else (x_new, at_new)
        x, at = x_new, at_new
    return x, at
