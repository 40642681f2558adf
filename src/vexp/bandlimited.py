"""Bandlimited near-best approximation via the de la Vallee Poussin operator.

The kernel is theta(x) = (2/pi) sin(x/2) sin(3x/2) / x^2 (value 3/(2 pi) at
the removable singularity), and the operator J(f, sigma) convolves f with
sigma * theta(sigma u).  J(f, sigma) has exponential type 2*sigma and
reproduces every type-sigma function, so

    A_hat_sigma(f) = || f - J(f, sigma/2) ||

is a computable upper bound for the distance from f to the type-sigma class.

The kernel decays only like 1/x^2, so truncating the convolution is the
dominant error source.  The u-window is chosen per decay class of f, the
quadrature panels are aligned with the sine zeros (width 2*pi/(3*sigma)),
and the resulting tail bound is recorded next to every value rather than
silently absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .fnexpr import Decay
from .functions import RealFunction, as_real_function, combine, outer_apply
from .norms import NormSpec, default_window, norm_of
from .quad import DEFAULT_SPEC, QuadSpec, panel_rule

__all__ = ["vp_kernel", "vp_operator", "best_approx_surrogate",
           "BestApproxEstimate", "kernel_tail_bound"]

_MAX_PANELS = 60_000


@dataclass(frozen=True)
class BestApproxEstimate:
    value: float
    tail_bound: float = 0.0


def vp_kernel(x):
    """theta(x) = (2/pi) sin(x/2) sin(3x/2) / x^2, continuous at 0."""
    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=float)
    xa = np.atleast_1d(x)
    small = np.abs(xa) < 1e-4
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (2.0 / math.pi) * np.sin(xa / 2.0) * np.sin(3.0 * xa / 2.0) / (xa * xa)
    if small.any():
        # sin(x/2) sin(3x/2) = (3/4) x^2 (1 - (5/12) x^2) + O(x^6)
        xs = xa[small]
        out[small] = (3.0 / (2.0 * math.pi)) * (1.0 - (5.0 / 12.0) * xs * xs)
    out = out.reshape(x.shape)
    return float(out) if scalar else out


def kernel_tail_bound(sigma: float, u_cut: float, f_sup_beyond: float) -> float:
    """Bound for |sigma * int_{|u|>U} f(x-u) theta(sigma u) du|.

    Uses |theta(y)| <= (2/pi)/y^2, giving (4/pi) / (sigma * U) times a sup
    bound for |f| on the region the tail reaches.
    """
    return (4.0 / math.pi) / (sigma * u_cut) * f_sup_beyond


def _f_envelope_beyond(f: RealFunction, radius: float) -> float:
    d = f.decay
    if d.kind == "gaussian":
        return math.exp(-min(radius * radius, 700.0))
    if d.kind == "power" and d.alpha > 0:
        return radius ** (-d.alpha)
    return 1.0


def _u_window(f: RealFunction, sigma: float, x_span: float,
              target: float) -> float:
    """Smallest window with kernel_tail_bound(...) <= target, by decay class."""
    if f.decay.kind == "gaussian":
        return x_span + 14.0
    lo = x_span + 8.0
    for _ in range(80):
        env = _f_envelope_beyond(f, max(lo - x_span, 1.0))
        if kernel_tail_bound(sigma, lo, env) <= target or lo > 1e7:
            return lo
        lo *= 1.5
    return lo


def _zero_aligned_panels(sigma: float, lo: float, hi: float,
                         extra: tuple[float, ...] = (),
                         max_width: float = math.inf) -> np.ndarray:
    """Panel edges at multiples of 2*pi/(3*sigma) covering [lo, hi].

    Every zero of both sine factors lands on a panel edge.  Panels are
    subdivided when the integrand varies faster than the kernel (max_width).
    More than _MAX_PANELS panels raise: wider panels would miss the zeros.
    """
    w = 2.0 * math.pi / (3.0 * sigma)
    if math.isfinite(max_width) and w > max_width:
        w = w / math.ceil(w / max_width)  # integer subdivision keeps alignment
    n_lo = math.floor(lo / w)
    n_hi = math.ceil(hi / w)
    if n_hi - n_lo > _MAX_PANELS:
        raise ValueError(f"the convolution needs {n_hi - n_lo} panels on the u-window "
                         f"[{lo:.6g}, {hi:.6g}], more than the cap of {_MAX_PANELS}")
    edges = w * np.arange(n_lo, n_hi + 1)
    inner = [b for b in extra if edges[0] < b < edges[-1]]
    if inner:
        edges = np.unique(np.concatenate([edges, np.asarray(inner, dtype=float)]))
    return edges


def vp_operator(f, sigma: float, x_span: Optional[float] = None,
                tail_target: float = 1e-8) -> RealFunction:
    """J(f, sigma)(x) = sigma * int f(x - u) theta(sigma u) du, truncated.

    For compactly supported f the convolution is written over the support,
    which makes the truncation exact.  Otherwise the u-window comes from the
    decay class and the recorded tail bound; evaluation stays accurate for
    |x| up to x_span (default: the window suggested by f's decay).
    """
    f = as_real_function(f)
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if f.expr is not None and f.expr.constant is not None:
        return f  # J reproduces constants exactly: the kernel has unit mass
    if x_span is None:
        x_span = default_window(f)

    if f.decay.kind == "compact_support":
        a, b = f.decay.a, f.decay.b
        edges = _zero_aligned_panels(sigma, a, b, extra=f.breakpoints)
        nodes, wts = panel_rule(edges, 12)
        fvals = f(nodes) * wts
        kernel = RealFunction(fn=lambda t: vp_kernel(sigma * t), name="theta")

        def ev(x):
            return sigma * outer_apply(kernel, x, -nodes, fvals)

        return RealFunction(fn=ev, name=f"J({f.name},{sigma:g})",
                            decay=Decay.power(2.0), osc_wavelength=2.0 * math.pi / (3.0 * sigma))

    u_cut = _u_window(f, sigma, x_span, tail_target)
    # panels must also resolve f's own variation (oscillation scale, or ~1
    # for smooth non-oscillatory decay)
    cap = f.osc_wavelength / 2.0 if math.isfinite(f.osc_wavelength) else 1.0
    edges = _zero_aligned_panels(sigma, -u_cut, u_cut, max_width=cap)
    nodes, wts = panel_rule(edges, 10)
    kern = sigma * vp_kernel(sigma * nodes) * wts
    tail = kernel_tail_bound(sigma, u_cut, _f_envelope_beyond(f, max(u_cut - x_span, 1.0)))

    def ev(x):
        return outer_apply(f, x, -nodes, kern)

    return RealFunction(fn=ev, name=f"J({f.name},{sigma:g})", decay=f.decay,
                        osc_wavelength=min(f.osc_wavelength, 2.0 * math.pi / (3.0 * sigma)),
                        tail_bound=tail)


def best_approx_surrogate(f, sigma: float, norm: NormSpec,
                          spec: QuadSpec = DEFAULT_SPEC,
                          tail_target: float = 1e-8) -> BestApproxEstimate:
    """A_hat_sigma(f) = ||f - J(f, sigma/2)||, an upper bound for A_sigma(f).

    J(f, sigma/2) has exponential type sigma, so the distance to it can only
    exceed the true deviation from the type-sigma class.
    """
    f = as_real_function(f)
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    win = norm.window
    if win is None:
        win = default_window(f)
    j = vp_operator(f, sigma / 2.0, x_span=win, tail_target=tail_target)

    d = combine([(1.0, f), (-1.0, j)], name=f"{f.name}-J")
    value = norm_of(d, replace(norm, window=win), spec)
    return BestApproxEstimate(value=value, tail_bound=j.tail_bound)
