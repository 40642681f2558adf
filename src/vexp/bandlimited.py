"""Bandlimited near-best approximation via the de la Vallee Poussin operator.

The kernel is theta(x) = (2/pi) sin(x/2) sin(3x/2) / x^2 (value 3/(2 pi) at
the removable singularity), and the operator J(f, sigma) convolves f with
sigma * theta(sigma u).  J(f, sigma) has exponential type 2*sigma and
reproduces every type-sigma function, so

    A_hat_sigma(f) = || f - J(f, sigma/2) ||

is a computable upper bound for the distance from f to the type-sigma class,
with J sampled on the norm's window: every convolution is given its window.

For compactly supported f the convolution runs over the support on
Gauss-Legendre panels aligned with the sine zeros (width 2*pi/(3*sigma)).
For decaying f it is a trapezoid sum: f and the kernel are sampled once on
one uniform lattice, the kernel is cut at a double zero of theta, the two
are convolved by one zero-padded FFT, and J is read off the lattice with a
local barycentric Lagrange stencil.  The trapezoid rule converges
exponentially for analytic, decaying integrands (Trefethen & Weideman, SIAM
Review 56, 2014).  The kernel decays only like 1/x^2, so the cut is the
dominant error source; its bound is recorded next to every value rather
than silently absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fnexpr import Decay
from .functions import RealFunction, combine, outer_apply
from .norms import NormSpec, norm_of
from .quad import DEFAULT_SPEC, QuadSpec, panel_rule
from .steklov import _finite_samples

__all__ = ["vp_kernel", "vp_operator", "best_approx_surrogate",
           "BestApproxEstimate", "kernel_tail_bound"]

_MAX_PANELS = 60_000
_STENCIL = 20  # lattice points per interpolation stencil
_BLOCK = 2048  # evaluation points per stencil block
_OFFSETS = np.arange(_STENCIL)
# barycentric weights of equispaced nodes: (-1)^j binom(n - 1, j)
_BARY = np.array([(-1.0) ** j * math.comb(_STENCIL - 1, j) for j in range(_STENCIL)])


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


def _f_envelope_beyond(d: Decay, radius: float) -> float:
    if d.kind == "gaussian":
        return math.exp(-min(radius * radius, 700.0))
    if d.kind == "power" and d.alpha > 0:
        return radius ** (-d.alpha)
    return 1.0


def _u_window(decay: Decay, sigma: float, x_span: float,
              target: float) -> float:
    """Smallest window with kernel_tail_bound(...) <= target, by decay class."""
    if decay.kind == "gaussian":
        return x_span + 14.0
    lo = x_span + 8.0
    for _ in range(80):
        env = _f_envelope_beyond(decay, max(lo - x_span, 1.0))
        if kernel_tail_bound(sigma, lo, env) <= target or lo > 1e7:
            return lo
        lo *= 1.5
    return lo


def _panel_span(w: float, lo: float, hi: float) -> tuple[int, int]:
    """Indices of the first and last multiple of w covering [lo, hi].

    More than _MAX_PANELS panels raise: wider panels would miss the zeros.
    """
    n_lo = math.floor(lo / w)
    n_hi = math.ceil(hi / w)
    if n_hi - n_lo > _MAX_PANELS:
        raise ValueError(f"the convolution needs {n_hi - n_lo} panels on the u-window "
                         f"[{lo:.6g}, {hi:.6g}], more than the cap of {_MAX_PANELS}")
    return n_lo, n_hi


def _zero_aligned_panels(sigma: float, lo: float, hi: float,
                         extra: tuple[float, ...] = ()) -> np.ndarray:
    """Panel edges at multiples of 2*pi/(3*sigma) covering [lo, hi], split at
    extra: every zero of both sine factors lands on a panel edge."""
    w = 2.0 * math.pi / (3.0 * sigma)
    n_lo, n_hi = _panel_span(w, lo, hi)
    edges = w * np.arange(n_lo, n_hi + 1)
    inner = [b for b in extra if edges[0] < b < edges[-1]]
    if inner:
        edges = np.unique(np.concatenate([edges, np.asarray(inner, dtype=float)]))
    return edges


def _stencil_values(values: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The barycentric Lagrange interpolant of values[i] at the lattice
    coordinates s, each from the _STENCIL samples around it."""
    idx = (np.floor(s).astype(np.intp) - (_STENCIL // 2 - 1))[:, None] + _OFFSETS
    d = s[:, None] - idx
    v = values[idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = _BARY / d
        out = np.einsum("ij,ij->i", lam, v) / lam.sum(axis=1)
    hit = d == 0.0
    out[hit.any(axis=1)] = v[hit]
    return out


def _lattice_convolution(f: RealFunction, sigma: float, h: float, n_u: int,
                         x_span: float):
    """x -> J(x) for |x| up to x_span plus the stencil, from the trapezoid
    sum h * sum_k f(x - k h) sigma theta(sigma k h) over |k| <= n_u."""
    n_x = math.ceil(x_span / h) + _STENCIL
    n_f = n_x + n_u
    samples = _finite_samples(f, h * np.arange(-n_f, n_f + 1))
    kern = (h * sigma) * vp_kernel((sigma * h) * np.arange(-n_u, n_u + 1))
    # a circular convolution of at least the samples' length wraps only into
    # the first 2 n_u entries, which are dropped
    size = 1 << (samples.size - 1).bit_length()
    conv = np.fft.irfft(np.fft.rfft(samples, size) * np.fft.rfft(kern, size), size)
    values = conv[2 * n_u:2 * n_f + 1].copy()  # J at j h, |j| <= n_x
    reach = (n_x - _STENCIL // 2) * h

    def ev(x):
        flat = x.ravel()
        if flat.size and not np.max(np.abs(flat)) <= reach:
            raise ValueError(f"J is sampled for |x| <= {reach:.6g}, "
                             f"asked at {flat[np.argmax(np.abs(flat))]:.6g}")
        out = np.empty(flat.size)
        for b in range(0, flat.size, _BLOCK):
            out[b:b + _BLOCK] = _stencil_values(values, flat[b:b + _BLOCK] / h + n_x)
        return out.reshape(x.shape)

    return ev


def vp_operator(f: RealFunction, sigma: float, x_span: float,
                tail_target: float = 1e-8) -> RealFunction:
    """J(f, sigma)(x) = sigma * int f(x - u) theta(sigma u) du, truncated.

    For compactly supported f the convolution is written over the support,
    which makes the truncation exact.  Otherwise the u-window comes from the
    decay class and the recorded tail bound, f must be free of breakpoints,
    and J can be evaluated for |x| up to the given x_span plus the stencil;
    further out it raises.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    if f.expr is None:
        raise ValueError("the convolution's window needs f's expression")
    if f.expr.constant is not None:
        return f  # J reproduces constants exactly: the kernel has unit mass

    decay = f.expr.decay_class
    if decay.kind == "compact_support":
        edges = _zero_aligned_panels(sigma, decay.a, decay.b, extra=f.breakpoints)
        nodes, wts = panel_rule(edges, 12)
        fvals = _finite_samples(f, nodes) * wts
        kernel = RealFunction(fn=lambda t: vp_kernel(sigma * t))

        def ev(x):
            return sigma * outer_apply(kernel, x, -nodes, fvals)

        return RealFunction(fn=ev, osc_wavelength=2.0 * math.pi / (3.0 * sigma))

    u_cut = _u_window(decay, sigma, x_span, tail_target)
    # the lattice must also resolve f's own variation (oscillation scale, or
    # ~1 for smooth non-oscillatory decay); an integer subdivision of the
    # zero-aligned panel keeps the sine zeros on the lattice
    cap = f.osc_wavelength / 2.0 if math.isfinite(f.osc_wavelength) else 1.0
    w = 2.0 * math.pi / (3.0 * sigma)
    sub = math.ceil(w / cap) if w > cap else 1
    _panel_span(w / sub, -u_cut, u_cut)  # the panel cap, before any allocation
    if f.breakpoints:
        raise ValueError(f"{f.expr.src} has breakpoints {list(f.breakpoints)} but no "
                         "compact support: the lattice convolution needs a smooth f")
    # cut the kernel at the first multiple of 2*pi/sigma, a double zero of
    # theta, at or beyond u_cut: 24 * sub lattice steps per multiple
    n_u = 24 * sub * math.ceil(u_cut * sigma / (2.0 * math.pi))
    h = w / sub / 8.0
    tail = kernel_tail_bound(sigma, n_u * h,
                             _f_envelope_beyond(decay, max(n_u * h - x_span, 1.0)))
    return RealFunction(fn=_lattice_convolution(f, sigma, h, n_u, x_span),
                        osc_wavelength=min(f.osc_wavelength, 2.0 * math.pi / (3.0 * sigma)),
                        tail_bound=tail)


def best_approx_surrogate(f: RealFunction, sigma: float, norm: NormSpec,
                          spec: QuadSpec = DEFAULT_SPEC,
                          tail_target: float = 1e-8) -> BestApproxEstimate:
    """A_hat_sigma(f) = ||f - J(f, sigma/2)||, an upper bound for A_sigma(f).

    J(f, sigma/2) has exponential type sigma, so the distance to it can only
    exceed the true deviation from the type-sigma class.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    j = vp_operator(f, sigma / 2.0, x_span=norm.window, tail_target=tail_target)

    d = combine([(1.0, f), (-1.0, j)])
    value = norm_of(d, norm, spec)
    return BestApproxEstimate(value=value, tail_bound=j.tail_bound)
