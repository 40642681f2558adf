"""Bandlimited near-best approximation via the de la Vallee Poussin operator.

The kernel is theta(x) = (2/pi) sin(x/2) sin(3x/2) / x^2 (value 3/(2 pi) at
the removable singularity), and the operator J(f, sigma) convolves f with
sigma * theta(sigma u).  J(f, sigma) has exponential type 2*sigma and
reproduces every type-sigma function, so

    A_hat_sigma(f) = || f - J(f, sigma/2) ||

is a computable upper bound for the distance from f to the type-sigma class,
with J sampled on the norm's window: every convolution is given its window.

For compactly supported f the convolution runs over the support on
Gauss-Legendre panels aligned with the sine zeros: 2*pi/(3*sigma) wide, cut
by `quad.phase_panels` for the kernel's frequency 2*sigma plus f's.  There
theta(u) = (cos u - cos 2u) / (pi u^2) at u = sigma (x - y), both cosines
by the addition theorem from residual-corrected sines and cosines of sigma x
and 2 sigma x (per call) and of sigma y and 2 sigma y (per J): one rank-4
matrix product and one division per pair, where the product of sines takes
two sines.  Where |u| < 1 the difference cancels (an ulp of cos u is
1e-16 / u^2 of theta), so there vp_kernel's product of sines serves.

For decaying f it is a trapezoid sum: f and the kernel are sampled once on
one uniform lattice, the kernel is cut at a double zero of theta, the two
are convolved by one zero-padded FFT, and J is read off the lattice with a
local barycentric Lagrange stencil.  Its samples come from a sliding window
over the lattice and its distances from the exact fraction s - floor(s):
the doubles an index array would give, bit for bit.  The kernel's spectrum
depends on sigma, the step, the cut and the FFT size alone, so `quad.kept`
holds it.  The trapezoid rule converges exponentially for analytic,
decaying integrands (Trefethen & Weideman, SIAM Review 56, 2014).
The kernel decays only like 1/x^2, so the cut is the dominant error source;
its bound is recorded next to every value rather than silently absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fnexpr import Decay, _brief, _sin_cos
from .functions import RealFunction, _finite_samples, combine, outer_apply
from .norms import NormSpec, norm_of
from .quad import DEFAULT_SPEC, QuadSpec, kept, panel_rule, phase_panels, split_at

__all__ = ["vp_kernel", "vp_operator", "best_approx_surrogate",
           "BestApproxEstimate", "kernel_tail_bound"]

DEFAULT_TAIL_TARGET = 1e-8  # the convolution tail target of A_hat
_MAX_PANELS = 60_000
_MAX_LATTICE = 1 << 21  # samples of f a lattice convolution takes; the bundled ones, 25,787
_STENCIL = 20  # lattice points per interpolation stencil
_BLOCK = 1024  # points per stencil block: 160 kB arrays page-fault less than 320 kB ones
_SHIFTS = (_STENCIL // 2 - 1) - np.arange(_STENCIL, dtype=float)
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


class _ShiftedKernel:
    """t -> theta(sigma t), with the outer form (as `FuncExpr.outer`) of the
    module docstring: rank 4 by the addition theorem, vp_kernel where
    |u| < 1, and the factors of x and of the offsets t kept per grid."""

    def __init__(self, sigma: float, t: np.ndarray):
        self.sigma, self.t = sigma, t

    def _factors(self, x):
        """Rows cos, sin of sigma x and of 2 sigma x, residual-corrected; kept per grid."""
        return kept(("vp", self.sigma), x, lambda x: np.stack(
            [*_sin_cos(self.sigma, 0.0, x)[::-1], *_sin_cos(2.0 * self.sigma, 0.0, x)[::-1]]))

    def __call__(self, t):
        return vp_kernel(self.sigma * t)

    def outer(self, x: np.ndarray, t: np.ndarray):
        # cos u - cos 2u = c1 c1' - s1 s1' - c2 c2' + s2 s2'
        left = self._factors(x).T * np.array([1.0, -1.0, -1.0, 1.0])
        right = self._factors(t)

        def ev(rows):
            u = x[rows, None] + t
            u *= self.sigma
            out = left[rows] @ right
            q = u * u
            small = q < 1.0
            q *= math.pi
            with np.errstate(divide="ignore", invalid="ignore"):
                out /= q  # at u = 0, replaced below
            if small.any():
                out[small] = vp_kernel(u[small])
            return out
        return ev


def kernel_tail_bound(sigma: float, u_cut: float, f_sup_beyond: float) -> float:
    """Bound for |sigma * int_{|u|>U} f(x-u) theta(sigma u) du|.

    Uses |theta(y)| <= (2/pi)/y^2, giving (4/pi) / (sigma * U) times a sup
    bound for |f| on the region the tail reaches.
    """
    return (4.0 / math.pi) / (sigma * u_cut) * f_sup_beyond


def _f_envelope_beyond(d: Decay, radius: float) -> float:
    if d.kind == "gaussian":
        return math.exp(-min(radius * radius, 700.0))
    return radius ** (-d.alpha)


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


def _stencil_values(values: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The barycentric Lagrange interpolant of values[i] at the lattice
    coordinates s, each from the _STENCIL samples around it."""
    lo = np.floor(s)
    frac = s - lo  # exact, so frac + (9 - j) rounds to the double of s - (lo - 9 + j)
    d = frac[:, None] + _SHIFTS
    v = sliding_window_view(values, _STENCIL)[lo.astype(np.intp) - (_STENCIL // 2 - 1)]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = np.divide(_BARY, d, out=d)
        out = np.einsum("ij,ij->i", lam, v) / lam.sum(axis=1)
    hit = frac == 0.0
    out[hit] = v[hit, _STENCIL // 2 - 1]
    return out


@kept.rule
def _kernel_spectrum(sigma: float, h: float, n_u: int, size: int) -> np.ndarray:
    """The rfft to size of the weights h sigma theta(sigma k h), |k| <= n_u."""
    return np.fft.rfft((h * sigma) * vp_kernel((sigma * h) * np.arange(-n_u, n_u + 1)), size)


def _lattice_convolution(f: RealFunction, sigma: float, h: float, n_u: int, n_x: int):
    """x -> J(x) for |x| up to (n_x - _STENCIL / 2) h, from the trapezoid
    sum h * sum_k f(x - k h) sigma theta(sigma k h) over |k| <= n_u."""
    n_f = n_x + n_u
    samples = _finite_samples(f, h * np.arange(-n_f, n_f + 1))
    # a circular convolution of at least the samples' length wraps only into
    # the first 2 n_u entries, which are dropped
    size = 1 << (samples.size - 1).bit_length()
    conv = np.fft.irfft(np.fft.rfft(samples, size) * _kernel_spectrum(sigma, h, n_u, size), size)
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
                tail_target: float = DEFAULT_TAIL_TARGET) -> RealFunction:
    """J(f, sigma)(x) = sigma * int f(x - u) theta(sigma u) du, truncated.

    For compactly supported f the convolution is written over the support,
    which makes the truncation exact.  Otherwise the u-window comes from the
    Gaussian or power decay class (an f with neither raises) and the
    recorded tail bound, f must be free of breakpoints, and J can be
    evaluated for |x| up to the given x_span plus the stencil; further out
    it raises.
    """
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    if f.expr is None:
        raise ValueError("the convolution's window needs f's expression")
    if f.expr.constant is not None:
        return f  # J reproduces constants exactly: the kernel has unit mass

    decay = f.expr.decay_class
    if decay.kind in ("none", "nonvanishing"):
        raise ValueError(f"{_brief(f.expr.ast)} has no decay class: A_hat's convolution "
                         "needs Gaussian, power or compact decay")
    w = 2.0 * math.pi / (3.0 * sigma)  # the sine zeros' spacing
    if decay.kind == "compact_support":
        w /= phase_panels(w, 2.0 * sigma + f.frequency)  # an integer part: zeros stay on edges
        n_lo, n_hi = _panel_span(w, decay.a, decay.b)
        nodes, wts = panel_rule(split_at(w * np.arange(n_lo, n_hi + 1), f.breakpoints), 12)
        fvals = _finite_samples(f, nodes) * wts
        kernel = RealFunction(fn=_ShiftedKernel(sigma, -nodes))
        return RealFunction(fn=lambda x: sigma * outer_apply(kernel, x, kernel.fn.t, fvals),
                            frequency=3.0 * sigma)

    u_cut = _u_window(decay, sigma, x_span, tail_target)
    # the lattice resolves f too: half its wavelength, or 1 where it does not
    # oscillate; an integer part of w keeps the sine zeros on the lattice
    cap = math.pi / f.frequency if f.frequency else 1.0
    sub = math.ceil(w / cap) if w > cap else 1
    _panel_span(w / sub, -u_cut, u_cut)  # the panel cap, before any allocation
    if f.breakpoints:
        raise ValueError(f"{_brief(f.expr.ast)} has breakpoints {list(f.breakpoints)} but no "
                         "compact support: the lattice convolution needs a smooth f")
    # cut the kernel at the first multiple of 2*pi/sigma, a double zero of
    # theta, at or beyond u_cut: 24 * sub lattice steps per multiple
    n_u = 24 * sub * math.ceil(u_cut * sigma / (2.0 * math.pi))
    h = w / sub / 8.0
    n_x = math.ceil(x_span / h) + _STENCIL  # J's lattice reaches x_span plus the stencil
    if (points := 2 * (n_x + n_u) + 1) > _MAX_LATTICE:  # before any allocation
        raise ValueError(f"the lattice convolution of J(f, {sigma:.6g}) needs {points} "
                         f"samples of f, more than the cap of {_MAX_LATTICE}")
    tail = kernel_tail_bound(sigma, n_u * h,
                             _f_envelope_beyond(decay, max(n_u * h - x_span, 1.0)))
    return RealFunction(fn=_lattice_convolution(f, sigma, h, n_u, n_x),
                        frequency=max(f.frequency, 3.0 * sigma), tail_bound=tail)


def best_approx_surrogate(f: RealFunction, sigma: float, norm: NormSpec,
                          spec: QuadSpec = DEFAULT_SPEC,
                          tail_target: float = DEFAULT_TAIL_TARGET) -> BestApproxEstimate:
    """A_hat_sigma(f) = ||f - J(f, sigma/2)||, an upper bound for A_sigma(f).

    J(f, sigma/2) has exponential type sigma, so the distance to it can only
    exceed the true deviation from the type-sigma class.
    """
    j = vp_operator(f, sigma / 2.0, x_span=norm.window, tail_target=tail_target)

    d = combine([(1.0, f), (-1.0, j)])
    value = norm_of(d, norm, spec)
    return BestApproxEstimate(value=value, tail_bound=j.tail_bound)
