"""Test-only references for J(f, sigma) on decaying f.

- `vp_operator_direct`: the Gauss-Legendre outer product over the u-window
  that `vexp.bandlimited.vp_operator` used before it convolved on a lattice.
  Every x costs one f evaluation per u-node, so this is an oracle, not a
  production path.
- `vp_fourier`: J in mpmath at 30 digits from the Fourier form.  theta is
  the Fejer combination 2 F_2 - F_1, so J multiplies f_hat by the trapezoid
  m(t) = min(1, 2 - |t|)_+ at t = xi / sigma, and for even f
  J(x) = (1/pi) int_0^{2 sigma} f_hat(xi) m(xi / sigma) cos(x xi) d xi.
"""

import math

import mpmath
import numpy as np

from vexp.bandlimited import (_f_envelope_beyond, _MAX_PANELS, _u_window,
                              kernel_tail_bound, vp_kernel)
from vexp.functions import RealFunction, outer_apply
from vexp.quad import panel_rule


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


def vp_operator_direct(f: RealFunction, sigma: float, x_span: float,
                       tail_target: float = 1e-8) -> RealFunction:
    """J(f, sigma) for decaying f by 10-point Gauss-Legendre panels on the
    u-window of `_u_window`, with its tail bound."""
    decay = f.expr.decay_class
    u_cut = _u_window(decay, sigma, x_span, tail_target)
    # panels must also resolve f's own variation (oscillation scale, or ~1
    # for smooth non-oscillatory decay)
    cap = math.pi / f.frequency if f.frequency else 1.0
    edges = _zero_aligned_panels(sigma, -u_cut, u_cut, max_width=cap)
    nodes, wts = panel_rule(edges, 10)
    kern = sigma * vp_kernel(sigma * nodes) * wts
    tail = kernel_tail_bound(sigma, u_cut, _f_envelope_beyond(decay, max(u_cut - x_span, 1.0)))

    def ev(x):
        return outer_apply(f, x, -nodes, kern)

    return RealFunction(fn=ev, frequency=max(f.frequency, 3.0 * sigma), tail_bound=tail)


# f_hat(xi) = int f(x) exp(-i x xi) dx for xi >= 0
SPECTRA = {
    "gauss": lambda xi: mpmath.sqrt(mpmath.pi) * mpmath.exp(-xi * xi / 4),
    "lorentz": lambda xi: mpmath.pi * mpmath.exp(-xi),
    "lorentz2": lambda xi: mpmath.pi / 2 * (1 + xi) * mpmath.exp(-xi),
}


def vp_fourier(name: str, sigma: float, x: float) -> float:
    """J(f, sigma)(x) of the bundled member `name` from its spectrum.

    The xi-integral is split at sigma, 2 sigma and every multiple of pi/|x|:
    unsplit, the oscillation of cos(x xi) makes the quadrature of lorentz at
    x = 249, sigma = 4 read -4.2e-3 where J is 1.6e-5.
    """
    f_hat = SPECTRA[name]
    with mpmath.workdps(30):
        s, x = mpmath.mpf(sigma), mpmath.mpf(x)
        cuts = {mpmath.mpf(0), s, 2 * s}
        if x != 0:
            step = mpmath.pi / abs(x)
            cuts.update(k * step for k in range(1, int(2 * s / step) + 1))
        cuts = sorted(c for c in cuts if c <= 2 * s)

        def integrand(xi):
            return f_hat(xi) * min(1, 2 - xi / s) * mpmath.cos(x * xi)
        return float(mpmath.quad(integrand, cuts, method="gauss-legendre") / mpmath.pi)
