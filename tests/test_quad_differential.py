"""Differential tests of the oscillation rule against scipy.integrate.quad.

`quad.phase_panels` cuts every 12-point panel to at most 6 radians of f's
frequency, on the Steklov lattice and on the compact-support panels of
J(f, sigma).  Each case below is an oscillating f whose operator scipy's
QAWO rule (a sin or cos weight) integrates to about 1e-16.  At these points
every case but the a = 10 control was off by 2e-7 to 0.13 when the lattice
took at most 16 panels per unit and the J panels ignored f's frequency.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from vexp.bandlimited import vp_kernel, vp_operator
from vexp.fnexpr import parse
from vexp.functions import as_real_function
from vexp.steklov import iterated_steklov

XS = np.linspace(-1.5, 1.5, 7)
_QAWO = dict(epsabs=1e-16, epsrel=1e-15, limit=4000)


def _j_reference(a: float, sigma: float, x: float) -> float:
    """sigma int_0^1 sin(a u) theta(sigma (x - u)) du.  At sigma = 4 QAWO
    reports roundoff short of its 1e-16 target; its own error estimate,
    returned in place of the warning, stays below 1e-14."""
    value, err, *_ = quad(lambda u: sigma * vp_kernel(sigma * (x - u)), 0.0, 1.0,
                          weight="sin", wvar=a, full_output=1, **_QAWO)
    assert err <= 1e-14
    return value


def _steklov_reference(w: float, d: float, k: int, x: float) -> float:
    """T_d^k f(x) = int_0^k f(x + d u) B_k(u) du for f = sin(w t) exp(-t^2)
    and k = 1 or 2, as cos- and sin-weighted integrals in t = d u."""
    pieces = ([(0.0, 1.0, lambda u: 1.0)] if k == 1
              else [(0.0, 1.0, lambda u: u), (1.0, 2.0, lambda u: 2.0 - u)])
    total = 0.0
    for lo, hi, spline in pieces:
        def g(t, spline=spline):
            return math.exp(-(x + t) ** 2) * spline(t / d) / d
        s = quad(g, d * lo, d * hi, weight="sin", wvar=w, **_QAWO)[0]
        c = quad(g, d * lo, d * hi, weight="cos", wvar=w, **_QAWO)[0]
        total += math.sin(w * x) * c + math.cos(w * x) * s
    return total


@pytest.mark.parametrize("a, sigma", [(10.0, 1.0), (30.0, 1.0), (100.0, 1.0),
                                      (10.0, 4.0), (30.0, 4.0), (100.0, 4.0)],
                         ids=["control", "a30", "a100", "control_s4", "a30_s4", "a100_s4"])
def test_compact_convolution(a, sigma):
    f = as_real_function(parse(f"sin({a:g}*x)*indicator(0, 1)"))
    got = vp_operator(f, sigma, x_span=2.0)(XS)
    want = [_j_reference(a, sigma, x) for x in XS]
    assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("w, d, k", [(200.0, 2.0, 1), (200.0, 4.0, 1), (400.0, 2.0, 1),
                                     (100.0, 4.0, 2)],
                         ids=["w200_d2", "w200_d4", "w400_d2", "w100_d4_k2"])
def test_steklov_iterate(w, d, k):
    f = as_real_function(parse(f"sin({w:g}*x)*exp(-x^2)"))
    got = iterated_steklov(f, d, k)(XS)
    want = [_steklov_reference(w, d, k, x) for x in XS]
    assert np.max(np.abs(got - want)) <= 1e-13
