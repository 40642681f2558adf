import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexp.quad import (Bracket, BracketError, QuadSpec, find_root_decreasing,
                       gauss_rule, panel_rule)


def test_root_affine():
    assert find_root_decreasing(lambda e: 1.0 - e, Bracket(0.0 + 1e-9, 2.0, 1e-12)) \
        == pytest.approx(1.0, abs=1e-11)


def test_root_inverse_square():
    root = find_root_decreasing(lambda e: 1.0 / (e * e) - 1.0, Bracket(0.5, 2.0, 1e-12))
    assert root == pytest.approx(1.0, abs=1e-11)


def test_root_of_variable_exponent_modular():
    # phi(eta) = int_0^1 (2/eta)^(2+x) dx - 1 on [1, 4].  At eta = 2 the
    # integrand is identically 1, so the root is exactly 2 (checked against
    # a direct trapezoid discretization of the modular).
    x, w = panel_rule(np.linspace(0.0, 1.0, 5), 12)

    def phi(eta):
        return float(np.sum(w * (2.0 / eta) ** (2.0 + x))) - 1.0

    root = find_root_decreasing(phi, Bracket(1.0, 4.0, 1e-11))
    assert root == pytest.approx(2.0, abs=1e-9)

    xs = np.linspace(0.0, 1.0, 200001)
    def phi_oracle(eta):
        return np.trapezoid((2.0 / eta) ** (2.0 + xs), xs) - 1.0
    lo, hi = 1.0, 4.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if phi_oracle(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    assert root == pytest.approx(0.5 * (lo + hi), abs=1e-8)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.01, 0.9), st.floats(1.2, 5.0))
def test_root_independent_of_bracket(lo, hi):
    phi = lambda e: 1.0 - e
    r1 = find_root_decreasing(phi, Bracket(lo, hi, 1e-12))
    r2 = find_root_decreasing(phi, Bracket(lo / 2.0, hi * 1.5, 1e-12))
    assert abs(r1 - r2) < 1e-10


def test_no_sign_change_raises():
    with pytest.raises(BracketError):
        find_root_decreasing(lambda e: -1.0, Bracket(0.1, 1.0, 1e-10))


def counted(phi):
    """phi, and the list of points it has been called at."""
    calls = []

    def wrapped(e):
        calls.append(e)
        return phi(e)
    return wrapped, calls


def test_affine_root_takes_one_interior_evaluation():
    phi, calls = counted(lambda e: 0.7 * (1.3 - e))
    root = find_root_decreasing(phi, Bracket(0.1, 5.0, 1e-15))
    assert len(calls) == 3  # the two ends and one secant step
    assert abs(root - 1.3) <= 4 * math.ulp(1.3)


def test_convex_root_on_a_wide_bracket():
    # on a convex phi every secant lands right of the root, so plain regula
    # falsi never moves lo; halving its value (and bisection) moves it
    phi, calls = counted(lambda e: 1.0 / (e * e) - 1.0)
    root = find_root_decreasing(phi, Bracket(0.01, 100.0, 1e-15))
    assert abs(root - 1.0) <= 2 * math.ulp(1.0)
    assert len(calls) < 40  # bisection alone needs about 57


def test_flat_then_steep_root():
    # phi is flat near lo and steep near hi, so each secant step barely moves
    # lo: Illinois halving alone needs 72 evaluations, with bisection 23
    phi, calls = counted(lambda e: 1.0 - math.exp(20.0 * (e - 1.3)))
    root = find_root_decreasing(phi, Bracket(0.0, 3.0, 1e-15))
    assert abs(root - 1.3) <= 2 * math.ulp(1.3)
    assert len(calls) <= 30


def test_quadspec_validation():
    with pytest.raises(ValueError):
        QuadSpec(rel_tol=2.0)
    with pytest.raises(ValueError):
        Bracket(1.0, 0.5, 1e-9)


def test_panel_rule_integrates_polynomial_exactly():
    edges = np.linspace(-1.0, 2.0, 7)
    x, w = panel_rule(edges, 6)
    val = float(np.sum(w * x ** 7))
    assert val == pytest.approx((2.0 ** 8 - 1.0) / 8.0, rel=1e-13)


def test_gauss_rule_cached_and_normalized():
    x, w = gauss_rule(12)
    assert np.all((x > 0) & (x < 1))
    assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-14)
