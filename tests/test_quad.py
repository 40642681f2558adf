import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexp.quad import (Bracket, QuadSpec, find_root_decreasing, gauss_rule, panel_rule,
                       split_at)


def solve(phi, dphi, bracket, start):
    """The root from start of phi with its slope dphi, and the points
    evaluated after start; phi at the root must come back with the root."""
    calls = []

    def wrapped(e):
        calls.append(e)
        return phi(e), dphi(e)
    root, at_root = find_root_decreasing(wrapped, bracket, start, (phi(start), dphi(start)))
    assert at_root == (phi(root), dphi(root))
    return root, calls


def test_root_affine():
    root, _ = solve(lambda e: 1.0 - e, lambda e: -1.0, Bracket(1e-9, 2.0, 1e-12), 0.5)
    assert root == pytest.approx(1.0, abs=1e-11)


def test_root_inverse_square():
    root, _ = solve(lambda e: 1.0 / (e * e) - 1.0, lambda e: -2.0 / e ** 3,
                    Bracket(0.5, 2.0, 1e-12), 0.5)
    assert root == pytest.approx(1.0, abs=1e-11)


def test_root_of_variable_exponent_modular():
    # phi(eta) = int_0^1 (2/eta)^(2+x) dx - 1 on [1, 4].  At eta = 2 the
    # integrand is identically 1, so the root is exactly 2 (checked against
    # a direct trapezoid discretization of the modular).
    x, w = panel_rule(np.linspace(0.0, 1.0, 5), 12)

    def phi(eta):
        return float(np.sum(w * (2.0 / eta) ** (2.0 + x))) - 1.0

    def dphi(eta):
        return -float(np.sum(w * (2.0 + x) * (2.0 / eta) ** (2.0 + x))) / eta

    root, _ = solve(phi, dphi, Bracket(1.0, 4.0, 1e-11), 1.0)
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
@given(st.floats(0.01, 0.9), st.floats(1.2, 5.0), st.floats(0.0, 1.0))
def test_root_independent_of_bracket(lo, hi, at):
    phi, dphi = (lambda e: 1.0 / e - 1.0), (lambda e: -1.0 / (e * e))
    start = lo + at * (hi - lo)
    r1, _ = solve(phi, dphi, Bracket(lo, hi, 1e-12), start)
    r2, _ = solve(phi, dphi, Bracket(lo / 2.0, hi * 1.5, 1e-12), start)
    assert abs(r1 - r2) < 1e-10


def test_no_sign_change_raises():
    # the bracket's ends are never evaluated: the steps close on lo instead
    for start in (0.1, 0.5):
        with pytest.raises(ValueError, match="no sign change"):
            solve(lambda e: -1.0, lambda e: -1.0, Bracket(0.1, 1.0, 1e-10), start)
    with pytest.raises(ValueError, match="no sign change"):
        solve(lambda e: 1.0, lambda e: 0.0, Bracket(0.1, 1.0, 1e-10), 0.5)


def test_affine_root_takes_one_interior_evaluation():
    # from a start off the bracket, one tangent step lands on the root
    root, calls = solve(lambda e: 0.7 * (1.3 - e), lambda e: -0.7,
                        Bracket(0.1, 5.0, 1e-15), 0.0)
    assert len(calls) == 1
    assert abs(root - 1.3) <= 4 * math.ulp(1.3)


def test_convex_root_on_a_wide_bracket():
    # from right of the root the tangent of a convex phi lands left of it,
    # here off the bracket, which bisection mends; the steps then rise to
    # the root with the error about squared each time
    root, calls = solve(lambda e: 1.0 / (e * e) - 1.0, lambda e: -2.0 / e ** 3,
                        Bracket(0.01, 100.0, 1e-15), 50.0)
    assert abs(root - 1.0) <= 2 * math.ulp(1.0)
    assert len(calls) < 20  # bisection alone needs about 57


def test_convex_root_from_the_left_rises_monotonically():
    root, calls = solve(lambda e: math.exp(-e) - 0.5, lambda e: -math.exp(-e),
                        Bracket(-1.0, 5.0, 1e-15), -1.0)
    assert abs(root - math.log(2.0)) <= 4 * math.ulp(math.log(2.0))
    # the last step may round an ulp past the root
    assert calls == sorted(calls) and all(c < math.log(2.0) for c in calls[:-1])
    assert len(calls) <= 7


def test_flat_then_steep_root():
    # phi is flat near lo and steep near hi; from the flat side the first
    # tangent leaves the bracket, so bisection takes over until Newton's
    # steps stay inside
    root, calls = solve(lambda e: 1.0 - math.exp(20.0 * (e - 1.3)),
                        lambda e: -20.0 * math.exp(20.0 * (e - 1.3)),
                        Bracket(0.0, 3.0, 1e-15), 0.0)
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


def test_split_at_adds_each_inner_point_once():
    grid = np.linspace(-1.0, 1.0, 5)
    # the ends, points outside and repeated points add nothing new
    assert np.array_equal(split_at(grid, [-1.0, 1.0, -3.0, 2.0]), grid)
    assert np.array_equal(split_at(grid, [0.3, 0.5, 0.3, -1.5, 0.3]),
                          [-1.0, -0.5, 0.0, 0.3, 0.5, 1.0])
    assert np.array_equal(split_at(grid, (0.7, -0.2)), [-1.0, -0.5, -0.2, 0.0, 0.5, 0.7, 1.0])
    assert np.array_equal(split_at(grid, ()), grid)


def test_large_window_rules_are_built_per_call():
    # a uniform rule near the 32,768-panel cap holds about 6.8 MB: only uniform
    # rules of at most 4,096 panels are cached, so 64 wide sup windows pin no
    # memory, while a graded rule of a wide window (a few kB) stays cached
    from vexp import quad
    from vexp.functions import as_real_function
    from vexp.fnexpr import parse
    from vexp.norms import NormSpec, norm_of
    f = as_real_function(parse("exp(-x^2)"))
    quad._window_rule.cache_clear()
    norm_of(f, NormSpec.sup(8.0))
    kept = quad._window_rule.cache_info()
    assert kept.currsize == 1
    for window in range(4000, 4008):
        assert norm_of(f, NormSpec.sup(float(window))).hex() == "0x1.0000000000000p+0"
    assert quad._window_rule.cache_info().currsize == kept.currsize
    norm_of(f, NormSpec.sup(8.0))
    assert quad._window_rule.cache_info().hits > kept.hits
    big = quad.window_nodes(4000.0, 4.0, ())
    assert not big[0].flags.writeable and big[0] is not quad.window_nodes(4000.0, 4.0, ())[0]
    graded = quad.window_nodes(4000.0, 4.0, (), math.inf)[0]
    assert graded.size < 12 * 200 and graded is quad.window_nodes(4000.0, 4.0, (), math.inf)[0]
    assert quad._window_rule.cache_info().currsize == kept.currsize + 1
