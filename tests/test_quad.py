import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexp import quad
from vexp.quad import (Bracket, Memo, QuadSpec, find_root_decreasing, gauss_rule, kept,
                       panel_rule, split_at)


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


def test_large_window_rules_are_built_per_call(kept_rules):
    # a uniform rule near the 32,768-panel cap holds about 6.7 MB, more than
    # the memo's budget: it is built per call and returned unkept, evicting
    # nothing, so wide sup windows pin no memory; a graded rule of a wide
    # window, a few kB, is kept
    from vexp.functions import as_real_function
    from vexp.fnexpr import parse
    from vexp.norms import NormSpec, norm_of
    f = as_real_function(parse("exp(-x^2)"))
    norm_of(f, NormSpec.sup(8.0))
    before, held = dict(kept.entries), kept.held
    assert len(before) == len(kept_rules("_window_rule")) == 1
    for window in range(4000, 4008):
        assert norm_of(f, NormSpec.sup(float(window))).hex() == "0x1.0000000000000p+0"
        assert kept.entries.keys() == before.keys() and kept.held == held
    norm_of(f, NormSpec.sup(8.0))  # served by the kept rule
    assert all(kept.entries[key] is entry for key, entry in before.items())
    big = quad.window_nodes(4000.0, 4.0, ())
    assert sum(a.nbytes for a in big) > quad._KEPT_BYTES
    assert not big[0].flags.writeable and big[0] is not quad.window_nodes(4000.0, 4.0, ())[0]
    graded = quad.window_nodes(4000.0, 4.0, (), math.inf)[0]
    assert graded.size < 12 * 200 and graded is quad.window_nodes(4000.0, 4.0, (), math.inf)[0]
    assert len(kept.entries) == len(before) + 1


class TestGridMemo:
    # quad.kept keeps arrays that depend on a grid alone, by the grid's bytes,
    # and the rules of the builders it wraps, by their arguments
    def test_held_bytes_stay_under_the_cap(self):
        memo = Memo()
        for i in range(64):  # 64 distinct 9,600-node grids, two arrays each
            x = np.linspace(-200.0, 200.0, 9600) + i
            memo("sin", x, np.sin)
            memo("p", x, lambda x: 2.0 + np.cos(x))
            assert memo.held <= quad._KEPT_BYTES
        assert 0 < len(memo.entries) < 64
        charges = [quad._ENTRY_BYTES + len(grid[2]) + sum(quad._ENTRY_BYTES + a.nbytes
                                                         for a in kept.values())
                   for grid, (_, kept) in memo.entries.items()]
        assert memo.held == sum(charges) == sum(c for c, _ in memo.entries.values())

    def test_arrays_are_read_only_and_kept_by_bytes(self):
        memo, x = Memo(), np.linspace(0.0, 1.0, 100)
        a = memo("sin", x, np.sin)
        assert np.array_equal(a, np.sin(x))
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
        assert memo("sin", x.copy(), np.sin) is a  # the bytes, not the object
        assert memo("cos", x, np.cos) is not a
        for other in (x.reshape(10, 10), x.astype(np.float32), x + 1e-16):
            assert memo("sin", other, np.sin) is not a
        # 0.0 and -0.0 are two grids: their sines differ in sign
        assert np.signbit(memo("sin", np.array([-0.0]), np.sin)[0])
        assert not np.signbit(memo("sin", np.array([0.0]), np.sin)[0])

    def test_a_value_above_the_budget_is_returned_unkept(self):
        # one grid of _KEPT_BYTES / 8 nodes emptied the memo and was not kept either
        memo = Memo()
        for i in range(5):
            memo("sin", np.linspace(0.0, 1.0, 1000) + i, np.sin)
        before, held = dict(memo.entries), memo.held
        big = np.linspace(0.0, 1.0, quad._KEPT_BYTES // 8)
        s = memo("sin", big, np.sin)
        assert np.array_equal(s, np.sin(big)) and not s.flags.writeable
        assert memo("sin", big, np.sin) is not s
        assert memo.entries.keys() == before.keys() and memo.held == held
        assert all(memo.entries[key] is entry for key, entry in before.items())

    def test_rules_are_built_once_per_key(self):
        memo, built = Memo(), []

        @memo.rule
        def rule(n, scale):
            built.append((n, scale))
            return np.arange(n) * scale, np.ones(n)
        a = rule(10, 2.0)
        assert rule(10, 2.0) is a and built == [(10, 2.0)]
        assert np.array_equal(a[0], np.arange(10) * 2.0) and not any(v.flags.writeable for v in a)
        assert rule(10, 3.0) is not a and len(built) == 2
        big = rule(quad._KEPT_BYTES // 8, 1.0)  # its charge alone passes the budget
        assert not big[0].flags.writeable and rule(quad._KEPT_BYTES // 8, 1.0) is not big
        assert rule(10, 2.0) is a and len(built) == 4

    def test_least_recently_used_grids_go_first(self, monkeypatch):
        memo, grids = Memo(), [np.full(1000, float(i)) for i in range(4)]
        monkeypatch.setattr(quad, "_KEPT_BYTES", 3 * (2 * quad._ENTRY_BYTES + 16_000))
        first = [memo("f", g, np.sin) for g in grids[:3]]
        assert memo("f", grids[0], np.sin) is first[0]  # now the most recent
        memo("f", grids[3], np.sin)
        assert memo("f", grids[0], np.sin) is first[0]
        assert memo("f", grids[1], np.sin) is not first[1]

    def test_threads_keep_the_charge_consistent(self, monkeypatch):
        # FuncExpr values may be shared across threads: lookups, inserts and
        # evictions of one memo from 4 threads keep held equal to the charges
        import sys
        import threading
        memo, grids = Memo(), [np.linspace(0.0, 1.0, 500) + i for i in range(12)]
        monkeypatch.setattr(quad, "_KEPT_BYTES", 5 * (2 * quad._ENTRY_BYTES + 8000))
        wrong = []

        def work(seed):
            rng = np.random.default_rng(seed)
            for i in rng.integers(0, len(grids), 300):
                name = ("sin", "cos")[i % 2]
                if not np.array_equal(memo(name, grids[i], getattr(np, name)),
                                      getattr(np, name)(grids[i])):
                    wrong.append(i)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and wrong == []
        assert memo.held == sum(c for c, _ in memo.entries.values()) <= quad._KEPT_BYTES
