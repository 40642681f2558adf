import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from vexp import smoothness, steklov
from vexp.bandlimited import vp_operator
from vexp.corpus import corpus_member, default_corpus, resolve_function
from vexp.fnexpr import differentiate, parse
from vexp.functions import as_real_function, combine
from vexp.norms import NormSpec
from vexp.quad import phase_panels
from vexp.steklov import (_horner, bspline_value, derivative_terms, difference_terms,
                          iterated_steklov, steklov_combination, sup_norm)

from steklov_oracles import (bspline_cox_de_boor, bspline_cumulative_quad, engine,
                             nested_steklov, truncated_power_sum)

XS = np.linspace(-3.0, 3.0, 25)


def box_member():
    return as_real_function(parse("indicator(0, 1)"))


class TestForward:
    def test_constant_fixed_point(self):
        t = iterated_steklov(as_real_function(parse("3")), 0.7, 1)
        assert np.allclose(t(XS), 3.0, atol=1e-14)

    def test_affine_exact(self):
        t = iterated_steklov(as_real_function(parse("x")), 0.4, 1)
        assert np.max(np.abs(t(XS) - (XS + 0.2))) < 1e-13

    def test_gaussian_against_erf(self):
        t = iterated_steklov(as_real_function(parse("exp(-x^2)")), 1.0, 1)
        oracle = math.sqrt(math.pi) / 2.0 * math.erf(1.0)
        assert t(np.array([0.0]))[0] == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("delta", [1.0, 2.0, 4.0, 8.0, 16.0, -8.0])
    def test_gaussian_against_erf_at_wide_steps(self, delta):
        # one 12-node piece of the unit lattice spans |delta| units of x
        # unless the panel is cut: at delta = 16 the uncut lattice was 1.9e-2 off
        x = np.linspace(-14.0, 6.0, 801)
        t = iterated_steklov(as_real_function(parse("exp(-x^2)")), delta, 1)
        oracle = [math.sqrt(math.pi) / (2.0 * delta) * (math.erf(v + delta) - math.erf(v))
                  for v in x]
        assert np.max(np.abs(t(x) - oracle)) < 1e-14

    @pytest.mark.parametrize("delta", [1.0, -1.0])
    def test_cosine_against_closed_form_at_either_sign(self, delta):
        # a negative step cuts the panels for f's frequency as a positive one
        # does; uncut, T_-1 of cos(20x) was 5.6e-8 off
        x = np.linspace(-6.0, 6.0, 241)
        t = iterated_steklov(as_real_function(parse("cos(20*x)")), delta, 1)
        oracle = (np.sin(20.0 * (x + delta)) - np.sin(20.0 * x)) / (20.0 * delta)
        assert np.max(np.abs(t(x) - oracle)) < 1e-13

    def test_delta_zero_is_identity(self):
        f = as_real_function(parse("exp(-x^2)"))
        assert iterated_steklov(f, 0.0, 1) is f


class TestIterated:
    def test_power_one_reduces_to_forward(self):
        f = as_real_function(parse("exp(-x^2)"))
        t1 = iterated_steklov(f, 0.5, 1)
        tf = nested_steklov(f, 0.5, 1)
        assert np.allclose(t1(XS), tf(XS), atol=1e-14)

    def test_affine_double_shift(self):
        t2 = iterated_steklov(as_real_function(parse("x")), 0.5, 2)
        assert np.max(np.abs(t2(XS) - (XS + 0.5))) < 1e-13

    def test_kernel_vs_literal_nesting_smooth(self):
        f = as_real_function(parse("exp(-x^2)"))
        pts = np.array([0.0, 0.3, -1.2])
        for k in (2, 3):
            kern = iterated_steklov(f, 0.5, k)
            nest = nested_steklov(f, 0.5, k)
            assert np.max(np.abs(kern(pts) - nest(pts))) < 1e-12

    def test_kernel_vs_nesting_indicator(self):
        f = box_member()
        pts = np.linspace(-1.5, 1.5, 13)
        kern = iterated_steklov(f, 0.3, 2)
        nest = nested_steklov(f, 0.3, 2)
        assert np.max(np.abs(kern(pts) - nest(pts))) < 1e-12

    def test_induction_chain_high_powers(self):
        # T^k == T(T^(k-1)) checked with independent single-step quadrature
        f = as_real_function(parse("exp(-x^2)*sin(5*x)"))
        pts = np.linspace(-2, 2, 9)
        for k in range(2, 9):
            prev = iterated_steklov(f, 0.4, k - 1)
            one_more = nested_steklov(prev, 0.4, 1)
            kern = iterated_steklov(f, 0.4, k)
            assert np.max(np.abs(kern(pts) - one_more(pts))) < 1e-9

    def test_induction_chain_candidate_depth(self):
        # iterate powers up to 2 r^2 with r = 3 appear in the K-functional
        # candidate; spot-check the chain at k = 12 and 18
        f = as_real_function(parse("exp(-x^2)"))
        pts = np.array([-1.0, 0.0, 0.5])
        for k in (12, 18):
            prev = iterated_steklov(f, 0.3, k - 1)
            one_more = nested_steklov(prev, 0.3, 1)
            kern = iterated_steklov(f, 0.3, k)
            assert np.max(np.abs(kern(pts) - one_more(pts))) < 1e-9


class TestDifferencePower:
    def test_affine_r1(self):
        d = steklov_combination(as_real_function(parse("x")), 0.3, difference_terms(1, (1, 0)))
        assert np.allclose(d(XS), -0.15, atol=1e-13)

    def test_polynomial_annihilation(self):
        # each application of I - T_d lowers the degree by one
        for src, r in (("1", 1), ("x", 2), ("x^2", 3), ("2*x - 1", 2)):
            d = steklov_combination(as_real_function(parse(src)), 0.7, difference_terms(r, (1, 0)))
            assert np.max(np.abs(d(XS))) < 1e-11

    def test_quadratic_r2_closed_form(self):
        # T_d x^2 = x^2 + d x + d^2/3, twice: (I-T)^2 x^2 = d^2/2
        d = steklov_combination(as_real_function(parse("x^2")), 0.4, difference_terms(2, (1, 0)))
        assert np.allclose(d(XS), 0.08, atol=1e-12)


class TestSteklovDerivative:
    def test_first_order_identity(self):
        # (d/dx) T_d f = (f(x+d) - f(x))/d
        f = as_real_function(parse("exp(-x^2)"))
        sd = steklov_combination(f, 1.0, derivative_terms(1.0, 1, 1))
        assert sd(np.array([0.0]))[0] == pytest.approx(math.exp(-1.0) - 1.0,
                                                       abs=1e-14)

    def test_affine_slope(self):
        sd = steklov_combination(as_real_function(parse("x")), 0.5, derivative_terms(0.5, 1, 1))
        assert np.allclose(sd(XS), 1.0, atol=1e-12)

    def test_second_order_vs_symbolic_nested_oracle(self):
        # (T_d^2 f)'' = T_d^2 (f'') for smooth f; oracle: literal nesting of
        # the symbolically differentiated integrand
        f = parse("exp(-x^2)")
        sd = steklov_combination(as_real_function(f), 0.5, derivative_terms(0.5, 2, 2))
        oracle = nested_steklov(as_real_function(differentiate(f, 2)), 0.5, 2)
        pts = np.linspace(-2, 2, 9)
        assert np.max(np.abs(sd(pts) - oracle(pts))) < 1e-7

    def test_commutation_with_centered_average(self):
        # (S_d f)' = S_d f' probed by a five-point stencil on the output,
        # with the centered average S_d f = T_d f(. - d/2)
        f = parse("exp(-x^2)*sin(5*x)")
        t = iterated_steklov(as_real_function(f), 0.6, 1)
        t_of_deriv = iterated_steklov(as_real_function(differentiate(f)), 0.6, 1)
        s = lambda x: t(x - 0.3)  # noqa: E731
        s_of_deriv = lambda x: t_of_deriv(x - 0.3)  # noqa: E731
        h = 1e-3
        stencil = (-s(XS + 2 * h) + 8 * s(XS + h) - 8 * s(XS - h)
                   + s(XS - 2 * h)) / (12 * h)
        assert np.max(np.abs(stencil - s_of_deriv(XS))) < 1e-7

    def test_requires_r_at_most_m(self):
        with pytest.raises(ValueError, match="need 1 <= r <= m"):
            derivative_terms(0.5, 1, 2)


def bits(terms):
    """A term map's keys, in order, with the float.hex of each coefficient:
    the order is the order of summation, so it fixes the bits too."""
    return [(key, c.hex()) for key, c in terms.items()]


# the expansions each call site once wrote out by hand, kept as references
def omega_reference(r):
    return {(j, 0): float((-1) ** j) * math.comb(r, j) for j in range(r + 1)}


def khat_reference(r, delta):
    diff = {(2 * r * l, 0): float((-1) ** l) * math.comb(r, l) for l in range(r + 1)}
    deriv = {key: float((-1) ** (l - 1)) * math.comb(r, l) * c
             for l in range(1, r + 1)
             for key, c in derivative_reference(delta, 2 * r * l, r).items()}
    return diff, deriv


def shift_reference(r, i):
    return {(0, j * (2 * i - 63)): float((-1) ** j) * math.comb(r, j) for j in range(r + 1)}


def derivative_reference(delta, m, r):
    return {(m - r, j): delta ** (-r) * float((-1) ** (r - j)) * math.comb(r, j)
            for j in range(r + 1)}


DELTAS = (1e-3, 0.01, 0.05, 0.1, 0.3, 1.0 / 3.0, 0.5, 0.7, 1.0, 1.5, 2.0)


class TestTermMaps:
    @pytest.mark.parametrize("r", range(1, 7))
    def test_difference_terms_match_the_written_expansions(self, r):
        assert bits(difference_terms(r, (1, 0))) == bits(omega_reference(r))
        assert bits(difference_terms(r, (2 * r, 0))) == bits(khat_reference(r, 0.5)[0])
        for i in range(64):
            assert bits(difference_terms(r, (0, 2 * i - 63))) == bits(shift_reference(r, i))
        forward = {(0, j): float((-1) ** j) * math.comb(r, j) for j in range(r + 1)}
        assert bits(difference_terms(r, (0, 1))) == bits(forward)

    @pytest.mark.parametrize("r", range(1, 7))
    def test_derivative_terms_match_the_written_expansion(self, r):
        for delta in DELTAS:
            for m in range(r, 40):
                assert bits(derivative_terms(delta, m, r)) == \
                    bits(derivative_reference(delta, m, r))

    @pytest.mark.parametrize("r", range(1, 7))
    def test_khat_maps_match_the_written_expansion(self, r, monkeypatch):
        from vexp import smoothness
        class Built(Exception):
            """The maps are all this test reads."""

        def capture(f, delta, *terms):
            raise Built(terms)
        monkeypatch.setattr(smoothness, "steklov_combination", capture)
        for delta in DELTAS:
            with pytest.raises(Built) as built:
                smoothness.k_functional_upper(box_member(), r, delta, NormSpec.sup(4.0))
            diff, deriv = built.value.args[0]
            want_diff, want_deriv = khat_reference(r, delta)
            assert bits(diff) == bits(want_diff)
            assert bits(deriv) == bits(want_deriv)


def _member(name):
    if name == "box+xgauss":
        # rough and not engine-backed: every iterate is a per-point quadrature
        return combine([(1.0, corpus_member("box").rf),
                        (1.0, corpus_member("xgauss").rf)])
    return corpus_member(name).rf


# shifted iterates, a k = 0 point term and a shifted point term
TERMS = {(0, 0): 1.0, (0, 2): -0.5, (1, 0): -2.0, (2, 1): 1.5, (3, 0): 0.75,
         (1, 3): -1.25}


class TestCombination:
    @pytest.mark.parametrize("name, d", [("gauss_osc", 1.5), ("box", 0.4),
                                         ("box_smooth", 0.35), ("box+xgauss", 0.3)])
    def test_matches_terms_one_at_a_time(self, name, d):
        f = _member(name)
        xs = np.linspace(-2.5, 2.0, 19)
        got = steklov_combination(f, d, TERMS)(xs)
        want = sum(c * iterated_steklov(f, d, k)(xs + j * d)
                   for (k, j), c in TERMS.items())
        f_max = np.max(np.abs(f(np.linspace(-4.0, 4.0, 8001))))
        scale = sum(map(abs, TERMS.values())) * f_max
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    def test_smooth_lattice_has_subpanels(self):
        # the case above puts several panels on each unit of the lattice
        assert phase_panels(1.5, _member("gauss_osc").frequency) > 1

    @pytest.mark.parametrize("src", ["@box", "@gauss_osc", "abs(x)*exp(-x^2)"],
                             ids=["engine", "lattice", "split_lattice"])
    def test_each_row_alone_gives_the_stacks_bits(self, src):
        # a stacked Luxemburg norm refills each output through its row alone
        f = resolve_function(src).rf
        maps = (TERMS, derivative_terms(0.3, 3, 2), difference_terms(2, (1, 0)))
        stack = steklov_combination(f, 0.3, *maps)
        xs = np.linspace(-2.5, 2.0, 37)
        assert len(stack.rows) == 3
        for row, want in zip(stack.rows, stack(xs)):
            assert np.array_equal(row(xs), want)
        assert steklov_combination(f, 0.3, TERMS).rows == ()

    @pytest.mark.parametrize("src", ["@box", "@gauss_osc"], ids=["engine", "lattice"])
    def test_a_scalar_gives_the_arrays_value(self, src):
        # the sup norm's one-sided samples are scalars; the exact engine once
        # summed a stack's terms into copies of its rows' scalars and gave 0
        f = resolve_function(src).rf
        for maps in ((TERMS,), (TERMS, difference_terms(2, (1, 0)))):
            comb = steklov_combination(f, 0.3, *maps)
            for x in (-0.6, np.nextafter(0.0, -1.0), 0.45):
                at = x if len(maps) == 1 else np.asarray(x)  # a stack takes a 0-d array
                assert np.array_equal(comb(at), comb(np.array([x]))[..., 0])

    def test_breakpoints_of_shifted_iterates(self):
        f = _member("box")
        comb = steklov_combination(f, 0.5, {(0, 1): 1.0, (2, 0): 1.0})
        assert comb.breakpoints == (-1.0, -0.5, 0.0, 0.5, 1.0)


@pytest.fixture
def memo():
    """A sample memo, as audit.run_suite holds one for a member's cases."""
    kept = {}
    token = steklov.SAMPLE_MEMO.set(kept)
    yield kept
    steklov.SAMPLE_MEMO.reset(token)


class TestSampleMemo:
    @pytest.mark.parametrize("src", ["@box", "@gauss_osc", "abs(x)*exp(-x^2)"],
                             ids=["engine", "lattice", "split_lattice"])
    def test_a_hit_has_a_fresh_evaluations_bits_and_is_read_only(self, src, memo):
        f = resolve_function(src).rf
        maps = (TERMS, difference_terms(2, (1, 0)))
        xs = np.linspace(-2.5, 2.0, 37)
        token = steklov.SAMPLE_MEMO.set(None)
        fresh = steklov_combination(f, 0.3, *maps)(xs)
        steklov.SAMPLE_MEMO.reset(token)
        # a combination built anew, as a later case builds it, hits
        first = steklov_combination(f, 0.3, *maps)(xs)
        again = steklov_combination(f, 0.3, *maps)(xs)
        assert again is first and len(memo) == 1
        assert first.tobytes() == fresh.tobytes()
        assert not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 0.0
        # a row alone and other points are calls of their own
        steklov_combination(f, 0.3, *maps).rows[0](xs)
        steklov_combination(f, 0.3, *maps)(xs[1:])
        assert len(memo) == 3

    def test_other_breakpoints_do_not_hit(self, memo):
        # the same expression split at 0 takes the split lattice near 0
        f = corpus_member("gauss").rf
        g = replace(f, breakpoints=(0.0,))
        xs = np.linspace(-2.0, 2.0, 9)
        a = steklov_combination(f, 0.5, difference_terms(1, (1, 0)))(xs)
        b = steklov_combination(g, 0.5, difference_terms(1, (1, 0)))(xs)
        assert len(memo) == 2 and a is not b


def khat_maps(r: int, delta: float):
    """The term maps of K-hat's f - g and g^(r), as `k_functional_upper` stacks them."""
    diff = difference_terms(r, (2 * r, 0))
    deriv = {key: -cl * c for (k, _), cl in diff.items() if k > 0
             for key, c in derivative_terms(delta, k, r).items()}
    return diff, deriv


@pytest.fixture
def orders(monkeypatch):
    """The product-rule order each lattice call of steklov took (0: Gauss)."""
    taken, real = [], steklov._order
    monkeypatch.setattr(steklov, "_order", lambda *a: taken.append(real(*a)) or taken[-1])
    return taken


def gauss_lattice_only(monkeypatch):
    """Every lattice call takes the Gauss lattice: no call is large enough to probe."""
    monkeypatch.setattr(steklov, "_MIN_CALL", math.inf)


class TestProductRule:
    # a lattice reaching top >= 4 (K-hat's stacks) samples each call's points
    # whose tail test passes at K Chebyshev points, the others on the Gauss
    # lattice
    XS = np.linspace(-6.0, 6.0, 97)

    @pytest.mark.parametrize("src", ["@" + m.name for m in default_corpus()]
                             + ["abs(x)*exp(-x^2)"])
    def test_matches_the_gauss_lattice(self, src, monkeypatch, orders):
        f = resolve_function(src).rf
        f_max = np.max(np.abs(f(np.linspace(-10.0, 10.0, 20001))))
        got = {(r, d): steklov_combination(f, d, *khat_maps(r, d))(self.XS)
               for r in (2, 3) for d in (0.1, 0.5, 1.0, 2.0)}
        gauss_lattice_only(monkeypatch)
        for (r, d), values in got.items():
            maps = khat_maps(r, d)
            want = steklov_combination(f, d, *maps)(self.XS)
            for m, a, b in zip(maps, values, want):
                assert np.max(np.abs(a - b)) <= 1e-13 * sum(map(abs, m.values())) * f_max
        if engine(f) is None and src not in ("@lorentz", "@lorentz2"):
            assert any(orders)  # the product rule served

    @pytest.mark.parametrize("src, d, xs", [
        ("@lorentz", 1.0, XS), ("exp(-100*(x-1)^2)", 0.5, XS),
        ("@lorentz", 0.5, np.linspace(-40.0, 40.0, 161)),
        ("exp(-100*(x-1)^2)", 0.1, np.linspace(-20.0, 20.0, 401))])
    def test_points_that_fail_the_tail_test_keep_the_gauss_bits(self, src, d, xs, monkeypatch):
        # lorentz's tail is 4e-7 at 64 points at d = 1, and the bump is far
        # narrower than the span 8d: every point fails.  On the wide grids the
        # probe passes away from lorentz's poles and from the bump, and the
        # points whose windows come near them fail
        f = resolve_function(src).rf
        calls, real = [], steklov.outer_apply
        monkeypatch.setattr(steklov, "outer_apply",
                            lambda f, x, t, w: calls.append((x, t.size)) or real(f, x, t, w))
        stack = steklov_combination(f, d, *khat_maps(2, d))
        got = stack(xs)
        fallback, size = calls[-1]  # the points that failed, on the Gauss lattice
        gauss_lattice_only(monkeypatch)
        at = np.isin(xs, fallback)
        assert np.array_equal(got[:, at], stack(fallback)) and calls[-1][1] == size
        if len(calls) == 2:  # one call, all on the Gauss lattice
            assert at.all() and xs is self.XS
        else:
            assert 0 < at.sum() < at.size / 10 and xs is not self.XS
            want = stack(xs)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_each_row_alone_and_a_scalar_give_the_stacks_bits(self, orders):
        f = corpus_member("gauss_osc").rf
        maps = (*khat_maps(2, 0.3), difference_terms(2, (1, 0)))
        stack = steklov_combination(f, 0.3, *maps)
        values = stack(self.XS)
        assert orders and all(orders)
        for row, want in zip(stack.rows, values):
            assert np.array_equal(row(self.XS), want)
        for x in (-0.6, 0.45):
            assert np.array_equal(stack(np.asarray(x)), stack(np.array([x]))[:, 0])

    @pytest.mark.parametrize("d", [0.1, 0.5, 1.0])
    def test_eighth_iterate_of_a_gaussian_against_mpmath(self, d, orders):
        # T_d^8 f(x) = int_0^8 B_8(u) f(x + d u) du at 30 digits, on every
        # sixth point of a call the product rule serves
        xs = np.linspace(-4.0, 3.0, 71)
        got = iterated_steklov(as_real_function(parse("exp(-x^2)")), d, 8)(xs)
        assert orders and all(orders)

        def b8(t):
            return sum((-1) ** i * math.comb(8, i) * (t - i) ** 7
                       for i in range(int(t) + 1)) / mpmath.factorial(7)
        with mpmath.workdps(30):
            for x, value in zip(xs[::6], got[::6]):
                x, dm = mpmath.mpf(float(x)), mpmath.mpf(d)
                exact = mpmath.quad(lambda u: b8(u) * mpmath.exp(-(x + dm * u) ** 2),
                                    list(range(9)), method="gauss-legendre")
                assert abs(value - float(exact)) <= 1e-15

    def test_a_long_double_of_double_precision_keeps_the_gauss_bits(self, monkeypatch, orders):
        # the exact moments need long double: where numpy's is double (MSVC,
        # macOS on arm64) every call takes the Gauss lattice, bit for bit
        stack = steklov_combination(corpus_member("gauss").rf, 0.5, *khat_maps(2, 0.5))
        served = stack(self.XS)
        monkeypatch.setattr(steklov, "_LONG_DOUBLE", False)
        got = stack(self.XS)
        assert orders == [orders[0], 0] and orders[0]
        gauss_lattice_only(monkeypatch)
        assert np.array_equal(got, stack(self.XS)) and not np.array_equal(got, served)

    def test_second_modulus_of_a_gaussian_at_its_rounding_floor(self):
        # (I - T_d)^2 reaches top 2 and keeps the Gauss lattice: Omega_2(gauss,
        # 1e-4) in sup is within 2e-17 of its 40-digit value (the Gauss lattice
        # reads 1.4e-17 off it; a product rule on top-2 lattices read 2.4e-16 off)
        m = corpus_member("gauss")
        erf = lambda s: mpmath.sqrt(mpmath.pi) / 2 * mpmath.erf(s)  # int e^(-s^2)
        ser = lambda s: -mpmath.exp(-s * s) / 2                  # int s e^(-s^2)

        def second_difference(x):  # f - 2 T f + T^2 f, T^2 through B_2's two pieces
            t1 = (erf(x + d) - erf(x)) / d
            t2 = (ser(x + d) - x * erf(x + d) - ser(x) + x * erf(x)
                  + (2 * d + x) * (erf(x + 2 * d) - erf(x + d)) - ser(x + 2 * d) + ser(x + d))
            return mpmath.exp(-x * x) - 2 * t1 + t2 / d ** 2
        with mpmath.workdps(40):
            d = mpmath.mpf("1e-4")
            top = mpmath.findroot(lambda x: mpmath.diff(second_difference, x), -d)
            exact = float(abs(second_difference(top)))
        got = smoothness.modulus(smoothness.ModulusRequest(m.rf, 2, 1e-4, m.norm_spec()))
        assert exact == pytest.approx(4.99999998333e-9, rel=1e-11)
        assert abs(got - exact) <= 2e-17


class TestIndicatorEngine:
    def test_base_values(self):
        f = corpus_member("box_smooth").rf
        xs = np.array([-0.2, -0.05, 0.5, 0.95, 1.0, 1.2])
        assert np.allclose(engine(f)(xs), [0.0, 0.5, 1.0, 0.5, 0.0, 0.0], atol=1e-14)

    def test_matches_textual_abs_form(self):
        # the grammar form of the once-averaged box is T_0.1 of the box
        textual = parse(corpus_member("box_smooth").expr.src)
        xs = np.linspace(-0.5, 1.5, 401)
        closed = np.clip((1.0 - xs) / 0.1, 0.0, 1.0) - np.clip(-xs / 0.1, 0.0, 1.0)
        assert np.max(np.abs(textual(xs) - closed)) < 1e-13

    def test_smoothed_box_terms(self):
        # T_0.1 1_[0,1] = 10 ((-0.1 - x)_+ - (0 - x)_+ - (0.9 - x)_+ + (1 - x)_+)
        terms = engine(corpus_member("box_smooth").rf).terms
        want = [(10.0, -0.1, 1), (-10.0, 0.0, 1), (-10.0, 0.9, 1), (10.0, 1.0, 1)]
        assert [n for *_, n in terms] == [n for *_, n in want]
        assert np.allclose([t[:2] for t in terms], [t[:2] for t in want],
                           rtol=1e-15, atol=1e-16)

    def test_iterates_match_nesting(self):
        f = corpus_member("box_smooth").rf
        pts = np.linspace(-1.5, 1.5, 13)
        for k in (1, 2, 3):
            kern = iterated_steklov(f, 0.35, k)
            nest = nested_steklov(f, 0.35, k)
            assert np.max(np.abs(kern(pts) - nest(pts))) < 1e-11

    @pytest.mark.parametrize("name", ["box", "box_smooth"])
    def test_iterates_vanish_off_the_support(self, name):
        eng = engine(corpus_member(name).rf)
        lo, hi = min(b for _, b, _ in eng.terms), max(b for _, b, _ in eng.terms)
        d, k = 0.3, 5
        xs = np.concatenate([np.linspace(lo - k * d - 40.0, lo - k * d, 50),
                             np.linspace(hi, hi + 40.0, 50)])
        assert np.all(eng.iterated(d, k)(xs) == 0.0)

    def test_zeroth_iterate_is_the_expression(self):
        # the closed interval: the box is 1 at both ends
        eng = engine(box_member())
        assert np.array_equal(eng.iterated(0.5, 0)(np.array([0.0, 1.0])), [1.0, 1.0])

    def test_mass_preserved(self):
        # averaging preserves the integral: int T_d^k box = 1
        f = box_member()
        t = iterated_steklov(f, 0.5, 4)
        xs = np.linspace(-4, 2, 600001)
        assert np.trapezoid(t(xs), xs) == pytest.approx(1.0, abs=1e-9)


class TestRawRoughSources:
    # a raw source's jumps and kinks are read off its tree, so the quadrature
    # splits its panels there; these answers were off by 0.050 and 5.7e-4
    # while the tree gave no breakpoints
    def test_jump_plus_smooth_matches_its_parts(self):
        f = resolve_function("indicator(0,1)+x*exp(-x^2)").rf
        xs = np.linspace(-2.0, 3.0, 501)
        for d in (0.05, 0.3):
            want = (iterated_steklov(corpus_member("box").rf, d, 1)(xs)
                    + iterated_steklov(corpus_member("xgauss").rf, d, 1)(xs))
            assert np.max(np.abs(iterated_steklov(f, d, 1)(xs) - want)) <= 1e-12

    def test_kink_matches_closed_form(self):
        f = resolve_function("exp(-abs(x))").rf
        d = 0.5
        xs = np.linspace(-3.0, 3.0, 601)
        prim = lambda y: np.where(y < 0.0, np.exp(y), 2.0 - np.exp(-y))  # noqa: E731
        want = (prim(xs + d) - prim(xs)) / d
        assert np.max(np.abs(iterated_steklov(f, d, 1)(xs) - want)) <= 1e-12

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_iterates_match_nesting(self, k):
        f = resolve_function("indicator(0,1)+x*exp(-x^2)").rf
        pts = np.linspace(-1.5, 1.5, 13)
        got = iterated_steklov(f, 0.3, k)(pts)
        assert np.max(np.abs(got - nested_steklov(f, 0.3, k)(pts))) < 1e-12

    def test_oscillating_jump_matches_closed_form(self):
        # points near a jump keep the oscillation subpanels; on bare unit
        # panels this was off by 3.8e-2
        f = resolve_function("indicator(-1, 1)*sin(40*x)").rf
        d = 1.0
        xs = np.linspace(-3.0, 2.0, 501)
        a, b = np.clip(xs, -1.0, 1.0), np.clip(xs + d, -1.0, 1.0)
        want = (np.cos(40.0 * a) - np.cos(40.0 * b)) / (40.0 * d)
        assert np.max(np.abs(iterated_steklov(f, d, 1)(xs) - want)) <= 1e-13

    @pytest.mark.parametrize("src, k", [("sin(20*x)^8", 1), ("sin(30*abs(x))", 3)])
    def test_oscillation_matches_quad(self, src, k):
        # the lattice's subpanels follow the frequency bound of the whole
        # tree; read off single sin nodes, these were off by 8.0e-5 and 4.5e-4
        from scipy.integrate import quad
        from scipy.interpolate import BSpline
        f = resolve_function(src).rf
        kernel = BSpline.basis_element(np.arange(k + 1.0), extrapolate=False)
        xs = np.linspace(-3.0, 2.0, 41)
        want = [quad(lambda u: f(x + u) * kernel(u), 0.0, k, epsabs=1e-14, epsrel=1e-14,
                     limit=500, points=[u for u in (*range(1, k), -x) if 0.0 < u < k] or None)[0]
                for x in xs]
        assert np.max(np.abs(iterated_steklov(f, 1.0, k)(xs) - want)) <= 1e-12

    def test_one_f_call_per_evaluation(self):
        # all terms share one lattice, near the jumps and away from them;
        # one call per term made three
        rf = resolve_function("indicator(0,1)+x*exp(-x^2)").rf
        assert engine(rf) is None and rf.breakpoints
        calls = []

        def counting(y):
            calls.append(np.size(y))
            return rf.fn(y)
        op = steklov_combination(replace(rf, fn=counting), 0.3, difference_terms(2, (1, 0)))
        for xs in (np.linspace(-3.0, -2.0, 11), np.linspace(-0.5, -0.1, 11)):
            calls.clear()
            op(xs)
            assert len(calls) == 1

    def test_smoothed_box_source_is_the_bundled_member(self):
        # the raw source's sup-norm modulus read 0.138813 against 0.138071
        from vexp.smoothness import ModulusRequest, modulus
        raw = resolve_function(corpus_member("box_smooth").expr.src).rf
        bundled = corpus_member("box_smooth").rf
        vals = [modulus(ModulusRequest(f, 2, 0.05, NormSpec.sup(6.0))) for f in (raw, bundled)]
        assert vals[0] == pytest.approx(vals[1], rel=1e-12)
        assert vals[1] == pytest.approx(0.138071187457699, rel=1e-12)


class TestBsplines:
    def test_partition_of_unity_and_mass(self):
        for k in (2, 3, 5, 8):
            ts = np.linspace(0.0, k, 101)[:-1]
            total = sum(bspline_value(k, ts - i) for i in range(-k, k + 1))
            assert np.allclose(total, 1.0, atol=1e-12)
            assert bspline_cumulative_quad(k, np.array([float(k)]))[0] == \
                pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("k", range(1, 19))
    def test_pp_form_matches_cox_de_boor(self, k):
        rng = np.random.default_rng(k)
        ts = np.concatenate([np.arange(-1.0, k + 1.5, 0.25),
                             rng.uniform(-1.0, k + 1.0, 2000)])
        got = bspline_value(k, ts)
        assert np.max(np.abs(got - bspline_cox_de_boor(k, ts))) <= 4e-16
        outside = (ts < 0.0) | (ts >= k)
        assert np.all(got[outside] == 0.0)

    def test_hat_function(self):
        ts = np.array([0.5, 1.0, 1.5])
        assert np.allclose(bspline_value(2, ts), [0.5, 1.0, 0.5], atol=1e-14)

    def test_cumulative_against_trapezoid(self):
        ts = np.linspace(0, 3, 7)
        grid = np.linspace(0, 3, 300001)
        b = bspline_value(3, grid)
        idx = np.round(ts / 3.0 * 300000).astype(int)
        oracle = [np.trapezoid(b[:i + 1], grid[:i + 1]) for i in idx]
        assert np.allclose(bspline_cumulative_quad(3, ts), oracle, atol=1e-9)
        assert np.allclose(_horner(3, 3, ts), oracle, atol=1e-9)


def _oracle(k, n, ts):
    return np.array([float(truncated_power_sum(k, n, t)) for t in ts])


class TestPiecewisePolynomialEngine:
    # the pp form against the truncated-power sums evaluated at 30 digits
    @pytest.mark.parametrize("k", list(range(1, 13)) + [18])
    def test_antiderivatives_match_truncated_powers(self, k):
        rng = np.random.default_rng(k)
        ts = np.concatenate([np.arange(-1.0, k + 2.0),
                             rng.uniform(-1.0, k + 1.0, 40)])
        for n in (k, k + 1):
            err = np.abs(_horner(k, n, ts) - _oracle(k, n, ts))
            assert np.max(err) < 1e-14, (k, n)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_indicator_iterates_match_truncated_powers(self, k):
        # T_d^k of c (b - x)_+^n / n! is c d^n A_{k,n}((b - x)/d), and
        # A_{k,n} is the truncated-power sum of degree k + n
        d = 0.35
        xs = np.linspace(-3.5, 1.5, 41)
        for name in ("box", "box_smooth"):
            eng = engine(corpus_member(name).rf)
            got = eng.iterated(d, k)(xs)
            with mpmath.workdps(30):
                md = mpmath.mpf(d)
                for x, v in zip(xs, got):
                    want = sum(c * md ** n * truncated_power_sum(
                        k, k + n, (b - mpmath.mpf(x)) / md) for c, b, n in eng.terms)
                    assert abs(v - want) < 1e-14, (name, x)


def counted(f):
    """f with a log of the sizes of its calls."""
    sizes = []

    def fn(x):
        sizes.append(np.size(x))
        return f.fn(x)
    return replace(f, fn=fn), sizes


class TestSupNorm:
    def test_refines_to_true_max(self):
        # max of x*exp(-x^2) is at x = 1/sqrt(2)
        f = as_real_function(parse("x*exp(-x^2)"))
        val = sup_norm(f, NormSpec.sup(4.0))
        oracle = math.sqrt(0.5) * math.exp(-0.5)
        assert val == pytest.approx(oracle, abs=1e-13)

    def test_finds_the_peak_between_grid_points(self):
        # seven peaks of height 1 sit on the grid (step 0.02); the peaks of
        # height 1.001 sit halfway between grid points, where the samples read
        # 0.99886, so the largest samples all lie on the lower peaks
        a = 6.544984694978736
        f = as_real_function(parse(
            f"cos({a}*x)*(1-indicator(2,4)) + 1.001*cos({a}*(x-0.01))*indicator(2,4)"))
        assert sup_norm(f, NormSpec.sup(4.0)) == pytest.approx(1.001, abs=1e-12)

    @pytest.mark.parametrize("delta, exact", [
        (0.6, 19.0 / 18.0),  # order_compare_sup's lhs, r = 1, k = 1
        (1.0, 1.5),          # the supremum is the limit at the jump 0-
    ])
    def test_box_modulus_to_the_kink(self, delta, exact):
        f = steklov_combination(box_member(), delta, difference_terms(2, (1, 0)))
        assert sup_norm(f, NormSpec.sup(6.0)) == pytest.approx(exact, abs=1e-13)

    @pytest.mark.parametrize("build", [
        lambda: as_real_function(parse("x*exp(-x^2)")),
        lambda: steklov_combination(box_member(), 0.6, difference_terms(1, (1, 0))),
        lambda: combine([(1.0, corpus_member("gauss").rf),
                         (-1.0, vp_operator(corpus_member("gauss").rf, 1.0,
                                            x_span=8.0))]),
        lambda: as_real_function(parse("exp(-(x-6)^2*16)")),
    ], ids=["xgauss", "box_difference", "gauss_minus_J", "far_bump"])
    def test_refinement_budget(self, build):
        # the samples, the eighths of a candidate the tail test names, and
        # the confirming call
        f, sizes = counted(build())
        sup_norm(f, NormSpec.sup(8.0))
        assert 2 <= len(sizes) <= 3

    @pytest.mark.parametrize("r, delta", [(1, 0.1), (1, 1.0), (2, 0.3), (2, 1.0), (2, 1e-4)])
    def test_box_moduli_take_two_calls(self, r, delta):
        # the exact engine's pieces are polynomials of degree < 12, so no
        # panel is refilled: the samples and one confirming call (Omega_2(box,
        # 1) took 17 calls while a bracket closed in on its jump)
        f, sizes = counted(steklov_combination(box_member(), delta,
                                               difference_terms(r, (1, 0))))
        sup_norm(f, NormSpec.sup(6.0))
        assert len(sizes) == 2

    @pytest.mark.parametrize("delta", [0.1, 0.5, 1.0])
    def test_a_peak_at_a_breakpoint_stops_after_one_round(self, delta):
        # d/dx T_d^2 of the box is (T_d box(x + d) - T_d box(x)) / d, largest,
        # 1/d, at its breakpoint -d: a panel's end, read an ulp inside it by
        # the one call after the samples
        f, sizes = counted(steklov_combination(box_member(), delta,
                                               derivative_terms(delta, 2, 1)))
        assert sup_norm(f, NormSpec.sup(6.0)) == pytest.approx(1.0 / delta, rel=1e-15)
        assert len(sizes) == 2

    @pytest.mark.parametrize("src, top", [
        ("1/(1+1000*(x-0.1)^2)", 1.0), ("exp(-400*(x-0.3)^2)", 1.0), ("exp(-400*(x-5.3)^2)", 1.0),
        # a bump 0.014 wide far from 0, beside a larger smooth hill
        ("0.5*exp(-x^2)+exp(-10000*(x-5.12325)^2)", 1.0 + 0.5 * math.exp(-5.12325 ** 2)),
    ])
    def test_a_feature_narrower_than_its_panel(self, src, top):
        # the interpolant of a bump 0.014 to 0.05 wide on a panel of 1/4 puts
        # its maximum off the peak (0.99609 and 0.99999 read); the tail test
        # names that candidate, and its eighths (and theirs) resolve it
        f, sizes = counted(as_real_function(parse(src)))
        assert sup_norm(f, NormSpec.sup(8.0)) == pytest.approx(top, rel=1e-12)
        assert len(sizes) <= 4

    def test_a_narrow_bump_is_found_anywhere(self):
        # a bump 0.01 wide beside a larger smooth hill, at 41 places across
        # two panels: its samples, the tail test and two rounds of eighths
        # find it at each
        for c in map(float, np.linspace(4.0, 4.5, 41)):
            f = as_real_function(parse(f"0.5*exp(-x^2)+exp(-20000*(x-{c!r})^2)"))
            want = 1.0 + 0.5 * math.exp(-c * c)
            assert sup_norm(f, NormSpec.sup(8.0)) == pytest.approx(want, rel=1e-12), c

    @pytest.mark.parametrize("name, want", [
        ("cos_gauss", ("0x1.0000000000000p+0", "0x1.8adcb0bf0d596p-1")),
        ("box", ("0x1.0000000000000p+0", "-0x0.0p+0"))])
    def test_signed_maxima(self, name, want):
        # (max f, max -f) on the member's sup window, as Context.a0 reads
        # them, to the bits the signed panel maxima had before sup_norm took
        # them in; Python floats, as audit rows compare them
        m = corpus_member(name)
        got = sup_norm(m.rf, m.norm_spec(), signed=True)
        assert all(type(v) is float for v in got)
        assert tuple(map(float.hex, got)) == want

    def test_signed_maxima_refuse_a_stack(self):
        # the signed branch paired the stack's outputs with f and -f of the
        # whole stack, and numpy failed to broadcast shape (2,) with (4,)
        f = steklov_combination(corpus_member("gauss").rf, 0.5, difference_terms(1, (1, 0)),
                                difference_terms(2, (1, 0)))
        with pytest.raises(ValueError, match="signed maxima need a single-output f"):
            sup_norm(f, NormSpec.sup(8.0), signed=True)

    @staticmethod
    def halved(monkeypatch, sups):
        """sups(spec) on sup panels half as wide, at any frequency; spec(w) is
        the sup norm on [-w, w] at twice NormSpec.sup's 4 panels per unit."""
        monkeypatch.setattr(steklov, "MAX_PHASE", 0.5 * steklov.MAX_PHASE)
        return sups(lambda w: NormSpec(window=w, panels_per_unit=8.0))

    def test_grid_refinement_stability(self, monkeypatch):
        f = as_real_function(parse("cos(3*x)*exp(-x^2/4)"))
        v1 = sup_norm(f, NormSpec.sup(6.0))
        v2 = self.halved(monkeypatch, lambda spec: sup_norm(f, spec(6.0)))
        assert abs(v1 - v2) <= 1e-12 * v1

    def test_grid_refinement_stability_corpus(self, monkeypatch):
        # panel adequacy is validated, not assumed: halving the panels moves
        # no bundled member's sup, nor that of its (I - T_0.3)^2, by 1e-12
        from vexp.corpus import default_corpus
        cases = [(m.name, f, m.sup_window) for m in default_corpus()
                 for f in (m.rf, steklov_combination(m.rf, 0.3, difference_terms(2, (1, 0))))]
        before = [sup_norm(f, NormSpec.sup(w)) for _, f, w in cases]
        after = self.halved(monkeypatch, lambda spec: [sup_norm(f, spec(w)) for _, f, w in cases])
        for (name, _, _), v1, v2 in zip(cases, before, after):
            assert abs(v1 - v2) <= 1e-12 * v1, name

