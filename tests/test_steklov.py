import math

import mpmath
import numpy as np
import pytest

from vexp.corpus import corpus_member
from vexp.fnexpr import Decay, differentiate, parse
from vexp.functions import RealFunction, as_real_function, combine
from vexp.steklov import (IndicatorSteklov, _antiderivative,
                          _oscillation_subpanels, bspline_value,
                          difference_power, iterated_steklov,
                          steklov_combination, steklov_derivative, sup_norm)

from steklov_oracles import (bspline_cumulative_quad, nested_steklov,
                             truncated_power_sum)

XS = np.linspace(-3.0, 3.0, 25)


def box_member():
    eng = IndicatorSteklov(0.0, 1.0)
    return RealFunction(fn=eng, name="box", decay=Decay.compact(0, 1),
                        breakpoints=(0.0, 1.0), exact=eng)


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
        f = as_real_function(parse("exp(-x^2)*sin(5*x)"),
                             name="osc")
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
        d = difference_power(as_real_function(parse("x")), 0.3, 1)
        assert np.allclose(d(XS), -0.15, atol=1e-13)

    def test_polynomial_annihilation(self):
        # each application of I - T_d lowers the degree by one
        for src, r in (("1", 1), ("x", 2), ("x^2", 3), ("2*x - 1", 2)):
            d = difference_power(as_real_function(parse(src)), 0.7, r)
            assert np.max(np.abs(d(XS))) < 1e-11

    def test_quadratic_r2_closed_form(self):
        # T_d x^2 = x^2 + d x + d^2/3, twice: (I-T)^2 x^2 = d^2/2
        d = difference_power(as_real_function(parse("x^2")), 0.4, 2)
        assert np.allclose(d(XS), 0.08, atol=1e-12)

    def test_delta_zero_collapses(self):
        d = difference_power(as_real_function(parse("exp(-x^2)")), 0.0, 3)
        assert np.all(d(XS) == 0.0)


class TestSteklovDerivative:
    def test_first_order_identity(self):
        # (d/dx) T_d f = (f(x+d) - f(x))/d
        f = as_real_function(parse("exp(-x^2)"))
        sd = steklov_derivative(f, 1.0, 1, 1)
        assert sd(np.array([0.0]))[0] == pytest.approx(math.exp(-1.0) - 1.0,
                                                       abs=1e-14)

    def test_affine_slope(self):
        sd = steklov_derivative(as_real_function(parse("x")), 0.5, 1, 1)
        assert np.allclose(sd(XS), 1.0, atol=1e-12)

    def test_second_order_vs_symbolic_nested_oracle(self):
        # (T_d^2 f)'' = T_d^2 (f'') for smooth f; oracle: literal nesting of
        # the symbolically differentiated integrand
        f = parse("exp(-x^2)")
        sd = steklov_derivative(as_real_function(f), 0.5, 2, 2)
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
        with pytest.raises(ValueError):
            steklov_derivative(as_real_function(parse("x")), 0.5, 1, 2)


def _member(name):
    if name == "box+xgauss":
        # rough and not engine-backed: every iterate is a per-point quadrature
        return combine([(1.0, corpus_member("box").rf),
                        (1.0, corpus_member("xgauss").rf)], name)
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
        got = steklov_combination(f, d, TERMS, "comb")(xs)
        want = sum(c * iterated_steklov(f, d, k)(xs + j * d)
                   for (k, j), c in TERMS.items())
        f_max = np.max(np.abs(f(np.linspace(-4.0, 4.0, 8001))))
        scale = sum(map(abs, TERMS.values())) * f_max
        assert np.max(np.abs(got - want)) <= 1e-13 * scale

    def test_smooth_lattice_has_subpanels(self):
        # the case above puts several panels on each unit of the lattice
        assert _oscillation_subpanels(_member("gauss_osc"), 1.5) > 1

    def test_breakpoints_and_support_of_shifted_iterates(self):
        f = _member("box")
        comb = steklov_combination(f, 0.5, {(0, 1): 1.0, (2, 0): 1.0}, "comb")
        assert comb.breakpoints == (-1.0, -0.5, 0.0, 0.5, 1.0)
        assert (comb.decay.a, comb.decay.b) == (-1.0, 1.0)


class TestIndicatorEngine:
    def test_base_values(self):
        eng = IndicatorSteklov(0.0, 1.0, pre=(0.1,))
        xs = np.array([-0.2, -0.05, 0.5, 0.95, 1.0, 1.2])
        assert np.allclose(eng(xs), [0.0, 0.5, 1.0, 0.5, 0.0, 0.0], atol=1e-14)

    def test_matches_textual_abs_form(self):
        # the grammar form of the once-averaged box evaluates identically
        src = ("((1.1 - abs(x - 0.9) - abs(x))/2"
               " + abs((1.1 - abs(x - 0.9) - abs(x))/2)) / 0.2")
        textual = parse(src)
        eng = IndicatorSteklov(0.0, 1.0, pre=(0.1,))
        xs = np.linspace(-0.5, 1.5, 401)
        assert np.max(np.abs(textual(xs) - eng(xs))) < 1e-13

    def test_iterates_match_nesting(self):
        eng = IndicatorSteklov(0.0, 1.0, pre=(0.1,))
        f = RealFunction(fn=eng, name="box_smooth",
                         decay=Decay.compact(-0.1, 1.0),
                         breakpoints=eng.base_breakpoints(), exact=eng)
        pts = np.linspace(-1.5, 1.5, 13)
        for k in (1, 2, 3):
            kern = iterated_steklov(f, 0.35, k)
            nest = nested_steklov(f, 0.35, k)
            assert np.max(np.abs(kern(pts) - nest(pts))) < 1e-11

    def test_mass_preserved(self):
        # averaging preserves the integral: int T_d^k box = 1
        f = box_member()
        t = iterated_steklov(f, 0.5, 4)
        xs = np.linspace(-4, 2, 600001)
        assert np.trapezoid(t(xs), xs) == pytest.approx(1.0, abs=1e-9)


class TestBsplines:
    def test_partition_of_unity_and_mass(self):
        for k in (2, 3, 5, 8):
            ts = np.linspace(0.0, k, 101)[:-1]
            total = sum(bspline_value(k, ts - i) for i in range(-k, k + 1))
            assert np.allclose(total, 1.0, atol=1e-12)
            assert bspline_cumulative_quad(k, np.array([float(k)]))[0] == \
                pytest.approx(1.0, abs=1e-13)

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
        assert np.allclose(_antiderivative(3, 3, ts), oracle, atol=1e-9)


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
            err = np.abs(_antiderivative(k, n, ts) - _oracle(k, n, ts))
            assert np.max(err) < 1e-14, (k, n)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_indicator_iterates_match_truncated_powers(self, k):
        # T_d^k 1_[0,1] = CB_k((1-x)/d) - CB_k(-x/d); for T_g 1_[0,1], the
        # same with CB_k replaced by differences of int CB_k across g/d,
        # times d/g
        d, g = 0.35, 0.1
        xs = np.linspace(-3.5, 1.5, 41)
        box = IndicatorSteklov(0.0, 1.0).iterated(d, k)(xs)
        smooth = IndicatorSteklov(0.0, 1.0, pre=(g,)).iterated(d, k)(xs)
        with mpmath.workdps(30):
            md, mg = mpmath.mpf(d), mpmath.mpf(g)
            for x, v, w in zip(xs, box, smooth):
                u = (1 - mpmath.mpf(x)) / md, -mpmath.mpf(x) / md
                cb = truncated_power_sum(k, k, u[0]) - truncated_power_sum(k, k, u[1])
                icb = sum(sign * (truncated_power_sum(k, k + 1, t)
                                  - truncated_power_sum(k, k + 1, t - mg / md))
                          for sign, t in zip((1, -1), u))
                assert abs(v - cb) < 1e-14, x
                assert abs(w - md / mg * icb) < 1e-14, x


class TestSupNorm:
    def test_refines_to_true_max(self):
        # max of x*exp(-x^2) is at x = 1/sqrt(2)
        f = as_real_function(parse("x*exp(-x^2)"))
        val = sup_norm(f, 4.0)
        oracle = math.sqrt(0.5) * math.exp(-0.5)
        assert val == pytest.approx(oracle, abs=1e-10)

    def test_grid_refinement_stability(self):
        f = as_real_function(parse("cos(3*x)*exp(-x^2/4)"))
        v1 = sup_norm(f, 6.0, step=0.02)
        v2 = sup_norm(f, 6.0, step=0.01)
        assert abs(v1 - v2) < 1e-8

    def test_grid_refinement_stability_corpus(self):
        # grid adequacy is validated, not assumed: halving the step moves
        # the reported maximum by < 1e-8 on every bundled member
        from vexp.corpus import default_corpus
        for m in default_corpus():
            v1 = sup_norm(m.rf, m.sup_window, step=0.02)
            v2 = sup_norm(m.rf, m.sup_window, step=0.01)
            assert abs(v1 - v2) < 1e-8, m.name


class TestCombineMetadata:
    def test_sum_decay_is_weakest_class(self):
        from vexp.functions import combine
        from vexp.corpus import corpus_member
        box = corpus_member("box").rf
        gauss = corpus_member("gauss").rf
        sinc = corpus_member("sinc1").rf
        assert combine([(1.0, box), (1.0, gauss)], "bg").decay.kind == "gaussian"
        assert combine([(1.0, sinc), (1.0, gauss)], "sg").decay.kind == "power"
        hull = combine([(1.0, box), (1.0, corpus_member("box_smooth").rf)], "bb")
        assert hull.decay.kind == "compact_support"
        assert hull.decay.a == -0.1 and hull.decay.b == 1.0
