import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from vexp import steklov
from vexp.bandlimited import vp_operator
from vexp.corpus import corpus_member, resolve_function
from vexp.fnexpr import differentiate, parse
from vexp.functions import as_real_function, combine
from vexp.steklov import (_horner, _oscillation_subpanels, bspline_value,
                          difference_power, iterated_steklov,
                          steklov_combination, steklov_derivative, sup_norm)

from steklov_oracles import (bspline_cox_de_boor, bspline_cumulative_quad,
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
        assert _oscillation_subpanels(_member("gauss_osc"), 1.5) > 1

    @pytest.mark.parametrize("src", ["@box", "@gauss_osc", "abs(x)*exp(-x^2)"],
                             ids=["engine", "lattice", "split_lattice"])
    def test_each_row_alone_gives_the_stacks_bits(self, src):
        # a stacked sup norm refines each output through its row alone
        f = resolve_function(src).rf
        maps = (TERMS, steklov.derivative_terms(0.3, 3, 2), steklov.difference_terms(2))
        stack = steklov_combination(f, 0.3, *maps)
        xs = np.linspace(-2.5, 2.0, 37)
        assert len(stack.rows) == 3
        for row, want in zip(stack.rows, stack(xs)):
            assert np.array_equal(row(xs), want)
        assert steklov_combination(f, 0.3, TERMS).rows == ()

    def test_breakpoints_of_shifted_iterates(self):
        f = _member("box")
        comb = steklov_combination(f, 0.5, {(0, 1): 1.0, (2, 0): 1.0})
        assert comb.breakpoints == (-1.0, -0.5, 0.0, 0.5, 1.0)


class TestIndicatorEngine:
    def test_base_values(self):
        f = corpus_member("box_smooth").rf
        xs = np.array([-0.2, -0.05, 0.5, 0.95, 1.0, 1.2])
        assert np.allclose(f.exact(xs), [0.0, 0.5, 1.0, 0.5, 0.0, 0.0], atol=1e-14)

    def test_matches_textual_abs_form(self):
        # the grammar form of the once-averaged box is T_0.1 of the box
        textual = parse(corpus_member("box_smooth").expr.src)
        xs = np.linspace(-0.5, 1.5, 401)
        closed = np.clip((1.0 - xs) / 0.1, 0.0, 1.0) - np.clip(-xs / 0.1, 0.0, 1.0)
        assert np.max(np.abs(textual(xs) - closed)) < 1e-13

    def test_smoothed_box_terms(self):
        # T_0.1 1_[0,1] = 10 ((-0.1 - x)_+ - (0 - x)_+ - (0.9 - x)_+ + (1 - x)_+)
        terms = corpus_member("box_smooth").rf.exact.terms
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
        eng = corpus_member(name).rf.exact
        lo, hi = min(b for _, b, _ in eng.terms), max(b for _, b, _ in eng.terms)
        d, k = 0.3, 5
        xs = np.concatenate([np.linspace(lo - k * d - 40.0, lo - k * d, 50),
                             np.linspace(hi, hi + 40.0, 50)])
        assert np.all(eng.iterated(d, k)(xs) == 0.0)

    def test_zeroth_iterate_is_the_expression(self):
        # the closed interval: the box is 1 at both ends
        eng = box_member().exact
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
        assert rf.exact is None and rf.breakpoints
        calls = []

        def counting(y):
            calls.append(np.size(y))
            return rf.fn(y)
        op = difference_power(replace(rf, fn=counting), 0.3, 2)
        for xs in (np.linspace(-3.0, -2.0, 11), np.linspace(-0.5, -0.1, 11)):
            calls.clear()
            op(xs)
            assert len(calls) == 1

    def test_smoothed_box_source_is_the_bundled_member(self):
        # the raw source's sup-norm modulus read 0.138813 against 0.138071
        from vexp.norms import NormSpec
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
            eng = corpus_member(name).rf.exact
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
        val = sup_norm(f, 4.0)
        oracle = math.sqrt(0.5) * math.exp(-0.5)
        assert val == pytest.approx(oracle, abs=1e-13)

    def test_finds_the_peak_between_grid_points(self):
        # seven peaks of height 1 sit on the grid (step 0.02); the peaks of
        # height 1.001 sit halfway between grid points, where the samples read
        # 0.99886, so the largest samples all lie on the lower peaks
        a = 6.544984694978736
        f = as_real_function(parse(
            f"cos({a}*x)*(1-indicator(2,4)) + 1.001*cos({a}*(x-0.01))*indicator(2,4)"))
        assert sup_norm(f, 4.0) == pytest.approx(1.001, abs=1e-12)

    @pytest.mark.parametrize("delta, exact", [
        (0.6, 19.0 / 18.0),  # order_compare_sup's lhs, r = 1, k = 1
        (1.0, 1.5),          # the supremum is the limit at the jump 0-
    ])
    def test_box_modulus_to_the_kink(self, delta, exact):
        f = difference_power(box_member(), delta, 2)
        assert sup_norm(f, 6.0) == pytest.approx(exact, abs=1e-13)

    @pytest.mark.parametrize("build", [
        lambda: as_real_function(parse("x*exp(-x^2)")),
        lambda: difference_power(box_member(), 0.6, 1),
        lambda: combine([(1.0, corpus_member("gauss").rf),
                         (-1.0, vp_operator(corpus_member("gauss").rf, 1.0,
                                            x_span=8.0))]),
    ], ids=["xgauss", "box_difference", "gauss_minus_J"])
    def test_refinement_budget(self, build):
        f, sizes = counted(build())
        sup_norm(f, 8.0)
        refinement = sizes[1:]  # sizes[0] is the grid
        assert 1 <= len(refinement) <= 16
        assert sum(refinement) <= 388

    def test_grid_refinement_stability(self, monkeypatch):
        f = as_real_function(parse("cos(3*x)*exp(-x^2/4)"))
        v1 = sup_norm(f, 6.0)
        monkeypatch.setattr(steklov, "_GRID_STEP", 0.01)
        v2 = sup_norm(f, 6.0)
        assert abs(v1 - v2) < 1e-8

    def test_grid_refinement_stability_corpus(self, monkeypatch):
        # grid adequacy is validated, not assumed: halving the step moves
        # the reported maximum by < 1e-8 on every bundled member (each
        # wavelength / 48 exceeds 0.02, so both grids take the base step)
        from vexp.corpus import default_corpus
        for m in default_corpus():
            v1 = sup_norm(m.rf, m.sup_window)
            with monkeypatch.context() as mp:
                mp.setattr(steklov, "_GRID_STEP", 0.01)
                v2 = sup_norm(m.rf, m.sup_window)
            assert abs(v1 - v2) < 1e-8, m.name

