import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexp.audit import AuditCase, Context, run_case
from vexp.corpus import (corpus_member, default_corpus, exponent_field,
                         resolve_exponent)
from vexp.fnexpr import ExponentField, parse
from vexp.functions import RealFunction, as_real_function, combine
from vexp import norms
from vexp.norms import (NormSpec, NotIntegrableError, SampledModular, _row_samples,
                        luxemburg_norm, norm_of)
from vexp.quad import panel_rule, split_at, window_nodes
from vexp.smoothness import k_functional_upper
from vexp.steklov import difference_terms, steklov_combination

GAUSS = as_real_function(parse("exp(-x^2)"))


def box():
    return as_real_function(parse("indicator(0, 1)"))


class TestModular:
    # value() is the modular and its slope d log(modular) / d log(lam)
    def test_zero_function(self, p2):
        zero = as_real_function(parse("0"))
        modular, slope = SampledModular(zero, NormSpec.vexp(p2, 12.0)).value(1.0)
        assert modular == 0.0 and math.isnan(slope)

    def test_box_mass(self, p2):
        modular, slope = SampledModular(box(), NormSpec.vexp(p2, 12.0)).value(1.0)
        assert modular == pytest.approx(1.0, abs=1e-12)
        assert slope == -2.0

    def test_gaussian_closed_form(self, p2):
        modular, slope = SampledModular(GAUSS, NormSpec.vexp(p2, 12.0)).value(1.0)
        assert modular == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-10)
        assert slope == pytest.approx(-2.0, rel=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 4.0), st.floats(1.05, 3.0))
    def test_monotone_in_scale(self, lam, factor):
        p = ExponentField.from_expr("2 + 1/(1+x^2)")
        sm = SampledModular(GAUSS, NormSpec.vexp(p, 12.0))
        (modular, slope), (scaled, _) = sm.value(lam), sm.value(lam * factor)
        assert modular >= scaled - 1e-12
        assert p.p_minus * (1 - 1e-15) <= -slope <= p.p_plus * (1 + 1e-15)

    @pytest.mark.parametrize("lam", [0.3, 1.0, 3.0])
    def test_slope_is_the_log_log_derivative(self, p_bump, lam):
        sm = SampledModular(GAUSS, NormSpec.vexp(p_bump, 12.0))
        h = 1e-5
        up, down = sm.value(lam * math.exp(h))[0], sm.value(lam * math.exp(-h))[0]
        assert sm.value(lam)[1] == pytest.approx(
            (math.log(up) - math.log(down)) / (2.0 * h), rel=1e-8)


class TestLuxemburg:
    def test_zero_function(self, p2):
        zero = as_real_function(parse("0"))
        res = luxemburg_norm(zero, p2, window=10.0)
        assert res.value == 0.0 and res.bracket_used is None

    def test_box_is_one_in_any_exponent(self, p2, p_bump):
        for p in (p2, p_bump):
            assert luxemburg_norm(box(), p, window=12.0).value == \
                pytest.approx(1.0, abs=1e-10)

    def test_constant_exponent_reduction(self, p1, p2):
        # matches classical L_q norms of the Gaussian
        p3 = ExponentField.from_expr("3")
        oracles = {1: math.sqrt(math.pi),
                   2: (math.pi / 2.0) ** 0.25,
                   3: math.sqrt(math.pi / 3.0) ** (1.0 / 3.0)}
        for p, q in ((p1, 1), (p2, 2), (p3, 3)):
            assert luxemburg_norm(GAUSS, p, window=12.0).value == \
                pytest.approx(oracles[q], abs=1e-6)

    def test_constant_exponent_closed_form(self, p1, p2):
        # int exp(-q x^2) dx = sqrt(pi/q), so ||gauss||_q = (pi/q)^(1/(2q))
        for p, q in ((p1, 1), (p2, 2), (ExponentField.from_expr("3"), 3)):
            assert luxemburg_norm(GAUSS, p, window=12.0).value == \
                pytest.approx((math.pi / q) ** (0.5 / q), rel=1e-14)

    def test_scaled_box_variable_exponent_root(self):
        # f = 2 * box and p(x) = 2 + x on the support: the modular of f/eta
        # is int_0^1 (2/eta)^(2+x) dx, identically 1 at eta = 2
        f2 = as_real_function(parse("2*indicator(0, 1)"))
        p = ExponentField(expr=parse("2 + x"), p_minus=2.0, p_plus=3.0,
                          p_infinity=2.0, c_log_local=0.0, c_log_decay=0.0,
                          name="2+x")
        res = luxemburg_norm(f2, p, window=12.0)
        assert res.value == pytest.approx(2.0, abs=1e-9)
        assert res.modular_at_value == pytest.approx(1.0, abs=1e-6)

    def test_modular_at_root_is_one(self, p_bump):
        res = luxemburg_norm(GAUSS, p_bump, window=12.0)
        assert res.modular_at_value == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("c", [2.0, 1.0 / 3.0, 10.0])
    def test_homogeneity(self, p_bump, c):
        base = luxemburg_norm(GAUSS, p_bump, window=12.0).value
        scaled = RealFunction(fn=lambda x, c=c: c * GAUSS.fn(x))
        val = luxemburg_norm(scaled, p_bump, window=12.0).value
        assert abs(val - c * base) <= 1e-8 * c * base

    @pytest.mark.parametrize("pair", [
        ("gauss", "xgauss"), ("gauss_osc", "lorentz"),
        ("box", "box_smooth"), ("sinc1", "cos_gauss"),
    ])
    def test_triangle_inequality(self, p_bump, pair):
        from vexp.corpus import corpus_member
        a = corpus_member(pair[0])
        b = corpus_member(pair[1])
        win = max(a.norm_window, b.norm_window)
        ppu = max(a.panels_per_unit, b.panels_per_unit)
        s = combine([(1.0, a.rf), (1.0, b.rf)])
        lhs = luxemburg_norm(s, p_bump, window=win, panels_per_unit=ppu).value
        rhs = (luxemburg_norm(a.rf, p_bump, window=win, panels_per_unit=ppu).value
               + luxemburg_norm(b.rf, p_bump, window=win, panels_per_unit=ppu).value)
        assert lhs <= rhs + 1e-9

    def test_not_integrable_signalled(self, p2):
        grower = as_real_function(parse("exp(x^2)"))
        with pytest.raises(NotIntegrableError):
            luxemburg_norm(grower, p2, window=10.0)

    def test_operator_output_needs_a_window(self, p2):
        # every norm is given its window: there is no default to fall back on
        with pytest.raises(TypeError):
            NormSpec.vexp(p2)


@pytest.mark.parametrize("p, most", [
    ("@p2", 2), ("1", 2), ("3", 2), ("@p_bump", 5), ("@p_osc", 5),
])
def test_modular_evaluations_per_root(monkeypatch, p, most):
    # one pass at t = 0 and one at the first tangent step, which is the root
    # for constant p; variable p takes at most three Newton steps more
    calls = []
    value = SampledModular.value

    def counted(self, *args):
        calls[-1] += 1
        return value(self, *args)
    monkeypatch.setattr(SampledModular, "value", counted)
    field = resolve_exponent(p)
    for m in default_corpus():
        calls.append(0)
        spec = m.norm_spec(field)
        luxemburg_norm(m.rf, field, window=spec.window,
                       panels_per_unit=spec.panels_per_unit)
    assert max(calls) <= most


@pytest.mark.parametrize("p, most", [("@p2", 3), ("@p_osc", 5)])
def test_root_at_the_rounding_floor_stops(monkeypatch, p, most):
    # ||gauss_wide - J(gauss_wide, 4)|| is about 1e-15: log(modular) rounds
    # to about 5e-15 near the root, above the root's tolerance, and the
    # Newton steps crept an ulp at a time until the bracket closed (6 and 7
    # passes); they stop at the first step that fails to shrink |log
    # modular| or crosses the root
    from vexp.bandlimited import best_approx_surrogate
    calls = []
    value = SampledModular.value

    def counted(self, *args):
        calls.append(args)
        return value(self, *args)
    monkeypatch.setattr(SampledModular, "value", counted)
    m = corpus_member("gauss_wide")
    got = best_approx_surrogate(m.rf, 8.0, m.norm_spec(resolve_exponent(p))).value
    assert len(calls) <= most
    assert 0.0 < got < 2e-15


ROOT_EXPONENTS = ["@p2", "1", "3", "@p_bump", "@p_osc"]


def corpus_norms(p: str):
    """(member, its norm spec, its norm) in p over the corpus."""
    field = resolve_exponent(p)
    for m in default_corpus():
        spec = m.norm_spec(field)
        yield m, spec, luxemburg_norm(m.rf, field, window=spec.window,
                                      panels_per_unit=spec.panels_per_unit)


@pytest.mark.parametrize("p", ROOT_EXPONENTS)
def test_modular_at_the_root_is_one(p):
    # the benchmark's check: the root is within tol of the scale, and the
    # modular's log-log slope there is at most p+
    p_plus = resolve_exponent(p).p_plus
    for m, _, res in corpus_norms(p):
        allowed = 2.0 * p_plus * res.bracket_used.tol / res.value
        assert abs(res.modular_at_value - 1.0) <= allowed, m.name


@pytest.mark.parametrize("p", [q for q in ROOT_EXPONENTS if resolve_exponent(q).is_constant])
def test_constant_exponent_root_is_the_power_mean(p):
    # for constant p the first tangent step lands on (sum w s^p)^(1/p)
    field = resolve_exponent(p)
    q = field.p_minus
    for m, spec, res in corpus_norms(p):
        ((x, w, _),) = _row_samples(m.rf, spec)
        direct = float(np.sum(w * np.abs(m.rf(x)) ** q)) ** (1.0 / q)
        assert abs(res.value - direct) <= 2 * math.ulp(direct), m.name


# The bundled members and exponents below are even, so the modular is twice
# the integral over [0, window].
ORACLE_F = {"gauss": lambda x: -x * x,
            "lorentz2": lambda x: -2 * mpmath.log(1 + x * x)}  # log f
ORACLE_P = {"p_bump": lambda x: 2 + 1 / (1 + x * x),
            "p_osc": lambda x: mpmath.mpf(3) / 2 + mpmath.sin(x) ** 2 / (1 + x * x)}


def oracle_norm(log_f, p, window: float, start: float):
    """The Luxemburg norm on [-window, window] at 30 digits, by Newton's method
    in u = log(eta) from start.  One complex quadrature per step gives the
    modular m(u) (real part) and -m'(u) (imaginary part)."""
    with mpmath.workdps(30):
        cuts = [0, 1, 2, 4, 8] + list(range(16, int(window), 8)) + [window]
        u = mpmath.log(start)
        for _ in range(3):  # from 1e-6: 1e-12, 1e-24, then 30 digits
            def integrand(x):
                px = p(x)
                return mpmath.exp(px * (log_f(x) - u)) * mpmath.mpc(1, px)
            m = 2 * mpmath.quad(integrand, cuts)
            step = (m.real - 1) / m.imag
            u += step
        assert abs(step) < 1e-20
        return mpmath.exp(u)


@pytest.mark.parametrize("f", ["gauss", "lorentz2"])
@pytest.mark.parametrize("p", ["p_bump", "p_osc"])
def test_variable_exponent_norm_against_mpmath(f, p):
    m, field = corpus_member(f), exponent_field(p)
    spec = m.norm_spec(field)
    got = luxemburg_norm(m.rf, field, window=spec.window,
                         panels_per_unit=spec.panels_per_unit).value
    exact = oracle_norm(ORACLE_F[f], ORACLE_P[p], spec.window, float(f"{got:.6g}"))
    assert abs(got - exact) <= 1e-11 * exact


def holder_row(f: str, p: str):
    """The audit's Holder row for the pair (f, f)."""
    case = AuditCase(theorem="holder", f_src=f, g_src=f, p_src=p)
    return run_case(Context(), case)[0]


class TestHolder:
    def test_box_pair(self):
        row = holder_row("@box", "@p2")
        assert row.lhs == pytest.approx(1.0, abs=1e-12)
        assert row.rhs == pytest.approx(2.0, abs=1e-9)
        assert row.ratio == pytest.approx(0.5, abs=1e-9)
        assert row.passed

    def test_gaussian_pair(self):
        row = holder_row("@gauss", "@p2")
        assert row.lhs == pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-9)
        assert row.rhs == pytest.approx(2.0 * math.sqrt(math.pi / 2.0), abs=1e-6)
        assert row.ratio == pytest.approx(0.5, abs=1e-6)

    def test_variable_exponent_passes(self):
        row = holder_row("@box", "@p_bump")
        assert row.passed and row.ratio <= 1.0

    def test_rejects_pminus_one(self):
        with pytest.raises(ValueError):
            holder_row("@gauss", "1")


class TestNormSpec:
    @pytest.mark.parametrize("window", [0.0, -5.0, math.nan])
    def test_nonpositive_window_rejected(self, p2, window):
        # window 0 used to fall back to the member's window, and -5 to
        # integrate over [-5, 5]
        for make in (lambda: NormSpec.sup(window), lambda: NormSpec.vexp(p2, window),
                     lambda: corpus_member("gauss").norm_spec(p2, window),
                     lambda: corpus_member("gauss").norm_spec(None, window)):
            with pytest.raises(ValueError, match="window must be positive"):
                make()

    @pytest.mark.parametrize("ppu", [0.0, -1.0, math.nan, math.inf])
    def test_panel_density_must_be_positive_and_finite(self, p2, ppu):
        # 0 raised ZeroDivisionError in the window rule, -1 gave 16 panels
        # (gauss in p_bump read 1.02852647654), nan and inf numpy errors
        for make in (lambda: NormSpec.vexp(p2, 10.0, ppu),
                     lambda: NormSpec(window=10.0, panels_per_unit=ppu)):
            with pytest.raises(ValueError, match="panels_per_unit must be positive and finite"):
                make()

    @pytest.mark.parametrize("name, window, ppu", [
        ("panels_per_unit", 14.0, -1.0), ("panels_per_unit", 14.0, 0.0),
        ("panels_per_unit", 14.0, math.nan), ("window", -14.0, 4.0)])
    def test_every_entry_point_meets_the_spec_check(self, name, window, ppu):
        # luxemburg_norm took both loose: at -1 per unit it read
        # 1.028526476541672 off 16 panels, and window -14 raised "math
        # domain error"; the samplers take only a NormSpec
        p_bump = exponent_field("p_bump")
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            luxemburg_norm(GAUSS, p_bump, window=window, panels_per_unit=ppu)
        for entry in (SampledModular, norm_of):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                entry(GAUSS, NormSpec.vexp(p_bump, window, ppu))

    def test_the_modular_refuses_a_sup_spec(self):
        # a sup spec has no exponent: _row_samples failed on
        # "'NoneType' object has no attribute 'is_constant'"
        with pytest.raises(ValueError, match="norm_of takes the sup norm"):
            SampledModular(GAUSS, NormSpec.sup(8.0))

    def test_both_norms_refuse_a_window_of_too_many_panels(self, p2):
        # one window rule caps both norms, before anything is allocated
        for make in (NormSpec.sup, lambda w: NormSpec.vexp(p2, w)):
            with pytest.raises(ValueError, match="needs 800000000 panels at 4 per unit"):
                norm_of(GAUSS, make(1e8))
            with pytest.raises(ValueError, match="needs 32769 panels"):
                norm_of(GAUSS, make(4096.125))
            assert norm_of(GAUSS, make(4096.0)) == pytest.approx(norm_of(GAUSS, make(12.0)))

    def test_sup_dispatch(self):
        val = norm_of(GAUSS, NormSpec.sup(6.0))
        assert val == pytest.approx(1.0, abs=1e-12)


class TestGradedGrid:
    # norms sample on panels that widen with |x| where |f|^p is smooth, and
    # take the uniform panels back where an output changes sign (p not an
    # even integer) or shows a feature the grading did not allow for
    @staticmethod
    def uniform(monkeypatch, spec, factor=1.0):
        """spec on the uniform grid, at factor times its panel density."""
        monkeypatch.setattr(norms, "_widest_panel", lambda f, p, even: 0.0)
        return NormSpec.vexp(spec.p, spec.window, factor * spec.panels_per_unit)

    @staticmethod
    def values(m, spec):
        """The member's norm and K-hat (r = 2) with its parts at d = 0.1, 1."""
        out = [norm_of(m.rf, spec)]
        for d in (0.1, 1.0):
            k = k_functional_upper(m.rf, 2, d, spec)
            out += [k.value, k.f_minus_g_norm, k.g_deriv_norm]
        return out

    @pytest.mark.parametrize("p", ["p2", "p_bump", "p_osc"])
    @pytest.mark.parametrize("name", ["lorentz", "lorentz2", "gauss_wide", "x2gauss",
                                      "box_smooth"])
    def test_as_close_to_a_dense_reference_as_the_uniform_grid(self, monkeypatch, name, p):
        m = corpus_member(name)
        spec = m.norm_spec(exponent_field(p))
        graded = self.values(m, spec)
        with monkeypatch.context() as mp:
            today = self.values(m, self.uniform(mp, spec))
            ref = self.values(m, self.uniform(mp, spec, 8.0))
        for g, t, r in zip(graded, today, ref):
            assert abs(g - r) <= 2.0 * max(abs(t - r), 1e-13 * r)

    def test_sinc_in_p2_as_close_as_the_uniform_grid(self, monkeypatch):
        m = corpus_member("sinc1")
        spec = m.norm_spec(exponent_field("p2"))
        # 6 radians of sinc's phase a panel: under a quarter of the uniform nodes
        assert _row_samples(m.rf, spec)[0][0].size \
            < 0.25 * window_nodes(spec.window, spec.panels_per_unit, ())[0].size
        graded = norm_of(m.rf, spec)
        today = norm_of(m.rf, self.uniform(monkeypatch, spec))
        ref = norm_of(m.rf, self.uniform(monkeypatch, spec, 8.0))
        assert abs(graded - ref) <= 2.0 * max(abs(today - ref), 1e-13 * ref)

    @pytest.mark.parametrize("window, ppu, breakpoints, widest", [
        (14.0, 4.0, (), math.inf), (250.0, 2.0, (), 3.0), (12.0, 4.0, (0.0, 1.0), math.inf),
        (10.1, 4.0, (-0.15, 0.3, 7.77), 1.2), (60.0, 2.0, (), 0.0), (1.0, 4.0, (), math.inf)])
    def test_graded_edges_are_uniform_edges(self, window, ppu, breakpoints, widest):
        # the graded rule is the 12-point rule on a subset of the uniform
        # edges (split at the breakpoints), and `first` names that subset
        x, w, first, graded = window_nodes(window, ppu, breakpoints, widest)
        n = max(16, math.ceil(2.0 * window * ppu))
        edges = split_at(np.linspace(-window, window, n + 1), breakpoints)
        assert first[0] == 0 and first[-1] == edges.size - 1
        assert np.all(np.diff(first) >= 1)
        assert np.array_equal(graded, edges[first])
        gx, gw = panel_rule(edges[first], 12)
        assert np.array_equal(gx, x) and np.array_equal(gw, w)
        if widest == 0.0:
            assert np.array_equal(first, np.arange(edges.size))
        else:
            assert x.size < window_nodes(window, ppu, breakpoints)[0].size

    @staticmethod
    def sign_changing():
        """(I - T_d)^2 of gauss_wide at d = 0.5 and its grid's arguments."""
        m = corpus_member("gauss_wide")
        g = steklov_combination(m.rf, 0.5, difference_terms(2, (1, 0)))
        return g, m.norm_window, m.panels_per_unit

    def test_refilled_panels_are_the_uniform_panels(self):
        g, window, ppu = self.sign_changing()
        p = exponent_field("p_osc")
        ((x, w, s),) = _row_samples(g, NormSpec.vexp(p, window, ppu))
        gx, _, first, _ = window_nodes(window, ppu, g.breakpoints,
                                       norms._widest_panel(g, p, False))
        ux, uw, _, _ = window_nodes(window, ppu, g.breakpoints)
        fill = ~np.isin(x, gx)
        assert fill.any()  # a zero of g lies in a wide panel
        # bit for bit the uniform nodes and weights of whole uniform panels
        at = np.flatnonzero(np.isin(ux, x[fill]))
        assert at.size == fill.sum() and at.size % 12 == 0
        assert np.array_equal(np.sort(x[fill]), ux[at]) and np.all(at[::12] % 12 == 0)
        assert np.array_equal(w[fill][np.argsort(x[fill])], uw[at])
        assert np.array_equal(s[fill][np.argsort(x[fill])], g(ux[at]))
        # every sign change of the samples now lies between uniform nodes
        order = np.argsort(x)
        flips = np.flatnonzero(np.diff(np.sign(s[order])) != 0)
        assert np.all(np.isin(x[order][flips], ux) & np.isin(x[order][flips + 1], ux))

    @pytest.mark.parametrize("c", [-3.0, 0.5])
    def test_homogeneous_on_a_sign_changing_output(self, c):
        # c g changes sign in the same panels, so it is refilled alike; each
        # root is within its tolerance, 4 ulps, of its modular's root (the
        # uniform grid of the parent read up to 6 ulps on such outputs)
        g, window, ppu = self.sign_changing()
        p = exponent_field("p_osc")
        cg = RealFunction(fn=lambda x: c * g.fn(x), breakpoints=g.breakpoints,
                          frequency=g.frequency)
        base = luxemburg_norm(g, p, window=window, panels_per_unit=ppu).value
        val = luxemburg_norm(cg, p, window=window, panels_per_unit=ppu).value
        assert abs(val - abs(c) * base) <= 8.0 * math.ulp(abs(c) * base)

    @pytest.mark.parametrize("src, window, exact", [
        ("exp(-(x-15)^2)", 40.0, (math.pi / 2.0) ** 0.25),
        ("1/(1+(x-30)^2)", 60.0, None), ("exp(-4*(x-5)^2)", 12.0, None)])
    def test_a_bump_far_from_the_origin_is_refilled(self, monkeypatch, src, window, exact):
        # the grading assumes f's features widen with |x|; the Legendre tail
        # of the samples finds a bump it did not allow for (1/(1+(x-30)^2)
        # was 1.1e-6 off in p2 without it)
        f = as_real_function(parse(src))
        for p in ("p2", "p_bump"):
            spec = NormSpec.vexp(exponent_field(p), window)
            graded = norm_of(f, spec)
            ref = norm_of(f, self.uniform(monkeypatch, spec, 8.0))
            monkeypatch.undo()
            assert abs(graded - ref) <= 1e-14 * ref
            if exact is not None and p == "p2":
                assert graded == pytest.approx(exact, rel=1e-14)
