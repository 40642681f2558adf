import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexp.audit import AuditCase, Context, run_case
from vexp.corpus import (corpus_member, default_corpus, exponent_field,
                         resolve_exponent)
from vexp.fnexpr import ExponentField, parse
from vexp.functions import RealFunction, as_real_function, combine
from vexp.norms import (NormSpec, NotIntegrableError, SampledModular,
                        luxemburg_norm, norm_of)

GAUSS = as_real_function(parse("exp(-x^2)"))


def box():
    return as_real_function(parse("indicator(0, 1)"))


class TestModular:
    def test_zero_function(self, p2):
        zero = as_real_function(parse("0"))
        assert SampledModular(zero, p2, 12.0).value(1.0) == 0.0

    def test_box_mass(self, p2):
        assert SampledModular(box(), p2, 12.0).value(1.0) == \
            pytest.approx(1.0, abs=1e-12)

    def test_gaussian_closed_form(self, p2):
        assert SampledModular(GAUSS, p2, 12.0).value(1.0) == \
            pytest.approx(math.sqrt(math.pi / 2.0), abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 4.0), st.floats(1.05, 3.0))
    def test_monotone_in_scale(self, lam, factor):
        p = ExponentField.from_expr("2 + 1/(1+x^2)")
        sm = SampledModular(GAUSS, p, 12.0)
        assert sm.value(lam) >= sm.value(lam * factor) - 1e-12


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
    ("@p2", 6), ("1", 6), ("3", 6), ("@p_bump", 12), ("@p_osc", 12),
])
def test_modular_evaluations_per_root(monkeypatch, p, most):
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

    def test_sup_dispatch(self):
        val = norm_of(GAUSS, NormSpec.sup(6.0))
        assert val == pytest.approx(1.0, abs=1e-12)
