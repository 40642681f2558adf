import math

import numpy as np
import pytest

from vexp import smoothness, steklov
from vexp.audit import AuditCase, Context, run_case
from vexp.corpus import corpus_member, default_corpus, exponent_field, resolve_function
from vexp.fnexpr import parse
from vexp.functions import RealFunction, as_real_function, combine
from vexp.norms import NormSpec, SampledModular, norm_of
from vexp.smoothness import ModulusRequest, k_functional_upper, modulus

from steklov_oracles import nested_steklov

GAUSS = as_real_function(parse("exp(-x^2)"))
SUP5 = NormSpec.sup(5.0)


class TestModulus:
    @pytest.mark.parametrize("d", [1e-4, 0.1])
    def test_box_first_modulus_closed_form(self, d):
        # (I - T_d) 1_[0,1] is two ramps of height 1 and width d, so its L_2
        # norm is sqrt(2d/3)
        m = corpus_member("box")
        val = modulus(ModulusRequest(m.rf, 1, d, m.norm_spec(exponent_field("p2"))))
        assert val == pytest.approx(math.sqrt(2.0 * d / 3.0), rel=1e-13)

    def test_constant_is_fixed_point(self):
        c = as_real_function(parse("4"))
        for r in (1, 2):
            assert modulus(ModulusRequest(c, r, 0.7, SUP5)) < 1e-13

    def test_affine_sup_value(self):
        # (I - T_d) x = -d/2 identically
        f = as_real_function(parse("x"))
        val = modulus(ModulusRequest(f, 1, 0.2, SUP5))
        assert val == pytest.approx(0.1, abs=1e-12)

    def test_zero_step(self, p2):
        assert modulus(ModulusRequest(GAUSS, 2, 0.0, NormSpec.vexp(p2, window=12.0))) == 0.0

    def test_vexp_against_nested_oracle(self, p2):
        # brute-force oracle: binomial expansion with literally nested
        # averaging, Luxemburg root from a dense Simpson-style sampling
        r, d = 2, 0.5
        val = modulus(ModulusRequest(GAUSS, r, d, NormSpec.vexp(p2, window=12.0)))
        terms = [nested_steklov(GAUSS, d, k) for k in range(r + 1)]

        def h(x):
            acc = np.zeros_like(x)
            for k, t in enumerate(terms):
                acc += (-1.0) ** k * math.comb(r, k) * t.fn(x)
            return acc

        oracle_fn = RealFunction(fn=h)
        sm = SampledModular(oracle_fn, p2, 12.0, panels_per_unit=6.0)
        oracle = sm.luxemburg().value
        assert val == pytest.approx(oracle, abs=1e-7)


class TestKFunctional:
    def test_polynomial_annihilation(self):
        # degree < r: the candidate reproduces f exactly and g^(r) vanishes
        f = as_real_function(parse("2*x - 1"))
        est = k_functional_upper(f, 2, 0.4, SUP5)
        assert est.value < 1e-10
        assert est.f_minus_g_norm < 1e-10 and est.g_deriv_norm < 1e-10

    def test_invariant_value_decomposition(self, p2):
        est = k_functional_upper(GAUSS, 1, 0.5, NormSpec.vexp(p2, window=12.0))
        assert est.value == pytest.approx(
            est.f_minus_g_norm + 0.5 * est.g_deriv_norm, rel=1e-12)

    def test_dominates_mollification_family(self):
        # secondary candidate family: Gaussian mollifications g_eps; each
        # gives another upper bound for the true K-functional, and the
        # sharper iterate candidate should not fall below the family's best
        # value by more than tolerance
        r, d = 1, 0.5
        est = k_functional_upper(GAUSS, r, d, SUP5)
        best = math.inf
        xs = np.linspace(-5, 5, 501)
        us = np.linspace(-6, 6, 481)
        du = us[1] - us[0]
        fu = GAUSS(us)
        for eps in (0.05, 0.1, 0.2, 0.4, 0.8):
            kern = np.exp(-(xs[:, None] - us[None, :]) ** 2 / (2 * eps ** 2))
            kern /= math.sqrt(2 * math.pi) * eps
            g = kern @ fu * du
            dkern = kern * (us[None, :] - xs[:, None]) / eps ** 2
            g1 = dkern @ fu * du
            cand = np.max(np.abs(GAUSS(xs) - g)) + d ** r * np.max(np.abs(g1))
            best = min(best, cand)
        assert est.value >= best - 1e-6

    def test_decreasing_in_delta(self):
        vals = [k_functional_upper(GAUSS, 1, d, SUP5).value
                for d in (0.2, 0.1, 0.05)]
        assert vals[0] > vals[1] > vals[2]

    def test_order_three_sup_equivalence(self):
        # candidate iterate powers reach 2 r^2 = 18; the two-sided sup-norm
        # comparison still brackets the modulus
        from vexp.constants import c8_k
        est = k_functional_upper(GAUSS, 3, 0.4, SUP5)
        om = modulus(ModulusRequest(GAUSS, 3, 0.4, SUP5))
        assert om <= 2.0 ** 3 * est.value
        assert est.value <= c8_k(3) * om


class TestOneSamplingPath:
    # every Steklov combination is one weighted lattice: sampling it on a
    # norm's grid is one outer product, whatever the number of terms
    @pytest.fixture
    def outer_calls(self, monkeypatch):
        calls = []
        real = steklov.outer_apply

        def counting(f, x, offsets, weights):
            calls.append(np.size(x))
            return real(f, x, offsets, weights)
        monkeypatch.setattr(steklov, "outer_apply", counting)
        return calls

    def test_modulus_is_one_outer_product(self, outer_calls, p2):
        m = corpus_member("gauss")
        modulus(ModulusRequest(m.rf, 2, 0.5, m.norm_spec(p2)))
        assert len(outer_calls) == 1

    def test_khat_is_one_outer_product(self, outer_calls, p2):
        # both halves of K-hat share the lattice and the norm's nodes
        m = corpus_member("gauss")
        k_functional_upper(m.rf, 2, 0.5, m.norm_spec(p2))
        assert len(outer_calls) == 1

    def test_khat_of_a_rough_input_matches_its_parts(self, monkeypatch, p2):
        # no engine for the sum: K-hat against engine part plus lattice part,
        # by linearity of each combination (4.714168616 against 4.714962413
        # while the panels near the jump had no oscillation subpanels)
        f = as_real_function(parse("indicator(0, 1) + sin(40*x)/(1+x^2)"))
        parts = [as_real_function(parse(s))
                 for s in ("indicator(0, 1)", "sin(40*x)/(1+x^2)")]
        assert f.exact is None and parts[0].exact is not None
        norm = NormSpec.vexp(p2, window=200.0)  # the window of its 1/x^2 decay
        got = k_functional_upper(f, 2, 1.0, norm).value

        def split(g, delta, *terms):
            return combine([(1.0, steklov.steklov_combination(q, delta, *terms))
                            for q in parts])
        monkeypatch.setattr(smoothness, "steklov_combination", split)
        assert got == pytest.approx(k_functional_upper(f, 2, 1.0, norm).value, rel=1e-12)


def khat_terms(r: int, delta: float):
    """The term maps of f - g and of g^(r) for K-hat's candidate g."""
    diff = {(2 * r * l, 0): (-1.0) ** l * math.comb(r, l) for l in range(r + 1)}
    deriv = {}
    for l in range(1, r + 1):
        for key, c in steklov.derivative_terms(delta, 2 * r * l, r).items():
            deriv[key] = (-1.0) ** (l - 1) * math.comb(r, l) * c
    return diff, deriv


class TestOneSamplePass:
    # K-hat samples f once for both of its norms; each part must be the norm
    # of its own combination, as if built alone
    NORMS = (None, "p2", "p_bump", "p_osc")

    @staticmethod
    def parts_alone(f, r, delta, norm):
        return [norm_of(steklov.steklov_combination(f, delta, t), norm)
                for t in khat_terms(r, delta)]

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("p", NORMS)
    @pytest.mark.parametrize("src", ["@" + m.name for m in default_corpus()]
                             + ["abs(x)*exp(-x^2)"])  # near its kink: cut panels
    def test_parts_match_the_norms_built_alone(self, src, p, r):
        m = resolve_function(src)
        norm = m.norm_spec(None if p is None else exponent_field(p))
        for delta in (0.1, 0.5):
            est = k_functional_upper(m.rf, r, delta, norm)
            fmg, gder = self.parts_alone(m.rf, r, delta, norm)
            assert est.f_minus_g_norm == fmg
            # the derivative's lattice gains f - g's point column, with weight 0
            assert abs(est.g_deriv_norm - gder) <= 4.0 * np.spacing(gder)

    def test_engine_parts_are_exact(self, p2):
        m = corpus_member("box")
        est = k_functional_upper(m.rf, 2, 0.1, m.norm_spec(p2))
        assert [est.f_minus_g_norm, est.g_deriv_norm] == \
            self.parts_alone(m.rf, 2, 0.1, m.norm_spec(p2))

    @pytest.mark.parametrize("p", NORMS)
    @pytest.mark.parametrize("src", ["@gauss", "@box", "@box_smooth", "@gauss_wide",
                                     "abs(x)*exp(-x^2)"])
    def test_modulus_on_the_stack(self, src, p):
        # the audit's kfunc_equiv takes Omega_r as a third row of K-hat's
        # stack: K-hat unchanged, Omega within a few ulps of `modulus`
        m = resolve_function(src)
        norm = m.norm_spec(None if p is None else exponent_field(p))
        for r, delta in ((1, 0.5), (2, 0.1)):
            kh, (om,) = smoothness._k_functional(m.rf, r, delta, norm,
                                                 steklov.difference_terms(r))
            assert kh == k_functional_upper(m.rf, r, delta, norm)
            assert om == pytest.approx(modulus(ModulusRequest(m.rf, r, delta, norm)),
                                       rel=1e-14)

    @pytest.mark.parametrize("p", [None, "p2"])
    def test_khat_takes_about_half_the_points(self, p):
        m = corpus_member("gauss_osc")
        norm = m.norm_spec(None if p is None else exponent_field(p))
        points = []

        def counted():
            return RealFunction(fn=lambda x: points.append(x.size) or m.rf.fn(x),
                                breakpoints=m.rf.breakpoints,
                                osc_wavelength=m.rf.osc_wavelength)
        k_functional_upper(counted(), 2, 0.25, norm)
        stacked = sum(points)
        points.clear()
        self.parts_alone(counted(), 2, 0.25, norm)
        assert stacked <= 0.55 * sum(points)


def properties_rows(f: str, p=None, r: int = 1):
    """The audit's modulus_props rows for f (f its own companion) at the
    steps 0.2 and 0.5, in L^p(.) when p is given, else sup."""
    case = AuditCase(theorem="modulus_props", f_src=f, g_src=f, p_src=p, r=r,
                     deltas=(0.2, 0.5))
    return run_case(Context(), case)


class TestPropertiesAudit:
    def test_zero_function_all_pass(self):
        rows = properties_rows("0", "@p2")
        assert all(r.passed for r in rows)
        assert all(r.lhs == 0.0 for r in rows)

    def test_gaussian_sup_with_derivative_bound(self):
        rows = properties_rows("@gauss", r=2)
        by_id = {r.theorem_id: r for r in rows}
        assert by_id["modulus_size_bound"].passed
        assert by_id["modulus_smooth_bound"].passed
        # measured ratios are recorded and meaningful
        assert 0.0 < by_id["modulus_smooth_bound"].ratio <= 1.0

    def test_box_vanishing_sequence(self):
        rows = properties_rows("@box", "@p2")
        vanish = [r for r in rows if r.theorem_id == "modulus_vanishing"][0]
        seq = vanish.truncation_bounds["values"]
        assert all(b <= a * (1 + 1e-6) + 1e-12 for a, b in zip(seq, seq[1:]))
        assert vanish.passed

    def test_delta_order_validated(self):
        with pytest.raises(ValueError):
            AuditCase(theorem="modulus_props", f_src="@gauss", g_src="@gauss",
                      p_src="@p2", deltas=(0.5, 0.2))
