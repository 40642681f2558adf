import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexp import bandlimited
from vexp.bandlimited import (best_approx_surrogate, kernel_tail_bound,
                              vp_kernel, vp_operator)
from vexp.corpus import corpus_member, default_corpus, resolve_function
from vexp.fnexpr import Decay, differentiate, parse
from vexp.functions import RealFunction, as_real_function
from vexp.norms import NormSpec, window_nodes
from vexp.quad import panel_rule
from vexp.steklov import sup_norm

from bandlimited_reference import vp_fourier, vp_operator_direct

GAUSS = as_real_function(parse("exp(-x^2)"))
DECAYING = [m.name for m in default_corpus() if m.expr.decay_class.kind != "compact_support"]


class TestKernel:
    def test_value_at_zero(self):
        assert vp_kernel(0.0) == pytest.approx(3.0 / (2.0 * math.pi), abs=1e-15)

    def test_sine_zeros(self):
        assert vp_kernel(2.0 * math.pi) == pytest.approx(0.0, abs=1e-30)
        assert vp_kernel(4.0 * math.pi / 3.0) == pytest.approx(0.0, abs=1e-17)

    def test_even(self):
        xs = np.linspace(0.1, 30, 57)
        assert np.allclose(vp_kernel(xs), vp_kernel(-xs), atol=1e-16)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.01, 1e6))
    def test_quadratic_envelope(self, x):
        assert abs(vp_kernel(x)) <= (2.0 / math.pi) / (x * x) + 1e-15

    def test_unit_mass(self):
        # quadrature oracle on a wide window; tail bounded by (4/pi)/L
        L = 1e4
        w = 2.0 * math.pi / 3.0
        edges = w * np.arange(-math.ceil(L / w), math.ceil(L / w) + 1)
        nodes, wts = panel_rule(edges, 10)
        val = float(np.sum(wts * vp_kernel(nodes)))
        assert abs(val - 1.0) <= (4.0 / math.pi) / L + 1e-9


class TestOperator:
    def test_reproduces_bandlimited_sinc(self):
        for a, sigma in ((1.0, 2.0), (1.0, 1.0), (4.0, 4.0)):
            f = as_real_function(parse(f"sinc({a:g})"))
            j = vp_operator(f, sigma, x_span=15.0, tail_target=1e-5)
            xs = np.linspace(-12, 12, 241)
            assert np.max(np.abs(j(xs) - f(xs))) < 1e-6

    def test_sup_norm_bound(self):
        for sigma in (2.0, 8.0):
            j = vp_operator(GAUSS, sigma, x_span=12.0)
            assert sup_norm(j, 8.0) <= 1.5 * 1.0 + 1e-8

    def test_derivative_commutation(self):
        # (J f)' via a five-point stencil vs J(f') via the symbolic derivative
        f1 = as_real_function(differentiate(parse("exp(-x^2)")))
        jf = vp_operator(GAUSS, 4.0, x_span=12.0)
        jf1 = vp_operator(f1, 4.0, x_span=12.0)
        xs = np.linspace(-6, 6, 121)
        h = 1e-3
        stencil = (-jf(xs + 2 * h) + 8 * jf(xs + h) - 8 * jf(xs - h)
                   + jf(xs - 2 * h)) / (12 * h)
        assert np.max(np.abs(stencil - jf1(xs))) < 1e-6

    def test_compact_support_convolution_form(self):
        f = as_real_function(parse("indicator(0, 1)"))
        j = vp_operator(f, 4.0, x_span=12.0)
        assert sup_norm(j, 6.0) <= 1.5 + 1e-8
        # away from the support the output decays like the kernel
        assert abs(j(np.array([30.0]))[0]) < 1e-2

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            vp_operator(GAUSS, 0.0, x_span=12.0)

    def test_refuses_x_beyond_the_lattice(self):
        j = vp_operator(GAUSS, 4.0, x_span=8.0)
        assert np.all(np.isfinite(j(np.array([-8.0, 0.0, 8.0]))))
        for x in (9.0, -9.0, 1e3):
            with pytest.raises(ValueError, match="J is sampled for"):
                j(np.array([0.0, x]))

    def test_refuses_decaying_input_with_breakpoints(self):
        # the trapezoid sum is only exponentially accurate for smooth f.
        # Over 2,001 points of [-11, 11], J of this sum missed J(box) +
        # J(xgauss) by 3.4e-2 (sigma = 1) and 5.2e-2 (sigma = 4) on the
        # Gauss-Legendre panels, and by 2.2e-2 and 6.2e-2 on the lattice
        f = as_real_function(parse("indicator(0,1)+x*exp(-x^2)"))
        assert f.expr.decay_class.kind == "gaussian" and f.breakpoints == (0.0, 1.0)
        for sigma in (1.0, 4.0):
            with pytest.raises(ValueError, match="breakpoints"):
                vp_operator(f, sigma, x_span=12.0)

    def test_refuses_input_without_expression(self):
        # no decay class, so no u-window (it raised the panel cap before)
        with pytest.raises(ValueError, match="expression"):
            vp_operator(RealFunction(fn=np.cos), 1.0, x_span=10.0)


@pytest.mark.parametrize("sigma", [1.0, 4.0, 8.0])
@pytest.mark.parametrize("name", DECAYING)
def test_lattice_matches_gauss_legendre_reference(name, sigma):
    m = corpus_member(name)
    w = m.norm_window
    nodes = window_nodes(w, m.panels_per_unit, ())[0]
    rng = np.random.default_rng(14)
    xs = np.concatenate([nodes[::max(1, nodes.size // 60)],
                         rng.uniform(-w, w, 20), [-w, w]])
    j = vp_operator(m.rf, sigma, x_span=w)
    ref = vp_operator_direct(m.rf, sigma, x_span=w)
    assert np.max(np.abs(j(xs) - ref(xs))) <= max(j.tail_bound, ref.tail_bound) + 1e-13


@pytest.mark.parametrize("sigma", [1.0, 4.0])
@pytest.mark.parametrize("name", ["gauss", "lorentz", "lorentz2"])
def test_lattice_matches_fourier_oracle(name, sigma):
    m = corpus_member(name)
    w = m.norm_window
    xs = np.array([0.0, 0.3, -1.7, 5.0, -11.0, w - 1.0, 1.0 - w])
    j = vp_operator(m.rf, sigma, x_span=w)
    exact = {x: vp_fourier(name, sigma, x) for x in set(np.abs(xs))}  # f is even
    exact = np.array([exact[abs(x)] for x in xs])
    # J of gauss is untruncated to float precision (tail bounds below 1e-90)
    tol = 2e-15 if name == "gauss" else j.tail_bound
    assert np.max(np.abs(j(xs) - exact)) <= tol


class TestKernelSpectrumCache:
    # the kernel's spectrum is built once per (sigma, step, cut, FFT size):
    # a cached one gives the bits a fresh one gives, and cannot be written to
    def test_cold_and_warm_caches_give_the_same_bits(self):
        m = corpus_member("lorentz")
        norm = m.norm_spec()
        bandlimited._kernel_spectrum.cache_clear()
        cold = [best_approx_surrogate(m.rf, s, norm).value for s in (2.0, 8.0)]
        assert bandlimited._kernel_spectrum.cache_info().currsize == 2
        assert [best_approx_surrogate(m.rf, s, norm).value for s in (2.0, 8.0)] == cold
        assert bandlimited._kernel_spectrum.cache_info().hits == 2

    def test_cached_spectrum_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            bandlimited._kernel_spectrum(2.0, 0.1, 24, 64)[0] = 0.0

    def test_cached_and_fresh_kernels_give_the_same_j(self, monkeypatch):
        cases = [(corpus_member(name), sigma) for name in DECAYING for sigma in (2.0, 8.0)]

        def js():
            return [[v.hex() for v in vp_operator(m.rf, sigma, x_span=m.norm_window)(
                np.linspace(-m.norm_window, m.norm_window, 401)).tolist()]
                for m, sigma in cases]
        bandlimited._kernel_spectrum.cache_clear()
        cold, warm = js(), js()
        with monkeypatch.context() as mp:
            mp.setattr(bandlimited, "_kernel_spectrum", bandlimited._kernel_spectrum.__wrapped__)
            fresh = js()
        assert bandlimited._kernel_spectrum.cache_info().hits >= len(cases)
        assert cold == warm == fresh


class TestSurrogate:
    def test_zero_function(self, p2):
        zero = as_real_function(parse("0"))
        est = best_approx_surrogate(zero, 4.0, NormSpec.vexp(p2, window=10.0))
        assert est.value == 0.0

    @pytest.mark.parametrize("src, value", [("0", 0.0), ("3", 3.0)])
    def test_constant_input_short_circuits(self, monkeypatch, src, value):
        # J reproduces constants; the decay-less input must not reach the
        # 1e7-wide convolution window
        def refuse(*args):
            raise AssertionError("outer_apply called for a constant input")
        monkeypatch.setattr("vexp.bandlimited.outer_apply", refuse)
        j = vp_operator(as_real_function(parse(src)), 2.0, x_span=10.0)
        xs = np.linspace(-50.0, 50.0, 101)
        assert np.all(j(xs) == value)
        assert j.tail_bound == 0.0

    def test_reproduction_kills_the_surrogate(self, p2):
        f = as_real_function(parse("sinc(1)"))
        est = best_approx_surrogate(f, 2.0, NormSpec.vexp(p2, window=20.0),
                                    tail_target=1e-5)
        assert est.value <= 1e-6

    def test_reproduction_boundary_type(self, p2):
        # the surrogate convolves at half the requested type, so the
        # reproduction threshold for type-a inputs is sigma/2 >= a
        f = as_real_function(parse("sinc(4)"))
        at_boundary = best_approx_surrogate(
            f, 8.0, NormSpec.vexp(p2, window=20.0), tail_target=1e-5)
        below = best_approx_surrogate(
            f, 4.0, NormSpec.vexp(p2, window=20.0), tail_target=1e-5)
        assert at_boundary.value <= 1e-6
        assert below.value > 1e-3  # half the type: no reproduction yet

    def test_monotone_vanishing_gaussian(self, p2):
        vals = [best_approx_surrogate(GAUSS, s, NormSpec.vexp(p2, window=14.0)).value
                for s in (2.0, 4.0, 8.0, 16.0, 32.0)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a * (1 + 1e-9) + 1e-12
        assert vals[-1] < 1e-12

    def test_tail_bound_recorded_for_slow_decay(self):
        # the 1/x^2 decay class is read off the raw expression
        f = as_real_function(parse("1/(1+x^2)"))
        est = best_approx_surrogate(f, 4.0, NormSpec.sup(20.0), tail_target=1e-6)
        assert est.tail_bound > 0.0
        assert est.tail_bound <= 1e-6

    def test_raw_lorentzian_matches_bundled(self):
        raw, bundled = resolve_function("1/(1+x^2)"), resolve_function("@lorentz")
        assert raw.expr.decay_class == bundled.expr.decay_class == Decay("power", alpha=2.0)
        got = best_approx_surrogate(raw.rf, 4.0, raw.norm_spec()).value
        assert got == best_approx_surrogate(bundled.rf, 4.0, bundled.norm_spec()).value

    def test_panel_cap_raises_instead_of_coarsening(self):
        # x/(1+x^2) decays like 1/|x|, which at type 64 puts the u-window at
        # 2.4e3: 7.4e4 zero-aligned panels.  Panels widened to the cap gave
        # 0.9995 on the Lorentzian when it had no class, where 1/x^2 decay
        # gives 0.0585
        f = as_real_function(parse("x/(1+x^2)"))
        with pytest.raises(ValueError, match="74010 panels on the u-window"):
            best_approx_surrogate(f, 64.0, NormSpec.sup(20.0))

    @pytest.mark.parametrize("src", ["exp(-abs(x))", "sin(x)", "x"])
    def test_no_decay_class_refused(self, src):
        # the u-window grew 80 times before the panel cap refused these
        f = as_real_function(parse(src))
        with pytest.raises(ValueError, match="has no decay class"):
            vp_operator(f, 2.0, x_span=10.0)


def test_kernel_tail_bound_formula():
    assert kernel_tail_bound(2.0, 100.0, 1.0) == \
        pytest.approx((4.0 / math.pi) / 200.0)
