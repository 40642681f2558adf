import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexp import bandlimited, quad
from vexp.bandlimited import (best_approx_surrogate, kernel_tail_bound,
                              vp_kernel, vp_operator)
from vexp.corpus import corpus_member, default_corpus, resolve_function
from vexp.fnexpr import Decay, differentiate, parse
from vexp.functions import RealFunction, as_real_function, outer_apply
from vexp.norms import NormSpec
from vexp.quad import panel_rule, window_nodes
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
            assert sup_norm(j, NormSpec.sup(8.0)) <= 1.5 * 1.0 + 1e-8

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
        assert sup_norm(j, NormSpec.sup(6.0)) <= 1.5 + 1e-8
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


class TestLatticeCap:
    # the kernel's cut at a multiple of 2 pi / sigma was not capped: at
    # sigma 1e-9 the lattice asked numpy for 1.46 TiB
    @pytest.fixture
    def built(self, monkeypatch):
        """The sample counts of the lattices vp_operator goes on to build, none built."""
        sizes = []
        monkeypatch.setattr(bandlimited, "_lattice_convolution", lambda f, sigma, h, n_u, n_x:
                            sizes.append(2 * (n_x + n_u) + 1) or GAUSS.fn)
        return sizes

    def test_tiny_sigma_refused_before_any_allocation(self, built):
        m = corpus_member("gauss")
        with pytest.raises(ValueError, match="needs 201061930011 samples of f, more than "
                                             "the cap of 2097152"):
            best_approx_surrogate(m.rf, 1e-9, m.norm_spec())
        assert built == []

    def test_refused_from_where_the_samples_pass_the_cap(self, built):
        m, refused = corpus_member("gauss"), []
        for sigma in np.geomspace(1e-5, 1e-4, 200):  # the count falls about 2.3% a step
            try:
                vp_operator(m.rf, sigma, x_span=m.norm_window)
            except ValueError as exc:
                refused.append(int(str(exc).split(" needs ")[1].split()[0]))
            else:
                break
        assert refused and built
        assert built[0] <= bandlimited._MAX_LATTICE < refused[-1] < 1.05 * bandlimited._MAX_LATTICE

    def test_cli_lattices_lie_far_below_the_cap(self, built):
        # the bundled audit's largest has 25,787 samples; the CLI's default tail
        # target takes sinc4 at sigma 1 to 473,495
        for name in DECAYING:
            m = corpus_member(name)
            for sigma in (1.0, 2.0, 4.0, 8.0, 16.0):
                vp_operator(m.rf, sigma / 2.0, x_span=m.norm_window)
        assert max(built) == 473_495 < bandlimited._MAX_LATTICE / 4


class TestKernelSpectrumCache:
    # the kernel's spectrum is built once per (sigma, step, cut, FFT size):
    # a cached one gives the bits a fresh one gives, and cannot be written to
    def test_cold_and_warm_caches_give_the_same_bits(self, kept_rules):
        m = corpus_member("lorentz")
        norm = m.norm_spec()
        cold = [best_approx_surrogate(m.rf, s, norm).value for s in (2.0, 8.0)]
        spectra = kept_rules("_kernel_spectrum")
        assert len(spectra) == 2
        assert [best_approx_surrogate(m.rf, s, norm).value for s in (2.0, 8.0)] == cold
        now = kept_rules("_kernel_spectrum")  # the same arrays: none rebuilt
        assert now.keys() == spectra.keys()
        assert all(now[key] is spectrum for key, spectrum in spectra.items())

    def test_cached_spectrum_is_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            bandlimited._kernel_spectrum(2.0, 0.1, 24, 64)[0] = 0.0

    def test_cached_and_fresh_kernels_give_the_same_j(self, monkeypatch, kept_rules):
        cases = [(corpus_member(name), sigma) for name in DECAYING for sigma in (2.0, 8.0)]

        def js():
            return [[v.hex() for v in vp_operator(m.rf, sigma, x_span=m.norm_window)(
                np.linspace(-m.norm_window, m.norm_window, 401)).tolist()]
                for m, sigma in cases]
        cold = js()
        spectra = kept_rules("_kernel_spectrum")
        warm = js()
        now = kept_rules("_kernel_spectrum")  # the warm pass rebuilt none of them
        assert spectra and now.keys() == spectra.keys()
        assert all(now[key] is spectrum for key, spectrum in spectra.items())
        with monkeypatch.context() as mp:
            mp.setattr(quad, "_KEPT_BYTES", 0)  # every value built per call, none kept
            fresh = js()
            assert kept_rules("_kernel_spectrum") == {}
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


def _mp_theta(u):
    """theta(u) at the working precision of mpmath."""
    if u == 0:
        return 3 / (2 * mpmath.pi)
    return (mpmath.cos(u) - mpmath.cos(2 * u)) / (mpmath.pi * u * u)


def _compact_rule(monkeypatch, j, x):
    """J(x) and the offsets and weights the compact convolution sums over."""
    seen = []

    def spy(kernel, x, offsets, weights):
        seen.append((offsets, weights))
        return outer_apply(kernel, x, offsets, weights)
    with monkeypatch.context() as mp:
        mp.setattr(bandlimited, "outer_apply", spy)
        got = j(x)
    assert len(seen) == 1
    return (got, *seen[0])


class TestCompactConvolution:
    # the compact J takes theta's cosines by the addition theorem, and
    # vp_kernel's product of sines where |u| < 1, whose difference cancels

    @pytest.mark.parametrize("sigma", [1.0, 4.0, 16.0])
    @pytest.mark.parametrize("name", ["box", "box_smooth"])
    def test_matches_mpmath_kernel(self, monkeypatch, name, sigma):
        # the quadrature sum sigma sum_j w_j f(y_j) theta(sigma (x - y_j)),
        # each theta at 30 digits: inside |u| < 1 of a node, on |u| = 1 and
        # out to the sup window.  The kernel may be off by 4e-16 of sigma
        # sum |w_j f(y_j)|, the sum by gamma_m sigma sum |w_j f(y_j) theta_j|
        # (Higham, ch. 3): 1e-9 / sigma from a node at sigma = 1, where the
        # product of sines serves, the sum alone is 7.2e-16 off
        m = corpus_member(name)
        j = vp_operator(m.rf, sigma, x_span=m.sup_window)
        y = -_compact_rule(monkeypatch, j, np.zeros(1))[1]
        near = y[[0, y.size // 3, y.size // 2, -1]]
        xs = np.concatenate([near, *(near + d / sigma for d in (1e-9, -0.3, 0.7, 1.0, -1.0)),
                             np.linspace(-m.sup_window, m.sup_window, 13)])
        got, offsets, weights = _compact_rule(monkeypatch, j, xs)
        with mpmath.workdps(30):
            terms = [[float(w) * _mp_theta(sigma * (mpmath.mpf(x) + float(t)))
                      for t, w in zip(offsets, weights)] for x in xs]
            want = np.array([float(sigma * mpmath.fsum(row)) for row in terms])
            floor = np.array([float(sigma * mpmath.fsum(map(abs, row))) for row in terms])
        gamma = offsets.size * 2.0 ** -53 / (1.0 - offsets.size * 2.0 ** -53)
        tol = 4e-16 * sigma * np.sum(np.abs(weights)) + gamma * floor
        assert np.all(np.abs(got - want) <= tol)

    def test_mirror_symmetry(self):
        # theta is even, so J of the mirrored indicator is the mirrored J
        right = vp_operator(as_real_function(parse("indicator(0, 1)")), 4.0, x_span=6.0)
        left = vp_operator(as_real_function(parse("indicator(-1, 0)")), 4.0, x_span=6.0)
        xs = np.concatenate([np.linspace(-6.0, 6.0, 241), np.linspace(-0.3, 1.3, 97)])
        assert np.max(np.abs(left(-xs) - right(xs))) <= 1e-15

    def test_few_pairs_take_the_product_of_sines(self, monkeypatch, p2):
        # the rank-4 form serves all but the pairs with |u| < 1: a change
        # that sent every pair back through two sines would fail here
        counts = {"kernel": 0, "pairs": 0}
        kernel, apply = bandlimited.vp_kernel, bandlimited.outer_apply

        def counted_kernel(u):
            counts["kernel"] += np.size(u)
            return kernel(u)

        def counted_apply(f, x, offsets, weights):
            counts["pairs"] += np.size(x) * np.size(offsets)
            return apply(f, x, offsets, weights)
        monkeypatch.setattr(bandlimited, "vp_kernel", counted_kernel)
        monkeypatch.setattr(bandlimited, "outer_apply", counted_apply)
        m = corpus_member("box_smooth")
        best_approx_surrogate(m.rf, 8.0, m.norm_spec(p2))
        assert counts["pairs"] > 0
        assert counts["kernel"] < 0.05 * counts["pairs"]


def _parent_stencil_values(values, s):
    """The stencil as an N x 20 index gather, the reference whose bits
    bandlimited._stencil_values must give."""
    idx = (np.floor(s).astype(np.intp) - 9)[:, None] + np.arange(20)
    d = s[:, None] - idx
    v = values[idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = bandlimited._BARY / d
        out = np.einsum("ij,ij->i", lam, v) / lam.sum(axis=1)
    hit = d == 0.0
    out[hit.any(axis=1)] = v[hit]
    return out


class TestStencilBits:
    def test_random_lattice_coordinates(self):
        # the reach of a lattice with 2 n + 1 values is [10, 2 n - 10]
        rng = np.random.default_rng(33)
        n = 200
        values = rng.normal(size=2 * n + 1)
        lo, hi = 10.0, 2.0 * n - 10.0
        s = np.concatenate([rng.uniform(lo, hi, 5000), np.arange(lo, hi + 1.0),
                            np.arange(lo, hi) + 0.5, [lo, hi, np.nextafter(lo, hi),
                                                      np.nextafter(hi, lo), lo + 1e-13]])
        got = bandlimited._stencil_values(values, s)
        want = _parent_stencil_values(values, s)
        assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("sigma", [2.0, 8.0])
    def test_j_of_every_decaying_member(self, monkeypatch, sigma):
        for name in DECAYING:
            m = corpus_member(name)
            j = vp_operator(m.rf, sigma, x_span=m.norm_window)
            xs = np.linspace(-m.norm_window, m.norm_window, 2501)  # several stencil blocks
            got = j(xs)
            with monkeypatch.context() as mp:
                mp.setattr(bandlimited, "_stencil_values", _parent_stencil_values)
                want = j(xs)
            assert [v.hex() for v in got] == [v.hex() for v in want], name
