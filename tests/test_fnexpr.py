import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from vexp import fnexpr
from vexp.fnexpr import (Decay, ExponentField, ExponentRangeError,
                         NonDifferentiableError, ParseError, differentiate,
                         estimate_log_holder, parse)


_LEAVES = st.one_of(
    st.floats(-5, 5).map(lambda v: fnexpr.Num(round(v, 3))),
    st.just(fnexpr.Var()),
    st.floats(0.5, 4).map(lambda a: fnexpr.Gauss(round(a, 2))),
    st.floats(0.5, 4).map(lambda a: fnexpr.SincD(round(a, 2), 0)),
)


def _nodes(kids):
    return st.one_of(
        st.tuples(st.sampled_from("+*"), kids, kids).map(lambda t: fnexpr.BinOp(*t)),
        st.tuples(kids, st.integers(0, 3)).map(lambda t: fnexpr.Pow(*t)),
        kids.map(fnexpr.Neg),
        kids.map(lambda a: fnexpr.Call("sin", a)),
        kids.map(lambda a: fnexpr.Call("exp", a)),
    )


RANDOM_AST = st.recursive(_LEAVES, _nodes, max_leaves=12)

# every node type, for the compiler's bit-identity check
ALL_NODES_AST = st.recursive(
    st.one_of(
        _LEAVES,
        st.tuples(st.floats(0.5, 4), st.integers(1, 4)).map(
            lambda t: fnexpr.SincD(round(t[0], 2), t[1])),
        st.tuples(st.floats(-2, 0), st.floats(0.1, 2)).map(
            lambda t: fnexpr.Indicator(round(t[0], 2), round(t[0] + t[1], 2))),
    ),
    lambda kids: st.one_of(
        _nodes(kids),
        st.tuples(st.sampled_from("-/"), kids, kids).map(lambda t: fnexpr.BinOp(*t)),
        st.tuples(kids, st.integers(-3, -1)).map(lambda t: fnexpr.Pow(*t)),
        kids.map(lambda a: fnexpr.Call("cos", a)),
        kids.map(lambda a: fnexpr.Call("abs", a)),
    ),
    max_leaves=12)

# the subset `_pieces` reads: numbers, x and indicators under + - * /,
# powers, negation and abs
PIECEWISE_AST = st.recursive(
    st.one_of(
        st.floats(-3, 3).map(lambda v: fnexpr.Num(round(v, 2))),
        st.just(fnexpr.Var()),
        st.tuples(st.floats(-2, 1), st.floats(0.1, 2)).map(
            lambda t: fnexpr.Indicator(round(t[0], 1), round(t[0] + t[1], 1))),
    ),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from("+-*/"), kids, kids).map(lambda t: fnexpr.BinOp(*t)),
        st.tuples(kids, st.integers(0, 3)).map(lambda t: fnexpr.Pow(*t)),
        kids.map(fnexpr.Neg),
        kids.map(lambda a: fnexpr.Call("abs", a)),
    ),
    max_leaves=10)


class TestParse:
    def test_gaussian(self):
        f = parse("exp(-x^2)")
        assert f.decay_class.kind == "gaussian"
        assert f(0.5) == pytest.approx(math.exp(-0.25))

    def test_exponent_suitable_expression(self):
        p = parse("2 + 1/(1+x^2)")
        xs = np.linspace(-200, 200, 20001)
        vals = p(xs)
        assert vals.min() == pytest.approx(2.0, abs=1e-3)
        assert vals.max() == pytest.approx(3.0, abs=1e-12)

    def test_sinc_removable_singularity(self):
        f = parse("sinc(4)")
        assert f(0.0) == 1.0
        assert f(1e-9) == pytest.approx(1.0, abs=1e-12)
        assert f(2.0) == pytest.approx(math.sin(8.0) / 8.0)

    def test_indicator_endpoints(self):
        f = parse("indicator(0, 1)")
        assert list(f(np.array([-0.5, 0.0, 0.5, 1.0, 1.5]))) == [0, 1, 1, 1, 0]

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("2 + * 3")
        assert "column" in str(err.value)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            parse("foo(3)")

    def test_non_integer_power(self):
        with pytest.raises(ParseError):
            parse("x^1.5")

    def test_integer_powers_incl_negative(self):
        f = parse("(1+x^2)^-2")
        assert f(1.0) == pytest.approx(0.25)

    def test_gauss_builtin(self):
        f = parse("gauss(2)")
        assert f(1.0) == pytest.approx(math.exp(-2.0))
        assert f.decay_class.kind == "gaussian"


    def test_non_ascii_digits_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("\u0663*x")  # ARABIC-INDIC DIGIT THREE
        assert err.value.pos == 0

    def test_ascii_error_columns(self):
        for src, col in (("2 + * 3", 5), ("x $ 1", 3), ("2e", 2), ("1.2.3", 4)):
            with pytest.raises(ParseError) as err:
                parse(src)
            assert str(err.value).endswith(f"(at column {col})")


class TestDecay:
    @pytest.mark.parametrize("src, kind, alpha", [
        ("1/(1+x^2)", "power", 2.0),
        ("1/(1+x^2)^2", "power", 4.0),
        ("sin(x)/x", "power", 1.0),
        ("cos(3*x)/(1+x^2)^2", "power", 4.0),
        ("sinc(1)*x/(1+x^2)", "power", 2.0),
        ("x*indicator(0, 1)", "compact_support", 0.0),
        ("exp(-x^2)", "gaussian", 0.0),
        ("cos(3*x)*exp(-x^2/4)", "gaussian", 0.0),
        ("exp(-x^2)*exp(x^2)", "none", 0.0),  # growth cancels the Gaussian
        ("x^2 - x^2 + 1/x", "none", 0.0),  # the leading terms cancel
        ("exp(-x^2/100)", "none", 0.0),  # too slow: exp(c x^2) needs 64c < -1
        ("exp(-abs(x))", "none", 0.0),
        ("exp(-abs(x)^2)", "gaussian", 0.0),  # |c x|^2 keeps its coefficient
        ("exp(-x^2)/(1+exp(-abs(x)))", "gaussian", 0.0),  # the divisor tends to 1
        ("abs(x)*indicator(-1, 2) - abs(x - 1)*indicator(3, 4)", "compact_support", 0.0),
        ("(1e200*x)^2", "none", 0.0),  # coefficients overflow without raising
    ])
    def test_raw_sources(self, src, kind, alpha):
        d = parse(src).decay_class
        assert (d.kind, d.alpha) == (kind, alpha)

    def test_compact_support_bounds(self):
        d = parse("x*indicator(0, 1) + indicator(2, 3)").decay_class
        assert (d.kind, d.a, d.b) == ("compact_support", 0.0, 3.0)

    def test_bundled_members_keep_their_class(self):
        from vexp.corpus import default_corpus
        want = {"gauss": Decay.gaussian(), "gauss_osc": Decay.gaussian(),
                "sinc1": Decay.power(1.0), "sinc4": Decay.power(1.0),
                # the smoothed box starts at the rounded zero of (1.1 - 0.9)/2 + x
                "box": Decay.compact(0.0, 1.0),
                "box_smooth": Decay.compact((0.9 - 1.1) / 2, 1.0),
                "xgauss": Decay.gaussian(), "cos_gauss": Decay.gaussian(),
                "gauss_wide": Decay.gaussian(), "x2gauss": Decay.gaussian(),
                "lorentz": Decay.power(2.0), "lorentz2": Decay.power(4.0)}
        assert {m.name: m.expr.decay_class for m in default_corpus()} == want

    def test_truncated_powers_read_once(self, monkeypatch):
        # the exact engine and the decay class share the expression's terms;
        # each walk of the tree recompiles its subtrees
        from vexp import functions
        calls = []
        read = fnexpr.truncated_powers
        for module in (fnexpr, functions):  # wherever it is looked up
            monkeypatch.setattr(module, "truncated_powers",
                                lambda node: calls.append(node) or read(node), raising=False)
        f = functions.as_real_function(parse("indicator(0, 1)"))
        assert f.expr.decay_class == Decay.compact(0.0, 1.0)
        assert len(calls) == 1

    def test_smooth_flag(self):
        assert parse("sinc(2)*exp(-x^2)/(1+x^2)").smooth
        assert not parse("1 + abs(x)").smooth
        assert not parse("x*indicator(0, 1)").smooth
        assert differentiate(parse("sin(x)"), 3).smooth


class TestRoughSpots:
    # one row per rule of the frequency bound; the wavelength used to come
    # from single sin, cos and sinc nodes
    @pytest.mark.parametrize("src, breakpoints, freq", [
        ("sin(3*x)*cos(4*x)", (), 7.0),  # a product sums its factors
        ("sin(2*x)^3", (), 6.0),  # a power n multiplies its base's by n
        ("sin(5*abs(x-1))", (1.0,), 5.0),  # the slopes of the pieces count
        ("sincd(4, 2)", (), 4.0),
    ])
    def test_frequency_rule(self, src, breakpoints, freq):
        from vexp.functions import as_real_function
        f = as_real_function(parse(src))
        assert (f.breakpoints, f.osc_wavelength) == (breakpoints, 2.0 * math.pi / freq)

    # sin or cos of a non-affine argument, and exp, a quotient or a negative
    # power of an oscillating tree: the last four read the largest child's
    # frequency, and T_1 at d = 1 was off by up to 2.8e-2
    @pytest.mark.parametrize("src", ["sin(exp(x))", "cos(x^2)", "exp(sin(2*x))/(1+x^2)",
                                     "exp(4*sin(20*x))", "1/(1.1+sin(20*x))", "sin(3*x)^-2"])
    def test_argument_not_piecewise_affine_refused(self, src):
        with pytest.raises(ValueError, match="cannot bound the frequency"):
            fnexpr.rough_spots(parse(src).ast)


class TestPieces:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(PIECEWISE_AST, ALL_NODES_AST))
    def test_each_piece_is_the_tree_on_its_interval(self, ast):
        with np.errstate(all="ignore"):  # constant subtrees fold, 1/0 among them
            pieces = fnexpr._pieces(ast)
        if pieces is None:
            return
        knots, polys = pieces
        assert knots == sorted(set(knots)) and len(polys) == len(knots) + 1
        xs = np.array(fnexpr._insides(knots))
        with np.errstate(all="ignore"):
            want = fnexpr.evaluate(ast, xs)
            got = np.array([P.polyval(x, p) for x, p in zip(xs, polys)])
            scale = np.array([P.polyval(abs(x), np.abs(p)) for x, p in zip(xs, polys)])
        if np.isfinite(want).all() and np.isfinite(scale).all():  # not 1/0
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_abs_zeros_become_knots(self):
        knots, polys = fnexpr._pieces(parse("abs(2*x - 1)*indicator(-1, 2)").ast)
        assert knots == [-1.0, 0.5, 2.0]
        assert [p.tolist() for p in polys] == [[0.0], [1.0, -2.0], [-1.0, 2.0], [0.0]]

    @pytest.mark.parametrize("src", ["sin(x)", "abs(x^2 - 1)", "x^-1", "x/(x - x + 2)"])
    def test_outside_the_subset(self, src):
        assert fnexpr._pieces(parse(src).ast) is None

    @pytest.mark.parametrize("src, poly", [("x/2^3", [0.0, 0.125]), ("x*exp(1)", [0.0, math.e])])
    def test_divisors_and_factors_without_x_fold(self, src, poly):
        assert [p.tolist() for p in fnexpr._pieces(parse(src).ast)[1]] == [poly]


class TestPrinterRoundTrip:
    def test_idempotence_simple(self):
        for src in ("2 + 1/(1+x^2)", "exp(-x^2)*sin(5*x)", "sinc(4)",
                    "indicator(0,1)", "-x^3 + 2*x", "abs(x - 0.5)", "(-2)^2*x"):
            ast1 = parse(src).ast
            printed = fnexpr.to_source(ast1)
            assert parse(printed).ast == ast1

    @settings(max_examples=60, deadline=None)
    @given(RANDOM_AST)
    def test_idempotence_random_ast(self, ast):
        # parse(print(parse(src))) == parse(src) for any source text; random
        # trees are first pushed through one parse to reach canonical form
        canon = parse(fnexpr.to_source(ast)).ast
        assert parse(fnexpr.to_source(canon)).ast == canon


class TestDifferentiate:
    def test_gaussian_chain_rule(self):
        d = differentiate(parse("exp(-x^2)"))
        xs = np.linspace(-3, 3, 41)
        assert np.allclose(d(xs), -2 * xs * np.exp(-xs ** 2), atol=1e-14)

    def test_second_derivative_of_sin(self):
        d2 = differentiate(parse("sin(x)"), order=2)
        xs = np.linspace(-3, 3, 41)
        assert np.allclose(d2(xs), -np.sin(xs), atol=1e-13)

    def test_sinc_derivative_at_zero(self):
        # sin(x)/x is even, so its derivative vanishes at 0; the series
        # oracle gives s'(x) = -x/3 + O(x^3) near 0
        d = differentiate(parse("sinc(1)"))
        assert d(0.0) == pytest.approx(0.0, abs=1e-15)
        assert d(1e-4) == pytest.approx(-1e-4 / 3.0, rel=1e-6)

    @pytest.mark.parametrize("src, order, want", [
        ("x^2", 1, "(2 * x)"),
        ("3*x - 1", 1, "3"),
        ("1 - x", 1, "(-1)"),
        ("x/2", 1, "(2 / (2^2))"),
        ("exp(2*x)", 1, "(exp((2 * x)) * 2)"),
    ])
    def test_reduced_tree(self, src, order, want):
        # no term 0, no factor 1 and no power 1 is left in a derivative
        assert differentiate(parse(src), order).src == want

    def test_second_derivative_stays_short(self):
        # 851 characters when terms 0 and factors 1 were kept
        d2 = differentiate(parse("cos(3*x)*exp(-x^2/4)"), 2)
        assert len(d2.src) <= 400

    def test_indicator_rejected(self):
        with pytest.raises(NonDifferentiableError):
            differentiate(parse("indicator(0,1)"))

    def test_abs_rejected(self):
        with pytest.raises(NonDifferentiableError):
            differentiate(parse("abs(x)"))

    @pytest.mark.parametrize("src", ["exp(-x^2)", "sin(3*x)*exp(-x^2/4)",
                                      "sinc(2)", "x^2/(1+x^2)"])
    def test_matches_central_differences(self, src):
        # |f'(x) - (f(x+h)-f(x-h))/2h| <= C h^2 with C fitted at h=1e-3
        f = parse(src)
        d = differentiate(f)
        xs = np.linspace(-4, 4, 81)
        errs = {}
        for h in (1e-3, 1e-4):
            fd = (f(xs + h) - f(xs - h)) / (2 * h)
            errs[h] = np.max(np.abs(d(xs) - fd))
        fitted_c = errs[1e-3] / 1e-6
        assert errs[1e-4] <= 3.0 * fitted_c * 1e-8 + 1e-11


class TestLogHolder:
    def test_constant_exponent(self):
        c1, c2, pmin, pmax = estimate_log_holder(parse("2"), 50.0, 401,
                                                 p_infinity=2.0)
        assert (c1, c2, pmin, pmax) == (0.0, 0.0, 2.0, 2.0)

    def test_bump_exponent(self):
        # brute-force over all sample pairs; constants finite, range [2, 3]
        c1, c2, pmin, pmax = estimate_log_holder(parse("2 + 1/(1+x^2)"),
                                                 50.0, 401, p_infinity=2.0)
        assert 0.0 < c1 < 5.0 and 0.0 < c2 < 5.0
        assert pmin == pytest.approx(2.0, abs=1e-3)
        assert pmax == pytest.approx(3.0, abs=1e-9)

    def test_no_asymptote_is_flagged_by_growth(self):
        # p = 2 + sin(x) has no limit at infinity: the decay quotient grows
        # like log(e + |x|) as the window widens
        e = parse("2 + sin(x)")
        _, c2_small, _, _ = estimate_log_holder(e, 10.0, 201, p_infinity=2.0)
        _, c2_large, _, _ = estimate_log_holder(e, 1000.0, 2001, p_infinity=2.0)
        assert c2_large > c2_small + 1.0

    def test_monotone_in_samples(self):
        e = parse("2 + 1/(1+x^2)")
        prev = (0.0, 0.0)
        # nested grids: N -> 2N-1 keeps every existing node
        for n in (101, 201, 401, 801):
            c1, c2, _, _ = estimate_log_holder(e, 50.0, n, p_infinity=2.0)
            assert c1 >= prev[0] - 1e-15 and c2 >= prev[1] - 1e-15
            prev = (c1, c2)

    def test_exponent_below_one_rejected(self):
        with pytest.raises(ExponentRangeError):
            estimate_log_holder(parse("1 + sin(x)"), 10.0, 101, p_infinity=1.0)

    def test_exponent_field_dual(self):
        p = ExponentField.from_expr("2 + 1/(1+x^2)")
        q = p.dual()
        xs = np.linspace(-5, 5, 11)
        pv = p(xs)
        assert np.allclose(q(xs), pv / (pv - 1.0))
        assert q.p_minus == pytest.approx(1.5)
        assert q.p_plus == pytest.approx(2.0)

    def test_dual_requires_pminus_above_one(self):
        with pytest.raises(ExponentRangeError):
            ExponentField.from_expr("1").dual()

    def test_nan_exponent_rejected(self):
        # sin(x)/x is 0/0 at the grid point 0, and a NaN passed `min < 1`
        with np.errstate(invalid="ignore"), \
                pytest.raises(ExponentRangeError, match=r"p\(0\) = nan"):
            estimate_log_holder(parse("2 + sin(x)/x"), 10.0, 101, p_infinity=2.0)


# the decaying g of the exponents c + a g, and the h of c + a h without a limit
_DECAYING = st.one_of(
    st.sampled_from(["1/(1+x^2)", "1/(1+abs(x))", "exp(-abs(x))"]),
    st.floats(0.25, 4.0).map(lambda b: f"sinc({b!r})"),
    st.tuples(st.floats(0.25, 4.0), st.floats(0.5, 5.0)).map(
        lambda t: f"gauss({t[0]!r})*sin({t[1]!r}*x)"),
)
_NO_LIMIT = st.sampled_from(["sin(x)^2", "x/(1+abs(x))", "exp(-x)"])


class TestLimitAtInfinity:
    @pytest.mark.parametrize("src, limit", [
        ("2 + 1/(1+x^2)", 2.0),
        ("2 + 1/(1+abs(x))", 2.0),
        ("(2*x^2+1)/(x^2+1)", 2.0),
        ("sinc(1) + 2", 2.0),
        ("2 + exp(-abs(x))", 2.0),
        ("2 + exp(-abs(x))*sin(x)", 2.0),
        ("1.5 + sin(x)^2/(1+x^2)", 1.5),
    ])
    def test_read_off_the_tree(self, src, limit):
        assert ExponentField.from_expr(src).p_infinity == limit

    def test_limit_is_the_range_end_it_touches(self):
        # the mean of p(+-500) read p_infinity = p_minus = 2.001996, and
        # p_infinity = p_plus = 1.999996
        assert ExponentField.from_expr("2 + 1/(1+abs(x))").p_minus == 2.0
        assert ExponentField.from_expr("(2*x^2+1)/(x^2+1)").p_plus == 2.0

    def test_bundled_exponents(self):
        from vexp.corpus import exponent_field
        assert [exponent_field(n).p_infinity for n in ("p2", "p_bump", "p_osc")] == \
            [2.0, 2.0, 1.5]

    @pytest.mark.parametrize("src", ["2 + sin(x)^2", "2 + x/(1+abs(x))", "2 + exp(-x)"])
    def test_no_limit_refused(self, src):
        # accepted with p_infinity = 2.2188, 2 and 7.0e216
        with pytest.raises(ExponentRangeError, match="no limit at infinity"):
            ExponentField.from_expr(src)

    def test_limit_below_one_refused(self):
        # 1e6/(1+x^2) stays above 1 on [-50, 50] and tends to 0
        with pytest.raises(ExponentRangeError, match="p = 0 < 1 at infinity"):
            ExponentField.from_expr("1e6/(1+x^2)")

    @settings(max_examples=20, deadline=None)
    @given(st.floats(1.5, 4.0), st.floats(-0.9, 0.9), _DECAYING)
    def test_generated_decaying_exponents_read_exactly(self, c, t, g):
        a = t * (c - 1.0)
        assert ExponentField.from_expr(f"{c!r} + ({a!r})*{g}").p_infinity == c

    @settings(max_examples=30, deadline=None)
    @given(st.floats(1.5, 4.0), st.floats(0.05, 0.9), st.booleans(), _NO_LIMIT)
    def test_generated_exponents_without_limit_refused(self, c, a, negative, h):
        a = -a if negative else a
        with pytest.raises(ExponentRangeError, match="no limit at infinity"):
            ExponentField.from_expr(f"{c!r} + ({a!r})*{h}")


# ---------------------------------------------------------------------------
# Compiled evaluation against a tree-walking reference
# ---------------------------------------------------------------------------

def _ref_sinc(a, x):
    y = a * x
    small = np.abs(y) < 1e-6
    ys = np.where(small, 1.0, y)
    out = np.sin(ys) / ys
    y2 = y * y
    series = 1.0 - y2 / 6.0 * (1.0 - y2 / 20.0)
    return np.where(small, series, out)


def _ref_sincd(a, n, x):
    y = a * x
    small = np.abs(y) < 0.5
    ysafe = np.where(small, 1.0, y)
    closed = np.zeros_like(y, dtype=float)
    for j in range(n + 1):
        coeff = math.comb(n, j) * (-1.0) ** (n - j) * math.factorial(n - j)
        closed += coeff * np.sin(ysafe + j * math.pi / 2.0) / ysafe ** (n - j + 1)
    series = np.zeros_like(y, dtype=float)
    for m in range((n + 1) // 2, (n + 1) // 2 + 12):
        if 2 * m < n:
            continue
        c = (-1.0) ** m * math.factorial(2 * m) / (
            math.factorial(2 * m - n) * math.factorial(2 * m + 1))
        series += c * y ** (2 * m - n)
    return a ** n * np.where(small, series, closed)


def reference_eval(node, x):
    """Direct tree walk: one ufunc per node, literals as full arrays."""
    ev = reference_eval
    if isinstance(node, fnexpr.Num):
        return np.full_like(x, node.value, dtype=float)
    if isinstance(node, fnexpr.Var):
        return x
    if isinstance(node, fnexpr.BinOp):
        left, right = ev(node.left, x), ev(node.right, x)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return left / right
    if isinstance(node, fnexpr.Pow):
        base = ev(node.base, x)
        if node.exponent >= 0:
            return base ** node.exponent
        return 1.0 / base ** (-node.exponent)
    if isinstance(node, fnexpr.Neg):
        return -ev(node.operand, x)
    if isinstance(node, fnexpr.Call):
        ufunc = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "abs": np.abs}
        return ufunc[node.name](ev(node.arg, x))
    if isinstance(node, fnexpr.Gauss):
        return np.exp(-node.a * x * x)
    if isinstance(node, fnexpr.SincD) and node.order == 0:
        return _ref_sinc(node.a, x)
    if isinstance(node, fnexpr.SincD):
        return _ref_sincd(node.a, node.order, x)
    if isinstance(node, fnexpr.Indicator):
        return ((x >= node.a) & (x <= node.b)).astype(float)
    raise TypeError(node)


# zero, points inside every series window, indicator ends, wide values
POINTS = np.unique(np.concatenate([
    np.linspace(-30.0, 30.0, 601), np.linspace(-0.3, 0.3, 61),
    [0.0, 1e-300, -1e-9, 1e-7, 3e-7, -2e-6, 0.125, -0.5, 1e5, -3e7],
]))


def assert_bit_identical(node):
    with np.errstate(all="ignore"):
        want = reference_eval(node, POINTS)
        got = fnexpr.evaluate(node, POINTS)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestCompiler:
    @settings(max_examples=200, deadline=None)
    @given(ALL_NODES_AST)
    def test_random_ast_bit_identical(self, ast):
        assert_bit_identical(ast)

    def test_corpus_and_derivatives_bit_identical(self):
        from vexp.corpus import default_corpus
        for member in default_corpus():
            if member.expr is None:
                continue
            assert_bit_identical(member.expr.ast)
            if member.smooth:
                for order in (1, 2):
                    assert_bit_identical(differentiate(member.expr, order).ast)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_sincd_bit_identical(self, order):
        assert_bit_identical(fnexpr.SincD(1.7, order))

    def test_exponent_fields_and_duals_bit_identical(self):
        from vexp.corpus import default_exponents
        fields = default_exponents()
        assert len(fields) == 3
        for p in fields:
            assert_bit_identical(p.expr.ast)
            if p.p_minus > 1.0:
                assert_bit_identical(p.dual().expr.ast)

    def test_constant_folding(self):
        for src in ("2 * 3 - 1 + 0 * x", "gauss(2)", "sinc(1)", "indicator(0, 1)"):
            assert parse(src).constant is None
        assert parse("(2 + 1) ^ 2").constant == 9.0
        for src in ("gauss(sinc(1))", "indicator(0, x)"):
            with pytest.raises(ParseError):
                parse(src)
        out = parse("4")(np.zeros((2, 3)))
        assert out.shape == (2, 3) and np.all(out == 4.0)

    def test_scalar_and_zero_dim_inputs(self):
        f = parse("sinc(2) + x")
        assert f(0.0) == 1.0
        assert isinstance(f(0.5), float)
        assert f(np.asarray(0.5)).shape == ()
