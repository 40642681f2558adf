import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from vexp import fnexpr
from vexp.fnexpr import (Decay, ExponentField, ExponentRangeError,
                         NonDifferentiableError, ParseError, differentiate,
                         estimate_log_holder, parse)
from vexp.functions import as_real_function


_LEAVES = st.one_of(
    st.floats(-5, 5).map(lambda v: fnexpr.Num(round(v, 3))),
    st.just(fnexpr.Var()),
    st.floats(0.5, 4).map(lambda a: parse(f"gauss({round(a, 2)})").ast),
    st.floats(0.5, 4).map(lambda a: fnexpr.SincD(round(a, 2), 0)),
)


def _negated(node):
    """-u as the parser builds it."""
    return fnexpr.BinOp("*", fnexpr.Num(-1.0), node)


def _nodes(kids):
    return st.one_of(
        st.tuples(st.sampled_from("+*"), kids, kids).map(lambda t: fnexpr.BinOp(*t)),
        st.tuples(kids, st.integers(0, 3)).map(lambda t: fnexpr.Pow(*t)),
        kids.map(_negated),
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
        kids.map(_negated),
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
        # a finite nonzero leading term c |x|^g, g >= 0: no L^p(.) norm on R
        ("1", "nonvanishing", 0.0), ("gauss(0)", "nonvanishing", 0.0),
        ("x", "nonvanishing", -1.0), ("2 - x^2", "nonvanishing", -2.0),
        ("x/(1+abs(x))", "nonvanishing", 0.0),
        ("x*exp(-abs(x))", "none", 0.0),  # the leading coefficient is 0
        ("2 + sin(x)", "none", 0.0),  # the leading coefficient is unknown
    ])
    def test_raw_sources(self, src, kind, alpha):
        d = parse(src).decay_class
        assert (d.kind, d.alpha) == (kind, alpha)

    def test_compact_support_bounds(self):
        d = parse("x*indicator(0, 1) + indicator(2, 3)").decay_class
        assert (d.kind, d.a, d.b) == ("compact_support", 0.0, 3.0)

    def test_bundled_members_keep_their_class(self):
        from vexp.corpus import default_corpus
        want = {"gauss": Decay("gaussian"), "gauss_osc": Decay("gaussian"),
                "sinc1": Decay("power", alpha=1.0), "sinc4": Decay("power", alpha=1.0),
                # the smoothed box starts at the rounded zero of (1.1 - 0.9)/2 + x
                "box": Decay("compact_support", 0.0, 1.0),
                "box_smooth": Decay("compact_support", (0.9 - 1.1) / 2, 1.0),
                "xgauss": Decay("gaussian"), "cos_gauss": Decay("gaussian"),
                "gauss_wide": Decay("gaussian"), "x2gauss": Decay("gaussian"),
                "lorentz": Decay("power", alpha=2.0), "lorentz2": Decay("power", alpha=4.0)}
        assert {m.name: m.expr.decay_class for m in default_corpus()} == want

    def test_truncated_powers_read_once(self, monkeypatch):
        # the exact engine and the decay class share the expression's terms;
        # each read walks the whole tree
        from vexp import functions
        calls = []
        read = fnexpr.truncated_powers
        for module in (fnexpr, functions):  # wherever it is looked up
            monkeypatch.setattr(module, "truncated_powers",
                                lambda node: calls.append(node) or read(node), raising=False)
        f = functions.as_real_function(parse("indicator(0, 1)"))
        assert f.expr.decay_class == Decay("compact_support", 0.0, 1.0)
        assert len(calls) == 1

    def test_smooth_flag(self):
        assert parse("sinc(2)*exp(-x^2)/(1+x^2)").smooth
        assert not parse("1 + abs(x)").smooth
        assert not parse("x*indicator(0, 1)").smooth
        assert differentiate(parse("sin(x)"), 3).smooth


class TestRoughSpots:
    # one row per rule of the frequency bound, which a RealFunction carries as
    # read; the wavelength used to come from single sin, cos and sinc nodes
    @pytest.mark.parametrize("src, breakpoints, freq", [
        ("sin(3*x)*cos(4*x)", (), 7.0),  # a product sums its factors
        ("sin(2*x)^3", (), 6.0),  # a power n multiplies its base's by n
        ("sin(5*abs(x-1))", (1.0,), 5.0),  # the slopes of the pieces count
        ("sincd(4, 2)", (), 4.0),
    ])
    def test_frequency_rule(self, src, breakpoints, freq):
        from vexp.functions import as_real_function
        f = as_real_function(parse(src))
        assert (f.breakpoints, f.frequency) == (breakpoints, freq)

    # sin or cos of a non-affine argument, and exp, a quotient or a negative
    # power of an oscillating tree: the last four read the largest child's
    # frequency, and T_1 at d = 1 was off by up to 2.8e-2
    @pytest.mark.parametrize("src", ["sin(exp(x))", "cos(x^2)", "exp(sin(2*x))/(1+x^2)",
                                     "exp(4*sin(20*x))", "1/(1.1+sin(20*x))", "sin(3*x)^-2"])
    def test_argument_not_piecewise_affine_refused(self, src):
        with pytest.raises(ValueError, match="cannot bound the frequency"):
            fnexpr.rough_spots(parse(src).ast)

    def test_reads_the_pieces_only_at_abs_sin_and_cos(self, monkeypatch):
        # each subtree is read once: _pieces used to run at every node
        # outside the piecewise subset, once per ancestor
        calls = []
        pieces = fnexpr._pieces
        monkeypatch.setattr(fnexpr, "_pieces", lambda node: calls.append(node) or pieces(node))
        assert fnexpr.rough_spots(parse("exp(exp(exp(x)))*x^2").ast) == ((), 0.0)
        assert calls == []

    @settings(max_examples=200, deadline=None)
    @given(PIECEWISE_AST)
    def test_breakpoints_of_a_piecewise_polynomial_are_its_knots(self, ast):
        # the union over the children gives the knots of the one walk
        with np.errstate(all="ignore"):  # constant subtrees fold, 1/0 among them
            pieces = fnexpr._pieces(ast)
            if pieces is not None:
                assert fnexpr.rough_spots(ast) == (tuple(pieces[0]), 0.0)


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
                    "indicator(0,1)", "-x^3 + 2*x", "abs(x - 0.5)", "(-2)^2*x",
                    "-1 + x", "-1 - x", "-1/x", "-x + x^2"):
            ast1 = parse(src).ast
            printed = fnexpr.to_source(ast1)
            assert parse(printed).ast == ast1
        # -1 + 2x: an interned -1 prints as a sign only on the left of a product
        d = differentiate(parse("-x + x^2")).ast
        assert parse(fnexpr.to_source(d)).ast == d

    @settings(max_examples=60, deadline=None)
    @given(RANDOM_AST)
    def test_idempotence_random_ast(self, ast):
        # parse(print(parse(src))) == parse(src) for any source text; random
        # trees are first pushed through one parse to reach canonical form
        canon = parse(fnexpr.to_source(ast)).ast
        assert parse(fnexpr.to_source(canon)).ast == canon


def _literal_sources():
    """Every string of the README and every string constant of the test files
    and the corpus that parses once the depth caps are lifted (monkeypatched by
    the caller)."""
    import ast as pyast
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    texts = set(re.findall(r"`([^`\n]+)`", readme)) | set(re.findall(r"'([^'\n]+)'", readme))
    texts |= set(re.findall(r'"([^"\n]+)"', readme))
    for path in [*sorted((root / "tests").glob("*.py")), root / "src" / "vexp" / "corpus.py"]:
        texts |= {n.value for n in pyast.walk(pyast.parse(path.read_text()))
                  if isinstance(n, pyast.Constant) and isinstance(n.value, str)}
    for text in sorted(texts):
        try:
            parse(text)
        except (ValueError, RecursionError):
            continue
        yield text


class TestDepthCaps:
    # the parser recurses: 140 nested parentheses raised RecursionError and
    # printed a traceback.  No tree walk recurses any more; one cap on
    # distinct nodes bounds a source and each derivative
    NEST, NODES = fnexpr._MAX_NEST, fnexpr._MAX_NODES
    HEAD = "exp(-x^2)"  # 5 nodes: exp, the product with -1, -1, the power, x
    CHAIN = NODES - 6  # factors 1 that bring HEAD*1*...*1 to the cap: one node each, and the 1

    def test_nesting_cap(self):
        parse("(" * self.NEST + "x" + ")" * self.NEST)
        parse("-" * self.NEST + "x")
        for src in ("(" * (self.NEST + 1) + "x" + ")" * (self.NEST + 1),
                    "(" * 140 + "x" + ")" * 140, "-" * (self.NEST + 1) + "x"):
            with pytest.raises(ParseError, match=rf"more than {self.NEST} open parentheses "
                               rf"or signs \(at column {self.NEST + 1}\)"):
                parse(src)

    def test_node_cap(self):
        parse(self.HEAD + "*1" * self.CHAIN)
        for src in (self.HEAD + "*1" * (self.CHAIN + 1), self.HEAD + "*1" * (2 * self.NODES)):
            column = len(self.HEAD) + 2 * self.CHAIN + 1  # the refused factor's '*'
            with pytest.raises(ParseError, match=rf"more than {self.NODES} distinct nodes "
                               rf"\(at column {column}\)"):
                parse(src)

    def test_exponent_refused(self):
        with pytest.raises(ParseError, match="column"):
            ExponentField.from_expr("2 + " + "(" * 140 + "x^2" + ")" * 140)
        with pytest.raises(ParseError, match="column"):
            ExponentField.from_expr("2" + "+0" * self.NODES)

    def test_bundled_readme_and_test_sources_parse(self, monkeypatch):
        from vexp.config import parse_config
        from vexp.defaults import default_config_text
        for case in parse_config(default_config_text())["case"]:
            for key in ("f", "g", "p"):
                if not case.get(key, "@").startswith("@"):
                    parse(case[key])
        monkeypatch.setattr(fnexpr, "_MAX_NEST", math.inf)
        monkeypatch.setattr(fnexpr, "_MAX_NODES", math.inf)
        sources = list(_literal_sources())
        monkeypatch.undo()
        assert len(sources) > 100
        for src in sources:
            parse(src)

    @pytest.mark.parametrize("src, answered", [
        (HEAD + "*1" * CHAIN, 4), ("-" * NEST + HEAD, 4),
        ("(" * (NEST - 1) + HEAD + ")" * (NEST - 1), 4),
        ("(" * (NEST - 1) + HEAD + "*1" * CHAIN + ")" * (NEST - 1), 4),
        (HEAD + "+x" * (NODES - 5), 0),  # d/dx exp(-x^2) has more nodes than it
    ], ids=["product_chain", "signs", "parentheses", "both", "sum_chain"])
    def test_derivatives_of_a_source_at_the_cap(self, src, answered):
        # every order up to 4 answers or is refused; none exhausts the stack
        f = parse(src)
        for order in range(1, 5):
            if order > answered:
                with pytest.raises(ValueError, match=f"more than {self.NODES} distinct nodes"):
                    differentiate(f, order)
                continue
            g = differentiate(f, order)
            assert np.all(np.isfinite(g(np.linspace(-1.0, 1.0, 5))))
            assert g.src and g.smooth

    def test_too_large_derivative_refused(self):
        # the derivative of a product of n factors x has about 2n nodes
        f = parse(self.HEAD + "*x" * (self.NODES - 5))
        with pytest.raises(ValueError, match=f"order 1 has more than {self.NODES} distinct nodes"):
            differentiate(f)


def _objects(node) -> int:
    """The distinct node objects under node, counted by identity."""
    seen, stack = {}, [node]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            stack += [getattr(n, f) for f in ("left", "right", "base", "arg") if hasattr(n, f)]
    return len(seen)


class TestSharing:
    # derivatives copied the subtrees they share: the order-4 derivative of
    # cos_gauss held 494 node objects, lorentz2's 328, and the third of 16
    # nested exps 5,409; at 48 levels, orders 1-4 ran 184 s
    NESTED = "exp(" * 15 + "exp(-x^2)" + ")" * 15

    @pytest.mark.parametrize("src, order, most", [
        ("cos(3*x)*exp(-x^2/4)", 4, 73), ("1/(1+x^2)^2", 4, 83), (NESTED, 3, 182)])
    def test_a_derivative_is_one_object_per_distinct_subtree(self, src, order, most):
        assert _objects(differentiate(parse(src), order).ast) <= most

    def test_48_nested_calls_answer_or_are_refused(self):
        f = parse("exp(" * 47 + "exp(-x^2)" + ")" * 47)
        for order in range(1, 5):
            try:
                g = differentiate(f, order)
            except ValueError as err:
                assert f"more than {fnexpr._MAX_NODES} distinct nodes" in str(err)
                continue
            with np.errstate(over="ignore", invalid="ignore"):
                assert g(np.array([-0.5, 0.0, 0.5])).shape == (3,)

    def test_equal_subtrees_are_one_object(self):
        assert parse("sin(x)*exp(-x^2) + sin(x)").ast.right is parse("sin(x)").ast
        assert fnexpr.BinOp("+", fnexpr.Var(), fnexpr.Num(1)) is parse("x + 1").ast
        assert fnexpr.Num(0.0) is not fnexpr.Num(-0.0)  # keyed by their bits


class TestBriefMessages:
    # a refusal printed a node's expanded source: as_real_function of the
    # third derivative of 24 nested exps over 2 + sin(x), 318 distinct nodes,
    # raised a 968,409-character message
    def test_a_long_source_is_named_by_its_node_count(self):
        f = differentiate(parse("exp(" * 24 + "-x^2" + ")" * 24 + "/(2 + sin(x))"), 3)
        with pytest.raises(ValueError) as err:
            as_real_function(f)
        assert str(err.value) == ("cannot bound the frequency of an expression of 318 "
                                  "distinct nodes")
        src = "2 + sin(x) + " + " + ".join(f"{k}/(x^2+{k})" for k in range(1, 40))
        with pytest.raises(ExponentRangeError, match="^an expression of 160 distinct nodes has"):
            ExponentField.from_expr(src)

    def test_length_is_counted_without_the_source(self):
        # the counted length is the printed one, so a source of up to 400
        # characters is printed whole
        from vexp.corpus import default_corpus
        for m in default_corpus():
            for order in range(4 if m.smooth else 1):
                node = differentiate(m.expr, order).ast if order else m.expr.ast
                src = fnexpr.to_source(node)
                assert (fnexpr._brief(node) == src) == (len(src) <= fnexpr._BRIEF)
        for terms, printed in ((67, 397), (68, 403)):  # x + x + ..., each sum in parentheses
            node = parse(" + ".join(["x"] * terms)).ast
            assert len(fnexpr.to_source(node)) == printed
            assert (fnexpr._brief(node) == fnexpr.to_source(node)) == (printed <= 400)
        assert fnexpr._brief(node) == "an expression of 68 distinct nodes"


class TestSincdOrders:
    # the closed form cancels about eps n!/|y|^(n+1) where it takes over from
    # the series, which was |y| = 0.5 at every order: order 8 was off by
    # 1.6e-9 and order 16 by 67, and sincd(1, 200) raised OverflowError
    @pytest.mark.parametrize("order", range(1, 13))
    def test_against_the_integral(self, order):
        import mpmath as mp
        ys = np.concatenate([np.linspace(-6.0, 6.0, 41), [-0.5, 0.5]])
        with mp.workdps(30):  # d^n/dy^n sin(y)/y = int_0^1 t^n cos(t y + n pi/2) dt
            want = [float(mp.quad(lambda t: t ** order * mp.cos(t * y + order * mp.pi / 2),
                                  [0, 1], method="gauss-legendre")) for y in ys]
        assert np.max(np.abs(parse(f"sincd(1, {order})")(ys) - want)) <= 1e-13

    def test_orders_above_the_rule_refused(self):
        top = fnexpr._SINCD_MAX
        assert top == 16
        for src in (f"sincd(1, {top + 1})", "sincd(1, 200)"):
            with pytest.raises(ParseError, match=rf"from 1 to {top} \(at column 1\)"):
                parse(src)
        assert differentiate(parse("sinc(2)"), top).src == f"sincd(2, {top})"
        with pytest.raises(ValueError, match=f"sincd above order {top}"):
            differentiate(parse(f"x + sincd(2, {top})"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestNonFiniteConstants:
    # constants are folded when the tree is compiled: exp(1e300) let out
    # numpy's overflow warning there, and its inf surfaced as a non-finite
    # sample at some x
    @pytest.mark.parametrize("src, value, column", [
        ("exp(1e300)", "inf", 1), ("1e999", "inf", 1), ("x + 2^2000", "inf", 6),
        ("0/0 + x", "nan", 2), ("gauss(1e999)", "inf", 7), ("sin(x)*(1e300*1e300)", "inf", 14),
    ])
    def test_refused_naming_the_column(self, src, value, column):
        with pytest.raises(ParseError, match=rf"this constant is {value}, not a finite float "
                           rf"\(at column {column}\)"):
            parse(src)

    def test_finite_folds_pass_quietly(self):
        assert parse("exp(-1e300)").constant == 0.0
        assert parse("exp(700)*exp(-x^2)")(0.0) == math.exp(700.0)

    def test_overflowing_pieces_are_quiet(self):
        # the coefficients of (1e200*x)^2 overflow in the piecewise form
        e = parse("(1e200*x)^2 + indicator(0, 1)")
        assert e.terms is None
        fnexpr.rough_spots(e.ast)


class TestAbbreviations:
    """The parser expands -u and gauss(a); no other node stands for them."""

    @pytest.mark.parametrize("a", ["0.01", "0.5", "2"])
    def test_gauss_is_its_exp_tree(self, a):
        # gauss(0.01) was Gaussian with window 12, its exp twin has no class
        assert parse(f"gauss({a})") == parse(f"exp(-{a}*x*x)")

    def test_minus_is_a_product_by_minus_one(self):
        assert parse("-sin(x)") == parse("-1*sin(x)")
        assert parse("-1*sin(x)").src == "(-sin(x))"

    @pytest.mark.parametrize("src, value", [("gauss(0)", 1.0), ("sinc(0)", 1.0),
                                            ("sincd(0, 2)", 0.0)])
    def test_zero_rates_are_constants(self, src, value):
        assert parse(src).constant == value

    def test_printed_sources_of_the_bundled_trees_are_unchanged(self):
        # the 12 members and 3 exponents with their derivatives of orders 1
        # to 4, as they printed when -u and gauss(a) were nodes (orders 1 and
        # 2) and when derivatives were trees, not DAGs (orders 3 and 4)
        from vexp.corpus import default_corpus, default_exponents
        lines = []
        for e in [m.expr for m in default_corpus()] + [p.expr for p in default_exponents()]:
            lines.append(e.src)
            if e.smooth:
                lines += [differentiate(e, k).src for k in (1, 2, 3, 4)]
        assert len(lines) == 67
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "bf62efd972fdc0170ac12e5d79a44fd97abd50b992475652c72973a754a5bcb6")


def _differentiable(e) -> bool:
    try:
        for k in (1, 2, 3):
            differentiate(e, k)
    except NonDifferentiableError:
        return False
    return True


class TestSmoothMeansDifferentiable:
    # the flag was "no abs or indicator node", which refused a rough base
    # to the power 0: 123 of 9,000 drawn trees disagreed with differentiate
    def test_rough_base_to_the_power_zero(self):
        e = parse("indicator(0, 0.1)^0")
        assert e.smooth and _differentiable(e)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(RANDOM_AST, ALL_NODES_AST, PIECEWISE_AST))
    def test_drawn_trees(self, ast):
        try:
            e = parse(fnexpr.FuncExpr(ast).src)
        except ParseError as err:  # a drawn constant that is not finite, such as 0/0
            assert "not a finite float" in str(err)
            e = fnexpr.FuncExpr(ast)
        assert e.smooth == _differentiable(e), e.src


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


def _on_grid(monkeypatch, window, samples):
    """estimate_log_holder on samples points of [-window, window]."""
    monkeypatch.setattr(fnexpr, "_P_WINDOW", window)
    monkeypatch.setattr(fnexpr, "_P_SAMPLES", samples)
    return estimate_log_holder


def _pairwise_log_holder(p, p_infinity, window=50.0, samples=801):
    """The reference: (c_log_local, c_log_decay, p_minus, p_plus) as maxima
    over every pair of samples, 512 rows at a time."""
    xs = np.linspace(-window, window, samples)
    vals = p(xs)
    c_local = 0.0
    for i0 in range(0, samples, 512):
        dx = np.abs(xs[i0:i0 + 512, None] - xs)
        mask = dx > 0.0
        q = np.abs(vals[i0:i0 + 512, None] - vals) * np.log(np.e + 1.0 / np.where(mask, dx, 1.0))
        c_local = max(c_local, float(np.max(np.where(mask, q, 0.0))))
    c_decay = float(np.max(np.abs(vals - p_infinity) * np.log(np.e + np.abs(xs))))
    return c_local, c_decay, float(np.min(vals)), float(np.max(vals))


class TestLogHolder:
    def test_constant_exponent(self, monkeypatch):
        c1, c2, pmin, pmax = _on_grid(monkeypatch, 50.0, 401)(parse("2"), p_infinity=2.0)
        assert (c1, c2, pmin, pmax) == (0.0, 0.0, 2.0, 2.0)

    def test_bump_exponent(self, monkeypatch):
        # constants finite, range [2, 3]
        c1, c2, pmin, pmax = _on_grid(monkeypatch, 50.0, 401)(parse("2 + 1/(1+x^2)"),
                                                              p_infinity=2.0)
        assert 0.0 < c1 < 5.0 and 0.0 < c2 < 5.0
        assert pmin == pytest.approx(2.0, abs=1e-3)
        assert pmax == pytest.approx(3.0, abs=1e-9)

    def test_no_asymptote_is_flagged_by_growth(self, monkeypatch):
        # p = 2 + sin(x) has no limit at infinity: the decay quotient grows
        # like log(e + |x|) as the window widens
        e = parse("2 + sin(x)")
        _, c2_small, _, _ = _on_grid(monkeypatch, 10.0, 201)(e, p_infinity=2.0)
        _, c2_large, _, _ = _on_grid(monkeypatch, 1000.0, 2001)(e, p_infinity=2.0)
        assert c2_large > c2_small + 1.0

    def test_monotone_in_samples(self, monkeypatch):
        e = parse("2 + 1/(1+x^2)")
        prev = (0.0, 0.0)
        # nested grids: N -> 2N-1 keeps every existing node
        for n in (101, 201, 401, 801):
            c1, c2, _, _ = _on_grid(monkeypatch, 50.0, n)(e, p_infinity=2.0)
            assert c1 >= prev[0] - 1e-15 and c2 >= prev[1] - 1e-15
            prev = (c1, c2)

    def test_exponent_below_one_rejected(self, monkeypatch):
        with pytest.raises(ExponentRangeError):
            _on_grid(monkeypatch, 10.0, 101)(parse("1 + sin(x)"), p_infinity=1.0)

    @pytest.mark.parametrize("src", ["2", "2 + 1/(1+x^2)", "1.5 + sin(x)^2/(1+x^2)",
                                     "2 + 1/(1+abs(x))", "3 - exp(-x^2)"])
    def test_lags_match_every_pair(self, src):
        # the lag scan and its stop give the pairwise maxima bit for bit
        e = parse(src)
        assert estimate_log_holder(e, 2.0) == _pairwise_log_holder(e, 2.0)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(1.5, 4.0), st.floats(-0.9, 0.9), st.deferred(lambda: _DECAYING))
    def test_lags_match_every_pair_on_generated_exponents(self, c, t, g):
        e = parse(f"{c!r} + ({t * (c - 1.0)!r})*{g}")
        assert estimate_log_holder(e, c) == _pairwise_log_holder(e, c)

    def test_exponent_field_dual(self):
        p = ExponentField.from_expr("2 + 1/(1+x^2)")
        q = p.dual()
        xs = np.linspace(-5, 5, 11)
        pv = p(xs)
        assert np.allclose(q(xs), pv / (pv - 1.0))
        assert q.p_minus == pytest.approx(1.5)
        assert q.p_plus == pytest.approx(2.0)

    @pytest.mark.parametrize("src", ["1.5 + sin(x)^2/(1+x^2)", "2 + 1/(1+x^2)"])
    def test_dual_constants_bound_the_duals_own_grid(self, src):
        # the dual kept p's constants: for p_osc 0.4649 and 0.4844, where the
        # dual's own grid reads 1.0888 and 1.1378
        q = ExponentField.from_expr(src).dual()
        c1, c2, _, _ = estimate_log_holder(q.expr, q.p_infinity)
        assert q.c_log_local >= c1 and q.c_log_decay >= c2

    def test_dual_requires_pminus_above_one(self):
        with pytest.raises(ExponentRangeError):
            ExponentField.from_expr("1").dual()

    def test_frequency_is_the_trees_bound(self):
        # the Luxemburg grid caps its panels at MAX_PHASE radians of it; the
        # dual of p_osc divides by an oscillating p - 1, which no sum bounds
        from vexp.corpus import exponent_field
        assert [exponent_field(n).frequency for n in ("p2", "p_bump", "p_osc")] == [0.0, 0.0, 2.0]
        assert math.isnan(exponent_field("p_osc").dual().frequency)

    def test_nan_exponent_rejected(self, monkeypatch):
        # sin(x)/x is 0/0 at the grid point 0, and a NaN passed `min < 1`
        with np.errstate(invalid="ignore"), \
                pytest.raises(ExponentRangeError, match=r"p\(0\) = nan"):
            _on_grid(monkeypatch, 10.0, 101)(parse("2 + sin(x)/x"), p_infinity=2.0)


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
    if isinstance(node, fnexpr.Call):
        ufunc = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "abs": np.abs}
        return ufunc[node.name](ev(node.arg, x))
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
                for order in (1, 2, 3, 4):
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
