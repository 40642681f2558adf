import operator

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings

from test_fnexpr import RANDOM_AST
from vexp import fnexpr, functions
from vexp.corpus import default_corpus, resolve_function
from vexp.fnexpr import FuncExpr, parse
from vexp.functions import as_real_function, outer_apply


def naive_outer(f, x, offsets, weights):
    """One outer-form evaluation and one gemv per block of _SUB_CHUNK // m rows."""
    step = max(1, functions._SUB_CHUNK // max(offsets.size, 1))
    ev = f.expr.outer(x, offsets)
    return np.concatenate([ev(slice(i, i + step)) @ weights for i in range(0, x.size, step)])


def plain_sum(f, x, offsets, weights):
    """The weighted sum without BLAS, and the sum of |terms| that bounds its
    error; the terms come from the outer form, whose accuracy
    `test_outer_form_matches_an_oracle` checks."""
    vals = f.expr.outer(x, offsets)(slice(None))
    return (vals * weights).sum(1), np.abs(vals) @ np.abs(weights)


def sample(m, n, seed):
    rng = np.random.default_rng(seed)
    return (rng.uniform(-4.0, 4.0, n), rng.uniform(-1.0, 1.0, m),
            rng.uniform(-1.0, 1.0, m))


@pytest.mark.parametrize("src", ["exp(-x^2)*sin(5*x)", "sinc(3)"])
@pytest.mark.parametrize("m, n", [(37, 1000), (300, 1000), (1, 5000)])
def test_sub_blocked_fill_matches_naive_blocks(monkeypatch, src, m, n):
    # a small block: m=37 gives 6 rows per block, m=300 (above _SUB_CHUNK)
    # one row, m=1 256 rows; n is no multiple of 6 or 256
    monkeypatch.setattr(functions, "_SUB_CHUNK", 1 << 8)
    f = as_real_function(parse(src))
    x, offsets, weights = sample(m, n, m)
    got = outer_apply(f, x, offsets, weights)
    assert np.array_equal(got, naive_outer(f, x, offsets, weights))
    ref, scale = plain_sum(f, x, offsets, weights)
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)


@pytest.mark.parametrize("m, n", [(12, 10_000), (2600, 50)])
def test_agrees_with_a_plain_weighted_sum(m, n):
    f = as_real_function(parse("exp(-x^2)*sin(5*x)"))
    x, offsets, weights = sample(m, n, n)
    ref, scale = plain_sum(f, x, offsets, weights)
    got = outer_apply(f, x, offsets, weights)
    assert np.all(np.abs(got - ref) <= 1e-13 * scale)


def test_sub_blocked_fill_at_module_sizes():
    # m above _SUB_CHUNK: one row per block; x is 2-D
    m = functions._SUB_CHUNK + 7
    n = 14
    rng = np.random.default_rng(1)
    f = as_real_function(parse("exp(-x^2)"))
    x = rng.uniform(-2.0, 2.0, n)
    offsets = np.linspace(-1.0, 1.0, m)
    weights = rng.uniform(-1.0, 1.0, m)
    got = outer_apply(f, x.reshape(2, -1), offsets, weights)
    assert got.shape == (2, n // 2)
    assert np.array_equal(got.ravel(), naive_outer(f, x, offsets, weights))
    ref, scale = plain_sum(f, x, offsets, weights)
    assert np.all(np.abs(got.ravel() - ref) <= 1e-13 * scale)


MP_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def mp_value(node, x):
    """node at the mpmath number x: the oracle at the exact x_i + t_j."""
    if isinstance(node, fnexpr.Num):
        return mpmath.mpf(node.value)
    if isinstance(node, fnexpr.Var):
        return x
    if isinstance(node, fnexpr.BinOp):
        return MP_OPS[node.op](mp_value(node.left, x), mp_value(node.right, x))
    if isinstance(node, fnexpr.Pow):
        return mp_value(node.base, x) ** node.exponent
    if isinstance(node, fnexpr.Neg):
        return -mp_value(node.operand, x)
    if isinstance(node, fnexpr.Call):
        return getattr(mpmath, node.name)(mp_value(node.arg, x))
    if isinstance(node, fnexpr.Gauss):
        return mpmath.exp(-node.a * x * x)
    assert isinstance(node, fnexpr.SincD) and node.order == 0
    y = node.a * x
    return mpmath.sin(y) / y if y else mpmath.mpf(1)


def errors(expr, x, offsets):
    """Largest errors of the outer and the plain form against the oracle, and
    the largest |f|."""
    with mpmath.workdps(40):
        want = np.array([[float(mp_value(expr.ast, mpmath.mpf(a) + mpmath.mpf(b)))
                          for b in offsets] for a in x])
    with np.errstate(all="ignore"):
        outer = expr.outer(x, offsets)(slice(None))
        plain = expr(x[:, None] + offsets)
        return np.max(np.abs(outer - want)), np.max(np.abs(plain - want)), np.max(np.abs(want))


@pytest.mark.parametrize("src", [
    *("@" + m.name for m in default_corpus() if any(s in m.expr.src for s in ("sin", "cos"))),
    "sin(2*x - 1)/(1+x^2)", "cos(0.5 - 3*x)", "sinc(-2)", "sinc(0)"])
def test_outer_form_matches_an_oracle(src):
    # on its norm window, near x = -t, at x = -t and at |x| large
    m = resolve_function(src)
    rng = np.random.default_rng(5)
    offsets = np.linspace(0.0, 2.0, 17)
    x = np.concatenate([rng.uniform(-m.norm_window, m.norm_window, 30), rng.uniform(-3.0, 3.0, 20),
                        -offsets, -offsets[1:] * (1.0 + 1e-9), [-m.norm_window, m.norm_window]])
    outer, plain, scale = errors(m.expr, x, offsets)
    assert outer <= plain
    # at most 3.9e-16 here; the plain form reaches 3.5e-15 on cos(0.5 - 3*x)
    assert outer <= 4.0 * np.finfo(float).eps * max(scale, 1.0)


def test_sinc_lattice_sends_rows_and_offsets_to_sin_and_cos(monkeypatch):
    # the plain form takes one sine per element: 98,049 here
    sizes = []
    for name in ("sin", "cos"):
        monkeypatch.setattr(np, name, lambda y, ufunc=getattr(np, name):
                            sizes.append(np.size(y)) or ufunc(y))
    x, offsets = np.linspace(-200.0, 200.0, 2001), np.linspace(0.0, 2.0, 49)
    outer_apply(as_real_function(parse("sinc(1)")), x, offsets, np.ones(offsets.size))
    guard = np.count_nonzero(np.abs(x[:, None] + offsets) < 4.0)
    assert sum(sizes) <= 2 * (x.size + offsets.size) + guard


@settings(max_examples=40, deadline=None)
@given(RANDOM_AST)
def test_outer_form_on_random_trees(ast):
    expr = FuncExpr(ast)
    try:
        as_real_function(expr)
    except ValueError:
        assume(False)
    x, offsets = np.linspace(-6.0, 6.0, 13), np.linspace(0.0, 2.0, 5)
    outer, plain, scale = errors(expr, x, offsets)
    assume(np.isfinite(scale))
    assert outer <= plain + 4.0 * np.finfo(float).eps * max(scale, 1.0)
