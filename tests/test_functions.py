import numpy as np
import pytest

from vexp import functions
from vexp.fnexpr import parse
from vexp.functions import as_real_function, outer_apply


def naive_outer(f, x, offsets, weights):
    """One f evaluation and one gemv per block of _SUB_CHUNK // m rows."""
    step = max(1, functions._SUB_CHUNK // max(offsets.size, 1))
    return np.concatenate([f.fn(x[i:i + step, None] + offsets[None, :]) @ weights
                           for i in range(0, x.size, step)])


def plain_sum(f, x, offsets, weights):
    """The weighted sum without BLAS, and the sum of |terms| that bounds its error."""
    vals = f.fn(x[:, None] + offsets[None, :])
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
