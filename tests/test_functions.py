import numpy as np
import pytest

from vexp import functions
from vexp.fnexpr import parse
from vexp.functions import as_real_function, outer_apply


def naive_outer(f, x, offsets, weights):
    """One f evaluation and one gemv per block of _CHUNK // m rows."""
    step = max(1, functions._CHUNK // max(offsets.size, 1))
    return np.concatenate([f.fn(x[i:i + step, None] + offsets[None, :]) @ weights
                           for i in range(0, x.size, step)])


@pytest.mark.parametrize("src", ["exp(-x^2)*sin(5*x)", "sinc(3)"])
@pytest.mark.parametrize("m, n", [(37, 1000), (300, 1000), (1, 5000)])
def test_sub_blocked_fill_matches_naive_blocks(monkeypatch, src, m, n):
    # small block sizes: m=37 fills 6 rows per f call, m=300 one row, and
    # n is no multiple of the 110 or 13 rows of a gemv block
    monkeypatch.setattr(functions, "_CHUNK", 1 << 12)
    monkeypatch.setattr(functions, "_SUB_CHUNK", 1 << 8)
    rng = np.random.default_rng(m)
    f = as_real_function(parse(src))
    x = rng.uniform(-4.0, 4.0, n)
    offsets = rng.uniform(-1.0, 1.0, m)
    weights = rng.uniform(-1.0, 1.0, m)
    assert np.array_equal(outer_apply(f, x, offsets, weights),
                          naive_outer(f, x, offsets, weights))


def test_sub_blocked_fill_at_module_sizes():
    # m above _SUB_CHUNK (one row per f call); n = 2 blocks of 127 rows + 6
    m = functions._SUB_CHUNK + 7
    n = 2 * (functions._CHUNK // m) + 6
    rng = np.random.default_rng(1)
    f = as_real_function(parse("exp(-x^2)"))
    x = rng.uniform(-2.0, 2.0, n)
    offsets = np.linspace(-1.0, 1.0, m)
    weights = rng.uniform(-1.0, 1.0, m)
    got = outer_apply(f, x.reshape(2, -1), offsets, weights)
    assert got.shape == (2, n // 2)
    assert np.array_equal(got.ravel(), naive_outer(f, x, offsets, weights))
