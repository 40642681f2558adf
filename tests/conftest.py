import numpy as np
import pytest
from hypothesis import settings

from vexp.fnexpr import ExponentField, parse
from vexp.functions import as_real_function

# tier-1 runs draw the same examples every time and keep no example database;
# `--hypothesis-profile=default` restores randomized runs
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def p2():
    return ExponentField.from_expr("2")


@pytest.fixture(scope="session")
def p1():
    return ExponentField.from_expr("1")


@pytest.fixture(scope="session")
def p_bump():
    return ExponentField.from_expr("2 + 1/(1+x^2)", name="p_bump")


@pytest.fixture(scope="session")
def gauss():
    return as_real_function(parse("exp(-x^2)"))


def grid(lo, hi, n):
    return np.linspace(lo, hi, n)
