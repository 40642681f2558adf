import numpy as np
import pytest

from vexp.fnexpr import ExponentField, parse
from vexp.functions import as_real_function


@pytest.fixture(scope="session")
def p2():
    return ExponentField.from_expr("2")


@pytest.fixture(scope="session")
def p1():
    return ExponentField.from_expr("1")


@pytest.fixture(scope="session")
def p_bump():
    return ExponentField.from_expr("2 + 1/(1+x^2)", p_infinity=2.0, name="p_bump")


@pytest.fixture(scope="session")
def gauss():
    return as_real_function(parse("exp(-x^2)"))


def grid(lo, hi, n):
    return np.linspace(lo, hi, n)
