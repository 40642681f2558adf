"""Explicit constants used by the inequality audits.

Every bound in the audit harness carries an explicit constant expressed in
the exponent data (p_plus and the log-continuity constant c3) and the
difference orders r, k.  They are evaluated here as exact arithmetic; the
one infinite series that appears (sum over k >= 2 of 2^-k) is folded in
closed form as 1/2.

Two names are reused in the source material with different meanings and are
stored under separate keys here: c8_k (the K-functional comparison constant,
with the sharper value 36 at r = 1) versus c8_transfer (the transference
constant, a multiple of c5*c7), and c14_marchaud versus c14_series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = ["constant_table", "ConstantTable"]


def c4(m: float, c3: float) -> float:
    return math.exp(-4.0 * m * c3)


def c5(p_plus: float, c3: float) -> float:
    # sum_{k>=2} 2^-k = 1/2
    return (2.0 ** (p_plus + 1.0) * 3.0 ** p_plus
            * (1.0 + 2.0 * 3.0 ** p_plus * (0.5 + 2.0))
            * math.exp(8.0 * c3))


def c6(p_plus: float) -> float:
    return 2.0 ** p_plus * 3.0 ** p_plus * (1.0 + 2.0 * 3.0 ** p_plus * (0.5 + 2.0))


def c7(c3: float) -> float:
    return 2.0 * math.exp(8.0 * c3)


def c8_k(r: int) -> float:
    if r < 1:
        raise ValueError("r must be >= 1")
    if r == 1:
        return 36.0
    return 2.0 ** r * (float(r) ** r + 34.0 ** r)


def c8_transfer(c1: float, p_plus: float, c3: float) -> float:
    return 48.0 * c7(c3) * c1 * c5(p_plus, c3)


def c9(r: int, k: int) -> float:
    return 10.0 * math.pi * (1.0 + 2.0 ** (2 * r - 1)) * 2.0 ** (2 * r + 3 * k) * c8_k(r + k)


def c10(p_plus: float, c3: float) -> float:
    return 48.0 * c7(c3) * c5(p_plus, c3)


def c11(r: int, p_plus: float, c3: float) -> float:
    return 30.0 * math.pi * 8.0 ** r * c5(p_plus, c3) * c7(c3) * c8_k(r)


def c13(p_plus: float, c3: float) -> float:
    return 2.0 * c5(p_plus, c3) * (1.0 + 72.0 * c7(c3) * c5(p_plus, c3))


def c12(r: int, p_plus: float, c3: float) -> float:
    return c13(p_plus, c3) * 12.0 * c7(c3) * (1.0 + 2.0 ** (2 * r - 1)) * 2.0 ** r


def c14_marchaud(r: int, k: int, p_plus: float, c3: float) -> float:
    return 48.0 * c7(c3) * c9(r, k) * c5(p_plus, c3)


def c14_series(r: int, k: int, p_plus: float, c3: float) -> float:
    return 48.0 * c7(c3) * c5(p_plus, c3) * 2.0 ** (2 * k + r + 2)


def kfunc_equiv_upper(r: int, p_plus: float, c3: float) -> float:
    """Bound for K_hat / modulus: 48 c7 ((2r)^r + 2^r 34^r) c5."""
    return 48.0 * c7(c3) * ((2.0 * r) ** r + 2.0 ** r * 34.0 ** r) * c5(p_plus, c3)


def kfunc_equiv_lower(r: int, p_plus: float, c3: float) -> float:
    """Bound for modulus / K_hat: 48 c7 2^r c5."""
    return 48.0 * c7(c3) * 2.0 ** r * c5(p_plus, c3)


def scaling_compare(r: int, p_plus: float, c3: float) -> float:
    """48^2 c7^2 2^r c5^2 ((2r)^r + 2^r 34^r) for the lambda*delta comparison."""
    return (48.0 ** 2 * c7(c3) ** 2 * 2.0 ** r * c5(p_plus, c3) ** 2
            * ((2.0 * r) ** r + 2.0 ** r * 34.0 ** r))


def jackson_sup(r: int) -> float:
    return 5.0 * math.pi * 4.0 ** (r - 1) * c8_k(r)


def inverse_sup_prefactor(r: int) -> float:
    return (1.0 + 2.0 ** (2 * r - 1)) * 2.0 ** (r - 1)


def series_deriv_sup(k: int) -> float:
    return (1.0 + 2.0 ** (2 * k - 1)) * 2.0 ** (k + 2) * math.pi ** k * c8_k(k)


def series_deriv_modulus_sup(r: int, k: int) -> float:
    return 2.0 ** (2 * k + r + 1)


def shift_compare_lower(r: int) -> float:
    return 1.0 + 2.0 ** (-r) * float(r) ** r


def shift_compare_upper(r: int) -> float:
    return 2.0 ** r * c8_k(r)


_REGISTRY: dict[str, tuple[tuple[str, ...], Callable, str]] = {
    "c4": (("m", "c3"), c4, "exp(-4*m*c3)"),
    "c5": (("p_plus", "c3"), c5, "2^(p+ +1) 3^p+ (1 + 2*3^p+ *(1/2 + 2)) exp(8 c3)"),
    "c6": (("p_plus",), c6, "2^p+ 3^p+ (1 + 2*3^p+ *(1/2 + 2))"),
    "c7": (("c3",), c7, "2 exp(8 c3)"),
    "c8_k": (("r",), c8_k, "36 if r=1 else 2^r (r^r + 34^r)"),
    "c8_transfer": (("c1", "p_plus", "c3"), c8_transfer, "48 c7 c1 c5"),
    "C9": (("r", "k"), c9, "10 pi (1 + 2^(2r-1)) 2^(2r+3k) c8_k(r+k)"),
    "c10": (("p_plus", "c3"), c10, "48 c7 c5"),
    "c11": (("r", "p_plus", "c3"), c11, "30 pi 8^r c5 c7 c8_k(r)"),
    "c12": (("r", "p_plus", "c3"), c12, "c13 * 12 c7 (1 + 2^(2r-1)) 2^r"),
    "c13": (("p_plus", "c3"), c13, "2 c5 (1 + 72 c7 c5)"),
    "c14_marchaud": (("r", "k", "p_plus", "c3"), c14_marchaud, "48 c7 C9(r,k) c5"),
    "c14_series": (("r", "k", "p_plus", "c3"), c14_series, "48 c7 c5 2^(2k+r+2)"),
    "kfunc_equiv_upper": (("r", "p_plus", "c3"), kfunc_equiv_upper,
                          "48 c7 ((2r)^r + 2^r 34^r) c5"),
    "kfunc_equiv_lower": (("r", "p_plus", "c3"), kfunc_equiv_lower, "48 c7 2^r c5"),
    "scaling_compare": (("r", "p_plus", "c3"), scaling_compare,
                        "48^2 c7^2 2^r c5^2 ((2r)^r + 2^r 34^r)"),
    "jackson_sup": (("r",), jackson_sup, "5 pi 4^(r-1) c8_k(r)"),
    "inverse_sup_prefactor": (("r",), inverse_sup_prefactor, "(1 + 2^(2r-1)) 2^(r-1)"),
    "series_deriv_sup": (("k",), series_deriv_sup,
                         "(1 + 2^(2k-1)) 2^(k+2) pi^k c8_k(k)"),
    "series_deriv_modulus_sup": (("r", "k"), series_deriv_modulus_sup, "2^(2k+r+1)"),
    "shift_compare_lower": (("r",), shift_compare_lower, "1 + 2^-r r^r"),
    "shift_compare_upper": (("r",), shift_compare_upper, "2^r c8_k(r)"),
}


@dataclass(frozen=True)
class ConstantTable:
    """All entries evaluated at one (r, k, p_plus, c3) parameter point."""

    entries: tuple[tuple[str, float, str], ...]

    def as_csv(self) -> str:
        lines = ["name,value,formula"]
        for n, v, formula in self.entries:
            lines.append(f"{n},{v:.12g},\"{formula}\"")
        return "\n".join(lines) + "\n"


def constant_table(r: int, k: int, p_plus: float, c3: float) -> ConstantTable:
    """Evaluate the full table, at m = 2 and c1 = 72 as the bounds use them."""
    if r < 1 or k < 1:
        raise ValueError("r must be >= 1" if r < 1 else "k must be >= 1")
    for name, value, low in (("p_plus", p_plus, 1.0), ("c3", c3, 0.0)):
        if not low <= value < math.inf:
            raise ValueError(f"{name} must be >= {low:g} and finite")
    entries = []
    supplied = {"r": r, "k": k, "p_plus": p_plus, "c3": c3, "c1": 72.0, "m": 2.0}
    for name, (params, fn, formula) in _REGISTRY.items():
        args = [supplied[p] for p in params]
        entries.append((name, float(fn(*args)), formula))
    return ConstantTable(entries=tuple(entries))
