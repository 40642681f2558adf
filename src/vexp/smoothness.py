"""Smoothness moduli and the constructive K-functional bound.

The modulus of order r at step d is the norm of (I - T_d)^r f, in either the
sup norm on a window or the Luxemburg norm.  At d = 0 the modulus is defined
to be 0, consistent with T_0 being the identity and with the vanishing limit
as d -> 0.

The K-functional between a space and its r-th order Sobolev-style subspace
is never minimized here.  Instead we evaluate the explicit candidate

    g = sum_{l=1..r} (-1)^(l-1) C(r,l) T_d^(2rl) f,

for which f - g collapses to (I - T_d^(2r))^r f, and report

    K_hat = ||f - g|| + d^r ||g^(r)||

with g^(r) obtained through forward differences of lower iterates (never by
differentiating f).  Both sums reach T_d^(2r^2) on one Steklov lattice, so
one sample pass over f serves both norms, and the modulus beside them (its
terms reach only T_d^r).  K_hat upper-bounds the true K-functional, and the
audit's equivalence constants hold for it both ways.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .functions import RealFunction
from .norms import NormSpec, norm_of
from .quad import DEFAULT_SPEC, QuadSpec
from .steklov import difference_power, derivative_terms, steklov_combination

__all__ = ["ModulusRequest", "KFunctionalEstimate", "modulus", "k_functional_upper"]


@dataclass(frozen=True)
class ModulusRequest:
    f: RealFunction
    r: int
    delta: float
    norm: NormSpec

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("r must be >= 1")
        if self.delta < 0.0:
            raise ValueError("delta must be >= 0")


@dataclass(frozen=True)
class KFunctionalEstimate:
    value: float
    f_minus_g_norm: float
    g_deriv_norm: float


def modulus(req: ModulusRequest, spec: QuadSpec = DEFAULT_SPEC) -> float:
    """||(I - T_d)^r f|| in the requested norm; 0 at d = 0."""
    if req.delta == 0.0:
        return 0.0
    h = difference_power(req.f, req.delta, req.r)
    return norm_of(h, req.norm, spec)


def k_functional_upper(f: RealFunction, r: int, delta: float, norm: NormSpec,
                       spec: QuadSpec = DEFAULT_SPEC) -> KFunctionalEstimate:
    """Upper bound for the order-r K-functional from the iterate candidate."""
    return _k_functional(f, r, delta, norm, spec=spec)[0]


def _k_functional(f: RealFunction, r: int, delta: float, norm: NormSpec,
                  *extra: dict[tuple[int, int], float],
                  spec: QuadSpec = DEFAULT_SPEC) -> tuple[KFunctionalEstimate, list]:
    """K_hat, and the norms of the extra term maps on the stack of its two."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    # f - g = (I - T_d^(2r))^r f, and g^(r) through difference identities
    diff = {(2 * r * l, 0): float((-1) ** l) * math.comb(r, l) for l in range(r + 1)}
    deriv = {key: float((-1) ** (l - 1)) * math.comb(r, l) * c
             for l in range(1, r + 1)
             for key, c in derivative_terms(delta, 2 * r * l, r).items()}
    fmg, gder, *rest = norm_of(steklov_combination(f, delta, diff, deriv, *extra),
                               norm, spec)
    return KFunctionalEstimate(fmg + delta ** r * gder, fmg, gder), rest
