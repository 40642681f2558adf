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
differentiating f).  K_hat upper-bounds the true K-functional, and the
equivalence constants of the audit hold for K_hat in both directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .functions import as_real_function
from .norms import NormSpec, norm_of
from .quad import DEFAULT_SPEC, QuadSpec
from .steklov import difference_power, derivative_terms, steklov_combination

__all__ = ["ModulusRequest", "KFunctionalEstimate", "modulus", "k_functional_upper"]


@dataclass(frozen=True)
class ModulusRequest:
    f: object
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


def k_functional_upper(f, r: int, delta: float, norm: NormSpec,
                       spec: QuadSpec = DEFAULT_SPEC) -> KFunctionalEstimate:
    """Upper bound for the order-r K-functional from the iterate candidate."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    f = as_real_function(f)
    # f - g = (I - T_d^(2r))^r f, and g^(r) through difference identities
    diff = {(2 * r * l, 0): float((-1) ** l) * math.comb(r, l) for l in range(r + 1)}
    deriv = {key: float((-1) ** (l - 1)) * math.comb(r, l) * c
             for l in range(1, r + 1)
             for key, c in derivative_terms(delta, 2 * r * l, r).items()}
    fmg = norm_of(steklov_combination(f, delta, diff, f"(I-T^{2 * r})^{r}[{f.name}]"),
                  norm, spec)
    gder = norm_of(steklov_combination(f, delta, deriv, f"g^({r})[{f.name}]"),
                   norm, spec)
    return KFunctionalEstimate(
        value=fmg + delta ** r * gder,
        f_minus_g_norm=fmg,
        g_deriv_norm=gder,
    )

