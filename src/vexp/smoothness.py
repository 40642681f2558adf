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
from dataclasses import dataclass, replace
from typing import Optional

from .functions import RealFunction, as_real_function, combine
from .norms import NormSpec, norm_of
from .quad import DEFAULT_SPEC, QuadSpec
from .report import AuditRow, make_row
from .steklov import difference_power, iterated_steklov, steklov_derivative

__all__ = [
    "ModulusRequest", "KFunctionalEstimate", "modulus", "k_functional_upper",
    "modulus_properties_audit", "candidate_difference", "candidate_derivative",
]


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


def candidate_difference(f, r: int, delta: float) -> RealFunction:
    """f - g for the iterate candidate, i.e. (I - T_d^(2r))^r f."""
    f = as_real_function(f)
    parts = [(float((-1) ** l) * math.comb(r, l),
              iterated_steklov(f, delta, 2 * r * l))
             for l in range(r + 1)]
    return combine(parts, name=f"(I-T^{2 * r})^{r}[{f.name}]")


def candidate_derivative(f, r: int, delta: float) -> RealFunction:
    """r-th derivative of the candidate g, via difference identities."""
    f = as_real_function(f)
    parts = []
    for l in range(1, r + 1):
        coeff = float((-1) ** (l - 1)) * math.comb(r, l)
        term = steklov_derivative(f, delta, 2 * r * l, r)
        parts.append((coeff, term))
    return combine(parts, name=f"g^({r})[{f.name}]")


def k_functional_upper(f, r: int, delta: float, norm: NormSpec,
                       spec: QuadSpec = DEFAULT_SPEC) -> KFunctionalEstimate:
    """Upper bound for the order-r K-functional from the iterate candidate."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    fmg = norm_of(candidate_difference(f, r, delta), norm, spec)
    gder = norm_of(candidate_derivative(f, r, delta), norm, spec)
    return KFunctionalEstimate(
        value=fmg + delta ** r * gder,
        f_minus_g_norm=fmg,
        g_deriv_norm=gder,
    )


# the decreasing steps along which the modulus must vanish, property (e)
_VANISH_DELTAS = (1e-1, 1e-2, 1e-3, 1e-4)


def _size_bound_constant(r: int, norm: NormSpec, c10: Optional[float]) -> float:
    # sup norm: averages contract, so (I-T)^r gains at most 2^r.
    # Luxemburg norm: T is bounded by c10, giving (1 + c10)^r.
    if norm.kind == "sup":
        return 2.0 ** r
    if c10 is None:
        raise ValueError("size bound in the Luxemburg norm needs c10")
    return (1.0 + c10) ** r


def modulus_properties_audit(f, g, r: int, delta1: float, delta2: float,
                             norm: NormSpec, c10: Optional[float] = None,
                             f_deriv=None) -> list[AuditRow]:
    """Structural checks on the modulus; one row per property.

    (a) near-monotonicity in delta, (b) subadditivity in f, (c) the size
    bound against ||f||, (d) the derivative bound for smooth f (pass
    f_deriv = r-th derivative to enable), (e) vanishing along delta -> 0.
    """
    if not delta1 <= delta2:
        raise ValueError("need delta1 <= delta2")
    f = as_real_function(f)
    g = as_real_function(g)
    tag = "sup" if norm.kind == "sup" else f"p={norm.p.name}"
    rows: list[AuditRow] = []

    om_f_d1 = modulus(ModulusRequest(f, r, delta1, norm))
    om_f_d2 = modulus(ModulusRequest(f, r, delta2, norm))

    rows.append(make_row(
        "modulus_monotone", f"f={f.name};{tag};r={r};d1={delta1:g};d2={delta2:g}",
        lhs=om_f_d1, rhs=om_f_d2, constant_used=1.0))

    om_g = modulus(ModulusRequest(g, r, delta2, norm))
    fg = combine([(1.0, f), (1.0, g)], name=f"{f.name}+{g.name}")
    om_fg = modulus(ModulusRequest(fg, r, delta2, norm))
    rows.append(make_row(
        "modulus_subadditive", f"f={f.name};g={g.name};{tag};r={r};d={delta2:g}",
        lhs=om_fg, rhs=om_f_d2 + om_g, constant_used=1.0))

    size_c = _size_bound_constant(r, norm, c10)
    nf = norm_of(f, norm)
    rows.append(make_row(
        "modulus_size_bound", f"f={f.name};{tag};r={r};d={delta2:g}",
        lhs=om_f_d2, rhs=size_c * nf, constant_used=size_c))

    if f_deriv is not None:
        if norm.kind == "sup":
            smooth_c = 2.0 ** (-r) * delta2 ** r
        else:
            if c10 is None:
                raise ValueError("the Luxemburg derivative bound needs c10")
            smooth_c = c10 ** r * 2.0 ** (-r) * delta2 ** r
        nd = norm_of(as_real_function(f_deriv), norm)
        rows.append(make_row(
            "modulus_smooth_bound", f"f={f.name};{tag};r={r};d={delta2:g}",
            lhs=om_f_d2, rhs=smooth_c * nd, constant_used=smooth_c))

    seq = [modulus(ModulusRequest(f, r, d, norm))
           for d in _VANISH_DELTAS]
    nonincreasing = all(seq[i + 1] <= seq[i] * (1.0 + 1e-6) + 1e-12
                        for i in range(len(seq) - 1))
    row = make_row(
        "modulus_vanishing", f"f={f.name};{tag};r={r}",
        lhs=seq[-1], rhs=seq[0] if seq[0] > 0 else 0.0,
        constant_used=1.0,
        truncation_bounds={"delta_sequence": list(_VANISH_DELTAS),
                           "values": seq})
    if not nonincreasing:
        row = replace(row, passed=False)
    rows.append(row)
    return rows
