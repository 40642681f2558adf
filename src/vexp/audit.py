"""The inequality audit harness.

Each theorem family is a runner that turns an AuditCase into AuditRow
records with the explicit constant folded into the right-hand side.  A row
passes when lhs <= rhs * (1 + 1e-6) + 1e-12.  Rows whose right-hand side
uses the computable upper bound A_hat for a best approximation carry the
flag "A_sigma_surrogate"; K-functional rows carry "K_surrogate"; rows where
a surrogate or a finite grid sits on the side that could understate a
supremum additionally carry "one_sided" (a failure there would not
contradict the audited statement).  Truncated series record the cutoff and
a tail estimate, and are reported inconclusive instead of failed when the
tail heuristic cannot certify the cutoff.

Reports: a CSV (theorem_id,case_id,lhs,rhs,constant,ratio,pass,flags) with
reals at 12 significant digits and rows ordered by (theorem_id, case_id),
so repeated runs are byte-identical, plus a JSON mirror with the recorded
truncation data.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass, fields, replace
from typing import Callable, Iterator, Optional, get_type_hints

import numpy as np

from . import constants as C
from .bandlimited import DEFAULT_TAIL_TARGET, best_approx_surrogate, vp_operator
from .config import parse_config
from .corpus import CorpusMember, resolve_exponent, resolve_function
from .fnexpr import ExponentField, differentiate
from .functions import RealFunction, as_real_function, combine
from .norms import NormSpec, norm_of
from .quad import window_nodes
from .report import AUDIT_ABS_TOL, AUDIT_REL_TOL, AuditRow, make_row
from .smoothness import ModulusRequest, k_functional_upper, modulus
from .steklov import (SAMPLE_MEMO, derivative_terms, difference_terms, iterated_steklov,
                      steklov_combination, sup_norm)

__all__ = ["AuditCase", "AuditReport", "Context", "run_suite", "run_case",
           "THEOREM_RUNNERS", "write_reports"]


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditCase:
    theorem: str
    f_src: str
    g_src: Optional[str] = None
    p_src: Optional[str] = None
    r: int = 1
    k: int = 1
    deltas: tuple[float, ...] = ()
    sigmas: tuple[float, ...] = ()
    t_grid: tuple[float, ...] = ()
    lambdas: tuple[float, ...] = ()
    series_n: int = 16
    lhs_window: Optional[float] = None  # norm window override for the lhs side
    vp_tail: Optional[float] = None     # convolution tail target override

    def __post_init__(self):
        for name in ("deltas", "sigmas", "t_grid", "lambdas"):
            grid = getattr(self, name)
            if grid and (any(not 0 < v < math.inf for v in grid) or list(grid) != sorted(grid)):
                raise ValueError(f"{name} must be positive, finite and sorted")
        for name in _AHAT:
            if (value := getattr(self, name)) is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.r < 1 or self.k < 1:
            raise ValueError("r and k must be >= 1")


@dataclass
class AuditReport:
    rows: list[AuditRow]

    @property
    def n_pass(self) -> int:
        return sum(1 for r in self.rows if r.passed is True)

    @property
    def n_fail(self) -> int:
        return sum(1 for r in self.rows if r.passed is False)

    @property
    def n_inconclusive(self) -> int:
        return sum(1 for r in self.rows if r.passed is None)

    def failed_rows(self) -> list[AuditRow]:
        return [r for r in self.rows if r.passed is False]


# ---------------------------------------------------------------------------
# Shared context: caches for norms and surrogate tables
# ---------------------------------------------------------------------------

class Context:
    """Resolved corpus objects plus caches shared across cases.

    All cached values are computed from immutable inputs, so the order in
    which cases run does not change any result.
    """

    def __init__(self):
        self._cache: dict[tuple, object] = {}

    def cached(self, key: tuple, compute: Callable[[], object]):
        """The value stored under key, computed on the first lookup."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def member(self, src: str) -> CorpusMember:
        return self.cached(("member", src), lambda: resolve_function(src))

    def exponent(self, src: str) -> ExponentField:
        return self.cached(("exponent", src), lambda: resolve_exponent(src))

    def norm(self, m: CorpusMember, norm: NormSpec) -> float:
        return self.cached(("norm", m.name, norm), lambda: norm_of(m.rf, norm))

    def derivative(self, m: CorpusMember, order: int) -> RealFunction:
        """The member's symbolic derivative of the given order."""
        return self.cached(("derivative", m.name, order),
                           lambda: as_real_function(differentiate(m.expr, order)))

    def ahat(self, m: CorpusMember, norm: NormSpec, sigma: float,
             case: AuditCase) -> float:
        """Cached A_hat_sigma(f) = ||f - J(f, sigma/2)|| in the given norm, on
        the case's lhs_window and to its vp_tail when it sets them."""
        lhs_window = case.lhs_window
        tail = case.vp_tail if case.vp_tail is not None else DEFAULT_TAIL_TARGET
        key = ("ahat", m.name, norm, round(sigma, 12), lhs_window, tail)
        norm_used = norm if lhs_window is None else replace(norm, window=lhs_window)
        return self.cached(key, lambda: best_approx_surrogate(
            m.rf, sigma, norm_used, tail_target=tail).value)

    def a0(self, m: CorpusMember, norm: NormSpec) -> float:
        """Deviation from the type-0 class (bounded entire = constants).

        In the Luxemburg norm on R no nonzero constant lies in the space, so
        the deviation equals ||f||; in the sup norm the best constant is the
        midrange, giving (max f - min f) / 2, from the sup norm's panels and
        interpolant maxima of f and -f, confirmed by f.
        """
        if norm.p is not None:
            return self.norm(m, norm)
        top, bottom = sup_norm(m.rf, norm, signed=True)
        return 0.5 * (top + bottom)


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _case_id(m: CorpusMember, p: Optional[ExponentField] = None, **kv) -> str:
    parts = [f"f={m.name}"]
    if p is not None:
        parts.append(f"p={p.name}")
    for k, v in kv.items():
        parts.append(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}")
    return ";".join(parts)


def _omega(ctx: Context, m: CorpusMember, r: int, delta: float,
           norm: NormSpec) -> float:
    return ctx.cached(("omega", m.name, norm, r, round(delta, 14)),
                      lambda: modulus(ModulusRequest(m.rf, r, delta, norm)))


def _checked(ctx: Context, case: AuditCase) -> tuple[Family, CorpusMember, NormSpec]:
    """(family, member, norm) of a case that gives every input its family
    needs and meets each of the family's preconditions."""
    family = THEOREM_RUNNERS[case.theorem]
    for attr, why in family.needs.items():
        if not getattr(case, attr):
            raise ValueError(f"theorem {case.theorem!r} needs {attr} ({why})")
    m = ctx.member(case.f_src)
    p = ctx.exponent(case.p_src) if case.p_src and family.kind != "sup" else None
    for holds, what in family.checks:
        if not holds(case, m, p):
            raise ValueError(f"theorem {case.theorem!r} needs {what}")
    return family, m, m.norm_spec(p)


# ---------------------------------------------------------------------------
# Theorem runners: variable-exponent families, and twins that serve both norms
#
# A runner takes the case, the member and norm that run_case resolved (norm.p
# is the exponent, None in the sup norm) and the family's constant for them;
# it yields the case's rows.
# ---------------------------------------------------------------------------

def run_steklov_bound(ctx: Context, case: AuditCase, m: CorpusMember,
                      norm: NormSpec, c) -> Iterator[AuditRow]:
    """||T_d f||_p <= c10 ||f||_p, uniformly in d."""
    nf = ctx.norm(m, norm)
    for d in case.deltas:
        tf = iterated_steklov(m.rf, d, 1)
        lhs = norm_of(tf, norm)
        yield make_row(
            "steklov_norm_bound", _case_id(m, norm.p, delta=d),
            lhs=lhs, rhs=c * nf, constant_used=c,
            truncation_bounds={"window": norm.window,
                               "plain_ratio": lhs / nf if nf else 0.0})


def run_holder(ctx: Context, case: AuditCase, m: CorpusMember,
               norm: NormSpec, c) -> Iterator[AuditRow]:
    """int |f g| <= 2 ||f||_p ||g||_p' on the wider window of the two."""
    g = ctx.member(case.g_src)
    win = max(m.norm_window, g.norm_window)
    ppu = max(m.panels_per_unit, g.panels_per_unit)
    x, w, _, _ = window_nodes(win, ppu, tuple(sorted({*m.rf.breakpoints, *g.rf.breakpoints})))
    lhs = float(np.sum(w * np.abs(m.rf(x)) * np.abs(g.rf(x))))
    nf = norm_of(m.rf, NormSpec.vexp(norm.p, win, ppu))
    ng = norm_of(g.rf, NormSpec.vexp(norm.p.dual(), win, ppu))
    yield make_row(
        "holder_upper_bound", f"f={m.name};g={g.name};p={norm.p.name}",
        lhs=lhs, rhs=c * nf * ng, constant_used=c,
        truncation_bounds={"window": win})


def run_kfunc_equiv(ctx: Context, case: AuditCase, m: CorpusMember,
                    norm: NormSpec, c) -> Iterator[AuditRow]:
    """Two-sided equivalence of the modulus with the K-functional bound:
    K_hat <= upper * Omega_r(f, d) and Omega_r(f, d) <= lower * K_hat.  Omega
    rides on K_hat's stack and stays out of the cache, whose `modulus` value
    may differ in the last bits: rows would depend on the order of cases."""
    r, (up, low) = case.r, c
    for d in case.deltas:
        kh = k_functional_upper(m.rf, r, d, norm, extra=(difference_terms(r, (1, 0)),))
        (om,) = kh.extra
        yield make_row(
            f"{case.theorem}_upper", _case_id(m, norm.p, r=r, delta=d),
            lhs=kh.value, rhs=up * om, constant_used=up,
            flags=("K_surrogate",),
            truncation_bounds={"f_minus_g": kh.f_minus_g_norm,
                               "g_deriv": kh.g_deriv_norm})
        yield make_row(
            f"{case.theorem}_lower", _case_id(m, norm.p, r=r, delta=d),
            lhs=om, rhs=low * kh.value, constant_used=low,
            flags=("K_surrogate",))


def run_jackson(ctx: Context, case: AuditCase, m: CorpusMember,
                norm: NormSpec, c, scale: float = 1.0) -> Iterator[AuditRow]:
    """A_hat_v(f) <= c Omega_r(f, 1/v) at v = scale * s (the direct estimate).
    A_hat >= A_v(f) is on the left: a failure does not contradict the statement."""
    r = case.r
    for s in case.sigmas:
        v = scale * s
        yield make_row(
            case.theorem, _case_id(m, norm.p, r=r, sigma=s),
            lhs=ctx.ahat(m, norm, v, case),
            rhs=c * _omega(ctx, m, r, 1.0 / v, norm), constant_used=c,
            flags=("A_sigma_surrogate", "one_sided"),
            truncation_bounds={"lhs_window": case.lhs_window or norm.window,
                               "rhs_window": norm.window})


def _ahat_integral(ctx: Context, case: AuditCase, m: CorpusMember, norm: NormSpec,
                   u_hi: float, sigma_of_u: float) -> tuple[float, dict]:
    """int_{1/2}^{u_hi} u^(r-1) A_hat(sigma_of_u * u) du, step interpolation.

    The surrogate table is sampled on a geometric grid; on each segment the
    left value bounds the non-increasing true deviation from above, so the
    computed integral can only exceed the exact right-hand side.
    """
    n_seg, r = 12, case.r
    ratio = (u_hi / 0.5) ** (1.0 / n_seg)
    us = [0.5 * ratio ** i for i in range(n_seg + 1)]
    total = 0.0
    table = {}
    for i in range(n_seg):
        sig = sigma_of_u * us[i]
        val = ctx.ahat(m, norm, sig, case)
        table[round(sig, 10)] = val
        total += val * (us[i + 1] ** r - us[i] ** r) / r
    return total, {"sigma_grid": sorted(table), "n_segments": n_seg}


def run_inverse(ctx: Context, case: AuditCase, m: CorpusMember,
                norm: NormSpec, c, scale: float = 1.0) -> Iterator[AuditRow]:
    """Omega_r(f,d) <= c d^r (A_0 + int_{1/2}^{1/d} u^(r-1) A_hat(s u) du),
    with s the given scale."""
    r = case.r
    a0 = ctx.a0(m, norm)
    for d in case.deltas:
        om = _omega(ctx, m, r, d, norm)
        integral, info = _ahat_integral(ctx, case, m, norm, 1.0 / d, scale)
        yield make_row(
            case.theorem, _case_id(m, norm.p, r=r, delta=d),
            lhs=om, rhs=c * d ** r * (a0 + integral), constant_used=c,
            flags=("A_sigma_surrogate",),
            truncation_bounds={"a0": a0, **info})


def run_marchaud(ctx: Context, case: AuditCase, m: CorpusMember,
                 norm: NormSpec, c) -> Iterator[AuditRow]:
    """Omega_r(f,t) <= c t^r int_t^1 Omega_{r+k}(f,u)/u^(r+1) du (no surrogates).

    The u-integral is taken in s = log u by the 17-point Clenshaw-Curtis rule
    on each piece of [t, 1], and the 9-point rule on every other node gives
    the recorded refinement estimate.  In L^p(.) the pieces end at the kinks
    u = (b_i - b_j)/m, m <= r + k, where shifts of f's breakpoints meet; a
    sup modulus has its kinks where the arg max jumps, so there is one piece.
    """
    r, k = case.r, case.k
    bps = m.rf.breakpoints if norm.p is not None else ()
    kinks = sorted({(a - b) / j for a in bps for b in bps for j in range(1, r + k + 1)})
    x, w17 = _clenshaw_curtis(16)
    w9 = _clenshaw_curtis(8)[1]
    for t in case.t_grid:
        edges = [t, *(u for u in kinks if t < u < 1.0), 1.0]
        fine = coarse = 0.0
        for a, b in zip(edges, edges[1:]):
            # int_a^b Omega(f, u) u^(-r-1) du = int Omega(f, e^s) e^(-rs) ds
            half = 0.5 * math.log(b / a)
            u = np.exp(0.5 * math.log(a * b) + half * x)
            u[0], u[-1] = b, a  # exact ends, which the neighbouring pieces share
            g = np.array([_omega(ctx, m, r + k, float(v), norm) for v in u]) / u ** r
            fine += half * float(w17 @ g)
            coarse += half * float(w9 @ g[::2])
        yield make_row(
            case.theorem, _case_id(m, norm.p, r=r, k=k, t=t),
            lhs=_omega(ctx, m, r, t, norm), rhs=c * t ** r * fine, constant_used=c,
            truncation_bounds={"u_integral": fine,
                               "u_quad_refinement": abs(fine - coarse)})


@functools.cache
def _clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes, from 1 down to -1, and weights of the (n + 1)-point Clenshaw-Curtis
    rule on [-1, 1], n even (Trefethen, SIAM Review 50, 2008)."""
    j, k = np.arange(n + 1), np.arange(1, n // 2 + 1)
    w = 1.0 - np.cos(2.0 * np.pi / n * np.outer(j, k)) @ (
        np.where(k < n // 2, 2.0, 1.0) / (4.0 * k * k - 1.0))
    return np.sin(np.pi / (2 * n) * (n - 2 * j)), w * np.where(j % n, 2.0, 1.0) / n


def run_one_step(ctx: Context, case: AuditCase, m: CorpusMember,
                 norm: NormSpec, c) -> Iterator[AuditRow]:
    """Omega_1(f,h) <= c * Omega_1(f,d) for consecutive steps h <= d."""
    kind = "sup" if norm.p is None else "vexp"
    for h, d in zip(case.deltas, case.deltas[1:]):
        yield make_row(
            f"one_step_compare_{kind}", _case_id(m, norm.p, h=h, delta=d),
            lhs=_omega(ctx, m, 1, h, norm), rhs=c * _omega(ctx, m, 1, d, norm),
            constant_used=c)


def run_scaling_vexp(ctx: Context, case: AuditCase, m: CorpusMember,
                     norm: NormSpec, c) -> Iterator[AuditRow]:
    """Omega_r(f, lam*d) <= scaling_compare * (1+floor(lam))^r * Omega_r(f,d);
    lam < 1 makes the factor (1+floor(lam))^r equal to 1."""
    r = case.r
    for d in case.deltas:
        for lam in case.lambdas:
            yield make_row(
                "scaling_compare_vexp", _case_id(m, norm.p, r=r, delta=d, lam=lam),
                lhs=_omega(ctx, m, r, lam * d, norm),
                rhs=c * _omega(ctx, m, r, d, norm), constant_used=c)


def run_smooth_bound_vexp(ctx: Context, case: AuditCase, m: CorpusMember,
                          norm: NormSpec, c) -> Iterator[AuditRow]:
    """Omega_r(f,d)_p <= (c10/2)^r d^r ||f^(r)||_p for r-smooth f."""
    r = case.r
    nd = norm_of(ctx.derivative(m, r), norm)
    for d in case.deltas:
        yield make_row(
            "smooth_modulus_bound_vexp", _case_id(m, norm.p, r=r, delta=d),
            lhs=_omega(ctx, m, r, d, norm), rhs=c * d ** r * nd,
            constant_used=c)


# the decreasing steps along which the modulus must vanish, property (e)
_VANISH_DELTAS = (1e-1, 1e-2, 1e-3, 1e-4)


def run_modulus_props(ctx: Context, case: AuditCase, m: CorpusMember,
                      norm: NormSpec, c) -> Iterator[AuditRow]:
    """Structural modulus properties, in L^p(.) when p is given, else sup.

    (a) near-monotonicity in delta, (b) subadditivity in f, (c) the size
    bound against ||f||, (d) the derivative bound for smooth f, (e)
    vanishing along delta -> 0.  The family's constant bounds T_d: 1 in
    the sup norm, where averages contract, and c10 in L^p(.).
    """
    gm = ctx.member(case.g_src)
    r = case.r
    d1, d2 = case.deltas
    tag = "sup" if norm.p is None else f"p={norm.p.name}"

    om_f_d1 = _omega(ctx, m, r, d1, norm)
    om_f_d2 = _omega(ctx, m, r, d2, norm)
    yield make_row(
        "modulus_monotone", f"f={m.name};{tag};r={r};d1={d1:g};d2={d2:g}",
        lhs=om_f_d1, rhs=om_f_d2, constant_used=1.0)

    om_g = _omega(ctx, gm, r, d2, norm)
    fg = combine([(1.0, m.rf), (1.0, gm.rf)])
    om_fg = modulus(ModulusRequest(fg, r, d2, norm))
    yield make_row(
        "modulus_subadditive", f"f={m.name};g={gm.name};{tag};r={r};d={d2:g}",
        lhs=om_fg, rhs=om_f_d2 + om_g, constant_used=1.0)

    size_c = (1.0 + c) ** r
    yield make_row(
        "modulus_size_bound", f"f={m.name};{tag};r={r};d={d2:g}",
        lhs=om_f_d2, rhs=size_c * ctx.norm(m, norm), constant_used=size_c)

    if m.smooth:
        smooth_c = c ** r * 2.0 ** (-r) * d2 ** r
        nd = norm_of(ctx.derivative(m, r), norm)
        yield make_row(
            "modulus_smooth_bound", f"f={m.name};{tag};r={r};d={d2:g}",
            lhs=om_f_d2, rhs=smooth_c * nd, constant_used=smooth_c)

    seq = [_omega(ctx, m, r, d, norm) for d in _VANISH_DELTAS]
    row = make_row(
        "modulus_vanishing", f"f={m.name};{tag};r={r}",
        lhs=seq[-1], rhs=seq[0] if seq[0] > 0 else 0.0,
        constant_used=1.0,
        truncation_bounds={"delta_sequence": list(_VANISH_DELTAS),
                           "values": seq})
    if not all(b <= a * (1.0 + AUDIT_REL_TOL) + AUDIT_ABS_TOL for a, b in zip(seq, seq[1:])):
        row = replace(row, passed=False)
    yield row


def run_vp_norm_bound(ctx: Context, case: AuditCase, m: CorpusMember,
                      norm: NormSpec, c) -> Iterator[AuditRow]:
    """||J(f,s)|| <= (3/2) ||f|| in the sup norm and for constant exponents."""
    norms = [("sup", m.norm_spec())]
    if norm.p is not None:
        norms.append((f"p={norm.p.name}", norm))
    for s in case.sigmas:
        j = vp_operator(m.rf, s, x_span=m.norm_window)
        for tag, spec in norms:
            lhs = norm_of(j, spec)
            nf = ctx.norm(m, spec)
            yield make_row(
                "vp_norm_bound", _case_id(m, sigma=s) + f";norm={tag}",
                lhs=lhs, rhs=c * nf, constant_used=c,
                truncation_bounds={"tail_bound": j.tail_bound})


# ---------------------------------------------------------------------------
# Theorem runners: sup-norm suite
# ---------------------------------------------------------------------------

def run_sup_steklov(ctx: Context, case: AuditCase, m: CorpusMember,
                    norm: NormSpec, c) -> Iterator[AuditRow]:
    """The uniform-norm estimates free of r: derivative bound, Taylor
    remainder and one-step comparison."""
    nf = ctx.norm(m, norm)
    for d in case.deltas:
        # ||(T_d f)'|| = ||(f(.+d) - f)/d|| <= (2/d) ||f||
        tder = steklov_combination(m.rf, d, derivative_terms(d, 1, 1))
        yield make_row(
            "steklov_deriv_bound_sup", _case_id(m, delta=d),
            lhs=norm_of(tder, norm), rhs=(2.0 / d) * nf, constant_used=2.0 / d)

        if m.smooth:
            g1 = ctx.derivative(m, 1)
            g2 = ctx.derivative(m, 2)
            tg = iterated_steklov(m.rf, d, 1)
            resid = combine([(1.0, m.rf), (-1.0, tg), (d / 2.0, g1)])
            yield make_row(
                "taylor_remainder_sup", _case_id(m, delta=d),
                lhs=norm_of(resid, norm), rhs=d * d / 6.0 * norm_of(g2, norm),
                constant_used=d * d / 6.0)

    yield from run_one_step(ctx, case, m, norm, c)


def run_sup_suite(ctx: Context, case: AuditCase, m: CorpusMember,
                  norm: NormSpec, c) -> Iterator[AuditRow]:
    """The uniform-norm estimates of order r: order comparison, the
    shift-modulus bracket and the comparison across steps."""
    r, (order_c, lower, upper) = case.r, c
    for d in case.deltas:
        om_r = _omega(ctx, m, r, d, norm)
        yield make_row(
            "order_compare_sup", _case_id(m, r=r, k=case.k, delta=d),
            lhs=_omega(ctx, m, r + case.k, d, norm),
            rhs=order_c * om_r, constant_used=order_c)

        sup_shift = _shift_modulus(m, r, d, norm)
        if m.smooth:
            # the stated lower constant is refuted by jump functions (both
            # sides equal 1 for an indicator), so the one-sided check is
            # only asserted on the smooth members
            yield make_row(
                "shift_modulus_sup_lower", _case_id(m, r=r, delta=d),
                lhs=lower * om_r, rhs=sup_shift, constant_used=lower,
                flags=("h_grid_sup", "one_sided"))
        yield make_row(
            "shift_modulus_sup_upper", _case_id(m, r=r, delta=d),
            lhs=sup_shift, rhs=upper * om_r, constant_used=upper,
            flags=("h_grid_sup",))

    for h, d in zip(case.deltas, case.deltas[1:]):
        yield make_row(
            "delta_compare_sup", _case_id(m, r=r, d1=h, d2=d),
            lhs=lower * _omega(ctx, m, r, h, norm),
            rhs=upper * _omega(ctx, m, r, d, norm), constant_used=upper / lower)


def _shift_modulus(m: CorpusMember, r: int, delta: float, norm: NormSpec) -> float:
    """max over the 64 shifts h = (2i - 63) delta/63 in [-delta, delta] of
    ||(I - shift_h)^r f||_sup, as one stack, each row on the sup panels split
    at its own breakpoints, read off their interpolants unconfirmed (the
    shifts underestimate the sup over |h| <= delta; an odd multiple of
    delta/63 is never 0)."""
    maps = [difference_terms(r, (0, 2 * i - 63)) for i in range(64)]
    return max(sup_norm(steklov_combination(m.rf, delta / 63.0, *maps), norm, confirm=False))


# ---------------------------------------------------------------------------
# Truncated-series audits
# ---------------------------------------------------------------------------

def _series_amplitudes(ctx: Context, m: CorpusMember, norm: NormSpec,
                       case: AuditCase, scale: float = 1.0) -> list[float]:
    """[A_0, A_hat(scale * v) for v = 1..series_n]: the series terms' A."""
    return [ctx.a0(m, norm)] + [ctx.ahat(m, norm, nu * scale, case)
                                for nu in range(1, case.series_n + 1)]


def _series_tail(terms: list[float]) -> tuple[float, bool]:
    """Geometric tail estimate from the last terms; (estimate, trustworthy).

    Terms at the numerical noise floor of the norm computation (1e-8 of the
    partial sum) are treated as zero rather than extrapolated.
    """
    partial, t_prev, t_last = sum(terms), terms[-5], terms[-1]  # a cutoff >= 8: 9 terms or more
    if partial <= 0.0 or t_prev <= 0.0 or t_last <= 0.0 or max(terms[-5:]) <= 1e-8 * partial:
        return 0.0, True
    rho = (t_last / t_prev) ** 0.25
    if rho >= 0.95:
        return float("inf"), False
    tail = t_last * rho / (1.0 - rho)
    return tail, tail <= 1e-3 * partial


def _series_row(case: AuditCase, case_id: str, lhs: float, c: float,
                total: float, terms: list[float]) -> AuditRow:
    tail, ok = _series_tail(terms)
    return make_row(
        case.theorem, case_id, lhs=lhs, rhs=c * total, constant_used=c,
        flags=("A_sigma_surrogate", f"truncated_series({case.series_n})"),
        truncation_bounds={"tail_estimate": tail}, inconclusive=not ok)


def run_series_deriv_sup(ctx: Context, case: AuditCase, m: CorpusMember,
                         norm: NormSpec, c) -> Iterator[AuditRow]:
    """||f^(k)||_sup <= series_deriv_sup(k) * sum (v+1)^(r-1) A_hat_v."""
    r, k = case.r, case.k
    lhs = norm_of(ctx.derivative(m, k), norm)
    amps = _series_amplitudes(ctx, m, norm, case)
    terms = [(nu + 1.0) ** (r - 1) * a for nu, a in enumerate(amps)]
    yield _series_row(case, _case_id(m, r=r, k=k, n=case.series_n),
                      lhs, c, sum(terms), terms)


def run_series_modulus(ctx: Context, case: AuditCase, m: CorpusMember,
                       norm: NormSpec, c, scale: float = 1.0) -> Iterator[AuditRow]:
    """Omega_r(f^(k), 1/s) <= c (s^-r sum_low + sum_high), A_hat at v * scale."""
    r, k = case.r, case.k
    fk = ctx.derivative(m, k)
    amps = _series_amplitudes(ctx, m, norm, case, scale)
    for s in case.sigmas:
        om = modulus(ModulusRequest(fk, r, 1.0 / s, norm))
        low, high, terms = 0.0, 0.0, []
        for nu, a in enumerate(amps):
            if nu <= math.floor(s):
                t = (nu + 1.0) ** (r + k - 1) * a / s ** r
                low += t
            else:
                t = float(nu) ** (k - 1) * a
                high += t
            terms.append(t)
        yield _series_row(case, _case_id(m, norm.p, r=r, k=k, sigma=s),
                          om, c, low + high, terms)


# ---------------------------------------------------------------------------
# Registry, surrogate policy, suite runner
# ---------------------------------------------------------------------------

class Family:
    """A theorem family: its runner, the case fields it reads, and the data
    of its statement.

    kind is the norm of the statement: "vexp" (needs p), "sup", or "either"
    (L^p(.) when the case gives p, else sup).  Each keyword names a required
    field and the reason shown when it is missing; reads lists the optional
    fields.  Every family reads theorem and f, and p unless its kind is
    "sup".  constant(case, p) is the statement's constant (p is None in the
    sup norm), which run_case evaluates once and hands to the runner as
    run(ctx, case, member, norm, constant).  checks are its preconditions,
    pairs of holds(case, member, p) and what the statement needs, tested
    before any case runs.  A family that samples A_hat off the unit scale
    binds the scale into its runner.
    """

    def __init__(self, run: Callable[..., Iterator[AuditRow]], kind: str,
                 reads: tuple[str, ...] = (), *, constant: Callable,
                 checks: tuple = (), **needs: str):
        self.run, self.kind, self.constant, self.checks = run, kind, constant, checks
        self.needs = {**needs, "p_src": "exponent"} if kind == "vexp" else needs
        p = ("p_src",) if kind != "sup" else ()
        self.accepts = {"theorem", "f_src", *self.needs, *reads, *p}


_AHAT = ("lhs_window", "vp_tail")  # overrides of the A_hat window and tail
_SERIES = ("r", "k", "series_n", *_AHAT)

# preconditions several statements share; grids are sorted, so a grid's
# last entry is its largest
_STEPS_BELOW_1 = (lambda case, m, p: case.deltas[-1] < 1.0, "delta in (0, 1)")
_SYMBOLIC = (lambda case, m, p: m.smooth, "f with a symbolic derivative")
_CUTOFF = (lambda case, m, p: case.series_n >= 8, "a series cutoff of at least 8")

# Twin families state one estimate in L^p(.) and in the sup norm and share a
# runner; their entries differ only in data.
THEOREM_RUNNERS: dict[str, Family] = {
    "steklov_bound": Family(
        run_steklov_bound, "vexp", deltas="Steklov step grid",
        constant=lambda case, p: C.c10(p.p_plus, p.c3)),
    "holder": Family(
        run_holder, "vexp", g_src="second factor", constant=lambda case, p: 2.0,
        checks=((lambda case, m, p: p.p_minus > 1.0,
                 "p_minus > 1, or the conjugate exponent is unbounded"),)),
    "kfunc_equiv_vexp": Family(
        run_kfunc_equiv, "vexp", ("r",), deltas="steps",
        constant=lambda case, p: (C.kfunc_equiv_upper(case.r, p.p_plus, p.c3),
                                  C.kfunc_equiv_lower(case.r, p.p_plus, p.c3))),
    "kfunc_equiv_sup": Family(
        run_kfunc_equiv, "sup", ("r",), deltas="steps",
        constant=lambda case, p: (C.c8_k(case.r), 2.0 ** case.r)),
    "jackson_vexp": Family(
        functools.partial(run_jackson, scale=2.0), "vexp", ("r", *_AHAT), sigmas="type grid",
        constant=lambda case, p: C.c11(case.r, p.p_plus, p.c3)),
    "inverse_vexp": Family(
        functools.partial(run_inverse, scale=0.5), "vexp", ("r", *_AHAT),
        deltas="steps in (0,1)", checks=(_STEPS_BELOW_1,),
        constant=lambda case, p: C.c12(case.r, p.p_plus, p.c3)),
    "marchaud_vexp": Family(
        run_marchaud, "vexp", ("r", "k"), t_grid="steps in (0, 1/2)",
        constant=lambda case, p: C.c14_marchaud(case.r, case.k, p.p_plus, p.c3),
        checks=((lambda case, m, p: case.t_grid[-1] < 0.5, "t in (0, 1/2)"),)),
    "one_step_vexp": Family(
        run_one_step, "vexp", deltas="at least two steps",
        constant=lambda case, p: C.c8_transfer(72.0, p.p_plus, p.c3),
        checks=((lambda case, m, p: len(case.deltas) >= 2, "at least two steps"),)),
    "scaling_vexp": Family(
        run_scaling_vexp, "vexp", ("r",), deltas="steps in (0,1)",
        lambdas="scale factors in (0,1)",
        constant=lambda case, p: C.scaling_compare(case.r, p.p_plus, p.c3),
        checks=(_STEPS_BELOW_1,
                (lambda case, m, p: case.lambdas[-1] < 1.0, "lam in (0, 1)"))),
    "smooth_bound_vexp": Family(
        run_smooth_bound_vexp, "vexp", ("r",), deltas="steps",
        constant=lambda case, p: (C.c10(p.p_plus, p.c3) / 2.0) ** case.r,
        checks=(_SYMBOLIC,)),
    "modulus_props": Family(
        run_modulus_props, "either", ("r",), deltas="two steps",
        g_src="companion function",
        constant=lambda case, p: 1.0 if p is None else C.c10(p.p_plus, p.c3),
        checks=((lambda case, m, p: len(case.deltas) == 2, "exactly two steps"),)),
    "vp_norm_bound": Family(
        run_vp_norm_bound, "either", sigmas="type grid",
        constant=lambda case, p: 1.5,
        checks=((lambda case, m, p: p is None or p.is_constant,
                 "a constant exponent: the 3/2 bound is audited for those only"),)),
    "sup_steklov": Family(run_sup_steklov, "sup", deltas="steps",
                          constant=lambda case, p: 72.0),  # the one-step constant
    "sup_suite": Family(
        run_sup_suite, "sup", ("r", "k"), deltas="steps",
        constant=lambda case, p: (2.0 ** case.k, C.shift_compare_lower(case.r),
                                  C.shift_compare_upper(case.r))),
    "jackson_sup": Family(
        run_jackson, "sup", ("r", "vp_tail"), sigmas="type grid",
        constant=lambda case, p: C.jackson_sup(case.r)),
    "inverse_sup": Family(
        run_inverse, "sup", ("r", *_AHAT), deltas="steps in (0,1)",
        constant=lambda case, p: C.inverse_sup_prefactor(case.r),
        checks=(_STEPS_BELOW_1,)),
    "marchaud_sup": Family(
        run_marchaud, "sup", ("r", "k"), t_grid="steps in (0, 1/2]",
        constant=lambda case, p: C.c9(case.r, case.k),
        checks=((lambda case, m, p: case.t_grid[-1] <= 0.5, "t in (0, 1/2]"),)),
    "series_deriv_sup": Family(
        run_series_deriv_sup, "sup", _SERIES,
        constant=lambda case, p: C.series_deriv_sup(case.k),
        checks=(_SYMBOLIC, _CUTOFF, (lambda case, m, p: case.k <= case.r, "k <= r"))),
    "series_deriv_modulus_sup": Family(
        run_series_modulus, "sup", _SERIES, sigmas="type grid",
        constant=lambda case, p: C.series_deriv_modulus_sup(case.r, case.k),
        checks=(_SYMBOLIC, _CUTOFF)),
    "series_inverse_vexp": Family(
        functools.partial(run_series_modulus, scale=0.5), "vexp", _SERIES,
        sigmas="type grid", checks=(_SYMBOLIC, _CUTOFF),
        constant=lambda case, p: C.c14_series(case.r, case.k, p.p_plus, p.c3)),
}

# config key -> AuditCase field: the sources f, g and p are f_src, g_src, p_src
_FIELDS = {f.name.removesuffix("_src"): f.name for f in fields(AuditCase)}
_CONVERT = {str: str, Optional[str]: str, int: int, Optional[float]: float,
            tuple[float, ...]: lambda v: tuple(float(x) for x in v)}
_FIELD_TYPES = get_type_hints(AuditCase)


def _case_from_dict(d: dict, defaults: dict) -> AuditCase:
    """One [[case]] table, with the [defaults] its family reads, as an AuditCase.

    A [[case]] key that the case's family does not read raises; a
    [defaults] key raises only when it is no case field at all.
    """
    for key in defaults:
        if key not in _FIELDS:
            raise ValueError(f"unknown key {key!r} in [defaults]")
    merged = {**defaults, **d}
    theorem = str(merged.get("theorem", ""))
    if not theorem:
        raise ValueError("case is missing 'theorem'")
    if not merged.get("f"):
        raise ValueError("case is missing 'f'")
    if theorem not in THEOREM_RUNNERS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    accepts = THEOREM_RUNNERS[theorem].accepts
    for key in d:
        if _FIELDS.get(key) not in accepts:
            raise ValueError(f"theorem {theorem!r} does not read key {key!r}")
    return AuditCase(**{_FIELDS[k]: _CONVERT[_FIELD_TYPES[_FIELDS[k]]](v)
                        for k, v in merged.items() if _FIELDS[k] in accepts})


def run_case(ctx: Context, case: AuditCase) -> list[AuditRow]:
    family, m, norm = _checked(ctx, case)
    return list(family.run(ctx, case, m, norm, family.constant(case, norm.p)))


def validate_cases(ctx: Context, cases: list[AuditCase]) -> None:
    """Check and resolve every case before running anything.

    A missing required input, an unmet precondition of the family's
    statement, an unknown function or an exponent that dips below 1 raises
    here, so a bad configuration is rejected before any case executes.
    """
    for case in cases:
        _checked(ctx, case)
        if case.g_src:
            ctx.member(case.g_src)


def run_suite(config_text: str, out_dir: Optional[str] = None,
              jobs: int = 1) -> tuple[AuditReport, int]:
    """Run every case in the configuration; returns (report, exit_code).

    exit_code is 0 when no row fails (inconclusive rows do not fail).
    Reports are written to out_dir when given.  Cases run serially, sorted
    (stably) by member and theorem; the cases of one member share one
    `steklov.SAMPLE_MEMO`, which is None again when the run ends.  `jobs` is
    accepted for compatibility and has no effect (threads gave no speedup:
    the work is Python dispatch under the interpreter lock).
    """
    cfg = parse_config(config_text)
    defaults = cfg.get("defaults", {})
    case_dicts = cfg.get("case", [])
    cases = [_case_from_dict(d, defaults) for d in case_dicts]
    ctx = Context()
    validate_cases(ctx, cases)
    cases.sort(key=lambda c: (c.f_src, c.theorem))
    rows = []
    token = SAMPLE_MEMO.set(None)
    try:
        for _, group in itertools.groupby(cases, key=lambda c: c.f_src):
            SAMPLE_MEMO.set({})
            rows += [row for c in group for row in run_case(ctx, c)]
    finally:
        SAMPLE_MEMO.reset(token)
    rows.sort(key=lambda r: (r.theorem_id, r.case_id))
    for a, b in zip(rows, rows[1:]):
        if (a.theorem_id, a.case_id) == (b.theorem_id, b.case_id):
            raise ValueError(f"row {a.theorem_id} {a.case_id} is produced twice")
    report = AuditReport(rows=rows)
    if out_dir:
        write_reports(report, out_dir)
    return report, (0 if report.n_fail == 0 else 1)


def report_csv(report: AuditReport) -> str:
    lines = ["theorem_id,case_id,lhs,rhs,constant,ratio,pass,flags"]
    for r in report.rows:
        flags = "|".join(r.surrogate_flags)
        lines.append(
            f"{r.theorem_id},{r.case_id},{r.lhs:.12g},{r.rhs:.12g},"
            f"{r.constant_used:.12g},{r.ratio:.12g},{r.status},{flags}")
    return "\n".join(lines) + "\n"


def write_reports(report: AuditReport, out_dir: str) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "audit.csv")
    json_path = os.path.join(out_dir, "audit.json")
    with open(csv_path, "w") as fh:
        fh.write(report_csv(report))
    payload = {
        "summary": {"pass": report.n_pass, "fail": report.n_fail,
                    "inconclusive": report.n_inconclusive},
        "rows": [{
            "theorem_id": r.theorem_id, "case_id": r.case_id,
            "lhs": r.lhs, "rhs": r.rhs, "constant": r.constant_used,
            "ratio": r.ratio, "pass": r.status,
            "flags": list(r.surrogate_flags),
            "truncation_bounds": _jsonable(r.truncation_bounds),
        } for r in report.rows],
    }
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return csv_path, json_path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    if isinstance(obj, float) and math.isinf(obj):
        return "inf"
    return obj
