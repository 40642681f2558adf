"""The bundled test corpus: functions and exponents the audits run over.

No canonical test set comes with the inequalities themselves, so this
module fixes one: twelve functions spanning smooth/rough, bandlimited/
non-bandlimited and fast/slow decay, plus three exponent fields (one
constant, two variable with fixed asymptote).  Every member carries the
window and quadrature-density metadata its decay and oscillation need;
rough members are indicator-built and use the exact averaging engine.

The smoothed box (the box averaged once with width 0.1) is exactly
representable in the expression grammar via abs(); the engine-backed
definition used here evaluates the same function in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .fnexpr import Decay, ExponentField, FuncExpr, Indicator, parse
from .functions import RealFunction, as_real_function
from .norms import NormSpec, default_window
from .quad import DEFAULT_SPEC
from .steklov import IndicatorSteklov

__all__ = ["CorpusMember", "default_corpus", "default_exponents",
           "corpus_member", "exponent_field", "resolve_function"]


@dataclass(frozen=True)
class CorpusMember:
    name: str
    src: str                      # expression-grammar source
    rf: RealFunction
    norm_window: float
    sup_window: float
    panels_per_unit: float
    smooth: bool                  # admits symbolic derivatives

    @property
    def expr(self) -> Optional[FuncExpr]:
        return self.rf.expr

    def norm_spec(self, p: Optional[ExponentField] = None,
                  window: Optional[float] = None) -> NormSpec:
        """The sup norm on the member's sup window when p is None, else the
        Luxemburg norm of p on its norm window at its panel density; a given
        window replaces the member's."""
        if p is None:
            return NormSpec.sup(window or self.sup_window)
        return NormSpec.vexp(p, window=window or self.norm_window,
                             panels_per_unit=self.panels_per_unit)


def _smooth(name, src, norm_window, sup_window, ppu=4.0, osc=math.inf,
            decay=None):
    e = parse(src) if decay is None else parse(src, decay=decay)
    rf = RealFunction(fn=e, name=name, decay=e.decay_class,
                      osc_wavelength=osc, expr=e)
    return CorpusMember(name=name, src=e.src, rf=rf, norm_window=norm_window,
                        sup_window=sup_window, panels_per_unit=ppu, smooth=True)


def _engine(name, src, engine: IndicatorSteklov, norm_window, sup_window, ppu=4.0):
    lo = min(engine.base_breakpoints())
    hi = max(engine.base_breakpoints())
    rf = RealFunction(fn=engine, name=name, decay=Decay.compact(lo, hi),
                      breakpoints=engine.base_breakpoints(), exact=engine)
    return CorpusMember(name=name, src=src, rf=rf, norm_window=norm_window,
                        sup_window=sup_window, panels_per_unit=ppu, smooth=False)


# textual form of the box averaged once with width 0.1: with
# d(x) = (1.1 - |x - 0.9| - |x|)/2 the overlap of [x, x+0.1] with [0, 1] is
# max(d, 0), and max(d, 0) = (d + |d|)/2.
_BOX_SMOOTH_SRC = ("((1.1 - abs(x - 0.9) - abs(x))/2"
                   " + abs((1.1 - abs(x - 0.9) - abs(x))/2)) / 0.2")


@lru_cache(maxsize=1)
def default_corpus() -> tuple[CorpusMember, ...]:
    return (
        _smooth("gauss", "exp(-x^2)", 14.0, 8.0),
        _smooth("gauss_osc", "exp(-x^2)*sin(5*x)", 14.0, 8.0,
                osc=2.0 * math.pi / 5.0),
        _smooth("sinc1", "sinc(1)", 200.0, 20.0, ppu=2.0, osc=math.pi,
                decay=Decay.power(1.0)),
        _smooth("sinc4", "sinc(4)", 150.0, 20.0, ppu=2.0, osc=math.pi / 4.0,
                decay=Decay.power(1.0)),
        _engine("box", "indicator(0, 1)", IndicatorSteklov(0.0, 1.0), 12.0, 6.0),
        _engine("box_smooth", _BOX_SMOOTH_SRC,
                IndicatorSteklov(0.0, 1.0, pre=(0.1,)), 12.0, 6.0),
        _smooth("xgauss", "x*exp(-x^2)", 14.0, 8.0),
        _smooth("cos_gauss", "cos(3*x)*exp(-x^2/4)", 20.0, 8.0,
                osc=2.0 * math.pi / 3.0),
        _smooth("gauss_wide", "exp(-x^2/9)", 32.0, 10.0),
        _smooth("x2gauss", "x^2*exp(-x^2)", 14.0, 8.0),
        _smooth("lorentz", "1/(1+x^2)", 250.0, 20.0, ppu=2.0,
                decay=Decay.power(2.0)),
        _smooth("lorentz2", "1/(1+x^2)^2", 60.0, 20.0, ppu=2.0,
                decay=Decay.power(4.0)),
    )


@lru_cache(maxsize=1)
def default_exponents() -> tuple[ExponentField, ...]:
    return (
        ExponentField.from_expr("2", name="p2"),
        ExponentField.from_expr("2 + 1/(1+x^2)", p_infinity=2.0, name="p_bump"),
        ExponentField.from_expr("1.5 + sin(x)^2/(1+x^2)", p_infinity=1.5,
                                name="p_osc"),
    )


def corpus_member(name: str) -> CorpusMember:
    for m in default_corpus():
        if m.name == name:
            return m
    raise KeyError(f"no corpus member named {name!r}")


def exponent_field(name: str) -> ExponentField:
    for p in default_exponents():
        if p.name == name:
            return p
    raise KeyError(f"no bundled exponent named {name!r}")


def resolve_function(src: str) -> CorpusMember:
    """Resolve '@name' to a bundled member, else parse raw expression source.

    Raw sources that are a single indicator get the exact averaging engine;
    anything else goes through the generic quadrature paths.
    """
    if src.startswith("@"):
        return corpus_member(src[1:])
    e = parse(src)
    if isinstance(e.ast, Indicator):
        eng = IndicatorSteklov(e.ast.a, e.ast.b)
        return _engine(src, e.src, eng,
                       norm_window=max(12.0, abs(e.ast.a) + 2, abs(e.ast.b) + 2),
                       sup_window=max(6.0, abs(e.ast.a) + 2, abs(e.ast.b) + 2))
    rf = as_real_function(e)
    w = default_window(rf, DEFAULT_SPEC)
    return CorpusMember(name=e.src, src=e.src, rf=rf, norm_window=w,
                        sup_window=min(w, 20.0), panels_per_unit=4.0,
                        smooth=e.deriv_order_available > 0)


def resolve_exponent(src: str, p_infinity: Optional[float] = None) -> ExponentField:
    if src.startswith("@"):
        return exponent_field(src[1:])
    return ExponentField.from_expr(src, p_infinity=p_infinity, name=src)
