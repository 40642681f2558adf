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
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

from .fnexpr import Decay, ExponentField, FuncExpr, Indicator, parse
from .functions import RealFunction, as_real_function
from .norms import NormSpec, default_window
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


def _parsed(name, e: FuncExpr, norm_window, sup_window, ppu=4.0, osc=math.inf):
    rf = replace(as_real_function(e, name), osc_wavelength=osc)
    return CorpusMember(name=name, src=e.src, rf=rf, norm_window=norm_window,
                        sup_window=sup_window, panels_per_unit=ppu, smooth=e.smooth)


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
        _parsed("gauss", parse("exp(-x^2)"), 14.0, 8.0),
        _parsed("gauss_osc", parse("exp(-x^2)*sin(5*x)"), 14.0, 8.0,
                osc=2.0 * math.pi / 5.0),
        _parsed("sinc1", parse("sinc(1)"), 200.0, 20.0, ppu=2.0, osc=math.pi),
        _parsed("sinc4", parse("sinc(4)"), 150.0, 20.0, ppu=2.0, osc=math.pi / 4.0),
        _engine("box", "indicator(0, 1)", IndicatorSteklov(0.0, 1.0), 12.0, 6.0),
        _engine("box_smooth", _BOX_SMOOTH_SRC,
                IndicatorSteklov(0.0, 1.0, pre=(0.1,)), 12.0, 6.0),
        _parsed("xgauss", parse("x*exp(-x^2)"), 14.0, 8.0),
        _parsed("cos_gauss", parse("cos(3*x)*exp(-x^2/4)"), 20.0, 8.0,
                osc=2.0 * math.pi / 3.0),
        _parsed("gauss_wide", parse("exp(-x^2/9)"), 32.0, 10.0),
        _parsed("x2gauss", parse("x^2*exp(-x^2)"), 14.0, 8.0),
        _parsed("lorentz", parse("1/(1+x^2)"), 250.0, 20.0, ppu=2.0),
        _parsed("lorentz2", parse("1/(1+x^2)^2"), 60.0, 20.0, ppu=2.0),
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
    w = default_window(as_real_function(e))
    if isinstance(e.ast, Indicator):
        a, b = e.ast.a, e.ast.b
        return _engine(src, e.src, IndicatorSteklov(a, b), norm_window=w,
                       sup_window=max(6.0, abs(a) + 2, abs(b) + 2))
    return _parsed(e.src, e, w, min(w, 20.0))


def resolve_exponent(src: str, p_infinity: Optional[float] = None) -> ExponentField:
    if src.startswith("@"):
        return exponent_field(src[1:])
    return ExponentField.from_expr(src, p_infinity=p_infinity, name=src)
