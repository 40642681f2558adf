"""The bundled test corpus: functions and exponents the audits run over.

No canonical test set comes with the inequalities themselves, so this
module fixes one: twelve functions spanning smooth/rough, bandlimited/
non-bandlimited and fast/slow decay, plus three exponent fields (one
constant, two variable with a limit at infinity).  A member is its name, its
expression source, its windows and its panel density; everything else
(decay, breakpoints, wavelength, the exact engine of the rough members) is
read off the expression, as for a raw source.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .fnexpr import ExponentField, FuncExpr, parse
from .functions import RealFunction, as_real_function
from .norms import NormSpec

__all__ = ["CorpusMember", "default_corpus", "default_exponents",
           "corpus_member", "exponent_field", "resolve_function"]


@dataclass(frozen=True)
class CorpusMember:
    name: str
    rf: RealFunction
    norm_window: float
    sup_window: float
    panels_per_unit: float

    @property
    def expr(self) -> Optional[FuncExpr]:
        return self.rf.expr

    @property
    def smooth(self) -> bool:
        """Whether f admits symbolic derivatives."""
        return self.rf.expr.smooth

    def norm_spec(self, p: Optional[ExponentField] = None,
                  window: Optional[float] = None) -> NormSpec:
        """The sup norm on the member's sup window when p is None, else the
        Luxemburg norm of p on its norm window at its panel density; a given
        window replaces the member's."""
        if p is None:
            return NormSpec.sup(self.sup_window if window is None else window)
        return NormSpec.vexp(p, window=self.norm_window if window is None else window,
                             panels_per_unit=self.panels_per_unit)


def _member(name: str, src: str, norm_window: float, sup_window: float,
            ppu: float = 4.0) -> CorpusMember:
    return CorpusMember(name=name, rf=as_real_function(parse(src)),
                        norm_window=norm_window, sup_window=sup_window,
                        panels_per_unit=ppu)


# the box averaged once with width 0.1: with d(x) = (1.1 - |x - 0.9| - |x|)/2
# the overlap of [x, x+0.1] with [0, 1] is max(d, 0), and max(d, 0) = (d + |d|)/2
_BOX_SMOOTH_SRC = ("((1.1 - abs(x - 0.9) - abs(x))/2"
                   " + abs((1.1 - abs(x - 0.9) - abs(x))/2)) / 0.2")


@lru_cache(maxsize=1)
def default_corpus() -> tuple[CorpusMember, ...]:
    return (
        _member("gauss", "exp(-x^2)", 14.0, 8.0),
        _member("gauss_osc", "exp(-x^2)*sin(5*x)", 14.0, 8.0),
        _member("sinc1", "sinc(1)", 200.0, 20.0, ppu=2.0),
        _member("sinc4", "sinc(4)", 150.0, 20.0, ppu=2.0),
        _member("box", "indicator(0, 1)", 12.0, 6.0),
        _member("box_smooth", _BOX_SMOOTH_SRC, 12.0, 6.0),
        _member("xgauss", "x*exp(-x^2)", 14.0, 8.0),
        _member("cos_gauss", "cos(3*x)*exp(-x^2/4)", 20.0, 8.0),
        _member("gauss_wide", "exp(-x^2/9)", 32.0, 10.0),
        _member("x2gauss", "x^2*exp(-x^2)", 14.0, 8.0),
        _member("lorentz", "1/(1+x^2)", 250.0, 20.0, ppu=2.0),
        _member("lorentz2", "1/(1+x^2)^2", 60.0, 20.0, ppu=2.0),
    )


@lru_cache(maxsize=1)
def default_exponents() -> tuple[ExponentField, ...]:
    return (
        ExponentField.from_expr("2", name="p2"),
        ExponentField.from_expr("2 + 1/(1+x^2)", name="p_bump"),
        ExponentField.from_expr("1.5 + sin(x)^2/(1+x^2)", name="p_osc"),
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
    """Resolve '@name' to a bundled member, else parse raw expression source
    and take its windows from its decay class."""
    if src.startswith("@"):
        return corpus_member(src[1:])
    e = parse(src)
    d = e.decay_class
    if d.kind == "compact_support":
        w = max(12.0, abs(d.a) + 2.0, abs(d.b) + 2.0)
    else:
        w = {"gaussian": 12.0, "power": 200.0}.get(d.kind, 10.0)
    return CorpusMember(name=e.src, rf=as_real_function(e), norm_window=w,
                        sup_window=min(w, 20.0), panels_per_unit=4.0)


def resolve_exponent(src: str) -> ExponentField:
    if src.startswith("@"):
        return exponent_field(src[1:])
    return ExponentField.from_expr(src, name=src)
