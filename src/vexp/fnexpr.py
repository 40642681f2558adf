"""A small closed expression language for test functions and exponents.

Grammar (EBNF):

    expr      = term { ("+" | "-") term } ;
    term      = unary { ("*" | "/") unary } ;
    unary     = "-" unary | power ;
    power     = atom [ "^" [ "-" ] INTEGER ] ;
    atom      = NUMBER | "x" | call | "(" expr ")" ;
    call      = NAME "(" expr { "," expr } ")" ;
    NAME      = "exp" | "sin" | "cos" | "abs"
              | "gauss" | "sinc" | "sincd" | "indicator" ;

`gauss(a)` means exp(-a*x^2) and `sinc(a)` means sin(a*x)/(a*x) with the
value 1 at x = 0; both take constant arguments, as does `indicator(a, b)`
(value 1 on [a, b] including the endpoints).  `sincd(a, n)` is the n-th
derivative of sinc(a); it appears in differentiated expressions so that
removable singularities stay evaluable and is accepted back by the parser.

Exponents in `^` must be integer literals.  The grammar is closed: no user
defined names, no piecewise syntax beyond `indicator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

__all__ = [
    "FuncExpr", "ExponentField", "ParseError", "NonDifferentiableError",
    "ExponentRangeError", "parse", "differentiate", "estimate_log_holder",
    "Decay",
]


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at column {pos + 1})")
        self.pos = pos


class NonDifferentiableError(ValueError):
    """Requested derivative of a node with no classical derivative."""


class ExponentRangeError(ValueError):
    """An exponent expression dipped below 1 on the sample grid."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Add:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Sub:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Mul:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Div:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class Call:
    name: str  # exp | sin | cos | abs
    arg: "Node"


@dataclass(frozen=True)
class Gauss:
    a: float


@dataclass(frozen=True)
class Sinc:
    a: float


@dataclass(frozen=True)
class SincD:
    a: float
    order: int


@dataclass(frozen=True)
class Indicator:
    a: float
    b: float


Node = Union[Num, Var, Add, Sub, Mul, Div, Pow, Neg, Call, Gauss, Sinc, SincD, Indicator]

_UNARY_CALLS = ("exp", "sin", "cos", "abs")


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Tok:
    kind: str  # num | name | op
    text: str
    pos: int


def _tokenize(src: str) -> list[_Tok]:
    toks = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    while k < n and src[k].isdigit():
                        k += 1
                    j = k
            toks.append(_Tok("num", src[i:j], i))
            i = j
        elif c.isalpha():
            j = i
            while j < n and src[j].isalnum():
                j += 1
            toks.append(_Tok("name", src[i:j], i))
            i = j
        elif c in "+-*/^(),":
            toks.append(_Tok("op", c, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    return toks


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0

    def _peek(self) -> Optional[_Tok]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next(self) -> _Tok:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.src))
        self.i += 1
        return tok

    def _expect(self, text: str):
        tok = self._next()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.pos)

    def parse(self) -> Node:
        node = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.text!r}", tok.pos)
        return node

    def _expr(self) -> Node:
        node = self._term()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "op" or tok.text not in "+-":
                return node
            self._next()
            rhs = self._term()
            node = Add(node, rhs) if tok.text == "+" else Sub(node, rhs)

    def _term(self) -> Node:
        node = self._unary()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "op" or tok.text not in "*/":
                return node
            self._next()
            rhs = self._unary()
            node = Mul(node, rhs) if tok.text == "*" else Div(node, rhs)

    def _unary(self) -> Node:
        tok = self._peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self._next()
            node = self._unary()
            if isinstance(node, Num):  # fold literal sign for canonical form
                return Num(-node.value)
            return Neg(node)
        return self._power()

    def _power(self) -> Node:
        base = self._atom()
        tok = self._peek()
        if tok is None or tok.kind != "op" or tok.text != "^":
            return base
        self._next()
        sign = 1
        tok = self._peek()
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self._next()
            sign = -1
        tok = self._next()
        if tok.kind != "num" or any(c in tok.text for c in ".eE"):
            raise ParseError("exponent after '^' must be an integer literal", tok.pos)
        return Pow(base, sign * int(tok.text))

    def _atom(self) -> Node:
        tok = self._next()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "name":
            if tok.text == "x":
                return Var()
            return self._call(tok)
        if tok.kind == "op" and tok.text == "(":
            node = self._expr()
            self._expect(")")
            return node
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def _call(self, name_tok: _Tok) -> Node:
        name = name_tok.text
        self._expect("(")
        args = [self._expr()]
        while True:
            tok = self._peek()
            if tok is not None and tok.kind == "op" and tok.text == ",":
                self._next()
                args.append(self._expr())
            else:
                break
        self._expect(")")
        if name in _UNARY_CALLS:
            if len(args) != 1:
                raise ParseError(f"{name} takes one argument", name_tok.pos)
            return Call(name, args[0])
        if name in ("gauss", "sinc"):
            if len(args) != 1:
                raise ParseError(f"{name} takes one constant argument", name_tok.pos)
            a = _const_value(args[0], name_tok.pos)
            return Gauss(a) if name == "gauss" else Sinc(a)
        if name == "sincd":
            if len(args) != 2:
                raise ParseError("sincd takes (a, order)", name_tok.pos)
            a = _const_value(args[0], name_tok.pos)
            order = _const_value(args[1], name_tok.pos)
            if order != int(order) or order < 1:
                raise ParseError("sincd order must be a positive integer", name_tok.pos)
            return SincD(a, int(order))
        if name == "indicator":
            if len(args) != 2:
                raise ParseError("indicator takes (a, b)", name_tok.pos)
            a = _const_value(args[0], name_tok.pos)
            b = _const_value(args[1], name_tok.pos)
            if not a < b:
                raise ParseError("indicator needs a < b", name_tok.pos)
            return Indicator(a, b)
        raise ParseError(f"unknown identifier {name!r}", name_tok.pos)


def _const_value(node: Node, pos: int) -> float:
    value = _compile(node)  # a float exactly when node has no x
    if not isinstance(value, float):
        raise ParseError("argument must be a constant expression", pos)
    return value


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------
#
# An AST compiles once into a tree of closures that runs the ufunc sequence
# of a direct tree walk: every float operation is the same, so results match
# bit for bit.  Subtrees without x fold to Python floats, computed by the same
# numpy operation on a one-element array; an array combined with a float then
# gives, element by element, what it gives combined with an array of that
# float.  Compiled closures take arrays of at least one dimension.

def _sinc(a: float, x: np.ndarray) -> np.ndarray:
    y = a * x
    small = np.abs(y) < 1e-6
    if not small.any():
        return np.sin(y) / y
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sin(y) / y
    ys = y[small]
    y2 = ys * ys
    out[small] = 1.0 - y2 / 6.0 * (1.0 - y2 / 20.0)
    return out


def _sincd(a: float, order: int, x: np.ndarray) -> np.ndarray:
    """n-th derivative of sin(ax)/(ax): a^n * d^n/dy^n [sin(y)/y] at y = ax."""
    y = a * x
    small = np.abs(y) < 0.5
    # closed form: d^n/dy^n (sin y / y) = sum_j C(n,j) sin(y + j pi/2) *
    #   (-1)^(n-j) (n-j)! / y^(n-j+1)
    closed = np.zeros_like(y, dtype=float)
    n = order
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n + 1):
            coeff = math.comb(n, j) * (-1.0) ** (n - j) * math.factorial(n - j)
            closed += coeff * np.sin(y + j * math.pi / 2.0) / y ** (n - j + 1)
    if small.any():
        # Taylor: sin(y)/y = sum_m (-1)^m y^(2m) / (2m+1)!
        ys = y[small]
        series = np.zeros_like(ys)
        for m in range((n + 1) // 2, (n + 1) // 2 + 12):
            if 2 * m < n:
                continue
            c = (-1.0) ** m * math.factorial(2 * m) / (
                math.factorial(2 * m - n) * math.factorial(2 * m + 1))
            series += c * ys ** (2 * m - n)
        closed[small] = series
    return a ** n * closed


def _fold(op, *values: float) -> float:
    return float(op(*(np.full(1, v) for v in values))[0])


def _binary(op, left, right):
    """Combine two compiled operands; a float stands for a constant."""
    lc, rc = isinstance(left, float), isinstance(right, float)
    if lc and rc:
        return _fold(op, left, right)
    if lc:
        return lambda x: op(left, right(x))
    if rc:
        return lambda x: op(left(x), right)
    return lambda x: op(left(x), right(x))


def _unary(op, operand):
    if isinstance(operand, float):
        return _fold(op, operand)
    return lambda x: op(operand(x))


def _power(exponent: int):
    if exponent >= 0:
        return lambda b: b ** exponent
    return lambda b: 1.0 / b ** (-exponent)


_CALLS = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "abs": np.abs}
_BINARY = {Add: np.add, Sub: np.subtract, Mul: np.multiply, Div: np.divide}


def _compile(node: Node):
    """A closure x -> values for node, or a float when node has no x."""
    if isinstance(node, Num):
        return float(node.value)
    if isinstance(node, Var):
        return lambda x: x
    op = _BINARY.get(type(node))
    if op is not None:
        return _binary(op, _compile(node.left), _compile(node.right))
    if isinstance(node, Pow):
        return _unary(_power(node.exponent), _compile(node.base))
    if isinstance(node, Neg):
        return _unary(np.negative, _compile(node.operand))
    if isinstance(node, Call):
        return _unary(_CALLS[node.name], _compile(node.arg))
    if isinstance(node, Gauss):
        neg_a = -node.a
        return lambda x: np.exp(neg_a * x * x)
    if isinstance(node, Sinc):
        a = node.a
        return lambda x: _sinc(a, x)
    if isinstance(node, SincD):
        a, order = node.a, node.order
        return lambda x: _sincd(a, order, x)
    if isinstance(node, Indicator):
        a, b = node.a, node.b
        return lambda x: ((x >= a) & (x <= b)).astype(float)
    raise TypeError(node)


def compile_expr(node: Node):
    """Compile node into a function of a float array of at least 1 dimension."""
    fn = _compile(node)
    if isinstance(fn, float):
        value = fn
        return lambda x: np.full_like(x, value, dtype=float)
    return fn


def _apply(fn, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return fn(x.reshape(1)).reshape(()) if x.ndim == 0 else fn(x)


def evaluate(node: Node, x) -> np.ndarray:
    """Compile node and evaluate it once at x."""
    return _apply(compile_expr(node), x)


# ---------------------------------------------------------------------------
# Canonical printer
# ---------------------------------------------------------------------------

def to_source(node: Node) -> str:
    """ASCII form with explicit parentheses around every binary operation."""
    if isinstance(node, Num):
        if node.value == 0.0:
            return "0"
        return f"{node.value:.17g}"
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Add):
        return f"({to_source(node.left)} + {to_source(node.right)})"
    if isinstance(node, Sub):
        return f"({to_source(node.left)} - {to_source(node.right)})"
    if isinstance(node, Mul):
        return f"({to_source(node.left)} * {to_source(node.right)})"
    if isinstance(node, Div):
        return f"({to_source(node.left)} / {to_source(node.right)})"
    if isinstance(node, Pow):
        if node.exponent < 0:
            return f"({to_source(node.base)}^-{-node.exponent})"
        return f"({to_source(node.base)}^{node.exponent})"
    if isinstance(node, Neg):
        return f"(-{to_source(node.operand)})"
    if isinstance(node, Call):
        return f"{node.name}({to_source(node.arg)})"
    if isinstance(node, Gauss):
        return f"gauss({node.a:.17g})"
    if isinstance(node, Sinc):
        return f"sinc({node.a:.17g})"
    if isinstance(node, SincD):
        return f"sincd({node.a:.17g}, {node.order})"
    if isinstance(node, Indicator):
        return f"indicator({node.a:.17g}, {node.b:.17g})"
    raise TypeError(node)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def _diff(node: Node) -> Node:
    if isinstance(node, Num):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0)
    if isinstance(node, Add):
        return Add(_diff(node.left), _diff(node.right))
    if isinstance(node, Sub):
        return Sub(_diff(node.left), _diff(node.right))
    if isinstance(node, Mul):
        return Add(Mul(_diff(node.left), node.right), Mul(node.left, _diff(node.right)))
    if isinstance(node, Div):
        num = Sub(Mul(_diff(node.left), node.right), Mul(node.left, _diff(node.right)))
        return Div(num, Pow(node.right, 2))
    if isinstance(node, Pow):
        if node.exponent == 0:
            return Num(0.0)
        inner = _diff(node.base)
        return Mul(Mul(Num(float(node.exponent)), Pow(node.base, node.exponent - 1)), inner)
    if isinstance(node, Neg):
        return Neg(_diff(node.operand))
    if isinstance(node, Call):
        inner = _diff(node.arg)
        if node.name == "exp":
            return Mul(Call("exp", node.arg), inner)
        if node.name == "sin":
            return Mul(Call("cos", node.arg), inner)
        if node.name == "cos":
            return Neg(Mul(Call("sin", node.arg), inner))
        raise NonDifferentiableError("abs(.) has no classical derivative at 0")
    if isinstance(node, Gauss):
        # d/dx exp(-a x^2) = -2 a x exp(-a x^2)
        return Mul(Mul(Num(-2.0 * node.a), Var()), Gauss(node.a))
    if isinstance(node, Sinc):
        return SincD(node.a, 1)
    if isinstance(node, SincD):
        return SincD(node.a, node.order + 1)
    if isinstance(node, Indicator):
        raise NonDifferentiableError("indicator(.,.) has no classical derivative")
    raise TypeError(node)


# ---------------------------------------------------------------------------
# Decay classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decay:
    """Coarse tail behaviour used to pick integration windows.

    kind is one of "compact_support", "gaussian", "power", "none";
    (a, b) bound the support when compact, alpha is the power-decay rate.
    """

    kind: str
    a: float = 0.0
    b: float = 0.0
    alpha: float = 0.0

    @staticmethod
    def compact(a: float, b: float) -> "Decay":
        return Decay("compact_support", a=a, b=b)

    @staticmethod
    def gaussian() -> "Decay":
        return Decay("gaussian")

    @staticmethod
    def power(alpha: float) -> "Decay":
        return Decay("power", alpha=alpha)

    @staticmethod
    def none_() -> "Decay":
        return Decay("none")


def _mul_factors(node: Node) -> list[Node]:
    if isinstance(node, Mul):
        return _mul_factors(node.left) + _mul_factors(node.right)
    if isinstance(node, Neg):
        return _mul_factors(node.operand)
    return [node]


def _is_neg_quadratic_exp(node: Node) -> bool:
    """exp(u) where u is numerically ~ -c x^2 for some c > 0."""
    if not (isinstance(node, Call) and node.name == "exp"):
        return False
    u = node.arg
    probe = np.asarray([8.0, -8.0, 16.0, -16.0])
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vals = evaluate(u, probe)
    except Exception:
        return False
    if not np.all(vals < -1.0):
        return False
    # quadratic growth: u(16)/u(8) close to 4
    r1 = vals[2] / vals[0]
    r2 = vals[3] / vals[1]
    return 3.0 < r1 < 5.0 and 3.0 < r2 < 5.0


def classify_decay(node: Node) -> Decay:
    if isinstance(node, Indicator):
        return Decay.compact(node.a, node.b)
    if isinstance(node, Gauss) and node.a > 0:
        return Decay.gaussian()
    if isinstance(node, (Sinc, SincD)):
        return Decay.power(1.0)
    factors = _mul_factors(node)
    if len(factors) > 1:
        for f in factors:
            d = classify_decay(f)
            if d.kind == "compact_support":
                return d
        for f in factors:
            d = classify_decay(f)
            if d.kind == "gaussian":
                return d
    if _is_neg_quadratic_exp(node):
        return Decay.gaussian()
    return Decay.none_()


def _max_deriv_order(node: Node) -> int:
    if isinstance(node, (Indicator,)):
        return 0
    if isinstance(node, Call) and node.name == "abs":
        return 0
    if isinstance(node, (Num, Var, Gauss, Sinc, SincD)):
        return 99
    if isinstance(node, (Add, Sub, Mul, Div)):
        return min(_max_deriv_order(node.left), _max_deriv_order(node.right))
    if isinstance(node, Pow):
        return _max_deriv_order(node.base)
    if isinstance(node, Neg):
        return _max_deriv_order(node.operand)
    if isinstance(node, Call):
        return _max_deriv_order(node.arg)
    raise TypeError(node)


# ---------------------------------------------------------------------------
# Public wrapper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FuncExpr:
    """A parsed test function: AST plus decay metadata.

    Values are immutable and evaluation is pure, so instances can be shared
    freely across threads.  The AST is compiled on the first call.
    """

    ast: Node
    src: str
    decay_class: Decay
    deriv_order_available: int

    @cached_property
    def _compiled(self):
        return compile_expr(self.ast)

    @cached_property
    def constant(self) -> Optional[float]:
        """The value of an expression without x; None when x occurs."""
        value = _compile(self.ast)
        return value if isinstance(value, float) else None

    def __call__(self, x):
        scalar = np.isscalar(x)
        out = _apply(self._compiled, x)
        return float(out) if scalar else out

    def __str__(self) -> str:
        return self.src


def parse(src: str, decay: Optional[Decay] = None) -> FuncExpr:
    """Parse a source string into a FuncExpr (canonical-printer round trip)."""
    ast = _Parser(src).parse()
    if decay is None:
        decay = classify_decay(ast)
    return FuncExpr(ast=ast, src=to_source(ast), decay_class=decay,
                    deriv_order_available=_max_deriv_order(ast))


def differentiate(f: FuncExpr, order: int = 1) -> FuncExpr:
    """Exact symbolic derivative of the given order (order >= 1)."""
    if order < 1:
        raise ValueError("order must be >= 1")
    node = f.ast
    for _ in range(order):
        node = _diff(node)
    return FuncExpr(ast=node, src=to_source(node), decay_class=f.decay_class,
                    deriv_order_available=max(0, f.deriv_order_available - order))


# ---------------------------------------------------------------------------
# Exponent fields
# ---------------------------------------------------------------------------

def estimate_log_holder(p: FuncExpr, window: float, samples: int,
                        p_infinity: Optional[float] = None):
    """Grid estimates of the two log-continuity constants of an exponent.

    Returns (c_log_local, c_log_decay, p_minus, p_plus).  These are maxima
    over sample pairs / samples, hence lower estimates of the true constants;
    they never decrease when points are added to the grid.  Raises
    ExponentRangeError if p drops below 1 anywhere on the grid.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    xs = np.linspace(-window, window, samples)
    vals = p(xs)
    if np.min(vals) < 1.0 - 1e-12:
        bad = xs[int(np.argmin(vals))]
        raise ExponentRangeError(f"p({bad:.6g}) = {np.min(vals):.6g} < 1")
    if p_infinity is None:
        p_infinity = 0.5 * float(p(10.0 * window) + p(-10.0 * window))

    c_local = 0.0
    block = 512
    for i0 in range(0, samples, block):
        xi = xs[i0:i0 + block]
        vi = vals[i0:i0 + block]
        dx = np.abs(xi[:, None] - xs[None, :])
        dv = np.abs(vi[:, None] - vals[None, :])
        mask = dx > 0.0
        q = np.where(mask, dv * np.log(np.e + 1.0 / np.where(mask, dx, 1.0)), 0.0)
        c_local = max(c_local, float(np.max(q)))
    c_decay = float(np.max(np.abs(vals - p_infinity) * np.log(np.e + np.abs(xs))))
    return c_local, c_decay, float(np.min(vals)), float(np.max(vals))


@dataclass(frozen=True)
class ExponentField:
    """An exponent p(.) with its range, asymptote and log-continuity data.

    The constants are grid estimates (lower bounds of the true suprema);
    audits that feed them into explicit bound formulas therefore use
    constants that are, if anything, too small, which keeps every check
    conservative.
    """

    expr: FuncExpr
    p_minus: float
    p_plus: float
    p_infinity: float
    c_log_local: float
    c_log_decay: float
    name: str = "p"

    @property
    def c3(self) -> float:
        return max(self.c_log_local, self.c_log_decay)

    @property
    def is_constant(self) -> bool:
        return self.p_minus == self.p_plus and self.c_log_local == 0.0

    def __call__(self, x):
        return self.expr(x)

    @classmethod
    def from_expr(cls, src_or_expr, p_infinity: Optional[float] = None,
                  window: float = 50.0, samples: int = 801,
                  name: Optional[str] = None) -> "ExponentField":
        expr = src_or_expr if isinstance(src_or_expr, FuncExpr) else parse(src_or_expr)
        const = expr.constant
        if const is not None:
            if const < 1.0:
                raise ExponentRangeError(f"constant exponent {const} < 1")
            return cls(expr=expr, p_minus=const, p_plus=const,
                       p_infinity=const, c_log_local=0.0, c_log_decay=0.0,
                       name=name or expr.src)
        c1, c2, pmin, pmax = estimate_log_holder(expr, window, samples, p_infinity)
        if p_infinity is None:
            p_infinity = 0.5 * float(expr(10.0 * window) + expr(-10.0 * window))
        # the essential range over R includes the asymptote
        return cls(expr=expr, p_minus=min(pmin, p_infinity),
                   p_plus=max(pmax, p_infinity), p_infinity=p_infinity,
                   c_log_local=c1, c_log_decay=c2, name=name or expr.src)

    def dual(self) -> "ExponentField":
        """Pointwise conjugate exponent p/(p-1); requires p_minus > 1."""
        if self.p_minus <= 1.0:
            raise ExponentRangeError("dual exponent unbounded: p_minus must exceed 1")
        dual_ast = Div(self.expr.ast, Sub(self.expr.ast, Num(1.0)))
        dual_expr = FuncExpr(ast=dual_ast, src=to_source(dual_ast),
                             decay_class=Decay.none_(),
                             deriv_order_available=self.expr.deriv_order_available)
        return ExponentField(
            expr=dual_expr,
            p_minus=self.p_plus / (self.p_plus - 1.0),
            p_plus=self.p_minus / (self.p_minus - 1.0),
            p_infinity=self.p_infinity / (self.p_infinity - 1.0),
            c_log_local=self.c_log_local, c_log_decay=self.c_log_decay,
            name=f"dual({self.name})",
        )
