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

`sinc(a)` means sin(a*x)/(a*x) with the value 1 at x = 0, the tree node
`SincD(a, 0)`; `sincd(a, n)` is its n-th derivative, which differentiated
expressions use so that removable singularities stay evaluable (accepted
back for n >= 1).  `indicator(a, b)` is 1 on [a, b], endpoints included.
Their arguments and gauss's are constants.  The parser expands the
abbreviations, so no tree walk knows them: `-u` is the product -1 * u (a
literal takes the sign), `gauss(a)` is exp(-a*x*x), and gauss(0), sinc(0)
and sincd(0, n) are the constants 1, 1 and 0.

Exponents in `^` must be integer literals.  The grammar is closed: no user
defined names, no piecewise syntax beyond `indicator`.  The parser and the
tree walks recurse, so more than 50 open parentheses or signs in a row, or a
tree more than 200 levels deep, raise a ParseError, as does a constant that
is no finite float, such as exp(1e300) or 0/0 (folded quietly, then refused).
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Optional, Union

import numpy as np
from numpy.polynomial import polynomial as P

__all__ = [
    "FuncExpr", "ExponentField", "ParseError", "NonDifferentiableError",
    "ExponentRangeError", "parse", "differentiate", "estimate_log_holder",
    "Decay", "rough_spots", "truncated_powers",
]


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at column {pos + 1})")
        self.pos = pos


class NonDifferentiableError(ValueError):
    """Requested derivative of a node with no classical derivative."""


class ExponentRangeError(ValueError):
    """An exponent below 1 or NaN on the grid, or without a limit >= 1 at oo."""


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
class BinOp:
    op: str  # + | - | * | /
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True)
class Call:
    name: str  # exp | sin | cos | abs
    arg: "Node"


@dataclass(frozen=True)
class SincD:
    a: float
    order: int


@dataclass(frozen=True)
class Indicator:
    a: float
    b: float


Node = Union[Num, Var, BinOp, Pow, Call, SincD, Indicator]

_ZERO, _ONE, _MINUS_ONE = Num(0.0), Num(1.0), Num(-1.0)

_UNARY_CALLS = ("exp", "sin", "cos", "abs")


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Tok:
    kind: str  # num | name | op
    text: str
    pos: int


# ASCII numbers, names and operators; a character that starts none of them is
# an error.  `\s` keeps str.isspace's whitespace.
_TOKEN = re.compile(r"(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
                    r"|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^(),])|(?P<space>\s+)|.",
                    re.DOTALL)


_MAX_NEST = 50  # open parentheses or signs in a row; the parser recurses ~8 frames each
_MAX_DEPTH = 200  # levels of a tree, parsed or differentiated; a walk takes ~2 frames each


def _tokenize(src: str) -> list[_Tok]:
    toks, nest, signs = [], 0, 0
    for m in _TOKEN.finditer(src):
        if m.lastgroup is None:
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if m.lastgroup != "space":
            toks.append(_Tok(m.lastgroup, m.group(), m.start()))
            nest += (m.group() == "(") - (m.group() == ")")
            signs = signs + 1 if m.group() == "-" else 0
            if max(nest, signs) > _MAX_NEST:
                raise ParseError(f"more than {_MAX_NEST} open parentheses or signs", m.start())
    return toks


def _depth(node: Node, memo: dict) -> int:
    """The levels of node's tree, without recursion; memo: id -> (depth, subtree)."""
    stack = [node]
    while stack:
        kids = [v for v in vars(stack[-1]).values() if isinstance(v, (BinOp, Pow, Call))]
        if todo := [k for k in kids if id(k) not in memo]:
            stack += todo
        else:
            top = stack.pop()
            memo[id(top)] = 1 + max((memo[id(k)][0] for k in kids), default=0), top
    return memo[id(node)][0]


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0
        self.depths: dict[int, tuple[int, Node]] = {}  # `_depth`'s; holding nodes keeps ids unique
        self.consts: dict[int, float] = {}  # id -> value of each node built without x

    def _peek(self) -> Optional[_Tok]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next(self) -> _Tok:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.src))
        self.i += 1
        return tok

    def _accept(self, ops: str) -> Optional[_Tok]:
        """Consume and return the next token if it is one of the
        single-character ops; None otherwise."""
        tok = self._peek()
        if tok is None or tok.kind != "op" or tok.text not in ops:
            return None
        self.i += 1
        return tok

    def _expect(self, text: str):
        tok = self._next()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.pos)

    def _node(self, node: Node, tok: _Tok) -> Node:
        """node, built at tok; ParseError when its tree is deeper than _MAX_DEPTH
        or when it has no x and its value is not finite."""
        if _depth(node, self.depths) > _MAX_DEPTH:
            raise ParseError(f"the expression is deeper than {_MAX_DEPTH} levels", tok.pos)
        kids = {k: v.value if isinstance(v, Num) else self.consts.get(id(v))
                for k, v in vars(node).items() if not isinstance(v, (str, int))}
        if None not in kids.values():  # fold it from its children's values
            value = self.consts[id(node)] = _compile(replace(node, **{
                k: Num(v) for k, v in kids.items()}))
            _finite(value, tok)
        return node

    def parse(self) -> Node:
        node = self._expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok.text!r}", tok.pos)
        return node

    def _chain(self, ops: str, operand) -> Node:
        """Left-associative operand { op operand } for single-character ops."""
        node = operand()
        while (tok := self._accept(ops)) is not None:
            node = self._node(BinOp(tok.text, node, operand()), tok)
        return node

    def _expr(self) -> Node:
        return self._chain("+-", self._term)

    def _term(self) -> Node:
        return self._chain("*/", self._unary)

    def _unary(self) -> Node:
        if tok := self._accept("-"):
            node = self._unary()
            if isinstance(node, Num):  # fold literal sign for canonical form
                return Num(-node.value)
            return self._node(BinOp("*", _MINUS_ONE, node), tok)
        return self._power()

    def _power(self) -> Node:
        base = self._atom()
        if not (caret := self._accept("^")):
            return base
        sign = -1 if self._accept("-") else 1
        tok = self._next()
        if tok.kind != "num" or any(c in tok.text for c in ".eE"):
            raise ParseError("exponent after '^' must be an integer literal", tok.pos)
        return self._node(Pow(base, sign * int(tok.text)), caret)

    def _atom(self) -> Node:
        tok = self._next()
        if tok.kind == "num":
            return Num(_finite(float(tok.text), tok))
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
        while self._accept(","):
            args.append(self._expr())
        self._expect(")")
        if name in _UNARY_CALLS:
            if len(args) != 1:
                raise ParseError(f"{name} takes one argument", name_tok.pos)
            return self._node(Call(name, args[0]), name_tok)
        if name in ("gauss", "sinc"):
            if len(args) != 1:
                raise ParseError(f"{name} takes one constant argument", name_tok.pos)
            a = _const_value(args[0], name_tok.pos)
            if a == 0.0:
                return _ONE
            if name == "sinc":
                return SincD(a, 0)
            return Call("exp", BinOp("*", BinOp("*", Num(-a), Var()), Var()))
        if name == "sincd":
            if len(args) != 2:
                raise ParseError("sincd takes (a, order)", name_tok.pos)
            a = _const_value(args[0], name_tok.pos)
            order = _const_value(args[1], name_tok.pos)
            if order != int(order) or order < 1:
                raise ParseError("sincd order must be a positive integer", name_tok.pos)
            return SincD(a, int(order)) if a else _ZERO
        if name == "indicator":
            if len(args) != 2:
                raise ParseError("indicator takes (a, b)", name_tok.pos)
            a = _const_value(args[0], name_tok.pos)
            b = _const_value(args[1], name_tok.pos)
            if not a < b:
                raise ParseError("indicator needs a < b", name_tok.pos)
            return Indicator(a, b)
        raise ParseError(f"unknown identifier {name!r}", name_tok.pos)


def _finite(value: float, tok: _Tok) -> float:
    if not math.isfinite(value):
        raise ParseError(f"this constant is {value!r}, not a finite float", tok.pos)
    return value


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
# of a direct tree walk: every float operation is the same, so this plain form
# matches the walk bit for bit (the outer form below does not).  Subtrees
# without x fold to Python floats, computed by the same numpy operation on a
# one-element array; an array combined with a float then gives, element by
# element, what it gives combined with an array of that float.  Compiled
# closures take arrays of at least one dimension.

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
    with np.errstate(all="ignore"):  # the parser refuses a constant that is not finite
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
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _compile(node: Node):
    """A closure x -> values for node, or a float when node has no x."""
    if isinstance(node, Num):
        return float(node.value)
    if isinstance(node, Var):
        return lambda x: x
    if isinstance(node, BinOp):
        return _binary(_BINARY[node.op], _compile(node.left), _compile(node.right))
    if isinstance(node, Pow):
        return _unary(_power(node.exponent), _compile(node.base))
    if isinstance(node, Call):
        return _unary(_CALLS[node.name], _compile(node.arg))
    if isinstance(node, SincD):
        a, order = node.a, node.order
        if order == 0:
            return lambda x: _sinc(a, x)
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


# The outer form samples a tree at every x_i + t_j.  sin and cos of c*x + b
# go by the addition theorem, sin(u_i + v_j) = [sin u, cos u] @ [cos v; sin v]
# with u = c*x + b and v = c*t: 2(N + M) transcendentals and a rank-2 matmul,
# not N*M sines.  The exact rounding residuals e of u and v (TwoProduct and
# TwoSum; Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 2005) correct both
# factors to first order, sin(u + e) = sin u + e cos u, so the values are
# those at the exact x_i + t_j to about an ulp, where the plain form, which
# rounds x_i + t_j and c*(x_i + t_j), is off by about eps*|c*X|.  sinc(a) is
# that sine over a*X.  Where |c*X| < 4 the plain form is as accurate (for
# sinc, more), and the node keeps its compiled closure; so does every other
# subtree, on X = x_i + t_j.

def _split(a):
    h = a * 134217729.0  # 2^27 + 1: Veltkamp's split into two 26-bit halves
    hi = h - (h - a)
    return hi, a - hi


def _sin_cos(c: float, b: float, x: np.ndarray):
    """sin and cos of c*x + b: of its rounded value, corrected by the residual."""
    p = c * x
    (ch, cl), (xh, xl) = _split(c), _split(x)
    s = p + b
    z = s - p
    e = cl * xl - (((p - ch * xh) - cl * xh) - ch * xl) + ((p - (s - z)) + (b - z))
    sin, cos = np.sin(s), np.cos(s)
    return sin + e * cos, cos - e * sin


def _trig(kind: str, c: float, b: float, plain):
    """The outer form of sin or cos of c*x + b, or of sinc(c) (b = 0), whose
    compiled closure is plain."""
    def prep(x, t):
        (su, cu), (sv, cv) = _sin_cos(c, b, x), _sin_cos(c, 0.0, t)
        left, right = np.stack([cu, -su] if kind == "cos" else [su, cu], 1), np.stack([cv, sv])
        reach = 8.0 / abs(c)  # rows beyond it hold no |c*X| < 4
        near = (x + t.max(initial=-np.inf) > -reach) & (x + t.min(initial=np.inf) < reach)

        def ev(rows, X):
            out = left[rows] @ right
            if kind == "sinc":
                with np.errstate(divide="ignore", invalid="ignore"):
                    np.divide(out, np.multiply(c, X), out=out)
            if near[rows].any():
                small = np.abs(np.multiply(c, X)) < 4.0
                out[small] = plain(X[small])
            return out
        return ev
    return prep


def _on_sum(fn):
    """A compiled closure, or float, as an outer form: fn on X."""
    return fn if isinstance(fn, float) else lambda x, t: lambda rows, X: fn(X)


def _outer(node: Node):
    """node's outer form, (x, t) -> ((rows, X) -> values at X = x[rows] + t),
    or None when that is its compiled closure on X."""
    if isinstance(node, SincD) and node.order == 0:
        return _trig("sinc", node.a, 0.0, _compile(node))
    if (isinstance(node, Call) and node.name in ("sin", "cos") and (arg := _pieces(node.arg))
            and not arg[0] and len(p := arg[1][0]) == 2 and p[1] != 0.0):
        return _trig(node.name, float(p[1]), float(p[0]), _compile(node))
    kids = [v for v in vars(node).values() if not isinstance(v, (int, float, str))]
    outers = [_outer(k) for k in kids]
    if all(o is None for o in outers):
        return None
    op = (_BINARY[node.op] if isinstance(node, BinOp)
          else _CALLS[node.name] if isinstance(node, Call) else _power(node.exponent))
    parts = [o or _on_sum(_compile(k)) for k, o in zip(kids, outers)]

    def prep(x, t):
        evs = [p if isinstance(p, float) else p(x, t) for p in parts]
        return lambda rows, X: op(*(e if isinstance(e, float) else e(rows, X) for e in evs))
    return prep


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
    if isinstance(node, BinOp):
        if node.op == "*" and node.left == _MINUS_ONE:
            return f"(-{to_source(node.right)})"
        return f"({to_source(node.left)} {node.op} {to_source(node.right)})"
    if isinstance(node, Pow):
        base = to_source(node.base)
        if isinstance(node.base, Num) and node.base.value < 0.0:
            base = f"({base})"  # -2^2 reads as -(2^2)
        return f"({base}^{node.exponent})"
    if isinstance(node, Call):
        return f"{node.name}({to_source(node.arg)})"
    if isinstance(node, SincD):
        if node.order == 0:
            return f"sinc({node.a:.17g})"
        return f"sincd({node.a:.17g}, {node.order})"
    if isinstance(node, Indicator):
        return f"indicator({node.a:.17g}, {node.b:.17g})"
    raise TypeError(node)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def _op(op: str, left: Node, right: Node) -> Node:
    """BinOp(op, left, right) without its terms 0 and factors 1."""
    if op == "*" and _ZERO in (left, right):
        return _ZERO
    if (op == "*" and left == _ONE) or (op == "+" and left == _ZERO):
        return right
    if (op in "*/" and right == _ONE) or (op in "+-" and right == _ZERO):
        return left
    if op == "-" and left == _ZERO:
        return BinOp("*", _MINUS_ONE, right)
    return BinOp(op, left, right)


def _diff(node: Node) -> Node:
    if isinstance(node, Num):
        return _ZERO
    if isinstance(node, Var):
        return _ONE
    if isinstance(node, BinOp):
        dl, dr = _diff(node.left), _diff(node.right)
        if node.op in "+-":
            return _op(node.op, dl, dr)
        terms = _op("*", dl, node.right), _op("*", node.left, dr)
        if node.op == "*":
            return _op("+", *terms)
        return _op("/", _op("-", *terms), Pow(node.right, 2))
    if isinstance(node, Pow):
        if node.exponent == 0:
            return _ZERO
        n = node.exponent - 1
        power = node.base if n == 1 else Pow(node.base, n)
        return _op("*", _op("*", Num(float(node.exponent)), power), _diff(node.base))
    if isinstance(node, Call):
        inner = _diff(node.arg)
        if node.name == "exp":
            return _op("*", Call("exp", node.arg), inner)
        if node.name == "sin":
            return _op("*", Call("cos", node.arg), inner)
        if node.name == "cos":
            return _op("-", _ZERO, _op("*", Call("sin", node.arg), inner))
        raise NonDifferentiableError("abs(.) has no classical derivative at 0")
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


class _Tail(NamedTuple):
    """A subtree as |x| -> oo: |f| = O(|x|^growth), and f ~ coef * |x|^growth
    times sign(x) when odd, when coef is finite and nonzero (0 after
    cancellation, nan when unknown); f vanishes off support when that is
    known.  growth is -inf for Gaussian decay and compact support, +inf when
    no power bounds f."""

    growth: float
    coef: float = math.nan
    support: Optional[tuple[float, float]] = None
    odd: bool = False


def _sum(l: _Tail, r: _Tail) -> _Tail:
    g = max(l.growth, r.growth)
    top = [t for t in (l, r) if t.growth == g]
    # x^g and |x|^g leading terms of different parity do not add up
    coef = sum(t.coef for t in top) if len({t.odd for t in top}) == 1 else math.nan
    hull = l.support and r.support and (min(l.support[0], r.support[0]),
                                        max(l.support[1], r.support[1]))
    return _Tail(g, coef if math.isfinite(g) else math.nan, hull or None, top[0].odd)


def _product(l: _Tail, r: _Tail) -> _Tail:
    support = l.support or r.support
    if support:
        return _Tail(-math.inf, support=support)
    if math.inf in (l.growth, r.growth):
        return _Tail(math.inf)
    # o(|x|^a) O(|x|^b) = o(|x|^(a+b)): a coefficient 0 survives any factor
    coef = 0.0 if 0.0 in (l.coef, r.coef) else l.coef * r.coef
    return _Tail(l.growth + r.growth, coef, odd=l.odd != r.odd)


def _power_tail(t: _Tail, n: int) -> _Tail:
    if n == 0:
        return _Tail(0.0, 1.0)
    if n < 0 and not (math.isfinite(t.coef) and t.coef != 0.0):
        return _Tail(math.inf)  # 1/f is bounded only by f's exact leading term
    return _Tail(n * t.growth, t.coef ** n, t.support if n > 0 else None,
                 t.odd and n % 2 == 1)


def _tail(node: Node) -> _Tail:
    # coefficients are numpy scalars, which overflow to inf instead of raising
    if isinstance(node, Num):
        return _Tail(0.0, np.float64(node.value))
    if isinstance(node, Var):
        return _Tail(1.0, np.float64(1.0), odd=True)
    if isinstance(node, Indicator):
        return _Tail(-math.inf, support=(node.a, node.b))
    if isinstance(node, SincD):
        return _Tail(-1.0)
    if isinstance(node, Pow):
        return _power_tail(_tail(node.base), node.exponent)
    if isinstance(node, Call):
        value = _compile(node)
        if isinstance(value, float):
            return _Tail(0.0, np.float64(value))
        u = _tail(node.arg)
        if node.name == "abs":
            return u._replace(coef=abs(u.coef), odd=False)
        if node.name != "exp":
            return _Tail(0.0)
        if u.growth > 0 and u.coef < 0 and not u.odd:  # u -> -oo on both sides
            if u.growth == 2 and 64.0 * u.coef < -1.0:
                return _Tail(-math.inf)  # exp(c x^2) with c < -1/64
            return _Tail(0.0, np.float64(0.0))
        return _Tail(0.0 if u.growth <= 0 else math.inf)
    l, r = _tail(node.left), _tail(node.right)
    if node.op in "+-":
        return _sum(l, r if node.op == "+" else r._replace(coef=-r.coef))
    return _product(l, r if node.op == "*" else _power_tail(r, -1))


def classify_decay(node: Node, terms: Optional[tuple]) -> Decay:
    """The decay class read off the tree: compact support from indicator
    factors or a compactly supported piecewise polynomial (node's
    `truncated_powers` terms), Gaussian from exp(c x^2 + ...) with 64c < -1,
    as gauss(a) with a > 1/64, power decay from a negative growth bound, else none."""
    if terms:
        return Decay("compact_support", min(b for _, b, _ in terms), max(b for _, b, _ in terms))
    with np.errstate(all="ignore"):
        t = _tail(node)
    if t.support:
        return Decay("compact_support", *t.support)
    if t.growth == -math.inf:
        return Decay("gaussian")
    return Decay("power", alpha=-t.growth) if t.growth < 0 else Decay("none")


# ---------------------------------------------------------------------------
# Piecewise polynomials, jumps and kinks
# ---------------------------------------------------------------------------
#
# Numbers, x, + - *, division by a constant, powers 0..16 (numpy's polypow
# limit), indicator and abs of a piecewise-affine argument make a piecewise
# polynomial.  Its knots, the zeros of abs arguments included, are located
# exactly, not resolved (Pachon, Platte & Trefethen, IMA J. Numer. Anal. 30,
# 2010).

_POLY_OPS = {"+": P.polyadd, "-": P.polysub, "*": P.polymul, "/": lambda p, c: p / c[0]}


def _insides(knots: list[float]) -> list[float]:
    """A point inside each interval that the sorted knots cut from the line."""
    if not knots:
        return [0.0]
    return [knots[0] - 1.0, *((a + b) / 2.0 for a, b in zip(knots, knots[1:])), knots[-1] + 1.0]


def _refine(knots: list[float], polys: list, finer: list[float]) -> list:
    """polys, one per interval of the sorted knots, on the intervals of finer,
    a sorted superset of knots."""
    return [polys[0], *(polys[bisect.bisect_right(knots, b)] for b in finer)]


def _pieces(node: Node) -> Optional[tuple[list[float], list[np.ndarray]]]:
    """node as a piecewise polynomial: its sorted knots, and the polynomial,
    coefficients lowest first, that it equals on each interval they cut from
    the line; None outside the subset."""
    if isinstance(node, Var):
        return [], [np.array([0.0, 1.0])]
    if isinstance(node, Indicator):
        knots = sorted({node.a, node.b})
        return knots, [np.array([float(node.a < x < node.b)]) for x in _insides(knots)]
    if isinstance(node, BinOp):
        if node.op == "/" and not isinstance(_compile(node.right), float):
            return None
        l = _pieces(node.left)
        if l is None or (r := _pieces(node.right)) is None:
            return None
        knots = sorted(set(l[0]) | set(r[0]))
        with np.errstate(all="ignore"):  # coefficients overflow to inf, as (1e200*x)^2's do
            return knots, list(map(_POLY_OPS[node.op], _refine(*l, knots), _refine(*r, knots)))
    value = _compile(node)
    if isinstance(value, float):
        return [], [np.array([value])]
    if isinstance(node, Pow) and 0 <= node.exponent <= 16:
        p = _pieces(node.base)
        with np.errstate(all="ignore"):
            return p and (p[0], [P.polypow(q, node.exponent) for q in p[1]])
    arg = _pieces(node.arg) if isinstance(node, Call) and node.name == "abs" else None
    if arg is None or any(len(p) > 2 for p in arg[1]):
        return None
    ends = [-math.inf, *arg[0], math.inf]
    zeros = {float(-p[0] / p[1]) + 0.0 for lo, hi, p in zip(ends, ends[1:], arg[1])
             if len(p) == 2 and lo < -p[0] / p[1] < hi}  # + 0.0: no -0.0
    knots = sorted(set(arg[0]) | zeros)
    return knots, [-p if P.polyval(x, p) < 0.0 else p
                   for x, p in zip(_insides(knots), _refine(*arg, knots))]


def truncated_powers(node: Node) -> Optional[tuple[tuple[float, float, int], ...]]:
    """node as the sum of c (b - x)_+^n / n! over its terms (c, b, n), or None
    when it is no piecewise polynomial that vanishes off [min b, max b].

    At each knot b, c = (-1)^n (left - right)^(n)(b) for the pieces on
    either side.  A jump below the rounding error of evaluating the pieces
    at b, as the rounded zero of an abs argument leaves, is none.
    """
    knots, polys = _pieces(node) or ([], [])
    if not knots or polys[0].any() or polys[-1].any():
        return None
    terms = []
    for b, left, right in zip(knots, polys, polys[1:]):
        for n in range(max(len(left), len(right))):
            dl, dr = P.polyder(left, n), P.polyder(right, n)
            jump = P.polyval(b, dl) - P.polyval(b, dr)
            noise = P.polyval(abs(b), np.abs(dl)) + P.polyval(abs(b), np.abs(dr))
            if abs(jump) > 8.0 * np.finfo(float).eps * noise:
                terms.append((float((-1) ** n * jump), b, n))
    return tuple(terms)


def rough_spots(node: Node) -> tuple[tuple[float, ...], float]:
    """(breakpoints, frequency) read off the tree: the knots of its
    piecewise-polynomial subtrees, and a bound on its frequencies: |a| for
    sinc(a) and sincd(a, n), the largest |slope| over the pieces of the
    argument of sin and cos, the sum over the factors of a product, n times
    the base's for a power n >= 1, else the largest of the children's.
    ValueError for an abs outside the subset, as in abs(sin(x)), for sin or
    cos of an argument that is not piecewise affine, as in sin(x^2), and for
    a divisor, an exp argument or the base of a negative power that
    oscillates, as in exp(sin(x)), whose spectra no such sum bounds."""
    if isinstance(node, SincD):
        return (), abs(node.a)
    if isinstance(node, Indicator):
        return tuple(sorted({node.a, node.b})), 0.0
    trig = isinstance(node, Call) and node.name in ("sin", "cos")
    if trig and (arg := _pieces(node.arg)) and all(len(p) <= 2 for p in arg[1]):
        return tuple(arg[0]), max((abs(float(p[1])) for p in arg[1] if len(p) == 2), default=0.0)
    if isinstance(node, Call) and node.name == "abs":
        if (pieces := _pieces(node)) is None:
            raise ValueError(f"cannot locate the kinks of {to_source(node)}")
        return tuple(pieces[0]), 0.0
    parts = [rough_spots(v) for v in vars(node).values()
             if not isinstance(v, (int, float, str))]
    freqs = [w for _, w in parts]
    # sin or cos of any other argument; the last child is the exp argument, the
    # divisor or the negative power's base
    if trig or (freqs and freqs[-1] and ((isinstance(node, Call) and node.name == "exp")
                                         or (isinstance(node, BinOp) and node.op == "/")
                                         or (isinstance(node, Pow) and node.exponent < 0))):
        raise ValueError(f"cannot bound the frequency of {to_source(node)}")
    if isinstance(node, BinOp) and node.op == "*":
        freqs = [sum(freqs)]
    elif isinstance(node, Pow) and node.exponent >= 1:
        freqs = [node.exponent * freqs[0]]
    return tuple(sorted({b for p, _ in parts for b in p})), max(freqs, default=0.0)


# ---------------------------------------------------------------------------
# Public wrapper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FuncExpr:
    """A parsed test function: its AST, and what is read off it.

    Values are immutable and evaluation is pure, so instances can be shared
    freely across threads.  The AST is compiled on the first call; the
    source, decay class and smoothness are read off it on first use.
    """

    ast: Node

    @cached_property
    def src(self) -> str:
        return to_source(self.ast)

    @cached_property
    def terms(self) -> Optional[tuple[tuple[float, float, int], ...]]:
        """`truncated_powers` of the tree, read once."""
        return truncated_powers(self.ast)

    @cached_property
    def decay_class(self) -> Decay:
        return classify_decay(self.ast, self.terms)

    @cached_property
    def smooth(self) -> bool:
        """Symbolic derivatives exist: `_diff` meets no abs or indicator
        outside a power 0."""
        try:
            _diff(self.ast)
        except NonDifferentiableError:
            return False
        return True

    @cached_property
    def _compiled(self):
        return compile_expr(self.ast)

    @cached_property
    def constant(self) -> Optional[float]:
        """The value of an expression without x; None when x occurs."""
        value = _compile(self.ast)
        return value if isinstance(value, float) else None

    @cached_property
    def _outer_form(self):
        return _outer(self.ast) or _on_sum(self._compiled)

    def outer(self, x: np.ndarray, t: np.ndarray):
        """rows -> the values at every x_i + t_j, i in the slice rows, for 1-D
        x and t: the outer form (see `_outer`)."""
        ev = self._outer_form(x, t)
        return lambda rows: ev(rows, x[rows, None] + t)

    def __call__(self, x):
        scalar = np.isscalar(x)
        out = _apply(self._compiled, x)
        return float(out) if scalar else out

    def __str__(self) -> str:
        return self.src


def parse(src: str) -> FuncExpr:
    """Parse a source string into a FuncExpr (canonical-printer round trip)."""
    return FuncExpr(_Parser(src).parse())


def differentiate(f: FuncExpr, order: int = 1) -> FuncExpr:
    """Exact symbolic derivative of the given order (order >= 1); ValueError
    when a derivative's tree is deeper than _MAX_DEPTH levels."""
    if order < 1:
        raise ValueError("order must be >= 1")
    node = f.ast
    for k in range(1, order + 1):
        node = _diff(node)
        if _depth(node, {}) > _MAX_DEPTH:
            raise ValueError(f"the derivative of order {k} is deeper than {_MAX_DEPTH} levels")
    return FuncExpr(node)


# ---------------------------------------------------------------------------
# Exponent fields
# ---------------------------------------------------------------------------

_P_WINDOW, _P_SAMPLES = 50.0, 801  # the exponent grid: step 1/8, so k steps are exactly k/8


def estimate_log_holder(p: FuncExpr, p_infinity: float):
    """Grid estimates of the two log-continuity constants of an exponent.

    Returns (c_log_local, c_log_decay, p_minus, p_plus), maxima over sample
    pairs / samples of the grid, hence lower estimates of the true constants.
    Pairs go by lag k, k steps apart; log(e + 1/(k step)) falls with k, so the
    scan stops once p_plus - p_minus times it cannot beat the maximum so far.
    Raises ExponentRangeError if p drops below 1, or is NaN, on the grid.
    """
    xs = np.linspace(-_P_WINDOW, _P_WINDOW, _P_SAMPLES)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = p(xs)
    i = int(np.argmin(vals))  # the first NaN, if there is one
    if not vals[i] >= 1.0 - 1e-12:
        raise ExponentRangeError(f"p({xs[i]:.6g}) = {vals[i]:.6g} is not >= 1")

    p_minus, p_plus = float(np.min(vals)), float(np.max(vals))
    lags = np.arange(1, _P_SAMPLES)
    factors = np.log(np.e + 1.0 / (lags * (xs[1] - xs[0])))
    c_local = 0.0
    for k, factor in zip(lags.tolist(), factors.tolist()):
        if (p_plus - p_minus) * factor <= c_local:
            break
        c_local = max(c_local, float(np.max(np.abs(vals[k:] - vals[:-k]))) * factor)
    c_decay = float(np.max(np.abs(vals - p_infinity) * np.log(np.e + np.abs(xs))))
    return c_local, c_decay, p_minus, p_plus


def _limit(node: Node) -> float:
    """The limit of node's value as |x| -> oo, read off its tail."""
    with np.errstate(all="ignore"):
        t = _tail(node)
    if t.growth < 0:
        return 0.0
    if t.growth == 0 and math.isfinite(t.coef) and not (t.odd and t.coef):
        return float(t.coef)
    raise ExponentRangeError(f"{to_source(node)} has no limit at infinity")


@dataclass(frozen=True)
class ExponentField:
    """An exponent p(.) with its range, its limit p_infinity at infinity (read
    off the tree; an exponent without one is refused) and log-continuity data.

    The range on [-50, 50] and the constants are grid estimates (lower bounds
    of the true suprema); audits that feed them into explicit bound formulas
    therefore use constants that are, if anything, too small, which keeps
    every check conservative.
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
    def from_expr(cls, src: str, name: Optional[str] = None) -> "ExponentField":
        expr = parse(src)
        const = expr.constant
        limit = _limit(expr.ast) if const is None else const
        if not limit >= 1.0:
            raise ExponentRangeError(f"p = {limit:.6g} < 1 at infinity")
        if const is not None:
            return cls(expr=expr, p_minus=const, p_plus=const, p_infinity=const,
                       c_log_local=0.0, c_log_decay=0.0, name=name or expr.src)
        c1, c2, pmin, pmax = estimate_log_holder(expr, limit)
        # the essential range over R includes the limit
        return cls(expr=expr, p_minus=min(pmin, limit), p_plus=max(pmax, limit),
                   p_infinity=limit, c_log_local=c1, c_log_decay=c2,
                   name=name or expr.src)

    def dual(self) -> "ExponentField":
        """Pointwise conjugate exponent p/(p-1); requires p_minus > 1.  Its
        constants are p's over (p- - 1)^2, as |p'(x) - p'(y)| is
        |p(x) - p(y)| / ((p(x) - 1)(p(y) - 1))."""
        if self.p_minus <= 1.0:
            raise ExponentRangeError("dual exponent unbounded: p_minus must exceed 1")
        ast, scale = self.expr.ast, (self.p_minus - 1.0) ** -2
        return ExponentField(
            expr=FuncExpr(BinOp("/", ast, BinOp("-", ast, Num(1.0)))),
            p_minus=self.p_plus / (self.p_plus - 1.0),
            p_plus=self.p_minus / (self.p_minus - 1.0),
            p_infinity=self.p_infinity / (self.p_infinity - 1.0),
            c_log_local=scale * self.c_log_local, c_log_decay=scale * self.c_log_decay,
            name=f"dual({self.name})",
        )
