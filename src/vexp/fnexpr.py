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
back for 1 <= n <= 16).  `indicator(a, b)` is 1 on [a, b], endpoints
included.  Their arguments and gauss's are constants.  The parser expands
the abbreviations, so no tree walk knows them: `-u` is the product -1 * u
(a literal takes the sign), `gauss(a)` is exp(-a*x*x), and gauss(0),
sinc(0) and sincd(0, n) are the constants 1, 1 and 0.

Exponents in `^` must be integer literals.  The grammar is closed: no user
defined names, no piecewise syntax beyond `indicator`.  The parser recurses,
so more than 50 open parentheses or signs in a row raise a ParseError, as
do more than 10,000 distinct nodes and a constant that is no finite float,
such as exp(1e300) or 0/0 (folded quietly, then refused).  Trees are DAGs,
and each walk visits their distinct nodes once (`_walk`).
"""

from __future__ import annotations

import bisect
import math
import re
import struct
import weakref
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple, Optional

import numpy as np
from numpy.polynomial import polynomial as P

from .quad import kept

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
# Numeric kernels
# ---------------------------------------------------------------------------

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


def _sincd_coef(n: int, m: int) -> float:  # coefficient of y^(2m-n) in d^n/dy^n (sin y / y)
    return (-1.0) ** m * math.factorial(2 * m) / (
        math.factorial(2 * m - n) * math.factorial(2 * m + 1))


_SINCD_TOL = 1e-14  # eps times the terms a sincd rule sums, at most


def _sincd_plan(n: int) -> Optional[tuple[float, int]]:
    """(switch, terms): sincd of order n sums that many terms of its Taylor
    series where |y| < switch, else its closed form; orders 1 to 4 keep 0.5
    and 12.  Above, the closed form's terms, n!/(j! |y|^(n+1-j)) in size,
    cancel to at most 1/(n+1): the switch is the first multiple of 1/8 where
    eps times their sum is within _SINCD_TOL, and the series runs until its
    terms fall below eps there; None when eps times those sums past it."""
    if n <= 4:
        return 0.5, 12
    f, eps, y, m, terms = math.factorial, np.finfo(float).eps, 0.5, (n + 1) // 2, []
    while eps * sum(f(n) / (f(j) * y ** (n + 1 - j)) for j in range(n + 1)) > _SINCD_TOL:
        y += 0.125
    while not terms or terms[-1] >= eps:
        k = m + len(terms)
        terms.append(abs(_sincd_coef(n, k)) * y ** (2 * k - n))
    return (y, len(terms)) if eps * sum(terms) <= _SINCD_TOL else None


_SINCD: dict[int, tuple[float, int]] = {}  # order -> its plan, while the rule holds
while plan := _sincd_plan(len(_SINCD) + 1):
    _SINCD[len(_SINCD) + 1] = plan
_SINCD_MAX = len(_SINCD)


def _sincd(a: float, n: int, x: np.ndarray) -> np.ndarray:
    """n-th derivative of sin(ax)/(ax): a^n * d^n/dy^n [sin(y)/y] at y = ax."""
    switch, terms = _SINCD[n]
    y = a * x
    small = np.abs(y) < switch
    # closed form: d^n/dy^n (sin y / y) = sum_j C(n,j) sin(y + j pi/2) *
    #   (-1)^(n-j) (n-j)! / y^(n-j+1)
    closed = np.zeros_like(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(n + 1):
            coeff = math.comb(n, j) * (-1.0) ** (n - j) * math.factorial(n - j)
            closed += coeff * np.sin(y + j * math.pi / 2.0) / y ** (n - j + 1)
    if small.any():
        # Taylor: sin(y)/y = sum_m (-1)^m y^(2m) / (2m+1)!
        ys = y[small]
        series = np.zeros_like(ys)
        for m in range((n + 1) // 2, (n + 1) // 2 + terms):
            series += _sincd_coef(n, m) * ys ** (2 * m - n)
        closed[small] = series
    return a ** n * closed


_CALLS = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "abs": np.abs}
_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


# ---------------------------------------------------------------------------
# Nodes and walks
# ---------------------------------------------------------------------------

_NODES: dict[tuple, weakref.ref] = {}  # key -> the live node; a node's death drops its key
_BITS = struct.Struct("<d").pack


class Node:
    """An expression node, interned and never changed: a constructor returns
    the one live node of its class with the same children (by identity) and
    constants (by their bits: 0.0 and -0.0 are two), so equality is identity.
    kids are the child nodes, const the value of a node without x (else None)
    and walk `_order`'s list, once read."""

    __slots__ = ("kids", "const", "walk", "__weakref__")

    def __new__(cls, *fields):
        if len(fields) != len(cls.__slots__):
            raise TypeError(f"{cls.__name__} takes the fields {cls.__slots__}")
        if cls in (BinOp, Pow, Call):
            key, kids = (cls, *fields), fields[:1] if cls is Pow else fields[1:]
        else:  # a leaf
            fields = (float(fields[0]),) if cls is Num else fields
            key, kids = (cls, *[_BITS(v) if isinstance(v, float) else v for v in fields]), ()
        if (ref := _NODES.get(key)) is not None and (node := ref()) is not None:
            return node
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            setattr(node, name, value)
        node.kids, node.const, node.walk = kids, fields[0] if cls is Num else None, None
        if kids and None not in (consts := [k.const for k in kids]):
            with np.errstate(all="ignore"):  # the parser refuses a constant that is not finite
                node.const = float(_FN[cls](node)(*[np.full(1, v) for v in consts])[0])
        _NODES[key] = weakref.ref(node, lambda _, key=key, nodes=_NODES: nodes.pop(key, None))
        return node

    def __repr__(self) -> str:
        fields = ", ".join(repr(getattr(self, f)) for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


# the node classes by their fields: Num's value is a float, BinOp's op + - * or
# /, Call's name exp, sin, cos or abs, and SincD(a, n) is the n-th derivative
# of sinc(a)
Num, Var, BinOp, Pow, Call, SincD, Indicator = (
    type(name, (Node,), {"__slots__": tuple(fields.split())}) for name, fields in [
        ("Num", "value"), ("Var", ""), ("BinOp", "op left right"), ("Pow", "base exponent"),
        ("Call", "name arg"), ("SincD", "a order"), ("Indicator", "a b")])
_ZERO, _ONE, _MINUS_ONE, _X = Num(0.0), Num(1.0), Num(-1.0), Var()

# the numpy operation of a node with x, on its kids' values or on x
_FN = {
    BinOp: lambda n: _BINARY[n.op],
    Pow: lambda n: ((lambda b: b ** n.exponent) if n.exponent >= 0
                    else lambda b: 1.0 / b ** (-n.exponent)),
    Call: lambda n: _CALLS[n.name],
    SincD: lambda n: partial(_sincd, n.a, n.order) if n.order else partial(_sinc, n.a),
    Indicator: lambda n: lambda x: ((x >= n.a) & (x <= n.b)).astype(float),
}


def _order(root: Node) -> list[Node]:
    """The distinct nodes under root, each after its kids, left to right."""
    if root.walk is None:
        order, done, stack = [], set(), [(root, 0)]
        while stack:
            node, i = stack.pop()
            if i < len(node.kids):
                stack.append((node, i + 1))
                if node.kids[i] not in done:
                    stack.append((node.kids[i], 0))
            else:
                done.add(node)
                order.append(node)
        root.walk = order
    return root.walk


def _walk(root: Node, rule, memo: Optional[dict] = None):
    """root's value: rule(node, *its kids' values) over the distinct nodes
    under root, kids first, kept in memo.  A value may be an exception,
    which rules pass on; the root's is raised."""
    memo = {} if memo is None else memo
    for node in _order(root):
        memo[node] = rule(node, *map(memo.get, node.kids))
    if isinstance(memo[root], Exception):
        raise memo[root]
    return memo[root]


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_Tok = NamedTuple("_Tok", [("kind", str), ("text", str), ("pos", int)])  # kind: num | name | op

# ASCII numbers, names and operators; a character that starts none of them is
# an error.  `\s` keeps str.isspace's whitespace.
_TOKEN = re.compile(r"(?P<num>(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
                    r"|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^(),])|(?P<space>\s+)|.",
                    re.DOTALL)

_MAX_NEST = 50  # open parentheses or signs in a row; the parser recurses ~8 frames each
_MAX_NODES = 10_000  # distinct nodes of a source or a derivative: steps of its program
_BRIEF = 400  # characters of source a message prints


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


class _Parser:
    def __init__(self, src: str):
        # the tokens, the next one's index, and every node built so far with its subtree
        self.src, self.toks, self.i, self.nodes = src, _tokenize(src), 0, set()

    def _peek(self) -> Optional[_Tok]:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next(self) -> _Tok:
        if (tok := self._peek()) is None:
            raise ParseError("unexpected end of input", len(self.src))
        self.i += 1
        return tok

    def _accept(self, ops: str) -> Optional[_Tok]:
        """The next token, consumed, if it is one of the single-character ops."""
        if (tok := self._peek()) is None or tok.kind != "op" or tok.text not in ops:
            return None
        self.i += 1
        return tok

    def _expect(self, text: str):
        if (tok := self._next()).kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.pos)

    def _node(self, node: Node, tok: _Tok) -> Node:
        """node, built at tok; ParseError when the source has built more than
        _MAX_NODES distinct nodes, or node is a constant that is not finite."""
        todo = [node]
        while todo:
            if (n := todo.pop()) not in self.nodes:
                self.nodes.add(n)
                todo += n.kids
        if len(self.nodes) > _MAX_NODES:
            raise ParseError(f"the expression has more than {_MAX_NODES} distinct nodes", tok.pos)
        if node.const is not None and not math.isfinite(node.const):
            raise ParseError(f"this constant is {node.const!r}, not a finite float", tok.pos)
        return node

    def parse(self) -> Node:
        node = self._expr()
        if (tok := self._peek()) is not None:
            raise ParseError(f"trailing input {tok.text!r}", tok.pos)
        return node

    def _chain(self, ops: str, operand) -> Node:
        """Left-associative operand { op operand } for single-character ops."""
        node = operand()
        while (tok := self._accept(ops)) is not None:
            node = self._node(BinOp(tok.text, node, operand()), tok)
        return node

    def _expr(self) -> Node:
        return self._chain("+-", lambda: self._chain("*/", self._unary))

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
            return self._node(Num(float(tok.text)), tok)
        if tok.kind == "name":
            return _X if tok.text == "x" else self._node(self._call(tok), tok)
        if tok.kind == "op" and tok.text == "(":
            node = self._expr()
            self._expect(")")
            return node
        raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

    def _call(self, name_tok: _Tok) -> Node:
        name, pos = name_tok.text, name_tok.pos
        self._expect("(")
        args = [self._expr()]
        while self._accept(","):
            args.append(self._expr())
        self._expect(")")
        if name not in _PARAMS:
            raise ParseError(f"unknown identifier {name!r}", pos)
        if len(args) != len(_PARAMS[name].split(",")):
            raise ParseError(f"{name} takes ({_PARAMS[name]})", pos)
        if name in _CALLS:
            return Call(name, args[0])
        a, *b = consts = [arg.const for arg in args]
        if None in consts:
            raise ParseError("argument must be a constant expression", pos)
        if name == "indicator":
            if not a < b[0]:
                raise ParseError("indicator needs a < b", pos)
            return Indicator(a, b[0])
        if name == "sincd" and (b[0] != int(b[0]) or not 1 <= b[0] <= _SINCD_MAX):
            raise ParseError(f"sincd order must be an integer from 1 to {_SINCD_MAX}", pos)
        if a == 0.0:  # gauss(0) and sinc(0) are 1, sincd(0, n) is 0
            return _ZERO if b else _ONE
        if name == "gauss":
            return Call("exp", BinOp("*", BinOp("*", Num(-a), _X), _X))
        return SincD(a, int(b[0]) if b else 0)


# the parameters of each call; all but those of exp, sin, cos and abs are constants
_PARAMS = {**dict.fromkeys(_CALLS, "u"), "gauss": "a", "sinc": "a", "sincd": "a, order",
           "indicator": "a, b"}


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------
#
# A tree compiles once into a straight-line program, one step per distinct
# node with x, children first: the numpy operation a direct walk of the
# expanded tree makes, so the plain form matches that walk bit for bit (the
# outer form below does not).  Subtrees without x are folded when built, by
# the same operation on one-element arrays, as a float gives what an array
# of it gives.  A slot is reused after its last reader.

_ROWS = object()  # the rows argument of an outer form's steps, in slot 1 (x is in slot 0)


def _program(root: Node, special: dict):
    """root's program (steps, slots, out): a step (fn, a, b, o) sets slot o to
    fn(slot a), or fn(slot a, slot b) when b is not None; slots holds the
    constants.  special maps a node to its (fn, args) in place of _FN's."""
    order, need = _order(root), {root}
    for node in reversed(order):
        if node in need and node.const is None:
            need.update(special[node][1] if node in special else node.kids)
    ops = [(n, special.get(n) or (_FN[type(n)](n), n.kids or (_X,))) for n in order
           if n in need and n.const is None and n is not _X]
    last = {a: i for i, (_, (_, args)) in enumerate(ops) for a in args}
    last[root] = len(ops)
    slot, slots, free, steps = {_X: 0, _ROWS: 1}, [None, None], [], []
    for i, (node, (fn, args)) in enumerate(ops):
        for a in args:
            if a not in slot:  # a constant
                slot[a] = len(slots)
                slots.append(a.const)
        ins = [slot[a] for a in args]
        free += [slot[a] for a in dict.fromkeys(args) if last[a] == i and slots[slot[a]] is None]
        out = slot[node] = free.pop() if free else len(slots)
        if out == len(slots):
            slots.append(None)
        steps.append((fn, ins[0], ins[1] if len(ins) > 1 else None, out))
    return steps, slots, slot[root]


def _run(steps, slots, out, x, rows=None):
    s = slots.copy()
    s[0], s[1] = x, rows
    for fn, a, b, o in steps:
        s[o] = fn(s[a]) if b is None else fn(s[a], s[b])
    return s[out]


def compile_expr(node: Node):
    """node's program, a function of float arrays of at least 1 dimension."""
    if node.const is not None:
        return partial(np.full_like, fill_value=node.const, dtype=float)
    return partial(_run, *_program(node, {}))


def evaluate(node: Node, x) -> np.ndarray:
    """Compile node and evaluate it once at x."""
    return np.asarray(FuncExpr(node)(x))


# The outer form samples a tree at every x_i + t_j.  sin and cos of c*x + b
# go by the addition theorem, sin(u_i + v_j) = [sin u, cos u] @ [cos v; sin v]
# with u = c*x + b and v = c*t: 2(N + M) transcendentals and a rank-2 matmul,
# not N*M sines.  The exact rounding residuals e of u and v (TwoProduct and
# TwoSum; Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 2005) correct both
# factors to first order, sin(u + e) = sin u + e cos u, so the values are
# those at the exact x_i + t_j to about an ulp, where the plain form, which
# rounds x_i + t_j and c*(x_i + t_j), is off by about eps*|c*X|.  sinc(a) is
# that sine over a*X.  Where |c*X| < 4 the node's own program is as accurate
# (for sinc, more); every other step runs on X = x_i + t_j.

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
    compiled program is plain.  The factors of x and of t are kept per grid in
    `quad.kept` (by the grid's bytes and c's and b's bits; sinc shares sin's)."""
    def left_of(x):
        s, co = _sin_cos(c, b, x)
        return np.stack([co, -s] if kind == "cos" else [s, co], 1)

    def prep(x, t):
        left = kept((kind == "cos", _BITS(c), _BITS(b)), x, left_of)
        right = kept(_BITS(c), t, lambda t: np.stack(_sin_cos(c, 0.0, t)[::-1]))
        reach = 4.5 / abs(c)  # a row whose |x + t| stays beyond it holds no |c*X| < 4
        near = (x + t.max(initial=-np.inf) > -reach) & (x + t.min(initial=np.inf) < reach)

        def ev(rows, X):
            out = left[rows] @ right
            if kind == "sinc":
                with np.errstate(divide="ignore", invalid="ignore"):
                    np.divide(out, X if c == 1.0 else np.multiply(c, X), out=out)
            if (band := np.flatnonzero(near[rows])).size:  # from the first near row to the last
                run = slice(band[0], band[-1] + 1)
                small = np.abs(X[run] if c == 1.0 else np.multiply(c, X[run])) < 4.0
                out[run][small] = plain(X[run][small])
            return out
        return ev
    return prep


def _outer(root: Node):
    """root's outer form, (x, t) -> (rows -> values at x[rows] + t): its
    program with `_trig` steps for sinc(a) and sin and cos of c*x + b."""
    if root.const is not None:
        plain = compile_expr(root)
        return lambda x, t: lambda rows: plain(x[rows, None] + t)
    pieces, special = {}, {}
    _pieces(root, pieces)
    for n in pieces:
        if type(n) is SincD and n.order == 0:
            special[n] = _trig("sinc", n.a, 0.0, compile_expr(n)), (_ROWS, _X)
        elif (type(n) is Call and n.name in ("sin", "cos") and (arg := pieces[n.arg])
              and not arg[0] and len(p := arg[1][0]) == 2 and p[1] != 0.0):
            special[n] = _trig(n.name, float(p[1]), float(p[0]), compile_expr(n)), (_ROWS, _X)
    steps, slots, out = _program(root, special)
    preps = {fn for fn, _ in special.values()}

    def prep(x, t):
        run = partial(_run, [(fn(x, t), *rest) if fn in preps else (fn, *rest)
                             for fn, *rest in steps], slots, out)
        return lambda rows: run(x[rows, None] + t, rows)
    return prep


# ---------------------------------------------------------------------------
# Canonical printer
# ---------------------------------------------------------------------------

_SOURCE = {
    Num: lambda n: "0" if n.value == 0.0 else f"{n.value:.17g}",
    Var: lambda n: "x",
    BinOp: lambda n, l, r: f"(-{r})" if n.op == "*" and n.left is _MINUS_ONE
                           else f"({l} {n.op} {r})",
    # -2^2 reads as -(2^2)
    Pow: lambda n, b: f"({f'({b})' if type(n.base) is Num and n.base.value < 0.0 else b}"
                      f"^{n.exponent})",
    Call: lambda n, a: f"{n.name}({a})",
    SincD: lambda n: f"sincd({n.a:.17g}, {n.order})" if n.order else f"sinc({n.a:.17g})",
    Indicator: lambda n: f"indicator({n.a:.17g}, {n.b:.17g})",
}


def to_source(node: Node) -> str:
    """ASCII form with explicit parentheses around every binary operation."""
    return _walk(node, lambda n, *k: _SOURCE[type(n)](n, *k))


def _brief(node: Node) -> str:
    """node's source for a message if at most _BRIEF characters long, else its
    distinct-node count; the length is summed per node, a mark for each kid."""
    def length(n, *kids):
        text = _SOURCE[type(n)](n, *map(chr, range(len(kids))))
        return len(text) + sum(k - 1 for i, k in enumerate(kids) if chr(i) in text)
    return (to_source(node) if _walk(node, length) <= _BRIEF
            else f"an expression of {len(_order(node))} distinct nodes")


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def _op(op: str, left: Node, right: Node) -> Node:
    """BinOp(op, left, right) without its terms 0 and factors 1."""
    zl, zr = type(left) is Num and left.value == 0.0, type(right) is Num and right.value == 0.0
    if op == "*" and (zl or zr):
        return _ZERO
    if (op == "*" and left is _ONE) or (op == "+" and zl):
        return right
    if (op in "*/" and right is _ONE) or (op in "+-" and zr):
        return left
    if op == "-" and zl:
        return BinOp("*", _MINUS_ONE, right)
    return BinOp(op, left, right)


def _derivative(node: Node, *ds):
    """node's derivative from its kids' ds, so a shared subtree is
    differentiated once and its derivative is shared; a kid's exception, or
    NonDifferentiableError for abs and indicator outside a power 0."""
    if isinstance(node, Pow) and node.exponent == 0:
        return _ZERO  # whatever the base, rough or not
    if error := next((d for d in ds if isinstance(d, Exception)), None):
        return error
    if isinstance(node, (Num, Var)):
        return _ONE if node is _X else _ZERO
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _op(node.op, *ds)
        terms = _op("*", ds[0], node.right), _op("*", node.left, ds[1])
        if node.op == "*":
            return _op("+", *terms)
        return _op("/", _op("-", *terms), Pow(node.right, 2))
    if isinstance(node, Pow):
        n = node.exponent - 1
        power = node.base if n == 1 else Pow(node.base, n)
        return _op("*", _op("*", Num(float(node.exponent)), power), ds[0])
    if isinstance(node, Call):
        if node.name == "exp":
            return _op("*", node, ds[0])
        if node.name == "sin":
            return _op("*", Call("cos", node.arg), ds[0])
        if node.name == "cos":
            return _op("-", _ZERO, _op("*", Call("sin", node.arg), ds[0]))
        return NonDifferentiableError("abs(.) has no classical derivative at 0")
    if isinstance(node, SincD):
        return SincD(node.a, node.order + 1)
    return NonDifferentiableError("indicator(.,.) has no classical derivative")


# ---------------------------------------------------------------------------
# Decay classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decay:
    """Coarse tail behaviour used to pick integration windows.

    kind is one of "compact_support", "gaussian", "power", "nonvanishing"
    (|f| ~ c |x|^-alpha, c != 0, alpha <= 0), "none"; (a, b) bound the support
    when compact, alpha is the power-decay rate.
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


def _call_tail(n: Call, u: _Tail) -> _Tail:
    if n.const is not None:
        return _Tail(0.0, np.float64(n.const))
    if n.name == "abs":
        return u._replace(coef=abs(u.coef), odd=False)
    if n.name != "exp":
        return _Tail(0.0)
    if u.growth > 0 and u.coef < 0 and not u.odd:  # u -> -oo on both sides
        if u.growth == 2 and 64.0 * u.coef < -1.0:
            return _Tail(-math.inf)  # exp(c x^2) with c < -1/64
        return _Tail(0.0, np.float64(0.0))
    return _Tail(0.0 if u.growth <= 0 else math.inf)


# coefficients are numpy scalars, which overflow to inf instead of raising
_TAIL = {
    Num: lambda n: _Tail(0.0, np.float64(n.value)),
    Var: lambda n: _Tail(1.0, np.float64(1.0), odd=True),
    Indicator: lambda n: _Tail(-math.inf, support=(n.a, n.b)),
    SincD: lambda n: _Tail(-1.0),
    Pow: lambda n, b: _power_tail(b, n.exponent),
    Call: _call_tail,
    BinOp: lambda n, l, r: (_sum(l, r if n.op == "+" else r._replace(coef=-r.coef))
                            if n.op in "+-" else
                            _product(l, r if n.op == "*" else _power_tail(r, -1))),
}


def _tail(node: Node) -> _Tail:
    with np.errstate(all="ignore"):
        return _walk(node, lambda n, *k: _TAIL[type(n)](n, *k))


def classify_decay(node: Node, terms: Optional[tuple]) -> Decay:
    """The decay class read off the tree: compact support from indicator
    factors or a compactly supported piecewise polynomial (node's
    `truncated_powers` terms), Gaussian from exp(c x^2 + ...) with 64c < -1,
    as gauss(a) with a > 1/64, power decay from a negative growth bound,
    nonvanishing from a finite nonzero leading term c |x|^g, else none."""
    if terms:
        return Decay("compact_support", min(b for _, b, _ in terms), max(b for _, b, _ in terms))
    t = _tail(node)
    if t.support:
        return Decay("compact_support", *t.support)
    if t.growth == -math.inf:
        return Decay("gaussian")
    if t.growth < 0 or (math.isfinite(t.coef) and t.coef != 0.0):
        return Decay("power" if t.growth < 0 else "nonvanishing", alpha=-t.growth)
    return Decay("none")


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


def _piece(node: Node, *kids):
    """node's pieces from its kids' (see `_pieces`)."""
    if isinstance(node, Var):
        return [], [np.array([0.0, 1.0])]
    if isinstance(node, Indicator):
        knots = sorted({node.a, node.b})
        return knots, [np.array([float(node.a < x < node.b)]) for x in _insides(knots)]
    if isinstance(node, BinOp):
        l, r = kids
        if (node.op == "/" and node.right.const is None) or l is None or r is None:
            return None
        knots = sorted(set(l[0]) | set(r[0]))
        return knots, list(map(_POLY_OPS[node.op], _refine(*l, knots), _refine(*r, knots)))
    if node.const is not None:
        return [], [np.array([node.const])]
    if isinstance(node, Pow) and 0 <= node.exponent <= 16:
        return kids[0] and (kids[0][0], [P.polypow(q, node.exponent) for q in kids[0][1]])
    arg = kids[0] if isinstance(node, Call) and node.name == "abs" else None
    if arg is None or any(len(p) > 2 for p in arg[1]):
        return None
    ends = [-math.inf, *arg[0], math.inf]
    zeros = {float(-p[0] / p[1]) + 0.0 for lo, hi, p in zip(ends, ends[1:], arg[1])
             if len(p) == 2 and lo < -p[0] / p[1] < hi}  # + 0.0: no -0.0
    knots = sorted(set(arg[0]) | zeros)
    return knots, [-p if P.polyval(x, p) < 0.0 else p
                   for x, p in zip(_insides(knots), _refine(*arg, knots))]


def _pieces(root: Node, memo: Optional[dict] = None):
    """root as a piecewise polynomial: its sorted knots, and the polynomial,
    coefficients lowest first, that it equals on each interval they cut from
    the line; None outside the subset.  memo takes every node's."""
    with np.errstate(all="ignore"):  # coefficients overflow to inf, as (1e200*x)^2's do
        return _walk(root, _piece, memo)


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
    pieces = {}
    if any(type(n) is Call and n.name != "exp" for n in _order(node)):  # abs, sin or cos
        _pieces(node, pieces)

    def rule(n, *parts):
        if isinstance(n, SincD):
            return (), abs(n.a)
        if isinstance(n, Indicator):
            return tuple(sorted({n.a, n.b})), 0.0
        trig = isinstance(n, Call) and n.name in ("sin", "cos")
        if trig and (arg := pieces[n.arg]) and all(len(p) <= 2 for p in arg[1]):
            return tuple(arg[0]), max((abs(float(p[1])) for p in arg[1] if len(p) == 2),
                                      default=0.0)
        if isinstance(n, Call) and n.name == "abs":
            if pieces[n] is None:
                return ValueError(f"cannot locate the kinks of {_brief(n)}")
            return tuple(pieces[n][0]), 0.0
        if error := next((p for p in parts if isinstance(p, Exception)), None):
            return error
        freqs = [w for _, w in parts]
        # sin or cos of any other argument; the last child is the exp argument,
        # the divisor or the negative power's base
        if trig or (freqs and freqs[-1] and ((isinstance(n, Call) and n.name == "exp")
                                             or (isinstance(n, BinOp) and n.op == "/")
                                             or (isinstance(n, Pow) and n.exponent < 0))):
            return ValueError(f"cannot bound the frequency of {_brief(n)}")
        if isinstance(n, BinOp) and n.op == "*":
            freqs = [sum(freqs)]
        elif isinstance(n, Pow) and n.exponent >= 1:
            freqs = [n.exponent * freqs[0]]
        return tuple(sorted({b for p, _ in parts for b in p})), max(freqs, default=0.0)
    return _walk(node, rule)


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
        """Symbolic derivatives exist: no abs or indicator outside a power 0."""
        try:
            _walk(self.ast, _derivative)
        except NonDifferentiableError:
            return False
        return True

    @cached_property
    def _compiled(self):
        return compile_expr(self.ast)

    @property
    def constant(self) -> Optional[float]:
        """The value of an expression without x; None when x occurs."""
        return self.ast.const

    @cached_property
    def outer(self):
        """The outer form (see `_outer`): (x, t) -> (rows -> the values at
        every x_i + t_j, i in the slice rows), for 1-D x and t."""
        return _outer(self.ast)

    def __call__(self, x):
        a = np.asarray(x, dtype=float)
        out = self._compiled(a.reshape(1)).reshape(()) if a.ndim == 0 else self._compiled(a)
        return float(out) if np.isscalar(x) else out

    def __str__(self) -> str:
        return self.src


def parse(src: str) -> FuncExpr:
    """Parse a source string into a FuncExpr (canonical-printer round trip)."""
    return FuncExpr(_Parser(src).parse())


def differentiate(f: FuncExpr, order: int = 1) -> FuncExpr:
    """Exact symbolic derivative of the given order (order >= 1); ValueError
    when a derivative has more than _MAX_NODES distinct nodes or a sincd
    above order _SINCD_MAX."""
    if order < 1:
        raise ValueError("order must be >= 1")
    node = f.ast
    for k in range(1, order + 1):
        nodes = _order(node := _walk(node, _derivative))
        if len(nodes) > _MAX_NODES:
            raise ValueError(f"the derivative of order {k} has more than {_MAX_NODES} "
                             "distinct nodes")
        if any(type(n) is SincD and n.order > _SINCD_MAX for n in nodes):
            raise ValueError(f"the derivative of order {k} holds sincd above order {_SINCD_MAX}")
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
    t = _tail(node)
    if t.growth < 0:
        return 0.0
    if t.growth == 0 and math.isfinite(t.coef) and not (t.odd and t.coef):
        return float(t.coef)
    raise ExponentRangeError(f"{_brief(node)} has no limit at infinity")


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

    @cached_property
    def frequency(self) -> float:
        """The frequency bound of p's tree (`rough_spots`), nan where it has none."""
        try:
            return rough_spots(self.expr.ast)[1]
        except ValueError:
            return math.nan

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
