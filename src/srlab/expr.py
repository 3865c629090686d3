"""Small symbolic expression kernel for coordinate coefficient functions.

Expressions are immutable trees built from constants, coordinate variables
x0, x1, ..., negation, sums, products, quotients, integer powers and the
analytic functions sin, cos, exp.  Integer and ratio literals are kept as
exact rationals; everything else is float.  Evaluation is vectorized over
numpy arrays of points, differentiation is exact, and simplification only
does local rewrites (constant folding and unit/zero laws) -- deciding
whether two expressions are equal is always done by evaluation at sample
points, never structurally.
"""

import math
import re
from fractions import Fraction

import numpy as np


class ExprError(ValueError):
    """Base class for expression kernel errors."""


class ParseError(ExprError):
    """Syntax or arity problem in an expression string.

    Carries the character offset of the offending token in ``position``.
    """

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class EvalError(ExprError):
    """Evaluation failed (division by zero, overflow, bad point shape)."""


def _coerce(value):
    if isinstance(value, Expr):
        return value
    raise TypeError("cannot use %r in an expression" % (value,))


class Expr:
    """Base node.  Subclasses implement _ev, _diff and _render."""

    __slots__ = ()

    def __setattr__(self, *a):
        raise AttributeError("expressions are immutable")

    def __repr__(self):
        return "<%s %s>" % (type(self).__name__, render(self))


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        if isinstance(value, int):
            value = Fraction(value)
        if not isinstance(value, (Fraction, float)):
            raise TypeError("Const takes int, Fraction or float")
        object.__setattr__(self, "value", value)

    def _ev(self, pts):
        return float(self.value)

    def _diff(self, axis):
        return Const(Fraction(0))

    def _children(self):
        return ()


class Var(Expr):
    __slots__ = ("index",)

    def __init__(self, index):
        if not isinstance(index, int) or index < 0:
            raise ValueError("variable index must be a nonnegative int")
        object.__setattr__(self, "index", index)

    def _ev(self, pts):
        if self.index >= pts.shape[1]:
            raise EvalError(
                "variable x%d out of range for %d-dimensional point"
                % (self.index, pts.shape[1])
            )
        return pts[:, self.index]

    def _diff(self, axis):
        return Const(Fraction(1 if axis == self.index else 0))

    def _children(self):
        return ()


class _Unary(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg):
        object.__setattr__(self, "arg", _coerce(arg))

    def _children(self):
        return (self.arg,)


class _Binary(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        object.__setattr__(self, "left", _coerce(left))
        object.__setattr__(self, "right", _coerce(right))

    def _children(self):
        return (self.left, self.right)


class Neg(_Unary):
    __slots__ = ()

    def _ev(self, pts):
        return -self.arg._ev(pts)

    def _diff(self, axis):
        return Neg(self.arg._diff(axis))


class Add(_Binary):
    __slots__ = ()

    def _ev(self, pts):
        return self.left._ev(pts) + self.right._ev(pts)

    def _diff(self, axis):
        return Add(self.left._diff(axis), self.right._diff(axis))


class Mul(_Binary):
    __slots__ = ()

    def _ev(self, pts):
        return self.left._ev(pts) * self.right._ev(pts)

    def _diff(self, axis):
        return Add(
            Mul(self.left._diff(axis), self.right),
            Mul(self.left, self.right._diff(axis)),
        )


class Div(_Binary):
    __slots__ = ()

    def __init__(self, left, right):
        super().__init__(left, right)
        if isinstance(self.right, Const) and self.right.value == 0:
            raise ExprError("quotient by the literal zero constant")

    def _ev(self, pts):
        num = self.left._ev(pts)
        den = self.right._ev(pts)
        if np.any(den == 0.0):
            raise EvalError("division by zero in %s" % render(self))
        return num / den

    def _diff(self, axis):
        # (u/v)' = u'/v - u v'/v^2
        u, v = self.left, self.right
        return Add(
            Div(u._diff(axis), v),
            Neg(Div(Mul(u, v._diff(axis)), Pow(v, 2))),
        )


class Pow(Expr):
    """Integer power.  The exponent is a plain int, not a sub-expression."""

    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        if not isinstance(exponent, int):
            raise TypeError("exponent must be a Python int")
        object.__setattr__(self, "base", _coerce(base))
        object.__setattr__(self, "exponent", exponent)

    def _ev(self, pts):
        b = self.base._ev(pts)
        if self.exponent < 0 and np.any(b == 0.0):
            raise EvalError("zero raised to negative power in %s" % render(self))
        return b ** self.exponent

    def _diff(self, axis):
        n = self.exponent
        if n == 0:
            return Const(Fraction(0))
        return Mul(
            Mul(Const(Fraction(n)), Pow(self.base, n - 1)),
            self.base._diff(axis),
        )

    def _children(self):
        return (self.base,)


class _Function(_Unary):
    """An analytic function of one argument, f(arg).

    Subclasses give the function's ``name``, its numpy form ``_np`` and
    its ``math`` form ``_math``, and ``_outer``, the derivative f'(arg).
    """

    __slots__ = ()

    def _ev(self, pts):
        return self._np(self.arg._ev(pts))

    def _diff(self, axis):
        return Mul(self._outer(), self.arg._diff(axis))


class Sin(_Function):
    __slots__ = ()
    name, _np, _math = "sin", np.sin, math.sin

    def _outer(self):
        return Cos(self.arg)


class Cos(_Function):
    __slots__ = ()
    name, _np, _math = "cos", np.cos, math.cos

    def _outer(self):
        return Neg(Sin(self.arg))


class Exp(_Function):
    __slots__ = ()
    name, _np, _math = "exp", np.exp, math.exp

    def _outer(self):
        return Exp(self.arg)


# ---------------------------------------------------------------------------
# evaluation


def evaluate(expr, point):
    """Evaluate ``expr`` at one point (shape (m,)) or many (shape (n, m)).

    Returns a float for a single point and a float ndarray for a batch.
    Division by zero or a non-finite result raises EvalError.
    """
    pts = np.asarray(point, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts[None, :]
    if pts.ndim != 2:
        raise EvalError("point must have shape (m,) or (n, m)")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.broadcast_to(np.asarray(expr._ev(pts), dtype=float), (pts.shape[0],))
    if not np.all(np.isfinite(out)):
        raise EvalError("non-finite value while evaluating %s" % render(expr))
    if single:
        return float(out[0])
    return np.array(out)


def evaluate_array(exprs, point):
    """Evaluate a nested sequence of expressions at one point or a batch.

    Returns an array of shape point.shape[:-1] + shape(exprs) whose entries
    are evaluate(e, point) for the expressions e in ``exprs``.
    """
    pts = np.asarray(point, dtype=float)
    table = np.array(exprs, dtype=object)
    out = np.empty(pts.shape[:-1] + table.shape)
    for index, e in np.ndenumerate(table):
        out[(...,) + index] = evaluate(e, pts)
    return out


def variables(expr):
    """Set of coordinate indices appearing in ``expr``."""
    out = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.add(node.index)
        stack.extend(node._children())
    return out


def equivalent(e1, e2, dim):
    """Decide equality by evaluation at 30 random points of (-1, 1)^dim.

    The points are drawn with seed 0; the test is |a - b| <= 1e-9 *
    max(1, |a|, |b|) at every point.
    """
    pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(30, dim))
    a = evaluate(e1, pts)
    b = evaluate(e2, pts)
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return bool(np.all(np.abs(a - b) <= 1e-9 * scale))


# ---------------------------------------------------------------------------
# simplification


def _is_const(e, value=None):
    if not isinstance(e, Const):
        return False
    return value is None or e.value == value


def simplify(expr):
    """Constant folding plus the unit laws x+0, x*1, x*0 and --x.

    Works bottom-up in a single pass; equality of the results with the
    input is an evaluation property, not a structural one.
    """
    if isinstance(expr, (Const, Var)):
        return expr

    if isinstance(expr, Neg):
        a = simplify(expr.arg)
        if isinstance(a, Neg):
            return a.arg
        if isinstance(a, Const):
            return Const(-a.value)
        return Neg(a)

    if isinstance(expr, Add):
        l = simplify(expr.left)
        r = simplify(expr.right)
        if isinstance(l, Const) and isinstance(r, Const):
            return Const(l.value + r.value)
        if _is_const(l, 0):
            return r
        if _is_const(r, 0):
            return l
        return Add(l, r)

    if isinstance(expr, Mul):
        l = simplify(expr.left)
        r = simplify(expr.right)
        if isinstance(l, Const) and isinstance(r, Const):
            return Const(l.value * r.value)
        if _is_const(l, 0) or _is_const(r, 0):
            return Const(Fraction(0))
        if _is_const(l, 1):
            return r
        if _is_const(r, 1):
            return l
        return Mul(l, r)

    if isinstance(expr, Div):
        l = simplify(expr.left)
        r = simplify(expr.right)
        if isinstance(r, Const) and r.value != 0:
            if isinstance(l, Const):
                if isinstance(l.value, Fraction) and isinstance(r.value, Fraction):
                    return Const(l.value / r.value)
                return Const(float(l.value) / float(r.value))
            if r.value == 1:
                return l
        if _is_const(l, 0):
            return Const(Fraction(0))
        return Div(l, r)

    if isinstance(expr, Pow):
        b = simplify(expr.base)
        n = expr.exponent
        if n == 0:
            return Const(Fraction(1))
        if n == 1:
            return b
        if isinstance(b, Const) and (b.value != 0 or n > 0):
            return Const(b.value ** n)
        return Pow(b, n)

    if isinstance(expr, _Function):
        a = simplify(expr.arg)
        if isinstance(a, Const):
            return Const(expr._math(float(a.value)))
        return type(expr)(a)

    raise TypeError("unknown node %r" % (expr,))


def add_terms(terms):
    """simplify(t0 + t1 + ...), the sum folded left in the given order.

    No terms give ZERO.
    """
    total = None
    for t in terms:
        total = t if total is None else Add(total, t)
    return ZERO if total is None else simplify(total)


def differentiate(expr, axis):
    """Exact partial derivative with respect to coordinate ``axis``."""
    if not isinstance(axis, int) or axis < 0:
        raise ValueError("axis must be a nonnegative int")
    return simplify(expr._diff(axis))


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
""",
    re.VERBOSE,
)

_FUNCTIONS = {f.name: f for f in (Sin, Cos, Exp)}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, dim):
        self.tokens = _tokenize(text)
        self.i = 0
        self.dim = dim

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, text, pos = self.peek()
        if text != value:
            raise ParseError("expected %r, found %r" % (value, text or "end of input"), pos)
        return self.advance()

    def parse(self):
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected trailing input %r" % text, pos)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, text, pos = self.peek()
            if text == "+":
                self.advance()
                e = Add(e, self.term())
            elif text == "-":
                self.advance()
                e = Add(e, Neg(self.term()))
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, text, pos = self.peek()
            if text == "*":
                self.advance()
                e = Mul(e, self.factor())
            elif text == "/":
                self.advance()
                try:
                    e = Div(e, self.factor())
                except ExprError as err:
                    raise ParseError(str(err), pos)
            else:
                return e

    def factor(self):
        kind, text, pos = self.peek()
        if text == "-":
            self.advance()
            return Neg(self.factor())
        base = self.base()
        kind, text, pos = self.peek()
        if text == "^":
            self.advance()
            return Pow(base, self.integer())
        return base

    def integer(self):
        sign = 1
        kind, text, pos = self.peek()
        if text == "-":
            self.advance()
            sign = -1
            kind, text, pos = self.peek()
        if kind != "num" or not text.isdigit():
            raise ParseError("exponent must be an integer, found %r" % (text or "end of input"), pos)
        self.advance()
        return sign * int(text)

    def base(self):
        kind, text, pos = self.advance()
        if kind == "num":
            if text.isdigit():
                return Const(Fraction(int(text)))
            return Const(float(text))
        if kind == "name":
            if text in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return _FUNCTIONS[text](arg)
            m = re.fullmatch(r"x(\d+)", text)
            if m is None:
                raise ParseError("unknown identifier %r" % text, pos)
            index = int(m.group(1))
            if self.dim is not None and index >= self.dim:
                raise ParseError(
                    "variable x%d out of range for dimension %d" % (index, self.dim), pos
                )
            return Var(index)
        if text == "(":
            e = self.expr()
            self.expect(")")
            return e
        raise ParseError("unexpected token %r" % (text or "end of input"), pos)


def parse(text, dim=None):
    """Parse an expression string.

    Grammar: sums of terms, terms of factors with * and /, factors are an
    optional unary minus followed by a base with an optional integer power
    ``^n``; bases are numbers, variables ``x<i>``, parenthesized
    expressions, or sin/cos/exp calls.  ``dim``, when given, bounds the
    variable indices.
    """
    if not isinstance(text, str):
        raise TypeError("parse expects a string")
    return _Parser(text, dim).parse()


# ---------------------------------------------------------------------------
# rendering

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _render(e):
    """Return (text, precedence)."""
    if isinstance(e, Const):
        v = e.value
        if isinstance(v, Fraction):
            if v.denominator == 1:
                text = str(v.numerator)
            else:
                text = "%d/%d" % (v.numerator, v.denominator)
            return text, (_PREC_ATOM if v >= 0 and v.denominator == 1 else _PREC_MUL if v >= 0 else _PREC_UNARY - 1)
        text = repr(v)
        return text, (_PREC_ATOM if v >= 0 else _PREC_UNARY - 1)
    if isinstance(e, Var):
        return "x%d" % e.index, _PREC_ATOM
    if isinstance(e, Neg):
        inner, prec = _render(e.arg)
        if prec < _PREC_UNARY:
            inner = "(" + inner + ")"
        return "-" + inner, _PREC_UNARY - 1
    if isinstance(e, Add):
        lt, lp = _render(e.left)
        if lp < _PREC_ADD:
            lt = "(" + lt + ")"
        if isinstance(e.right, Neg):
            rt, rp = _render(e.right.arg)
            if rp <= _PREC_ADD:
                rt = "(" + rt + ")"
            return "%s - %s" % (lt, rt), _PREC_ADD
        rt, rp = _render(e.right)
        if rp <= _PREC_ADD:
            rt = "(" + rt + ")"
        return "%s + %s" % (lt, rt), _PREC_ADD
    if isinstance(e, Mul):
        lt, lp = _render(e.left)
        if lp < _PREC_MUL:
            lt = "(" + lt + ")"
        rt, rp = _render(e.right)
        if rp <= _PREC_MUL:
            rt = "(" + rt + ")"
        return "%s*%s" % (lt, rt), _PREC_MUL
    if isinstance(e, Div):
        lt, lp = _render(e.left)
        if lp < _PREC_MUL:
            lt = "(" + lt + ")"
        rt, rp = _render(e.right)
        if rp <= _PREC_MUL:
            rt = "(" + rt + ")"
        return "%s/%s" % (lt, rt), _PREC_MUL
    if isinstance(e, Pow):
        bt, bp = _render(e.base)
        if bp < _PREC_ATOM:
            bt = "(" + bt + ")"
        return "%s^%d" % (bt, e.exponent), _PREC_POW
    if isinstance(e, _Function):
        return "%s(%s)" % (e.name, _render(e.arg)[0]), _PREC_ATOM
    raise TypeError("unknown node %r" % (e,))


def render(expr):
    """Render to a string that parses back to an evaluation-equivalent tree."""
    return _render(expr)[0]


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
