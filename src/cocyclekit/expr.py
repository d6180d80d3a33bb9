"""Expression trees for holomorphic maps: constants, z1..zn, arithmetic, exp, log.

Constants are exact complex rationals; simplification is constant folding and
sum/product flattening only, so a structurally zero derivative stays the
literal zero node.

Expressions are DAGs: substitute and differentiate share subtrees by reference
rather than copying them, and every walk goes over distinct nodes once.

- differentiate keeps each node's derivative by each variable on the node
  (Expr.derivative), so a subtree shared by many parents is differentiated
  once, and second derivatives reuse the first ones' nodes.
- substitute rebuilds each distinct node once per memo (by identity), so the
  sharing of its input survives composition.
- max_var is computed once per node.
- Program compiles a list of expressions into one straight-line program over
  their distinct nodes: each node is evaluated once per cloud, and its value
  is dropped after its last reader.

These memos live on nodes and programs, so they go with the maps that hold
them; none is keyed by structure or kept at module level. The README
("Evaluation on clouds") gives the node, derivative and compile counts they
save.
"""

import functools
import operator
from fractions import Fraction

import numpy as np

from .errors import DomainError, DslSyntaxError, ValidationError


_Q0 = Fraction(0)


class CRat:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=_Q0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def __add__(self, o):
        return CRat(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return CRat(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        if not (self.im or o.im):  # real constants, by far the most common
            return CRat(self.re * o.re)
        return CRat(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero constant")
        return CRat((self.re * o.re + self.im * o.im) / d,
                    (self.im * o.re - self.re * o.im) / d)

    def __neg__(self):
        return CRat(-self.re, -self.im)

    def __eq__(self, o):
        return isinstance(o, CRat) and self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self):
        return not (self.re or self.im)

    def to_complex(self):
        return complex(self.re, self.im)

    def __repr__(self):
        return "CRat(%s, %s)" % (self.re, self.im)


ZERO = CRat(0)
ONE = CRat(1)


class Expr:
    """Base node; subclasses define emit/diff/children.

    Nodes are never changed after construction and are shared by reference:
    substitute keeps the subtrees shared in its input shared in its output, and
    a derivative reuses the subtrees of what it differentiates. So a composite
    map's components form a DAG. What depends only on a node is computed once
    and kept on it: its derivative by each variable (_derivs, see derivative)
    and its highest variable index (_max_var).
    """

    _derivs = None
    _max_var = None

    def eval(self, point):
        """Value at one point: a one-row run of the compiled program."""
        row = np.asarray(point, dtype=complex).reshape(1, -1)
        return complex(Program([self])(row)[0, 0])

    def emit(self, program):
        """Append the steps computing this node to `program`; the slot of its value."""
        raise NotImplementedError

    def diff(self, var):
        """The derivative rule of this node; children are differentiated through derivative."""
        raise NotImplementedError

    def derivative(self, var):
        """d/dz_var, built by diff once per node and variable and kept on the node."""
        derivs = self._derivs
        if derivs is None:
            derivs = self._derivs = {}
        d = derivs.get(var)
        if d is None:
            d = derivs[var] = self.diff(var)
        return d

    def max_var(self):
        m = self._max_var
        if m is None:
            m = self._max_var = max((c.max_var() for c in self.children()), default=0)
        return m

    def children(self):
        return ()

    def __eq__(self, other):
        return type(self) is type(other) and self.key() == other.key()

    def __hash__(self):
        return hash((type(self).__name__, self.key()))

    def key(self):
        return self.children()

    def __repr__(self):
        return to_text(self)


class Const(Expr):
    def __init__(self, value):
        self.value = value if isinstance(value, CRat) else CRat(value)

    def emit(self, program):
        return program.constant(self.value.to_complex())

    def diff(self, var):
        return Const(ZERO)

    def key(self):
        return (self.value,)

    def is_zero(self):
        return self.value.is_zero()


class Var(Expr):
    def __init__(self, index):
        self.index = int(index)
        if self.index < 1:
            raise ValidationError("variable index must be >= 1")

    def emit(self, program):
        return program.column(self.index - 1)

    def diff(self, var):
        return Const(ONE if self.index == var else ZERO)

    def max_var(self):
        return self.index

    def key(self):
        return (self.index,)


class Add(Expr):
    def __init__(self, terms):
        self.terms = tuple(terms)

    def children(self):
        return self.terms

    def emit(self, program):
        return program.step(_sum, [program.value(t) for t in self.terms])

    def diff(self, var):
        return add(*[t.derivative(var) for t in self.terms])


class Mul(Expr):
    def __init__(self, factors):
        self.factors = tuple(factors)

    def children(self):
        return self.factors

    def emit(self, program):
        return program.step(_product, [program.value(f) for f in self.factors])

    def diff(self, var):
        terms = []
        for i, f in enumerate(self.factors):
            df = f.derivative(var)
            if not is_zero_expr(df):
                terms.append(mul(*(self.factors[:i] + (df,) + self.factors[i + 1:])))
        return add(*terms)


class Div(Expr):
    def __init__(self, num, den):
        self.num = num
        self.den = den

    def children(self):
        return (self.num, self.den)

    def emit(self, program):
        # the denominator is computed and checked before the numerator
        den = program.nonzero(self.den, "denominator vanished at %r")
        return program.step(operator.truediv, [program.value(self.num), den])

    def diff(self, var):
        return div(add(mul(self.num.derivative(var), self.den),
                       neg(mul(self.num, self.den.derivative(var)))),
                   pow_(self.den, 2))


class Pow(Expr):
    """Integer power; negative exponents allowed away from zeros of the base."""

    def __init__(self, base, exponent):
        self.base = base
        self.exponent = int(exponent)

    def children(self):
        return (self.base,)

    def key(self):
        return (self.base, self.exponent)

    def emit(self, program):
        e = self.exponent
        base = (program.nonzero(self.base, "negative power of ~0 at %r") if e < 0
                else program.value(self.base))
        return program.step(lambda b: b ** e, [base])

    def diff(self, var):
        if self.exponent == 0:
            return Const(ZERO)
        return mul(Const(CRat(self.exponent)), pow_(self.base, self.exponent - 1),
                   self.base.derivative(var))


class Exp(Expr):
    def __init__(self, arg):
        self.arg = arg

    def children(self):
        return (self.arg,)

    def emit(self, program):
        return program.step(np.exp, [program.value(self.arg)])

    def diff(self, var):
        return mul(Exp(self.arg), self.arg.derivative(var))


class Log(Expr):
    """Principal branch; branch cuts are the scenario author's problem."""

    def __init__(self, arg):
        self.arg = arg

    def children(self):
        return (self.arg,)

    def emit(self, program):
        return program.step(np.log, [program.nonzero(self.arg, "log of ~0 at %r")])

    def diff(self, var):
        return div(self.arg.derivative(var), self.arg)


def _sum(first, *rest):
    """first + rest[0] + ..., left to right."""
    for r in rest:
        first = first + r
    return first


def _product(first, *rest):
    """first * rest[0] * ..., left to right; never in place, since numpy's in-place
    complex multiply can round differently."""
    for r in rest:
        first = first * r
    return first


class _Vanished(Exception):
    """A nonzero check failed; the program names the point (see Program.__call__)."""

    def __init__(self, message, bad):
        super().__init__(message)
        self.message, self.bad = message, bad


def _nonzero(message, v):
    bad = np.abs(v) < 1e-300
    if bad.any():
        raise _Vanished(message, bad)
    return v


class Program:
    """A list of expressions compiled once into one array function over clouds.

    Program(exprs)(points) maps (N, n) points to the (N, len(exprs)) values,
    the i-th coordinate column standing for z_{i+1}. It is a straight-line
    program: building it visits the entries in order and each entry's DAG in
    first-visit post-order, children in the order a node computes them, and
    emits one step per distinct node (by identity) and one per entry that
    stores its value. Steps read and write numbered slots, and a slot is
    dropped right after its last reader, so a value shared by several parents
    is computed once per run and held no longer than it is needed.

    Constants become complex here, once. Literal-zero entries are never
    evaluated, so they stay exactly zero. Near-zero denominators,
    negative-power bases and log arguments raise DomainError naming the first
    offending point; each is checked where the node computing it would check
    it, so the point is the one a walk of the tree would name.
    """

    def __init__(self, exprs):
        self.size = len(exprs)
        self.slots = 0
        self.constants = []  # (slot, complex value), preset on every run
        self.columns = {}    # coordinate index -> slot, preset on every run
        self.steps = []      # (function, argument slots, result slot or entry index)
        self._values = {}    # id(node) -> slot
        self._checked = set()
        for j, e in enumerate(exprs):
            if not is_zero_expr(e):
                self.steps.append((None, (self.value(e),), j))
        last = {}
        for i, (_, args, _) in enumerate(self.steps):
            for a in args:
                last[a] = i
        self.steps = [(fn, args, dest, tuple({a for a in args if last[a] == i}))
                      for i, (fn, args, dest) in enumerate(self.steps)]
        del self._values, self._checked

    def _slot(self):
        self.slots += 1
        return self.slots - 1

    def value(self, e):
        """Slot of e's value, emitting e's steps on its first visit."""
        slot = self._values.get(id(e))
        if slot is None:
            slot = self._values[id(e)] = e.emit(self)
        return slot

    def nonzero(self, e, message):
        """Slot of e's value, checked nonzero at every point once in the program."""
        slot = self.value(e)
        if slot not in self._checked:
            self._checked.add(slot)
            self.steps.append((functools.partial(_nonzero, message), (slot,), slot))
        return slot

    def constant(self, c):
        slot = self._slot()
        self.constants.append((slot, c))
        return slot

    def column(self, i):
        slot = self.columns.get(i)
        if slot is None:
            slot = self.columns[i] = self._slot()
        return slot

    def step(self, fn, args):
        """Slot of fn(*values of args), appended as one step."""
        slot = self._slot()
        self.steps.append((fn, tuple(args), slot))
        return slot

    def __call__(self, points):
        cols = np.ascontiguousarray(points.T)
        out = np.zeros((len(points), self.size), dtype=complex)
        slots = [None] * self.slots
        for slot, c in self.constants:
            slots[slot] = c
        for i, slot in self.columns.items():
            slots[slot] = cols[i]
        try:
            for fn, args, dest, dead in self.steps:
                if fn is None:
                    out[:, dest] = slots[args[0]]
                else:
                    slots[dest] = fn(*[slots[a] for a in args])
                for a in dead:
                    slots[a] = None
        except _Vanished as err:
            i = int(np.argmax(np.broadcast_to(err.bad, np.shape(cols[0]))))
            raise DomainError(err.message % (tuple(complex(c[i]) for c in cols),)) from None
        return out


# Folding constructors. All algebraic construction goes through these so that
# constant subtrees collapse and sums/products stay flat. Zero and one constants
# are skipped rather than folded: the tree built is the same, without the
# exact-rational arithmetic.

def add(*terms):
    flat = []
    const = ZERO
    for t in terms:
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    rest = []
    for t in flat:
        if isinstance(t, Const):
            if not t.value.is_zero():
                const = const + t.value
        else:
            rest.append(t)
    if not const.is_zero() or not rest:
        rest.append(Const(const))
    if len(rest) == 1:
        return rest[0]
    return Add(rest)


def mul(*factors):
    flat = []
    const = ONE
    for f in factors:
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    rest = []
    for f in flat:
        if isinstance(f, Const):
            if f.value.is_zero():
                return Const(ZERO)
            if f.value != ONE:
                const = const * f.value
        else:
            rest.append(f)
    if const != ONE or not rest:
        rest.insert(0, Const(const))
    if len(rest) == 1:
        return rest[0]
    return Mul(rest)


def neg(e):
    return mul(Const(CRat(-1)), e)


def sub(a, b):
    return add(a, neg(b))


def div(num, den):
    if isinstance(num, Const) and isinstance(den, Const):
        try:
            return Const(num.value / den.value)
        except ZeroDivisionError:
            raise ValidationError("division by a zero constant") from None
    if isinstance(num, Const) and num.is_zero():
        return Const(ZERO)
    if isinstance(den, Const) and den.value == ONE:
        return num
    return Div(num, den)


def pow_(base, exponent):
    exponent = int(exponent)
    if exponent == 0:
        return Const(ONE)
    if exponent == 1:
        return base
    if isinstance(base, Const):
        if exponent > 0:
            v = ONE
            for _ in range(exponent):
                v = v * base.value
            return Const(v)
        v = ONE
        for _ in range(-exponent):
            v = v * base.value
        return Const(ONE / v)
    return Pow(base, exponent)


def exp(arg):
    return Exp(arg)


def log(arg):
    return Log(arg)


def differentiate(e, var):
    """Exact partial derivative of e with respect to z_var, kept on e (Expr.derivative)."""
    if var < 1:
        raise ValidationError("variable index must be >= 1")
    return e.derivative(var)


def substitute(e, replacements, memo=None):
    """Replace Var(j) by replacements[j-1], rebuilding through the folding constructors.

    Each distinct node is rebuilt once, memoized by identity in `memo`, so
    subtrees shared in e stay shared in the result. The memo is made per call
    unless the caller passes one for several calls with the same replacements:
    compose passes one for all components of a map, whose subtrees are shared
    between components too.
    """
    memo = {} if memo is None else memo

    def sub(e):
        out = memo.get(id(e))
        if out is None:
            out = memo[id(e)] = rebuild(e)
        return out

    def rebuild(e):
        if isinstance(e, Var):
            if e.index > len(replacements):
                raise ValidationError("no replacement for z%d" % e.index)
            return replacements[e.index - 1]
        if isinstance(e, Const):
            return e
        if isinstance(e, Add):
            return add(*[sub(t) for t in e.terms])
        if isinstance(e, Mul):
            return mul(*[sub(f) for f in e.factors])
        if isinstance(e, Div):
            return div(sub(e.num), sub(e.den))
        if isinstance(e, Pow):
            return pow_(sub(e.base), e.exponent)
        if isinstance(e, Exp):
            return exp(sub(e.arg))
        if isinstance(e, Log):
            return log(sub(e.arg))
        raise TypeError("unknown node %r" % (e,))

    return sub(e)


def is_zero_expr(e):
    return isinstance(e, Const) and e.is_zero()


# ---------------------------------------------------------------------------
# printing

def _const_text(v):
    def rat(q):
        return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)

    if v.im == 0:
        s = rat(v.re)
        return s if v.re >= 0 else "(%s)" % s
    if v.re == 0:
        return "(%s*i)" % rat(v.im)
    return "(%s%s%s*i)" % (rat(v.re), "+" if v.im >= 0 else "-", rat(abs(v.im)))


def to_text(e):
    """Parseable rendering; parse(to_text(e)) evaluates identically to e."""
    if isinstance(e, Const):
        return _const_text(e.value)
    if isinstance(e, Var):
        return "z%d" % e.index
    if isinstance(e, Add):
        return "(" + " + ".join(to_text(t) for t in e.terms) + ")"
    if isinstance(e, Mul):
        return "(" + " * ".join(to_text(f) for f in e.factors) + ")"
    if isinstance(e, Div):
        return "(%s / %s)" % (to_text(e.num), to_text(e.den))
    if isinstance(e, Pow):
        return "(%s^%d)" % (to_text(e.base), e.exponent)
    if isinstance(e, Exp):
        return "exp(%s)" % to_text(e.arg)
    if isinstance(e, Log):
        return "log(%s)" % to_text(e.arg)
    raise TypeError("unknown node %r" % (e,))


# ---------------------------------------------------------------------------
# parsing

class _Tokenizer:
    SYMBOLS = ("+", "-", "*", "/", "^", "(", ")")

    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.tokens = []
        self._scan()
        self.idx = 0

    def _scan(self):
        t = self.text
        i = 0
        while i < len(t):
            ch = t[i]
            if ch.isspace():
                i += 1
                continue
            if ch in self.SYMBOLS:
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            if ch.isdigit() or (ch == "." and i + 1 < len(t) and t[i + 1].isdigit()):
                j = i
                while j < len(t) and (t[j].isdigit() or t[j] == "."):
                    j += 1
                lit = t[i:j]
                if lit.count(".") > 1:
                    raise DslSyntaxError("malformed number %r" % lit, i)
                self.tokens.append(("num", lit, i))
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(t) and (t[j].isalnum() or t[j] == "_"):
                    j += 1
                self.tokens.append(("name", t[i:j], i))
                i = j
                continue
            raise DslSyntaxError("unexpected character %r" % ch, i)
        self.tokens.append(("end", "", len(t)))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok


class Parser:
    """Recursive descent over: sum -> term -> unary -> power -> atom."""

    def __init__(self, text, n_vars, constants=None):
        self.tk = _Tokenizer(text)
        self.n_vars = n_vars
        self.constants = constants or {}

    def parse(self):
        e = self._sum()
        kind, val, off = self.tk.peek()
        if kind != "end":
            raise DslSyntaxError("unexpected token %r" % val, off)
        return e

    def _sum(self):
        e = self._term()
        while True:
            kind, val, off = self.tk.peek()
            if val == "+":
                self.tk.next()
                e = add(e, self._term())
            elif val == "-":
                self.tk.next()
                e = sub(e, self._term())
            else:
                return e

    def _term(self):
        e = self._unary()
        while True:
            kind, val, off = self.tk.peek()
            if val == "*":
                self.tk.next()
                e = mul(e, self._unary())
            elif val == "/":
                self.tk.next()
                e = div(e, self._unary())
            else:
                return e

    def _unary(self):
        kind, val, off = self.tk.peek()
        if val == "-":
            self.tk.next()
            return neg(self._unary())
        if val == "+":
            self.tk.next()
            return self._unary()
        return self._power()

    def _power(self):
        base = self._atom()
        kind, val, off = self.tk.peek()
        if val == "^":
            self.tk.next()
            sign = 1
            kind, val, off = self.tk.peek()
            if val == "-":
                self.tk.next()
                sign = -1
            kind, val, off = self.tk.next()
            if kind != "num" or "." in val:
                raise DslSyntaxError("exponent must be an integer", off)
            return pow_(base, sign * int(val))
        return base

    def _atom(self):
        kind, val, off = self.tk.next()
        if val == "(":
            e = self._sum()
            kind2, val2, off2 = self.tk.next()
            if val2 != ")":
                raise DslSyntaxError("expected ')'", off2)
            return e
        if kind == "num":
            return Const(CRat(Fraction(val)))
        if kind == "name":
            if val in ("exp", "log"):
                kind2, val2, off2 = self.tk.next()
                if val2 != "(":
                    raise DslSyntaxError("expected '(' after %s" % val, off2)
                arg = self._sum()
                kind3, val3, off3 = self.tk.next()
                if val3 != ")":
                    raise DslSyntaxError("expected ')'", off3)
                return exp(arg) if val == "exp" else log(arg)
            if val == "i":
                return Const(CRat(0, 1))
            if val.startswith("z") and val[1:].isdigit():
                idx = int(val[1:])
                if idx < 1 or idx > self.n_vars:
                    raise DslSyntaxError(
                        "coordinate %s out of range for dimension %d" % (val, self.n_vars), off)
                return Var(idx)
            if val in self.constants:
                return Const(self.constants[val])
            raise DslSyntaxError("unknown name %r" % val, off)
        raise DslSyntaxError("unexpected token %r" % (val or "end of input"), off)


def parse_expr(text, n_vars, constants=None):
    return Parser(text, n_vars, constants).parse()
