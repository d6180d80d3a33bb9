"""Expression trees for holomorphic maps: constants, z1..zn, arithmetic, exp, log.

Constants are exact complex rationals; simplification is constant folding and
sum/product flattening only, so a structurally zero derivative stays the
literal zero node. Numeric evaluation goes through compile_expr, which turns a
tree into one array function over whole coordinate columns.
"""

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
    """Base node; subclasses define compile/diff/children."""

    def eval(self, point):
        """Value at one point: a one-row view of the compiled array function."""
        cols = np.asarray(point, dtype=complex).reshape(-1, 1)
        return complex(np.asarray(compile_expr(self)(cols)).reshape(-1)[0])

    def compile(self, memo):
        """Array function cols -> values; cols[i] holds z_{i+1} over the cloud."""
        raise NotImplementedError

    def diff(self, var):
        raise NotImplementedError

    def max_var(self):
        return max((c.max_var() for c in self.children()), default=0)

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

    def compile(self, memo):
        c = self.value.to_complex()
        return lambda cols: c

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

    def compile(self, memo):
        i = self.index - 1
        return lambda cols: cols[i]

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

    def compile(self, memo):
        first, *rest = [compile_expr(t, memo) for t in self.terms]

        def run(cols):
            v = first(cols)
            for f in rest:
                v = v + f(cols)
            return v

        return run

    def diff(self, var):
        return add(*[t.diff(var) for t in self.terms])


class Mul(Expr):
    def __init__(self, factors):
        self.factors = tuple(factors)

    def children(self):
        return self.factors

    def compile(self, memo):
        first, *rest = [compile_expr(f, memo) for f in self.factors]

        def run(cols):
            v = first(cols)
            for f in rest:
                v = v * f(cols)
            return v

        return run

    def diff(self, var):
        terms = []
        for i, f in enumerate(self.factors):
            df = f.diff(var)
            if not is_zero_expr(df):
                terms.append(mul(*(self.factors[:i] + (df,) + self.factors[i + 1:])))
        return add(*terms)


class Div(Expr):
    def __init__(self, num, den):
        self.num = num
        self.den = den

    def children(self):
        return (self.num, self.den)

    def compile(self, memo):
        num, den = compile_expr(self.num, memo), compile_expr(self.den, memo)

        def run(cols):
            d = den(cols)
            _guard(np.abs(d) < 1e-300, cols, "denominator vanished at %r")
            return num(cols) / d

        return run

    def diff(self, var):
        return div(add(mul(self.num.diff(var), self.den),
                       neg(mul(self.num, self.den.diff(var)))),
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

    def compile(self, memo):
        base, e = compile_expr(self.base, memo), self.exponent

        def run(cols):
            b = base(cols)
            if e < 0:
                _guard(np.abs(b) < 1e-300, cols, "negative power of ~0 at %r")
            return b ** e

        return run

    def diff(self, var):
        if self.exponent == 0:
            return Const(ZERO)
        return mul(Const(CRat(self.exponent)), pow_(self.base, self.exponent - 1),
                   self.base.diff(var))


class Exp(Expr):
    def __init__(self, arg):
        self.arg = arg

    def children(self):
        return (self.arg,)

    def compile(self, memo):
        arg = compile_expr(self.arg, memo)
        return lambda cols: np.exp(arg(cols))

    def diff(self, var):
        return mul(Exp(self.arg), self.arg.diff(var))


class Log(Expr):
    """Principal branch; branch cuts are the scenario author's problem."""

    def __init__(self, arg):
        self.arg = arg

    def children(self):
        return (self.arg,)

    def compile(self, memo):
        arg = compile_expr(self.arg, memo)

        def run(cols):
            v = arg(cols)
            _guard(np.abs(v) < 1e-300, cols, "log of ~0 at %r")
            return np.log(v)

        return run

    def diff(self, var):
        return div(self.arg.diff(var), self.arg)


def compile_expr(e, memo=None):
    """Compile e once into an array function over coordinate columns.

    The function takes cols, a sequence whose i-th entry holds z_{i+1} at every
    point of a cloud, and returns the values at all points (a plain complex
    when e is constant; it broadcasts wherever it is stored). Constants become
    complex here, once. Subtrees shared by reference compile once through
    memo. Near-zero denominators, negative-power bases and log arguments raise
    DomainError naming the first offending point.
    """
    memo = {} if memo is None else memo
    fn = memo.get(id(e))
    if fn is None:
        fn = memo[id(e)] = e.compile(memo)
    return fn


def _guard(bad, cols, message):
    if bad.any():
        i = int(np.argmax(np.broadcast_to(bad, np.shape(cols[0]))))
        raise DomainError(message % (tuple(complex(c[i]) for c in cols),))


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
    """Exact partial derivative of e with respect to z_var."""
    if var < 1:
        raise ValidationError("variable index must be >= 1")
    return e.diff(var)


def substitute(e, replacements):
    """Replace Var(j) by replacements[j-1], rebuilding through the folding constructors."""
    if isinstance(e, Var):
        if e.index > len(replacements):
            raise ValidationError("no replacement for z%d" % e.index)
        return replacements[e.index - 1]
    if isinstance(e, Const):
        return e
    if isinstance(e, Add):
        return add(*[substitute(t, replacements) for t in e.terms])
    if isinstance(e, Mul):
        return mul(*[substitute(f, replacements) for f in e.factors])
    if isinstance(e, Div):
        return div(substitute(e.num, replacements), substitute(e.den, replacements))
    if isinstance(e, Pow):
        return pow_(substitute(e.base, replacements), e.exponent)
    if isinstance(e, Exp):
        return exp(substitute(e.arg, replacements))
    if isinstance(e, Log):
        return log(substitute(e.arg, replacements))
    raise TypeError("unknown node %r" % (e,))


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
