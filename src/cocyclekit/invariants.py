"""Exact-rational algebra of GL-invariant multi-trace maps and symmetric functions.

Coefficients are fractions.Fraction throughout; matrices only ever enter as
numeric (complex) inputs at evaluation time.
"""

import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np

from .errors import ValidationError

POWER = "power"
ELEMENTARY = "elementary"


def as_partition(parts):
    """Canonicalize to a nonincreasing tuple of positive ints."""
    p = tuple(sorted((int(x) for x in parts), reverse=True))
    if any(x < 1 for x in p):
        raise ValidationError("partition parts must be >= 1, got %r" % (parts,))
    return p


def weight(partition):
    return sum(partition)


def _check_mats(k, mats):
    if len(mats) != k:
        raise ValidationError("expected %d matrices, got %d" % (k, len(mats)))
    arrs = [np.asarray(m, dtype=complex) for m in mats]
    shape = arrs[0].shape
    if len(shape) < 2 or shape[-1] != shape[-2]:
        raise ValidationError("expected square matrices or (..., n, n) stacks, got %r" % (shape,))
    for a in arrs:
        if a.shape != shape:
            raise ValidationError("matrices must share a square shape, got %r" % (a.shape,))
    return arrs


class InvariantMap:
    """Linear combination of symmetrized multi-trace maps on k matrices.

    Terms are keyed by partitions of k (the multiset of trace-block sizes);
    each key stands for the symmetrized map that averages the corresponding
    product of traces over all assignments of the k inputs. The block
    assignments of a partition are enumerated once, on first evaluation, and
    kept (_arrangements).
    """

    def __init__(self, arity, terms):
        self.arity = int(arity)
        if self.arity < 1:
            raise ValidationError("arity must be >= 1")
        self.terms = {}
        for part, coeff in terms.items():
            part = as_partition(part)
            coeff = Fraction(coeff)
            if weight(part) != self.arity:
                raise ValidationError(
                    "partition %r has weight %d, arity is %d" % (part, weight(part), self.arity))
            if coeff != 0:
                self.terms[part] = self.terms.get(part, Fraction(0)) + coeff
        self.terms = {p: c for p, c in self.terms.items() if c != 0}
        self._arrangements = {}

    def arrangements(self, partition):
        """The _cyclic_arrangements of the k inputs into blocks of `partition`, as a tuple."""
        out = self._arrangements.get(partition)
        if out is None:
            out = self._arrangements[partition] = tuple(
                _cyclic_arrangements(tuple(range(self.arity)), list(partition)))
        return out

    def __repr__(self):
        return "InvariantMap(arity=%d, terms=%r)" % (self.arity, self.terms)

    def __eq__(self, other):
        return (isinstance(other, InvariantMap)
                and self.arity == other.arity and self.terms == other.terms)


def _sym_term_value(arrangements, mats, traces=None):
    """Value of the symmetrized multi-trace map for one partition key.

    The map depends only on which inputs land in which trace and their cyclic
    order, so it averages over the block assignments of the partition
    (InvariantMap.arrangements) instead of all k! input orders. Inputs may be
    single matrices or (..., n, n) stacks; the trace of each block product is
    computed once per `traces`, as one contraction of the block's leading
    product against its last factor.
    """
    traces = {} if traces is None else traces
    total = None
    count = 0
    for arrangement in arrangements:
        val = None
        for blk in arrangement:
            t = traces.get(blk)
            if t is None:
                if len(blk) == 1:
                    t = np.einsum("...ii->...", mats[blk[0]])
                else:
                    prod = mats[blk[0]]
                    for i in blk[1:-1]:
                        prod = prod @ mats[i]
                    t = np.einsum("...ij,...ji->...", prod, mats[blk[-1]])
                traces[blk] = t
            val = t if val is None else val * t
        total = val if total is None else total + val
        count += 1
    return total / count


def _cyclic_arrangements(indices, sizes, after=-1):
    """All ways to fill trace blocks of the given sizes, cyclic rotation pinned.

    Each block starts at its smallest member, and blocks of equal size come in
    increasing order of that member, so every distinct product of traces is
    produced exactly once. `after` is the lower bound for the first block's
    smallest member.
    """
    if not sizes:
        yield ()
        return
    p = sizes[0]
    for chosen in itertools.combinations(indices, p):
        if chosen[0] <= after:
            continue
        remaining = tuple(i for i in indices if i not in chosen)
        nxt = chosen[0] if len(sizes) > 1 and sizes[1] == p else -1
        for order in itertools.permutations(chosen[1:]):
            head = (chosen[0],) + order
            for tail in _cyclic_arrangements(remaining, sizes[1:], nxt):
                yield (head,) + tail


def eval_invariant(T, mats):
    """Evaluate an InvariantMap on k square matrices of a common size.

    Given k stacks of shape (..., n, n) instead, it returns the (...) values
    at every stacked position in one call; a single tuple of matrices is the
    one-row view and returns a complex number.
    """
    mats = _check_mats(T.arity, mats)
    traces = {}
    total = None
    for part, coeff in sorted(T.terms.items()):
        term = complex(coeff) * _sym_term_value(T.arrangements(part), mats, traces)
        total = term if total is None else total + term
    if total is None:
        total = np.zeros(mats[0].shape[:-2], dtype=complex)
    return complex(total) if mats[0].ndim == 2 else total


class SymFun:
    """A polynomial in the power-sum generators T_j or the elementary generators S_j.

    `terms` maps a partition (the multiset of generator subscripts appearing in
    a monomial) to its exact rational coefficient. `rank_coeff` carries the
    degree-0 rank marker: a summand (coeff * n), n the matrix size, kept apart
    from the graded terms because it has no matrix inputs.
    """

    def __init__(self, basis, terms, rank_coeff=0):
        if basis not in (POWER, ELEMENTARY):
            raise ValidationError("basis must be %r or %r" % (POWER, ELEMENTARY))
        self.basis = basis
        self.rank_coeff = Fraction(rank_coeff)
        self.terms = {}
        for part, coeff in terms.items():
            part = as_partition(part)
            coeff = Fraction(coeff)
            if coeff != 0:
                self.terms[part] = self.terms.get(part, Fraction(0)) + coeff
        self.terms = {p: c for p, c in self.terms.items() if c != 0}

    def degree(self):
        """Common weight of all terms if homogeneous (rank marker aside), else None."""
        degs = {weight(p) for p in self.terms}
        if self.rank_coeff != 0:
            degs.add(0)
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    def __eq__(self, other):
        return (isinstance(other, SymFun) and self.basis == other.basis
                and self.terms == other.terms and self.rank_coeff == other.rank_coeff)

    def __repr__(self):
        return "SymFun(%s, %r, rank_coeff=%s)" % (self.basis, self.terms, self.rank_coeff)

    def __add__(self, other):
        if other.basis != self.basis:
            raise ValidationError("cannot add SymFuns in different bases")
        terms = dict(self.terms)
        for p, c in other.terms.items():
            terms[p] = terms.get(p, Fraction(0)) + c
        return SymFun(self.basis, terms, self.rank_coeff + other.rank_coeff)

    def to_json(self):
        entries = [{"partition": list(p), "num": str(c.numerator), "den": str(c.denominator)}
                   for p, c in sorted(self.terms.items())]
        if self.rank_coeff != 0:
            entries.insert(0, {"partition": [], "num": str(self.rank_coeff.numerator),
                               "den": str(self.rank_coeff.denominator)})
        return {"basis": self.basis, "terms": entries}

    @classmethod
    def from_json(cls, obj):
        """The SymFun of to_json's output; a malformed term is a ValidationError naming
        terms[i]."""
        if not isinstance(obj["terms"], list):
            raise ValidationError("terms: must be an array of term objects")
        terms = {}
        rank = Fraction(0)
        for i, t in enumerate(obj["terms"]):
            part, c = _term_from_json(t, "terms[%d]" % i)
            if not part:
                rank += c
            else:
                part = as_partition(part)
                terms[part] = terms.get(part, Fraction(0)) + c
        return cls(obj["basis"], terms, rank)


_INTEGER = re.compile(r"-?[0-9]+")


def _term_from_json(t, location):
    """(partition, coefficient) of one to_json term: the partition a list of positive
    integers, num and den integer strings, den nonzero."""
    if not isinstance(t, dict):
        raise ValidationError("%s: must be an object" % location)
    part = t.get("partition")
    if not (isinstance(part, list) and all(
            isinstance(x, int) and not isinstance(x, bool) and x >= 1 for x in part)):
        raise ValidationError("%s: 'partition' must be a list of positive integers, got %s"
                              % (location, json.dumps(part)))
    for key in ("num", "den"):
        if not (isinstance(t.get(key), str) and _INTEGER.fullmatch(t[key])):
            raise ValidationError("%s: %r must be an integer string, got %s"
                                  % (location, key, json.dumps(t.get(key))))
    if int(t["den"]) == 0:
        raise ValidationError("%s: 'den' must be nonzero" % location)
    return part, Fraction(int(t["num"]), int(t["den"]))


def _poly_mul(a, b, max_degree=None):
    """Multiply two partition-keyed polynomials, optionally truncating by weight."""
    out = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            p = as_partition(pa + pb) if (pa or pb) else ()
            if max_degree is not None and weight(p) > max_degree:
                continue
            out[p] = out.get(p, Fraction(0)) + ca * cb
    return {p: c for p, c in out.items() if c != 0}


def _power_in_elementary(j, cache={}):
    # T_j = sum_{i=1}^{j-1} (-1)^{i-1} S_i T_{j-i} + (-1)^{j-1} j S_j
    if j not in cache:
        acc = {(j,): Fraction((-1) ** (j - 1) * j)}
        for i in range(1, j):
            prev = _power_in_elementary(j - i)
            sign = Fraction((-1) ** (i - 1))
            for p, c in _poly_mul({(i,): sign}, prev).items():
                acc[p] = acc.get(p, Fraction(0)) + c
        cache[j] = {p: c for p, c in acc.items() if c != 0}
    return cache[j]


def _elementary_in_power(j, cache={}):
    # S_j = (1/j) sum_{i=1}^{j} (-1)^{i-1} S_{j-i} T_i
    if j not in cache:
        acc = {}
        for i in range(1, j + 1):
            prev = _elementary_in_power(j - i) if j - i > 0 else {(): Fraction(1)}
            sign = Fraction((-1) ** (i - 1), j)
            for p, c in _poly_mul({(i,): sign}, prev).items():
                acc[p] = acc.get(p, Fraction(0)) + c
        cache[j] = {p: c for p, c in acc.items() if c != 0}
    return cache[j]


def newton_convert(f, target_basis):
    """Rewrite f in the other generator basis via Newton's identities.

    Exact on any polynomial; converting there and back returns the original
    term dictionary.
    """
    if target_basis not in (POWER, ELEMENTARY):
        raise ValidationError("unknown basis %r" % (target_basis,))
    if f.basis == target_basis:
        return SymFun(f.basis, dict(f.terms), f.rank_coeff)
    table = _power_in_elementary if target_basis == ELEMENTARY else _elementary_in_power
    out = {}
    for part, coeff in f.terms.items():
        mono = {(): Fraction(1)}
        for j in part:
            mono = _poly_mul(mono, table(j))
        for p, c in mono.items():
            if not p:
                raise ValidationError("conversion produced a constant term")
            out[p] = out.get(p, Fraction(0)) + coeff * c
    return SymFun(target_basis, out, f.rank_coeff)


def _series_log(s, depth):
    """log of a power series with constant term 1, via s * L' = s'."""
    assert s[0] == 1
    dlog = [Fraction(0)] * (depth + 1)  # coefficients of L'
    for m in range(depth):
        # coefficient of t^m in s': (m+1) s_{m+1}; in s*L': sum_i s_i dlog_{m-i}
        acc = Fraction(m + 1) * s[m + 1]
        for i in range(1, m + 1):
            acc -= s[i] * dlog[m - i]
        dlog[m] = acc
    out = [Fraction(0)] * (depth + 1)
    for m in range(1, depth + 1):
        out[m] = dlog[m - 1] / m
    return out


def todd_log_coefficients(depth):
    """Exact coefficients c_m of log(t / (1 - e^{-t})) up to t^depth."""
    # (1 - e^{-t}) / t = sum_m (-1)^m t^m / (m+1)!
    u = [Fraction((-1) ** m, math.factorial(m + 1)) for m in range(depth + 1)]
    return [-c for c in _series_log(u, depth)]


def todd_component(k):
    """Degree-k homogeneous part of the Todd symmetric function, power-sum basis.

    Computed by exponentiating sum_m c_m T_m, where the c_m are the exact log
    series coefficients of t/(1-e^{-t}) up to t^k.
    """
    k = int(k)
    if k < 1:
        raise ValidationError("todd component degree must be >= 1")
    c = todd_log_coefficients(k)
    x = {(m,): c[m] for m in range(1, k + 1) if c[m] != 0}
    # exp(x), truncated beyond total degree k
    result = {(): Fraction(1)}
    power = {(): Fraction(1)}
    for j in range(1, k + 1):
        power = _poly_mul(power, x, max_degree=k)
        if not power:
            break
        inv_fact = Fraction(1, math.factorial(j))
        for p, cf in power.items():
            result[p] = result.get(p, Fraction(0)) + inv_fact * cf
    terms = {p: cf for p, cf in result.items() if p and weight(p) == k}
    return SymFun(POWER, terms)


def chern_character_component(k):
    """(1/k!) T_k for k >= 1; the rank marker n for k = 0."""
    k = int(k)
    if k < 0:
        raise ValidationError("chern character degree must be >= 0")
    if k == 0:
        return SymFun(POWER, {}, rank_coeff=Fraction(1))
    return SymFun(POWER, {(k,): Fraction(1, math.factorial(k))})


def invariant_from_symfun(f):
    """Polarize a homogeneous power-sum polynomial into the matching InvariantMap.

    The monomial T_{p1}...T_{pr} goes to the symmetrized multi-trace term with
    partition (p1,...,pr); on a diagonal tuple (M,...,M) the two sides agree.
    """
    if f.basis != POWER:
        raise ValidationError("expected power-sum basis, got %r" % (f.basis,))
    if f.rank_coeff != 0:
        raise ValidationError("rank marker has no arity; strip it first")
    k = f.degree()
    if k is None or k == 0:
        raise ValidationError("need a homogeneous function of positive degree")
    return InvariantMap(k, dict(f.terms))


def todd_invariant(k):
    return invariant_from_symfun(todd_component(k))


def format_symfun(f):
    """Render with a factored common denominator, e.g. (1/24)(3 T1^2 - T2)."""
    symbol = "T" if f.basis == POWER else "S"
    items = sorted(f.terms.items(), key=lambda kv: (weight(kv[0]), kv[0]))
    if f.rank_coeff != 0:
        items = [((), f.rank_coeff)] + items
    if not items:
        return "0"
    den = math.lcm(*(c.denominator for _, c in items))
    parts = []
    for part, coeff in items:
        num = coeff * den
        assert num.denominator == 1
        num = num.numerator
        counts = {}
        for j in part:
            counts[j] = counts.get(j, 0) + 1
        factors = ["%s%d" % (symbol, j) + ("^%d" % e if e > 1 else "")
                   for j, e in sorted(counts.items())]
        if not factors:
            factors = ["n"]
        mono = " ".join(factors)
        mag = abs(num)
        body = mono if mag == 1 else "%d %s" % (mag, mono)
        if not parts:
            parts.append(body if num > 0 else "-" + body)
        else:
            parts.append(("+ " if num > 0 else "- ") + body)
    inner = " ".join(parts)
    if den == 1:
        return inner if len(items) == 1 else "(%s)" % inner
    if len(items) == 1 and not inner.startswith("-"):
        return "(1/%d) %s" % (den, inner)
    return "(1/%d)(%s)" % (den, inner)
