"""Holomorphic maps between opens of C^n: evaluation, exact Jacobians, composition.

A map's domain is a named cloud of sample points; every check downstream is
pointwise over such clouds, and every evaluation takes the whole cloud at once:
an (N, n) point array in, one row per point out. A single point is a one-row
view of the same path. Inverses are never derived symbolically, so anything
that needs both directions must carry them explicitly.
"""

from fractions import Fraction

import numpy as np

from . import expr as ex
from .errors import SingularJacobianError, ValidationError

DET_TOL = 1e-12


class DomainSpec:
    def __init__(self, samples, name=""):
        self.samples = [tuple(complex(c) for c in p) for p in samples]
        self.name = name


def as_cloud(points, n):
    """(N, n) complex array of a cloud, plus whether `points` was one point."""
    arr = np.asarray(points, dtype=complex)
    single = arr.ndim == 1 and arr.size > 0
    return arr.reshape(-1, n), single


def _one_row(values, single):
    return values[0] if single else values


def singular_jacobians(J):
    """(det J, mask) of stacked Jacobians, singular where |det J| <= DET_TOL * ||J||_F^n.

    The test is scale-invariant, and the zero matrix counts as singular.
    """
    det = np.linalg.det(J)
    return det, np.abs(det) <= DET_TOL * np.linalg.norm(J, axis=(-2, -1)) ** J.shape[-1]


def invert_jacobians(J, points):
    """Inverses of stacked Jacobians; names the first point singular_jacobians flags."""
    det, bad = singular_jacobians(J)
    if bad.any():
        i = int(np.argmax(bad))
        raise SingularJacobianError(tuple(complex(c) for c in points[i]),
                                    "|det| = %.3e" % abs(det[i]))
    return np.linalg.inv(J)


class HoloMap:
    """n expression components over z1..zn with a sample-cloud domain.

    The components are expression DAGs (see expr): a composite's components
    share the subtrees of its pieces. Symbolic derivatives (_jac, _djac) are
    built on first use through the node memos of expr.differentiate, so a
    subtree shared by several entries is differentiated once. The components,
    the Jacobian and its derivatives each compile once, on first numeric use,
    into one straight-line program over their distinct nodes
    (expr.Program, kept in _fns): a run evaluates each node once on the
    cloud and drops its value after its last reader. Compositions with this
    map on the left are memoized in _composed (see compose), so every caller
    composing the same two maps shares one result and its caches.

    The values, Jacobians and inverse Jacobians on a cloud are memoized in
    _memo, keyed by the exact bytes of the (N, n) cloud: callers hand in fresh
    arrays (as_cloud views, row gathers, equal clouds of different cells), so
    only the point content identifies a cloud. An entry lives as long as the
    map or until forget(points) drops it: a label plan (cocycle.LabelPlan)
    forgets the entries it filled once none of its labels reads them again,
    and keeps those it found. Second derivatives (djacobian) are not memoized
    here; the label plan evaluates theta, which reads them, once per (map,
    cloud) (README, "Evaluation on clouds").
    """

    def __init__(self, n, components, domain=None, name="", check=True):
        self.n = int(n)
        self.components = tuple(components)
        if len(self.components) != self.n:
            raise ValidationError(
                "expected %d components, got %d" % (self.n, len(self.components)))
        for c in self.components:
            if c.max_var() > self.n:
                raise ValidationError("component uses a coordinate beyond z%d" % self.n)
        self.domain = domain or DomainSpec([])
        self.name = name
        self._jac = None
        self._djac = {}
        self._fns = {}
        self._composed = {}
        self._affine = None
        self._memo = {}
        if check:
            self._check_domain()

    def _check_domain(self):
        samples = self.domain.samples
        if not samples:
            return
        J = self.jacobian(samples)
        finite = np.all(np.isfinite(J), axis=(1, 2))
        bad = ~finite | singular_jacobians(J)[1]
        if bad.any():
            i = int(np.argmax(bad))
            if not finite[i]:
                raise ValidationError("Jacobian not finite at %r" % (samples[i],))
            raise ValidationError("Jacobian singular at sample %r" % (samples[i],))

    def _compiled(self, kind, exprs):
        fn = self._fns.get(kind)
        if fn is None:
            fn = ex.Program(exprs())
            self._fns[kind] = fn
        return fn

    def _memoized(self, kind, P, compute):
        """compute(P), run once per kind and distinct point content of the cloud P.

        The stored array is read-only, since every caller shares it. A raised
        error is never stored, so a failing cloud fails on every call.
        """
        entry = self._memo.setdefault(P.tobytes(), {})
        out = entry.get(kind)
        if out is None:
            out = compute(P)
            out.flags.writeable = False
            entry[kind] = out
        return out

    def remembers(self, points):
        """True when _memo holds an entry for the point content of the cloud `points`."""
        return as_cloud(points, self.n)[0].tobytes() in self._memo

    def forget(self, points):
        """Drop the _memo entry of the cloud `points`, if there is one."""
        self._memo.pop(as_cloud(points, self.n)[0].tobytes(), None)

    def __call__(self, points):
        return self.eval(points)

    def eval(self, points):
        """(N, n) points -> (N, n) values; one point -> a tuple of n complex numbers."""
        P, single = as_cloud(points, self.n)
        out = self._memoized("eval", P, self._compiled("eval", lambda: self.components))
        return tuple(out[0].tolist()) if single else out

    def jac_exprs(self):
        if self._jac is None:
            self._jac = tuple(tuple(ex.differentiate(c, b + 1) for b in range(self.n))
                              for c in self.components)
        return self._jac

    def djac_exprs(self, a):
        """d/dz_a of every Jacobian entry (second derivatives of the components)."""
        if a not in self._djac:
            J = self.jac_exprs()
            self._djac[a] = tuple(tuple(ex.differentiate(J[r][c], a) for c in range(self.n))
                                  for r in range(self.n))
        return self._djac[a]

    def jacobian(self, points):
        """(N, n) points -> (N, n, n) Jacobians; one point -> one (n, n) matrix."""
        P, single = as_cloud(points, self.n)
        fn = self._compiled("jacobian", lambda: [e for row in self.jac_exprs() for e in row])
        J = self._memoized("jacobian", P, lambda P: fn(P).reshape(-1, self.n, self.n))
        return _one_row(J, single)

    def djacobian(self, points):
        """d/dz_a of the Jacobian at every point, indexed [point, a - 1, row, col]."""
        P, single = as_cloud(points, self.n)
        n = self.n
        fn = self._compiled("djacobian", lambda: [e for a in range(1, n + 1)
                                                  for row in self.djac_exprs(a) for e in row])
        return _one_row(fn(P).reshape(-1, n, n, n), single)

    def jacobian_inverse(self, points):
        P, single = as_cloud(points, self.n)
        Jinv = self._memoized("jacobian_inverse", P,
                              lambda P: invert_jacobians(self.jacobian(P), P))
        return _one_row(Jinv, single)

    def is_affine(self):
        """True when every second derivative folds to the literal zero node; decided once."""
        if self._affine is None:
            self._affine = all(ex.is_zero_expr(e) for a in range(1, self.n + 1)
                               for row in self.djac_exprs(a) for e in row)
        return self._affine

    def __repr__(self):
        label = self.name or "; ".join(ex.to_text(c) for c in self.components)
        return "HoloMap(n=%d, %s)" % (self.n, label)


def parse_map(text, n, constants=None, domain=None, name="", check=True):
    """Parse a semicolon-separated list of n component expressions."""
    pieces = text.split(";")
    if len(pieces) != n:
        raise ValidationError(
            "expected %d components separated by ';', got %d" % (n, len(pieces)))
    offset = 0
    comps = []
    for piece in pieces:
        try:
            comps.append(ex.parse_expr(piece, n, constants))
        except ex.DslSyntaxError as err:
            raise ex.DslSyntaxError(err.message, offset + err.offset) from None
        offset += len(piece) + 1
    return HoloMap(n, comps, domain=domain, name=name, check=check)


def compose(f, g, name="", domain=None, check=True):
    """f after g, by symbolic substitution of g's components into f.

    One substitution memo serves all of f's components, so a subtree shared
    between them is rebuilt once and stays shared in the result.

    Memoized on f: composing the same map objects with the same arguments
    returns the same HoloMap, so its symbolic derivatives and compiled
    functions are built once. The key holds g and domain themselves (maps and
    domains hash by identity), which keeps them alive while the entry is.
    """
    key = (g, name, domain, check)
    composed = f._composed.get(key)
    if composed is None:
        if f.n != g.n:
            raise ValidationError("dimension mismatch: %d vs %d" % (f.n, g.n))
        memo, inner = {}, list(g.components)
        comps = [ex.substitute(c, inner, memo) for c in f.components]
        composed = HoloMap(f.n, comps, domain=domain or g.domain,
                           name=name or ("%s.%s" % (f.name or "f", g.name or "g")),
                           check=check)
        f._composed[key] = composed
    return composed


def identity_map(n, domain=None):
    return HoloMap(n, [ex.Var(i + 1) for i in range(n)], domain=domain, name="id")


def affine_map(A, b, domain=None, name="affine"):
    """z -> Az + b with exact rational entries."""
    n = len(b)
    comps = []
    for r in range(n):
        terms = [ex.mul(ex.Const(ex.CRat(*_crat_pair(A[r][c]))), ex.Var(c + 1))
                 for c in range(n)]
        terms.append(ex.Const(ex.CRat(*_crat_pair(b[r]))))
        comps.append(ex.add(*terms))
    return HoloMap(n, comps, domain=domain, name=name)


def _crat_pair(v):
    if isinstance(v, tuple):
        return Fraction(v[0]), Fraction(v[1])
    if isinstance(v, complex):
        raise ValidationError("affine coefficients must be exact; pass (re, im) fractions")
    return Fraction(v), Fraction(0)


def numeric_jacobian(f, point, h=1e-3):
    """Fourth-order stencil along real and imaginary steps of each coordinate.

    Averaging the two central differences kills the h^2 term for holomorphic
    components, which is the independent check the symbolic Jacobian is held to.
    """
    point = tuple(point)
    n = f.n
    out = np.empty((n, n), dtype=complex)
    for b in range(n):
        e = [0.0] * n
        e[b] = 1.0

        def at(step):
            return f.eval(tuple(p + step * d for p, d in zip(point, e)))

        re = [(x - y) / (2 * h) for x, y in zip(at(h), at(-h))]
        im = [(x - y) / (2j * h) for x, y in zip(at(1j * h), at(-1j * h))]
        for a in range(n):
            out[a, b] = 0.5 * (re[a] + im[a])
    return out


def numeric_partial(fn, point, var, h=1e-3):
    """Same stencil for a scalar complex-differentiable callable."""
    point = tuple(point)

    def at(step):
        q = list(point)
        q[var - 1] += step
        return fn(tuple(q))

    re = (at(h) - at(-h)) / (2 * h)
    im = (at(1j * h) - at(-1j * h)) / (2j * h)
    return 0.5 * (re + im)


class MapChain:
    """Composite of map-like pieces, applied right to left on point arrays.

    Quacks like a HoloMap for evaluation, Jacobians (chain rule on stacked
    matrices) and dimension, which is all the k-form pullback machinery needs.
    """

    def __init__(self, pieces, name=""):
        pieces = [p for p in pieces if p is not None]
        if not pieces:
            raise ValidationError("empty map chain")
        self.pieces = pieces
        self.n = pieces[0].n
        for p in pieces:
            if p.n != self.n:
                raise ValidationError("chain pieces disagree on dimension")
        self.name = name

    def eval(self, points):
        P, single = as_cloud(points, self.n)
        for p in reversed(self.pieces):
            P = p.eval(P)
        return tuple(P[0].tolist()) if single else P

    def __call__(self, points):
        return self.eval(points)

    def jacobian(self, points):
        """Chain rule; each piece but the outermost moves the points on to the next."""
        P, single = as_cloud(points, self.n)
        inner, *outer = reversed(self.pieces)
        J = inner.jacobian(P)
        for p in outer:
            P = inner.eval(P)
            J = p.jacobian(P) @ J
            inner = p
        return _one_row(J, single)

    def jacobian_inverse(self, points):
        P, single = as_cloud(points, self.n)
        return _one_row(invert_jacobians(self.jacobian(P), P), single)

    def __repr__(self):
        return "MapChain(%s)" % " . ".join(getattr(p, "name", "?") or "?" for p in self.pieces)


# ---------------------------------------------------------------------------
# built-in library: a spread of affine and polynomial-automorphism maps used by
# the composition/pullback identity suites.

def _disc_points(n, count, radius, seed, center=0.0):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        p = tuple(center + radius * complex(a, b)
                  for a, b in rng.uniform(-1, 1, size=(n, 2)))
        pts.append(p)
    return pts


def henon_map(c_num=3, c_den=10, domain=None, name="henon"):
    """(z1, z2) -> (z2, z2^2 + c - z1), a polynomial automorphism of C^2."""
    c = ex.Const(ex.CRat(Fraction(c_num, c_den)))
    comps = [ex.Var(2), ex.add(ex.pow_(ex.Var(2), 2), c, ex.neg(ex.Var(1)))]
    return HoloMap(2, comps, domain=domain, name=name)


def henon_inverse(c_num=3, c_den=10, domain=None, name="henon_inv"):
    """(w1, w2) -> (w1^2 + c - w2, w1)."""
    c = ex.Const(ex.CRat(Fraction(c_num, c_den)))
    comps = [ex.add(ex.pow_(ex.Var(1), 2), c, ex.neg(ex.Var(2))), ex.Var(1)]
    return HoloMap(2, comps, domain=domain, name=name)


def shear_map(domain=None, name="shear"):
    """(z1, z2) -> (z1, z2 + z1^2), an elementary polynomial automorphism."""
    comps = [ex.Var(1), ex.add(ex.Var(2), ex.pow_(ex.Var(1), 2))]
    return HoloMap(2, comps, domain=domain, name=name)


def shear_inverse(domain=None, name="shear_inv"):
    comps = [ex.Var(1), ex.add(ex.Var(2), ex.neg(ex.pow_(ex.Var(1), 2)))]
    return HoloMap(2, comps, domain=domain, name=name)


def diagonal_square_map(domain=None, name="sq1"):
    """(z1, z2) -> (z1^2, z2); invertible away from z1 = 0."""
    return HoloMap(2, [ex.pow_(ex.Var(1), 2), ex.Var(2)], domain=domain, name=name)


def mobius_like_map(domain=None, name="mobius"):
    """(z1, z2) -> (z1 / (1 + z2), z2 + 1); rational, regular near the origin."""
    one = ex.Const(ex.CRat(1))
    comps = [ex.div(ex.Var(1), ex.add(one, ex.Var(2))), ex.add(ex.Var(2), one)]
    return HoloMap(2, comps, domain=domain, name=name)


def builtin_library(seed=7, count=12):
    """Named maps plus composable non-affine pairs on shared sample clouds."""
    cloud = _disc_points(2, count, 0.45, seed)
    shifted = _disc_points(2, count, 0.35, seed + 1, center=0.2)
    dom = DomainSpec(cloud, name="disc")
    dom2 = DomainSpec(shifted, name="disc2")
    a1 = affine_map([[2, 1], [1, 1]], [Fraction(1, 4), Fraction(-1, 5)], domain=dom,
                    name="affine21")
    a2 = affine_map([[1, 0], [Fraction(1, 2), 1]], [0, Fraction(1, 3)], domain=dom,
                    name="affine_lower")
    maps = {
        "id": identity_map(2, domain=dom),
        "affine21": a1,
        "affine_lower": a2,
        "henon": henon_map(domain=dom),
        "henon_inv": henon_inverse(domain=dom),
        "shear": shear_map(domain=dom),
        "shear_inv": shear_inverse(domain=dom),
        "sq1": diagonal_square_map(domain=dom2, name="sq1"),
        "mobius": mobius_like_map(domain=dom, name="mobius"),
    }
    pairs = [
        ("henon", "shear"), ("shear", "henon"), ("henon", "henon"),
        ("shear", "mobius"), ("mobius", "henon"), ("shear", "shear"),
        ("henon", "affine21"), ("affine_lower", "shear"), ("mobius", "affine21"),
    ]
    return maps, pairs
