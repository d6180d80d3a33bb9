"""Holomorphic maps between opens of C^n: evaluation, exact Jacobians, composition.

Every check downstream is pointwise over sample clouds, and every evaluation
takes the whole cloud at once: an (N, n) point array in, one row per point
out. Inverses are never derived symbolically, so anything that needs both
directions must carry them explicitly.
"""

from fractions import Fraction

import numpy as np

from . import expr as ex
from .errors import SingularJacobianError, ValidationError

DET_TOL = 1e-12


def as_cloud(points, n):
    """(N, n) complex array of a cloud."""
    return np.asarray(points, dtype=complex).reshape(-1, n)


def stack(arrays):
    """The rows of several arrays in one array; the array itself when there is one."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def split_rows(array, parts):
    """Consecutive row blocks of `array` (views), as long as the arrays `parts` are."""
    blocks, lo = [], 0
    for part in parts:
        blocks.append(array[lo:lo + len(part)])
        lo += len(part)
    return blocks


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
    """n expression components over z1..zn.

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
    only the point content identifies a cloud. stacked() evaluates several
    clouds on their stack and stores each cloud's rows under its own key, so
    a stack is never a key. An entry lives as long as the map or until
    forget(points) drops it: a label plan (cocycle.LabelPlan)
    forgets the entries it filled once none of its labels reads them again,
    and keeps those it found. Second derivatives (djacobian) are not memoized
    here; the label plan evaluates theta, which reads them, once per (map,
    cloud) (README, "Evaluation on clouds").
    """

    def __init__(self, n, components, name=""):
        self.n = int(n)
        self.components = tuple(components)
        if len(self.components) != self.n:
            raise ValidationError(
                "expected %d components, got %d" % (self.n, len(self.components)))
        for c in self.components:
            if c.max_var() > self.n:
                raise ValidationError("component uses a coordinate beyond z%d" % self.n)
        self.name = name
        self._jac = None
        self._djac = {}
        self._fns = {}
        self._composed = {}
        self._affine = None
        self._memo = {}

    def _compiled(self, kind, exprs):
        fn = self._fns.get(kind)
        if fn is None:
            fn = ex.Program(exprs())
            self._fns[kind] = fn
        return fn

    def stacked(self, kind, clouds):
        """The "eval", "jacobian" or "jacobian_inverse" rows of several (N_i, n) clouds,
        stacked into one array; computed once per kind and distinct point content.

        The clouds without a stored entry are computed together, by one run of
        the program (and one inversion) on their stack, and each cloud's rows
        are stored under that cloud's own bytes, never under a stack's. The
        stored arrays are read-only, since every caller shares them. A raised
        error is never stored, so a failing cloud fails on every call.
        """
        keys = [P.tobytes() for P in clouds]
        fresh = {}
        for key, P in zip(keys, clouds):
            if kind not in self._memo.get(key, ()):
                fresh.setdefault(key, P)
        if fresh:
            out = getattr(self, "_" + kind)(list(fresh.values()))
            out.flags.writeable = False
            for key, rows in zip(fresh, split_rows(out, fresh.values())):
                self._memo.setdefault(key, {})[kind] = rows
        return stack([self._memo[key][kind] for key in keys])

    def _eval(self, clouds):
        return self._compiled("eval", lambda: self.components)(stack(clouds))

    def _jacobian(self, clouds):
        fn = self._compiled("jacobian", lambda: [e for row in self.jac_exprs() for e in row])
        return fn(stack(clouds)).reshape(-1, self.n, self.n)

    def _jacobian_inverse(self, clouds):
        return invert_jacobians(self.stacked("jacobian", clouds), stack(clouds))

    def remembers(self, points):
        """True when _memo holds an entry for the point content of the cloud `points`."""
        return as_cloud(points, self.n).tobytes() in self._memo

    def forget(self, points):
        """Drop the _memo entry of the cloud `points`, if there is one."""
        self._memo.pop(as_cloud(points, self.n).tobytes(), None)

    def eval(self, points):
        """(N, n) points -> (N, n) values."""
        return self.stacked("eval", [as_cloud(points, self.n)])

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
        """(N, n) points -> (N, n, n) Jacobians."""
        return self.stacked("jacobian", [as_cloud(points, self.n)])

    def djacobian(self, points):
        """d/dz_a of the Jacobian at every point, indexed [point, a - 1, row, col]."""
        n = self.n
        fn = self._compiled("djacobian", lambda: [e for a in range(1, n + 1)
                                                  for row in self.djac_exprs(a) for e in row])
        return fn(as_cloud(points, n)).reshape(-1, n, n, n)

    def jacobian_inverse(self, points):
        """(N, n) points -> (N, n, n) inverse Jacobians."""
        return self.stacked("jacobian_inverse", [as_cloud(points, self.n)])

    def is_affine(self):
        """True when every second derivative folds to the literal zero node; decided once."""
        if self._affine is None:
            self._affine = all(ex.is_zero_expr(e) for a in range(1, self.n + 1)
                               for row in self.djac_exprs(a) for e in row)
        return self._affine

    def __repr__(self):
        label = self.name or "; ".join(ex.to_text(c) for c in self.components)
        return "HoloMap(n=%d, %s)" % (self.n, label)


def parse_map(text, n, constants=None, name=""):
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
    return HoloMap(n, comps, name=name)


def compose(f, g):
    """f after g, by symbolic substitution of g's components into f.

    One substitution memo serves all of f's components, so a subtree shared
    between them is rebuilt once and stays shared in the result.

    Memoized on f: composing the same two map objects returns the same
    HoloMap, so its symbolic derivatives and compiled functions are built
    once. The key is g itself (maps hash by identity), which keeps it alive
    while the entry is.
    """
    composed = f._composed.get(g)
    if composed is None:
        if f.n != g.n:
            raise ValidationError("dimension mismatch: %d vs %d" % (f.n, g.n))
        memo, inner = {}, list(g.components)
        comps = [ex.substitute(c, inner, memo) for c in f.components]
        composed = HoloMap(f.n, comps, name="%s.%s" % (f.name or "f", g.name or "g"))
        f._composed[g] = composed
    return composed


def identity_map(n):
    return HoloMap(n, [ex.Var(i + 1) for i in range(n)], name="id")


def affine_map(A, b, name="affine"):
    """z -> Az + b with exact rational entries."""
    n = len(b)
    comps = []
    for r in range(n):
        terms = [ex.mul(ex.Const(ex.CRat(*_crat_pair(A[r][c]))), ex.Var(c + 1))
                 for c in range(n)]
        terms.append(ex.Const(ex.CRat(*_crat_pair(b[r]))))
        comps.append(ex.add(*terms))
    return HoloMap(n, comps, name=name)


def _crat_pair(v):
    if isinstance(v, tuple):
        return Fraction(v[0]), Fraction(v[1])
    if isinstance(v, complex):
        raise ValidationError("affine coefficients must be exact; pass (re, im) fractions")
    return Fraction(v), Fraction(0)


class MapChain:
    """Composite of map-like pieces, applied right to left on point arrays.

    Quacks like a HoloMap for evaluation, Jacobians (chain rule on stacked
    matrices) and dimension, which is all the k-form pullback machinery needs.
    """

    def __init__(self, pieces):
        if not pieces:
            raise ValidationError("empty map chain")
        self.pieces = pieces
        self.n = pieces[0].n
        for p in pieces:
            if p.n != self.n:
                raise ValidationError("chain pieces disagree on dimension")

    def eval(self, points):
        P = as_cloud(points, self.n)
        for p in reversed(self.pieces):
            P = p.eval(P)
        return P

    def jacobian(self, points):
        """Chain rule; each piece but the outermost moves the points on to the next."""
        P = as_cloud(points, self.n)
        inner, *outer = reversed(self.pieces)
        J = inner.jacobian(P)
        for p in outer:
            P = inner.eval(P)
            J = p.jacobian(P) @ J
            inner = p
        return J

    def __repr__(self):
        return "MapChain(%s)" % " . ".join(getattr(p, "name", "?") or "?" for p in self.pieces)


# ---------------------------------------------------------------------------
# built-in library: a spread of affine and polynomial-automorphism maps used by
# the composition/pullback identity suites.

def _disc_points(n, count, radius, seed, center=0.0):
    rng = np.random.default_rng(seed)
    return as_cloud([[center + radius * complex(a, b) for a, b in rng.uniform(-1, 1, size=(n, 2))]
                     for _ in range(count)], n)


HENON_C = Fraction(3, 10)


def henon_map():
    """(z1, z2) -> (z2, z2^2 + c - z1), a polynomial automorphism of C^2."""
    c = ex.Const(ex.CRat(HENON_C))
    comps = [ex.Var(2), ex.add(ex.pow_(ex.Var(2), 2), c, ex.neg(ex.Var(1)))]
    return HoloMap(2, comps, name="henon")


def henon_inverse():
    """(w1, w2) -> (w1^2 + c - w2, w1)."""
    c = ex.Const(ex.CRat(HENON_C))
    comps = [ex.add(ex.pow_(ex.Var(1), 2), c, ex.neg(ex.Var(2))), ex.Var(1)]
    return HoloMap(2, comps, name="henon_inv")


def shear_map():
    """(z1, z2) -> (z1, z2 + z1^2), an elementary polynomial automorphism."""
    comps = [ex.Var(1), ex.add(ex.Var(2), ex.pow_(ex.Var(1), 2))]
    return HoloMap(2, comps, name="shear")


def shear_inverse():
    comps = [ex.Var(1), ex.add(ex.Var(2), ex.neg(ex.pow_(ex.Var(1), 2)))]
    return HoloMap(2, comps, name="shear_inv")


def diagonal_square_map():
    """(z1, z2) -> (z1^2, z2); invertible away from z1 = 0."""
    return HoloMap(2, [ex.pow_(ex.Var(1), 2), ex.Var(2)], name="sq1")


def mobius_like_map():
    """(z1, z2) -> (z1 / (1 + z2), z2 + 1); rational, regular near the origin."""
    one = ex.Const(ex.CRat(1))
    comps = [ex.div(ex.Var(1), ex.add(one, ex.Var(2))), ex.add(ex.Var(2), one)]
    return HoloMap(2, comps, name="mobius")


def builtin_library(seed=7, count=12):
    """Named maps, each map's (count, 2) sample cloud, and composable non-affine pairs.

    Every map samples the disc cloud of radius 0.45, except sq1, which samples a
    shifted disc away from its singular line z1 = 0.
    """
    cloud = _disc_points(2, count, 0.45, seed)
    shifted = _disc_points(2, count, 0.35, seed + 1, center=0.2)
    maps = {
        "id": identity_map(2),
        "affine21": affine_map([[2, 1], [1, 1]], [Fraction(1, 4), Fraction(-1, 5)],
                               name="affine21"),
        "affine_lower": affine_map([[1, 0], [Fraction(1, 2), 1]], [0, Fraction(1, 3)],
                                   name="affine_lower"),
        "henon": henon_map(),
        "henon_inv": henon_inverse(),
        "shear": shear_map(),
        "shear_inv": shear_inverse(),
        "sq1": diagonal_square_map(),
        "mobius": mobius_like_map(),
    }
    clouds = {name: shifted if name == "sq1" else cloud for name in maps}
    pairs = [
        ("henon", "shear"), ("shear", "henon"), ("henon", "henon"),
        ("shear", "mobius"), ("mobius", "henon"), ("shear", "shear"),
        ("henon", "affine21"), ("affine_lower", "shear"), ("mobius", "affine21"),
    ]
    return maps, clouds, pairs
