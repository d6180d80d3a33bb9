"""Matrix-valued 1-forms and scalar k-forms, evaluated on whole sample clouds.

theta(f) is the connection-style form J^{-1} dJ of a map's Jacobian; the sharp
pullback conjugates the matrix part while pulling back the 1-form part. A
GL-invariant map applied to k such forms wedges the 1-form parts into a scalar
k-form. Nothing here is a global symbolic object: a form is an array function
of a cloud. On an (N, n) point array, MatrixOneForm.eval returns an
(N, n, n, n) array indexed [point, dz^a, row, col], and ScalarKForm.eval an
(N, C(n, k)) array whose columns follow itertools.combinations order. Called
with a single point, eval is a one-row view of that path (matrices stacked by
dz^a, or {k-index: coefficient}).

The compiled expression functions behind every evaluation are cached on each
HoloMap; the values of cochain base cells are cached as one array per base
value in cechgroup.MixedCochain.
"""

import itertools

import numpy as np

from .errors import ValidationError
from .holomap import as_cloud, invert_jacobians
from .invariants import eval_invariant


class MatrixOneForm:
    """(N, n) points -> (N, n, n, n) coefficient matrices, [point, dz^a, row, col]."""

    def __init__(self, n, eval_fn, structurally_zero=False):
        self.n = int(n)
        self._eval = eval_fn
        self.structurally_zero = structurally_zero

    def eval(self, points):
        P, single = as_cloud(points, self.n)
        if self.structurally_zero:
            out = np.zeros((len(P), self.n, self.n, self.n), dtype=complex)
        else:
            out = self._eval(P)
        return out[0] if single else out

    @classmethod
    def zero(cls, n):
        return cls(n, None, structurally_zero=True)

    def __add__(self, other):
        if self.n != other.n:
            raise ValidationError("dimension mismatch")
        if self.structurally_zero:
            return other
        if other.structurally_zero:
            return self
        return MatrixOneForm(self.n, lambda P: self.eval(P) + other.eval(P))

    def scale(self, a):
        if self.structurally_zero or a == 0:
            return MatrixOneForm.zero(self.n)
        return MatrixOneForm(self.n, lambda P: a * self.eval(P))

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def max_norm(self, points):
        """Entrywise max over the coefficient matrices at the given points."""
        values = self.eval(as_cloud(points, self.n)[0])
        return float(np.max(np.abs(values))) if values.size else 0.0


class ScalarKForm:
    """(N, n) points -> (N, C(n, k)) coefficients in itertools.combinations order."""

    def __init__(self, n, k, eval_fn, structurally_zero=False):
        self.n = int(n)
        self.k = int(k)
        self._eval = eval_fn
        self.structurally_zero = structurally_zero or self.k > self.n

    def indices(self):
        return list(itertools.combinations(range(1, self.n + 1), self.k))

    def eval(self, points):
        """Coefficient array on a cloud; for one point, {k-index: coefficient}."""
        P, single = as_cloud(points, self.n)
        if self.structurally_zero:
            out = np.zeros((len(P), len(self.indices())), dtype=complex)
        else:
            out = self._eval(P)
        if single:
            return dict(zip(self.indices(), out[0].tolist()))
        return out

    @classmethod
    def zero(cls, n, k):
        return cls(n, k, None, structurally_zero=True)

    def __add__(self, other):
        self._compat(other)
        if self.structurally_zero:
            return other
        if other.structurally_zero:
            return self
        return ScalarKForm(self.n, self.k, lambda P: self.eval(P) + other.eval(P))

    def scale(self, a):
        if self.structurally_zero:
            return self
        if a == 0:
            return ScalarKForm.zero(self.n, self.k)
        return ScalarKForm(self.n, self.k, lambda P: a * self.eval(P))

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def _compat(self, other):
        if self.n != other.n or self.k != other.k:
            raise ValidationError("form degree/dimension mismatch")


def theta(f):
    """J^{-1} dJ of the map f: coefficient of dz^a at z is J(z)^{-1} (dJ/dz^a)(z).

    Affine maps short-circuit to the structural zero form, keeping downstream
    vanishing results exact rather than merely small.
    """
    n = f.n
    if hasattr(f, "is_affine") and f.is_affine():
        return MatrixOneForm.zero(n)

    def ev(P):
        Jinv = f.jacobian_inverse(P)
        return Jinv[:, None] @ f.djacobian(P)

    return MatrixOneForm(n, ev)


def sharp_pullback(phi, omega):
    """phi-sharp: pull the 1-form part back along phi, conjugate matrices by its Jacobian."""
    if phi.n != omega.n:
        raise ValidationError("dimension mismatch")
    if omega.structurally_zero:
        return MatrixOneForm.zero(omega.n)
    n = omega.n

    def ev(P):
        J = phi.jacobian(P)
        Jinv = invert_jacobians(J, P)
        conj = Jinv[:, None] @ omega.eval(phi.eval(P)) @ J[:, None]
        # coefficient of dz^b: sum over a of J[a, b] times the dz^a matrix
        N = len(P)
        return (np.swapaxes(J, 1, 2) @ conj.reshape(N, n, n * n)).reshape(N, n, n, n)

    return MatrixOneForm(n, ev)


def apply_invariant(T, omegas):
    """Wedge k matrix 1-forms through a GL-invariant map into a scalar k-form.

    The coefficient of dz^I is the signed sum over the k! orderings of I; all
    (index, ordering, point) choices are stacked into one eval_invariant call.
    """
    k = T.arity
    if len(omegas) != k:
        raise ValidationError("expected %d forms for arity %d" % (k, k))
    n = omegas[0].n
    for w in omegas:
        if w.n != n:
            raise ValidationError("forms live on different dimensions")
    if k > n or any(w.structurally_zero for w in omegas):
        return ScalarKForm.zero(n, k)

    combos = list(itertools.combinations(range(n), k))
    perms = list(itertools.permutations(range(k)))
    signs = [_perm_sign(sig) for sig in perms]
    # slot r of the (combo, ordering) pair receives the dz^{idx[sig[r]]} matrix
    slots = [np.array([idx[sig[r]] for idx in combos for sig in perms]) for r in range(k)]

    def ev(P):
        N = len(P)
        chosen = [np.swapaxes(w.eval(P)[:, slot], 0, 1).reshape(-1, n, n)
                  for w, slot in zip(omegas, slots)]
        vals = eval_invariant(T, chosen).reshape(len(combos), len(perms), N)
        total = signs[0] * vals[:, 0]
        for s in range(1, len(perms)):
            total = total + signs[s] * vals[:, s]
        return total.T

    return ScalarKForm(n, k, ev)


def _perm_sign(sig):
    sign = 1
    for i in range(len(sig)):
        for j in range(i + 1, len(sig)):
            if sig[i] > sig[j]:
                sign = -sign
    return sign


def pullback_kform(phi, w):
    """Holomorphic pullback of a scalar k-form along phi via Jacobian minors."""
    if phi.n != w.n:
        raise ValidationError("dimension mismatch")
    if w.structurally_zero:
        return ScalarKForm.zero(w.n, w.k)
    n, k = w.n, w.k
    combos = np.array(list(itertools.combinations(range(n), k)), dtype=np.intp)

    def ev(P):
        J = phi.jacobian(P)
        vals = w.eval(phi.eval(P))
        if k == 0:
            return vals
        # minors[p, A, B] = det of J[p] restricted to rows A and columns B
        minors = np.linalg.det(J[:, combos[:, None, :, None], combos[None, :, None, :]])
        return (vals[:, None, :] @ minors)[:, 0, :]

    return ScalarKForm(n, k, ev)


class SampledForm:
    """A ScalarKForm frozen on a fixed point list; supports exact linear algebra.

    This is the concrete element type for Dold-Kan labels over form complexes.
    """

    def __init__(self, n, k, points, values):
        self.n = int(n)
        self.k = int(k)
        self.points = [tuple(p) for p in points]
        self.indices = list(itertools.combinations(range(1, self.n + 1), self.k))
        self.values = np.asarray(values, dtype=complex)
        expect = (len(self.points), len(self.indices))
        if self.values.shape != expect:
            raise ValidationError("value array shape %r, expected %r"
                                  % (self.values.shape, expect))

    @classmethod
    def sample(cls, form, points):
        """Evaluate a form on a point list with one call over the whole cloud."""
        return cls(form.n, form.k, points, form.eval(as_cloud(points, form.n)[0]))

    @classmethod
    def zeros(cls, n, k, points):
        count = len(list(itertools.combinations(range(1, n + 1), k)))
        return cls(n, k, points, np.zeros((len(points), count), dtype=complex))

    def add(self, other):
        self._compat(other)
        return SampledForm(self.n, self.k, self.points, self.values + other.values)

    def scale(self, a):
        return SampledForm(self.n, self.k, self.points, a * self.values)

    def sub(self, other):
        self._compat(other)
        return SampledForm(self.n, self.k, self.points, self.values - other.values)

    def _compat(self, other):
        if (self.n, self.k) != (other.n, other.k) or self.points != other.points:
            raise ValidationError("sampled forms disagree on degree or points")

    def max_abs(self):
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def worst_point(self):
        """(point, largest coefficient modulus there) where that peaks; None when empty."""
        if not self.points:
            return None
        per_point = np.max(np.abs(self.values), axis=1) if self.values.size \
            else np.zeros(len(self.points))
        i = int(np.argmax(per_point))
        return self.points[i], float(per_point[i])

    def is_exactly_zero(self):
        return bool(np.all(self.values == 0))

    def to_json(self):
        return [{"point": [[c.real, c.imag] for c in p],
                 "coefficients": {",".join(map(str, idx)): [v.real, v.imag]
                                  for idx, v in zip(self.indices, row)}}
                for p, row in zip(self.points, self.values)]
