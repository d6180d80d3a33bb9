"""Forms sampled on point clouds: theta, the sharp pullback, invariants, k-form pullback.

A form is a SampledForm: its values on an (N, n) cloud, shaped
(N, C(n, k), *fibre), with the k-indices in itertools.combinations order.
theta(f) = J^{-1} dJ is a matrix 1-form, fibre (n, n), indexed
[point, dz^a, row, col]; the sharp pullback conjugates its matrix part while
pulling back its 1-form part. A GL-invariant map applied to k matrix 1-forms
wedges them into a scalar k-form (empty fibre), which pulls back along a map
through Jacobian minors. Every function here takes the cloud it evaluates on;
a form evaluated at phi(points) is pulled back to `points`.

A form that vanishes for structural reasons (theta of an affine map, a wedge
beyond the dimension, or any input of such) carries structurally_zero and
values that no arithmetic produced, so vanishing results downstream stay
exact rather than merely small. The decision is made before any numeric work.
"""

import itertools
import math

import numpy as np

from .errors import ValidationError
from .holomap import as_cloud
from .invariants import eval_invariant


class SampledForm:
    """Values of a form on a cloud, with exact linear algebra on the arrays."""

    def __init__(self, n, k, points, values):
        self.n = int(n)
        self.k = int(k)
        self.points = as_cloud(points, self.n)[0]
        self.values = np.asarray(values, dtype=complex)
        self.structurally_zero = False
        expect = (len(self.points), math.comb(self.n, self.k))
        if self.values.shape[:2] != expect:
            raise ValidationError("value array shape %r, expected %r + fibre"
                                  % (self.values.shape, expect))

    @classmethod
    def zeros(cls, n, k, points, fibre):
        """The structurally zero form of degree k with the given fibre shape."""
        P = as_cloud(points, n)[0]
        form = cls(n, k, P, np.zeros((len(P), math.comb(n, k)) + tuple(fibre), dtype=complex))
        form.structurally_zero = True
        return form

    def add(self, other):
        self._compat(other)
        return SampledForm(self.n, self.k, self.points, self.values + other.values)

    def scale(self, a):
        return SampledForm(self.n, self.k, self.points, a * self.values)

    def sub(self, other):
        self._compat(other)
        return SampledForm(self.n, self.k, self.points, self.values - other.values)

    def _compat(self, other):
        if (self.n, self.k) != (other.n, other.k) or not (
                self.points is other.points or np.array_equal(self.points, other.points)):
            raise ValidationError("sampled forms disagree on degree or points")

    def max_abs(self):
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def worst_point(self):
        """(point, largest coefficient modulus there) where that peaks; None when empty."""
        N = len(self.points)
        if not N:
            return None
        per_point = np.max(np.abs(self.values).reshape(N, -1), axis=1) if self.values.size \
            else np.zeros(N)
        i = int(np.argmax(per_point))
        return tuple(self.points[i].tolist()), float(per_point[i])

    def is_exactly_zero(self):
        return bool(np.all(self.values == 0))

    def to_json(self):
        indices = itertools.combinations(range(1, self.n + 1), self.k)
        keys = [",".join(map(str, idx)) for idx in indices]
        return [{"point": [[c.real, c.imag] for c in p],
                 "coefficients": {key: [v.real, v.imag] for key, v in zip(keys, row)}}
                for p, row in zip(self.points.tolist(), self.values)]


def signed_sum(n, k, points, terms):
    """Sum of sign * form.values over (sign, SampledForm) pairs, in order.

    Structurally zero forms are skipped, never added; with nothing left the
    result is the structural zero on `points`.
    """
    acc = None
    for sign, form in terms:
        if form.structurally_zero:
            continue
        term = sign * form.values
        acc = term if acc is None else acc + term
    if acc is None:
        return SampledForm.zeros(n, k, points, ())
    return SampledForm(n, k, points, acc)


def theta_vanishes(f):
    """True when theta(f) is structurally zero, i.e. f is affine."""
    return hasattr(f, "is_affine") and f.is_affine()


def theta(f, points):
    """J^{-1} dJ of the map f: coefficient of dz^a at z is J(z)^{-1} (dJ/dz^a)(z)."""
    n = f.n
    P = as_cloud(points, n)[0]
    if theta_vanishes(f):
        return SampledForm.zeros(n, 1, P, (n, n))
    Jinv, dJ = f.jacobian_inverse(P), f.djacobian(P)
    # order="F" makes the point axis the innermost loop of the contraction
    return SampledForm(n, 1, P, np.einsum("pij,pajk->paik", Jinv, dJ, order="F"))


def sharp_pullback(phi, omega, points):
    """phi-sharp of a matrix 1-form sampled at phi(points), on `points`.

    The 1-form part is pulled back along phi, the matrices are conjugated by
    its Jacobian. The inverse comes from phi.jacobian_inverse, which a HoloMap
    memoizes, so theta of phi on the same cloud shares it.
    """
    n = omega.n
    if phi.n != n:
        raise ValidationError("dimension mismatch")
    P = as_cloud(points, n)[0]
    if omega.structurally_zero:
        return SampledForm.zeros(n, 1, P, (n, n))
    J = phi.jacobian(P)
    # coefficient of dz^b: sum over a of J[a, b] times the dz^a matrix, conjugated;
    # the point axis is the innermost loop of each contraction, as in theta
    pulled = np.einsum("pab,pajk->pbjk", J, omega.values, order="F")
    left = np.einsum("pij,pbjk->pbik", phi.jacobian_inverse(P), pulled, order="F")
    return SampledForm(n, 1, P, np.einsum("pbik,pkl->pbil", left, J, order="F"))


def apply_invariant(T, omegas):
    """Wedge k matrix 1-forms on one cloud through a GL-invariant map into a k-form.

    The coefficient of dz^I is the signed sum over the k! orderings of I; all
    (point, index, ordering) choices are stacked into one eval_invariant call.
    """
    k = T.arity
    if len(omegas) != k:
        raise ValidationError("expected %d forms for arity %d" % (k, k))
    n = omegas[0].n
    for w in omegas:
        if w.n != n:
            raise ValidationError("forms live on different dimensions")
    P = omegas[0].points
    if k > n or any(w.structurally_zero for w in omegas):
        return SampledForm.zeros(n, k, P, ())

    combos = list(itertools.combinations(range(n), k))
    perms = list(itertools.permutations(range(k)))
    signs = [_perm_sign(sig) for sig in perms]
    # slot r of the (combo, ordering) pair receives the dz^{idx[sig[r]]} matrix
    slots = [np.array([idx[sig[r]] for idx in combos for sig in perms]) for r in range(k)]
    # the (N, pairs, n, n) gathers go in unreshaped: with the point axis
    # innermost, a reshape to (N * pairs, n, n) would copy every value
    vals = eval_invariant(T, [w.values[:, slot] for w, slot in zip(omegas, slots)])
    vals = vals.reshape(len(P), len(combos), len(perms))
    total = signs[0] * vals[..., 0]
    for s in range(1, len(perms)):
        total = total + signs[s] * vals[..., s]
    return SampledForm(n, k, P, total)


def _perm_sign(sig):
    sign = 1
    for i in range(len(sig)):
        for j in range(i + 1, len(sig)):
            if sig[i] > sig[j]:
                sign = -sign
    return sign


def pullback_kform(phi, w, points, minors=None):
    """Holomorphic pullback of a scalar k-form sampled at phi(points), via Jacobian minors.

    `minors` are phi's jacobian_minors on `points`, for a caller that holds them
    across several pullbacks; by default they are computed here.
    """
    n, k = w.n, w.k
    if phi.n != n:
        raise ValidationError("dimension mismatch")
    P = as_cloud(points, n)[0]
    if w.structurally_zero:
        return SampledForm.zeros(n, k, P, ())
    if k == 0:
        return SampledForm(n, k, P, w.values)
    if minors is None:
        minors = jacobian_minors(phi.jacobian(P), k)
    return SampledForm(n, k, P, minor_pullback(w.values, minors))


def jacobian_minors(J, k):
    """The k x k minors of stacked (N, m, m) matrices: (N, C(m, k), C(m, k)).

    Entry [p, A, B] is det(J[p] on rows A, columns B), index sets in
    itertools.combinations order.
    """
    combos = np.array(list(itertools.combinations(range(J.shape[-1]), k)), dtype=np.intp)
    return np.linalg.det(J[:, combos[:, None, :, None], combos[None, :, None, :]])


def minor_pullback(values, minors):
    """k-form coefficients (N, C(m, k)) pulled back through jacobian_minors (N, C(m, k), C(m, k)).

    Coefficient B of the result sums values[p, A] * minors[p, A, B].
    """
    return (values[:, None, :] @ minors)[:, 0, :]
