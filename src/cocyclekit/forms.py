"""Forms sampled on point clouds: theta, the sharp pullback, invariants, k-form pullback.

A form is a SampledForm: its values on an (N, n) cloud, shaped
(N, C(n, k), *fibre), with the k-indices in itertools.combinations order.
theta(f) = J^{-1} dJ is a matrix 1-form, fibre (n, n), indexed
[point, dz^a, row, col]; the sharp pullback conjugates its matrix part while
pulling back its 1-form part. Both are kernels on stacked Jacobians
(theta_values, sharp_values), which the label plan (cocycle.LabelPlan) runs
on the named maps of a chain. A GL-invariant map applied to k matrix 1-forms
wedges them into a scalar k-form (empty fibre), which the label plan pulls
back along a top chart through its Jacobian minors (jacobian_minors,
minor_pullback).

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

# largest array, in complex entries, that one batch builds: a stage of a label
# plan (cocycle.LabelPlan) or the gathered term values of a term plan's sums
BATCH_ENTRIES = 1 << 16


class SampledForm:
    """Values of a form on a cloud."""

    def __init__(self, n, k, points, values):
        self.n = int(n)
        self.k = int(k)
        self.points = as_cloud(points, self.n)
        self.values = np.asarray(values, dtype=complex)
        self.structurally_zero = False
        expect = (len(self.points), math.comb(self.n, self.k))
        if self.values.shape[:2] != expect:
            raise ValidationError("value array shape %r, expected %r + fibre"
                                  % (self.values.shape, expect))

    @classmethod
    def zeros(cls, n, k, points, fibre):
        """The structurally zero form of degree k with the given fibre shape."""
        P = as_cloud(points, n)
        form = cls(n, k, P, np.zeros((len(P), math.comb(n, k)) + tuple(fibre), dtype=complex))
        form.structurally_zero = True
        return form

    def max_abs(self):
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

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


def signed_total(coeff, values):
    """Per cell of a batch, the sum of coeff (B, t) times values (B, t, N, ...) over
    its t >= 1 terms, added left to right as in signed_sum: (B, N, ...)."""
    coeff = coeff.reshape(coeff.shape + (1,) * (values.ndim - 2))
    total = coeff[:, 0] * values[:, 0]
    for j in range(1, values.shape[1]):
        total = total + coeff[:, j] * values[:, j]
    return total


def residual_facts(total, coeff, values):
    """(residual, worst, dominant, modulus) of each cell of a batch, as (B,) arrays.

    total (B, N, ...) holds the cells' sums, and coeff (B, t) and values
    (B, t, N, ...) their t >= 1 terms in sum order. A residual is the largest
    coefficient modulus of a sum, which peaks at row `worst`; `dominant` is the
    term with the largest |coeff * value| there, of modulus `modulus`. The
    first maximum wins; NaN ranks above every number."""
    fibre = tuple(range(2, total.ndim))
    per_point = np.abs(total).max(axis=fibre, initial=0.0)
    worst = per_point.argmax(axis=1)
    at = np.arange(len(total))
    moduli = np.abs(coeff.reshape(coeff.shape + (1,) * len(fibre))
                    * values[at, :, worst]).max(axis=fibre, initial=0.0)
    dominant = moduli.argmax(axis=1)
    return per_point[at, worst], worst, dominant, moduli[at, dominant]


def theta_values(Jinv, dJ):
    """theta's values from stacked inverse Jacobians (N, n, n) and their derivatives
    (N, n, n, n); the rows may come from several clouds."""
    # order="F" makes the point axis the innermost loop of the contraction
    return np.einsum("pij,pajk->paik", Jinv, dJ, order="F")


def sharp_values(J, Jinv, omega):
    """The sharp pullback's values from stacked Jacobians, their inverses and the
    matrix 1-form's values at the image points; the rows may come from several clouds."""
    # coefficient of dz^b: sum over a of J[a, b] times the dz^a matrix, conjugated;
    # the point axis is the innermost loop of each contraction, as in theta_values
    pulled = np.einsum("pab,pajk->pbjk", J, omega, order="F")
    left = np.einsum("pij,pbjk->pbik", Jinv, pulled, order="F")
    return np.einsum("pbik,pkl->pbil", left, J, order="F")


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
