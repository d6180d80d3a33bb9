"""theta and the sharp pullback of one map at a time, and the sum and difference of forms.

The pass evaluates theta only through the label plan (cocycle.LabelPlan), on
the named maps of chains and by the composition rule, and adds forms only in
signed sums (forms.signed_sum). These one-map functions are the references
the suites check the kernels (forms.theta_values, forms.sharp_values) and
the plan against. No check type reaches them, so they live with the tests.
"""

import numpy as np

from cocyclekit.errors import ValidationError
from cocyclekit.forms import SampledForm, sharp_values, theta_values
from cocyclekit.holomap import as_cloud
from map_values import jacobian, jacobian_inverse


def theta_vanishes(f):
    """True when theta(f) is structurally zero, i.e. f is affine."""
    return hasattr(f, "is_affine") and f.is_affine()


def theta(f, points):
    """J^{-1} dJ of the map f: coefficient of dz^a at z is J(z)^{-1} (dJ/dz^a)(z)."""
    n = f.n
    P = as_cloud(points, n)
    if theta_vanishes(f):
        return SampledForm.zeros(n, 1, P, (n, n))
    return SampledForm(n, 1, P, theta_values(jacobian_inverse(f, P), f.djacobian(P)))


def sharp_pullback(phi, omega, points):
    """phi-sharp of a matrix 1-form sampled at phi(points), on `points`.

    The 1-form part is pulled back along phi, the matrices are conjugated by
    its Jacobian.
    """
    n = omega.n
    if phi.n != n:
        raise ValidationError("dimension mismatch")
    P = as_cloud(points, n)
    if omega.structurally_zero:
        return SampledForm.zeros(n, 1, P, (n, n))
    return SampledForm(n, 1, P, sharp_values(jacobian(phi, P), jacobian_inverse(phi, P),
                                             omega.values))


def add(a, b):
    _compat(a, b)
    return SampledForm(a.n, a.k, a.points, a.values + b.values)


def sub(a, b):
    _compat(a, b)
    return SampledForm(a.n, a.k, a.points, a.values - b.values)


def _compat(a, b):
    if (a.n, a.k) != (b.n, b.k) or not (
            a.points is b.points or np.array_equal(a.points, b.points)):
        raise ValidationError("sampled forms disagree on degree or points")
