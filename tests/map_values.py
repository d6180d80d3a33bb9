"""Map values one call at a time: the references the label plan is checked against.

Maps keep no values, and the pass reads a chain only through a label plan
(cocycle.LabelPlan), which walks a cloud through the chain's pieces and
multiplies their Jacobians. These functions compute the same values
directly, for a named map or a chain: its image of a cloud, its Jacobians,
their inverses, the pullback of a k-form along it, and a word's letters as a
chain. A base value pulled back along a group word is, in the pass, the
label of a top chart extended by the word's letters
(cechgroup.PathLabeler.pulled_top); word_pullback is the other way round,
the value at the moved points pulled back along the word's chain, which
generic providers use. No check type reaches them, so they live with the
tests.
"""

import numpy as np

from cocyclekit.errors import ValidationError
from cocyclekit.forms import SampledForm, jacobian_minors, minor_pullback
from cocyclekit.holomap import as_cloud, invert_jacobians
from free_words import Chain


def image(m, points):
    """The image of the (N, n) cloud `points` under a map or a chain m."""
    P = as_cloud(points, m.n)
    if not isinstance(m, Chain):
        return m.eval(P)
    for p in reversed(m.pieces):
        P = p.eval(P)
    return P


def jacobian(m, points):
    """Jacobians of a map or a chain m; for a chain the chain rule, each piece but
    the outermost moving the points on to the next."""
    P = as_cloud(points, m.n)
    if not isinstance(m, Chain):
        return m.jacobian(P)
    pieces = m.pieces
    if not pieces:
        return np.broadcast_to(np.eye(m.n, dtype=complex), (len(P), m.n, m.n))
    inner, *outer = reversed(pieces)
    J = inner.jacobian(P)
    for p in outer:
        P = inner.eval(P)
        J = p.jacobian(P) @ J
        inner = p
    return J


def jacobian_inverse(m, points):
    """Inverse Jacobians of a map or a chain m; names the first singular point."""
    P = as_cloud(points, m.n)
    return invert_jacobians(jacobian(m, P), P)


def word_chain(action, word):
    """rho(word) as a chain of the action's generator maps (letter_maps)."""
    return Chain(action.letter_maps(word.letters), action.n, action.inverses)


def pullback_kform(phi, w, points):
    """Holomorphic pullback of a scalar k-form sampled at phi(points), via Jacobian minors."""
    n, k = w.n, w.k
    if phi.n != n:
        raise ValidationError("dimension mismatch")
    P = as_cloud(points, n)
    if w.structurally_zero:
        return SampledForm.zeros(n, k, P, ())
    if k == 0:
        return SampledForm(n, k, P, w.values)
    return SampledForm(n, k, P, minor_pullback(w.values, jacobian_minors(jacobian(phi, P), k)))


def word_pullback(action, value, J, G, P, pull):
    """value(J, G, points) pulled back along rho(pull) on P: evaluated at the moved
    points, then pulled back along the word's chain; value(J, G, P) itself for the
    identity word."""
    if pull.is_identity():
        return value(J, G, P)
    chain = word_chain(action, pull)
    return pullback_kform(chain, value(J, G, image(chain, P)), P)
