"""Chart simplices and their Chern-Weil Dold-Kan labelings.

A level-l chart simplex is l+1 charts off a common source together with the
transition maps between their images. Applying a GL-invariant map of arity k
labels each k-cell with a holomorphic k-form pulled back to the source and
sampled on a cloud there (a SampledForm); the alternating face sums of those
labels telescope to zero, which is what verify_telescoping and dk_validate
measure.
"""

import itertools
import warnings

import numpy as np

from .errors import ValidationError
from .forms import (SampledForm, apply_invariant, pullback_kform, sharp_pullback,
                    signed_sum, theta, theta_vanishes)
from .holomap import as_cloud, identity_map
from .simplicial import DKSimplex, ElementOps, GradedComplex

MIN_SAMPLE_WARN = 8
COHERENCE_TOL = 1e-9


class ChartSimplex:
    """Charts rho_0..rho_l on a common source cloud plus transitions phi[p,q].

    Transitions are scenario-supplied maps V_q -> V_p for p < q; coherence
    (phi[p,q] of rho_q = rho_p on the samples) is checked, never derived by
    inversion.
    """

    def __init__(self, charts, transitions, source_points, validate=True):
        self.charts = list(charts)
        self.level = len(self.charts) - 1
        if self.level < 0:
            raise ValidationError("need at least one chart")
        self.n = self.charts[0].n
        self.source_points = as_cloud(source_points, self.n)[0]
        self.transitions = {}
        for (p, q), m in transitions.items():
            if not 0 <= p < q <= self.level:
                raise ValidationError("bad transition key (%d, %d)" % (p, q))
            self.transitions[(p, q)] = m
        for p in range(self.level + 1):
            for q in range(p + 1, self.level + 1):
                if (p, q) not in self.transitions:
                    raise ValidationError("missing transition (%d, %d)" % (p, q))
        if validate:
            self.validate()

    def transition(self, p, q):
        """phi[p,q]: V_q -> V_p; the diagonal is the identity."""
        if p == q:
            return identity_map(self.n)
        return self.transitions[(p, q)]

    def validate(self):
        """Check every transition reproduces the chart relation on the samples."""
        worst = 0.0
        W = self.source_points
        for (p, q), phi in self.transitions.items():
            if len(W):
                lhs = phi.eval(self.charts[q].eval(W))
                worst = max(worst, float(np.max(np.abs(lhs - self.charts[p].eval(W)))))
        if worst > COHERENCE_TOL:
            raise ValidationError("chart simplex incoherent: max deviation %.3e > %.1e"
                                  % (worst, COHERENCE_TOL))
        return worst

    def sub_simplex(self, indices):
        """Face chart simplex over a strictly increasing index subset."""
        indices = tuple(indices)
        if list(indices) != sorted(set(indices)):
            raise ValidationError("indices must be strictly increasing")
        charts = [self.charts[i] for i in indices]
        trans = {}
        for a in range(len(indices)):
            for b in range(a + 1, len(indices)):
                trans[(a, b)] = self.transition(indices[a], indices[b])
        return ChartSimplex(charts, trans, self.source_points, validate=False)


def theta_r(s, r, points):
    """theta of the (r-1, r) transition pulled back to the top image via phi[r, l].

    `points` lie in the top image V_l.
    """
    if not 1 <= r <= s.level:
        raise ValidationError("r must be in 1..%d" % s.level)
    f = s.transition(r - 1, r)
    if r == s.level:
        return theta(f, points)
    phi = s.transition(r, s.level)
    return sharp_pullback(phi, theta(f, phi.eval(points)), points)


def cf_label_top(s, T, points):
    """Top-cell label on source `points`: T applied to theta_1..theta_k, pulled back.

    The label is structurally zero, and nothing is evaluated, when k > n or
    some theta_r comes from an affine transition.
    """
    k = T.arity
    if s.level != k:
        raise ValidationError("level %d does not match arity %d" % (s.level, k))
    P = as_cloud(points, s.n)[0]
    if k > s.n or any(theta_vanishes(s.transition(r - 1, r)) for r in range(1, k + 1)):
        return SampledForm.zeros(s.n, k, P, ())
    top = s.charts[-1]
    Q = top.eval(P)
    kform = apply_invariant(T, [theta_r(s, r, Q) for r in range(1, k + 1)])
    return pullback_kform(top, kform, P)


def cf_map(s, T):
    """Dold-Kan labeling of a chart simplex: k-cells get face labels, the rest zero."""
    k = T.arity
    P = s.source_points
    labels = {}
    for l in range(1, s.level + 1):
        for cell in itertools.combinations(range(s.level + 1), l + 1):
            if l == k and s.level >= k:
                labels[cell] = cf_label_top(s.sub_simplex(cell), T, P)
            else:
                labels[cell] = SampledForm.zeros(s.n, min(l, s.n), P, ())
    for i in range(s.level + 1):
        labels[(i,)] = SampledForm.zeros(s.n, 0, P, ())
    return DKSimplex(s.level, labels)


def shifted_form_complex(n, k, points):
    """The complex holding a single holomorphic k-form degree at -k, zero elsewhere.

    Elements are SampledForms on a fixed cloud; the differential is the zero
    map, so the DK condition reduces to vanishing alternating face sums.
    """
    P = as_cloud(points, n)[0]

    def degree_k(degree):
        return min(-degree, n) if degree != -k else k

    ops = ElementOps(
        add=lambda x, y: x.add(y),
        scale=lambda a, x: x.scale(a),
        norm=lambda x: x.max_abs(),
        zero=lambda degree: SampledForm.zeros(n, degree_k(degree), P, ()),
    )

    def diff(degree, x):
        return ops.zero(degree + 1)

    return GradedComplex(range(-max(k, 1), 1), diff, ops)


def verify_telescoping(s, T, tol=1e-7):
    """Directly evaluate the alternating face sum of cf labels on a level-(k+1) simplex.

    Every face label is built from the supplied transitions, so an incoherent
    transition shows up as a residual above tolerance.
    """
    k = T.arity
    if s.level != k + 1:
        raise ValidationError("need a level-%d simplex for arity %d" % (k + 1, k))
    P = s.source_points
    if len(P) < MIN_SAMPLE_WARN:
        warnings.warn("only %d sample points supplied; pointwise verification is weak"
                      % len(P))
    labels = []
    for j in range(k + 2):
        face = s.sub_simplex(tuple(i for i in range(k + 2) if i != j))
        labels.append(((-1) ** j, cf_label_top(face, T, P)))
    residual = signed_sum(s.n, k, P, labels)
    point, max_res = residual.worst_point() or ((), 0.0)
    return {
        "max_residual": max_res,
        "pass": max_res <= tol,
        "tolerance": tol,
        "worst_point": [[c.real, c.imag] for c in point],
    }
