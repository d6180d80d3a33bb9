"""One chart-simplex label at a time: the references the label plan is checked against.

cf_label_top and theta_r are plans of a single label or a single theta_r,
so they share no key with any other label; validate checks that a chart
simplex's transitions reproduce its charts on the samples; path_simplex is
the chart simplex of a labeled cochain's path. No check type reaches them,
so they live with the tests.
"""

import numpy as np

from cocyclekit.cocycle import ChartSimplex, LabelPlan, face_labels
from cocyclekit.errors import ValidationError, nan_worst
from cocyclekit.forms import SampledForm
from cocyclekit.holomap import MapChain, as_chain, as_cloud

COHERENCE_TOL = 1e-9


def validate(s):
    """Check every transition reproduces the chart relation on the samples; the
    worst deviation, NaN ranking above every number."""
    worst = 0.0
    W = s.source_points
    for (p, q), phi in s.transitions.items():
        if len(W):
            lhs = phi.eval(s.charts[q].eval(W))
            worst = max(worst, float(np.max(np.abs(lhs - s.charts[p].eval(W)))),
                        key=nan_worst)
    if not worst <= COHERENCE_TOL:
        raise ValidationError("chart simplex incoherent: max deviation %.3e > %.1e"
                              % (worst, COHERENCE_TOL))
    return worst


def theta_r(s, r, points):
    """theta of the (r-1, r) transition pulled back to the top image via phi[r, l].

    `points` lie in the top image V_l. A plan of this one theta_r (LabelPlan):
    the sum of its terms, none when the transition is affine.
    """
    Q = as_cloud(points, s.n)
    if not 1 <= r <= s.level:
        raise ValidationError("r must be in 1..%d" % s.level)
    f = as_chain(s.transition(r - 1, r))
    phi = as_chain(s.transition(r, s.level)) if r < s.level else MapChain((), s.n)
    plan = LabelPlan(None)
    keys = plan._add_rung(f, phi, plan._cloud(Q))[0]
    if not keys:
        return SampledForm.zeros(s.n, 1, Q, (s.n, s.n))
    values = [plan.take(key) for key in keys]
    return SampledForm(s.n, 1, Q, sum(values[1:], values[0]))


def cf_label_top(s, T, points):
    """Top-cell label on source `points`: T applied to theta_1..theta_k, pulled back.

    A plan of this one label (LabelPlan). The label is structurally zero, and
    nothing is evaluated, when k > n or some theta_r comes from an affine
    transition.
    """
    return face_labels([s], T, as_cloud(points, s.n))[0]


def path_simplex(labeler, vertices, points):
    """The chart simplex of a path's vertices (cechgroup.PathLabeler), on the source
    cloud `points`."""
    charts = [labeler.chart_for(v) for v in vertices]
    transitions = {}
    for a in range(len(vertices)):
        for b in range(a + 1, len(vertices)):
            transitions[(a, b)] = labeler.transition(vertices[a], vertices[b])
    return ChartSimplex(charts, transitions, points)
