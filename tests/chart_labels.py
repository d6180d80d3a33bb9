"""One chart-path label at a time: the references the label plan is checked against.

A ChartPath is the record these references read: charts rho_0..rho_l off a
common source, each a chain of named maps (outermost first), and transitions
phi[p, q]: V_q -> V_p for p < q, any chains at all, on a source cloud. A
scenario's chart simplex has the transitions chart_p . inverse_q of its atlas
and reaches the label plan as tau's cells (dold_kan.simplex_tau); a ChartPath
also holds the paths of tau's cells (path_labels) and transitions no atlas can
express.

cf_label_top and theta_r are plans of a single label or a single theta_r,
so they share no key with any other label; plan_theta counts and takes one
theta_r in a given plan; add_top_label counts the top label of a whole chart
path in a plan; validate checks that a chart path's transitions reproduce its
charts on the samples; sub_simplex is the chart path of a face. No check type
reaches them, so they live with the tests.
"""

from typing import NamedTuple

import numpy as np

from cocyclekit.cocycle import LabelPlan, label_vanishes
from cocyclekit.errors import ValidationError, nan_worst
from cocyclekit.forms import SampledForm
from cocyclekit.holomap import ChainTable, as_cloud
from free_words import Chain
from map_values import image


class ChartPath(NamedTuple):
    charts: list            # rho_0..rho_l, tuples of named maps, outermost first
    transitions: dict       # (p, q), p < q -> phi[p, q], a tuple of named maps
    source_points: object   # the (N, n) complex source cloud
    inverses: frozenset     # declared pairs (f, g) with f . g = id (holomap.inverse_pairs)

    @property
    def level(self):
        return len(self.charts) - 1

    @property
    def n(self):
        return self.source_points.shape[1]


def chart_path(charts, transitions, points, inverses=frozenset()):
    """The ChartPath of these charts and transitions on the cloud `points`."""
    return ChartPath(list(charts), dict(transitions), as_cloud(points, charts[0][0].n),
                     inverses)


def entry_path(entry):
    """The ChartPath of a loaded telescoping or dk-validate entry: its atlas's charts,
    phi[p, q] the chain chart_p . inverse_q or the corrupt control's map, on its
    source points."""
    atlas, _, transitions = entry["simplex"]
    charts = [atlas.chart(str(p)) for p in range(len(entry["charts"]))]
    phi = {(p, q): (charts[p], atlas.inverse(str(q)))
           for q in range(len(charts)) for p in range(q)}
    phi.update(((int(a), int(b)), f) for (a, b), f in transitions)
    return chart_path([(c,) for c in charts], phi, entry["source_points"], atlas.inverses)


COHERENCE_TOL = 1e-9


def validate(s):
    """Check every transition of the chart path s reproduces the chart relation on
    the samples; the worst deviation, NaN ranking above every number."""
    worst = 0.0
    W = s.source_points

    def chain(maps):
        return Chain(maps, s.n, s.inverses)

    for (p, q), phi in s.transitions.items():
        if len(W):
            lhs = image(chain(phi), image(chain(s.charts[q]), W))
            worst = max(worst, float(np.max(np.abs(lhs - image(chain(s.charts[p]), W)))),
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
    table = ChainTable(s.inverses)
    phi = chain_id(table, s.transitions[r, s.level]) if r < s.level else 0
    return plan_theta(LabelPlan(None, table), chain_id(table, s.transitions[r - 1, r]), phi, Q)


def plan_theta(plan, f, phi, Q):
    """phi^# theta(f) of the transition chain f pulled back along the chain phi
    (chain ids of the plan's table), on the (N, n) cloud Q: counted in the plan
    (LabelPlan.count_theta), then taken (take_theta)."""
    return plan.take_theta(plan.count_theta(f, phi, Q), Q)


def chain_id(table, maps):
    """Id of the chain of the named maps `maps`, outermost first, in a ChainTable."""
    return table.chain(tuple(map(table.map, maps)))


def add_top_label(plan, s, points):
    """Count the top label of the chart path s, at level k = plan.T.arity, on
    `points` in the plan (LabelPlan.add_label), whose chain table reduces under
    the simplex's inverse pairs; its key, None for a structural zero."""
    k = plan.T.arity
    if s.level != k:
        raise ValidationError("level %d does not match arity %d" % (s.level, k))
    chains = [chain_id(plan.chains, f) for f in s.charts + list(s.transitions.values())]
    top, transitions = chains[k], dict(zip(s.transitions, chains[k + 1:]))
    ladder = tuple(transitions[(r - 1, r)] for r in range(1, k + 1))
    if label_vanishes(plan.T, s.n, ladder, plan.chains):
        return None
    return plan.add_label(ladder, tuple(transitions[(r, k)] for r in range(1, k)), top,
                          plan.cloud(as_cloud(points, s.n)))


def cf_label_top(s, T, points):
    """Top-cell label on source `points`: T applied to theta_1..theta_k, pulled back.

    A plan of this one label (LabelPlan). The label is structurally zero, and
    nothing is evaluated, when k > n or some theta_r comes from an affine
    transition.
    """
    P = as_cloud(points, s.n)
    plan = LabelPlan(T, ChainTable(s.inverses))
    key = add_top_label(plan, s, P)
    return SampledForm.zeros(s.n, T.arity, P, ()) if key is None else plan.take(key)


def sub_simplex(s, indices):
    """The chart path of the face of s over a strictly increasing index subset."""
    indices = tuple(indices)
    if list(indices) != sorted(set(indices)):
        raise ValidationError("indices must be strictly increasing")
    charts = [s.charts[i] for i in indices]
    trans = {}
    for a in range(len(indices)):
        for b in range(a + 1, len(indices)):
            trans[(a, b)] = s.transitions[indices[a], indices[b]]
    return ChartPath(charts, trans, s.source_points, s.inverses)
