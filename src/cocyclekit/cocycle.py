"""Chart simplices and their Chern-Weil Dold-Kan labelings.

A level-l chart simplex is l+1 charts off a common source together with the
transition maps between their images. Applying a GL-invariant map of arity k
labels each k-cell with a holomorphic k-form pulled back to the source and
sampled on a cloud there (a SampledForm); the alternating face sums of those
labels telescope to zero, which is what verify_telescoping and dk_validate
measure.
"""

import itertools
import math
import warnings

import numpy as np

from . import forms
from .errors import DomainError, ValidationError
from .forms import (SampledForm, apply_invariant, jacobian_minors, pullback_kform,
                    sharp_values, signed_sum, theta_values, theta_vanishes)
from .holomap import as_cloud, identity_map, split_rows, stack
from .simplicial import DKSimplex, ElementOps, GradedComplex

MIN_SAMPLE_WARN = 8
COHERENCE_TOL = 1e-9


class ChartSimplex:
    """Charts rho_0..rho_l on a common source cloud plus transitions phi[p,q].

    Transitions are scenario-supplied maps V_q -> V_p for p < q, never derived
    by inversion. The constructor checks only the shape (a transition for
    every p < q); coherence (phi[p,q] of rho_q = rho_p on the samples) is
    checked by validate(), which a caller runs when it needs it.
    """

    def __init__(self, charts, transitions, source_points):
        self.charts = list(charts)
        self.level = len(self.charts) - 1
        if self.level < 0:
            raise ValidationError("need at least one chart")
        self.n = self.charts[0].n
        self.source_points = as_cloud(source_points, self.n)
        self.transitions = {}
        for (p, q), m in transitions.items():
            if not 0 <= p < q <= self.level:
                raise ValidationError("bad transition key (%d, %d)" % (p, q))
            self.transitions[(p, q)] = m
        for p in range(self.level + 1):
            for q in range(p + 1, self.level + 1):
                if (p, q) not in self.transitions:
                    raise ValidationError("missing transition (%d, %d)" % (p, q))

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
        return ChartSimplex(charts, trans, self.source_points)


def label_vanishes(T, n, ladder):
    """True when a top label is structurally zero before any map is evaluated: the
    arity of T exceeds the dimension n, or a transition of the theta ladder
    (phi[r-1, r] for r = 1..k) is affine."""
    return T.arity > n or any(theta_vanishes(f) for f in ladder)


class LabelPlan:
    """Top Chern-Weil labels of chart simplices, read through shared, counted keys.

    add(s, points), or add_label with a path's maps, counts one use of a label
    before anything is evaluated and, once per distinct label, the keys it
    reads:

    - a theta_r key (f, phi, Q): the transition f = phi[r-1, r], the pullback
      map phi = phi[r, l] and the top-image cloud Q; at r = l, theta_r is
      theta(f) on Q and its key is the theta key (f, Q);
    - a theta key (f, X), once per distinct theta_r key, on X = phi(Q);
    - a minors key (the top chart's pieces, P): the k x k minors of the top
      chart's Jacobian on the source cloud P, which the label's pullback reads;
    - the map memo entries that evaluation fills: phi on Q and f on X.

    A label's key is its transitions, its top chart and its source cloud.
    Clouds enter keys as ids of their exact bytes, so equal clouds in distinct
    arrays share keys. A structurally zero label (label_vanishes) has the key
    None and reads no map.

    Keys are evaluated in batches, one stage at a time: the theta keys of one
    transition f, the theta_r keys of one pullback map phi, the minors keys of
    one top chart, and the labels of one top chart. take(key) evaluates a key
    that is not held together with the other counted keys of its stage and
    map not yet evaluated, in count order, while the batch's largest array
    stays within forms.BATCH_ENTRIES complex entries (the first key always
    joins). A batch stacks its clouds into one array for one kernel call per
    step (a map's program, the inversion, each einsum, apply_invariant) and
    splits the rows back per key; maps memoize only the real clouds
    (HoloMap.stacked). Each key is held from its evaluation to its last use,
    then dropped. A map memo entry that the plan fills is forgotten
    (HoloMap.forget) once no later key reads it; one it finds filled is kept.

    When a batch raises (SingularJacobianError, DomainError), the key taken is
    evaluated again alone, so the error is the one that key raises on its own
    cloud, and the other keys wait for their own takes. A key's reads are used
    up only once its value exists, so an error changes no count, and taking
    the key again raises it again.
    """

    def __init__(self, T):
        self.T = T
        self._uses = {}     # key -> uses not yet taken
        self._held = {}     # key -> value, from its evaluation to its last use
        self._stage = {}    # key not yet evaluated -> its (stage, map)
        self._pending = {}  # (stage, map) -> {key: (entries, arguments)}, in count order
        self._ranks = {}    # label key -> sort key of the clouds it reads
        self._memo = {}     # (map, cloud id) -> keys still to read a memo entry it filled
        self._images = {}   # (map, cloud id) -> id of the map's image of the cloud
        self._clouds = {}   # exact bytes of a cloud -> its id
        self._points = []   # cloud id -> the cloud

    def __len__(self):
        """Keys counted or held and not yet released."""
        return len(self._uses) + len(self._held) + len(self._memo)

    def _cloud(self, P):
        data = P.tobytes()
        cid = self._clouds.get(data)
        if cid is None:
            cid = self._clouds[data] = len(self._points)
            self._points.append(P)
        return cid

    def _image(self, phi, qid):
        """Id of the cloud phi(Q) of the cloud with id qid."""
        xid = self._images.get((phi, qid))
        if xid is None:
            xid = self._images[(phi, qid)] = self._cloud(phi.eval(self._points[qid]))
        return xid

    def _count(self, key):
        """One more use of key; True on the first, when the caller records how to evaluate it."""
        uses = self._uses.get(key, 0)
        self._uses[key] = uses + 1
        return not uses

    def _pend(self, key, stage, m, entries, args):
        """Key waits in the batch of its stage and map m, with the complex entries of its
        largest array and the arguments that the stage evaluates it from."""
        self._stage[key] = (stage, m)
        self._pending.setdefault((stage, m), {})[key] = (entries, args)

    def _count_memo(self, m, cid):
        """One more read of m's memo entry on a cloud, before anything fills it; an
        entry already filled is not the plan's and is not counted."""
        reads = self._memo.get((m, cid))
        if reads is not None:
            self._memo[(m, cid)] = reads + 1
        elif not m.remembers(self._points[cid]):
            self._memo[(m, cid)] = 1

    def take(self, key):
        """The value of a counted key, evaluated with its batch if not held; dropped after
        its last use."""
        value = self._get(key)
        self._use(key)
        return value

    def _get(self, key):
        """The value of a counted key, evaluated with its batch if it is not held, and held."""
        if key not in self._held:
            self._evaluate(key)
        return self._held[key]

    def _evaluate(self, key):
        """Evaluate key's batch, or key alone when the batch raises."""
        group = self._stage[key]
        pending = self._pending[group]
        batch, total = [key], pending[key][0]
        for other, (entries, _) in pending.items():
            if other != key:
                if total + entries > forms.BATCH_ENTRIES:
                    break
                batch.append(other)
                total += entries
        stage = group[0]
        try:
            values = stage([pending[k][1] for k in batch])
        except DomainError:
            if len(batch) == 1:
                raise
            batch = [key]
            values = stage([pending[key][1]])
        for k, value in zip(batch, values):
            self._held[k] = value
            del pending[k], self._stage[k]
        if not pending:
            del self._pending[group]

    def _use(self, key):
        """One use of a held key taken; the last drops it."""
        uses = self._uses.pop(key) - 1
        if uses:
            self._uses[key] = uses
        else:
            del self._held[key]
            self._ranks.pop(key, None)

    def _release(self, m, cid):
        """One read of m's memo entry on a cloud done; the last forgets an entry it filled."""
        reads = self._memo.pop((m, cid), None)
        if reads is None:
            return
        if reads > 1:
            self._memo[(m, cid)] = reads - 1
        else:
            m.forget(self._points[cid])

    def _add_theta(self, f, xid):
        """Count theta(f) on the cloud with id xid; its key."""
        key = (f, xid)
        if self._count(key):
            X = self._points[xid]
            self._pend(key, self._thetas, f, len(X) * f.n ** 3, (f, X, xid))
            self._count_memo(f, xid)
        return key

    def _add_theta_r(self, f, phi, qid):
        """Count theta_r of the transition f pulled back along phi (None at the top) on
        the cloud with id qid; its key."""
        if phi is None:
            return self._add_theta(f, qid)
        key = (f, phi, qid)
        if self._count(key):
            self._count_memo(phi, qid)
            Q = self._points[qid]
            self._pend(key, self._theta_rs, phi, len(Q) * phi.n ** 3,
                       (phi, self._add_theta(f, self._image(phi, qid)), Q, qid))
        return key

    def add_theta_r(self, s, r, Q):
        """Count theta_r of s on the top-image cloud Q; its key, None when f is affine."""
        if not 1 <= r <= s.level:
            raise ValidationError("r must be in 1..%d" % s.level)
        f = s.transition(r - 1, r)
        if theta_vanishes(f):
            return None
        return self._add_theta_r(f, s.transition(r, s.level) if r < s.level else None,
                                 self._cloud(Q))

    def add(self, s, points):
        """Count the top label of s on `points`; its key, None for a structural zero."""
        k = self.T.arity
        if s.level != k:
            raise ValidationError("level %d does not match arity %d" % (s.level, k))
        P = as_cloud(points, s.n)
        ladder = tuple(s.transition(r - 1, r) for r in range(1, k + 1))
        if label_vanishes(self.T, s.n, ladder):
            return None
        return self.add_label(ladder, tuple(s.transition(r, k) for r in range(1, k)),
                              s.charts[-1], P)

    def add_label(self, ladder, pullbacks, top, P):
        """Count the top label of a chart path on the (N, n) source cloud P; its key.

        `ladder` holds the transitions phi[r-1, r] for r = 1..k, none affine
        (label_vanishes), `pullbacks` the maps phi[r, k] for r = 1..k-1 and
        `top` the top chart.
        """
        pieces, pid = tuple(getattr(top, "pieces", (top,))), self._cloud(P)
        key = (ladder, pullbacks, pieces, pid)
        if self._count(key):
            n, k = top.n, self.T.arity
            qid = self._cloud(top.eval(P))
            reads = [self._add_theta_r(f, phi, qid) for f, phi in zip(ladder, pullbacks + (None,))]
            minors = (pieces, pid)
            if self._count(minors):
                self._pend(minors, self._minors, pieces, len(P) * (math.comb(n, k) * k) ** 2,
                           (top, P))
            self._pend(key, self._labels, pieces,
                       len(P) * k * math.comb(n, k) * math.factorial(k) * n * n,
                       (top, P, reads, minors))
            self._ranks[key] = (qid,) + tuple(self._images[(phi, qid)]
                                              for phi in reversed(pullbacks))
        return key

    def rank(self, key):
        """Sort key of a counted label: ids of the clouds its theta ladder reads, top first.

        Labels evaluated in rank order run those that share a top image, and
        then a theta_r, together, so few keys are held at once.
        """
        return self._ranks[key]

    # the stages: each evaluates a batch of argument tuples, one value per tuple,
    # and uses up the batch's reads only once every value exists

    def _thetas(self, batch):
        f, clouds = batch[0][0], [X for _, X, _ in batch]
        values = theta_values(f.stacked("jacobian_inverse", clouds), f.djacobian(stack(clouds)))
        for _, _, xid in batch:
            self._release(f, xid)
        return [SampledForm(f.n, 1, X, v) for X, v in zip(clouds, split_rows(values, clouds))]

    def _theta_rs(self, batch):
        phi, clouds = batch[0][0], [Q for _, _, Q, _ in batch]
        omegas = stack([self._get(theta_key).values for _, theta_key, _, _ in batch])
        values = sharp_values(phi.stacked("jacobian", clouds),
                              phi.stacked("jacobian_inverse", clouds), omegas)
        for _, theta_key, _, qid in batch:
            self._use(theta_key)
            self._release(phi, qid)
        return [SampledForm(phi.n, 1, Q, v) for Q, v in zip(clouds, split_rows(values, clouds))]

    def _minors(self, batch):
        clouds = [P for _, P in batch]
        values = jacobian_minors(stack([top.jacobian(P) for top, P in batch]), self.T.arity)
        return split_rows(values, clouds)

    def _labels(self, batch):
        top, clouds, k = batch[0][0], [P for _, P, _, _ in batch], self.T.arity
        thetas = [[self._get(r) for r in reads] for _, _, reads, _ in batch]
        minors = stack([self._get(m) for _, _, _, m in batch])
        Q = stack([omegas[0].points for omegas in thetas])
        wedge = apply_invariant(self.T, [SampledForm(top.n, 1, Q, stack(
            [omegas[r].values for omegas in thetas])) for r in range(k)])
        values = pullback_kform(top, wedge, stack(clouds), minors).values
        for _, _, reads, m in batch:
            for r in reads + [m]:
                self._use(r)
        return [SampledForm(top.n, k, P, v) for P, v in zip(clouds, split_rows(values, clouds))]


def theta_r(s, r, points):
    """theta of the (r-1, r) transition pulled back to the top image via phi[r, l].

    `points` lie in the top image V_l. A plan of this one theta_r (LabelPlan).
    """
    Q = as_cloud(points, s.n)
    plan = LabelPlan(None)
    key = plan.add_theta_r(s, r, Q)
    return SampledForm.zeros(s.n, 1, Q, (s.n, s.n)) if key is None else plan.take(key)


def cf_label_top(s, T, points):
    """Top-cell label on source `points`: T applied to theta_1..theta_k, pulled back.

    A plan of this one label (LabelPlan). The label is structurally zero, and
    nothing is evaluated, when k > n or some theta_r comes from an affine
    transition.
    """
    return face_labels([s], T, as_cloud(points, s.n))[0]


def face_labels(faces, T, P):
    """Top labels of the chart simplices `faces` on the (N, n) cloud P, through one LabelPlan."""
    plan = LabelPlan(T)
    keys = [plan.add(face, P) for face in faces]
    return [SampledForm.zeros(face.n, T.arity, P, ()) if key is None else plan.take(key)
            for face, key in zip(faces, keys)]


def cf_map(s, T):
    """Dold-Kan labeling of a chart simplex: k-cells get face labels, the rest zero."""
    k = T.arity
    P = s.source_points
    top = list(itertools.combinations(range(s.level + 1), k + 1)) if s.level >= k else []
    faces = dict(zip(top, face_labels([s.sub_simplex(cell) for cell in top], T, P)))
    labels = {}
    for l in range(1, s.level + 1):
        for cell in itertools.combinations(range(s.level + 1), l + 1):
            labels[cell] = faces[cell] if l == k else SampledForm.zeros(s.n, min(l, s.n), P, ())
    for i in range(s.level + 1):
        labels[(i,)] = SampledForm.zeros(s.n, 0, P, ())
    return DKSimplex(s.level, labels)


def shifted_form_complex(n, k, points):
    """The complex holding a single holomorphic k-form degree at -k, zero elsewhere.

    Elements are SampledForms on a fixed cloud; the differential is the zero
    map, so the DK condition reduces to vanishing alternating face sums.
    """
    P = as_cloud(points, n)

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
    faces = [s.sub_simplex(tuple(i for i in range(k + 2) if i != j)) for j in range(k + 2)]
    labels = face_labels(faces, T, P)
    residual = signed_sum(s.n, k, P, (((-1) ** j, label) for j, label in enumerate(labels)))
    point, max_res = residual.worst_point() or ((), 0.0)
    return {
        "max_residual": max_res,
        "pass": max_res <= tol,
        "tolerance": tol,
        "worst_point": [[c.real, c.imag] for c in point],
    }
