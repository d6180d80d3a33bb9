"""Chern-Weil labels of chart paths, read through one shared, counted plan.

A chart path is charts off a common source together with the transition maps
between their images: a path through a Cech/group cell of cechgroup's tau, or
the faces of a chart simplex, which is a cover whose charts share one cloud.
Applying a GL-invariant map of arity k labels the path's top k-cell with a
holomorphic k-form pulled back to the source and sampled on a cloud there (a
SampledForm). On a chart simplex these labels are tau's (k, 0) values on
increasing tuples, and their alternating face sums its Cech differential there,
which the telescoping and dk-validate checks measure.
"""

import math

import numpy as np

from . import forms
from .errors import DomainError
from .forms import (SampledForm, apply_invariant, jacobian_minors, minor_pullback,
                    sharp_values, theta_values)
from .holomap import ChainTable, invert_jacobians, split_rows, stack


def label_vanishes(T, n, ladder, chains):
    """True when a top label is structurally zero before any map is evaluated: the
    arity of T exceeds the dimension n, or a transition chain of the theta ladder
    (phi[r-1, r] for r = 1..k, ids of the ChainTable chains) is affine, every
    piece of it being affine."""
    return T.arity > n or any(map(chains.is_affine, ladder))


class LabelPlan:
    """Top Chern-Weil labels of chart paths, read through shared, counted keys.

    Transitions and charts are chains of named maps, held as ids of a
    holomap.ChainTable that the plan shares with whoever built them: a
    cechgroup.PathLabeler, whose cells' paths include every face of a chart
    simplex (Scenario._simplex), or the theta-composition check.
    By the composition rule theta(f . g) = g^# theta(f) + theta(g), for
    f = p_1 . ... . p_m and a pullback chain phi,
    phi^# theta(f) = sum over j of (p_{j+1} . ... . p_m . phi)^# theta(p_j),
    an affine piece adding no term; so only named maps are differentiated.
    The terms of a rung are the table's (ChainTable.rungs), decided once per
    (f, phi) for every plan of the table. count_theta and take_theta give
    that sum, which the theta-composition check compares with theta of the
    symbolic composite; the check counts every pair's thetas before it takes
    any.

    add_label, with the chain ids of a chart path, counts one use of a label
    before anything is evaluated and, once per distinct label, the keys it
    reads:

    - a theta_r key (p, psi, Q) per term of the rung r: a non-affine piece p of
      the transition f = phi[r-1, r], the chain psi of its tail after
      phi = phi[r, l] and the top-image cloud Q; when psi is the identity
      chain the term is the theta key (p, Q);
    - a theta key (p, X), once per distinct theta_r key, on X = psi(Q);
    - a minors key ("minors", top chart, P): the k x k minors of the top
      chart's Jacobian on the source cloud P, which the label's pullback reads;
    - a Jacobian key ("jacobian", m, X) of the named map m on the cloud X: the
      minors key reads one per piece of the top chart, on the cloud it maps;
    - an inverse key ("jacobian_inverse", m, X), whose value is the Jacobians
      and their inverses: a theta_r key reads one per piece of psi, on the
      cloud it maps, and a theta key one of p on X. It reads the Jacobian key.

    A label's key is the tuple of its ladder's chain ids, the tuple of its
    pullbacks' chain ids, its top chart's chain id and its source cloud's id,
    all small ints, so no map or chain object is built or hashed per label.
    Clouds enter keys as ids of their exact bytes, so equal clouds in distinct
    arrays share keys. A structurally zero label (label_vanishes) has the key
    None and reads no map. Maps keep no values (holomap.HoloMap): the plan
    evaluates a map on a cloud when it counts the cloud's image.

    Keys are evaluated in batches, one stage at a time: the Jacobian keys of
    one named map, its inverse keys, its theta keys, all theta_r keys, the
    minors keys of one top chart, and the labels of one top chart. take(key)
    evaluates a key that is not held together with the other counted keys of
    its stage and map not yet evaluated, in count order, while the batch's
    largest array stays within forms.BATCH_ENTRIES complex entries (the first
    key always joins). A batch stacks its clouds into one array for one
    kernel call per step (a map's program, the inversion, each einsum,
    apply_invariant) and splits the rows back per key, so a held Jacobian has
    the rows of one cloud, never of a stack; held Jacobians and inverses are
    read-only, since every key that reads them shares them. A chain's
    Jacobian is the product of its pieces', its inverse the reversed product
    of theirs, so no composite is inverted. Each key is held from its
    evaluation to its last use, then dropped, so a plan whose keys are all
    taken holds nothing.

    When a batch raises (SingularJacobianError, DomainError), the key taken is
    evaluated again alone, so the error is the one that key raises on its own
    cloud, and the other keys wait for their own takes. A key's reads are used
    up only once its value exists, so an error changes no count, and taking
    the key again raises it again.
    """

    def __init__(self, T, chains=None):
        self.T = T
        self.chains = ChainTable() if chains is None else chains
        self._maps = self.chains.maps
        self._uses = {}     # key -> uses not yet taken
        self._held = {}     # key -> value, from its evaluation to its last use
        self._stage = {}    # key not yet evaluated -> its (stage, map or chain id)
        self._pending = {}  # (stage, map or chain id) -> {key: (entries, arguments)}
        self._ranks = {}    # label key -> sort key of the clouds it reads
        self._images = {}   # (map id, cloud id) -> id of the map's image of the cloud
        self._clouds = {}   # exact bytes of a cloud -> its id
        self._points = []   # cloud id -> the cloud

    def __len__(self):
        """Keys counted or held and not yet dropped."""
        return len(self._uses) + len(self._held)

    def cloud(self, P):
        """Id of the (N, n) cloud P, equal for clouds with equal bytes."""
        data = P.tobytes()
        cid = self._clouds.get(data)
        if cid is None:
            cid = self._clouds[data] = len(self._points)
            self._points.append(P)
        return cid

    def _image(self, m, cid):
        """Id of the cloud m(P) of the cloud P with id cid, for the named map with id m."""
        xid = self._images.get((m, cid))
        if xid is None:
            xid = self._images[(m, cid)] = self.cloud(self._maps[m].eval(self._points[cid]))
        return xid

    def _count(self, key):
        """One more use of key; True on the first, when the caller records how to evaluate it."""
        uses = self._uses.get(key, 0)
        self._uses[key] = uses + 1
        return not uses

    def _pend(self, key, stage, m, entries, args):
        """Key waits in the batch of its stage and map or chain id m, with the complex
        entries of its largest array and the arguments that the stage evaluates it from."""
        self._stage[key] = (stage, m)
        self._pending.setdefault((stage, m), {})[key] = (entries, args)

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

    def _add_jacobian(self, m, cid, inverse):
        """Count the Jacobians of the named map m on the cloud with id cid, or with
        `inverse` the Jacobians and their inverses, which read the former; its key."""
        key = ("jacobian_inverse" if inverse else "jacobian", m, cid)
        if self._count(key):
            P = self._points[cid]
            entries = len(P) * P.shape[1] ** 2
            if inverse:
                self._pend(key, self._inverses, m, entries, self._add_jacobian(m, cid, False))
            else:
                self._pend(key, self._jacobians, m, entries, key)
        return key

    def _add_theta(self, p, xid):
        """Count theta(p) of the named map p on the cloud with id xid; its key."""
        key = (p, xid)
        if self._count(key):
            X = self._points[xid]
            self._pend(key, self._thetas, p, len(X) * X.shape[1] ** 3,
                       (p, X, self._add_jacobian(p, xid, True)))
        return key

    def _add_term(self, p, psi, qid):
        """Count psi^# theta(p), for the named map p and the chain psi, on the cloud with
        id qid; (its key, the id of the cloud psi(Q) that theta(p) reads)."""
        if not psi:
            return self._add_theta(p, qid), qid
        key = (p, psi, qid)
        first, xid, reads = self._count(key), qid, []
        for m in reversed(self.chains.chains[psi]):
            if first:
                reads.append(self._add_jacobian(m, xid, True))
            xid = self._image(m, xid)
        if first:
            Q = self._points[qid]
            self._pend(key, self._theta_rs, None, len(Q) * Q.shape[1] ** 3,
                       (self._add_theta(p, xid), Q, tuple(reads)))
        return key, xid

    def _add_rung(self, f, phi, qid):
        """Count theta_r of the transition chain f pulled back along the chain phi on the
        cloud with id qid, one term per non-affine piece of f; (term keys, their clouds)."""
        terms = [self._add_term(p, psi, qid) for p, psi in self.chains.rungs(f, phi)]
        return tuple(key for key, _ in terms), tuple(xid for _, xid in terms)

    def count_theta(self, f, phi, Q):
        """Count phi^# theta(f) of the transition chain f pulled back along the chain phi
        (chain ids of the plan's table) on the (N, n) cloud Q, evaluating nothing but
        the maps that carry Q to the clouds its terms read; the keys of its theta_r
        terms, for take_theta. Thetas counted together are evaluated together."""
        return self._add_rung(f, phi, self.cloud(Q))[0]

    def take_theta(self, keys, Q):
        """phi^# theta(f) on Q from the keys count_theta gave: its theta_r terms taken
        and added in order, or the structural zero when every piece of f is affine."""
        n = Q.shape[1]
        if not keys:
            return SampledForm.zeros(n, 1, Q, (n, n))
        values = [self.take(key) for key in keys]
        return SampledForm(n, 1, Q, sum(values[1:], values[0]))

    def add_label(self, ladder, pullbacks, top, pid):
        """Count the top label of a chart path on the source cloud with id pid (cloud);
        its key.

        `ladder` holds the chain ids of the transitions phi[r-1, r] for
        r = 1..k, none affine (label_vanishes), `pullbacks` those of phi[r, k]
        for r = 1..k-1 and `top` the top chart's chain id.
        """
        key = (ladder, pullbacks, top, pid)
        if self._count(key):
            P = self._points[pid]
            n, k = P.shape[1], self.T.arity
            minors = ("minors", top, pid)
            first, qid, reads = self._count(minors), pid, []
            for m in reversed(self.chains.chains[top]):
                if first:
                    reads.append(self._add_jacobian(m, qid, False))
                qid = self._image(m, qid)
            if first:
                self._pend(minors, self._minors, top, len(P) * (math.comb(n, k) * k) ** 2,
                           (P, tuple(reads)))
            rungs = [self._add_rung(f, phi, qid) for f, phi in zip(ladder, pullbacks + (0,))]
            self._pend(key, self._labels, top,
                       len(P) * k * math.comb(n, k) * math.factorial(k) * n * n,
                       (P, [terms for terms, _ in rungs], minors, qid))
            self._ranks[key] = (qid,) + tuple(x for _, xids in reversed(rungs) for x in xids)
        return key

    def rank(self, key):
        """Sort key of a counted label: ids of the clouds its theta terms read, top rung first.

        Labels evaluated in rank order run those that share a top image, and
        then theta terms, together, so few keys are held at once.
        """
        return self._ranks[key]

    def _chain_jacobians(self, reads, clouds, inverse):
        """[J] or, with `inverse`, [J, J^-1]: the stacked Jacobians of chains on their
        clouds, and their inverses, from the held keys of their pieces, innermost
        first (`reads`, tuples): Jacobian keys, or inverse keys with `inverse`. A
        chain's Jacobian is the product of its pieces', its inverse the reversed
        product of theirs, and one without pieces has the identity. Each depth is one
        stacked product over the distinct runs of innermost pieces that long: a run
        multiplies its outermost piece's J on the left of its inner run's, and J^-1
        on the right, so chains that start alike share those products."""
        sides = 2 if inverse else 1
        products = {}  # run of piece keys, innermost first -> its [J] or [J, J^-1]
        for depth in range(max(map(len, reads))):
            runs = list(dict.fromkeys(keys[:depth + 1] for keys in reads if len(keys) > depth))
            values = [self._get(run[-1]) for run in runs]
            parts = [self._points[run[0][2]] for run in runs]
            blocks = []
            for side in range(sides):
                rows = stack([value[side] for value in values] if inverse else values)
                if depth:
                    below = stack([products[run[:-1]][side] for run in runs])
                    rows = below @ rows if side else rows @ below
                blocks.append(split_rows(rows, parts))
            products.update(zip(runs, zip(*blocks)))
        n = clouds[0].shape[1]
        eye = np.eye(n, dtype=complex)
        return [np.concatenate([products[keys][side] if keys else
                                np.broadcast_to(eye, (len(P), n, n))
                                for keys, P in zip(reads, clouds)]) for side in range(sides)]

    # the stages: each evaluates a batch of argument tuples, one value per tuple,
    # and uses up the keys it read only once every value exists

    def _jacobians(self, batch):
        m, clouds = batch[0][1], [self._points[cid] for _, _, cid in batch]
        rows = self._maps[m].jacobian(stack(clouds))
        rows.flags.writeable = False
        return split_rows(rows, clouds)

    def _inverses(self, batch):
        clouds = [self._points[cid] for _, _, cid in batch]
        Js = [self._get(key) for key in batch]
        rows = invert_jacobians(stack(Js), stack(clouds))
        rows.flags.writeable = False
        for key in batch:
            self._use(key)
        return list(zip(Js, split_rows(rows, clouds)))

    def _thetas(self, batch):
        p, clouds = batch[0][0], [X for _, X, _ in batch]
        Jinv = stack([self._get(key)[1] for _, _, key in batch])
        values = theta_values(Jinv, self._maps[p].djacobian(stack(clouds)))
        for _, _, key in batch:
            self._use(key)
        return split_rows(values, clouds)

    def _theta_rs(self, batch):
        clouds = [Q for _, Q, _ in batch]
        J, Jinv = self._chain_jacobians([reads for _, _, reads in batch], clouds, True)
        omegas = stack([self._get(theta_key) for theta_key, _, _ in batch])
        values = split_rows(sharp_values(J, Jinv, omegas), clouds)
        for theta_key, _, reads in batch:
            self._use(theta_key)
            for key in reads:
                self._use(key)
        return values

    def _minors(self, batch):
        clouds = [P for P, _ in batch]
        J, = self._chain_jacobians([reads for _, reads in batch], clouds, False)
        values = jacobian_minors(J, self.T.arity)
        for _, reads in batch:
            for key in reads:
                self._use(key)
        return split_rows(values, clouds)

    def _labels(self, batch):
        clouds, k = [P for P, _, _, _ in batch], self.T.arity
        n = clouds[0].shape[1]
        # each rung's terms added left to right, as theta_r adds them
        rungs = [[sum((self._get(t) for t in terms[1:]), self._get(terms[0])) for terms in reads]
                 for _, reads, _, _ in batch]
        minors = stack([self._get(m) for _, _, m, _ in batch])
        Q = stack([self._points[qid] for _, _, _, qid in batch])
        wedge = apply_invariant(self.T, [SampledForm(n, 1, Q, stack(
            [values[r] for values in rungs])) for r in range(k)])
        values = minor_pullback(wedge.values, minors)
        for _, reads, m, _ in batch:
            for terms in reads:
                for t in terms:
                    self._use(t)
            self._use(m)
        return [SampledForm(n, k, P, v) for P, v in zip(clouds, split_rows(values, clouds))]

