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
    (f, phi) for every plan of the table. theta(f, phi, Q) returns that sum
    itself, which the theta-composition check compares with theta of the
    symbolic composite; count_theta and take_theta split it, so that the
    check counts every pair's thetas before it takes any.

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
    - the map values that evaluation reads, one store entry per (named map,
      cloud): each piece of psi and of the top chart on the cloud it maps,
      and p on X.

    A label's key is the tuple of its ladder's chain ids, the tuple of its
    pullbacks' chain ids, its top chart's chain id and its source cloud's id,
    all small ints, so no map or chain object is built or hashed per label.
    Clouds enter keys as ids of their exact bytes, so equal clouds in distinct
    arrays share keys. A structurally zero label (label_vanishes) has the key
    None and reads no map. Maps keep no values (holomap.HoloMap): the plan
    evaluates a map on a cloud when it counts the cloud's image, and holds
    Jacobians and inverse Jacobians in its store.

    Keys are evaluated in batches, one stage at a time: the theta keys of one
    named map, all theta_r keys, the minors keys of one top chart, and the
    labels of one top chart. take(key) evaluates a key that is not held
    together with the other counted keys of its stage and map not yet
    evaluated, in count order, while the batch's largest array stays within
    forms.BATCH_ENTRIES complex entries (the first key always joins). A batch
    stacks its clouds into one array for one kernel call per step (a map's
    program, the inversion, each einsum, apply_invariant) and splits the rows
    back per key. A theta_r or minors batch runs each named map once on the
    clouds its chains bring to it; a chain's Jacobian is the product of its
    pieces', its inverse the reversed product of theirs, so no composite is
    inverted. The store fills the clouds of a map it does not hold with one
    program run on their stack (one inversion for inverse Jacobians) and
    keeps each cloud's rows under that cloud's id, never a stack's. Each key
    and each store entry is held from its evaluation to its last read, then
    dropped, so a plan whose keys are all taken holds nothing.

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
        self._reads = {}    # (map id, cloud id) -> keys still to read its store entry
        self._store = {}    # (map id, cloud id) -> {"jacobian" or "jacobian_inverse": rows}
        self._images = {}   # (map id, cloud id) -> id of the map's image of the cloud
        self._clouds = {}   # exact bytes of a cloud -> its id
        self._points = []   # cloud id -> the cloud

    def __len__(self):
        """Keys counted or held and not yet released."""
        return len(self._uses) + len(self._held) + len(self._reads)

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

    def _walk(self, pieces, cid):
        """Ids of the clouds the pieces of a chain map, innermost first, from the cloud
        with id cid; each image was made when the chain's key was counted."""
        cids = []
        for m in reversed(pieces):
            cids.append(cid)
            cid = self._images[(m, cid)]
        return cids

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

    def _count_read(self, m, cid):
        """One more read of the store entry of the named map m on the cloud with id cid."""
        self._reads[(m, cid)] = self._reads.get((m, cid), 0) + 1

    def _values(self, kind, m, cids):
        """The "jacobian" or "jacobian_inverse" rows of the named map m on the clouds with
        ids cids, stacked (_fill holds them)."""
        self._fill(kind, m, cids)
        return stack([self._store[(m, cid)][kind] for cid in cids])

    def _fill(self, kind, m, cids):
        """Hold the "jacobian" or "jacobian_inverse" rows of the named map m on the clouds
        with ids cids. The clouds not held are computed together, by one program run
        (or one inversion of their held Jacobians) on their stack, and each cloud's
        rows are held under its own id, read-only, since every key of the plan that
        reads them shares them. A raised error is never stored, so a failing cloud
        fails on every call."""
        fresh = [cid for cid in dict.fromkeys(cids) if kind not in self._store.get((m, cid), ())]
        if fresh:
            clouds = [self._points[cid] for cid in fresh]
            if kind == "jacobian":
                rows = self._maps[m].jacobian(stack(clouds))
            else:
                rows = invert_jacobians(self._values("jacobian", m, fresh), stack(clouds))
            rows.flags.writeable = False
            for cid, block in zip(fresh, split_rows(rows, clouds)):
                self._store.setdefault((m, cid), {})[kind] = block

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
        """One read of m's store entry on a cloud done; the last drops the entry."""
        reads = self._reads.pop((m, cid)) - 1
        if reads:
            self._reads[(m, cid)] = reads
        else:
            del self._store[(m, cid)]

    def _add_theta(self, p, xid):
        """Count theta(p) of the named map p on the cloud with id xid; its key."""
        key = (p, xid)
        if self._count(key):
            X = self._points[xid]
            self._pend(key, self._thetas, p, len(X) * X.shape[1] ** 3, (p, X, xid))
            self._count_read(p, xid)
        return key

    def _add_term(self, p, psi, qid):
        """Count psi^# theta(p), for the named map p and the chain psi, on the cloud with
        id qid; (its key, the id of the cloud psi(Q) that theta(p) reads)."""
        if not psi:
            return self._add_theta(p, qid), qid
        key = (p, psi, qid)
        first, xid = self._count(key), qid
        pieces = self.chains.chains[psi]
        for m in reversed(pieces):
            if first:
                self._count_read(m, xid)
            xid = self._image(m, xid)
        if first:
            Q = self._points[qid]
            self._pend(key, self._theta_rs, None, len(Q) * Q.shape[1] ** 3,
                       (pieces, self._add_theta(p, xid), Q, qid))
        return key, xid

    def _add_rung(self, f, phi, qid):
        """Count theta_r of the transition chain f pulled back along the chain phi on the
        cloud with id qid, one term per non-affine piece of f; (term keys, their clouds)."""
        terms = [self._add_term(p, psi, qid) for p, psi in self.chains.rungs(f, phi)]
        return tuple(key for key, _ in terms), tuple(xid for _, xid in terms)

    def theta(self, f, phi, Q):
        """phi^# theta(f) of the transition chain f pulled back along the chain phi
        (chain ids of the plan's table), on the (N, n) cloud Q: count_theta, then
        take_theta."""
        return self.take_theta(self.count_theta(f, phi, Q), Q)

    def count_theta(self, f, phi, Q):
        """Count phi^# theta(f) on the (N, n) cloud Q, evaluating nothing but the maps
        that carry Q to the clouds its terms read; the keys of its theta_r terms,
        for take_theta. Thetas counted together are evaluated together."""
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
            pieces = self.chains.chains[top]
            minors = ("minors", top, pid)
            first, qid = self._count(minors), pid
            for m in reversed(pieces):
                if first:
                    self._count_read(m, qid)
                qid = self._image(m, qid)
            if first:
                self._pend(minors, self._minors, top, len(P) * (math.comb(n, k) * k) ** 2,
                           (pieces, P, pid))
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

    def _chain_jacobians(self, chains, walks, clouds, inverse):
        """Stacked Jacobians of chains (tuples of map ids) on their clouds, from the
        clouds their pieces map (walks): products of the pieces' held Jacobians, and
        with `inverse` also the inverses, the reversed products of the pieces'
        inverses. A chain without pieces has the identity. Each named map runs once,
        on every cloud the chains bring to it, and each partial product, that of an
        innermost run of pieces on a cloud, is formed once however many chains
        end in it."""
        # a node is an innermost run of pieces on a start cloud: [id of the cloud its
        # outermost piece maps, parent node, rows, J, Jinv]; the nodes of one depth
        # and map are one product
        nodes, groups, ends = {}, {}, []
        for pieces, cids, P in zip(chains, walks, clouds):
            node = None
            for depth, m in enumerate(reversed(pieces)):
                key = (m, cids[depth], id(node))
                if key not in nodes:
                    nodes[key] = [cids[depth], node, len(P), None, None]
                    groups.setdefault((depth, m), []).append(nodes[key])
                node = nodes[key]
            ends.append(node)
        runs = {}
        for (_, m), members in groups.items():
            runs.setdefault(m, {}).update((node[0], None) for node in members)
        kind = "jacobian_inverse" if inverse else "jacobian"
        for m, cids in runs.items():
            self._fill(kind, m, list(cids))
        for depth, m in sorted(groups, key=lambda group: group[0]):
            members = groups[(depth, m)]
            cids = [node[0] for node in members]
            J = self._values("jacobian", m, cids)
            if depth:
                J = J @ stack([node[1][3] for node in members])
            if inverse:
                Jinv = self._values("jacobian_inverse", m, cids)
                if depth:
                    Jinv = stack([node[1][4] for node in members]) @ Jinv
            lo = 0
            for node in members:
                node[3] = J[lo:lo + node[2]]
                if inverse:
                    node[4] = Jinv[lo:lo + node[2]]
                lo += node[2]
        n = clouds[0].shape[1]
        eye = np.eye(n, dtype=complex)
        J = np.concatenate([np.broadcast_to(eye, (len(P), n, n)) if node is None else node[3]
                            for node, P in zip(ends, clouds)])
        Jinv = np.concatenate([np.broadcast_to(eye, (len(P), n, n)) if node is None else node[4]
                               for node, P in zip(ends, clouds)]) if inverse else None
        return J, Jinv

    # the stages: each evaluates a batch of argument tuples, one value per tuple,
    # and uses up the batch's reads only once every value exists

    def _thetas(self, batch):
        p, clouds = batch[0][0], [X for _, X, _ in batch]
        Jinv = self._values("jacobian_inverse", p, [xid for _, _, xid in batch])
        values = theta_values(Jinv, self._maps[p].djacobian(stack(clouds)))
        for _, _, xid in batch:
            self._release(p, xid)
        return split_rows(values, clouds)

    def _theta_rs(self, batch):
        walks = [self._walk(psi, qid) for psi, _, _, qid in batch]
        clouds = [Q for _, _, Q, _ in batch]
        J, Jinv = self._chain_jacobians([psi for psi, _, _, _ in batch], walks, clouds, True)
        omegas = stack([self._get(theta_key) for _, theta_key, _, _ in batch])
        values = split_rows(sharp_values(J, Jinv, omegas), clouds)
        for (psi, theta_key, _, _), cids in zip(batch, walks):
            self._use(theta_key)
            for m, cid in zip(reversed(psi), cids):
                self._release(m, cid)
        return values

    def _minors(self, batch):
        pieces, clouds = batch[0][0], [P for _, P, _ in batch]
        walks = [self._walk(pieces, pid) for _, _, pid in batch]
        J, _ = self._chain_jacobians([pieces] * len(batch), walks, clouds, False)
        values = jacobian_minors(J, self.T.arity)
        for cids in walks:
            for m, cid in zip(reversed(pieces), cids):
                self._release(m, cid)
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
