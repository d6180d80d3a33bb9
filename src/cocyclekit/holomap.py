"""Holomorphic maps between opens of C^n: evaluation, exact Jacobians, chains.

Every check downstream is pointwise over sample clouds, and every evaluation
takes the whole cloud at once: an (N, n) point array in, one row per point
out. Inverses are never derived symbolically, so anything that needs both
directions must carry them explicitly.
"""

import numpy as np

from . import expr as ex
from .errors import SingularJacobianError, ValidationError

DET_TOL = 1e-12


def as_cloud(points, n):
    """(N, n) complex array of a cloud."""
    return np.asarray(points, dtype=complex).reshape(-1, n)


def stack(arrays):
    """The rows of several arrays in one array; the array itself when there is one."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def split_rows(array, parts):
    """Consecutive row blocks of `array` (views), as long as the arrays `parts` are."""
    blocks, lo = [], 0
    for part in parts:
        blocks.append(array[lo:lo + len(part)])
        lo += len(part)
    return blocks


def singular_jacobians(J):
    """(det J, mask) of (N, n, n) Jacobians, singular where |det J| <= DET_TOL * ||J||_F^n.

    The test is scale-invariant, and the zero matrix counts as singular.
    """
    det = np.linalg.det(J)
    return det, np.abs(det) <= DET_TOL * np.linalg.norm(J, axis=(-2, -1)) ** J.shape[-1]


def invert_jacobians(J, points):
    """Inverses of (N, n, n) Jacobians; names the first point singular_jacobians flags."""
    det, bad = singular_jacobians(J)
    if bad.any():
        i = int(np.argmax(bad))
        raise SingularJacobianError(tuple(complex(c) for c in points[i]),
                                    "|det| = %.3e" % abs(det[i]))
    return np.linalg.inv(J)


class HoloMap:
    """n expression components over z1..zn.

    The components are expression DAGs (see expr): a composite's components
    share the subtrees of its pieces. Symbolic derivatives (_jac, _djac) are
    built on first use through the node memos of expr.differentiate, so a
    subtree shared by several entries is differentiated once. The components,
    the Jacobian and its derivatives each compile once, on first numeric use,
    into one straight-line program over their distinct nodes
    (expr.Program, kept in _fns): a run evaluates each node once on the
    cloud and drops its value after its last reader. Symbolic composites with
    this map on the left, built only by the compose oracle, are memoized in
    _composed.

    A map keeps no values: eval, jacobian and djacobian each run their
    compiled program on the (N, n) cloud they are given, and a stack of
    clouds is one larger cloud. Which values are kept, and for how long, is
    the caller's decision: a label plan (cocycle.LabelPlan) holds the
    Jacobians and inverse Jacobians its keys read, once per (map, cloud), and
    drops each at its last read (README, "Evaluation on clouds").
    """

    def __init__(self, n, components, name=""):
        self.n = int(n)
        self.components = tuple(components)
        if len(self.components) != self.n:
            raise ValidationError(
                "expected %d components, got %d" % (self.n, len(self.components)))
        for c in self.components:
            if c.max_var() > self.n:
                raise ValidationError("component uses a coordinate beyond z%d" % self.n)
        self.name = name
        # components z1..zn in order: a chain drops such a piece
        self._identity = all(isinstance(c, ex.Var) and c.index == i + 1
                             for i, c in enumerate(self.components))
        self._jac = None
        self._djac = {}
        self._fns = {}
        self._composed = {}
        self._affine = None

    def _compiled(self, kind, exprs):
        fn = self._fns.get(kind)
        if fn is None:
            fn = ex.Program(exprs())
            self._fns[kind] = fn
        return fn

    def eval(self, points):
        """(N, n) points -> (N, n) values."""
        return self._compiled("eval", lambda: self.components)(as_cloud(points, self.n))

    def jac_exprs(self):
        if self._jac is None:
            self._jac = tuple(tuple(ex.differentiate(c, b + 1) for b in range(self.n))
                              for c in self.components)
        return self._jac

    def djac_exprs(self, a):
        """d/dz_a of every Jacobian entry (second derivatives of the components)."""
        if a not in self._djac:
            J = self.jac_exprs()
            self._djac[a] = tuple(tuple(ex.differentiate(J[r][c], a) for c in range(self.n))
                                  for r in range(self.n))
        return self._djac[a]

    def jacobian(self, points):
        """(N, n) points -> (N, n, n) Jacobians."""
        n = self.n
        fn = self._compiled("jacobian", lambda: [e for row in self.jac_exprs() for e in row])
        return fn(as_cloud(points, n)).reshape(-1, n, n)

    def djacobian(self, points):
        """d/dz_a of the Jacobian at every point, indexed [point, a - 1, row, col]."""
        n = self.n
        fn = self._compiled("djacobian", lambda: [e for a in range(1, n + 1)
                                                  for row in self.djac_exprs(a) for e in row])
        return fn(as_cloud(points, n)).reshape(-1, n, n, n)

    def is_affine(self):
        """True when every second derivative folds to the literal zero node; decided once."""
        if self._affine is None:
            self._affine = all(ex.is_zero_expr(e) for a in range(1, self.n + 1)
                               for row in self.djac_exprs(a) for e in row)
        return self._affine

    def __repr__(self):
        label = self.name or "; ".join(ex.to_text(c) for c in self.components)
        return "HoloMap(n=%d, %s)" % (self.n, label)


def parse_map(text, n, constants=None, name=""):
    """Parse a semicolon-separated list of n component expressions."""
    pieces = text.split(";")
    if len(pieces) != n:
        raise ValidationError(
            "expected %d components separated by ';', got %d" % (n, len(pieces)))
    offset = 0
    comps = []
    for piece in pieces:
        try:
            comps.append(ex.parse_expr(piece, n, constants))
        except ex.DslSyntaxError as err:
            raise ex.DslSyntaxError(err.message, offset + err.offset) from None
        offset += len(piece) + 1
    return HoloMap(n, comps, name=name)


def compose(f, g):
    """f after g, by symbolic substitution of g's components into f.

    The pass composes maps as chains of named maps (ChainTable); this
    symbolic composite is the independent oracle that the theta-composition
    check and the tests compare chains and the composition rule against.

    One substitution memo serves all of f's components, so a subtree shared
    between them is rebuilt once and stays shared in the result.

    Memoized on f: composing the same two map objects returns the same
    HoloMap, so its symbolic derivatives and compiled functions are built
    once. The key is g itself (maps hash by identity), which keeps it alive
    while the entry is.
    """
    composed = f._composed.get(g)
    if composed is None:
        if f.n != g.n:
            raise ValidationError("dimension mismatch: %d vs %d" % (f.n, g.n))
        memo, inner = {}, list(g.components)
        comps = [ex.substitute(c, inner, memo) for c in f.components]
        composed = HoloMap(f.n, comps, name="%s.%s" % (f.name or "f", g.name or "g"))
        f._composed[g] = composed
    return composed


def reduced(items, pairs):
    """`items` with every adjacent pair (a, b) in `pairs` cancelled, as a free word
    reduces: word letters under the action's letter pairs (cechgroup.letter_pairs),
    or the map pieces of a chain under its declared inverse pairs."""
    kept = []
    for x in items:
        if kept and (kept[-1], x) in pairs:
            kept.pop()
        else:
            kept.append(x)
    return tuple(kept)


class ChainTable:
    """Named maps and reduced chains of them as small ints, shared by a labeler and
    its label plans.

    maps[p] is the named map with id p; chains[c] is the tuple of map ids of the
    chain with id c, outermost first: a composite p_1 . ... . p_m applied right
    to left, without identity pieces and reduced under the declared inverse
    pairs (f, g) with f . g = id that the table is built with, so the identity
    chain holds no piece. Equal tuples get one id, so chains compare and hash
    as ints; id 0 is the identity chain. Whether a chain is affine, and the
    composition-rule terms of theta_r (rungs), are decided once per id.
    """

    def __init__(self, inverses=frozenset()):
        self.maps = []
        self._map_ids = {}
        self._inverses = inverses
        self.chains = [()]
        self._chain_ids = {(): 0}
        self._affine = [True]   # chain id -> every piece affine, None until asked
        self._reduced = {}      # tuple of map ids -> id of its reduced chain
        self._rungs = {}        # (f, phi) chain ids -> theta_r terms

    def map(self, m):
        """Id of a named map."""
        p = self._map_ids.get(m)
        if p is None:
            p = self._map_ids[m] = len(self.maps)
            self.maps.append(m)
        return p

    def chain(self, pieces):
        """Id of the chain of the map ids `pieces`, outermost first, reduced under the
        declared pairs; once per distinct tuple."""
        c = self._reduced.get(pieces)
        if c is None:
            kept = tuple(map(self.map, reduced(
                [m for m in map(self.maps.__getitem__, pieces) if not m._identity],
                self._inverses)))
            c = self._chain_ids.get(kept)
            if c is None:
                c = self._chain_ids[kept] = len(self.chains)
                self.chains.append(kept)
                self._affine.append(None)
            self._reduced[pieces] = c
        return c

    def is_affine(self, c):
        """True when every piece of chain c is affine; theta of it then vanishes."""
        flag = self._affine[c]
        if flag is None:
            flag = self._affine[c] = all(self.maps[p].is_affine() for p in self.chains[c])
        return flag

    def rungs(self, f, phi):
        """The terms of theta_r of chain f pulled back along chain phi: (p_j, psi_j)
        for each non-affine piece p_j of f = p_1 . ... . p_m, psi_j the chain
        p_{j+1} . ... . p_m . phi; once per (f, phi)."""
        terms = self._rungs.get((f, phi))
        if terms is None:
            pieces, tail = self.chains[f], self.chains[phi]
            terms = self._rungs[(f, phi)] = tuple(
                (p, self.chain(pieces[j + 1:] + tail))
                for j, p in enumerate(pieces) if not self.maps[p].is_affine())
        return terms


def inverse_pairs(pairs):
    """The adjacent pairs that cancel (reduced), both ways round, from declared (item,
    inverse) pairs: maps f, g with f . g = id, or a word's letters."""
    return frozenset(pair for f, g in pairs for pair in ((f, g), (g, f)))
