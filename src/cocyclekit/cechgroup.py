"""Mixed Cech/group cochains of holomorphic forms and the tau invariant.

Cells are pairs (Cech multi-index, tuple of group words), held in a pass as
tuples of index and word ids of the action's id tables (_Ids); the value on
a cell is a SampledForm: a k-form on the cloud of the translated
intersection, one array row per point. Differentials act on formal signed
combinations of pulled-back base values, so the pairwise cancellations behind
delta^2 = 0 and the bar identities happen symbolically before any
floating-point addition.
A TermPlan does that bookkeeping once for all cells of a bidegree, as integer
arrays. A term's value is its base value evaluated on the cell's cloud,
pulled back along the group word of the term if it has one, once per (term
key, cloud). All the values a plan needs are evaluated together, so the path
labels of tau read one LabelPlan.

The tau invariant of an equivariant atlas assigns to each total-degree-n cell
a signed sum over the (m,q)-shuffles of grid paths, each path contributing the
top Chern-Weil label of its chart simplex. Pure Cech cells and pure group
cells reduce to the single interleaved simplex.
"""

import bisect
import itertools
import math

import numpy as np

from . import forms
from .cocycle import LabelPlan, label_vanishes
from .errors import ValidationError, nan_worst
from .holomap import ChainTable, compose, inverse_pairs, reduced

# ---------------------------------------------------------------------------
# free words over named generators: reduced tuples of letters (generator name,
# +1 or -1), the empty tuple the identity word


def letter_pairs(names):
    """The adjacent letters that cancel in a word over the generators `names`, as
    holomap.reduced reads them."""
    return inverse_pairs(((name, 1), (name, -1)) for name in names)


# ---------------------------------------------------------------------------
# cover, action, atlas


class CoverSpec:
    """Index set plus sample clouds per multi-index set.

    Clouds are (N, n) complex arrays keyed by the set of indices, (0, n) when
    undeclared; the constructor appends every deep intersection's points to all
    enclosing clouds, so a point of an intersection is a point of each set
    that contains it.
    """

    def __init__(self, indices, clouds, n):
        self.indices = list(indices)
        self.n = n
        index_set = set(self.indices)
        self.clouds = {}
        for key, points in clouds.items():
            key = frozenset(key)
            if not key or not key <= index_set:
                raise ValidationError("cloud key %r not within the index set" % (sorted(key),))
            self.clouds[key] = points
        self._nest()

    def _nest(self):
        rows = {key: _row_keys(P) for key, P in self.clouds.items()}
        for key in sorted(self.clouds, key=len, reverse=True):
            for other in (other for other in self.clouds if other < key):
                have = set(rows[other])
                if have.issuperset(rows[key]):
                    continue
                # each row of key absent from other, once (set.add returns None)
                new = [i for i, row in enumerate(rows[key]) if not (row in have or have.add(row))]
                self.clouds[other] = np.concatenate([self.clouds[other], self.clouds[key][new]])
                rows[other] += [rows[key][i] for i in new]

    def cloud(self, multi_index):
        """Sample cloud of the intersection over a tuple (repeats collapse)."""
        P = self.clouds.get(frozenset(multi_index))
        return np.zeros((0, self.n), dtype=complex) if P is None else P

    def declared_sets(self):
        return sorted(self.clouds, key=lambda s: (len(s), sorted(map(str, s))))


def _row_keys(P):
    """The bytes of each row of a cloud after + 0.0, which turns -0.0 into 0.0, so
    points that compare equal get equal keys; the cloud keeps its signs."""
    flat = (P + 0.0).tobytes()
    step = P.itemsize * P.shape[1]
    return [flat[i:i + step] for i in range(0, len(flat), step)]


class GroupActionSpec:
    """Named generators with inverses, plus the right action on cover indices.

    `words` are the declared words, reduced letter tuples, over which the
    cells' group tuples run (enumerate_cells).
    """

    def __init__(self, generators, index_action, indices, words=(), n=None):
        self.generators = dict(generators)  # name -> (forward HoloMap, inverse HoloMap)
        self.indices = list(indices)
        if n is None and self.generators:
            n = self.generators[next(iter(self.generators))][0].n
        self.n = n
        self.index_action = {}
        for name in self.generators:
            table = dict(index_action.get(name, {}))
            missing = [i for i in self.indices if i not in table]
            if missing:
                raise ValidationError("index action for %r missing %r" % (name, missing))
            if sorted(map(str, table.values())) != sorted(map(str, self.indices)):
                raise ValidationError("index action for %r is not a bijection" % name)
            self.index_action[name] = table
        self.words = list(words)
        self.inverses = inverse_pairs(self.generators.values())
        self._folds = {}
        self._ids = None

    def ids(self):
        """The id tables of the action's indices, words and index sets (_Ids), built on
        first use and shared by every cochain, term plan and path labeler of it."""
        if self._ids is None:
            self._ids = _Ids(self)
        return self._ids

    def letter_map(self, name, sgn):
        fwd, inv = self.generators[name]
        return fwd if sgn > 0 else inv

    def letter_maps(self, letters):
        """The generator maps of a word's letters, outermost first; two adjacent
        letters whose composite is affine (a relation of the action) are one piece,
        that composite (see fold)."""
        maps, folded = [], False
        for name, sgn in letters:
            m = self.letter_map(name, sgn)
            fg = None if not maps or folded else self.fold(maps[-1], m)
            if fg is None:
                maps.append(m)
            else:
                maps[-1] = fg
            folded = fg is not None
        return maps

    def fold(self, f, g):
        """The composite f . g of two non-affine letter maps when it is affine, else None:
        a relation such as henon^-1 . shear keeps its labels exactly zero, where the
        composition rule's two terms would cancel only to rounding. Decided once per
        pair by symbolic composition, the one place the pass composes maps."""
        key = (f, g)
        if key not in self._folds:
            self._folds[key] = None
            if (f, g) not in self.inverses and not (f.is_affine() or g.is_affine()):
                fg = compose(f, g)
                if fg.is_affine():
                    self._folds[key] = fg
        return self._folds[key]

    def round_trip(self, cover):
        """(error, generator) of the worst generator/inverse round trip on the declared clouds."""
        worst = (0.0, None)
        for name, (fwd, inv) in self.generators.items():
            for P in map(cover.cloud, cover.declared_sets()):
                if len(P):
                    error = float(np.max(np.abs(np.stack([fwd.eval(inv.eval(P)),
                                                          inv.eval(fwd.eval(P))]) - P)))
                    worst = max(worst, (error, name), key=lambda t: nan_worst(t[0]))
        return worst


def trivial_action(indices, n):
    """Action of the trivial group: no generators, no index motion."""
    return GroupActionSpec({}, {}, indices, n=n)


class Atlas:
    """Charts (with explicit inverses) per cover index."""

    def __init__(self, charts):
        self.charts = dict(charts)  # index -> (chart HoloMap, inverse HoloMap)
        self.inverses = inverse_pairs(self.charts.values())

    def chart(self, index):
        return self.charts[index][0]

    def inverse(self, index):
        return self.charts[index][1]

    def indices(self):
        return list(self.charts)

    def round_trip(self, cover):
        """(error, index) of the worst chart/inverse round trip on the indices' own clouds."""
        worst = (0.0, None)
        for index, (chart, inverse) in self.charts.items():
            P = cover.cloud((index,))
            if len(P):
                error = float(np.max(np.abs(inverse.eval(chart.eval(P)) - P)))
                worst = max(worst, (error, index), key=lambda t: nan_worst(t[0]))
        return worst


# ---------------------------------------------------------------------------
# cochains as formal combinations of pulled-back base values


class MixedCochain:
    """Base cochain: per-bidegree providers of k-forms on cells.

    A cell (J, G) is a tuple of index ids and a tuple of word ids of the
    action's id tables (ids, see _Ids). provider(requests) returns the values
    of a list of (J, G, points, pull) requests in request order: the base
    value of the cell (J, G) pulled back along rho(pull), for a word id pull,
    a SampledForm on the (N, n) cloud `points`; with the identity word 0 it is
    the base value at `points`. Every batch of values in a bidegree is one
    provider call. The optional vanishes(bidegree, J, G) is True when a base
    value is known to be structurally zero before it is evaluated; its
    pullbacks then vanish too. Each value is computed once per (bidegree, J,
    G, pull, cloud) and cached in _cache, the cloud named by its interned id
    (cloud_id). A scenario builds each tau once (Scenario.tau), so every check
    reading it shares the cache; a tau with overridden transitions takes the
    values its overrides leave alone from the cache of the tau without them.
    """

    def __init__(self, cover, action, n, form_degree, components, name="cochain",
                 vanishes=None):
        self.cover = cover
        self.action = action
        self.ids = action.ids()
        self.n = int(n)
        self.form_degree = int(form_degree)
        self.components = {}
        for (m, q), provider in components.items():
            if m < 0 or q < 0:
                raise ValidationError("bad bidegree (%d, %d)" % (m, q))
            self.components[(int(m), int(q))] = provider
        self.name = name
        self._vanishes = vanishes
        self._cache = {}
        self._clouds = {}  # exact bytes of a cloud -> its id

    def bidegrees(self):
        return sorted(self.components)

    def structurally_zero(self, bidegree, J, G):
        """True when the base value of (J, G) is known to vanish before it is evaluated."""
        return self._vanishes is not None and self._vanishes(bidegree, tuple(J), tuple(G))

    def cloud_id(self, P):
        """Small id of a cloud, equal for clouds with equal bytes."""
        return self._clouds.setdefault(P.tobytes(), len(self._clouds))

    def evaluate_all(self, requests):
        """Values of (bidegree, J, G, points, pull) requests, in request order: base
        values pulled back along rho(pull). Those not yet cached are evaluated in
        one provider call per bidegree."""
        keys, fresh = [], {}
        for (m, q), J, G, P, pull in requests:
            if (m, q) not in self.components:
                raise ValidationError("no component in bidegree %r" % ((m, q),))
            if len(J) != m + 1 or len(G) != q:
                raise ValidationError("cell shape mismatch in bidegree (%d, %d)" % (m, q))
            key = ((m, q), tuple(J), tuple(G), pull, self.cloud_id(P))
            keys.append(key)
            if key not in self._cache:
                fresh.setdefault(key, P)
        batches = {}
        for key in fresh:
            batches.setdefault(key[0], []).append(key)
        for bd, batch in batches.items():
            values = self.components[bd]([k[1:3] + (fresh[k], k[3]) for k in batch])
            self._cache.update(zip(batch, values))
        return [self._cache[k] for k in keys]

    def expression(self):
        return CochainExpression(((self.name, self),),
                                 {bd: ("base", 0, bd) for bd in self.components})


class CochainExpression:
    """Formal integer combination of named base cochains' values pulled back along words.

    `bases` is a tuple of (name, MixedCochain) pairs sharing one cover, action,
    dimension and form degree. A term key is (base position, base bidegree,
    base J, base G, pullback word). Each component says how a cell's terms
    arise, as a tree of tuples:

    - ("base", b, bd): the cell's own value under base b, key (b, bd, J, G, e);
    - ("cech", m, q, node): sum over k of (-1)^k node(J without J[k], G), where
      node is a component of bidegree (m, q);
    - ("group", m, q, node): the bar differential of node;
    - ("sum", ((a, node), ...)): an integer combination.

    Differentials only rewrite keys, so equal keys with opposite signs cancel
    exactly in integers (TermPlan) and never reach floating point.
    """

    def __init__(self, bases, components):
        self.bases = tuple(bases)
        if len({(c.cover, c.ids, c.n, c.form_degree) for _, c in self.bases}) != 1:
            raise ValidationError("the bases of an expression must share cover, action, "
                                  "dimension and form degree")
        self.components = dict(components)

    def bidegrees(self):
        return sorted(self.components)


def _combination(bases, parts):
    """CochainExpression summing sign * node per bidegree over (sign, bidegree, node) parts."""
    by_bidegree = {}
    for sign, bd, node in parts:
        by_bidegree.setdefault(bd, []).append((sign, node))
    return CochainExpression(bases, {bd: ("sum", tuple(p)) for bd, p in by_bidegree.items()})


def as_expression(c):
    return c.expression() if isinstance(c, MixedCochain) else c


def mixed_differential(c):
    """Total differential: cech + (-1)^{cech degree} * group."""
    c = as_expression(c)
    parts = [(1, (m + 1, q), ("cech", m, q, node)) for (m, q), node in c.components.items()]
    parts += [((-1) ** m, (m, q + 1), ("group", m, q, node))
              for (m, q), node in c.components.items()]
    return _combination(c.bases, parts)


# ---------------------------------------------------------------------------
# term plans: a differential's cells as integer arrays


class _Ids:
    """The id tables of one action: its cover indices, reduced words and translated
    index sets as small ints, shared by every cochain, term plan and path labeler
    of the action (GroupActionSpec.ids).

    indices[i] is the cover index with id i, in the action's order. words[w]
    is the reduced letter tuple of the word with id w, 0 the identity; moves[w]
    lists, per index id, the id of the index the word moves it to. The product
    of two word ids and the inverse of one are computed once per id (mul,
    inverse). sets[s] is a translated index set, a frozenset of cover indices,
    interned by its bit mask over the index ids. The strings a report prints
    for an index or a word, and the repr that orders a term plan's keys, are
    made from strings built once per id.
    """

    def __init__(self, action):
        self.indices = list(action.indices)
        self._index_ids = {index: i for i, index in enumerate(self.indices)}
        # letter -> the index id each index id moves to; an inverse letter's
        # permutation is the inverse permutation
        self._perms = {}
        for name, table in action.index_action.items():
            perm = [self._index_ids[table[index]] for index in self.indices]
            self._perms[(name, 1)], self._perms[(name, -1)] = perm, np.argsort(perm).tolist()
        self._pairs = letter_pairs(action.generators)
        self.words, self.moves, self._word_ids = [], [], {}
        self._products, self._inverses = {}, {}
        self._move_table = np.zeros((0, len(self.indices)), dtype=np.int64)
        self.sets, self._set_ids = [], {}
        self._index_names = [str(index) for index in self.indices]
        self._index_reprs = [repr(index) for index in self.indices]
        self._word_names = {}
        self._tuple_reprs = {}  # (0, index ids) or (1, word ids) -> repr of the tuple
        self.word(())  # id 0

    def index(self, index):
        return self._index_ids[index]

    def word(self, letters):
        """Id of the reduced word with these letters."""
        w = self._word_ids.get(letters)
        if w is None:
            w = self._word_ids[letters] = len(self.words)
            self.words.append(letters)
            move = list(range(len(self.indices)))
            for letter in letters:
                perm = self._perms[letter]
                move = [perm[i] for i in move]
            self.moves.append(move)
        return w

    def mul(self, a, b):
        """Id of the product of the words a and b, once per pair."""
        w = self._products.get((a, b))
        if w is None:
            w = self._products[(a, b)] = self.word(reduced(self.words[a] + self.words[b],
                                                           self._pairs))
        return w

    def inverse(self, a):
        """Id of the inverse of the word a, once per word."""
        w = self._inverses.get(a)
        if w is None:
            w = self._inverses[a] = self.word(tuple((name, -sgn)
                                                    for name, sgn in reversed(self.words[a])))
        return w

    def index_names(self, J):
        return [self._index_names[i] for i in J]

    def word_name(self, w):
        """The report string of the word w: its letters joined by "*", "e" for the
        identity."""
        text = self._word_names.get(w)
        if text is None:
            text = self._word_names[w] = "*".join(
                name + ("" if sgn > 0 else "^-1") for name, sgn in self.words[w]) or "e"
        return text

    def word_names(self, G):
        return [self.word_name(g) for g in G]

    def key_repr(self, bd, J, G, pull):
        """repr of the term key (bd, J, G, pull) with its indices and words as objects;
        the repr of each index tuple and each word tuple is made once."""
        reprs = self._tuple_reprs
        j = reprs.get((0, J))
        if j is None:
            j = reprs[(0, J)] = _tuple_repr([self._index_reprs[i] for i in J])
        g = reprs.get((1, G))
        if g is None:
            g = reprs[(1, G)] = _tuple_repr(self.word_names(G))
        return "(%r, %s, %s, %s)" % (bd, j, g, self.word_name(pull))

    def mul_ids(self, a, b):
        """The word ids of the products a * b of two word-id arrays of one shape (mul)."""
        mul = self.mul
        return np.array([mul(x, y) for x, y in zip(a.tolist(), b.tolist())],
                        dtype=np.int64).reshape(a.shape)

    def act(self, w, J):
        """Index ids of the (C, r) rows J, each index moved by its row's word in w."""
        if len(self._move_table) < len(self.moves):
            self._move_table = np.array(self.moves, dtype=np.int64).reshape(
                len(self.moves), len(self.indices))
        return self._move_table[w[:, None], J]

    def moved(self, J, G):
        """Index ids of the cells of the (C, r) index-id and (C, s) word-id rows J and
        G: each row of J moved by the product of its row of G. Repeats stay."""
        w = G[:, 0] if G.shape[1] else np.zeros(len(J), dtype=np.int64)
        for column in G.T[1:]:
            w = self.mul_ids(w, column)
        return self.act(w, J)

    def cell_sets(self, J, G):
        """Index-set ids of the cells of the rows J and G: the sets of their moved
        indices (moved), the keys of their clouds."""
        if not len(J):
            return np.zeros(0, dtype=np.int64)
        moved = self.moved(J, G).astype(np.uint64)
        # one bit per index id, so equal sets give equal rows
        if len(self.indices) <= 64:
            bits = np.bitwise_or.reduce(np.left_shift(np.uint64(1), moved), axis=1)
            masks, inverse = np.unique(bits, return_inverse=True)
            masks = masks[:, None]
        else:
            mask = np.zeros((len(J), len(self.indices) // 64 + 1), dtype=np.uint64)
            rows = np.arange(len(J))
            for column in moved.T:
                mask[rows, column // 64] |= np.left_shift(np.uint64(1), column % 64)
            masks, inverse = np.unique(mask, axis=0, return_inverse=True)
        ids = [self._index_set(tuple(row)) for row in masks.tolist()]
        return np.array(ids, dtype=np.int64)[inverse.reshape(-1)]

    def _index_set(self, mask):
        s = self._set_ids.get(mask)
        if s is None:
            s = self._set_ids[mask] = len(self.sets)
            self.sets.append(frozenset(self.indices[64 * k + b] for k, word in enumerate(mask)
                                       for b in range(64) if word >> b & 1))
        return s


def _tuple_repr(items):
    """repr of a tuple whose items have the reprs `items`."""
    return "(%s)" % (items[0] + "," if len(items) == 1 else ", ".join(items))


def _unique_rows(M):
    """(distinct rows, index of each one's first row, row -> distinct) of an (R, w)
    array of non-negative integer ids, rows in lexicographic order as np.unique gives.

    Rows are packed into one int64 key, mixed radix, when that fits; one stable
    sort of the keys then gives all three.
    """
    M = np.asarray(M, dtype=np.int64)
    R = len(M)
    if R < 2:
        return M, np.arange(R), np.zeros(R, dtype=np.int64)
    radix = (M.max(axis=0) + 1).tolist()
    if sum(map(math.log2, radix)) < 62:
        packed = np.zeros(R, dtype=np.int64)
        for column, r in zip(M.T, radix):
            packed *= r
            packed += column
        order = np.argsort(packed, kind="stable")
        keys = packed[order]
        new = np.empty(R, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
    else:
        order = np.lexsort(M.T[::-1])
        keys = M[order]
        new = np.empty(R, dtype=bool)
        np.any(keys[1:] != keys[:-1], axis=1, out=new[1:])
    new[:1] = True
    first = order[new]
    inverse = np.empty(R, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return M[first], first, inverse


def _expand(node, J, G, ids):
    """Signed term blocks ((b, bd), cell, J, G, pull, coeff) of a component over cells,
    (b, bd) the base position and bidegree the block reads.

    J (C, r) and G (C, s) hold index and word ids, one cell per row; `cell` in
    each block is that row. The differentials act on whole columns.
    """
    kind = node[0]
    C = len(J)
    if kind == "base":
        return [(node[1:], np.arange(C), J, G, np.zeros(C, dtype=np.int64),
                 np.ones(C, dtype=np.int64))]
    if kind == "sum":
        return [_scaled(block, sign) for sign, child in node[1]
                for block in _expand(child, J, G, ids)]
    _, m, q, child = node
    if kind == "cech":
        if J.shape[1] != m + 2 or G.shape[1] != q:
            raise ValidationError("cell shape mismatch for bidegree (%d, %d)" % (m + 1, q))
        return [_scaled(block, (-1) ** k) for k in range(m + 2)
                for block in _expand(child, np.delete(J, k, axis=1), G, ids)]
    if J.shape[1] != m + 1 or G.shape[1] != q + 1:
        raise ValidationError("cell shape mismatch for bidegree (%d, %d)" % (m, q + 1))
    blocks = _expand(child, ids.act(G[:, 0], J), G[:, 1:], ids)
    for k in range(1, q + 1):
        merged = np.column_stack([G[:, :k - 1], ids.mul_ids(G[:, k - 1], G[:, k]),
                                  G[:, k + 1:]])
        blocks += [_scaled(block, (-1) ** k) for block in _expand(child, J, merged, ids)]
    # right multiplication by one word is injective, so no two keys collide
    for src, cell, Jb, Gb, pull, coeff in _expand(child, J, G[:, :-1], ids):
        blocks.append((src, cell, Jb, Gb, ids.mul_ids(pull, G[cell, -1]),
                       (-1) ** (q + 1) * coeff))
    return blocks


def _scaled(block, sign):
    return block[:5] + (sign * block[5],)


class TermPlan:
    """The terms of one expression in one bidegree over cells, as integer arrays.

    The cells come as enumerate_cells gives them: (C, r) index-id and (C, s)
    word-id arrays of the action's id tables (_Ids) and the (C,) ids of their
    index sets. A term key is a tuple of ids: (base position, base bidegree,
    base J, base G, pullback word). Built once: the component is expanded over
    all cells at once, every word product and moved index read from the id
    tables; equal keys of a cell cancel in integer coefficients, and each
    cell's terms are ordered by their base's position in expr.bases and then
    by the repr of their keys' bidegree, indices and words, ranked once per
    distinct key from strings made once per id. Then every value the terms
    read is evaluated in one batch per base (_build_slots), and a term whose
    value is structurally zero is dropped. Each remaining term has a signed
    coefficient and a slot in the value table: its base value evaluated on
    the cell's cloud, pulled back along the term's group word if it has one.
    """

    def __init__(self, expr, bidegree, cells):
        self.bases = expr.bases
        self.cover = expr.bases[0][1].cover
        ids = self._ids = expr.bases[0][1].ids
        J, G, self._target = cells
        self.cells = list(zip(map(tuple, J.tolist()), map(tuple, G.tolist())))
        node = expr.components.get(bidegree)
        blocks = [] if node is None or not len(J) else _expand(node, J, G, ids)
        cell, key, coeff = self._cancel(blocks, ids)
        order = np.lexsort((self._rank[key], cell))
        self._build_slots(cell[order], key[order], coeff[order])

    def _cancel(self, blocks, ids):
        """Sum equal (cell, key) coefficients, drop zeros; name and rank the keys. Key
        ids run in base order."""
        groups = {}
        for src, cell, Jb, Gb, pull, coeff in blocks:
            groups.setdefault(src + (Jb.shape[1], Gb.shape[1]), []).append(
                (np.column_stack([cell, Jb, Gb, pull]), coeff))
        self.keys, cells, keys, coeffs = [], [], [], []
        for (b, bd, r, s), parts in sorted(groups.items(), key=lambda g: g[0][0]):
            rows, _, inverse = _unique_rows(np.concatenate([p[0] for p in parts]))
            total = np.zeros(len(rows), dtype=np.int64)
            np.add.at(total, inverse, np.concatenate([p[1] for p in parts]))
            rows, total = rows[total != 0], total[total != 0]
            key_rows, _, key_of = _unique_rows(rows[:, 1:])
            cells.append(rows[:, 0])
            keys.append(key_of + len(self.keys))
            coeffs.append(total)
            self.keys += [(b, bd, tuple(k[:r]), tuple(k[r:r + s]), k[-1])
                          for k in key_rows.tolist()]
        ranked = [(k[0], ids.key_repr(*k[1:])) for k in self.keys]
        self._rank = np.empty(len(ranked), dtype=np.int64)
        self._rank[sorted(range(len(ranked)), key=ranked.__getitem__)] = np.arange(len(ranked))
        if not cells:
            return (np.zeros(0, dtype=np.int64),) * 3
        return np.concatenate(cells), np.concatenate(keys), np.concatenate(coeffs)

    def _build_slots(self, cell, key, coeff):
        """Give every term its slot in the value table; drop the structurally zero ones.

        A term reads its base value evaluated on the cell's cloud, pulled back
        along the term's group word, once per (key, cloud): cells whose clouds
        have equal bytes share it whatever their index sets. A key known to
        vanish is never evaluated. The values are requested in one
        evaluate_all call per base, so the labels of all of them share one
        label plan per base bidegree, and a term is dropped when the value it
        reads is structurally zero. Every value is stored once, in the table,
        and each base's _cache keeps views into it.
        """
        keys, bases = self.keys, self.bases
        live = ~np.array([bases[k[0]][1].structurally_zero(*k[1:4]) for k in keys],
                         dtype=bool)[key]
        cell, key, coeff = cell[live], key[live], coeff[live]
        clouds = {s: self.points_of(s) for s in sorted(set(self._target.tolist()))}
        size = np.zeros(len(self._ids.sets), dtype=np.int64)
        cloud_id = np.zeros(len(self._ids.sets), dtype=np.int64)
        for s, P in clouds.items():
            size[s], cloud_id[s] = len(P), bases[0][1].cloud_id(P)
        self._size = size[self._target]
        target = self._target[cell]
        pairs, first, pair_of = _unique_rows(np.stack([key, cloud_id[target]], 1))
        requests = [keys[k] + (clouds[target[i]],)
                    for k, i in zip(pairs[:, 0].tolist(), first.tolist())]
        # pairs run in key order, so in base order
        forms = [v for b, (_, c) in enumerate(bases) for v in c.evaluate_all(
            [(bd, J, G, P, pull) for x, bd, J, G, pull, P in requests if x == b])]
        live = np.array([not v.structurally_zero for v in forms], dtype=bool)
        slot = np.where(live, np.cumsum(live) - 1, -1)[pair_of]
        forms = [v for v, ok in zip(forms, live) if ok]
        self.table = np.concatenate([v.values for v in forms] or [np.zeros(0, dtype=complex)])
        start = np.cumsum([0] + [len(v.values) for v in forms])
        # the cache keeps views into the table, not a second copy
        for v, lo, hi in zip(forms, start, start[1:]):
            v.values = self.table[lo:hi]
        keep = slot >= 0
        self.term_key, self.coeff = key[keep], coeff[keep]
        self._slot_start = start[slot[keep]]
        self.count = np.bincount(cell[keep], minlength=len(self.cells))
        self._first = np.cumsum(self.count) - self.count

    def points_of(self, set_id):
        return self.cover.cloud(self._ids.sets[set_id])

    def points(self, c):
        """The cloud of cell c."""
        return self.points_of(self._target[c])

    def sums(self):
        """(cells, terms, values, total) per batch of cells with equal term count and size.

        `cells` (B,) are positions in the plan's cell list, `terms` (B, t) the
        plan's term positions in sum order, `values` (B, t, N, ...) the gathered
        term values and `total` (B, N, ...) their sum (forms.signed_total). A
        batch of cells without terms has values and total None: those cells are
        the structural zero. A batch gathers at most forms.BATCH_ENTRIES
        entries, or one cell.
        """
        if not self.cells:
            return
        per_point = int(np.prod(self.table.shape[1:]))
        shapes, _, inverse = _unique_rows(np.stack([self.count, self._size], 1))
        for s, (t, N) in enumerate(shapes.tolist()):
            cells = np.flatnonzero(inverse == s)
            step = max(1, forms.BATCH_ENTRIES // max(1, t * N * per_point))
            for lo in range(0, len(cells), step):
                batch = cells[lo:lo + step]
                terms = self._first[batch][:, None] + np.arange(t)
                if not t:
                    yield batch, terms, None, None
                    continue
                values = self.table[self._slot_start[terms][..., None] + np.arange(N)]
                total = forms.signed_total(self.coeff[terms], values)
                yield batch, terms, values, total
                # the consumer drops its batch too, so only one is alive at a time
                del values, total

    def describe(self, term, modulus):
        """The dominant_term entry of a report row for one of the plan's terms."""
        b, bd, J, G, pull = self.keys[self.term_key[term]]
        ids = self._ids
        return {"cochain": self.bases[b][0], "bidegree": list(bd),
                "indices": ids.index_names(J), "words": ids.word_names(G),
                "pullback": ids.word_name(pull), "coefficient": int(self.coeff[term]),
                "modulus": modulus}


# ---------------------------------------------------------------------------
# the tau invariant and the cohomologous witness


# step kinds, ordered: edge < Cech < group. The order fixes the shuffle signs.
E_STEP, C_STEP, G_STEP = 0, 1, 2


def _shuffles(step_types):
    """Distinct orderings of the step multiset with their inversion signs.

    An inversion is a later-kind step occurring before an earlier-kind one
    under the E < C < G order.
    """
    counts = {}
    for t in step_types:
        counts[t] = counts.get(t, 0) + 1
    kinds = sorted(counts)
    total = sum(counts.values())

    def rec(seq, remaining):
        if len(seq) == total:
            yield tuple(seq)
            return
        for kind in kinds:
            if remaining.get(kind, 0) > 0:
                remaining[kind] -= 1
                seq.append(kind)
                yield from rec(seq, remaining)
                seq.pop()
                remaining[kind] += 1

    for seq in rec([], dict(counts)):
        inv = 0
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                if seq[i] > seq[j]:
                    inv += 1
        yield seq, (-1) ** inv


def _grid_states(seq):
    """The (atlas layer, Cech position, word position) states a path of steps visits."""
    layer, r, s = 0, 0, 0
    states = [(layer, r, s)]
    for kind in seq:
        if kind == E_STEP:
            layer = 1
        elif kind == C_STEP:
            r += 1
        else:
            s += 1
        states.append((layer, r, s))
    return tuple(states)


class PathLabeler:
    """Builds the chart paths through a cell and their labels, all as small ints.

    A cell is a tuple J of index ids and a tuple G of word ids of the action's
    id tables (_Ids), and every chain a label reads is an id of the labeler's
    holomap.ChainTable, which its label plans share. A vertex (atlas layer,
    index id, id of the remaining word tail) is interned as an int; its chart
    is the chain chart . tail letters, and the transition between two vertices
    the chain chart_a . letters of ta tb^-1 . inverse_b of named maps, reduced
    under the declared inverse pairs: the identity when nothing moves. The
    heads and tails of a cell's words, the vertices, transitions, top charts
    and pulled top charts are each built once per distinct id key, and a
    cell's labels once per (J, G, step types). Only pairs of
    letters are composed symbolically, once each (GroupActionSpec.fold); the
    label plan evaluates theta of a chain from its pieces.
    `transitions` maps ordered pairs (a, b) of cover indices to maps, outermost
    first, that replace chart_a . inverse_b: a chart simplex's corrupt control,
    on a trivial action. The chain ids of the transitions so replaced are
    recorded, and so is each (J, G, step types) one of whose paths reads one in
    its ladder or pullbacks. `base`, the cochain of the same labels without
    the replacements, then gives the value of every other request (cell_forms).
    """

    def __init__(self, cover, action, atlases, T, transitions=None, base=None):
        self.cover = cover
        self.action = action
        self.atlases = list(atlases)
        self.T = T
        self.n = atlases[0].chart(atlases[0].indices()[0]).n
        self.inverses = action.inverses.union(*(atlas.inverses for atlas in self.atlases))
        self.ids = action.ids()
        self.chains = ChainTable(self.inverses)
        self._overrides = {(self.ids.index(a), self.ids.index(b)): tuple(map(self.chains.map, f))
                           for (a, b), f in (transitions or {}).items()}
        self.base = base
        self._replaced = set()   # chain ids of the transitions _overrides gave
        self._replacing = set()  # (J, G, step types) whose paths read one of them
        self._letters = {}      # word id -> map ids of its letter maps
        self._charts = {}       # (layer, index id) -> map ids of the chart and its inverse
        self._vertices = {}     # (layer, index id, tail word id) -> vertex id
        self._vertex = []       # vertex id -> (layer, index id, tail word id)
        self._transitions = {}  # (vertex id, vertex id) -> chain id
        self._tops = {}         # vertex id -> chain id of its chart
        self._pulled = {}       # (top chart, pull word) -> chain id
        self._words = {}        # word ids G -> (heads, tails)
        self._shuffles = {}     # step types -> [(sign, grid states)]
        self._labels = {}       # (J, G, step types) -> labels

    def _letter_maps(self, w):
        """Map ids of the letter maps of the word w (GroupActionSpec.letter_maps)."""
        maps = self._letters.get(w)
        if maps is None:
            maps = self._letters[w] = tuple(map(self.chains.map,
                                                self.action.letter_maps(self.ids.words[w])))
        return maps

    def _chart(self, layer, index):
        charts = self._charts.get((layer, index))
        if charts is None:
            atlas, name = self.atlases[layer], self.ids.indices[index]
            charts = self._charts[(layer, index)] = (self.chains.map(atlas.chart(name)),
                                                     self.chains.map(atlas.inverse(name)))
        return charts

    def _heads_tails(self, G):
        """(heads, tails) of the word ids G: heads[s] = G[0] ... G[s-1] and
        tails[s] = G[s] ... G[-1], each product built once per G."""
        words = self._words.get(G)
        if words is None:
            mul = self.ids.mul
            heads, tails = [0], [0]
            for g, h in zip(G, reversed(G)):
                heads.append(mul(heads[-1], g))
                tails.append(mul(h, tails[-1]))
            words = self._words[G] = (heads, tails[::-1])
        return words

    def vertex(self, layer, index, tail):
        """Id of the vertex (atlas layer, index id, tail word id)."""
        key = (layer, index, tail)
        v = self._vertices.get(key)
        if v is None:
            v = self._vertices[key] = len(self._vertex)
            self._vertex.append(key)
        return v

    def top(self, v):
        """Chain id of the chart of vertex v: its chart followed by its tail's letters."""
        c = self._tops.get(v)
        if c is None:
            layer, index, tail = self._vertex[v]
            c = self._tops[v] = self.chains.chain(
                (self._chart(layer, index)[0],) + self._letter_maps(tail))
        return c

    def transition(self, va, vb):
        """Chain id of the map V_b -> V_a between the images of two vertex charts."""
        key = (va, vb)
        c = self._transitions.get(key)
        if c is None:
            layer_a, ia, ta = self._vertex[va]
            layer_b, ib, tb = self._vertex[vb]
            ids = self.ids
            pieces = self._overrides.get((ia, ib))
            if pieces is None:
                c = self.chains.chain((self._chart(layer_a, ia)[0],)
                                      + self._letter_maps(ids.mul(ta, ids.inverse(tb)))
                                      + (self._chart(layer_b, ib)[1],))
            else:
                c = self.chains.chain(pieces)
                self._replaced.add(c)
            self._transitions[key] = c
        return c

    def labels(self, J, G, step_types):
        """The cell's path labels that are not structurally zero (label_vanishes), in
        shuffle order: (sign, ladder, pullbacks, top chart), the chain ids that
        LabelPlan.add_label reads. Built once per cell and step types; the vertex of
        grid state (layer, r, s) is (layer, J[r] moved by G[0] ... G[s-1],
        G[s] ... G[-1]). A key one of whose paths reads a replaced transition, in
        its ladder or, when the label is not zero, in its pullbacks, joins
        _replacing."""
        key = (J, G, step_types)
        labels = self._labels.get(key)
        if labels is None:
            shuffles = self._shuffles.get(step_types)
            if shuffles is None:
                shuffles = self._shuffles[step_types] = [
                    (sign, _grid_states(seq)) for seq, sign in _shuffles(step_types)]
            heads, tails = self._heads_tails(G)
            moves, grid, labels = self.ids.moves, {}, []
            for sign, states in shuffles:
                path = []
                for state in states:
                    v = grid.get(state)
                    if v is None:
                        layer, r, s = state
                        v = grid[state] = self.vertex(layer, moves[heads[s]][J[r]], tails[s])
                    path.append(v)
                ladder = tuple(self.transition(a, b) for a, b in zip(path, path[1:]))
                pullbacks = ()
                if not label_vanishes(self.T, self.n, ladder, self.chains):
                    pullbacks = tuple(self.transition(u, path[-1]) for u in path[1:-1])
                    labels.append((sign, ladder, pullbacks, self.top(path[-1])))
                if self._replaced and not self._replaced.isdisjoint(ladder + pullbacks):
                    self._replacing.add(key)
            self._labels[key] = labels
        return labels

    def cell_vanishes(self, J, G, step_types):
        """True when every path label of the cell vanishes, so its cell form does."""
        return not self.labels(J, G, step_types)

    def replaces(self, J, G, step_types):
        """True when a path of the cell reads a transition that `transitions` replaced
        (labels), so its value differs from base's."""
        self.labels(J, G, step_types)
        return (J, G, step_types) in self._replacing

    def pulled_top(self, top, pull):
        """The top chart chain followed by the letter maps of the word pull, built once
        per (top, pull): a label pulled back along rho(pull) is the label of this
        top chart on the same path, so the base value of (J, G) pulled back along
        rho(pull) on a cloud P is the signed sum of those labels on P."""
        if not pull:
            return top
        c = self._pulled.get((top, pull))
        if c is None:
            c = self._pulled[(top, pull)] = self.chains.chain(
                self.chains.chains[top] + self._letter_maps(pull))
        return c

    def cell_forms(self, bidegree, step_types, requests):
        """Signed shuffle sums of the path labels of (J, G, points, pull) requests, in
        order, each label's top chart extended by the letters of pull (pulled_top).

        With a base cochain, a request none of whose paths reads a replaced
        transition takes the base's value, cached there (MixedCochain.evaluate_all),
        and only the others are labeled here. Every path label of every request
        labeled here is counted in one LabelPlan before any is evaluated, so a
        request whose labels are all structurally zero is the structural zero
        without a map being evaluated. The others are evaluated in the rank order
        of their labels, so that requests sharing label keys run together and the
        plan drops each key soon after its first use. Each sum still adds its
        labels in shuffle order.
        """
        out = [None] * len(requests)
        if self.base is not None:
            shared = [i for i, (J, G, _, _) in enumerate(requests)
                      if not self.replaces(J, G, step_types)]
            values = self.base.evaluate_all([(bidegree, *requests[i]) for i in shared])
            for i, value in zip(shared, values):
                out[i] = value
        plan, labels = LabelPlan(self.T, self.chains), {}
        for i, (J, G, P, pull) in enumerate(requests):
            if out[i] is not None:
                continue
            pid = plan.cloud(P)
            labels[i] = [(sign, plan.add_label(ladder, pullbacks, self.pulled_top(top, pull), pid))
                         for sign, ladder, pullbacks, top in self.labels(J, G, step_types)]
        ranks = {i: min((plan.rank(key) for _, key in cell), default=())
                 for i, cell in labels.items()}
        for i in sorted(labels, key=ranks.__getitem__):
            out[i] = forms.signed_sum(self.n, self.T.arity, requests[i][2],
                                      ((sign, plan.take(key)) for sign, key in labels[i]))
        return out

    def cochain(self, form_degree, steps, name):
        """The MixedCochain whose base value in bidegree bd is the signed shuffle sum
        of the path labels over the step types steps[bd] (cell_forms)."""
        return MixedCochain(
            self.cover, self.action, self.n, form_degree,
            {bd: (lambda requests, bd=bd, s=s: self.cell_forms(bd, s, requests))
             for bd, s in steps.items()},
            name=name, vanishes=lambda bd, J, G: self.cell_vanishes(J, G, steps[bd]))


def tau_invariant(cover, action, atlas, T, transitions=None, base=None):
    """The total-degree-n cocycle of an equivariant atlas under the invariant T, its
    transitions overridden by `transitions` (PathLabeler). `base`, the tau of the
    same cover, action, atlas and T without overrides, gives the values of the
    cells whose paths read no overridden transition."""
    n_total = T.arity
    labeler = PathLabeler(cover, action, [atlas], T, transitions, base)
    steps = {(m, n_total - m): (C_STEP,) * m + (G_STEP,) * (n_total - m)
             for m in range(n_total + 1) if m == n_total or action.generators}
    return labeler.cochain(n_total, steps, "tau")


def cohomologous_witness(cover, action, atlas_a, atlas_b, T):
    """Degree-(n-1) cochain whose mixed differential is tau(atlas_a) - tau(atlas_b).

    The edge direction enters as one extra step, placed before the Cech and
    group steps in the shuffle ordering; layer 0 holds atlas_b (the vertex
    whose cocycle carries the minus sign), layer 1 atlas_a.
    """
    n_total = T.arity
    labeler = PathLabeler(cover, action, [atlas_b, atlas_a], T)
    steps = {(m, n_total - 1 - m): (E_STEP,) + (C_STEP,) * m + (G_STEP,) * (n_total - 1 - m)
             for m in range(n_total) if m == n_total - 1 or action.generators}
    return labeler.cochain(n_total, steps, "witness")


# ---------------------------------------------------------------------------
# residual reports

# sign of the group part in the total differential, stated in every report
SIGN_CONVENTION = "cech + (-1)^m group"


def enumerate_cells(cover, action, m, q, increasing=False):
    """All (J, G) cells of a bidegree with a nonempty translated cloud, as (C, m+1)
    index-id and (C, q) word-id arrays of the action's id tables (_Ids), with the
    (C,) ids of the cells' index sets (_Ids.cell_sets): J over the cover indices
    in itertools.product order and, within each J, G over the action's declared
    words in the same order. With `increasing`, only J whose ids strictly increase."""
    ids = action.ids()
    alphabet = list(map(ids.word, action.words))
    Js = _grid([ids.index(i) for i in cover.indices], m + 1, increasing)
    Gs = _grid(alphabet, q)
    J, G = np.repeat(Js, len(Gs), axis=0), np.tile(Gs, (len(Js), 1))
    sets = ids.cell_sets(J, G)
    nonempty = np.array([len(cover.clouds.get(s, ())) > 0 for s in ids.sets], dtype=bool)
    keep = nonempty[sets] if len(sets) else np.zeros(0, dtype=bool)
    return J[keep], G[keep], sets[keep]


def _grid(alphabet, r, increasing=False):
    """The r-tuples over the alphabet, in itertools.product order, as an (A^r, r) array;
    with `increasing`, only those that strictly increase in alphabet order."""
    rows = list(itertools.combinations(alphabet, r) if increasing
                else itertools.product(alphabet, repeat=r))
    return np.array(rows, dtype=np.int64).reshape(len(rows), r)


def cell_values(cochain, bidegrees=None):
    """(bidegree, J, G, values) per bidegree walked (default: the cochain's own): the
    index-id and word-id arrays of its nonempty cells (enumerate_cells) and the
    cochain's base value on each cell's cloud, in cell order, evaluated in one batch.
    """
    ids = cochain.ids
    for bd in cochain.bidegrees() if bidegrees is None else bidegrees:
        J, G, sets = enumerate_cells(cochain.cover, cochain.action, *bd)
        yield bd, J, G, cochain.evaluate_all([
            (bd, j, g, cochain.cover.cloud(ids.sets[s]), 0)
            for j, g, s in zip(J.tolist(), G.tolist(), sets.tolist())])


def require_cells(count, bidegrees):
    """A check that visited no cell checked nothing: refuse it, naming the bidegrees walked."""
    if not count:
        raise ValidationError("no nonempty cells in bidegrees %s: nothing to check"
                              % ", ".join("(%d, %d)" % tuple(bd) for bd in bidegrees))


def worst_first(residual):
    """Positions of a (C,) residual array, worst first: NaN above every number, and
    of equal residuals the first. This is a stable sort by nan_worst, descending."""
    return np.lexsort((-residual, ~np.isnan(residual)))


class ResidualReport:
    """Residuals of an expression over the cells of its bidegrees; report rows are
    built only for the cells a caller reads.

    Per bidegree one TermPlan sums the cells in batches, and
    forms.residual_facts gives each cell's residual, worst point, dominant term
    and that term's modulus. Those stay in (C,) arrays, in bidegree order and
    then cell order, and `order` ranks the cells by worst_first. `increasing`
    walks only strictly increasing Cech tuples (enumerate_cells). No cell at
    all is a ValidationError.
    """

    def __init__(self, expr, tol, increasing=False):
        cover, action = expr.bases[0][1].cover, expr.bases[0][1].action
        self._plans, self._start, facts = [], [], []
        size = 0
        for bd in expr.bidegrees():
            plan = TermPlan(expr, bd, enumerate_cells(cover, action, *bd, increasing))
            self._plans.append((bd, plan))
            self._start.append(size)
            size += len(plan.cells)
            facts.append(self._facts(plan))
        require_cells(size, expr.bidegrees())
        self.residual, self.worst_index, self.dominant, self.modulus = map(np.concatenate,
                                                                           zip(*facts))
        self.order = worst_first(self.residual)
        self.max_residual = float(self.residual[self.order[0]])
        self.passed = self.max_residual <= tol
        self.tolerance = tol

    @staticmethod
    def _facts(plan):
        """(residual, worst point, dominant term, modulus) of the plan's cells in cell
        order; the term is its position in the plan, -1 for none. A cell without
        terms is the structural zero: residual 0 at its first point."""
        C = len(plan.cells)
        residual, modulus = np.zeros(C), np.zeros(C)
        worst, dominant_term = np.zeros(C, dtype=np.int64), np.full(C, -1, dtype=np.int64)
        for cells, terms, values, total in plan.sums():
            if total is None:
                continue
            residual[cells], worst[cells], dominant, modulus[cells] = forms.residual_facts(
                total, plan.coeff[terms], values)
            dominant_term[cells] = terms[np.arange(len(cells)), dominant]
            del values, total
        return residual, worst, dominant_term, modulus

    def row(self, i):
        """The report row of cell i, counted in bidegree order and then cell order."""
        p = bisect.bisect_right(self._start, i) - 1
        (bd, plan), c = self._plans[p], i - self._start[p]
        J, G = plan.cells[c]
        ids = plan._ids
        k = int(self.dominant[i])
        point = plan.points(c)[int(self.worst_index[i])]
        return {"bidegree": list(bd), "indices": ids.index_names(J),
                "words": ids.word_names(G), "residual": float(self.residual[i]),
                "worst_point": [[z.real, z.imag] for z in point.tolist()],
                "dominant_term": None if k < 0 else plan.describe(k, float(self.modulus[i]))}

    def worst(self):
        """The row of the worst cell."""
        return self.row(int(self.order[0]))

    def rows(self):
        """Every cell's row, worst first."""
        return [self.row(i) for i in self.order.tolist()]

    def to_json(self):
        """The report that verify-cocycle and witness write: every row, worst first."""
        return {
            "max_residual": self.max_residual,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "sign_convention": SIGN_CONVENTION,
            "cells": self.rows(),
        }


def closedness_report(cochain, tol, increasing=False):
    """The ResidualReport of the mixed differential over all next-degree cells, or
    with `increasing` over those whose Cech tuple strictly increases."""
    return ResidualReport(mixed_differential(cochain), tol, increasing)


def witness_report(witness, tau_a, tau_b, tol):
    """The ResidualReport of d(witness) - tau_a + tau_b over all degree-n cells: one
    expression whose terms sum in key order, the witness's first, then -tau_a
    and +tau_b (TermPlan)."""
    diff = mixed_differential(witness)
    bases = diff.bases + (("tau_a", tau_a), ("tau_b", tau_b))
    parts = [(1, bd, node) for bd, node in diff.components.items()]
    parts += [(sign, bd, ("base", b, bd)) for b, sign, tau in ((1, -1, tau_a), (2, 1, tau_b))
              for bd in tau.bidegrees()]
    return ResidualReport(_combination(bases, parts), tol)
