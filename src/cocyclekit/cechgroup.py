"""Mixed Cech/group cochains of holomorphic forms and the tau invariant.

Cells are pairs (Cech multi-index, tuple of group words); the value on a cell
is a SampledForm: a k-form on the cloud of the translated intersection, one
array row per point. Differentials act on formal signed combinations of
pulled-back base values, so the pairwise cancellations behind delta^2 = 0 and
the bar identities happen symbolically before any floating-point addition.
Each base value is evaluated once on its own cell's cloud; other cells read it
by row gather when clouds nest, and otherwise evaluate it on their own cloud
or, under a group word, at the moved points.

The tau invariant of an equivariant atlas assigns to each total-degree-n cell
a signed sum over the (m,q)-shuffles of grid paths, each path contributing the
top Chern-Weil label of its chart simplex. Pure Cech cells and pure group
cells reduce to the single interleaved simplex.
"""

import itertools

import numpy as np

from .cocycle import ChartSimplex, cf_label_top
from .errors import ValidationError
from .forms import SampledForm, pullback_kform, signed_sum
from .holomap import MapChain, as_cloud, compose, identity_map

# largest round-trip error, over the declared clouds, of a generator against its
# inverse and of a chart against its inverse
GENERATOR_ROUND_TRIP_TOL = 1e-10
CHART_ROUND_TRIP_TOL = 1e-9

# ---------------------------------------------------------------------------
# free words over named generators


class Word:
    """Reduced free word; letters are (generator name, +1 or -1)."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = self._reduce(tuple(letters))

    @staticmethod
    def _reduce(letters):
        out = []
        for name, sgn in letters:
            if sgn not in (1, -1):
                raise ValidationError("letter sign must be +1 or -1")
            if out and out[-1][0] == name and out[-1][1] == -sgn:
                out.pop()
            else:
                out.append((name, sgn))
        return tuple(out)

    def __mul__(self, other):
        return Word(self.letters + other.letters)

    def inverse(self):
        return Word(tuple((name, -sgn) for name, sgn in reversed(self.letters)))

    def is_identity(self):
        return not self.letters

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __lt__(self, other):
        return self.letters < other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        if not self.letters:
            return "e"
        return "*".join(name + ("" if sgn > 0 else "^-1") for name, sgn in self.letters)

    @classmethod
    def gen(cls, name, sgn=1):
        return cls(((name, sgn),))

    @classmethod
    def product(cls, words):
        w = cls()
        for x in words:
            w = w * x
        return w


IDENTITY_WORD = Word()


# ---------------------------------------------------------------------------
# cover, action, atlas


class CoverSpec:
    """Index set plus sample clouds per multi-index set.

    Clouds are keyed by the set of indices; the constructor appends every deep
    intersection's points to all enclosing clouds, so restriction maps are
    literal subset lookups: a row gather (see restriction).
    """

    def __init__(self, indices, clouds):
        self.indices = list(indices)
        index_set = set(self.indices)
        self.clouds = {}
        self._arrays = {}
        for key, points in clouds.items():
            key = frozenset(key)
            if not key or not key <= index_set:
                raise ValidationError("cloud key %r not within the index set" % (sorted(key),))
            self.clouds[key] = [tuple(complex(c) for c in p) for p in points]
        self._nest()
        self._rows = {}

    def _nest(self):
        for key in sorted(self.clouds, key=len, reverse=True):
            for other in self.clouds:
                if other < key:
                    have = set(self.clouds[other])
                    for p in self.clouds[key]:
                        if p not in have:
                            self.clouds[other].append(p)
                            have.add(p)

    def cloud(self, multi_index):
        """Sample cloud of the intersection over a tuple (repeats collapse)."""
        key = frozenset(multi_index)
        return self.clouds.get(key, [])

    def cloud_array(self, multi_index, n):
        """The same cloud as an (N, n) complex array, built once per intersection."""
        key = frozenset(multi_index)
        P = self._arrays.get(key)
        if P is None:
            P = self._arrays[key] = as_cloud(self.cloud(key), n)[0]
        return P

    def restriction(self, source, target):
        """Rows of the target's cloud within the source's cloud, as an index array.

        None when some target point is missing from the source cloud (an
        undeclared source intersection has no cloud to restrict from).
        """
        key = (frozenset(source), frozenset(target))
        rows = self._rows.get(key, False)
        if rows is False:
            where = {p: i for i, p in enumerate(self.cloud(source))}
            found = [where.get(p) for p in self.cloud(target)]
            rows = None if None in found else np.array(found, dtype=np.intp)
            self._rows[key] = rows
        return rows

    def declared_sets(self):
        return sorted(self.clouds, key=lambda s: (len(s), sorted(map(str, s))))


class GroupActionSpec:
    """Named generators with inverses, plus the right action on cover indices."""

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
        self._inverse_action = {
            name: {v: k for k, v in table.items()}
            for name, table in self.index_action.items()
        }
        self.words = [w if isinstance(w, Word) else Word.gen(w) for w in words]
        self._word_maps = {}

    def letter_map(self, name, sgn):
        fwd, inv = self.generators[name]
        return fwd if sgn > 0 else inv

    def act_index(self, index, word):
        for name, sgn in word.letters:
            table = self.index_action[name] if sgn > 0 else self._inverse_action[name]
            index = table[index]
        return index

    def word_map(self, word):
        """rho(word) as one symbolically composed HoloMap (memoized)."""
        if word not in self._word_maps:
            if word.is_identity():
                m = identity_map(self.n)
            else:
                m = self.letter_map(*word.letters[-1])
                for name, sgn in reversed(word.letters[:-1]):
                    m = compose(self.letter_map(name, sgn), m, check=False)
            self._word_maps[word] = m
        return self._word_maps[word]

    def word_chain(self, word):
        """rho(word) as a chain of generator maps (for pullbacks of base values)."""
        if word.is_identity():
            return MapChain([identity_map(self.n)], name=repr(word))
        return MapChain([self.letter_map(name, sgn) for name, sgn in word.letters],
                        name=repr(word))

    def validate(self, cover):
        """Generator/inverse round trips on every base cloud, within GENERATOR_ROUND_TRIP_TOL."""
        worst = 0.0
        for name, (fwd, inv) in self.generators.items():
            for key in cover.declared_sets():
                P = as_cloud(cover.clouds[key], fwd.n)[0]
                if len(P):
                    worst = max(worst, float(np.max(np.abs(fwd.eval(inv.eval(P)) - P))),
                                float(np.max(np.abs(inv.eval(fwd.eval(P)) - P))))
        if worst > GENERATOR_ROUND_TRIP_TOL:
            raise ValidationError("generator/inverse round trip off by %.3e > %.1e"
                                  % (worst, GENERATOR_ROUND_TRIP_TOL))
        return worst


def trivial_action(indices, n):
    """Action of the trivial group: no generators, no index motion."""
    return GroupActionSpec({}, {}, indices, n=n)


class Atlas:
    """Charts (with explicit inverses) per cover index."""

    def __init__(self, charts):
        self.charts = {}
        for index, pair in charts.items():
            chart, inverse = pair
            self.charts[index] = (chart, inverse)

    def chart(self, index):
        return self.charts[index][0]

    def inverse(self, index):
        return self.charts[index][1]

    def indices(self):
        return list(self.charts)

    def validate(self, cover):
        """Chart/inverse round trip on the index's own cloud, within CHART_ROUND_TRIP_TOL."""
        worst = 0.0
        for index in self.charts:
            chart, inverse = self.charts[index]
            P = as_cloud(cover.cloud((index,)), chart.n)[0]
            if len(P):
                worst = max(worst, float(np.max(np.abs(inverse.eval(chart.eval(P)) - P))))
        if worst > CHART_ROUND_TRIP_TOL:
            raise ValidationError("atlas chart/inverse round trip off by %.3e" % worst)
        return worst


# ---------------------------------------------------------------------------
# cochains as formal combinations of pulled-back base values


def cell_multi_index(action, J, G):
    """Translated index tuple of the cell (J, G): each index moved by the full word."""
    w = Word.product(G)
    return tuple(action.act_index(i, w) for i in J)


class MixedCochain:
    """Base cochain: per-bidegree providers of k-forms on cells.

    provider(J, G, points) returns the base value of the cell (J, G) as a
    SampledForm on the (N, n) cloud `points`. Its value on the cell's own cloud
    is computed once and cached in _cache; that value also tells whether the
    base value is structurally zero. A scenario builds each tau once
    (Scenario.tau), so every check reading it shares the cache.
    """

    def __init__(self, cover, action, n, form_degree, components, name="cochain"):
        self.cover = cover
        self.action = action
        self.n = int(n)
        self.form_degree = int(form_degree)
        self.components = {}
        for (m, q), provider in components.items():
            if m < 0 or q < 0:
                raise ValidationError("bad bidegree (%d, %d)" % (m, q))
            self.components[(int(m), int(q))] = provider
        self.name = name
        self._cache = {}

    def bidegrees(self):
        return sorted(self.components)

    def base_value(self, bidegree, J, G):
        """The base value on its cell's own cloud, evaluated once."""
        key = (bidegree, tuple(J), tuple(G))
        if key not in self._cache:
            self._cache[key] = self.evaluate(bidegree, J, G, self.cell_points(J, G))
        return self._cache[key]

    def evaluate(self, bidegree, J, G, points):
        """The provider's base value of (J, G) on an (N, n) cloud."""
        provider = self.components.get(bidegree)
        if provider is None:
            raise ValidationError("no component in bidegree %r" % (bidegree,))
        return provider(tuple(J), tuple(G), points)

    def cell_points(self, J, G):
        return self.cover.cloud_array(cell_multi_index(self.action, J, G), self.n)

    def sample(self, bidegree, J, G):
        """The cell's value on its own cloud (cochains and expressions alike)."""
        return self.base_value(bidegree, J, G)

    def term_value(self, term, target, points):
        """A term (bd, J, G, word) as a form on `points`, the cloud of `target`.

        A structurally zero base value is returned as cached, with nothing
        evaluated. Otherwise: a row gather from the base cell's own values when
        the clouds nest, an evaluation at `points` when they do not, or, under a
        group word, an evaluation at the moved points pulled back along it.
        """
        bd, J, G, pull = term
        own = self.base_value(bd, J, G)
        if own.structurally_zero:
            return own
        if pull.is_identity():
            rows = self.cover.restriction(cell_multi_index(self.action, J, G), target)
            if rows is None:
                return self.evaluate(bd, J, G, points)
            return SampledForm(self.n, self.form_degree, points, own.values[rows])
        chain = self.action.word_chain(pull)
        return pullback_kform(chain, self.evaluate(bd, J, G, chain.eval(points)), points)

    def expression(self):
        return CochainExpression(self, {bd: _identity_terms(bd) for bd in self.components})


def _identity_terms(bd):
    def at(J, G):
        return {(bd, tuple(J), tuple(G), IDENTITY_WORD): 1}
    return at


class CochainExpression:
    """Formal integer combination of base-cochain values pulled back along words.

    A term key is (base bidegree, base J, base G, pullback word); differentials
    only rewrite keys, so equal keys with opposite signs cancel exactly and
    never reach floating point.
    """

    def __init__(self, base, comp_terms):
        self.base = base
        self.comp_terms = dict(comp_terms)

    def bidegrees(self):
        return sorted(self.comp_terms)

    def terms(self, bidegree, J, G):
        fn = self.comp_terms.get(bidegree)
        if fn is None:
            return {}
        return _signed_sum([(1, fn(tuple(J), tuple(G)))])

    def value(self, bidegree, J, G):
        """The cell's values on its cloud, summed over its terms in a fixed order."""
        base = self.base
        target = cell_multi_index(base.action, J, G)
        points = base.cover.cloud_array(target, base.n)
        terms = sorted(self.terms(bidegree, J, G).items(), key=lambda kv: repr(kv[0]))
        return signed_sum(base.n, base.form_degree, points,
                          ((coeff, base.term_value(term, target, points))
                           for term, coeff in terms))

    def sample(self, bidegree, J, G):
        return self.value(bidegree, J, G)

    def max_residual(self, bidegree, J, G):
        if not len(self.base.cell_points(J, G)):
            return None
        return self.value(bidegree, J, G).max_abs()

    def scale(self, a):
        a = int(a)
        return _linear_combination(self.base,
                                   [(a, bd, fn) for bd, fn in self.comp_terms.items()])

    def __add__(self, other):
        if other.base is not self.base:
            raise ValidationError("expressions over different base cochains")
        return _linear_combination(self.base, [(1, bd, fn) for e in (self, other)
                                               for bd, fn in e.comp_terms.items()])

    def __sub__(self, other):
        return self + other.scale(-1)


def _signed_sum(parts):
    """Sum of sign * terms over (sign, term dict) pairs, zero coefficients dropped."""
    out = {}
    for sign, terms in parts:
        for key, coeff in terms.items():
            out[key] = out.get(key, 0) + sign * coeff
    return {k: c for k, c in out.items() if c}


def _linear_combination(base, parts):
    """CochainExpression summing sign * fn per bidegree over (sign, bidegree, fn) parts."""
    by_bidegree = {}
    for sign, bd, fn in parts:
        by_bidegree.setdefault(bd, []).append((sign, fn))

    def component(fns):
        return lambda J, G: _signed_sum((sign, fn(J, G)) for sign, fn in fns)

    return CochainExpression(base, {bd: component(fns) for bd, fns in by_bidegree.items()})


def as_expression(c):
    return c.expression() if isinstance(c, MixedCochain) else c


def cech_differential(c):
    """Alternating sum over dropped Cech indices; restrictions are literal."""
    c = as_expression(c)
    out = {}
    for (m, q) in c.bidegrees():
        def face_terms(J, G, m=m, q=q):
            if len(J) != m + 2 or len(G) != q:
                raise ValidationError("cell shape mismatch for bidegree (%d, %d)" % (m + 1, q))
            return _signed_sum(((-1) ** k, c.terms((m, q), J[:k] + J[k + 1:], G))
                               for k in range(m + 2))
        out[(m + 1, q)] = face_terms
    return CochainExpression(c.base, out)


def group_differential(c):
    """Bar differential: drop-and-translate, merge adjacent letters, act on the last."""
    c = as_expression(c)
    action = c.base.action
    out = {}
    for (m, q) in c.bidegrees():
        def face_terms(J, G, m=m, q=q):
            if len(J) != m + 1 or len(G) != q + 1:
                raise ValidationError("cell shape mismatch for bidegree (%d, %d)" % (m, q + 1))
            g1 = G[0]
            J_translated = tuple(action.act_index(i, g1) for i in J)
            parts = [(1, c.terms((m, q), J_translated, G[1:]))]
            for k in range(1, q + 1):
                G_merged = G[:k - 1] + (G[k - 1] * G[k],) + G[k + 1:]
                parts.append(((-1) ** k, c.terms((m, q), J, G_merged)))
            # right multiplication by one word is injective, so no two keys collide
            last = G[-1]
            pulled = {(bd, Jb, Gb, pull * last): coeff
                      for (bd, Jb, Gb, pull), coeff in c.terms((m, q), J, G[:-1]).items()}
            parts.append(((-1) ** (q + 1), pulled))
            return _signed_sum(parts)
        out[(m, q + 1)] = face_terms
    return CochainExpression(c.base, out)


def mixed_differential(c):
    """Total differential: cech + (-1)^{cech degree} * group."""
    c = as_expression(c)
    cech = cech_differential(c).comp_terms.items()
    grp = group_differential(c).comp_terms.items()
    return _linear_combination(c.base, [(1, bd, fn) for bd, fn in cech]
                               + [((-1) ** bd[0], bd, fn) for bd, fn in grp])


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


class PathLabeler:
    """Builds chart simplices for grid paths through a cell and labels them.

    Vertices carry (atlas layer, cover index, remaining word tail); transitions
    between two vertices compose chart, word map and inverse chart
    symbolically, with an identity shortcut when nothing moves.
    """

    def __init__(self, cover, action, atlases, T):
        self.cover = cover
        self.action = action
        self.atlases = list(atlases)
        self.T = T
        self.n = atlases[0].chart(atlases[0].indices()[0]).n
        self._transitions = {}
        self._tails = {}

    def _tail_word(self, G, s):
        key = (tuple(G), s)
        if key not in self._tails:
            self._tails[key] = Word.product(G[s:])
        return self._tails[key]

    def vertex(self, layer, J, G, r, s):
        """(atlas layer, translated index, word tail) for grid state (r, s)."""
        head = Word.product(G[:s])
        index = self.action.act_index(J[r], head)
        return (layer, index, self._tail_word(G, s))

    def chart_for(self, vertex):
        layer, index, tail = vertex
        chart = self.atlases[layer].chart(index)
        if tail.is_identity():
            return MapChain([chart], name="%s" % (getattr(chart, "name", "chart"),))
        pieces = [chart] + [self.action.letter_map(name, sgn) for name, sgn in tail.letters]
        return MapChain(pieces)

    def transition(self, va, vb):
        """Map V_b -> V_a between the images of two vertex charts."""
        key = (va, vb)
        if key not in self._transitions:
            layer_a, ia, ta = va
            layer_b, ib, tb = vb
            w = ta * tb.inverse()
            if layer_a == layer_b and ia == ib and w.is_identity():
                self._transitions[key] = identity_map(self.n)
            else:
                inner = self.atlases[layer_b].inverse(ib)
                if not w.is_identity():
                    inner = compose(self.action.word_map(w), inner, check=False)
                self._transitions[key] = compose(self.atlases[layer_a].chart(ia), inner,
                                                 check=False)
        return self._transitions[key]

    def label_path(self, vertices, points):
        charts = [self.chart_for(v) for v in vertices]
        transitions = {}
        for a in range(len(vertices)):
            for b in range(a + 1, len(vertices)):
                transitions[(a, b)] = self.transition(vertices[a], vertices[b])
        simplex = ChartSimplex(charts, transitions, points, validate=False)
        return cf_label_top(simplex, self.T, points)

    def cell_form(self, J, G, step_types, points):
        """Signed shuffle sum of the path labels of one cell, on an (N, n) cloud."""
        return signed_sum(self.n, self.T.arity, points,
                          ((sign, self.label_path(self.path(J, G, seq), points))
                           for seq, sign in _shuffles(step_types)))

    def path(self, J, G, seq):
        """Vertices of the grid path that takes the steps `seq` through cell (J, G)."""
        layer, r, s = 0, 0, 0
        vertices = [self.vertex(layer, J, G, r, s)]
        for kind in seq:
            if kind == E_STEP:
                layer = 1
            elif kind == C_STEP:
                r += 1
            else:
                s += 1
            vertices.append(self.vertex(layer, J, G, r, s))
        return vertices


def tau_invariant(cover, action, atlas, T, verify_tol=None):
    """The total-degree-n cocycle of an equivariant atlas under the invariant T.

    With verify_tol set, the mixed differential is checked over the action's
    declared words before returning; a residual above tolerance raises.
    """
    n_total = T.arity
    labeler = PathLabeler(cover, action, [atlas], T)
    components = {}
    for m in range(n_total + 1):
        q = n_total - m
        if q > 0 and not action.generators:
            continue

        def provider(J, G, points, m=m, q=q):
            if len(J) != m + 1 or len(G) != q:
                raise ValidationError("cell shape mismatch in bidegree (%d, %d)" % (m, q))
            return labeler.cell_form(J, G, (C_STEP,) * m + (G_STEP,) * q, points)

        components[(m, q)] = provider
    tau = MixedCochain(cover, action, labeler.n, n_total, components, name="tau")
    if verify_tol is not None:
        report = closedness_report(tau, tol=verify_tol)
        if not report["pass"]:
            raise ValidationError("tau is not closed: residual %.3e > %.1e"
                                  % (report["max_residual"], verify_tol))
    return tau


def cohomologous_witness(cover, action, atlas_a, atlas_b, T):
    """Degree-(n-1) cochain whose mixed differential is tau(atlas_a) - tau(atlas_b).

    The edge direction enters as one extra step, placed before the Cech and
    group steps in the shuffle ordering; layer 0 holds atlas_b (the vertex
    whose cocycle is subtracted), layer 1 atlas_a.
    """
    n_total = T.arity
    labeler = PathLabeler(cover, action, [atlas_b, atlas_a], T)
    components = {}
    for m in range(n_total):
        q = n_total - 1 - m
        if q > 0 and not action.generators:
            continue

        def provider(J, G, points, m=m, q=q):
            if len(J) != m + 1 or len(G) != q:
                raise ValidationError("cell shape mismatch in bidegree (%d, %d)" % (m, q))
            return labeler.cell_form(J, G, (E_STEP,) + (C_STEP,) * m + (G_STEP,) * q,
                                     points)

        components[(m, q)] = provider
    return MixedCochain(cover, action, labeler.n, n_total, components, name="witness")


# ---------------------------------------------------------------------------
# residual reports

# sign of the group part in the total differential, stated in every report
SIGN_CONVENTION = "cech + (-1)^m group"


def enumerate_cells(cover, action, m, q, words=None):
    """All (J, G) cells of a bidegree with a nonempty translated cloud."""
    words = list(words if words is not None else action.words)
    for J in itertools.product(cover.indices, repeat=m + 1):
        for G in itertools.product(words, repeat=q):
            if cover.cloud(cell_multi_index(action, J, G)):
                yield tuple(J), tuple(G)


def cell_values(source, bidegrees=None):
    """(bidegree, J, G, SampledForm) for every nonempty cell of a cochain or expression.

    Walks `bidegrees` (default: the source's own) over the action's declared
    words; an expression reads zero on a bidegree it has no component in.
    """
    base = as_expression(source).base
    for bd in source.bidegrees() if bidegrees is None else bidegrees:
        for J, G in enumerate_cells(base.cover, base.action, *bd):
            yield bd, J, G, source.sample(bd, J, G)


def require_cells(count, bidegrees):
    """A check that visited no cell checked nothing: refuse it, naming the bidegrees walked."""
    if not count:
        raise ValidationError("no nonempty cells in bidegrees %s: nothing to check"
                              % ", ".join("(%d, %d)" % tuple(bd) for bd in bidegrees))


def residual_report(residuals, bidegrees, tol):
    """Report over (bidegree, J, G, residual SampledForm) cells of `bidegrees`, worst
    cell first; no cells at all is a ValidationError."""
    rows = []
    worst = 0.0
    for (m, q), J, G, residual in residuals:
        point, res = residual.worst_point()
        rows.append({"bidegree": [m, q], "indices": list(map(str, J)),
                     "words": [repr(w) for w in G], "residual": res,
                     "worst_point": [[c.real, c.imag] for c in point]})
        worst = max(worst, res)
    require_cells(len(rows), bidegrees)
    rows.sort(key=lambda r: -r["residual"])
    return {
        "max_residual": worst,
        "pass": worst <= tol,
        "tolerance": tol,
        "sign_convention": SIGN_CONVENTION,
        "cells": rows,
    }


def closedness_report(cochain, tol=1e-7):
    """Max residual of the mixed differential over all next-degree cells."""
    diff = mixed_differential(cochain)
    return residual_report(cell_values(diff), diff.bidegrees(), tol)


def witness_report(witness, tau_a, tau_b, tol=1e-7):
    """Residual of d(witness) - (tau_a - tau_b) over all degree-n cells."""
    diff = mixed_differential(witness)
    bidegrees = sorted(set(diff.bidegrees()) | set(tau_a.bidegrees()) | set(tau_b.bidegrees()))
    return residual_report(
        ((bd, J, G, got.sub(tau_a.sample(bd, J, G).sub(tau_b.sample(bd, J, G))))
         for bd, J, G, got in cell_values(diff, bidegrees)), bidegrees, tol)
