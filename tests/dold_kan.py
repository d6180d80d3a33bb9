"""Graded complexes and explicit Dold-Kan labelings: the oracle of the face-sum check.

A DKSimplex labels every cell (i0 < ... < il) of a standard simplex with an
element of degree -l; the boundary condition ties the alternating face sum of
each cell to the differential of its label. Elements are abstract: any carrier
with add/scale/norm supplied through ElementOps works (exact rational vectors,
or sampled holomorphic forms).

cf_map is the Dold-Kan labeling of a chart simplex: face labels on the k-cells,
zero elsewhere, in shifted_form_complex, whose differential is zero. A chart
simplex is a cover whose charts share one cloud (simplex_tau), and its face
labels are tau's (k, 0) values on the increasing tuples; the dk_validate
residuals of cf_map on the (k+1)-cells are then tau's Cech differential on
those tuples, which the telescoping and dk-validate checks compute; every other
cell reads 0. dk_face, dk_degeneracy and vector_ops are the simplicial
structure maps and exact elements that acceptance criterion 11 tests the
labelings against. No check type reaches this module, so it lives with the
tests as a reference.
"""

import itertools
from fractions import Fraction

import cocyclekit.cechgroup as cg
from cocyclekit.errors import ValidationError, nan_worst
from cocyclekit.forms import SampledForm
from cocyclekit.holomap import as_cloud
import sampled_forms


class ElementOps:
    """Pluggable element arithmetic for one complex.

    zero(degree) must produce the additive zero of the given degree's carrier;
    norm is the residual magnitude used by tolerance checks.
    """

    def __init__(self, add, scale, norm, zero):
        self.add = add
        self.scale = scale
        self.norm = norm
        self.zero = zero

    def sub(self, x, y):
        return self.add(x, self.scale(-1, y))


def vector_ops(dims_by_degree):
    """Exact Fraction-vector elements; dims_by_degree maps degree -> dimension."""

    def add(x, y):
        return tuple(a + b for a, b in zip(x, y))

    def scale(a, x):
        a = Fraction(a)
        return tuple(a * v for v in x)

    def norm(x):
        return max((abs(v) for v in x), default=Fraction(0))

    def zero(degree):
        return tuple(Fraction(0) for _ in range(dims_by_degree.get(degree, 0)))

    return ElementOps(add, scale, norm, zero)


class GradedComplex:
    """Finite-support Z-graded cochain complex with differential of degree +1."""

    def __init__(self, degrees, diff, ops):
        self.degrees = sorted(set(int(d) for d in degrees))
        self._diff = diff
        self.ops = ops

    def d(self, degree, x):
        """Apply the differential to an element of the given degree."""
        return self._diff(degree, x)


def _cells(dim):
    for l in range(dim + 1):
        for c in itertools.combinations(range(dim + 1), l + 1):
            yield c


class DKSimplex:
    """Labels for all cells of a standard `dim`-simplex, cell (i0..il) in degree -l."""

    def __init__(self, dim, labels):
        self.dim = int(dim)
        self.labels = {}
        for cell, value in labels.items():
            cell = tuple(int(i) for i in cell)
            if list(cell) != sorted(set(cell)) or (cell and (cell[0] < 0 or cell[-1] > self.dim)):
                raise ValidationError("bad cell %r for dimension %d" % (cell, self.dim))
            self.labels[cell] = value
        for cell in _cells(self.dim):
            if cell not in self.labels:
                raise ValidationError("missing label for cell %r" % (cell,))

    def label(self, cell):
        return self.labels[tuple(cell)]

    def cells(self, length=None):
        if length is None:
            return list(self.labels)
        return [c for c in self.labels if len(c) == length]


def dk_validate(s, complex_, tol=1e-10):
    """Residual of the boundary condition on every cell of dimension >= 1.

    A cell's faces are added last to first, j = l, ..., 0: the order of the
    terms of tau's Cech differential on an increasing tuple of fewer than 11
    charts, whose index names sort as their numbers, so that float residuals
    compare bit for bit.

    Returns a report dict: per-cell residuals, the worst offender, pass flag.
    """
    ops = complex_.ops
    residuals = {}
    for cell in s.cells():
        l = len(cell) - 1
        if l < 1:
            continue
        acc = None
        for j in reversed(range(l + 1)):
            face = cell[:j] + cell[j + 1:]
            term = ops.scale((-1) ** j, s.label(face))
            acc = term if acc is None else ops.add(acc, term)
        rhs = complex_.d(-l, s.label(cell))
        residuals[cell] = float(ops.norm(ops.sub(acc, rhs)))
    worst_cell = max(residuals, key=lambda c: nan_worst(residuals[c])) if residuals else None
    worst = residuals.get(worst_cell, 0.0)
    return {
        "residuals": {",".join(map(str, c)): r for c, r in sorted(residuals.items())},
        "max_residual": worst,
        "worst_cell": worst_cell,
        "pass": worst <= tol,
        "tolerance": tol,
    }


def dk_face(j, s):
    """j-th simplicial face: reindex labels through the monotone injection skipping j."""
    if not 0 <= j <= s.dim:
        raise ValidationError("face index %d out of range for dim %d" % (j, s.dim))
    if s.dim == 0:
        raise ValidationError("cannot take a face of a 0-simplex")

    def delta(i):
        return i if i < j else i + 1

    labels = {}
    for cell in _cells(s.dim - 1):
        labels[cell] = s.label(tuple(delta(i) for i in cell))
    return DKSimplex(s.dim - 1, labels)


def dk_degeneracy(j, s, ops):
    """j-th degeneracy: reindex through the surjection repeating j; collapsed cells are zero."""
    if not 0 <= j <= s.dim:
        raise ValidationError("degeneracy index %d out of range for dim %d" % (j, s.dim))

    def sigma(i):
        return i if i <= j else i - 1

    labels = {}
    for cell in _cells(s.dim + 1):
        image = tuple(sigma(i) for i in cell)
        if len(set(image)) < len(image):
            labels[cell] = ops.zero(-(len(cell) - 1))
        else:
            labels[cell] = s.label(image)
    return DKSimplex(s.dim + 1, labels)


def simplex_tau(charts, inverses, points, T, transitions=None, base=None):
    """tau under T of the chart simplex of `charts`, each with its inverse, on the
    cloud `points`, as the scenario loader builds it: cover index "p" for chart
    position p, the cloud on every (arity+1)-cell, the trivial action, and the
    maps `transitions` maps (p, q) to in place of phi[p, q] = chart_p . inverse_q;
    `base`, the tau without them, gives the faces they leave alone."""
    indices = [str(p) for p in range(len(charts))]
    n = charts[0].n
    P = as_cloud(points, n)
    cover = cg.CoverSpec(indices, {cell: P for cell in
                                   itertools.combinations(indices, T.arity + 2)}, n)
    atlas = cg.Atlas(dict(zip(indices, zip(charts, inverses))))
    return cg.tau_invariant(cover, cg.trivial_action(indices, n), atlas, T,
                            {(str(p), str(q)): f for (p, q), f in (transitions or {}).items()},
                            base)


def cf_map(tau, level, points):
    """Dold-Kan labeling of a chart simplex of `level` + 1 charts on the cloud `points`:
    each k-cell gets its face label, tau's (k, 0) value on that increasing tuple of
    the simplex cover (simplex_tau), and every other cell zero."""
    k, n = tau.form_degree, tau.n
    P = as_cloud(points, n)
    top = list(itertools.combinations(range(level + 1), k + 1)) if level >= k else []
    faces = dict(zip(top, tau.evaluate_all([((k, 0), face, (), P, 0) for face in top])))
    labels = {}
    for l in range(1, level + 1):
        for cell in itertools.combinations(range(level + 1), l + 1):
            labels[cell] = faces[cell] if l == k else SampledForm.zeros(n, min(l, n), P, ())
    for i in range(level + 1):
        labels[(i,)] = SampledForm.zeros(n, 0, P, ())
    return DKSimplex(level, labels)


def shifted_form_complex(n, k, points):
    """The complex holding a single holomorphic k-form degree at -k, zero elsewhere.

    Elements are SampledForms on a fixed cloud; the differential is the zero
    map, so the DK condition reduces to vanishing alternating face sums.
    """
    P = as_cloud(points, n)

    def degree_k(degree):
        return min(-degree, n) if degree != -k else k

    ops = ElementOps(
        add=sampled_forms.add,
        scale=lambda a, x: SampledForm(x.n, x.k, x.points, a * x.values),
        norm=lambda x: x.max_abs(),
        zero=lambda degree: SampledForm.zeros(n, degree_k(degree), P, ()),
    )

    def diff(degree, x):
        return ops.zero(degree + 1)

    return GradedComplex(range(-max(k, 1), 1), diff, ops)
