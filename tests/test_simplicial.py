import itertools
import random
from fractions import Fraction

import pytest

import dold_kan as sim
from cocyclekit.errors import ValidationError

F = Fraction


# --- exact linear algebra helpers --------------------------------------------


def frac_rref(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    cols = len(rows[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = F(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def nullspace(rows, cols):
    rref, pivots = frac_rref(rows)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [F(0)] * cols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(tuple(v))
    return basis


# --- random exact complexes and valid simplices ------------------------------


def random_complex(rnd, max_depth=3):
    """Fraction-vector complex on degrees -depth..0 with d o d = 0 by construction."""
    depth = rnd.randint(1, max_depth)
    dims = {-p: rnd.randint(1, 3) for p in range(depth + 1)}
    mats = {}
    below = None
    for p in range(-1, -depth - 1, -1):
        rows_out, cols = dims[p + 1], dims[p]
        if below is None:
            mat = [[F(rnd.randint(-3, 3)) for _ in range(cols)] for _ in range(rows_out)]
        else:
            # columns must land in the kernel of the differential above
            kern = nullspace(below, rows_out)
            mat_cols = []
            for _ in range(cols):
                v = [F(0)] * rows_out
                for b in kern:
                    c = F(rnd.randint(-2, 2))
                    v = [x + c * y for x, y in zip(v, b)]
                mat_cols.append(v)
            mat = [[mat_cols[c][r] for c in range(cols)] for r in range(rows_out)]
        mats[p] = mat
        below = mat
    ops = sim.vector_ops(dims)

    def diff(degree, x):
        if degree >= 0 or degree < -depth:
            return ops.zero(degree + 1)
        mat = mats[degree]
        return tuple(sum((row[c] * x[c] for c in range(len(x))), F(0)) for row in mat)

    return sim.GradedComplex(range(-depth, 1), diff, ops), dims


def elementary_simplex(C, dims, m, label):
    """Valid m-simplex: top cell labeled, one facet carrying its differential."""
    labels = {}
    for l in range(m + 1):
        for cell in itertools.combinations(range(m + 1), l + 1):
            labels[cell] = C.ops.zero(-l)
    top = tuple(range(m + 1))
    labels[top] = label
    if m >= 1:
        facet = tuple(range(m))
        labels[facet] = C.ops.scale((-1) ** m, C.d(-m, label))
    return sim.DKSimplex(m, labels)


def random_valid_simplex(rnd, C, dims, dim):
    """Random sum of degeneracy lifts of elementary simplices."""
    acc = None
    for _ in range(rnd.randint(1, 3)):
        m = rnd.randint(0, dim)
        degree = -m
        size = dims.get(degree, 0)
        label = tuple(F(rnd.randint(-4, 4)) for _ in range(size))
        s = elementary_simplex(C, dims, m, label)
        while s.dim < dim:
            s = sim.dk_degeneracy(rnd.randint(0, s.dim), s, C.ops)
        if acc is None:
            acc = s
        else:
            acc = sim.DKSimplex(dim, {cell: C.ops.add(acc.label(cell), s.label(cell))
                                      for cell in acc.cells()})
    return acc


def labels_equal(a, b):
    return a.dim == b.dim and all(a.label(c) == b.label(c) for c in a.cells())


# --- dk_validate -------------------------------------------------------------


def test_dk_validate_all_zero_passes():
    rnd = random.Random(1)
    C, dims = random_complex(rnd)
    labels = {}
    for l in range(3):
        for cell in itertools.combinations(range(3), l + 1):
            labels[cell] = C.ops.zero(-l)
    report = sim.dk_validate(sim.DKSimplex(2, labels), C)
    assert report["pass"] and report["max_residual"] == 0


def test_dk_validate_shifted_vector_space():
    # labels zero except in the single nonzero degree; alternating sums of the
    # k-faces of each (k+1)-cell vanish
    k, dim = 1, 2
    dims = {-k: 2}
    ops = sim.vector_ops(dims)
    C = sim.GradedComplex([-k, 0], lambda d, x: ops.zero(d + 1), ops)
    labels = {}
    for l in range(dim + 1):
        for cell in itertools.combinations(range(dim + 1), l + 1):
            labels[cell] = ops.zero(-l)
    # coboundary of a vertex function f: edge (i, j) gets f_j - f_i
    f = {0: (F(1), F(2)), 1: (F(-1), F(3)), 2: (F(0), F(5))}
    for i, j in itertools.combinations(range(dim + 1), 2):
        labels[(i, j)] = tuple(a - b for a, b in zip(f[j], f[i]))
    report = sim.dk_validate(sim.DKSimplex(dim, labels), C)
    assert report["pass"]


def test_dk_validate_perturbation_hits_exactly_the_cofaces():
    rnd = random.Random(7)
    k, dim = 1, 3
    dims = {-k: 1}
    ops = sim.vector_ops(dims)
    C = sim.GradedComplex([-k, 0], lambda d, x: ops.zero(d + 1), ops)
    labels = {}
    for l in range(dim + 1):
        for cell in itertools.combinations(range(dim + 1), l + 1):
            labels[cell] = ops.zero(-l)
    s = sim.DKSimplex(dim, labels)
    eps = F(1, 7)
    target = (0, 2)
    bumped = {c: s.label(c) for c in s.cells()}
    bumped[target] = (eps,)
    report = sim.dk_validate(sim.DKSimplex(dim, bumped), C, tol=0)
    offenders = {cell for cell, r in report["residuals"].items() if r > 0}
    cofaces = {",".join(map(str, c)) for c in itertools.combinations(range(dim + 1), 3)
               if set(target) <= set(c)}
    assert offenders == cofaces
    assert report["max_residual"] == pytest.approx(float(eps))


def test_dk_validate_keeps_a_nan_residual_as_the_worst():
    # a NaN edge label leaves the edges' residuals 0 and makes the triangle's NaN
    ops = sim.vector_ops({-1: 1})
    C = sim.GradedComplex([-1, 0], lambda d, x: ops.zero(d + 1), ops)
    labels = {cell: ops.zero(1 - len(cell)) for l in range(3)
              for cell in itertools.combinations(range(3), l + 1)}
    labels[(0, 1)] = (float("nan"),)
    report = sim.dk_validate(sim.DKSimplex(2, labels), C)
    assert report["residuals"]["0,1"] == 0.0
    assert report["worst_cell"] == (0, 1, 2)
    assert report["max_residual"] != report["max_residual"] and not report["pass"]


def test_dk_validate_missing_label():
    with pytest.raises(ValidationError):
        sim.DKSimplex(1, {(0,): (F(0),), (1,): (F(0),)})


# --- face and degeneracy maps -------------------------------------------------


def test_faces_of_constant_zero_are_zero():
    rnd = random.Random(3)
    C, dims = random_complex(rnd)
    labels = {}
    for l in range(3):
        for cell in itertools.combinations(range(3), l + 1):
            labels[cell] = C.ops.zero(-l)
    s = sim.DKSimplex(2, labels)
    f = sim.dk_face(1, s)
    assert all(f.label(c) == C.ops.zero(-(len(c) - 1)) for c in f.cells())


def test_degeneracy_then_faces_recover_original():
    rnd = random.Random(11)
    C, dims = random_complex(rnd)
    s = random_valid_simplex(rnd, C, dims, 2)
    for j in range(s.dim + 1):
        up = sim.dk_degeneracy(j, s, C.ops)
        assert labels_equal(sim.dk_face(j, up), s)
        assert labels_equal(sim.dk_face(j + 1, up), s)


def test_degeneracy_worked_example_face_recovery():
    # the face of s_j over the cell (0 .. j-hat .. n+1) carries the original
    # top label
    rnd = random.Random(13)
    C, dims = random_complex(rnd)
    s = random_valid_simplex(rnd, C, dims, 2)
    n = s.dim
    for j in range(n + 1):
        up = sim.dk_degeneracy(j, s, C.ops)
        cell = tuple(i for i in range(n + 2) if i != j)
        assert up.label(cell) == s.label(tuple(range(n + 1)))


def test_degeneracy_output_validates():
    rnd = random.Random(17)
    dims = {0: 2, -1: 3}
    ops = sim.vector_ops(dims)
    mat = [[F(1), F(0), F(2)], [F(0), F(1), F(-1)]]

    def diff(degree, x):
        if degree == -1:
            return tuple(sum((row[c] * x[c] for c in range(3)), F(0)) for row in mat)
        return ops.zero(degree + 1)

    C = sim.GradedComplex([-1, 0], diff, ops)
    s = random_valid_simplex(rnd, C, {0: 2, -1: 3}, 2)
    assert sim.dk_validate(s, C)["pass"]
    up = sim.dk_degeneracy(0, s, ops)
    assert sim.dk_validate(up, C)["pass"]


def test_face_out_of_range():
    rnd = random.Random(19)
    C, dims = random_complex(rnd)
    s = random_valid_simplex(rnd, C, dims, 2)
    with pytest.raises(ValidationError):
        sim.dk_face(5, s)
    with pytest.raises(ValidationError):
        sim.dk_degeneracy(-1, s, C.ops)


def _check_five_identities(rnd, C, dims, dim):
    s = random_valid_simplex(rnd, C, dims, dim)
    ops = C.ops
    # d_i d_j = d_{j-1} d_i for i < j
    for i in range(dim):
        for j in range(i + 1, dim + 1):
            a = sim.dk_face(i, sim.dk_face(j, s))
            b = sim.dk_face(j - 1, sim.dk_face(i, s))
            assert labels_equal(a, b)
    # d_i s_j = s_{j-1} d_i for i < j
    for j in range(dim + 1):
        for i in range(j):
            a = sim.dk_face(i, sim.dk_degeneracy(j, s, ops))
            b = sim.dk_degeneracy(j - 1, sim.dk_face(i, s), ops)
            assert labels_equal(a, b)
    # d_j s_j = id = d_{j+1} s_j
    for j in range(dim + 1):
        up = sim.dk_degeneracy(j, s, ops)
        assert labels_equal(sim.dk_face(j, up), s)
        assert labels_equal(sim.dk_face(j + 1, up), s)
    # d_i s_j = s_j d_{i-1} for i > j + 1
    for j in range(dim + 1):
        for i in range(j + 2, dim + 2):
            a = sim.dk_face(i, sim.dk_degeneracy(j, s, ops))
            b = sim.dk_degeneracy(j, sim.dk_face(i - 1, s), ops)
            assert labels_equal(a, b)
    # s_i s_j = s_{j+1} s_i for i <= j
    for j in range(dim + 1):
        for i in range(j + 1):
            a = sim.dk_degeneracy(i, sim.dk_degeneracy(j, s, ops), ops)
            b = sim.dk_degeneracy(j + 1, sim.dk_degeneracy(i, s, ops), ops)
            assert labels_equal(a, b)


def test_simplicial_identities_sample():
    rnd = random.Random(23)
    for _ in range(25):
        C, dims = random_complex(rnd)
        _check_five_identities(rnd, C, dims, rnd.randint(2, 3))
