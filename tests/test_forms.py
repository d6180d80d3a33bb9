import numpy as np
import pytest

import cocyclekit.expr as ex
import cocyclekit.forms as fo
import cocyclekit.holomap as hm
from cocyclekit.errors import SingularJacobianError, ValidationError, nan_worst
from cocyclekit.invariants import InvariantMap, todd_invariant
import library as lib
import map_values as mv
import sampled_forms as sf
from conftest import numeric_partial, random_points

TRACE = InvariantMap(1, {(1,): 1})


def cloud(points):
    return np.array(points, dtype=complex)


def test_theta_identity_is_structural_zero():
    th = sf.theta(lib.identity_map(2), [(0.3, 0.4)])
    assert th.structurally_zero
    assert th.values.shape == (1, 2, 2, 2)
    assert np.all(th.values == 0)


def test_theta_affine_is_structural_zero():
    m = lib.affine_map([[2, 1], [1, 1]], [0, 0])
    assert sf.theta(m, [(0.3, 0.4)]).structurally_zero


def test_theta_square_map_worked_value():
    mats = sf.theta(lib.diagonal_square_map(), [(2.0, 1.0)]).values[0]
    assert np.allclose(mats[0], np.diag([0.5, 0.0]))
    assert np.allclose(mats[1], np.zeros((2, 2)))


def test_theta_matches_numeric_jacobian_derivative(rng):
    m = lib.henon_map()
    pts = random_points(rng, 5, radius=0.4)
    th = sf.theta(m, pts).values
    for mats, p in zip(th, pts):
        Jinv = np.linalg.inv(m.jacobian([p])[0])
        for a in (1, 2):
            dJ = np.empty((2, 2), dtype=complex)
            for r in range(2):
                for c in range(2):
                    entry = m.jac_exprs()[r][c]
                    program = ex.Program([entry])
                    dJ[r, c] = numeric_partial(lambda Q: program(Q)[:, 0], p, a, 1e-4)
            assert np.max(np.abs(mats[a - 1] - Jinv @ dJ)) < 1e-8


def test_theta_singular_jacobian_error_names_point():
    with pytest.raises(SingularJacobianError) as err:
        sf.theta(lib.diagonal_square_map(), [(0.0, 1.0)])
    assert err.value.point == (0.0, 1.0)


def test_sharp_pullback_identity(rng):
    P = cloud(random_points(rng, 4, radius=0.4))
    omega = sf.theta(lib.henon_map(), P)
    back = sf.sharp_pullback(lib.identity_map(2), omega, P)
    assert np.allclose(omega.values, back.values)


def test_sharp_pullback_affine_law(rng):
    # constant matrix form pulled back by z -> Az + b: one-form part through
    # A^T, matrix part conjugated by A
    A = np.array([[2, 1], [1, 1]], dtype=complex)
    phi = lib.affine_map([[2, 1], [1, 1]], [0, 0])
    M = [np.array([[1, 2], [3, 4]], dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)]
    P = cloud(random_points(rng, 3))
    omega = fo.SampledForm(2, 1, phi.eval(P), np.broadcast_to(np.array(M), (len(P), 2, 2, 2)))
    out = sf.sharp_pullback(phi, omega, P)
    Ainv = np.linalg.inv(A)
    for got in out.values:
        for b in range(2):
            want = sum(A[a, b] * (Ainv @ M[a] @ A) for a in range(2))
            assert np.allclose(got[b], want)


def test_sharp_pullback_functoriality(rng):
    f, g = lib.shear_map(), lib.henon_map()
    fg = hm.compose(f, g)
    omega = lib.mobius_like_map()
    P = cloud(random_points(rng, 6, radius=0.3))
    G = g.eval(P)
    lhs = sf.sharp_pullback(g, sf.sharp_pullback(f, sf.theta(omega, f.eval(G)), G), P)
    rhs = sf.sharp_pullback(fg, sf.theta(omega, fg.eval(P)), P)
    for a, b in zip(lhs.values, rhs.values):
        scale = 1 + max(np.max(np.abs(m)) for m in b)
        assert max(np.max(np.abs(x - y)) for x, y in zip(a, b)) < 1e-8 * scale


def test_apply_invariant_wedge_beyond_dimension():
    omega = sf.theta(lib.henon_map(), [(0.2, 0.1)])
    T3 = todd_invariant(3)
    out = fo.apply_invariant(T3, [omega, omega, omega])
    assert out.structurally_zero
    assert out.values.shape == (1, 0)


def test_apply_invariant_trace_on_square_map():
    th = sf.theta(lib.diagonal_square_map(), [(2.0, 1.0)])
    vals = fo.apply_invariant(TRACE, [th]).values[0]
    assert vals[0] == pytest.approx(0.5)
    assert vals[1] == pytest.approx(0.0)


def test_apply_invariant_pullback_naturality(rng):
    # T[phi# w1, ..., phi# wk] = phi^* T[w1, ..., wk] over the map library,
    # for Todd_1 and Todd_2
    m1, m2 = lib.henon_map(), lib.mobius_like_map()
    maps, _, _ = lib.builtin_library()
    for name in ("shear", "henon", "affine21", "mobius"):
        phi = maps[name]
        P = cloud(random_points(rng, 6, radius=0.3))
        Q = phi.eval(P)
        w1, w2 = sf.theta(m1, Q), sf.theta(m2, Q)
        for T, omegas in ((todd_invariant(1), [w1]), (todd_invariant(2), [w1, w2])):
            lhs = fo.apply_invariant(T, [sf.sharp_pullback(phi, w, P) for w in omegas])
            rhs = mv.pullback_kform(phi, fo.apply_invariant(T, omegas), P)
            for a, b in zip(lhs.values, rhs.values):
                scale = 1 + max(abs(v) for v in b)
                assert max(abs(a - b)) < 1e-8 * scale, name


def test_apply_invariant_antisymmetry(rng):
    # symmetric T of arity 2: swapping the two form slots flips the sign
    T2 = todd_invariant(2)
    P = cloud(random_points(rng, 5, radius=0.4))
    w1 = sf.theta(lib.henon_map(), P)
    w2 = sf.theta(lib.shear_map(), P)
    ab = fo.apply_invariant(T2, [w1, w2])
    ba = fo.apply_invariant(T2, [w2, w1])
    for va, vb in zip(ab.values, ba.values):
        for x, y in zip(va, vb):
            assert x == pytest.approx(-y, abs=1e-12)


def test_pullback_kform_identity(rng):
    P = cloud(random_points(rng, 4, radius=0.4))
    w = fo.apply_invariant(todd_invariant(1), [sf.theta(lib.henon_map(), P)])
    back = mv.pullback_kform(lib.identity_map(2), w, P)
    for a, b in zip(back.values, w.values):
        assert a == pytest.approx(b)


def test_pullback_kform_top_degree_is_det(rng):
    phi = lib.henon_map()
    pts = random_points(rng, 5)
    w = fo.SampledForm(2, 2, phi.eval(pts), np.ones((len(pts), 1), dtype=complex))
    out = mv.pullback_kform(phi, w, pts)
    for got, p in zip(out.values[:, 0], pts):
        assert got == pytest.approx(np.linalg.det(phi.jacobian(p)))


def test_pullback_kform_functoriality(rng):
    def w_at(Q):
        return fo.apply_invariant(todd_invariant(2), [sf.theta(lib.henon_map(), Q),
                                                      sf.theta(lib.mobius_like_map(), Q)])

    f, g = lib.shear_map(), lib.henon_map()
    fg = hm.compose(f, g)
    P = cloud(random_points(rng, 6, radius=0.3))
    G = g.eval(P)
    lhs = mv.pullback_kform(g, mv.pullback_kform(f, w_at(f.eval(G)), G), P)
    rhs = mv.pullback_kform(fg, w_at(fg.eval(P)), P)
    for a, b in zip(lhs.values, rhs.values):
        scale = 1 + max(abs(v) for v in b)
        assert max(abs(a - b)) < 1e-8 * scale


def test_matrix_one_form_linearity(rng):
    P = cloud(random_points(rng, 4, radius=0.4))
    w1 = sf.theta(lib.henon_map(), P)
    w2 = sf.theta(lib.shear_map(), P)
    s = sf.add(w1, w2)
    assert s.values.shape == (4, 2, 2, 2)
    for got, a, b in zip(s.values, w1.values, w2.values):
        assert all(np.allclose(x, y + z) for x, y, z in zip(got, a, b))


def test_sampled_form_round_trip(rng):
    pts = random_points(rng, 5, radius=0.4)
    s = fo.apply_invariant(todd_invariant(1), [sf.theta(lib.henon_map(), pts)])
    payload = s.to_json()
    assert len(payload) == 5
    assert set(payload[0]["coefficients"]) == {"1", "2"}
    assert payload[0]["point"] == [[c.real, c.imag] for c in pts[0]]
    diff = sf.sub(s, s)
    assert np.all(diff.values == 0)


def test_apply_invariant_arity_mismatch():
    with pytest.raises(ValidationError):
        fo.apply_invariant(todd_invariant(2), [sf.theta(lib.henon_map(), [(0.1, 0.2)])])


def loop_residual_facts(total, coeff, values):
    """forms.residual_facts one cell, point and term at a time, NaN ranking first."""
    out = []
    for c in range(len(total)):
        per_point = [float(np.max(np.abs(p), initial=0.0)) for p in total[c]]
        worst = max(range(len(per_point)), key=lambda i: nan_worst(per_point[i]))
        best, modulus = -1, -1.0
        for j in range(len(coeff[c])):
            m = float(np.max(np.abs(coeff[c, j] * values[c, j, worst]), initial=0.0))
            if best < 0 or nan_worst(m) > nan_worst(modulus):
                best, modulus = j, m
        out.append((per_point[worst], worst, best, modulus))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_residual_facts_equal_the_loop_reference(seed):
    rng = np.random.default_rng(seed)
    B, t, N = 5, 4, 6
    # small integers make ties between points and between terms common
    values = (rng.integers(-2, 3, (B, t, N, 3)) + 1j * rng.integers(-2, 3, (B, t, N, 3)))
    values[rng.random(values.shape) < 0.02] = np.nan
    values[0] = 0  # a cell of zero terms: its first term dominates with modulus 0
    coeff = rng.choice([-2, -1, 1, 3], (B, t))
    total = fo.signed_total(coeff, values)
    got = fo.residual_facts(total, coeff, values)
    for (r, worst, best, modulus), cell in zip(zip(*got), loop_residual_facts(
            total, coeff, values)):
        assert (worst, best) == cell[1:3]
        np.testing.assert_array_equal([r, modulus], [cell[0], cell[3]])
