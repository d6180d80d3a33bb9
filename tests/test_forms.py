import numpy as np
import pytest

import cocyclekit.forms as fo
import cocyclekit.holomap as hm
from cocyclekit.errors import SingularJacobianError, ValidationError
from cocyclekit.invariants import InvariantMap, todd_invariant
from conftest import random_points

TRACE = InvariantMap(1, {(1,): 1})


def test_theta_identity_is_structural_zero():
    th = fo.theta(hm.identity_map(2))
    assert th.structurally_zero
    assert all(np.all(m == 0) for m in th.eval((0.3, 0.4)))


def test_theta_affine_is_structural_zero():
    m = hm.affine_map([[2, 1], [1, 1]], [0, 0])
    assert fo.theta(m).structurally_zero


def test_theta_square_map_worked_value():
    th = fo.theta(hm.diagonal_square_map())
    mats = th.eval((2.0, 1.0))
    assert np.allclose(mats[0], np.diag([0.5, 0.0]))
    assert np.allclose(mats[1], np.zeros((2, 2)))


def test_theta_matches_numeric_jacobian_derivative(rng):
    m = hm.henon_map()
    for p in random_points(rng, 5, radius=0.4):
        mats = fo.theta(m).eval(p)
        Jinv = np.linalg.inv(m.jacobian(p))
        for a in (1, 2):
            dJ = np.empty((2, 2), dtype=complex)
            for r in range(2):
                for c in range(2):
                    entry = m.jac_exprs()[r][c]
                    dJ[r, c] = hm.numeric_partial(lambda q: entry.eval(q), p, a, 1e-4)
            assert np.max(np.abs(mats[a - 1] - Jinv @ dJ)) < 1e-8


def test_theta_singular_jacobian_error_names_point():
    th = fo.theta(hm.diagonal_square_map())
    with pytest.raises(SingularJacobianError) as err:
        th.eval((0.0, 1.0))
    assert err.value.point == (0.0, 1.0)


def test_sharp_pullback_identity(rng):
    omega = fo.theta(hm.henon_map())
    back = fo.sharp_pullback(hm.identity_map(2), omega)
    for p in random_points(rng, 4, radius=0.4):
        a, b = omega.eval(p), back.eval(p)
        assert all(np.allclose(x, y) for x, y in zip(a, b))


def test_sharp_pullback_affine_law(rng):
    # constant matrix form pulled back by z -> Az + b: one-form part through
    # A^T, matrix part conjugated by A
    A = np.array([[2, 1], [1, 1]], dtype=complex)
    phi = hm.affine_map([[2, 1], [1, 1]], [0, 0])
    M = [np.array([[1, 2], [3, 4]], dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex)]
    omega = fo.MatrixOneForm(2, lambda P: np.broadcast_to(np.array(M), (len(P), 2, 2, 2)))
    out = fo.sharp_pullback(phi, omega)
    Ainv = np.linalg.inv(A)
    for p in random_points(rng, 3):
        got = out.eval(p)
        for b in range(2):
            want = sum(A[a, b] * (Ainv @ M[a] @ A) for a in range(2))
            assert np.allclose(got[b], want)


def test_sharp_pullback_functoriality(rng):
    f, g = hm.shear_map(), hm.henon_map()
    omega = fo.theta(hm.mobius_like_map())
    lhs = fo.sharp_pullback(g, fo.sharp_pullback(f, omega))
    rhs = fo.sharp_pullback(hm.compose(f, g, check=False), omega)
    for p in random_points(rng, 6, radius=0.3):
        a, b = lhs.eval(p), rhs.eval(p)
        scale = 1 + max(np.max(np.abs(m)) for m in b)
        assert max(np.max(np.abs(x - y)) for x, y in zip(a, b)) < 1e-8 * scale


def test_apply_invariant_wedge_beyond_dimension():
    omega = fo.theta(hm.henon_map())
    T3 = todd_invariant(3)
    out = fo.apply_invariant(T3, [omega, omega, omega])
    assert out.structurally_zero
    assert out.eval((0.2, 0.1)) == {}


def test_apply_invariant_trace_on_square_map():
    th = fo.theta(hm.diagonal_square_map())
    out = fo.apply_invariant(TRACE, [th])
    vals = out.eval((2.0, 1.0))
    assert vals[(1,)] == pytest.approx(0.5)
    assert vals[(2,)] == pytest.approx(0.0)


def test_apply_invariant_pullback_naturality(rng):
    # T[phi# w1, ..., phi# wk] = phi^* T[w1, ..., wk] over the map library,
    # for Todd_1 and Todd_2
    w1 = fo.theta(hm.henon_map())
    w2 = fo.theta(hm.mobius_like_map())
    maps, _ = hm.builtin_library()
    for name in ("shear", "henon", "affine21", "mobius"):
        phi = maps[name]
        for T, omegas in ((todd_invariant(1), [w1]), (todd_invariant(2), [w1, w2])):
            lhs = fo.apply_invariant(T, [fo.sharp_pullback(phi, w) for w in omegas])
            rhs = fo.pullback_kform(phi, fo.apply_invariant(T, omegas))
            for p in random_points(rng, 6, radius=0.3):
                a, b = lhs.eval(p), rhs.eval(p)
                scale = 1 + max(abs(v) for v in b.values())
                assert max(abs(a[i] - b[i]) for i in a) < 1e-8 * scale, name


def test_apply_invariant_antisymmetry(rng):
    # symmetric T of arity 2: swapping the two form slots flips the sign
    T2 = todd_invariant(2)
    w1 = fo.theta(hm.henon_map())
    w2 = fo.theta(hm.shear_map())
    ab = fo.apply_invariant(T2, [w1, w2])
    ba = fo.apply_invariant(T2, [w2, w1])
    for p in random_points(rng, 5, radius=0.4):
        va, vb = ab.eval(p), ba.eval(p)
        for idx in va:
            assert va[idx] == pytest.approx(-vb[idx], abs=1e-12)


def test_pullback_kform_identity(rng):
    w = fo.apply_invariant(todd_invariant(1), [fo.theta(hm.henon_map())])
    back = fo.pullback_kform(hm.identity_map(2), w)
    for p in random_points(rng, 4, radius=0.4):
        assert back.eval(p) == pytest.approx(w.eval(p))


def test_pullback_kform_top_degree_is_det(rng):
    w = fo.ScalarKForm(2, 2, lambda P: np.ones((len(P), 1), dtype=complex))
    phi = hm.henon_map()
    out = fo.pullback_kform(phi, w)
    for p in random_points(rng, 5):
        got = out.eval(p)[(1, 2)]
        assert got == pytest.approx(np.linalg.det(phi.jacobian(p)))


def test_pullback_kform_functoriality(rng):
    w = fo.apply_invariant(todd_invariant(2),
                           [fo.theta(hm.henon_map()), fo.theta(hm.mobius_like_map())])
    f, g = hm.shear_map(), hm.henon_map()
    lhs = fo.pullback_kform(g, fo.pullback_kform(f, w))
    rhs = fo.pullback_kform(hm.compose(f, g, check=False), w)
    for p in random_points(rng, 6, radius=0.3):
        a, b = lhs.eval(p), rhs.eval(p)
        scale = 1 + max(abs(v) for v in b.values())
        assert max(abs(a[i] - b[i]) for i in a) < 1e-8 * scale


def test_matrix_one_form_linearity(rng):
    w1 = fo.theta(hm.henon_map())
    w2 = fo.theta(hm.shear_map())
    s = w1 + w2
    for p in random_points(rng, 4, radius=0.4):
        got = s.eval(p)
        want = [a + b for a, b in zip(w1.eval(p), w2.eval(p))]
        assert all(np.allclose(x, y) for x, y in zip(got, want))


def test_sampled_form_round_trip(rng):
    w = fo.apply_invariant(todd_invariant(1), [fo.theta(hm.henon_map())])
    pts = random_points(rng, 5, radius=0.4)
    s = fo.SampledForm.sample(w, pts)
    payload = s.to_json()
    assert len(payload) == 5
    assert set(payload[0]["coefficients"]) == {"1", "2"}
    diff = s.sub(s)
    assert diff.is_exactly_zero()


def test_apply_invariant_arity_mismatch():
    with pytest.raises(ValidationError):
        fo.apply_invariant(todd_invariant(2), [fo.theta(hm.henon_map())])
