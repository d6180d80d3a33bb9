"""Cloud-batched evaluation against per-point oracles written here.

The oracles walk expression trees node by node with cmath and assemble theta,
sharp pullbacks, invariants and k-form pullbacks one point at a time with
numpy, the way the formulas read. The library evaluates each cloud in one
call; both must agree to a relative 1e-12.
"""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import cocyclekit.cechgroup as cg
import cocyclekit.expr as ex
import cocyclekit.forms as fo
import cocyclekit.holomap as hm
import cocyclekit.invariants as inv
from cocyclekit.errors import DomainError, SingularJacobianError
import library as lib
import map_values as mv
import sampled_forms as sf
from cochains import base_value, cech_differential
from conftest import cell_value, object_cells, per_cell, random_matrices, random_points
from free_words import Chain

RTOL = 1e-12


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    assert float(np.max(np.abs(got - want), initial=0.0)) <= RTOL * scale


# --- per-point oracles ---------------------------------------------------------


def tree_eval(e, p):
    if isinstance(e, ex.Const):
        return complex(e.value.re, e.value.im)
    if isinstance(e, ex.Var):
        return p[e.index - 1]
    if isinstance(e, ex.Add):
        return sum(tree_eval(t, p) for t in e.terms)
    if isinstance(e, ex.Mul):
        return math.prod(tree_eval(f, p) for f in e.factors)
    if isinstance(e, ex.Div):
        return tree_eval(e.num, p) / tree_eval(e.den, p)
    if isinstance(e, ex.Pow):
        return tree_eval(e.base, p) ** e.exponent
    if isinstance(e, ex.Exp):
        return cmath.exp(tree_eval(e.arg, p))
    if isinstance(e, ex.Log):
        return cmath.log(tree_eval(e.arg, p))
    raise TypeError(e)


def map_at(f, p):
    return tuple(tree_eval(c, p) for c in f.components)


def jac_at(f, p):
    return np.array([[tree_eval(e, p) for e in row] for row in f.jac_exprs()])


def theta_at(f, p):
    Jinv = np.linalg.inv(jac_at(f, p))
    return [Jinv @ np.array([[tree_eval(e, p) for e in row] for row in f.djac_exprs(a)])
            for a in range(1, f.n + 1)]


def sharp_at(phi, omega_at, p):
    J = jac_at(phi, p)
    Jinv = np.linalg.inv(J)
    conj = [Jinv @ m @ J for m in omega_at(map_at(phi, p))]
    return [sum(J[a, b] * conj[a] for a in range(phi.n)) for b in range(phi.n)]


def invariant_at(T, mats):
    """Brute-force S_k average of every multi-trace term."""
    k = T.arity
    total = 0.0 + 0.0j
    for part, coeff in T.terms.items():
        blocks, start = [], 0
        for size in part:
            blocks.append(range(start, start + size))
            start += size
        acc = 0.0 + 0.0j
        for tau in itertools.permutations(range(k)):
            val = 1.0 + 0.0j
            for blk in blocks:
                prod = np.eye(len(mats[0]), dtype=complex)
                for i in blk:
                    prod = prod @ mats[tau[i]]
                val *= np.trace(prod)
            acc += val
        total += float(coeff) * acc / math.factorial(k)
    return total


def sign_of(sig):
    return (-1) ** sum(1 for i in range(len(sig)) for j in range(i + 1, len(sig))
                       if sig[i] > sig[j])


def wedge_at(T, mats_per_form, n):
    k = T.arity
    out = []
    for idx in itertools.combinations(range(n), k):
        out.append(sum(sign_of(sig) * invariant_at(
            T, [mats_per_form[r][idx[sig[r]]] for r in range(k)])
            for sig in itertools.permutations(range(k))))
    return np.array(out)


def pullback_at(phi, values_at, k, p):
    J = jac_at(phi, p)
    vals = values_at(map_at(phi, p))
    combos = list(itertools.combinations(range(phi.n), k))
    return np.array([sum(vals[i] * np.linalg.det(J[np.ix_(A, B)])
                         for i, A in enumerate(combos)) for B in combos])


# --- maps and clouds -------------------------------------------------------------


def right_half_cloud(n, count, seed):
    r = np.random.default_rng(seed)
    return [tuple(0.9 + 0.3 * complex(*r.uniform(-1, 1, 2)) for _ in range(n))
            for _ in range(count)]


def square_transitions():
    """Transitions chart_x o inverse_y between the 3-D coordinate-square charts."""
    charts = {"a": (lib.identity_map(3), lib.identity_map(3))}
    for key, (fwd, back) in {"b": ("z1^2; z2; z3", "exp(log(z1)/2); z2; z3"),
                             "c": ("z1; z2^2; z3", "z1; exp(log(z2)/2); z3"),
                             "d": ("z1; z2; z3^2", "z1; z2; exp(log(z3)/2)")}.items():
        charts[key] = (hm.parse_map(fwd, 3, name=key), hm.parse_map(back, 3, name=key + "inv"))
    return [hm.compose(charts[x][0], charts[y][1])
            for x, y in (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "d"))]


LIBRARY, CLOUDS, _ = lib.builtin_library()
NONAFFINE = ["henon", "henon_inv", "shear", "shear_inv", "mobius", "sq1"]


def cloud_of(name):
    return [tuple(p) for p in CLOUDS[name].tolist()]


# --- layer by layer --------------------------------------------------------------


@pytest.mark.parametrize("name", NONAFFINE)
def test_map_eval_and_jacobian_match_oracle(name):
    f = LIBRARY[name]
    pts = cloud_of(name)
    assert_close(f.eval(pts), [map_at(f, p) for p in pts])
    assert_close(f.jacobian(pts), [jac_at(f, p) for p in pts])
    assert_close(mv.jacobian_inverse(f, pts), [np.linalg.inv(jac_at(f, p)) for p in pts])


def test_map_chain_applies_chain_rule_on_arrays():
    f, g = LIBRARY["shear"], LIBRARY["henon"]
    chain = Chain([f, g], 2)
    pts = cloud_of("henon")
    assert_close(mv.image(chain, pts), [map_at(f, map_at(g, p)) for p in pts])
    assert_close(mv.jacobian(chain, pts),
                 [jac_at(f, map_at(g, p)) @ jac_at(g, p) for p in pts])


@pytest.mark.parametrize("name", NONAFFINE)
def test_theta_matches_oracle_library(name):
    f = LIBRARY[name]
    pts = cloud_of(name)
    assert_close(sf.theta(f, pts).values, [theta_at(f, p) for p in pts])


def test_theta_matches_oracle_square_charts():
    pts = right_half_cloud(3, 16, 43)
    for f in square_transitions():
        got = sf.theta(f, pts).values
        assert got.shape == (16, 3, 3, 3)
        assert_close(got, [theta_at(f, p) for p in pts])


@pytest.mark.parametrize("phi_name,f_name", [("shear", "henon"), ("henon", "mobius"),
                                             ("mobius", "shear"), ("affine21", "henon")])
def test_sharp_pullback_matches_oracle(phi_name, f_name):
    phi, f = LIBRARY[phi_name], LIBRARY[f_name]
    pts = random_points(np.random.default_rng(3), 12, radius=0.3)
    got = sf.sharp_pullback(phi, sf.theta(f, phi.eval(pts)), pts).values
    assert_close(got, [sharp_at(phi, lambda q: theta_at(f, q), p) for p in pts])


def test_sharp_pullback_matches_oracle_square_charts():
    t = square_transitions()
    pts = right_half_cloud(3, 12, 7)
    got = sf.sharp_pullback(t[2], sf.theta(t[1], t[2].eval(pts)), pts).values
    assert_close(got, [sharp_at(t[2], lambda q: theta_at(t[1], q), p) for p in pts])


def test_apply_invariant_todd2_n2_matches_oracle():
    T = inv.todd_invariant(2)
    f, g = LIBRARY["henon"], LIBRARY["mobius"]
    pts = random_points(np.random.default_rng(4), 12, radius=0.3)
    got = fo.apply_invariant(T, [sf.theta(f, pts), sf.theta(g, pts)]).values
    assert got.shape == (12, 1)
    want = [wedge_at(T, [theta_at(f, p), theta_at(g, p)], 2) for p in pts]
    assert_close(got, want)


def test_apply_invariant_todd3_n3_matches_oracle():
    T = inv.todd_invariant(3)
    t = square_transitions()
    pts = right_half_cloud(3, 10, 9)
    forms = [sf.theta(t[0], pts), sf.sharp_pullback(t[2], sf.theta(t[1], t[2].eval(pts)), pts),
             sf.theta(t[4], pts)]
    got = fo.apply_invariant(T, forms).values
    assert got.shape == (10, 1)
    want = [wedge_at(T, [theta_at(t[0], p),
                         sharp_at(t[2], lambda q: theta_at(t[1], q), p),
                         theta_at(t[4], p)], 3) for p in pts]
    assert np.max(np.abs(want)) > 1e-3
    assert_close(got, want)


def test_pullback_kform_matches_oracle():
    T1 = inv.todd_invariant(1)
    phi = LIBRARY["henon"]
    pts = random_points(np.random.default_rng(6), 12, radius=0.3)
    w_form = fo.apply_invariant(T1, [sf.theta(LIBRARY["mobius"], phi.eval(pts))])
    got = mv.pullback_kform(phi, w_form, pts).values
    values_at = lambda q: wedge_at(T1, [theta_at(LIBRARY["mobius"], q)], 2)  # noqa: E731
    assert_close(got, [pullback_at(phi, values_at, 1, p) for p in pts])


def test_pullback_kform_top_degree_matches_oracle_n3():
    t = square_transitions()
    pts = right_half_cloud(3, 10, 11)
    T = inv.todd_invariant(3)
    chain = Chain([t[3]], 3)
    Q = mv.image(chain, pts)
    w_form = fo.apply_invariant(T, [sf.theta(t[0], Q), sf.theta(t[1], Q), sf.theta(t[2], Q)])
    got = mv.pullback_kform(chain, w_form, pts).values
    values_at = lambda q: wedge_at(T, [theta_at(s, q) for s in t[:3]], 3)  # noqa: E731
    assert_close(got, [pullback_at(t[3], values_at, 3, p) for p in pts])


@pytest.mark.parametrize("k,n", [(2, 2), (3, 3), (4, 2)])
def test_stacked_eval_invariant_matches_oracle(k, n):
    rng = np.random.default_rng(10 * k + n)
    T = inv.todd_invariant(k)
    stacks = [np.stack(random_matrices(rng, 7, n)) for _ in range(k)]
    got = inv.eval_invariant(T, stacks)
    assert got.shape == (7,)
    want = [invariant_at(T, [s[i] for s in stacks]) for i in range(7)]
    assert_close(got, want)


# --- errors name the first offending point ------------------------------------


def test_singular_point_in_cloud_is_named():
    sq = lib.diagonal_square_map()
    pts = random_points(np.random.default_rng(12), 6, radius=0.3, center=0.5)
    pts.insert(3, (0.0, 0.4 + 0.1j))
    pts.append((0.0, -0.2))
    with pytest.raises(SingularJacobianError) as err:
        sf.theta(sq, pts)
    assert err.value.point == (0.0, 0.4 + 0.1j)
    with pytest.raises(SingularJacobianError) as err:
        sf.sharp_pullback(sq, sf.theta(LIBRARY["henon"], sq.eval(pts)), pts)
    assert err.value.point == (0.0, 0.4 + 0.1j)


def test_log_of_zero_in_cloud_raises_domain_error():
    sqrt = hm.parse_map("exp(log(z1)/2); z2", 2, name="sqrt")
    pts = right_half_cloud(2, 5, 13)
    bad = (1e-320 + 0j, 1.0 + 0j)
    pts.insert(2, bad)
    with pytest.raises(DomainError) as err:
        sqrt.eval(pts)
    assert repr(bad) in str(err.value)
    with pytest.raises(DomainError):
        sqrt.jacobian(pts)


def test_affine_atlas_tau_cells_exactly_zero():
    pts = random_points(np.random.default_rng(14), 9, radius=0.4)
    sets = [("p",), ("q",), ("p", "q")]
    cover = cg.CoverSpec(["p", "q"], {frozenset(s): np.array(pts) for s in sets}, 2)
    tr = lib.affine_map([[1, 0], [0, 1]], [1, Fraction(1, 2)], name="tr")
    tr_inv = lib.affine_map([[1, 0], [0, 1]], [-1, Fraction(-1, 2)], name="tr_inv")
    action = cg.GroupActionSpec({"t": (tr, tr_inv)}, {"t": {"p": "q", "q": "p"}},
                                ["p", "q"], words=[(("t", 1),)])
    atlas = cg.Atlas({
        "p": (lib.affine_map([[2, 1], [1, 1]], [0, 0]),
              lib.affine_map([[1, -1], [-1, 2]], [0, 0])),
        "q": (lib.affine_map([[1, 0], [Fraction(1, 2), 1]], [Fraction(1, 3), 0]),
              lib.affine_map([[1, 0], [Fraction(-1, 2), 1]], [Fraction(-1, 3), Fraction(1, 6)])),
    })
    tau = cg.tau_invariant(cover, action, atlas, inv.todd_invariant(2))
    cells = 0
    for (m, q) in tau.bidegrees():
        for J, G in object_cells(cover, action, m, q):
            assert np.all(base_value(tau, (m, q), J, G).values == 0)
            cells += 1
    assert cells > 0
    report = cg.closedness_report(tau, tol=1e-7)
    assert report.max_residual == 0.0


def test_cech_face_on_undeclared_cloud_is_evaluated_at_the_cell_points():
    # only the pair intersection declares points, so the faces ("p",) and ("q",)
    # have no points of their own; their values are evaluated at the cell's points
    pts = random_points(np.random.default_rng(15), 8, radius=0.3)
    cover = cg.CoverSpec(["p", "q"], {frozenset(["p", "q"]): np.array(pts)}, 2)
    action = cg.trivial_action(["p", "q"], 2)
    charts = {"p": LIBRARY["henon"], "q": LIBRARY["mobius"]}
    T1 = inv.todd_invariant(1)
    c = cg.MixedCochain(cover, action, 2, 1, {
        (0, 0): per_cell(lambda J, G, P: fo.apply_invariant(T1, [sf.theta(charts[J[0]], P)]),
                         action)})
    assert cover.cloud(("p",)).shape == (0, 2)
    got = cell_value(cech_differential(c), (1, 0), ("p", "q"), ())
    want = [wedge_at(T1, [theta_at(charts["q"], p)], 2)
            - wedge_at(T1, [theta_at(charts["p"], p)], 2) for p in pts]
    assert_close(got.values, want)
