import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest

import cocyclekit.cechgroup as cg
import cocyclekit.cocycle as co
import cocyclekit.expr as ex
import cocyclekit.holomap as hm
from cocyclekit.cli import execute_checks
from cocyclekit.errors import DslSyntaxError, SingularJacobianError, ValidationError
from cocyclekit.invariants import todd_invariant
from cocyclekit.scenario import Scenario
import library as lib
import map_values as mv
from conftest import holds_arrays, id_cell, numeric_jacobian, random_points
from free_words import Chain, Word

F = Fraction
SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


def test_parse_map_identity():
    m = hm.parse_map("z1; z2", 2)
    p = (0.3 + 0.1j, -0.2 + 0.5j)
    assert tuple(m.eval([p])[0]) == p


def test_parse_map_henon_matches_hand_evaluation(rng):
    m = hm.parse_map("z2; z2^2 + c - z1", 2, constants={"c": ex.CRat(F(3, 10))})
    for p in random_points(rng, 5):
        z1, z2 = p
        assert tuple(m.eval([p])[0]) == pytest.approx((z2, z2 ** 2 + 0.3 - z1))


def test_parse_map_wrong_component_count():
    with pytest.raises(ValidationError):
        hm.parse_map("z1; z2; z1", 2)


def test_parse_map_syntax_error_offset_spans_components():
    with pytest.raises(DslSyntaxError) as err:
        hm.parse_map("z1; z1^2 +", 2)
    assert err.value.offset == 10


def test_jacobian_affine_is_constant(rng):
    A = [[2, 1], [1, 1]]
    m = lib.affine_map(A, [F(1, 4), F(-1, 5)])
    for p in random_points(rng, 4):
        assert np.allclose(m.jacobian([p])[0], np.array(A, dtype=complex))


def test_jacobian_monomial_example():
    m = lib.diagonal_square_map()
    J = m.jacobian([(3.0, 5.0)])[0]
    assert np.allclose(J, np.array([[6.0, 0.0], [0.0, 1.0]]))


def test_jacobian_henon_matches_numeric(rng):
    m = lib.henon_map()
    for p in random_points(rng, 6):
        J = m.jacobian([p])[0]
        Jn = numeric_jacobian(m, p, h=1e-4)
        assert np.max(np.abs(J - Jn)) < 1e-9 * (1 + np.max(np.abs(J)))


def test_compose_identity_is_identity():
    g = lib.henon_map()
    comp = hm.compose(lib.identity_map(2), g)
    assert [ex.to_text(c) for c in comp.components] == \
        [ex.to_text(c) for c in g.components]


def test_compose_affine_pair_is_matrix_product(rng):
    A = [[2, 1], [1, 1]]
    B = [[1, 0], [F(1, 2), 1]]
    f = lib.affine_map(A, [0, 0])
    g = lib.affine_map(B, [F(1, 3), F(-1, 7)])
    comp = hm.compose(f, g)
    for p in random_points(rng, 4):
        J = comp.jacobian([p])[0]
        assert np.allclose(J, np.array(A, dtype=complex) @ np.array(B, dtype=complex))


def test_compose_chain_rule(rng):
    f = lib.henon_map()
    g = lib.henon_map()
    comp = hm.compose(f, g)
    for p in random_points(rng, 6, radius=0.4):
        want = f.jacobian(g.eval([p]))[0] @ g.jacobian([p])[0]
        assert np.max(np.abs(comp.jacobian([p])[0] - want)) < 1e-9 * (1 + np.max(np.abs(want)))


def test_compose_is_memoized_per_map_pair(monkeypatch):
    f, g = lib.henon_map(), lib.shear_map()
    calls = []
    real = ex.differentiate
    monkeypatch.setattr(ex, "differentiate", lambda e, var: calls.append(var) or real(e, var))
    first = hm.compose(f, g)
    djac = first.djac_exprs(1)
    assert len(calls) == 8  # four Jacobian entries, then their d/dz1
    again = hm.compose(f, g)
    assert again is first
    assert again.djac_exprs(1) is djac
    assert len(calls) == 8
    # the memo is keyed by map objects, never by structure
    assert hm.compose(f, lib.shear_map()) is not first


def test_compose_dimension_mismatch():
    one = hm.HoloMap(1, [ex.Var(1)])
    with pytest.raises(ValidationError):
        hm.compose(one, lib.identity_map(2))


def test_scaled_identity_jacobian_inverts():
    # J = 1e-5 I has |det| = 1e-15, yet it is as far from singular as I itself
    tiny = hm.parse_map("z1/100000; z2/100000; z3/100000", 3)
    Jinv = mv.jacobian_inverse(tiny, [[0.1 + 0.1j, 0.2, 0.3]])
    assert np.allclose(Jinv, 1e5 * np.eye(3), rtol=1e-14)


def test_singular_test_is_relative_to_the_jacobian_scale():
    J = np.array([np.diag([1e5, 1e5, 1e-10]), 1e-5 * np.eye(3), np.zeros((3, 3))])
    assert hm.singular_jacobians(J)[1].tolist() == [True, False, True]
    big = hm.parse_map("100000*z1; 100000*z2; z3/10000000000", 3)
    with pytest.raises(SingularJacobianError):
        mv.jacobian_inverse(big, [(0.1, 0.2, 0.3)])


def test_zero_determinant_point_is_named():
    # det J = 2 z1 vanishes at z1 = 0 with J != 0, and the error names that point
    sq = lib.diagonal_square_map()
    pts = [(0.5, 0.1), (0.0, 0.3 + 0.2j), (0.7j, 0.4)]
    with pytest.raises(SingularJacobianError) as err:
        mv.jacobian_inverse(sq, pts)
    assert err.value.point == (0.0, 0.3 + 0.2j)


def test_is_affine_is_decided_once(monkeypatch):
    lookups = []
    original = hm.HoloMap.djac_exprs

    def counted(self, a):
        lookups.append(a)
        return original(self, a)

    monkeypatch.setattr(hm.HoloMap, "djac_exprs", counted)
    for f in (lib.affine_map([[1, 2], [0, 1]], [0, 1]), lib.henon_map()):
        first = f.is_affine()
        before = len(lookups)
        assert before > 0
        assert f.is_affine() is first
        assert len(lookups) == before


def test_map_chain_jacobian_evaluates_all_but_the_outermost_piece(monkeypatch, rng):
    calls = []
    original = hm.HoloMap.eval

    def counted(self, points):
        calls.append(self.name)
        return original(self, points)

    monkeypatch.setattr(hm.HoloMap, "eval", counted)
    pieces = [lib.shear_map(), lib.henon_map(), lib.shear_inverse(), lib.henon_inverse()]
    pts = random_points(rng, 4, radius=0.3)
    for m in range(1, len(pieces) + 1):
        chain = Chain(pieces[:m], 2)
        calls.clear()
        mv.jacobian(chain, pts)
        assert calls == [p.name for p in reversed(pieces[1:m])]


def compiled_runs(monkeypatch):
    """(map name, kind, cloud bytes) of every run of a compiled array function."""
    runs = []
    real = hm.HoloMap._compiled

    def counted(self, kind, exprs):
        fn = real(self, kind, exprs)
        return lambda P: runs.append((self.name, kind, P.tobytes())) or fn(P)

    monkeypatch.setattr(hm.HoloMap, "_compiled", counted)
    return runs


def test_equal_clouds_in_distinct_arrays_run_the_jacobian_once_per_plan(monkeypatch, rng):
    runs = compiled_runs(monkeypatch)
    f = lib.henon_map()
    pts = np.array(random_points(rng, 5))
    plan = co.LabelPlan(None)
    f = plan.chains.map(f)
    cids = [plan.cloud(pts), plan.cloud(pts.copy()),
            plan.cloud(hm.as_cloud([tuple(p) for p in pts], 2))]
    assert len(set(cids)) == 1
    keys = [plan._add_jacobian(f, cid, False) for cid in cids]
    inverse = plan._add_jacobian(f, cids[0], True)
    assert len(set(keys)) == 1
    first = plan.take(keys[0])
    assert plan.take(keys[1]) is first and plan.take(keys[2]) is first
    assert [kind for _, kind, _ in runs] == ["jacobian"]
    # the inverse reads the held Jacobian; a different cloud is a new run
    J, _ = plan.take(inverse)
    assert J is first and len(plan) == 0
    plan.take(plan._add_jacobian(f, plan.cloud(pts[:3]), False))
    assert [kind for _, kind, _ in runs] == ["jacobian", "jacobian"]


def test_a_plan_runs_a_map_once_on_a_stack_of_the_clouds_it_lacks(monkeypatch, rng):
    runs = compiled_runs(monkeypatch)
    f = lib.henon_map()
    pts = np.array(random_points(rng, 6))
    plan = co.LabelPlan(None)
    m = plan.chains.map(f)
    a, b, c = (plan.cloud(P) for P in (pts[:2], pts[2:5], pts[5:]))
    keys = [plan._add_jacobian(m, b, False) for _ in range(2)]
    plan.take(keys.pop())  # b alone; its rows are held for the second use
    keys = [plan._add_jacobian(m, a, False)] + keys + [plan._add_jacobian(m, cid, False)
                                                       for cid in (c, a)]
    rows = np.concatenate([plan.take(key) for key in keys])
    # one run for b, then one on the stack of a and c; rows come back in request order
    assert [len(P) // (16 * 2) for _, _, P in runs] == [3, 3]
    assert len(plan) == 0
    want = np.concatenate([f.jacobian(P) for P in (pts[:2], pts[2:5], pts[5:], pts[:2])])
    assert rows.tobytes() == want.tobytes()


def test_held_values_are_read_only(rng):
    plan = co.LabelPlan(None)
    f = plan.chains.map(lib.henon_map())
    pts = np.array(random_points(rng, 3))
    cids = [plan.cloud(pts), plan.cloud(pts[:1])]
    for inverse in (False, True):
        for cid in cids:
            value = plan.take(plan._add_jacobian(f, cid, inverse))
            for out in value if inverse else (value,):
                assert not out.flags.writeable
                with pytest.raises(ValueError):
                    out[0] = 0


def test_maps_keep_no_values(rng):
    f = lib.henon_map()
    pts = np.array(random_points(rng, 3))
    a, b = f.jacobian(pts), f.jacobian(pts)
    assert a is not b and a.tobytes() == b.tobytes()
    assert f.eval(pts) is not f.eval(pts)
    assert not holds_arrays(f)


def test_singular_cloud_raises_on_every_read(monkeypatch):
    runs = compiled_runs(monkeypatch)
    plan = co.LabelPlan(None)
    sq = plan.chains.map(lib.diagonal_square_map())
    cid = plan.cloud(hm.as_cloud([(0.5, 0.1), (0.0, 0.3 + 0.2j)], 2))
    key = plan._add_jacobian(sq, cid, True)
    for _ in range(2):
        with pytest.raises(SingularJacobianError) as err:
            plan.take(key)
        assert err.value.point == (0.0, 0.3 + 0.2j)
    # the Jacobian ran once and is held for the inverse's next take; no inverse is held
    assert [kind for _, kind, _ in runs] == ["jacobian"]
    jacobian = ("jacobian", sq, cid)
    assert list(plan._held) == [jacobian] and plan._uses == {key: 1, jacobian: 1}


def test_a_word_pullback_equals_the_value_at_the_moved_points_pulled_back(monkeypatch, rng):
    # tau's base value of a group cell, pulled back along the word h h: the plan
    # extends each label's top chart by the letters, and runs each piece once per cloud
    P = np.array(random_points(rng, 6, radius=0.3))
    cover = cg.CoverSpec(["u"], {frozenset(["u"]): P}, 2)
    action = cg.GroupActionSpec({"h": (lib.henon_map(), lib.henon_inverse())},
                                {"h": {"u": "u"}}, ["u"], words=[(("h", 1),)])
    ident = lib.identity_map(2)
    tau = cg.tau_invariant(cover, action, cg.Atlas({"u": (ident, ident)}), todd_invariant(2))
    h, hh = Word.gen("h"), Word([("h", 1), ("h", 1)])
    runs = compiled_runs(monkeypatch)
    ids = action.ids()
    got, = tau.evaluate_all([((0, 2), *id_cell(action, ("u",), (h, h)), P,
                              ids.word(hh.letters))])
    assert len(set(runs)) == len(runs)
    assert {name for name, _, _ in runs} == {"henon"}
    want = mv.word_pullback(action, lambda J, G, Q: tau.evaluate_all(
        [((0, 2), *id_cell(action, J, G), Q, 0)])[0], ("u",), (h, h), P, hh)
    assert not got.structurally_zero
    assert np.max(np.abs(got.values - want.values)) < 1e-12 * (1 + want.max_abs())


def _check_results(scn):
    return {r["name"]: json.dumps(dict(r, seconds=None), sort_keys=True)
            for r in execute_checks(scn)}


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scn")), ids=lambda p: p.name)
def test_checks_in_reverse_order_give_bitwise_equal_results(path):
    # later checks read the maps and taus of earlier ones; the order must not show
    want = _check_results(Scenario.load(path))
    scn = Scenario.load(path)
    scn.checks = scn.checks[::-1]
    assert _check_results(scn) == want


def test_henon_inverse_round_trip(rng):
    h = lib.henon_map()
    hinv = lib.henon_inverse()
    for p in random_points(rng, 6):
        q = hinv.eval(h.eval([p]))[0]
        assert max(abs(a - b) for a, b in zip(p, q)) < 1e-12


def test_map_chain_matches_symbolic_composition(rng):
    f, g = lib.shear_map(), lib.henon_map()
    chain = Chain([f, g], 2)
    comp = hm.compose(f, g)
    for p in random_points(rng, 5, radius=0.4):
        assert np.allclose(mv.image(chain, [p]), comp.eval([p]))
        assert np.max(np.abs(mv.jacobian(chain, [p]) - comp.jacobian([p]))) < 1e-12


def test_builtin_library_has_enough_nonaffine_pairs():
    maps, _, pairs = lib.builtin_library()
    nonaffine = [(f, g) for f, g in pairs
                 if not (maps[f].is_affine() and maps[g].is_affine())]
    assert len(nonaffine) >= 6


def test_library_jacobians_match_numeric_oracle():
    maps, clouds, _ = lib.builtin_library()
    for name, m in maps.items():
        for p in clouds[name][:5]:
            J = m.jacobian([p])[0]
            Jn = numeric_jacobian(m, p, h=1e-4)
            scale = 1 + np.max(np.abs(J))
            assert np.max(np.abs(J - Jn)) < 1e-9 * scale, name


def test_library_pairs_satisfy_chain_rule():
    maps, clouds, pairs = lib.builtin_library()
    for fname, gname in pairs:
        f, g = maps[fname], maps[gname]
        comp = hm.compose(f, g)
        for p in clouds[gname][:5]:
            want = f.jacobian(g.eval([p]))[0] @ g.jacobian([p])[0]
            got = comp.jacobian([p])[0]
            scale = 1 + np.max(np.abs(want))
            assert np.max(np.abs(got - want)) < 1e-9 * scale, (fname, gname)
