import collections
import itertools
import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclekit.cechgroup as cg
import cocyclekit.holomap as hm
from cocyclekit import cli
from cocyclekit.errors import ValidationError, nan_worst
from cocyclekit.forms import SampledForm
from cocyclekit.invariants import InvariantMap, todd_invariant
from cocyclekit.scenario import Scenario, parse_word
import library as lib
import map_values as mv
import sampled_forms as sf
from cochains import base_value, cech_differential, group_differential
from conftest import (cell_value, id_cell, object_cells, per_cell, random_points,
                      reference_points, word_composite)
from free_words import Word

F = Fraction
T2 = todd_invariant(2)
SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"


def word_ids():
    """The id tables of an action with the generators g and h on one index."""
    pair = (lib.henon_map(), lib.henon_inverse())
    return cg.GroupActionSpec({"g": pair, "h": pair}, {"g": {"u": "u"}, "h": {"u": "u"}},
                              ["u"]).ids()


def test_word_reduction_and_inverse():
    ids = word_ids()
    g, h, h_inv = (ids.word(((name, sgn),)) for name, sgn in (("g", 1), ("h", 1), ("h", -1)))
    assert ids.word(()) == 0 and ids.word_name(0) == "e"
    w = ids.mul(ids.mul(h, h_inv), g)
    assert ids.words[w] == (("g", 1),) and w == g
    assert ids.mul(w, ids.inverse(w)) == 0
    assert ids.mul(h, h_inv) == ids.mul(h_inv, h) == 0
    assert ids.word_name(ids.mul(h, h)) == "h*h"
    assert ids.word_name(ids.mul(g, h_inv)) == "g*h^-1"
    assert ids.inverse(ids.mul(g, h_inv)) == ids.mul(h, ids.inverse(g))
    # the loader reduces a declared word as the tables do
    generators = {"g": None, "h": None}
    assert parse_word(["h", "h^-1", "g"], generators, "w") == (("g", 1),)
    assert parse_word(["g", "h", "h^-1", "g^-1"], generators, "w") == ()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(*[st.lists(st.tuples(st.sampled_from("gh"), st.sampled_from([1, -1])), max_size=6)] * 2)
def test_word_products_inverses_and_names_equal_the_reference(a, b):
    ids = word_ids()
    u, v = Word(a), Word(b)
    x, y = ids.word(u.letters), ids.word(v.letters)
    assert ids.words[ids.mul(x, y)] == (u * v).letters
    assert ids.mul(x, y) == ids.word((u * v).letters)
    assert ids.words[ids.inverse(x)] == u.inverse().letters
    assert ids.word_name(ids.mul(x, y)) == repr(u * v)
    assert parse_word([name + ("" if sgn > 0 else "^-1") for name, sgn in a + b],
                      {"g": None, "h": None}, "w") == (u * v).letters


def one_chart_setup(rng, atlas_chart=None, count=10):
    pts = random_points(rng, count, radius=0.35)
    cover = cg.CoverSpec(["u"], {frozenset(["u"]): np.array(pts)}, 2)
    action = cg.GroupActionSpec({"h": (lib.henon_map(), lib.henon_inverse())},
                                {"h": {"u": "u"}}, ["u"],
                                words=[(("h", 1),), (("h", -1),)])
    chart = atlas_chart or (lib.identity_map(2), lib.identity_map(2))
    atlas = cg.Atlas({"u": chart})
    return cover, action, atlas


def three_chart_setup(rng, charts=None):
    pts = random_points(rng, 10, radius=0.3)
    sets = [("p",), ("q",), ("r",), ("p", "q"), ("p", "r"), ("q", "r"), ("p", "q", "r")]
    cover = cg.CoverSpec(["p", "q", "r"], {frozenset(s): np.array(pts) for s in sets}, 2)
    action = cg.trivial_action(["p", "q", "r"], 2)
    charts = charts or {
        "p": (lib.identity_map(2), lib.identity_map(2)),
        "q": (lib.shear_map(), lib.shear_inverse()),
        "r": (lib.henon_map(), lib.henon_inverse()),
    }
    return cover, action, cg.Atlas(charts)


def test_cover_nesting_makes_restrictions_literal(rng):
    deep = random_points(rng, 3)
    shallow = random_points(rng, 4)
    cover = cg.CoverSpec(["a", "b"], {frozenset(["a"]): np.array(shallow),
                                      frozenset(["a", "b"]): np.array(deep),
                                      frozenset(["b"]): np.zeros((0, 2), dtype=complex)}, 2)
    for p in cover.cloud(("a", "b")).tolist():
        assert p in cover.cloud(("a",)).tolist()
        assert p in cover.cloud(("b",)).tolist()
    # repeats collapse to the set
    assert cover.cloud(("a", "a")) is cover.cloud(("a",))


def test_cover_rejects_foreign_indices(rng):
    with pytest.raises(ValidationError):
        cg.CoverSpec(["a"], {frozenset(["z"]): np.array(random_points(rng, 2))}, 2)


def test_action_validation_round_trip(rng):
    cover, action, _ = one_chart_setup(rng)
    error, _ = action.round_trip(cover)
    assert error < 1e-10


def test_action_rejects_non_bijective_index_table():
    with pytest.raises(ValidationError):
        cg.GroupActionSpec({"h": (lib.henon_map(), lib.henon_inverse())},
                           {"h": {"a": "a", "b": "a"}}, ["a", "b"])


def test_word_chain_is_composition(rng):
    _, action, _ = one_chart_setup(rng)
    w = Word([("h", 1), ("h", 1)])
    m = mv.word_chain(action, w)
    h = lib.henon_map()
    for p in random_points(rng, 5, radius=0.3):
        assert np.allclose(mv.image(m, [p]), h.eval(h.eval([p])))
        assert np.allclose(mv.image(m, [p]), word_composite(action, w).eval([p]))


def constant_cochain(cover, action, value=1.0):
    def provider(J, G, P):
        return SampledForm(2, 2, P, np.full((len(P), 1), value, dtype=complex))
    return cg.MixedCochain(cover, action, 2, 2, {(0, 0): per_cell(provider, action)})


def poly_cochain(cover, action, bidegrees, seed=0):
    """Deterministic analytic cochain, distinct on every cell."""
    def make_provider(bd):
        def provider(J, G, P):
            key = hash((bd, J, tuple(repr(g) for g in G), seed)) % (2 ** 31)
            r = np.random.default_rng(key)
            c = r.normal(size=6)
            z1, z2 = P[:, 0], P[:, 1]
            val = (c[0] + c[1] * z1 + c[2] * z2 + c[3] * z1 * z2
                   + c[4] * z1 ** 2 + c[5] * z2 ** 2)
            return SampledForm(2, 2, P, val[:, None])
        return provider
    return cg.MixedCochain(cover, action, 2, 2,
                           {bd: per_cell(make_provider(bd), action) for bd in bidegrees})


def max_residual(expr, cover, action):
    worst = 0.0
    for (m, q) in expr.bidegrees():
        for J, G in object_cells(cover, action, m, q):
            if len(reference_points(cover, action, J, G)):
                worst = max(worst, cell_value(expr, (m, q), J, G).max_abs())
    return worst


def test_cech_differential_degree_zero_example(rng):
    cover, action, _ = three_chart_setup(rng)
    c = constant_cochain(cover, action)
    dc = cech_differential(c)
    # constant cochain: (dc)_{i0,i1} = c_{i1} - c_{i0} = 0, exactly
    for J, G in object_cells(cover, action, 1, 0):
        assert cell_value(dc, (1, 0), J, G).max_abs() == 0.0


def test_cech_differential_squares_to_zero_exactly(rng):
    cover, action, _ = three_chart_setup(rng)
    c = poly_cochain(cover, action, [(0, 0), (1, 0)])
    dd = cech_differential(cech_differential(c))
    assert max_residual(dd, cover, action) == 0.0


def test_group_differential_trivial_group_is_empty(rng):
    cover, action, _ = three_chart_setup(rng)
    c = poly_cochain(cover, action, [(0, 0)])
    dg = group_differential(c)
    assert dg.bidegrees() == [(0, 1)]
    # no generators: no cells to evaluate
    assert object_cells(cover, action, 0, 1) == []


def test_group_differential_two_term_bar_formula(rng):
    # one-chart equivariant cover: (dc)(g) = c - rho(g)^* c
    cover, action, _ = one_chart_setup(rng)
    c = poly_cochain(cover, action, [(0, 0)])
    dc = group_differential(c)
    g = Word.gen("h")
    pts = cover.cloud(("u",))
    base = base_value(c, (0, 0), ("u",), ())
    chain = mv.word_chain(action, g)
    moved, = c.evaluate_all([((0, 0), *id_cell(action, ("u",), ()), mv.image(chain, pts), 0)])
    pulled = mv.pullback_kform(chain, moved, pts)
    got = cell_value(dc, (0, 1), ("u",), (g,))
    assert got.points.tolist() == [list(p) for p in pts]
    for row, a, b in zip(got.values, base.values, pulled.values):
        want = a[0] - b[0]
        assert row[0] == pytest.approx(want, abs=1e-12)


def test_group_differential_squares_to_zero(rng):
    cover, action, _ = one_chart_setup(rng)
    c = poly_cochain(cover, action, [(0, 0), (0, 1)])
    dd = group_differential(group_differential(c))
    assert max_residual(dd, cover, action) == 0.0


def test_mixed_differential_reduces_to_cech_for_trivial_group(rng):
    cover, action, _ = three_chart_setup(rng)
    c = poly_cochain(cover, action, [(0, 0)])
    mixed = cg.mixed_differential(c)
    delta = cech_differential(c)
    for J, G in object_cells(cover, action, 1, 0):
        a = cell_value(mixed, (1, 0), J, G)
        b = cell_value(delta, (1, 0), J, G)
        assert sf.sub(a, b).max_abs() == 0.0


def test_mixed_differential_reduces_to_bar_for_singleton_cover(rng):
    cover, action, _ = one_chart_setup(rng)
    c = poly_cochain(cover, action, [(0, 0)])
    mixed = cg.mixed_differential(c)
    bar = group_differential(c)
    for J, G in object_cells(cover, action, 0, 1):
        a = cell_value(mixed, (0, 1), J, G)
        b = cell_value(bar, (0, 1), J, G)  # cech degree 0: sign +1
        assert sf.sub(a, b).max_abs() == 0.0


def test_mixed_differential_squares_to_zero(rng):
    pts = random_points(rng, 6, radius=0.3)
    sets = [("a",), ("b",), ("a", "b")]
    cover = cg.CoverSpec(["a", "b"], {frozenset(s): np.array(pts) for s in sets}, 2)
    neg = lib.affine_map([[-1, 0], [0, -1]], [0, 0], name="neg")
    action = cg.GroupActionSpec({"s": (neg, neg)}, {"s": {"a": "b", "b": "a"}},
                                ["a", "b"], words=[(("s", 1),)])
    c = poly_cochain(cover, action, [(1, 1)])
    dd = cg.mixed_differential(cg.mixed_differential(c))
    assert max_residual(dd, cover, action) == 0.0


def constant_forms(values, action):
    """Base values constant on the cloud, one constant per cell (keyed by J, G)."""
    def provider(J, G, P):
        return SampledForm(2, 2, P, np.full((len(P), 1), values[J], dtype=complex))
    return per_cell(provider, action)


def two_index_cover(rng):
    pts = random_points(rng, 5, radius=0.3)
    cover = cg.CoverSpec(["a", "b"], {frozenset(s): np.array(pts) for s in ("a", "b", "ab")}, 2)
    return cover, cg.trivial_action(["a", "b"], 2)


def test_report_rows_name_the_dominant_term(rng):
    cover, action = two_index_cover(rng)
    c = cg.MixedCochain(cover, action, 2, 2, {(0, 0): constant_forms(
        {("a",): 1.0, ("b",): 5.0}, action)}, name="c")
    rows = {tuple(r["indices"]): r for r in cg.closedness_report(c, tol=1.0).rows()}
    # (dc)(a, b) = c_b - c_a: the c_b term dominates, with its sign
    assert rows[("a", "b")]["dominant_term"] == {
        "cochain": "c", "bidegree": [0, 0], "indices": ["b"], "words": [], "pullback": "e",
        "coefficient": 1, "modulus": 5.0}
    assert rows[("b", "a")]["dominant_term"]["coefficient"] == -1
    # equal indices cancel exactly: the structural zero has no term
    assert rows[("a", "a")]["residual"] == 0.0
    assert rows[("a", "a")]["dominant_term"] is None


def test_dominant_term_tie_goes_to_the_first_in_sum_order(rng):
    cover, action = two_index_cover(rng)
    c = cg.MixedCochain(cover, action, 2, 2, {(0, 0): constant_forms(
        {("a",): 2.0, ("b",): 2.0}, action)})
    rows = {tuple(r["indices"]): r for r in cg.closedness_report(c, tol=1e-7).rows()}
    assert rows[("a", "b")]["residual"] == 0.0
    dominant = rows[("a", "b")]["dominant_term"]
    assert (dominant["indices"], dominant["coefficient"], dominant["modulus"]) == (["a"], -1, 2.0)


def test_a_nan_cell_is_the_worst_and_fails(rng):
    cover, action = two_index_cover(rng)
    c = cg.MixedCochain(cover, action, 2, 2, {(0, 0): constant_forms(
        {("a",): np.nan, ("b",): 5.0}, action)}, name="c")
    report = cg.closedness_report(c, tol=1.0)
    assert np.isnan(report.max_residual) and not report.passed
    # (a, b) and (b, a) are NaN; the first in cell order leads, at its first point
    rows = report.rows()
    worst = rows[0]
    assert worst["indices"] == ["a", "b"] and np.isnan(worst["residual"])
    assert worst["worst_point"] == [[z.real, z.imag] for z in cover.cloud(("a", "b"))[0].tolist()]
    # the NaN sample c_a, first in sum order, dominates
    dominant = worst["dominant_term"]
    assert (dominant["indices"], dominant["coefficient"]) == (["a"], -1)
    assert np.isnan(dominant["modulus"])
    assert [r["residual"] for r in rows[2:]] == [0.0, 0.0]
    # run's path builds that row alone, byte for byte
    held, fields = cli._residual_fields(report)
    assert not held and json.dumps(fields["worst"]) == json.dumps(worst)


def test_run_reads_the_first_of_tied_worst_cells(rng):
    cover, action = two_index_cover(rng)
    c = cg.MixedCochain(cover, action, 2, 2, {(0, 0): constant_forms(
        {("a",): 2.0, ("b",): 5.0}, action)}, name="c")
    report = cg.closedness_report(c, tol=1.0)
    rows = report.rows()
    # (a, b) and (b, a) tie at |5 - 2|; the first in cell order leads
    assert [(r["indices"], r["residual"]) for r in rows] == [
        (["a", "b"], 3.0), (["b", "a"], 3.0), (["a", "a"], 0.0), (["b", "b"], 0.0)]
    held, fields = cli._residual_fields(report)
    assert not held and fields["max_residual"] == 3.0
    assert json.dumps(fields["worst"]) == json.dumps(rows[0])


def test_an_expression_refuses_bases_of_another_action(rng):
    # word and index ids are read in the first base's tables, so a base with
    # tables of its own would be read with the wrong ones
    cover, action = two_index_cover(rng)
    w = cg.MixedCochain(cover, action, 2, 2, {(0, 0): constant_forms(
        {("a",): 1.0, ("b",): 2.0}, action)}, name="witness")
    other = cg.trivial_action(["a", "b"], 2)
    tau = cg.MixedCochain(cover, other, 2, 2, {(1, 0): constant_forms(
        {J: 0.5 for J in itertools.product("ab", repeat=2)}, other)})
    with pytest.raises(ValidationError, match="share cover, action"):
        cg.witness_report(w, tau, tau, tol=1.0)


def test_witness_dominant_term_can_be_a_tau_sample(rng):
    cover, action = two_index_cover(rng)
    w = cg.MixedCochain(cover, action, 2, 2, {(0, 0): constant_forms(
        {("a",): 1.0, ("b",): 2.0}, action)}, name="witness")
    pair_values = {J: 0.5 for J in itertools.product("ab", repeat=2)}
    tau_a = cg.MixedCochain(cover, action, 2, 2, {(1, 0): constant_forms(pair_values, action)})
    tau_b = cg.MixedCochain(cover, action, 2, 2, {(1, 0): constant_forms(
        {J: 7.0 for J in pair_values}, action)})
    report = cg.witness_report(w, tau_a, tau_b, tol=1.0)
    rows = {tuple(r["indices"]): r for r in report.rows()}
    # d(w) - (tau_a - tau_b) on (a, b): 1.0 + 6.5, the tau_b sample dominates
    assert rows[("a", "b")]["residual"] == 7.5
    assert rows[("a", "b")]["dominant_term"] == {
        "cochain": "tau_b", "bidegree": [1, 0], "indices": ["a", "b"], "words": [],
        "pullback": "e", "coefficient": 1, "modulus": 7.0}


# --- tau ---------------------------------------------------------------------


def test_tau_affine_atlas_and_action_exactly_zero(rng):
    pts = random_points(rng, 8)
    cover = cg.CoverSpec(["u"], {frozenset(["u"]): np.array(pts)}, 2)
    tr = lib.affine_map([[1, 0], [0, 1]], [1, 2], name="tr")
    tr_inv = lib.affine_map([[1, 0], [0, 1]], [-1, -2], name="tr_inv")
    action = cg.GroupActionSpec({"t": (tr, tr_inv)}, {"t": {"u": "u"}}, ["u"],
                                words=[(("t", 1),)])
    chart = lib.affine_map([[2, 1], [1, 1]], [F(1, 3), 0])
    chart_inv = lib.affine_map([[1, -1], [-1, 2]], [F(-1, 3), F(1, 3)])
    atlas = cg.Atlas({"u": (chart, chart_inv)})
    tau = cg.tau_invariant(cover, action, atlas, T2)
    for (m, q) in tau.bidegrees():
        for J, G in object_cells(cover, action, m, q):
            assert np.all(base_value(tau, (m, q), J, G).values == 0)


def test_tau_trivial_group_cech_cocycle(rng):
    cover, action, atlas = three_chart_setup(rng)
    tau = cg.tau_invariant(cover, action, atlas, T2)
    report = cg.closedness_report(tau, tol=1e-7)
    assert report.passed, report.max_residual
    # it has teeth: some component is nonzero
    worst = max(base_value(tau, bd, J, G).max_abs()
                for bd in tau.bidegrees()
                for J, G in object_cells(cover, action, *bd))
    assert worst > 1e-6


def test_tau_henon_action_group_cocycle(rng):
    cover, action, atlas = one_chart_setup(rng)
    tau = cg.tau_invariant(cover, action, atlas, T2)
    report = cg.closedness_report(tau, tol=1e-7)
    assert report.passed, report.max_residual
    val = base_value(tau, (0, 2), ("u",), (Word.gen("h"), Word.gen("h"))).max_abs()
    assert val > 1e-6


def test_tau_mixed_cover_and_action(rng):
    pts_half = random_points(rng, 6, radius=0.3, center=0.1)
    pts = pts_half + [tuple(-c for c in p) for p in pts_half]
    sets = [("a",), ("b",), ("a", "b")]
    cover = cg.CoverSpec(["a", "b"], {frozenset(s): np.array(pts) for s in sets}, 2)
    neg = lib.affine_map([[-1, 0], [0, -1]], [0, 0], name="neg")
    action = cg.GroupActionSpec({"s": (neg, neg)}, {"s": {"a": "b", "b": "a"}},
                                ["a", "b"], words=[(("s", 1),)])
    atlas = cg.Atlas({"a": (lib.shear_map(), lib.shear_inverse()),
                      "b": (lib.henon_map(), lib.henon_inverse())})
    tau = cg.tau_invariant(cover, action, atlas, T2)
    report = cg.closedness_report(tau, tol=1e-7)
    assert report.passed, report.max_residual
    mixed_val = base_value(tau, (1, 1), ("a", "b"), (Word.gen("s"),)).max_abs()
    assert mixed_val > 1e-8


# --- witness -------------------------------------------------------------------


def test_witness_identical_atlases_is_zero(rng):
    cover, action, atlas = three_chart_setup(rng)
    w = cg.cohomologous_witness(cover, action, atlas, atlas, T2)
    for (m, q) in w.bidegrees():
        for J, G in object_cells(cover, action, m, q):
            assert base_value(w, (m, q), J, G).max_abs() < 1e-14


def test_witness_global_affine_recoordination(rng):
    cover, action, atlas = three_chart_setup(rng)
    post = lib.affine_map([[1, F(1, 2)], [0, 1]], [F(1, 5), 0], name="post")
    post_inv = lib.affine_map([[1, F(-1, 2)], [0, 1]], [F(-1, 5), 0], name="post_inv")
    charts_b = {}
    for i in ("p", "q", "r"):
        chart, inv = atlas.charts[i]
        charts_b[i] = (hm.compose(post, chart),
                       hm.compose(inv, post_inv))
    atlas_b = cg.Atlas(charts_b)
    tau_a = cg.tau_invariant(cover, action, atlas, T2)
    tau_b = cg.tau_invariant(cover, action, atlas_b, T2)
    w = cg.cohomologous_witness(cover, action, atlas, atlas_b, T2)
    report = cg.witness_report(w, tau_a, tau_b, tol=1e-7)
    assert report.passed, report.max_residual


def test_witness_nonaffine_reparametrization(rng):
    cover, action, atlas = three_chart_setup(rng)
    charts_b = dict(atlas.charts)
    extra = hm.parse_map("z1; z2 + z1^2 + z1^3", 2, name="shear3")
    extra_inv = hm.parse_map("z1; z2 - z1^2 - z1^3", 2, name="shear3_inv")
    charts_b["q"] = (extra, extra_inv)
    atlas_b = cg.Atlas(charts_b)
    tau_a = cg.tau_invariant(cover, action, atlas, T2)
    tau_b = cg.tau_invariant(cover, action, atlas_b, T2)
    w = cg.cohomologous_witness(cover, action, atlas, atlas_b, T2)
    report = cg.witness_report(w, tau_a, tau_b, tol=1e-7)
    assert report.passed, report.max_residual
    cloud = [[[c.real, c.imag] for c in p] for p in cover.cloud(("p",))]
    assert report.rows()
    for row in report.rows():
        assert row["worst_point"] in cloud
    # the two cocycles genuinely differ somewhere
    diff = max(float(np.max(np.abs(base_value(tau_a, bd, J, G).values[:3, 0]
                                   - base_value(tau_b, bd, J, G).values[:3, 0])))
               for bd in tau_a.bidegrees()
               for J, G in object_cells(cover, action, *bd))
    assert diff > 1e-8


def right_half_cloud(n, count, seed):
    """Coordinates near 1, clear of the principal log branch cut."""
    r = np.random.default_rng(seed)
    return [tuple(0.9 + 0.3 * complex(*r.uniform(-1, 1, 2)) for _ in range(n))
            for _ in range(count)]


def test_tau_nonconstant_jacobian_determinant_n2(rng):
    # polynomial automorphisms have constant Jacobian determinant, so their
    # theta matrices are trace free and the T1^2 part of Todd_2 never fires;
    # square charts with exp(log/2) inverses have nonconstant determinant
    sq_a = hm.parse_map("z1^2; z2", 2, name="sqa")
    sqrt_a = hm.parse_map("exp(log(z1)/2); z2", 2, name="sqrta")
    sq_b = hm.parse_map("z1; z2^2", 2, name="sqb")
    sqrt_b = hm.parse_map("z1; exp(log(z2)/2)", 2, name="sqrtb")
    pts = right_half_cloud(2, 10, 41)
    sets = [("a",), ("b",), ("c",), ("a", "b"), ("a", "c"), ("b", "c"),
            ("a", "b", "c")]
    cover = cg.CoverSpec(["a", "b", "c"], {frozenset(s): np.array(pts) for s in sets}, 2)
    action = cg.trivial_action(["a", "b", "c"], 2)
    atlas = cg.Atlas({"a": (lib.identity_map(2), lib.identity_map(2)),
                      "b": (sq_a, sqrt_a), "c": (sq_b, sqrt_b)})
    tau = cg.tau_invariant(cover, action, atlas, T2)
    full = base_value(tau, (2, 0), ("a", "b", "c"), ()).max_abs()
    assert full > 1e-2
    # restrict to the tr(M1 M2) part alone: the singleton-trace terms matter here
    t2_only = cg.tau_invariant(cover, action, atlas,
                               InvariantMap(2, {(2,): F(-1, 24)}))
    assert abs(full - base_value(t2_only, (2, 0), ("a", "b", "c"), ()).max_abs()) > 1e-3
    report = cg.closedness_report(tau, tol=1e-7)
    assert report.passed, report.max_residual


def test_tau_dimension_three(rng):
    # coordinate-square charts make theta span all three differentials, so the
    # arity-3 Todd cocycle is nonzero; closedness runs over 4^4 index tuples
    import itertools
    defs = {
        "b": ("z1^2; z2; z3", "exp(log(z1)/2); z2; z3"),
        "c": ("z1; z2^2; z3", "z1; exp(log(z2)/2); z3"),
        "d": ("z1; z2; z3^2", "z1; z2; exp(log(z3)/2)"),
    }
    charts = {"a": (lib.identity_map(3), lib.identity_map(3))}
    for key, (fwd, inv) in defs.items():
        charts[key] = (hm.parse_map(fwd, 3), hm.parse_map(inv, 3))
    pts = right_half_cloud(3, 8, 43)
    indices = ["a", "b", "c", "d"]
    sets = [frozenset(c) for r in range(1, 5)
            for c in itertools.combinations(indices, r)]
    cover = cg.CoverSpec(indices, {s: np.array(pts) for s in sets}, 2)
    action = cg.trivial_action(indices, 3)
    atlas = cg.Atlas(charts)
    tau = cg.tau_invariant(cover, action, atlas, todd_invariant(3))
    assert base_value(tau, (3, 0), ("a", "b", "c", "d"), ()).max_abs() > 1e-3
    report = cg.closedness_report(tau, tol=1e-7)
    assert report.passed, report.max_residual


def test_tau_two_generator_free_action(rng):
    pts = random_points(rng, 8, radius=0.3)
    cover = cg.CoverSpec(["u"], {frozenset(["u"]): np.array(pts)}, 2)
    action = cg.GroupActionSpec(
        {"h": (lib.henon_map(), lib.henon_inverse()),
         "s": (lib.shear_map(), lib.shear_inverse())},
        {"h": {"u": "u"}, "s": {"u": "u"}}, ["u"],
        words=[(("h", 1),), (("s", 1),)])
    atlas = cg.Atlas({"u": (lib.identity_map(2), lib.identity_map(2))})
    tau = cg.tau_invariant(cover, action, atlas, T2)
    report = cg.closedness_report(tau, tol=1e-7)
    assert report.passed, report.max_residual
    mixed_word_cell = base_value(tau, (0, 2), ("u",),
                                 (Word.gen("h"), Word.gen("s"))).max_abs()
    assert mixed_word_cell > 1e-6


def test_witness_group_direction(rng):
    cover, action, atlas = one_chart_setup(rng)
    atlas_b = cg.Atlas({"u": (lib.shear_map(), lib.shear_inverse())})
    tau_a = cg.tau_invariant(cover, action, atlas, T2)
    tau_b = cg.tau_invariant(cover, action, atlas_b, T2)
    w = cg.cohomologous_witness(cover, action, atlas, atlas_b, T2)
    report = cg.witness_report(w, tau_a, tau_b, tol=1e-7)
    assert report.passed, report.max_residual


def test_signed_zero_copies_of_a_point_are_one_point_and_keep_their_signs():
    # the pair intersection holds a point with real part +0.0; {a} holds it with
    # -0.0, and {b} with +0.0 and then again with -0.0
    shared = [0.0 + 0.1j, 0.2 + 0.3j]
    minus = [complex(-0.0, 0.1), 0.2 + 0.3j]
    a = np.array([minus, [0.4 + 0.0j, 0.1 - 0.2j]])
    b = np.array([shared, [0.3 + 0.1j, 0.2 - 0.1j], minus])
    cover = cg.CoverSpec(["a", "b"], {frozenset(["a"]): a, frozenset(["b"]): b,
                                      frozenset(["a", "b"]): np.array([shared])}, 2)
    # nesting appends nothing: both clouds already hold the pair's point
    assert len(cover.cloud(("a",))) == 2 and len(cover.cloud(("b",))) == 3
    assert np.signbit(cover.cloud(("a",))[0, 0].real)
    assert np.signbit(cover.cloud(("b",))[2, 0].real)
    assert not np.signbit(cover.cloud(("a", "b"))[0, 0].real)


def test_restriction_after_nesting_matches_the_tuple_rows(rng):
    pts = random_points(rng, 5, radius=0.3)
    extra = random_points(rng, 3, radius=0.3)
    clouds = {frozenset("a"): np.array(pts[:3] + extra), frozenset("b"): np.array(pts[2:]),
              frozenset("ab"): np.array(pts[1:4] + pts[1:2])}
    cover = cg.CoverSpec(["a", "b"], clouds, 2)
    # deep points are appended in their order, each once, after the declared ones
    assert cover.cloud(("a",)).tolist() == [list(p) for p in pts[:3] + extra + [pts[3]]]


def test_residual_report_keeps_a_nan_residual_as_the_worst():
    # NaN first, then descending, ties in cell order: a stable sort by nan_worst
    residual = np.array([0.5, np.nan, 0.25, np.nan, 0.5, 0.0])
    order = cg.worst_first(residual).tolist()
    assert order == [1, 3, 0, 4, 2, 5]
    assert order == sorted(range(len(residual)), key=lambda i: nan_worst(residual[i]),
                           reverse=True)


def nan_then_finite_cover():
    """{a} with a NaN coordinate, declared before a finite {b}."""
    return cg.CoverSpec(["a", "b"], {
        frozenset("a"): np.array([[np.nan, 0.1], [0.2, 0.3]], dtype=complex),
        frozenset("b"): np.array([[0.1, 0.2j], [0.3, 0.1]], dtype=complex)}, 2)


def test_atlas_round_trip_keeps_a_nan_error():
    # the shear chart of b with the identity as inverse is off by a finite amount
    ident = lib.identity_map(2)
    atlas = cg.Atlas({"a": (ident, ident), "b": (lib.shear_map(), ident)})
    error, index = atlas.round_trip(nan_then_finite_cover())
    assert np.isnan(error) and index == "a"


def test_generator_round_trip_keeps_a_nan_error():
    action = cg.GroupActionSpec({"g": (lib.shear_map(), lib.identity_map(2))},
                                {"g": {"a": "a", "b": "b"}}, ["a", "b"])
    error, name = action.round_trip(nan_then_finite_cover())
    assert np.isnan(error) and name == "g"


def witness_scenario(source, tmp_path, monkeypatch):
    """A shipped scenario by file name, or a benchmark workload's at seed 2."""
    if source.endswith(".scn"):
        return Scenario.load(SCENARIOS / source)
    monkeypatch.syspath_prepend(str(SCENARIOS.parent / "perfbench"))
    import workloads
    path = tmp_path / (source + ".scn")
    path.write_text(json.dumps(getattr(workloads, source.replace("-", "_"))(2)), encoding="utf-8")
    return Scenario.load(path)


def test_the_witness_requests_each_subtracted_base_value_once_per_cell(tmp_path, monkeypatch):
    requests = {}
    evaluate_all = cg.MixedCochain.evaluate_all

    def counted(self, batch):
        if id(self) in requests:
            requests[id(self)].update((bd, tuple(J), tuple(G), P.tobytes(), pull)
                                      for bd, J, G, P, pull in batch)
        return evaluate_all(self, batch)

    monkeypatch.setattr(cg.MixedCochain, "evaluate_all", counted)
    for source in ("witness_reparam.scn", "group-witness"):
        scn = witness_scenario(source, tmp_path, monkeypatch)
        taus = [scn.tau(scn.atlas, scn.n), scn.tau(scn.atlas_b, scn.n)]
        requests.update({id(tau): collections.Counter() for tau in taus})
        witness = cg.cohomologous_witness(scn.cover, scn.action, scn.atlas, scn.atlas_b,
                                          todd_invariant(scn.n))
        report = cg.witness_report(witness, *taus, tol=1e-7)
        assert report.passed
        sets = scn.action.ids().sets
        cells = [(bd, tuple(J), tuple(G), scn.cover.cloud(sets[s]).tobytes())
                 for bd in taus[0].bidegrees()
                 for J, G, s in zip(*(a.tolist() for a in cg.enumerate_cells(
                     scn.cover, scn.action, *bd)))]
        assert len(cells) == len(report.residual)
        for tau in taus:
            live = [cell + (0,) for cell in cells if not tau.structurally_zero(*cell[:3])]
            # each live value once, on its cell's own cloud; a structural zero never
            assert requests[id(tau)] == collections.Counter(live), source
            assert 0 < len(live) < len(cells), source


def test_a_witness_cell_sums_its_own_terms_then_minus_tau_a_then_plus_tau_b(tmp_path,
                                                                          monkeypatch):
    scn = witness_scenario("group-witness", tmp_path, monkeypatch)
    tau_a, tau_b = scn.tau(scn.atlas, scn.n), scn.tau(scn.atlas_b, scn.n)
    witness = cg.cohomologous_witness(scn.cover, scn.action, scn.atlas, scn.atlas_b,
                                      todd_invariant(scn.n))
    report = cg.witness_report(witness, tau_a, tau_b, tol=1e-7)
    ids = scn.action.ids()
    differs = 0
    for bd, plan in report._plans:
        for cells, terms, values, total in plan.sums():
            for r, c in enumerate(cells.tolist()):
                keys = [plan.keys[k] for k in plan.term_key[terms[r]].tolist()]
                J, G = plan.cells[c]
                own = keys[:-2]
                if not own or keys[-2:] != [(1, bd, J, G, 0), (2, bd, J, G, 0)]:
                    continue
                # the witness's terms first, ranked by the repr of their keys
                assert {k[0] for k in own} == {0}
                assert own == sorted(own, key=lambda k: ids.key_repr(*k[1:]))
                coeff = plan.coeff[terms[r]].tolist()
                assert coeff[-2:] == [-1, 1]
                A, B = (tau.evaluate_all([(bd, J, G, plan.points(c), 0)])[0].values
                        for tau in (tau_a, tau_b))
                assert values[r, -2].tobytes() == A.tobytes()
                assert values[r, -1].tobytes() == B.tobytes()
                # left to right: own terms in key order, then -tau_a, then +tau_b
                own_total = coeff[0] * values[r, 0]
                for a, v in zip(coeff[1:-2], values[r, 1:-2]):
                    own_total = own_total + a * v
                assert total[r].tobytes() == ((own_total + -1 * A) + 1 * B).tobytes()
                # the grouping shows in the bits: own - (A - B) differs on some cell
                differs += total[r].tobytes() != (own_total - (A - B)).tobytes()
    assert differs
