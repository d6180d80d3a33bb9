"""Chart simplices: one label at a time (chart_labels), the Dold-Kan labeling of
their face labels (dold_kan), and the face sums the telescoping and dk-validate
checks run as the Cech differential of tau on increasing tuples."""

import itertools
import json
import math
import pathlib
import struct
import types
from fractions import Fraction

import numpy as np
import pytest

import cocyclekit.cechgroup as cg
import cocyclekit.holomap as hm
from cocyclekit.cli import run_simplex_faces, verdict
from cocyclekit.errors import ValidationError
from cocyclekit.forms import SampledForm
from cocyclekit.invariants import InvariantMap, todd_invariant
from cocyclekit.scenario import Scenario
import library as lib
import dold_kan as sim
import map_values as mv
import sampled_forms as sf
from chart_labels import cf_label_top, chart_path, sub_simplex, theta_r, validate
from conftest import random_points

F = Fraction
ROOT = pathlib.Path(__file__).resolve().parents[1]


def make_simplex(charts, inverses, points, corrupt=None):
    """The ChartPath of charts whose transition phi[p, q] is the one symbolic map
    chart_p . inverse_q, with corrupt = ((p, q), map) replacing one; checked
    coherent when not corrupted. tau reads the same simplex as chains
    (sim.simplex_tau)."""
    transitions = {}
    for p in range(len(charts)):
        for q in range(p + 1, len(charts)):
            transitions[(p, q)] = (hm.compose(charts[p], inverses[q]),)
    if corrupt:
        transitions[corrupt[0]] = (corrupt[1],)
    s = chart_path([(c,) for c in charts], transitions, points)
    if corrupt is None:
        validate(s)
    return s


def named(chain):
    """The one named map of a chart path's chart or transition, made by make_simplex."""
    (piece,) = chain
    return piece


def library_maps(count=4):
    """The first `count` charts of the library simplex and their inverses."""
    charts = [lib.identity_map(2), lib.shear_map(), lib.henon_map(),
              lib.affine_map([[1, F(1, 3)], [0, 1]], [F(1, 5), 0], name="aff")]
    inverses = [lib.identity_map(2), lib.shear_inverse(), lib.henon_inverse(),
                lib.affine_map([[1, F(-1, 3)], [0, 1]], [F(-1, 5), 0], name="aff_inv")]
    return charts[:count], inverses[:count]


def library_simplex(rng, count=4, points=20):
    pts = random_points(rng, points, radius=0.4)
    return make_simplex(*library_maps(count), pts), pts


def library_tau(pts, count, T, transitions=None, base=None):
    """tau of the library simplex of `count` charts on pts (sim.simplex_tau)."""
    return sim.simplex_tau(*library_maps(count), pts, T, transitions, base)


def affine_maps(count=3):
    mats = [([[1, 0], [0, 1]], [0, 0]),
            ([[2, 1], [1, 1]], [F(1, 4), 0]),
            ([[1, 0], [F(1, 2), 1]], [0, F(-1, 3)]),
            ([[1, 1], [0, 1]], [F(1, 7), F(2, 7)])]
    inv_mats = [([[1, 0], [0, 1]], [0, 0]),
                ([[1, -1], [-1, 2]], [F(-1, 4), F(1, 4)]),
                ([[1, 0], [F(-1, 2), 1]], [0, F(1, 3)]),
                ([[1, -1], [0, 1]], [F(1, 7), F(-2, 7)])]
    return ([lib.affine_map(A, b) for A, b in mats[:count]],
            [lib.affine_map(A, b) for A, b in inv_mats[:count]])


def affine_simplex(rng, count=3):
    pts = random_points(rng, 10)
    return make_simplex(*affine_maps(count), pts), pts


def test_coherence_validation_accepts_consistent_transitions(rng):
    s, _ = library_simplex(rng)
    assert validate(s) < 1e-9


def test_coherence_validation_rejects_corruption(rng):
    pts = random_points(rng, 10, radius=0.4)
    charts = [lib.identity_map(2), lib.shear_map(), lib.henon_map()]
    invs = [lib.identity_map(2), lib.shear_inverse(), lib.henon_inverse()]
    with pytest.raises(ValidationError):
        transitions = {}
        for p in range(3):
            for q in range(p + 1, 3):
                transitions[(p, q)] = (hm.compose(charts[p], invs[q]),)
        transitions[(0, 2)] = (lib.henon_map(),)
        validate(chart_path([(c,) for c in charts], transitions, pts))


def test_theta_r_at_top_is_plain_theta(rng):
    s, pts = library_simplex(rng, count=3)
    P = named(s.charts[-1]).eval(pts[:5])
    top = theta_r(s, s.level, P)
    direct = sf.theta(named(s.transitions[s.level - 1, s.level]), P)
    for a, b in zip(top.values, direct.values):
        assert max(np.max(np.abs(x - y)) for x, y in zip(a, b)) < 1e-12


def test_theta_r_affine_simplex_vanishes(rng):
    s, _ = affine_simplex(rng)
    for r in range(1, s.level + 1):
        assert theta_r(s, r, named(s.charts[-1]).eval(s.source_points)).structurally_zero


def test_theta_r_matches_direct_composition(rng):
    # pull theta back by hand at 10 points
    s, pts = library_simplex(rng, count=3)
    r = 1
    X = named(s.charts[-1]).eval(pts[:10])
    th = theta_r(s, r, X)
    phi = named(s.transitions[r, s.level])
    for x, got in zip(X, th.values):
        J = mv.jacobian(phi, [x])[0]
        Jinv = np.linalg.inv(J)
        mats = sf.theta(named(s.transitions[r - 1, r]), mv.image(phi, [x])).values[0]
        conj = [Jinv @ m @ J for m in mats]
        want = [sum(J[a, b] * conj[a] for a in range(2)) for b in range(2)]
        assert max(np.max(np.abs(x_ - y_)) for x_, y_ in zip(got, want)) < 1e-10


def test_cf_label_top_affine_is_zero(rng):
    s, _ = affine_simplex(rng, count=3)
    T2 = todd_invariant(2)
    label = cf_label_top(s, T2, s.source_points)
    assert label.structurally_zero
    assert label.values.shape == (len(s.source_points), 1)


def test_cf_label_top_with_one_affine_transition_evaluates_no_map(rng, monkeypatch):
    # theta_1 comes from the affine transition aff o id^-1, theta_2 from the
    # Henon-type henon o aff^-1: the label is zero before any map is evaluated
    pts = random_points(rng, 10, radius=0.4)
    aff = lib.affine_map([[1, F(1, 3)], [0, 1]], [F(1, 5), 0], name="aff")
    aff_inv = lib.affine_map([[1, F(-1, 3)], [0, 1]], [F(-1, 5), 0], name="aff_inv")
    s = make_simplex([aff, lib.identity_map(2), lib.henon_map()],
                     [aff_inv, lib.identity_map(2), lib.henon_inverse()], pts)
    assert named(s.transitions[0, 1]).is_affine() and not named(s.transitions[1, 2]).is_affine()
    calls = []
    for name in ("eval", "jacobian", "djacobian"):
        def counted(self, points, _original=getattr(hm.HoloMap, name), _name=name):
            calls.append(_name)
            return _original(self, points)
        monkeypatch.setattr(hm.HoloMap, name, counted)
    label = cf_label_top(s, todd_invariant(2), pts)
    assert label.structurally_zero and np.all(label.values == 0)
    assert calls == []


def test_cf_label_top_trace_on_square_transition(rng):
    # charts (id, sq) so the transition phi_{0,1} = z -> (z1^2, z2); with
    # T = (1/2) tr this is half the pullback of (1/z1) dz1 along the top chart
    pts = [(0.8 + 0.1j, 0.3 - 0.2j), (1.1 - 0.3j, 0.4 + 0.5j), (0.9 + 0.4j, -0.6j)]
    sq = lib.diagonal_square_map()
    # inverse of z -> (z1^2, z2) is not entire; supply the transition directly
    charts = [(sq,), (lib.identity_map(2),)]
    transitions = {(0, 1): (sq,)}
    s = chart_path(charts, transitions, pts)
    validate(s)
    T = InvariantMap(1, {(1,): F(1, 2)})
    label = cf_label_top(s, T, pts)
    for w, vals in zip(pts, label.values):
        # top chart is the identity: label = (1/2) tr(theta(sq)) = dz1/(2 z1)
        assert vals[0] == pytest.approx(0.5 / w[0])
        assert vals[1] == pytest.approx(0.0)


def test_cf_label_top_wedge_beyond_dimension(rng):
    s, _ = library_simplex(rng, count=4)
    T3 = todd_invariant(3)
    assert cf_label_top(s, T3, s.source_points).structurally_zero


def test_cf_map_low_level_is_zero(rng):
    pts = random_points(rng, 20, radius=0.4)
    T2 = todd_invariant(2)
    labeling = sim.cf_map(library_tau(pts, 2, T2), 1, pts)  # level 1 < arity 2
    assert all(np.all(labeling.label(c).values == 0) for c in labeling.cells())
    C = sim.shifted_form_complex(2, 2, pts)
    assert sim.dk_validate(labeling, C)["pass"]


def test_cf_map_level_equals_arity_validates(rng):
    pts = random_points(rng, 20, radius=0.4)
    T2 = todd_invariant(2)
    labeling = sim.cf_map(library_tau(pts, 3, T2), 2, pts)
    C = sim.shifted_form_complex(2, 2, pts)
    report = sim.dk_validate(labeling, C, tol=1e-7)
    assert report["pass"]
    assert not np.all(labeling.label((0, 1, 2)).values == 0)


def test_cf_map_labels_match_independent_recomputation(rng):
    s, pts = library_simplex(rng, count=4)  # level 3, arity 2
    T2 = todd_invariant(2)
    labeling = sim.cf_map(library_tau(pts, 4, T2), 3, pts)
    for cell in labeling.cells(3):
        face = sub_simplex(s, cell)
        direct = cf_label_top(face, T2, s.source_points)
        assert sf.sub(labeling.label(cell), direct).max_abs() < 1e-12


def test_cf_map_commutes_with_faces(rng):
    pts = random_points(rng, 20, radius=0.4)
    charts, inverses = library_maps(4)
    T2 = todd_invariant(2)
    labeling = sim.cf_map(sim.simplex_tau(charts, inverses, pts, T2), 3, pts)
    for j in range(4):
        keep = [i for i in range(4) if i != j]
        sub = sim.simplex_tau([charts[i] for i in keep], [inverses[i] for i in keep], pts, T2)
        a = sim.dk_face(j, labeling)
        b = sim.cf_map(sub, 2, pts)
        for cell in a.cells():
            assert sf.sub(a.label(cell), b.label(cell)).max_abs() < 1e-12


def test_cf_map_degeneracy_compatibility(rng):
    # repeating a chart then labeling equals the Dold-Kan degeneracy of the labels
    pts = random_points(rng, 10, radius=0.4)
    charts = [lib.identity_map(2), lib.shear_map(), lib.henon_map()]
    invs = [lib.identity_map(2), lib.shear_inverse(), lib.henon_inverse()]
    T2 = todd_invariant(2)
    labeling = sim.cf_map(sim.simplex_tau(charts, invs, pts, T2), 2, pts)
    C = sim.shifted_form_complex(2, 2, pts)
    for j in range(3):
        doubled = sim.simplex_tau(charts[:j + 1] + charts[j:], invs[:j + 1] + invs[j:], pts, T2)
        a = sim.cf_map(doubled, 3, pts)
        b = sim.dk_degeneracy(j, labeling, C.ops)
        for cell in a.cells():
            assert sf.sub(a.label(cell), b.label(cell)).max_abs() < 1e-8, (j, cell)


def test_cf_map_naturality_under_restriction(rng):
    pts = random_points(rng, 20, radius=0.4)
    T2 = todd_invariant(2)
    sub_pts = pts[:7]
    full = sim.cf_map(library_tau(pts, 3, T2), 2, pts)
    restricted = sim.cf_map(library_tau(sub_pts, 3, T2), 2, sub_pts)
    for cell in full.cells():
        a = full.label(cell)
        keep = [a.points.tolist().index(list(p)) for p in sub_pts]
        assert np.allclose(a.values[keep], restricted.label(cell).values)


def face_sums(tau, tol=1e-7):
    """The face-sum report of a chart simplex's tau: its closedness on increasing tuples."""
    return cg.closedness_report(tau, tol=tol, increasing=True)


def test_face_sums_of_an_affine_simplex_are_exact_zeros(rng):
    pts = random_points(rng, 10)
    report = face_sums(sim.simplex_tau(*affine_maps(4), pts, todd_invariant(2)), tol=0.0)
    assert report.max_residual == 0.0 and report.passed


def test_face_sums_hold_on_polynomial_automorphisms(rng):
    pts = random_points(rng, 20, radius=0.4)
    report = face_sums(library_tau(pts, 4, todd_invariant(2)))
    assert report.passed
    assert report.max_residual <= 1e-7


def test_face_sums_trip_on_a_corrupted_transition(rng):
    pts = random_points(rng, 20, radius=0.4)
    report = face_sums(library_tau(pts, 4, todd_invariant(2), {(0, 2): (lib.henon_map(),)}))
    assert not report.passed
    assert report.max_residual > 1e-7


def test_face_sums_need_a_cell_above_the_arity(rng):
    pts = random_points(rng, 20, radius=0.4)
    # level 2 = k: no 3-cell to sum faces on
    with pytest.raises(ValidationError, match="no nonempty cells"):
        face_sums(library_tau(pts, 3, todd_invariant(2)))


def test_corrupting_a_transition_changes_only_the_faces_that_use_it(rng):
    # the override replaces phi[0, 2] alone. The label of a face (i_0 < ... < i_k)
    # reads phi[i_(r-1), i_r] in its ladder and phi[i_r, i_k] in its pullbacks, so
    # the pair (0, 2) only where 0 and 2 are adjacent
    pts = random_points(rng, 12, radius=0.4)
    for arity, count in ((1, 3), (1, 4), (2, 4)):
        T = todd_invariant(arity)
        clean = sim.cf_map(library_tau(pts, count, T), count - 1, pts)
        bad = sim.cf_map(library_tau(pts, count, T, {(0, 2): (lib.henon_map(),)}), count - 1,
                         pts)
        changed = []
        for face in clean.cells(arity + 1):
            a, b = clean.label(face).values.tobytes(), bad.label(face).values.tobytes()
            if a != b:
                changed.append(face)
        assert changed == [face for face in clean.cells(arity + 1)
                           if (0, 2) in zip(face, face[1:])], (arity, count)
        assert changed and len(changed) < len(clean.cells(arity + 1))


@pytest.mark.parametrize("clean_first", [True, False], ids=["clean-first", "corrupt-first"])
@pytest.mark.parametrize("count, arity", [(3, 1), (3, 2), (4, 1), (4, 2)])
def test_a_corrupt_tau_labels_only_the_faces_that_read_its_override(rng, monkeypatch, count,
                                                                    arity, clean_first):
    # a tau whose override reads the clean tau takes every face that reads no overridden
    # transition from it, the clean tau's own value object, and labels the others; its
    # values equal those of a standalone override tau bit for bit, whichever of the
    # clean and the corrupt tau is evaluated first
    pts = random_points(rng, 12, radius=0.4)
    T = todd_invariant(arity)
    override = {(0, 2): (lib.henon_map(),)}
    labels = []
    add_label = cg.LabelPlan.add_label

    def counted(plan, *args):
        labels.append(args)
        return add_label(plan, *args)

    monkeypatch.setattr(cg.LabelPlan, "add_label", counted)
    clean = library_tau(pts, count, T)
    derived = library_tau(pts, count, T, override, base=clean)
    P = hm.as_cloud(pts, 2)
    faces = list(itertools.combinations(range(count), arity + 1))
    requests = [((arity, 0), face, (), P, 0) for face in faces]
    values = {tau: tau.evaluate_all(requests)
              for tau in ((clean, derived) if clean_first else (derived, clean))}
    # a face reads phi[i_(r-1), i_r] in its ladder and phi[i_r, i_k] in its pullbacks,
    # at arity <= 2 a ladder pair too; the one face of 3 charts at arity 2 reads none
    replaced = [face for face in faces if (0, 2) in zip(face, face[1:])]
    assert len(replaced) == {(3, 1): 1, (3, 2): 0, (4, 1): 1, (4, 2): 1}[count, arity]
    assert [face for face, a, b in zip(faces, values[clean], values[derived])
            if a is not b] == replaced
    # each face of the clean tau labeled once, and the replaced ones again; a face whose
    # ladder holds an affine transition has no label (cechgroup.label_vanishes)
    live = [not v.structurally_zero for v in values[clean]]
    live += [not v.structurally_zero for v, face in zip(values[derived], faces)
             if face in replaced]
    assert len(labels) == sum(live)
    monkeypatch.undo()
    alone = library_tau(pts, count, T, override).evaluate_all(requests)
    fresh = library_tau(pts, count, T).evaluate_all(requests)
    for face, got, want in zip(faces, values[derived], alone):
        assert got.values.tobytes() == want.values.tobytes(), face
    for face, got, want in zip(faces, values[clean], fresh):
        assert got.values.tobytes() == want.values.tobytes(), face
    assert all(a.values.tobytes() != b.values.tobytes() for a, b, face in
               zip(values[derived], fresh, faces) if face in replaced)


def crafted_face_sums(rng, count, labels):
    """The dk-validate runner at arity 1 on a simplex of `count` charts whose tau's
    (1, 0) values are replaced: face -> (N, 2) values, a face not listed being the
    structural zero. (runner fields, face-sum report, the source cloud as JSON)."""
    P = hm.as_cloud(random_points(rng, 10), 2)
    indices = [str(p) for p in range(count)]
    cover = cg.CoverSpec(indices, {cell: P for cell in itertools.combinations(indices, 3)}, 2)

    def values(requests):
        return [SampledForm(2, 1, Q, labels[J]) if J in labels else SampledForm.zeros(2, 1, Q, ())
                for J, _, Q, _ in requests]

    tau = cg.MixedCochain(cover, cg.trivial_action(indices, 2), 2, 1, {(1, 0): values},
                          name="tau", vanishes=lambda bd, J, G: J not in labels)
    scn = types.SimpleNamespace(tau=lambda atlas, arity, transitions: tau)
    entry = {"type": "dk-validate", "arity": 1, "tolerance": 1e-7, "simplex": (None, 1, ())}
    held, fields = run_simplex_faces(scn, entry)
    return dict(fields, passed=held), face_sums(tau), as_json_points(P)


def as_json_points(P):
    return [[[z.real, z.imag] for z in p] for p in P.tolist()]


def cell_residuals(report):
    """{cell as chart positions: residual} of a face-sum report, in cell order."""
    rows = (report.row(i) for i in range(len(report.residual)))
    return {tuple(map(int, row["indices"])): row["residual"] for row in rows}


def test_face_sum_ties_go_to_the_first_point_and_the_first_face(rng):
    peak = np.zeros((10, 2), dtype=complex)
    peak[[3, 7]] = [0, 2]
    # on the cell (0, 1, 2) the Cech differential adds + (0, 1) - (0, 2) + (1, 2), its
    # faces in the order of their index names; (0, 1) and (0, 2) reach 2 at rows 3 and
    # 7, and the structural zero (1, 2) never dominates
    fields, _, points = crafted_face_sums(rng, 3, {(0, 2): peak[:, ::-1], (0, 1): -peak})
    assert fields["max_residual"] == 2.0 and not fields["passed"]
    assert fields["worst_point"] == points[3]
    assert fields["dominant_term"] == {"face": [0, 1], "sign": 1, "modulus": 2.0}


def test_a_nan_face_label_makes_its_cells_the_worst(rng):
    nan_at_5 = np.ones((10, 2), dtype=complex)
    nan_at_5[5, 1] = np.nan
    fields, report, points = crafted_face_sums(rng, 4, {
        (0, 1): np.full((10, 2), 100.0, dtype=complex), (2, 3): nan_at_5})
    residuals = cell_residuals(report)
    assert residuals[(0, 1, 2)] == 100.0
    assert math.isnan(residuals[(1, 2, 3)])
    # the first cell holding (2, 3), in combinations order, is the worst
    assert fields["worst_cell"] == "(0, 2, 3)"
    assert math.isnan(fields["max_residual"]) and not fields["passed"]
    assert verdict({}, fields["passed"], {})["status"] == "fail"
    assert fields["worst_point"] == points[5]
    dominant = fields["dominant_term"]
    assert (dominant["face"], dominant["sign"]) == ([2, 3], 1)
    assert math.isnan(dominant["modulus"])


def test_a_face_sum_of_structural_zeros_has_no_dominant_face(rng):
    fields, _, points = crafted_face_sums(rng, 3, {})
    assert fields["max_residual"] == 0.0 and fields["passed"]
    assert fields["worst_point"] == points[0]
    assert fields["dominant_term"] is None
    # a live label that is zero there still beats the structural zeros
    fields, _, _ = crafted_face_sums(rng, 3, {(0, 1): np.zeros((10, 2))})
    assert fields["dominant_term"] == {"face": [0, 1], "sign": 1, "modulus": 0.0}


# six charts over the benchmark's chart-kernel maps; the first four are its own
CHART_KERNEL_CHARTS = [("ident", "ident"), ("shear", "shear_inv"), ("henon", "henon_inv"),
                       ("affine", "affine_inv"), ("shear3", "shear3_inv"),
                       ("henon_inv", "henon")]


def chart_kernel_entry(seed, count, arity, tmp_path, monkeypatch, corrupt=None):
    """(scenario, entry) of the benchmark's chart-kernel dk-validate entry, on its
    seeded source cloud, over the first `count` charts above."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    data = workloads.chart_kernel(seed)
    entry = next(c for c in data["checks"] if c["type"] == "dk-validate")
    entry = dict(entry, arity=arity, charts=[{"chart": c, "inverse": i}
                                             for c, i in CHART_KERNEL_CHARTS[:count]])
    if corrupt:
        entry["corrupt"] = corrupt
    data["checks"] = [entry]
    path = tmp_path / "chart-kernel.scn"
    path.write_text(json.dumps(data), encoding="utf-8")
    scn = Scenario.load(path)
    return scn, scn.checks[0]


def bits(x):
    return struct.pack("<d", x)


def assert_face_sums_match_the_oracle(scn, entry):
    """The dk-validate runner's face sums on every cell against dk_validate of the
    Dold-Kan labeling of the same tau's face labels, bit for bit; the runner's fields."""
    arity, P = entry["arity"], entry["source_points"]
    level = len(entry["charts"]) - 1
    tau = scn.tau(*entry["simplex"])
    held, fields = run_simplex_faces(scn, entry)
    got = cell_residuals(face_sums(tau))
    want = sim.dk_validate(sim.cf_map(tau, level, P), sim.shifted_form_complex(scn.n, arity, P))
    top = list(itertools.combinations(range(level + 1), arity + 2))
    assert list(got) == top
    for key, residual in want["residuals"].items():
        cell = tuple(int(i) for i in key.split(","))
        if cell in got:
            assert bits(got[cell]) == bits(residual), cell
        else:
            assert bits(residual) == bits(0.0), cell
    assert bits(fields["max_residual"]) == bits(want["max_residual"])
    assert fields["worst_cell"] == str(want["worst_cell"] if want["max_residual"] else top[0])
    return dict(fields, passed=held, residuals=got)


@pytest.mark.parametrize("seed", (2, 3, 7))
@pytest.mark.parametrize("arity, above", [(k, d) for k in (1, 2) for d in (1, 2, 3)],
                         ids=["k%d-level+%d" % (k, d) for k in (1, 2) for d in (1, 2, 3)])
def test_face_sums_equal_the_dold_kan_oracle_bit_for_bit(seed, arity, above, tmp_path,
                                                         monkeypatch):
    # level k + above, so k + above + 1 charts
    scn, entry = chart_kernel_entry(seed, arity + above + 1, arity, tmp_path, monkeypatch)
    report = assert_face_sums_match_the_oracle(scn, entry)
    assert report["passed"]


def test_face_sums_of_a_corrupted_transition_equal_the_oracle(tmp_path, monkeypatch):
    scn, entry = chart_kernel_entry(2, 5, 2, tmp_path, monkeypatch,
                                    corrupt={"replace": [0, 2], "with_map": "henon"})
    report = assert_face_sums_match_the_oracle(scn, entry)
    assert not report["passed"]
    # only the 3-cells holding the face (0, 2) see the corrupted transition
    assert all(report["residuals"][cell] < 1e-7
               for cell in report["residuals"] if not {0, 2} <= set(cell))
    worst = report["worst_cell"]
    assert "0" in worst and "2" in worst
