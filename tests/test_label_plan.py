"""The label plan: each theta and theta_r key evaluated once per plan, released at its last use.

The oracle is cf_label_top called once per grid path, a plan of that one
label, summed in shuffle order: planned labels, base values and report rows
must equal it bit for bit (values bytes and structural-zero flag).
"""

import collections
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclekit.cechgroup as cg
import cocyclekit.cocycle as co
import cocyclekit.forms as fo
import cocyclekit.holomap as hm
from cocyclekit import cli
from cocyclekit.errors import SingularJacobianError
from cocyclekit.forms import signed_sum
from cocyclekit.invariants import todd_invariant
from cocyclekit.scenario import Scenario
import library as lib
from chart_labels import add_top_label, cf_label_top, chart_path
from conftest import holds_arrays, object_cell, per_cell
from path_labels import ReferencePaths

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
SHIPPED = sorted(p.name for p in SCENARIOS.glob("*.scn"))
# batch bounds: one key per batch, a bound that splits a map's keys of the shipped
# 8-12 point clouds (a 2-dimensional theta on 12 points is 96 entries) across
# batches, and the default
BOUNDS = [1, 256, fo.BATCH_ENTRIES]


def same_bits(got, want):
    return (got.structurally_zero == want.structurally_zero
            and got.values.shape == want.values.shape
            and got.values.tobytes() == want.values.tobytes())


def labeler_of(scn, *atlases):
    """The reference paths of a tau (one atlas) or a witness (two) of the scenario."""
    return ReferencePaths(scn.action, list(atlases), todd_invariant(scn.n))


def step_types(labeled, bd):
    """The path steps of a base value of tau or the witness (tau_invariant,
    cohomologous_witness): an edge step for the witness, then m Cech and q group steps."""
    m, q = bd
    return (cg.E_STEP,) * (labeled.name == "witness") + (cg.C_STEP,) * m + (cg.G_STEP,) * q


def per_path_cochain(labeled, paths):
    """The labeled cochain's twin whose base values sum cf_label_top once per path of
    the reference paths."""
    def provider(bd):
        def value(J, G, P):
            return signed_sum(paths.n, paths.T.arity, P, (
                (sign, cf_label_top(paths.simplex(J, G, seq, P), paths.T, P))
                for seq, sign in cg._shuffles(step_types(labeled, bd))))
        return per_cell(value, labeled.action)

    return cg.MixedCochain(labeled.cover, labeled.action, labeled.n, labeled.form_degree,
                           {bd: provider(bd) for bd in labeled.components},
                           name=labeled.name)


def base_cells(cochain):
    """(bidegree, J, G, cloud) of every nonempty cell of the cochain, J and G as id
    tuples, the cloud that of the cell's index set."""
    cells, sets = [], cochain.ids.sets
    for bd in cochain.bidegrees():
        J, G, S = cg.enumerate_cells(cochain.cover, cochain.action, *bd)
        cells += [(bd, tuple(j), tuple(g), cochain.cover.cloud(sets[s]))
                  for j, g, s in zip(J.tolist(), G.tolist(), S.tolist())]
    return cells


def closedness_pass(scn):
    """The result of the scenario's arity-n tau-closedness check, run alone."""
    scn.checks = [e for e in scn.checks
                  if e["type"] == "tau-closedness" and e.get("arity", scn.n) == scn.n]
    (result,) = cli.execute_checks(scn)
    return result


def test_each_theta_and_theta_r_key_is_evaluated_once_per_pass(monkeypatch):
    thetas, theta_rs = collections.Counter(), collections.Counter()
    theta_stage, theta_r_stage = co.LabelPlan._thetas, co.LabelPlan._theta_rs

    def counted_thetas(self, batch):
        thetas.update((self.chains.maps[p], X.tobytes()) for p, X, _ in batch)
        return theta_stage(self, batch)

    def counted_theta_rs(self, batch):
        maps = self.chains.maps
        theta_rs.update((maps[theta_key[0]], tuple(maps[m] for _, m, _ in reads), Q.tobytes())
                        for theta_key, Q, reads in batch)
        return theta_r_stage(self, batch)

    monkeypatch.setattr(co.LabelPlan, "_thetas", counted_thetas)
    monkeypatch.setattr(co.LabelPlan, "_theta_rs", counted_theta_rs)
    assert closedness_pass(Scenario.load(SCENARIOS / "cech_todd3.scn"))["status"] == "pass"
    assert thetas and set(thetas.values()) == {1}
    assert theta_rs and set(theta_rs.values()) == {1}


def recorded_plans(monkeypatch):
    """(plans, reads) of every LabelPlan the pass makes: the plans, and (plan, map,
    cloud) for every read of a Jacobian or inverse key counted."""
    plans, reads = [], []

    class Recorded(co.LabelPlan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

        def _add_jacobian(self, m, cid, inverse):
            reads.append((self, self.chains.maps[m], self._points[cid]))
            return super()._add_jacobian(m, cid, inverse)

    for module in (co, cg, cli):
        monkeypatch.setattr(module, "LabelPlan", Recorded)
    return plans, reads


def test_plans_hold_no_live_entry_after_a_pass(monkeypatch):
    plans, reads = recorded_plans(monkeypatch)
    scn = Scenario.load(SCENARIOS / "cech_todd3.scn")
    assert closedness_pass(scn)["status"] == "pass"
    # the plans read Jacobian and inverse keys, and hold none of them, nor any other key
    assert reads and plans and all(len(plan) == 0 and not plan._held for plan in plans)


@pytest.mark.parametrize("name", SHIPPED)
def test_planned_labels_equal_one_plan_per_label(name):
    scn = Scenario.load(SCENARIOS / name)
    tau = scn.tau(scn.atlas, scn.n)
    paths = labeler_of(scn, scn.atlas)
    plan = co.LabelPlan(paths.T, hm.ChainTable(paths.inverses))
    planned = []
    for bd, J, G, P in base_cells(tau):
        for seq, _ in cg._shuffles(step_types(tau, bd)):
            simplex = paths.simplex(*object_cell(scn.action, J, G), seq, P)
            planned.append((simplex, P, add_top_label(plan, simplex, P)))
    assert planned
    for simplex, P, key in planned:
        want = cf_label_top(simplex, paths.T, P)
        if key is None:
            assert want.structurally_zero
        else:
            assert same_bits(plan.take(key), want)
    assert len(plan) == 0


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("name", SHIPPED)
def test_planned_base_values_equal_per_path_sums(name, bound, monkeypatch):
    monkeypatch.setattr(fo, "BATCH_ENTRIES", bound)
    scn = Scenario.load(SCENARIOS / name)
    tau = scn.tau(scn.atlas, scn.n)
    cells = [cell + (0,) for cell in base_cells(tau)]
    twin = per_path_cochain(tau, labeler_of(scn, scn.atlas))
    for got, want in zip(tau.evaluate_all(cells), twin.evaluate_all(cells)):
        assert same_bits(got, want)


@pytest.mark.parametrize("bound", BOUNDS)
@pytest.mark.parametrize("name", SHIPPED)
def test_report_rows_equal_per_path_sums(name, bound, monkeypatch):
    monkeypatch.setattr(fo, "BATCH_ENTRIES", bound)
    scn = Scenario.load(SCENARIOS / name)
    tau = scn.tau(scn.atlas, scn.n)
    if scn.atlas_b is None:
        got = cg.closedness_report(tau, tol=1e-7)
        want = cg.closedness_report(per_path_cochain(tau, labeler_of(scn, scn.atlas)),
                                    tol=1e-7)
    else:
        tau_b = scn.tau(scn.atlas_b, scn.n)
        witness = cg.cohomologous_witness(scn.cover, scn.action, scn.atlas, scn.atlas_b,
                                          todd_invariant(scn.n))
        got = cg.witness_report(witness, tau, tau_b, tol=1e-7)
        want = cg.witness_report(
            per_path_cochain(witness, labeler_of(scn, scn.atlas_b, scn.atlas)),
            per_path_cochain(tau, labeler_of(scn, scn.atlas)),
            per_path_cochain(tau_b, labeler_of(scn, scn.atlas_b)), tol=1e-7)
    got, want = got.to_json(), want.to_json()
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert got["cells"]


def test_a_split_bound_splits_a_maps_keys_across_batches(monkeypatch):
    batches = collections.defaultdict(list)
    theta_stage = co.LabelPlan._thetas

    def recorded(self, batch):
        batches[(id(self), batch[0][0])].append(len(batch))
        return theta_stage(self, batch)

    monkeypatch.setattr(co.LabelPlan, "_thetas", recorded)
    monkeypatch.setattr(fo, "BATCH_ENTRIES", BOUNDS[1])
    assert closedness_pass(Scenario.load(SCENARIOS / "cech_todd3.scn"))["status"] == "pass"
    assert any(len(sizes) > 1 and max(sizes) > 1 for sizes in batches.values())


def run_inputs(tmp_path):
    """Paths of every shipped scenario and of the scenarios of both benchmark
    workloads at seed 2."""
    import workloads

    paths = sorted(SCENARIOS.glob("*.scn"))
    for workload in sorted(workloads.WORKLOADS):
        for name, text in workloads.scenario_texts(workload, 2, ROOT).items():
            path = tmp_path / ("%s-%s" % (workload, name))
            path.write_text(text, encoding="utf-8")
            paths.append(path)
    return paths


def test_a_run_leaves_no_plan_entry_and_no_map_value(monkeypatch, tmp_path):
    """A run of every shipped scenario and both benchmark workloads (seed 2) leaves
    every plan empty and no map holding arrays; every Jacobian or inverse a plan
    holds has the rows of the one real cloud of its key, never of a stack."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    plans, _ = recorded_plans(monkeypatch)
    maps, held = [], []
    init, evaluate = hm.HoloMap.__init__, co.LabelPlan._evaluate

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        maps.append(self)

    def recorded_evaluate(self, key):
        evaluate(self, key)
        for k, value in self._held.items():
            if k[0] in ("jacobian", "jacobian_inverse"):
                rows = [len(v) for v in (value if k[0] == "jacobian_inverse" else (value,))]
                held.append((k[0], len(self._points[k[2]]), rows))

    monkeypatch.setattr(hm.HoloMap, "__init__", recorded_init)
    monkeypatch.setattr(co.LabelPlan, "_evaluate", recorded_evaluate)
    kinds = set()
    for path in run_inputs(tmp_path):
        scn = Scenario.load(path)
        results = cli.execute_checks(scn)
        assert results and all(r["status"] == "pass" for r in results), path.name
        assert plans and all(len(plan) == 0 and not plan._held for plan in plans), path.name
        assert maps and not any(holds_arrays(m) for m in maps), path.name
        assert all(set(rows) == {n} for _, n, rows in held), path.name
        kinds.update(kind for kind, _, _ in held)
        for recorded in (plans, maps, held):
            recorded.clear()
    assert kinds == {"jacobian", "jacobian_inverse"}


def test_a_plan_runs_and_inverts_each_map_once_per_cloud(monkeypatch, tmp_path):
    """Over every shipped scenario and both benchmark workloads (seed 2): within one
    plan, each (named map, cloud bytes) is run through its Jacobian program at most
    once, and inverted at most once."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    runs = collections.defaultdict(collections.Counter)  # (plan, stage) -> (map, bytes)
    stages = {name: getattr(co.LabelPlan, name) for name in ("_jacobians", "_inverses")}

    def recorded(name):
        def stage(self, batch):
            runs[(self, name)].update((self.chains.maps[m], self._points[cid].tobytes())
                                      for _, m, cid in batch)
            return stages[name](self, batch)
        return stage

    for name in stages:
        monkeypatch.setattr(co.LabelPlan, name, recorded(name))
    for path in run_inputs(tmp_path):
        scn = Scenario.load(path)
        assert all(r["status"] == "pass" for r in cli.execute_checks(scn)), path.name
    assert {name for _, name in runs} == set(stages)
    for (_, name), counts in runs.items():
        assert set(counts.values()) == {1}, name


MAPS = {
    2: [lib.henon_map(), lib.henon_inverse(), lib.shear_map(), lib.shear_inverse(),
        lib.mobius_like_map(), lib.identity_map(2),
        lib.affine_map([[2, 1], [1, 1]], [0, 1], name="affine")],
    3: [hm.parse_map(text, 3) for text in (
        "z1 + z2^2; z2; z3", "z1; z2 + z3^2; z3", "z1; z2; z3 + z1^2", "z2; z1; z3 + z1*z2",
        "z1 + z3^2; z2 - z1^2; z3", "z1; z2; z3")],
}


@st.composite
def chart_paths(draw):
    """(n, clouds of unequal sizes, [(chart path, cloud index)], take order): chart
    paths (chart_labels.ChartPath) of level n over a few shared maps and two top
    charts, so keys and batches repeat across paths."""
    n = draw(st.sampled_from(sorted(MAPS)))
    pool = st.sampled_from(MAPS[n])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3, unique=True))
    clouds = [0.3 * (rng.uniform(-1, 1, (N, n)) + 1j * rng.uniform(-1, 1, (N, n)))
              for N in sizes]
    simplices = []
    for _ in range(draw(st.integers(1, 10))):
        c = draw(st.integers(0, len(clouds) - 1))
        top = draw(st.sampled_from(MAPS[n][:2]))
        top = (top, MAPS[n][2]) if draw(st.booleans()) else (top,)
        charts = [(draw(pool),) for _ in range(n)] + [top]
        transitions = {(p, q): (draw(pool),) for q in range(n + 1) for p in range(q)}
        simplices.append((chart_path(charts, transitions, clouds[c]), c))
    return n, clouds, simplices, draw(st.permutations(range(len(simplices))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(chart_paths())
def test_batched_labels_equal_one_plan_per_label_at_every_bound(case):
    n, clouds, simplices, order = case
    T = todd_invariant(n)
    want = [cf_label_top(s, T, clouds[c]) for s, c in simplices]
    for bound in BOUNDS[:1] + [2 * max(len(P) for P in clouds) * n ** 3] + BOUNDS[2:]:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fo, "BATCH_ENTRIES", bound)
            plan = co.LabelPlan(T)
            keys = [add_top_label(plan, s, clouds[c]) for s, c in simplices]
            for i in order:
                got = (fo.SampledForm.zeros(n, n, clouds[simplices[i][1]], ())
                       if keys[i] is None else plan.take(keys[i]))
                assert same_bits(got, want[i]), (bound, i)
            assert len(plan) == 0


def singular_setup():
    """Three charts on one cloud with a point on z1 = 0, where sq1 is singular."""
    pts = [(0.3 + 0.1j, 0.5 - 0.2j), (0.0, 0.5 + 0.1j), (-0.2 + 0.3j, 0.4 + 0.2j)]
    indices = ["a", "b", "c"]
    cover = cg.CoverSpec(indices, {frozenset(s): np.array(pts) for s in
                                   (["a"], ["b"], ["c"], ["a", "b"], ["a", "c"], ["b", "c"],
                                    ["a", "b", "c"])}, 2)
    ident = lib.identity_map(2)
    sq2 = hm.HoloMap(2, [hm.ex.Var(1), hm.ex.pow_(hm.ex.Var(2), 2)], name="sq2")
    atlas = cg.Atlas({"a": (ident, ident), "b": (lib.diagonal_square_map(), ident),
                      "c": (sq2, ident)})
    return cover, cg.trivial_action(indices, 2), atlas


def test_singular_jacobian_in_a_planned_theta_r_raises_on_every_check():
    cover, action, atlas = singular_setup()
    tau = cg.tau_invariant(cover, action, atlas, todd_invariant(2))
    errors = []
    for _ in range(2):
        with pytest.raises(SingularJacobianError) as err:
            cg.closedness_report(tau, tol=1e-7)
        errors.append(err.value)
    assert errors[0].point[0] == 0 and errors[0].point == errors[1].point
    assert str(errors[0]) == str(errors[1])


def test_an_error_after_a_shared_key_leaves_every_count_whole():
    # two level-3 labels share their theta_1 and theta_3 keys; the second one's
    # theta_2 transition is singular where z1 = 0, after theta_1 has been read
    P = [(0.3 + 0.1j, 0.2, 0.1j), (0.0, 0.4, 0.2), (-0.1, 0.3j, 0.5)]
    ident = lib.identity_map(3)
    s1, s2, s3, s4, sq = (hm.parse_map(text, 3) for text in (
        "z1 + z2^2; z2; z3", "z1; z2 + z3^2; z3", "z1; z2; z3 + z1^2", "z1 + z3^2; z2; z3",
        "z1^2; z2; z3"))

    def simplex(t12):
        transitions = {(0, 1): (s1,), (0, 2): (ident,), (0, 3): (ident,), (1, 2): (t12,),
                       (1, 3): (s4,), (2, 3): (s3,)}
        return chart_path([(ident,)] * 4, transitions, P)

    plan = co.LabelPlan(todd_invariant(3))
    good, bad = add_top_label(plan, simplex(s2), P), add_top_label(plan, simplex(sq), P)
    assert same_bits(plan.take(good), cf_label_top(simplex(s2), plan.T, P))
    for _ in range(2):
        with pytest.raises(SingularJacobianError) as err:
            plan.take(bad)
        assert err.value.point == (0, 0.4, 0.2)
