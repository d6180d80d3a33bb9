"""Composite maps as chains of named maps (holomap.ChainTable).

The pass never composes two maps into a new expression: a transition is a
chain, and the label plan evaluates theta of a chain from its pieces by the
composition rule. The oracle here is the symbolic composite (holomap.compose),
differentiated as one map.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclekit.cechgroup as cg
import cocyclekit.cocycle as co
import cocyclekit.holomap as hm
import library as lib
import map_values as mv
import sampled_forms as sf
from chart_labels import COHERENCE_TOL, chart_path, entry_path, plan_theta, theta_r, validate
from cocyclekit import cli
from cocyclekit.errors import DomainError, ValidationError
from cocyclekit.invariants import todd_invariant
from cocyclekit.scenario import Scenario
from conftest import word_composite
from free_words import Chain, Word
from test_batched import assert_close

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEEDS = (2, 3, 7)
MAPS, CLOUDS, PAIRS = lib.builtin_library()


def simplex_of(f01, f12, f02, P):
    """A level-2 chart path whose theta_r read only its transitions; the charts are
    identities on the cloud P."""
    ident = lib.identity_map(2)
    return chart_path([(ident,)] * 3, {(0, 1): f01, (1, 2): f12, (0, 2): f02}, P)


def composite(pieces):
    """The symbolic composite of maps, outermost first."""
    m = pieces[-1]
    for p in reversed(pieces[:-1]):
        m = hm.compose(p, m)
    return m


def assert_theta_rs_match(chains, P):
    """theta_1 and theta_2 of a simplex of chains against the simplex of their composites:
    equal values, and the chain structurally zero wherever the composite is."""
    got = simplex_of(*[tuple(c) for c in chains], P)
    want = simplex_of(*[(composite(c),) for c in chains], P)
    for r in (1, 2):
        a, b = theta_r(got, r, P), theta_r(want, r, P)
        assert a.structurally_zero >= b.structurally_zero
        assert_close(a.values, b.values)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(PAIRS), min_size=3, max_size=3), st.integers(1, 12))
def test_library_chains_match_their_symbolic_composites(pairs, count):
    P = CLOUDS["henon"][:count]
    assert_theta_rs_match([[MAPS[f], MAPS[g]] for f, g in pairs], P)


LETTERS = [("h", 1), ("h", -1), ("s", 1), ("s", -1)]


def group_witness(seed, tmp_path):
    import workloads

    path = tmp_path / "group-witness.scn"
    path.write_text(json.dumps(workloads.group_witness(seed)), encoding="utf-8")
    return Scenario.load(path)


@pytest.mark.parametrize("seed", SEEDS)
def test_group_witness_word_chains_match_their_symbolic_composites(seed, tmp_path,
                                                                   monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    scn = group_witness(seed, tmp_path)
    action, P = scn.action, scn.cover.cloud(("u",))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.sampled_from(LETTERS), min_size=1, max_size=4),
                    min_size=3, max_size=3))
    def words_match(letters):
        words = [Word(w) for w in letters]
        if any(w.is_identity() for w in words):
            return
        got = simplex_of(*[mv.word_chain(action, w).pieces for w in words], P)
        want = simplex_of(*[(word_composite(action, w),) for w in words], P)
        for r in (1, 2):
            a, b = theta_r(got, r, P), theta_r(want, r, P)
            # a chain may be found zero where symbolic folding misses it (h^-1 s h^-1 s
            # is the affine fold of h^-1 s, twice), never the other way round
            assert a.structurally_zero >= b.structurally_zero
            assert_close(a.values, b.values)

    words_match()


def test_chains_drop_identity_pieces_and_declared_inverse_pairs():
    h, h_inv, s, s_inv = lib.henon_map(), lib.henon_inverse(), lib.shear_map(), lib.shear_inverse()
    ident = hm.parse_map("z1; z2", 2, name="ident")
    pairs = hm.inverse_pairs([(h, h_inv), (s, s_inv)])
    table, bare = hm.ChainTable(pairs), hm.ChainTable()

    def chain(t, maps):
        """Id of the chain of the named maps `maps` in the table t."""
        return t.chain(tuple(map(t.map, maps)))

    def pieces(t, maps):
        """The named maps of that chain, reduced."""
        return tuple(t.maps[p] for p in t.chains[chain(t, maps)])

    assert pieces(table, [ident, h, ident]) == (h,)
    assert pieces(table, [h, h_inv]) == ()
    assert pieces(table, [h_inv, h]) == ()
    # drops cascade, as in a reduced word, and an identity between a pair is no barrier
    assert pieces(table, [s, h, ident, h_inv, s_inv, h]) == (h,)
    # only declared pairs are dropped
    assert pieces(bare, [h, h_inv]) == (h, h_inv)
    assert pieces(table, [h, s_inv]) == (h, s_inv)
    # equal pieces make one chain id; the identity chain is id 0, and affine, so its
    # theta vanishes
    assert chain(table, [h, ident]) == chain(table, [h])
    assert chain(bare, [ident, s]) == chain(bare, [s])
    assert chain(table, [h, h_inv]) == chain(table, []) == 0
    assert table.is_affine(0) and not table.is_affine(chain(table, [h]))
    # the table reduces as the reference chain does
    for maps in ([ident, h, ident], [s, h, ident, h_inv, s_inv, h], [h, s_inv, s, h_inv]):
        assert pieces(table, maps) == Chain(maps, 2, pairs).pieces
    empty = Chain([h, h_inv], 2, pairs)
    assert empty.pieces == () and empty.is_affine()
    P = CLOUDS["henon"][:3]
    assert mv.image(empty, P).tobytes() == P.tobytes()
    assert np.array_equal(mv.jacobian(empty, P), np.broadcast_to(np.eye(2), (3, 2, 2)))


def test_transitions_are_chains_of_named_maps():
    scn = Scenario.load(ROOT / "scenarios" / "henon_z.scn")
    labeler = cg.PathLabeler(scn.cover, scn.action, [scn.atlas], todd_invariant(2))
    h, h_inv = scn.action.generators["h"]
    ids = scn.action.ids()
    u = ids.index(scn.cover.indices[0])
    e, hw = Word(), Word.gen("h")
    eu, hu = (labeler.vertex(0, u, ids.word(w.letters)) for w in (e, hw))

    def pieces(va, vb):
        return tuple(labeler.chains.maps[p]
                     for p in labeler.chains.chains[labeler.transition(va, vb)])

    # nothing moves: the chart meets its own inverse, and the chain is the identity
    assert labeler.transition(hu, hu) == 0 and pieces(hu, hu) == ()
    # the letters of ta tb^-1 between the chart and the inverse, ident dropped
    assert pieces(hu, eu) == (h,)
    assert pieces(eu, hu) == (h_inv,)
    # each transition is built once: asked again, it is the same id
    assert labeler.transition(hu, eu) == labeler.transition(hu, eu) != labeler.transition(eu, hu)
    assert mv.word_chain(scn.action, hw * hw).pieces == (h, h)


def test_an_affine_letter_pair_is_one_folded_piece():
    # henon^-1 . shear = (c - z2, z1) is affine: a relation of the action, found
    # by symbolic composition once per letter pair, keeps its labels exactly zero
    h, h_inv, s, s_inv = lib.henon_map(), lib.henon_inverse(), lib.shear_map(), lib.shear_inverse()
    action = cg.GroupActionSpec({"h": (h, h_inv), "s": (s, s_inv)},
                                {"h": {"u": "u"}, "s": {"u": "u"}}, ["u"])
    (piece,) = mv.word_chain(action, Word([("h", -1), ("s", 1)])).pieces
    assert piece.is_affine() and piece is action.fold(h_inv, s)
    assert mv.word_chain(action, Word([("h", -1), ("s", 1), ("h", 1)])).pieces == (piece, h)
    assert action.fold(h, s) is None
    assert mv.word_chain(action, Word([("h", 1), ("s", 1)])).pieces == (h, s)


def structural_zeros(scns, monkeypatch):
    """Path and face labels found structurally zero (label_vanishes) in one cold pass."""
    count = [0]
    vanishes = co.label_vanishes

    def counted(T, n, ladder, chains):
        zero = vanishes(T, n, ladder, chains)
        count[0] += zero
        return zero

    with monkeypatch.context() as m:
        m.setattr(co, "label_vanishes", counted)
        m.setattr(cg, "label_vanishes", counted)
        for scn in scns:
            assert all(r["status"] == "pass" for r in cli.execute_checks(scn))
    return count[0]


# Structurally zero labels per cold pass, as the symbolic composites found them;
# witness_reparam has 4 more (40 with composites): its two atlases share the
# chart square with its inverse square_inv, a declared pair that a chain drops,
# while the composite square . square_inv does not fold symbolically. The
# arity-1 rows of cech_todd3 and witness_reparam add 3 and 8 to their 15 and 44.
SHIPPED_ZEROS = {"affine_torus.scn": 80, "cech_todd3.scn": 15 + 3, "henon_z.scn": 15,
                 "witness_reparam.scn": 44 + 8}
WORKLOAD_ZEROS = {"todd3-cech": 148, "mixed-checks": 145}


@pytest.mark.parametrize("name", sorted(SHIPPED_ZEROS))
def test_structural_zeros_of_shipped_scenarios(name, monkeypatch):
    scn = Scenario.load(ROOT / "scenarios" / name)
    assert structural_zeros([scn], monkeypatch) == SHIPPED_ZEROS[name]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(WORKLOAD_ZEROS))
def test_structural_zeros_of_the_benchmark_workloads(workload, seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    paths = workloads.write_scenarios(workload, seed, ROOT, tmp_path)
    scns = [Scenario.load(p) for p in paths]
    assert structural_zeros(scns, monkeypatch) == WORKLOAD_ZEROS[workload]


def theta_composition_case(source, tmp_path):
    """The scenario and theta-composition entry of chart-kernel at a seed, or of a file."""
    if isinstance(source, int):
        import workloads

        path = tmp_path / "chart-kernel.scn"
        path.write_text(json.dumps(workloads.chart_kernel(source)), encoding="utf-8")
    else:
        path = ROOT / source
    scn = Scenario.load(path)
    return scn, next(c for c in scn.checks if c["type"] == "theta-composition")


@pytest.mark.parametrize("source", SEEDS + ("tests/every_check_field.scn",))
def test_theta_composition_sides_equal_the_one_map_references(source, tmp_path, monkeypatch):
    # both sides of the check through the label plan, bit for bit against theta, the
    # sharp pullback and the sum of one map at a time; the plan holds nothing after
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    scn, entry = theta_composition_case(source, tmp_path)
    P = entry["points"]
    for fname, gname in entry["pairs"]:
        f, g = scn.maps[fname], scn.maps[gname]
        plan = co.LabelPlan(None)
        table = plan.chains
        lhs = plan_theta(plan, table.chain((table.map(hm.compose(f, g)),)), 0, P)
        rhs = plan_theta(plan, table.chain((table.map(f), table.map(g))), 0, P)
        assert len(plan) == 0 and not plan._held
        want = sf.add(sf.sharp_pullback(g, sf.theta(f, g.eval(P)), P), sf.theta(g, P))
        assert lhs.values.tobytes() == sf.theta(hm.compose(f, g), P).values.tobytes()
        assert rhs.values.tobytes() == want.values.tobytes(), (fname, gname)


def per_pair_theta_composition(scn, entry):
    """The theta-composition check with one label plan per pair, the pairs one after
    another: (residuals, None), or (None, the error of the first pair that raises)
    as a check result reports it."""
    P, table, residuals = entry["points"], hm.ChainTable(), []
    try:
        for fname, gname in entry["pairs"]:
            f, g = scn.maps[fname], scn.maps[gname]
            plan = co.LabelPlan(None, table)
            lhs = plan_theta(plan, table.chain((table.map(hm.compose(f, g)),)), 0, P)
            rhs = plan_theta(plan, table.chain((table.map(f), table.map(g))), 0, P)
            residuals.append(float(np.max(np.abs(lhs.values - rhs.values)))
                             / (1.0 + lhs.max_abs()))
    except DomainError as err:
        return None, "%s: %s" % (type(err).__name__, err)
    return residuals, None


@pytest.mark.parametrize("source", SEEDS + ("tests/every_check_field.scn",))
def test_one_plan_theta_composition_equals_a_plan_per_pair(source, tmp_path, monkeypatch):
    # the check counts every pair in one plan: its residuals are those of a plan per
    # pair, bit for bit, and it evaluates theta of a map on a cloud once, the thetas
    # of one map in one batch
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    scn, entry = theta_composition_case(source, tmp_path)
    want, error = per_pair_theta_composition(scn, entry)
    assert error is None
    batches = []
    thetas = co.LabelPlan._thetas

    def recorded(plan, batch):
        batches.append([(p, xid) for p, _, xid in batch])
        return thetas(plan, batch)

    monkeypatch.setattr(co.LabelPlan, "_thetas", recorded)
    held, fields = cli.run_theta_composition(scn, entry)
    assert held and [row["residual"] for row in fields["pairs"]] == want
    keys = [key for batch in batches for key in batch]
    assert len(keys) == len(set(keys))
    maps = [batch[0][0] for batch in batches]
    assert len(maps) == len(set(maps))


# maps that raise on the points below: cube and cube2 have singular Jacobians where
# z1 = 0 and where z2 = 0, so their theta raises when it is taken; recip has a pole
# where z1 = 0, so a chain through it raises when it is counted, at its image
RAISING_MAPS = {"cube": {"components": "z1^3; z2"}, "cube2": {"components": "z1; z2^3"},
                "recip": {"components": "1/z1; z2"}}
RAISING_POINTS = [[[0.1, 0.2], [0.3, -0.1]], [[0.0, 0.0], [0.2, 0.1]],
                  [[0.3, 0.1], [0.0, 0.0]]]


def raising_scenario(tmp_path, pairs):
    data = json.loads((ROOT / "scenarios" / "henon_z.scn").read_text(encoding="utf-8"))
    data["maps"].update(RAISING_MAPS)
    data["checks"] = [{"name": "th", "type": "theta-composition", "pairs": pairs,
                       "points": RAISING_POINTS}]
    path = tmp_path / "raising.scn"
    path.write_text(json.dumps(data), encoding="utf-8")
    return Scenario.load(path)


@pytest.mark.parametrize("pairs", [
    [["henon", "shear"], ["cube", "shear"], ["cube2", "ident"]],
    [["henon", "shear"], ["cube2", "ident"], ["cube", "shear"]],
    [["henon", "shear"], ["cube", "shear"], ["henon", "recip"]],
    [["henon", "shear"], ["henon", "recip"], ["cube", "shear"]],
    [["henon", "recip"], ["cube2", "ident"]],
], ids=["taken-taken", "taken-taken-swapped", "taken-counted", "counted-taken", "counted-first"])
def test_one_plan_theta_composition_reports_the_first_failing_pair(tmp_path, pairs):
    # two pairs raise: the check reports the error of the earlier one, as with a plan
    # per pair, also when the later one raises while it is counted, before any take
    scn = raising_scenario(tmp_path, pairs)
    _, want = per_pair_theta_composition(scn, scn.checks[0])
    assert want is not None
    result, = cli.execute_checks(scn)
    assert result["status"] == "error" and result["error"] == want
    first = next(i for i, pair in enumerate(pairs) if pair[0] != "henon" or pair[1] != "shear")
    alone = dict(scn.checks[0], pairs=[pairs[first]])
    assert per_pair_theta_composition(scn, alone)[1] == want


def test_a_count_time_error_of_any_type_waits_for_its_pair(tmp_path, monkeypatch):
    # an error that is no ValueError, raised while a later pair is counted, still
    # comes after the take-time error of an earlier pair
    scn = raising_scenario(tmp_path, [["henon", "shear"], ["cube", "shear"],
                                      ["ident", "ident"]])
    _, want = per_pair_theta_composition(scn, dict(scn.checks[0],
                                                   pairs=[["cube", "shear"]]))
    assert want is not None
    named = scn.map_named

    def map_named(name, location):
        if name == "ident":
            raise RuntimeError("no map for this pair")
        return named(name, location)

    monkeypatch.setattr(scn, "map_named", map_named)
    result, = cli.execute_checks(scn)
    assert result["status"] == "error" and result["error"] == want
    alone = dict(scn.checks[0], pairs=[["ident", "ident"]])
    with pytest.raises(RuntimeError):
        cli.run_theta_composition(scn, alone)


def test_validate_keeps_a_nan_deviation():
    s = chart_path([(lib.identity_map(2),), (lib.shear_map(),)],
                   {(0, 1): (lib.shear_inverse(),)}, np.array([[0.1, 0.2], [np.nan, 0.3]]))
    with pytest.raises(ValidationError, match="nan"):
        validate(s)


def test_a_chain_transition_validates_like_its_symbolic_composite(tmp_path):
    charts = [{"chart": c, "inverse": i} for c, i in
              (("ident", "ident"), ("shear", "shear_inv"), ("henon", "henon_inv"))]
    data = json.loads((ROOT / "scenarios" / "henon_z.scn").read_text(encoding="utf-8"))
    points = [[[0.1 * k, 0.05], [0.2, -0.03 * k]] for k in range(9)]
    data["checks"] = [{"type": "telescoping", "charts": charts, "source_points": points},
                      {"type": "telescoping", "charts": charts, "source_points": points,
                       "corrupt": {"replace": [0, 2], "with_map": "henon"}}]
    path = tmp_path / "simplex.scn"
    path.write_text(json.dumps(data), encoding="utf-8")
    scn = Scenario.load(path)
    good, bad = (entry_path(entry) for entry in scn.checks)
    assert good.transitions[1, 2] == (scn.maps["shear"], scn.maps["henon_inv"])
    assert bad.transitions[0, 2] == (scn.maps["henon"],)
    symbolic = chart_path(good.charts, {pq: (composite(list(t)),)
                                        for pq, t in good.transitions.items()},
                          good.source_points)
    assert validate(good) == pytest.approx(validate(symbolic), abs=1e-15)
    assert validate(good) < COHERENCE_TOL
    with pytest.raises(ValidationError, match="incoherent"):
        validate(bad)
