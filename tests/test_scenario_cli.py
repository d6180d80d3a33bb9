import io
import json
import math
import os
import pathlib
import subprocess
import sys

import types

import numpy as np
import pytest

import cocyclekit.cli as cli
import cocyclekit.cocycle as co
import cocyclekit.scenario as scenario_mod
from cocyclekit.bm import reproducing_integral
from cocyclekit.cli import CHECK_RUNNERS, MAX_SYMFUN_DEGREE, main
from cocyclekit.errors import ScenarioError
from cocyclekit.forms import SampledForm
from cocyclekit.invariants import POWER, SymFun, newton_convert, todd_invariant
from cocyclekit.scenario import Scenario
from chart_labels import cf_label_top, entry_path, sub_simplex

REPO = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"


def load_scn(name):
    return json.loads((SCENARIOS / name).read_text())


def write_scn(tmp_path, data, name="case.scn"):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_shipped_scenarios_validate():
    for name in ("affine_torus.scn", "henon_z.scn", "cech_todd3.scn",
                 "witness_reparam.scn"):
        Scenario.load(SCENARIOS / name)


@pytest.mark.parametrize("name, check", [("cech_todd3.scn", "cech-closed"),
                                         ("witness_reparam.scn", "witness-matches")])
def test_the_arity_1_rows_kill_transposed_jacobian_minors(name, check, monkeypatch):
    def checked():
        return {r["name"]: r for r in cli.execute_checks(Scenario.load(SCENARIOS / name))}

    minors = co.jacobian_minors
    clean = checked()
    monkeypatch.setattr(co, "jacobian_minors",
                        lambda J, k: np.swapaxes(minors(J, k), -1, -2))
    mutant = checked()
    # at arity n = 2 the one minor is the determinant, which the transpose keeps
    assert clean[check]["status"] == mutant[check]["status"] == "pass"
    assert clean[check + "-arity1"]["status"] == "pass"
    assert clean[check + "-arity1"]["max_residual"] < 1e-14
    assert mutant[check + "-arity1"]["status"] == "fail"
    assert mutant[check + "-arity1"]["max_residual"] > 0.1


def test_undefined_map_name_is_reported(tmp_path):
    data = load_scn("henon_z.scn")
    data["atlas"]["u"]["chart"] = "nonexistent"
    with pytest.raises(ScenarioError) as err:
        Scenario.load(write_scn(tmp_path, data))
    assert "nonexistent" in str(err.value)


def test_unknown_check_type_rejected(tmp_path):
    data = load_scn("henon_z.scn")
    data["checks"].append({"type": "frobnicate"})
    with pytest.raises(ScenarioError):
        Scenario.load(write_scn(tmp_path, data))


def test_nonpositive_tolerance_rejected(tmp_path):
    data = load_scn("henon_z.scn")
    data["checks"][0]["tolerance"] = 0
    with pytest.raises(ScenarioError):
        Scenario.load(write_scn(tmp_path, data))


def test_syntax_error_in_map_names_location(tmp_path):
    data = load_scn("henon_z.scn")
    data["maps"]["broken"] = {"components": "z1 +; z2"}
    with pytest.raises(ScenarioError) as err:
        Scenario.load(write_scn(tmp_path, data))
    assert "maps/broken" in str(err.value)


def test_run_exit_codes(tmp_path, capsys):
    ok = main(["run", str(SCENARIOS / "affine_torus.scn"),
               "--output", str(tmp_path / "r.json")])
    assert ok == 0
    assert main(["run", str(tmp_path / "missing.scn")]) == 2
    # a failing negative-control check: corrupt coherence expected to pass
    data = load_scn("cech_todd3.scn")
    data["checks"] = [{
        "type": "telescoping", "name": "will-fail", "tolerance": 1e-7,
        "charts": [{"chart": "ident", "inverse": "ident"},
                   {"chart": "shear", "inverse": "shear_inv"},
                   {"chart": "henon", "inverse": "henon_inv"},
                   {"chart": "shear3", "inverse": "shear3_inv"}],
        "source_points": [[[0.1, 0.2], [0.3, -0.1]]] * 9,
        "corrupt": {"replace": [0, 2], "with_map": "henon"},
    }]
    assert main(["run", write_scn(tmp_path, data),
                 "--output", str(tmp_path / "r2.json")]) == 1
    report = json.loads((tmp_path / "r2.json").read_text())
    assert report["checks"][0]["status"] == "fail"
    # same corrupted scenario, declared as a negative control
    data["checks"][0]["expect"] = "fail"
    data["checks"][0]["name"] = "negative-control"
    assert main(["run", write_scn(tmp_path, data),
                 "--output", str(tmp_path / "r3.json")]) == 0


def test_report_deterministic_modulo_timing(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["run", str(SCENARIOS / "henon_z.scn"), "--output", str(out1)])
    main(["run", str(SCENARIOS / "henon_z.scn"), "--output", str(out2)])

    def strip(path):
        payload = json.loads(path.read_text())
        for check in payload["checks"]:
            check.pop("seconds", None)
        return payload

    assert strip(out1) == strip(out2)


def test_checks_report_in_declaration_order(tmp_path):
    data = load_scn("affine_torus.scn")
    data["checks"].reverse()
    out = tmp_path / "r.json"
    assert main(["run", write_scn(tmp_path, data), "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    assert [c["name"] for c in report["checks"]] == ["closed", "affine-zero"]


def test_tau_built_once_per_atlas_per_run(tmp_path, monkeypatch):
    """Closedness and witness checks share one tau per atlas; a reload starts cold."""
    built = []
    real = scenario_mod.tau_invariant

    def recording(cover, action, atlas, T, transitions, base):
        # no entry overrides a transition, so no tau reads another's values
        assert not transitions and base is None
        built.append(atlas.chart("q").name)
        return real(cover, action, atlas, T, transitions, base)

    monkeypatch.setattr(scenario_mod, "tau_invariant", recording)
    data = load_scn("witness_reparam.scn")
    data["checks"].insert(0, {"name": "closed", "type": "tau-closedness",
                              "tolerance": 1e-7})
    path = write_scn(tmp_path, data)
    for run in range(2):
        built.clear()
        out = tmp_path / ("r%d.json" % run)
        assert main(["run", path, "--output", str(out)]) == 0
        # atlas, then atlas_b, once per arity: 2, then the arity-1 witness
        assert built == ["henon", "henon_shear3"] * 2
        report = json.loads(out.read_text())
        assert [c["name"] for c in report["checks"]] == ["closed", "witness-matches",
                                                         "witness-matches-arity1"]


def test_a_corrupt_simplex_tau_reads_the_clean_one_whichever_runs_first(tmp_path, monkeypatch):
    # chart-kernel at seed 2, its corrupt control last and first: two taus are built,
    # the corrupt one over the clean one, and every result is the same
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import workloads

    built = []
    real = scenario_mod.tau_invariant

    def recording(cover, action, atlas, T, transitions, base):
        tau = real(cover, action, atlas, T, transitions, base)
        built.append((bool(transitions), base, tau))
        return tau

    monkeypatch.setattr(scenario_mod, "tau_invariant", recording)
    data = workloads.chart_kernel(2)
    simplex = [c for c in data["checks"] if c["type"] == "telescoping"]
    assert [c["name"] for c in simplex] == ["telescoping", "telescoping-corrupt"]
    reports = []
    for order in (data["checks"], simplex[::-1] + [c for c in data["checks"]
                                                    if c not in simplex]):
        built.clear()
        out = tmp_path / "r.json"
        assert main(["run", write_scn(tmp_path, dict(data, checks=order)), "--output",
                     str(out)]) == 0
        clean, corrupt = sorted(built, key=lambda b: b[0])
        assert len(built) == 2 and clean[1] is None and corrupt[1] is clean[2]
        results = {c.pop("name"): c for c in json.loads(out.read_text())["checks"]}
        for c in results.values():
            c.pop("seconds")
        reports.append(results)
    assert reports[0] == reports[1]
    corrupt = reports[0]["telescoping-corrupt"]
    assert corrupt["status"] == "pass" and corrupt["max_residual"] == 0.16666666666666674


@pytest.mark.parametrize("command", ["todd-cocycle", "verify-cocycle", "group-invariant"])
def test_tau_subcommands_without_atlas_exit_2(tmp_path, capsys, command):
    data = load_scn("henon_z.scn")
    for key in ("cover", "action", "atlas"):
        data.pop(key)
    data["checks"] = []
    assert main([command, write_scn(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert "no cover/atlas" in err and "Traceback" not in err


def _set(path, value):
    """Edit that replaces the value at `path`, a sequence of keys and list indices."""
    def edit(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return edit


# a chart-simplex check over maps henon_z.scn defines
TELESCOPING = {"type": "telescoping", "tolerance": 1e-7,
               "charts": [{"chart": "ident", "inverse": "ident"},
                          {"chart": "shear", "inverse": "shear_inv"},
                          {"chart": "henon", "inverse": "henon_inv"}],
               "source_points": [[[0.1, 0.2], [0.3, -0.1]]] * 9}


def _append_check(entry):
    return lambda data: data["checks"].append(entry)


@pytest.mark.parametrize("edit, location", [
    (_set(["dimension"], "two"), "dimension"),
    (_set(["dimension"], 0), "dimension"),
    (_set(["cover", "clouds", 0, "points", 0, 0], ["x", 0]), "cover"),
    (_set(["cover"], []), "cover"),
    (_set(["atlas"], []), "atlas"),
    (_set(["atlas", "u"], "chart"), "atlas/u"),
    (_set(["checks", 0, "arity"], "3"), "checks[0]"),
    (_set(["checks", 0, "arity"], 0), "checks[0]"),
    (_set(["checks", 0, "tolerance"], True), "checks[0]"),
    (_set(["constants"], []), "constants"),
    (_set(["maps"], []), "maps"),
    (_set(["cover", "clouds", 0], "u"), "cover/clouds[0]"),
    (_set(["action", "generators", 0], "h"), "action/generators[0]"),
    (_set(["checks", 0], "tau-closedness"), "checks[0]"),
    (_set(["atlas", "u", "chart"], ["ident"]), "atlas/u"),
    (_set(["checks", 0, "name"], ["closed"]), "checks[0]"),
    (_set(["action", "generators", 0, "index_action"], ["u"]), "action/h/index_action"),
    (_set(["checks"], {}), "checks"),
    (_set(["action", "words", 0], "h"), "action/words[0]"),
    (_set(["action", "words", 0], [1]), "action/words[0]"),
    (_append_check(dict(TELESCOPING, charts=["ident", "shear", "henon"])), "checks[1]"),
    (_append_check(dict(TELESCOPING, corrupt=[[0, 2], "henon"])), "checks[1]"),
    (_append_check(dict(TELESCOPING, charts=TELESCOPING["charts"][:1])), "checks[1]"),
    (_append_check(dict(TELESCOPING, source_points=[])), "checks[1]"),
    (_append_check({k: v for k, v in TELESCOPING.items() if k != "charts"}), "checks[1]"),
    (_append_check(dict(TELESCOPING, charts=TELESCOPING["charts"][:2])), "checks[1]"),
    (_append_check(dict(TELESCOPING, arity=3)), "checks[1]"),
    (_append_check(dict(TELESCOPING, arity=1, charts=TELESCOPING["charts"] * 2)), "checks[1]"),
    (_append_check(dict(TELESCOPING, type="dk-validate", charts=TELESCOPING["charts"][:2])),
     "checks[1]"),
    (_append_check(dict(TELESCOPING, type="dk-validate", arity=2)), "checks[1]"),
    (_append_check(dict(TELESCOPING, type="dk-validate", arity=3,
                        charts=TELESCOPING["charts"] * 2)), "checks[1]"),
    (_set(["atlas", "u", "inverse"], "shear_inv"), "atlas/u"),
    (_set(["atlas_b"], {"u": {"chart": "henon", "inverse": "shear_inv"}}), "atlas_b/u"),
    (_set(["action", "generators", 0, "inverse"], "shear_inv"), "action/h"),
], ids=["dimension-string", "dimension-zero", "coordinate-string", "cover-list",
        "atlas-list", "atlas-entry-string", "arity-string", "arity-zero",
        "tolerance-bool", "constants-list", "maps-list", "cloud-string",
        "generator-string", "check-string", "chart-list", "check-name-list",
        "index-action-list", "checks-object", "word-string", "word-letter-number",
        "simplex-chart-string", "corrupt-list", "one-chart", "no-source-points",
        "no-charts", "telescoping-two-charts", "telescoping-arity-above-dimension",
        "telescoping-charts-beyond-arity", "dk-two-charts", "dk-no-cell-above-arity",
        "dk-arity-above-dimension", "atlas-round-trip", "atlas-b-round-trip",
        "generator-round-trip"])
def test_bad_scenario_type_exits_2_with_location(tmp_path, capsys, edit, location):
    data = load_scn("henon_z.scn")
    edit(data)
    assert main(["run", write_scn(tmp_path, data), "--output", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert location in err and "Traceback" not in err


@pytest.mark.parametrize("name, entry", [
    ("henon_z.scn", {"type": "affine-vanishing", "arity": 3}),
    ("henon_z.scn", {"type": "tau-closedness", "arity": 3}),
    ("henon_z.scn", {"type": "tau-closedness", "arity": 3, "tolerance": 1e-300,
                     "expect": "fail"}),
    ("witness_reparam.scn", {"type": "witness", "arity": 3}),
], ids=["affine-vanishing", "tau-closedness", "tau-closedness-control", "witness"])
def test_an_arity_above_the_dimension_exits_2_naming_the_check(tmp_path, capsys, name, entry):
    # every label of an arity above n vanishes, so such a check would pass on nothing
    data = load_scn(name)
    data["checks"].append(entry)
    assert main(["run", write_scn(tmp_path, data), "--output", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "checks[%d]" % (len(data["checks"]) - 1) in err and "arity 3" in err
    assert "Traceback" not in err and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("raw", [b'\xff\xff{"dimension": 2}',
                                 b'{"dimension": 1%s}' % (b"0" * 5000)],
                         ids=["not-utf8", "integer-beyond-the-digit-limit"])
def test_input_that_json_cannot_read_exits_2_naming_the_file(tmp_path, capsys, monkeypatch, raw):
    # both raise a ValueError other than JSONDecodeError inside json
    bad = tmp_path / "s.scn"
    bad.write_bytes(raw)
    for argv in (["run", str(bad)], ["symfun", "convert", "--input", str(bad)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "not valid JSON" in err and "Traceback" not in err
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(bad.read_bytes()),
                                                       encoding="utf-8"))
    assert main(["symfun", "convert"]) == 2
    err = capsys.readouterr().err
    assert "<stdin>" in err and "not valid JSON" in err


@pytest.mark.parametrize("top, kind", [(5, "number"), (None, "null"), (True, "boolean"),
                                       ([1, 2], "array"), ("x", "string")],
                         ids=["number", "null", "bool", "array", "string"])
def test_scenario_that_is_not_an_object_exits_2(tmp_path, capsys, top, kind):
    assert main(["run", write_scn(tmp_path, top), "--output", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "scenario: must be an object, got %s\n" % kind in err and "Traceback" not in err


@pytest.mark.parametrize("data, message", [
    ({}, "scenario: missing 'dimension'"),
    ({"dimension": 2, "checks": {}}, "checks: must be an array, got object"),
], ids=["empty-object", "checks-object"])
def test_refusals_name_the_location_and_the_json_type(tmp_path, capsys, data, message):
    assert main(["run", write_scn(tmp_path, data), "--output", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_three_chart_dk_validate_corrupt_control_trips(tmp_path):
    # at level 2 the default arity is 1, so the one 2-cell checks the face sum of
    # the three theta labels, the corrupted (0, 2) transition's included
    data = load_scn("henon_z.scn")
    data["maps"]["sq"] = {"components": "z1^2; z2"}
    corrupt = {"replace": [0, 2], "with_map": "sq"}
    data["checks"] = [dict(TELESCOPING, name=t, type=t, corrupt=corrupt)
                      for t in ("telescoping", "dk-validate")]
    out = tmp_path / "r.json"
    assert main(["run", write_scn(tmp_path, data), "--output", str(out)]) == 1
    telescoping, dk = json.loads(out.read_text())["checks"]
    assert telescoping["status"] == dk["status"] == "fail"
    assert dk["max_residual"] == telescoping["max_residual"]
    assert dk["max_residual"] > 1.0


def test_face_sum_checks_on_one_simplex_share_one_tau(tmp_path, monkeypatch):
    """telescoping and dk-validate on one simplex label each face once per run: the
    second check adds no label and no value to the shared tau's cache, and the
    corrupt control, whose transition differs, gets a tau of its own."""
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    import workloads

    data = workloads.chart_kernel(2)
    data["checks"] = [c for c in data["checks"] if c["type"] in ("telescoping", "dk-validate")]
    scn = Scenario.load(write_scn(tmp_path, data))
    telescoping, corrupt, dk = scn.checks
    assert telescoping["simplex"][0] is corrupt["simplex"][0] is dk["simplex"][0]
    added = []
    add_label = co.LabelPlan.add_label

    def recorded(plan, *args):
        added.append(args)
        return add_label(plan, *args)

    monkeypatch.setattr(co.LabelPlan, "add_label", recorded)
    tau = scn.tau(telescoping["simplex"][0], telescoping["arity"])
    labels, cached = [], []
    for entry in scn.checks:
        cli.CHECK_RUNNERS[entry["type"]](scn, entry)
        labels.append(len(added))
        cached.append(len(tau._cache))
    assert 0 < labels[0] == len(set(added[:labels[0]])) and labels[1] > labels[0]
    assert labels[2] == labels[1] and cached[2] == cached[1] == cached[0] > 0
    assert len(scn._tau) == 2


def test_a_thin_simplex_cloud_warns_once_through_the_cover_loader(tmp_path):
    data = load_scn("henon_z.scn")
    thin = dict(TELESCOPING, source_points=TELESCOPING["source_points"][:3])
    data["checks"] = [dict(thin, name="t"), dict(thin, name="d", type="dk-validate")]
    with pytest.warns(UserWarning) as warned:
        Scenario.load(write_scn(tmp_path, data))
    assert [str(w.message) for w in warned] == [
        "clouds with fewer than 8 sample points weaken the pointwise checks: [['0', '1', '2']]"]


def test_tau_closedness_walks_every_ordered_tuple():
    # the face sums walk only increasing tuples; tau-closedness keeps every ordered
    # one, repeated indices included: 3^5 cells at arity 3 and 3^3 at arity 1
    scn = Scenario.load(SCENARIOS / "cech_todd3.scn")
    assert len(scn.cover.indices) == 3
    for arity in (3, 1):
        report = cli.closedness_report(scn.tau(scn.atlas, arity), tol=1e-7)
        assert len(report.residual) == 3 ** (arity + 2)


def test_dk_validate_on_an_affine_simplex_names_its_first_2_cell(tmp_path):
    # every face sum of an affine simplex is an exact zero; the worst cell is then
    # the first cell whose face sum is checked, the 2-cell at arity 1
    data = load_scn("henon_z.scn")
    data["maps"].update({"aff": {"components": "z1 + z2/3 + 1/5; z2"},
                         "aff_inv": {"components": "z1 - z2/3 - 1/5; z2"},
                         "lower": {"components": "z1; z2 + z1/2 - 1/7"},
                         "lower_inv": {"components": "z1; z2 - z1/2 + 1/7"}})
    charts = [{"chart": "ident", "inverse": "ident"}, {"chart": "aff", "inverse": "aff_inv"},
              {"chart": "lower", "inverse": "lower_inv"}]
    data["checks"] = [dict(TELESCOPING, name="dk", type="dk-validate", charts=charts)]
    out = tmp_path / "r.json"
    assert main(["run", write_scn(tmp_path, data), "--output", str(out)]) == 0
    dk, = json.loads(out.read_text())["checks"]
    assert dk["status"] == "pass" and dk["max_residual"] == 0.0
    assert dk["worst_cell"] == "(0, 1, 2)"


def dk5_data():
    """henon_z.scn with the face-sum checks of CI smoke: a 5-chart simplex at arity 1
    and 2, and at arity 2 with a corrupted (1, 3) transition, a control that trips;
    a telescoping and a dk-validate entry on its first 4 charts."""
    data = load_scn("henon_z.scn")
    charts = [{"chart": c, "inverse": i} for c, i in
              (("ident", "ident"), ("shear", "shear_inv"), ("henon", "henon_inv"),
               ("shear3", "shear3_inv"), ("henon_shear3", "henon_shear3_inv"))]
    points = [[[0.05 * k - 0.2, 0.03 * k], [0.1 - 0.02 * k, 0.1 - 0.04 * k]] for k in range(10)]
    simplex = {"type": "dk-validate", "charts": charts, "source_points": points}
    data["checks"] = [dict(simplex, name="dk5-arity1", arity=1),
                      dict(simplex, name="dk5-arity2", arity=2),
                      dict(simplex, name="dk5-corrupt", arity=2, expect="fail",
                           corrupt={"replace": [1, 3], "with_map": "henon"}),
                      dict(simplex, name="tel4", type="telescoping", charts=charts[:4]),
                      dict(simplex, name="dk4", charts=charts[:4])]
    return data


def test_ci_dk5_telescoping_names_no_cell_and_dk_validate_one(tmp_path):
    path, out = write_scn(tmp_path, dk5_data()), tmp_path / "r.json"
    assert main(["run", path, "--output", str(out)]) == 0
    r = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert "worst_cell" not in r["tel4"] and r["dk4"]["worst_cell"] == "(0, 1, 2, 3)"
    assert r["tel4"]["max_residual"] == r["dk4"]["max_residual"]
    scn = Scenario.load(path)
    tel4, dk4 = scn.checks[3:]
    assert tel4["simplex"] == dk4["simplex"]


def three_chart_controls_data():
    """henon_z.scn with a telescoping and a dk-validate control on three charts whose
    (0, 2) transition is corrupted."""
    data = load_scn("henon_z.scn")
    data["maps"]["sq"] = {"components": "z1^2; z2"}
    corrupt = {"replace": [0, 2], "with_map": "sq"}
    data["checks"] = [dict(TELESCOPING, name=t, type=t, corrupt=corrupt, expect="fail")
                      for t in ("telescoping", "dk-validate")]
    return data


@pytest.mark.parametrize("make, name", [(dk5_data, "dk5-corrupt"),
                                        (three_chart_controls_data, "telescoping"),
                                        (three_chart_controls_data, "dk-validate")])
def test_a_tripped_face_sum_control_names_the_point_where_its_sum_peaks(tmp_path, make, name):
    path, out = write_scn(tmp_path, make()), tmp_path / "r.json"
    assert main(["run", path, "--output", str(out)]) == 0
    result = next(c for c in json.loads(out.read_text())["checks"] if c["name"] == name)
    assert result["status"] == "pass" and "observed" in result["detail"]
    scn = Scenario.load(path)
    entry = next(e for e in scn.checks if e["name"] == name)
    simplex = entry_path(entry)
    P, k = simplex.source_points, entry["arity"]
    as_json = [[[z.real, z.imag] for z in p] for p in P.tolist()]
    assert result["worst_point"] in as_json
    # the face sum of the worst cell, one label plan per face
    cell = (tuple(map(int, result["worst_cell"].strip("()").split(", ")))
            if "worst_cell" in result else tuple(range(k + 2)))
    T = todd_invariant(k)
    faces = [cell[:j] + cell[j + 1:] for j in range(k + 2)]
    terms = [(-1) ** j * cf_label_top(sub_simplex(simplex, face), T, P).values
             for j, face in enumerate(faces)]
    per_point = np.abs(sum(terms)).reshape(len(P), -1).max(axis=1)
    assert result["max_residual"] == pytest.approx(per_point.max(), rel=1e-12)
    assert result["worst_point"] == as_json[int(np.argmax(per_point))]
    # the dominant face at that point: the largest |sign * label| of the cell's faces;
    # faces may tie to rounding, so the one named need only reach that modulus
    row = as_json.index(result["worst_point"])
    moduli = [float(np.abs(term[row]).max()) for term in terms]
    dominant = result["dominant_term"]
    j = faces.index(tuple(dominant["face"]))
    assert dominant["sign"] == (-1) ** j
    assert dominant["modulus"] == pytest.approx(moduli[j], rel=1e-12)
    assert dominant["modulus"] == pytest.approx(max(moduli), rel=1e-12)


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command, name", [("verify-cocycle", "henon_z.scn"),
                                           ("witness", "witness_reparam.scn")])
def test_subcommand_tolerance_is_refused_like_a_checks(tmp_path, capsys, command, name, value):
    out = tmp_path / "r.json"
    assert main([command, str(SCENARIOS / name), "--tolerance", value,
                 "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert "%s: 'tolerance' must be a finite positive number" % command in err
    assert "Traceback" not in err and not out.exists()


def test_simplex_entry_default_arities(tmp_path):
    data = load_scn("henon_z.scn")
    four = TELESCOPING["charts"] + [{"chart": "shear3", "inverse": "shear3_inv"}]
    data["checks"] = [dict(TELESCOPING, name="t3"), dict(TELESCOPING, name="t4", charts=four),
                      dict(TELESCOPING, name="d3", type="dk-validate"),
                      dict(TELESCOPING, name="d4", type="dk-validate", charts=four),
                      dict(TELESCOPING, name="d5", type="dk-validate",
                           charts=four + TELESCOPING["charts"][:1])]
    scn = Scenario.load(write_scn(tmp_path, data))
    assert [c["arity"] for c in scn.checks] == [1, 2, 1, 2, 2]


BAD_POINT = [[["x", 0], [0.0, 0.0]]]


@pytest.mark.parametrize("entry", [
    {"type": "theta-composition", "pairs": [["henon", "shear"]], "points": BAD_POINT},
    dict(TELESCOPING, source_points=BAD_POINT),
    dict(TELESCOPING, type="dk-validate", source_points=BAD_POINT),
], ids=["theta-composition-points", "telescoping-source-points",
        "dk-validate-source-points"])
def test_bad_point_in_check_exits_2_at_load(tmp_path, capsys, entry):
    data = load_scn("henon_z.scn")
    data["checks"].append(entry)
    assert main(["run", write_scn(tmp_path, data), "--output", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "checks[1]" in err and "coordinate" in err and "Traceback" not in err


THETA_POINTS = [[[0.1, 0.2], [0.3, -0.1]], [[0.0, 0.15], [-0.2, 0.25]]]


def with_numbers(value, make):
    """value with every float in it replaced by make(float)."""
    if isinstance(value, list):
        return [with_numbers(v, make) for v in value]
    return make(value) if isinstance(value, float) else value


def points_scenario(make, where):
    """henon_z with a theta-composition check, the floats of its cover points or of
    the check's points made by `make`: (data, location of those points)."""
    data = load_scn("henon_z.scn")
    data["checks"].append({"type": "theta-composition", "pairs": [["henon", "shear"]],
                           "points": THETA_POINTS})
    if where == "cover":
        cloud = data["cover"]["clouds"][0]
        cloud["points"] = with_numbers(cloud["points"], make)
        return data, "cover/clouds[0]"
    data["checks"][-1]["points"] = with_numbers(THETA_POINTS, make)
    return data, "checks[1]"


@pytest.mark.parametrize("where", ["cover", "theta-composition"])
def test_numpy_float_points_load_as_the_float_ones(where):
    want = Scenario(points_scenario(float, where)[0])
    got = Scenario(points_scenario(np.float64, where)[0])
    for key, P in want.cover.clouds.items():
        assert len(P) and got.cover.clouds[key].tobytes() == P.tobytes()
    P = want.checks[1]["points"]
    assert len(P) == 2 and got.checks[1]["points"].tobytes() == P.tobytes()


def as_tuples(value):
    """value with every list in it a tuple."""
    return tuple(map(as_tuples, value)) if isinstance(value, list) else value


@pytest.mark.parametrize("container, bad", [(as_tuples, "x"), (as_tuples, math.nan),
                                            (np.array, math.nan)],
                         ids=["tuple-string", "tuple-nan", "array-nan"])
def test_a_bad_coordinate_in_tuple_or_array_points_is_named(container, bad):
    # points and pairs that np.array reads load as the lists do, and one bad coordinate
    # among them is named as in a list
    data, location = points_scenario(float, "cover")
    cloud = data["cover"]["clouds"][0]
    want = Scenario(data).cover.clouds
    points = cloud["points"]
    cloud["points"] = [container(p) for p in points]
    got = Scenario(data).cover.clouds
    assert all(got[key].tobytes() == P.tobytes() for key, P in want.items())
    cloud["points"][0] = container([points[0][0], [0.1, bad]])
    with pytest.raises(ScenarioError, match="coordinate must be an") as refused:
        Scenario(data)
    assert refused.value.location == location and "0.1, %r" % bad in str(refused.value)


@pytest.mark.parametrize("make", [lambda x: True, np.bool_], ids=["True", "np.bool_"])
@pytest.mark.parametrize("where", ["cover", "theta-composition"])
def test_boolean_points_are_refused_at_their_location(where, make):
    data, location = points_scenario(make, where)
    with pytest.raises(ScenarioError, match="finite numbers") as refused:
        Scenario(data)
    assert refused.value.location == location


# JSON numbers that are no finite float: the NaN and infinities Python's json
# reads, a float beyond the range and an integer too large for a float
BAD_NUMBERS = ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400]


@pytest.mark.parametrize("token", BAD_NUMBERS, ids=["nan", "inf", "minus-inf", "1e400", "10^400"])
@pytest.mark.parametrize("edit, location", [
    (_set(["cover", "clouds", 0, "points", 3, 1], [0.1, "@"]), "cover/clouds[0]"),
    (_append_check({"type": "theta-composition", "pairs": [["henon", "shear"]],
                    "points": [[[0.1, 0.2], ["@", 0]]]}), "checks[1]"),
    (_append_check(dict(TELESCOPING, source_points=[[["@", 0.2], [0.3, -0.1]]] * 9)),
     "checks[1]"),
    (_append_check(dict(TELESCOPING, type="dk-validate",
                        source_points=[[[0.1, 0.2], [0.3, "@"]]] * 9)), "checks[1]"),
], ids=["cover-cloud", "theta-composition-points", "telescoping-source-points",
        "dk-validate-source-points"])
def test_coordinate_that_is_no_finite_float_exits_2_at_load(tmp_path, capsys, edit, location,
                                                           token):
    data = load_scn("henon_z.scn")
    edit(data)
    path = tmp_path / "case.scn"
    path.write_text(json.dumps(data).replace('"@"', token))
    assert main(["run", str(path), "--output", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert location in err and "finite numbers" in err and "Traceback" not in err


@pytest.mark.parametrize("token", BAD_NUMBERS, ids=["nan", "inf", "minus-inf", "1e400", "10^400"])
@pytest.mark.parametrize("check, field", [
    ({"type": "theta-composition", "pairs": [["henon", "shear"]],
      "points": [[[0.1, 0.2], [0.3, 0]]], "tolerance": "@"}, "'tolerance'"),
    ({"type": "bm-dbar", "step": "@"}, "'step'"),
    ({"type": "bm-dbar", "z": ["@", 0]}, "'z'"),
    ({"type": "bm-reproducing", "radii": [0.5, "@"]}, "'radii'"),
], ids=["tolerance", "step", "z", "radii"])
def test_check_field_that_is_no_finite_number_exits_2_at_load(tmp_path, capsys, check, field,
                                                              token):
    data = load_scn("henon_z.scn")
    data["checks"] = [check]
    path = tmp_path / "case.scn"
    path.write_text(json.dumps(data).replace('"@"', token))
    assert main(["run", str(path), "--output", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "checks[0]" in err and field in err and "finite" in err and "Traceback" not in err


def test_round_trip_that_overflows_to_nan_exits_2(tmp_path, capsys):
    # a finite 1e200 coordinate overflows in the henon generator; the round trip
    # error is NaN, which no tolerance admits
    data = load_scn("henon_z.scn")
    data["cover"]["clouds"][0]["points"][0][1] = [1e200, 0.0]
    with np.errstate(all="ignore"):
        code = main(["run", write_scn(tmp_path, data), "--output", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "action/h: generator/inverse round trip off by nan" in err


def test_require_round_trip_refuses_nan():
    with pytest.raises(ScenarioError, match="atlas/u: chart/inverse round trip off by nan"):
        scenario_mod._require_round_trip((math.nan, "u"), 1e-9, "chart/inverse", "atlas")


def test_affine_vanishing_fails_on_a_nan_value(monkeypatch):
    P = np.zeros((1, 2), dtype=complex)
    forms = [SampledForm(2, 2, P, [[0j]]), SampledForm(2, 2, P, [[complex(math.nan, 0)]]),
             SampledForm(2, 2, P, [[0j]])]
    monkeypatch.setattr(cli, "cell_values", lambda tau: [((0, 2), None, None, forms)])
    tau = types.SimpleNamespace(bidegrees=lambda: [(0, 2)])
    scn = types.SimpleNamespace(n=2, atlas=None, tau=lambda atlas, arity: tau)
    result = cli.verdict({}, *cli.run_affine_vanishing(scn, {}))
    assert result["status"] == "fail" and math.isnan(result["max_residual"])


def test_theta_composition_fails_on_a_nan_residual(tmp_path, monkeypatch):
    data = load_scn("henon_z.scn")
    data["checks"] = [{"type": "theta-composition",
                       "pairs": [["henon", "shear"], ["shear", "ident"]],
                       "points": [[[0.1, 0.2], [0.3, -0.1]]]}]
    scn = Scenario.load(write_scn(tmp_path, data))
    thetas = co.LabelPlan._thetas

    # the plan's theta of a map named after henon is NaN: the first pair's composite
    # and its henon piece; the second pair is finite
    def nan_thetas(plan, batch):
        values = thetas(plan, batch)
        name = plan.chains.maps[batch[0][0]].name
        return [np.full_like(v, math.nan) for v in values] if "henon" in name else values

    monkeypatch.setattr(co.LabelPlan, "_thetas", nan_thetas)
    entry = scn.checks[0]
    result = cli.verdict(entry, *cli.run_theta_composition(scn, entry))
    assert math.isnan(result["pairs"][0]["residual"]) and result["pairs"][1]["residual"] < 1e-12
    assert result["status"] == "fail" and math.isnan(result["max_residual"])


def test_bm_reproducing_fails_on_a_nan_value(monkeypatch):
    monkeypatch.setattr(cli, "reproducing_integral",
                        lambda z, radius, order, rule: complex(
                            math.nan if radius < 1 else 1.0, 0.0))
    entry = {"radii": [0.5, 1.0], "tolerance": 1e-3}
    result = cli.verdict(entry, *cli.run_bm_reproducing(None, entry))
    assert [math.isnan(r["error"]) for r in result["radii"]] == [True, False]
    assert result["status"] == "fail" and math.isnan(result["max_residual"])


THETA_COMPOSITION = {"type": "theta-composition", "pairs": [["henon", "shear"]],
                     "points": [[[0.1, 0.2], [0.3, -0.1]], [[-0.2, 0.1], [0.05, 0.3]]]}
# one check of every type that holds, on the scenario it runs on
HOLDING = [("affine_torus.scn", {"type": "affine-vanishing"}),
           ("affine_torus.scn", {"type": "tau-closedness"}),
           ("witness_reparam.scn", {"type": "witness"}),
           ("henon_z.scn", TELESCOPING),
           ("henon_z.scn", dict(TELESCOPING, type="dk-validate")),
           ("henon_z.scn", THETA_COMPOSITION),
           ("henon_z.scn", {"type": "bm-dbar"}),
           ("henon_z.scn", {"type": "bm-reproducing"})]
# checks that do not hold: a non-affine atlas, a tolerance below every residual, and a
# dbar step where rounding hides the order-two convergence
FAILING = [("henon_z.scn", {"type": "affine-vanishing"}),
           ("henon_z.scn", dict(THETA_COMPOSITION, tolerance=1e-300)),
           ("henon_z.scn", {"type": "bm-dbar", "step": 1e-6}),
           ("henon_z.scn", {"type": "bm-reproducing", "tolerance": 1e-300})]


def run_check(tmp_path, base, entry, **fields):
    """Exit code and report entry of `cocyclekit run` on the base scenario holding one check."""
    data = load_scn(base)
    data["checks"] = [dict(entry, name="check", **fields)]
    out = tmp_path / "r.json"
    code = main(["run", write_scn(tmp_path, data), "--output", str(out)])
    return code, json.loads(out.read_text())["checks"][0]


@pytest.mark.parametrize("base, entry", HOLDING, ids=[e["type"] for _, e in HOLDING])
def test_a_negative_control_that_does_not_trip_fails(tmp_path, capsys, base, entry):
    code, check = run_check(tmp_path, base, entry)
    assert code == 0 and check["status"] == "pass"
    code, check = run_check(tmp_path, base, entry, expect="fail")
    assert code == 1
    assert check["status"] == "fail" and check["detail"] == "negative control did not trip"
    assert "[FAIL] check" in capsys.readouterr().out


@pytest.mark.parametrize("base, entry", HOLDING, ids=[e["type"] for _, e in HOLDING])
def test_a_result_reports_its_tolerance_only_when_the_tolerance_decides(tmp_path, base, entry):
    # bm-dbar decides by its order-two fit and affine-vanishing by an exact zero: a
    # tolerance below every residual leaves them passing, and they report none
    code, check = run_check(tmp_path, base, entry, tolerance=1e-300)
    if entry["type"] in ("affine-vanishing", "bm-dbar"):
        assert check["status"] == "pass" and "tolerance" not in check
    else:
        assert check["tolerance"] == 1e-300


@pytest.mark.parametrize("base, entry", FAILING, ids=[e["type"] for _, e in FAILING])
def test_a_negative_control_that_trips_passes(tmp_path, capsys, base, entry):
    code, check = run_check(tmp_path, base, entry)
    assert code == 1 and check["status"] == "fail"
    code, check = run_check(tmp_path, base, entry, expect="fail")
    assert code == 0 and check["status"] == "pass"
    assert check["detail"] == "negative control: failure expected and observed"


def test_a_negative_control_that_raises_reports_the_error(tmp_path, capsys):
    # every probe lies 1 from z, closer than 10 steps of 0.2
    code, check = run_check(tmp_path, "henon_z.scn", {"type": "bm-dbar", "step": 0.2},
                            expect="fail")
    assert code == 1 and check["status"] == "error" and "detail" not in check
    assert check["error"].startswith("DomainError: probe")


def test_check_points_are_parsed_once_at_load(tmp_path):
    data = load_scn("henon_z.scn")
    data["checks"] = [dict(TELESCOPING, name="t"),
                      {"type": "theta-composition", "name": "th", "pairs": [["henon", "shear"]],
                       "points": [[[0.1, 0.2], [0.3, -0.1]]]}]
    scn = Scenario.load(write_scn(tmp_path, data))
    assert scn.checks[0]["source_points"].shape == (9, 2)
    assert scn.checks[0]["source_points"].tolist()[0] == [0.1 + 0.2j, 0.3 - 0.1j]
    assert scn.checks[1]["points"].tolist() == [[0.1 + 0.2j, 0.3 - 0.1j]]
    assert entry_path(scn.checks[0]).source_points.tolist()[0] == [0.1 + 0.2j, 0.3 - 0.1j]


def test_check_types_listed_alike_in_loader_runners_and_schema():
    schema = json.loads((REPO / "docs" / "scenario.schema.json").read_text())
    enum = schema["properties"]["checks"]["items"]["properties"]["type"]["enum"]
    assert set(scenario_mod.KNOWN_CHECKS) == set(CHECK_RUNNERS) == set(enum)


def test_group_invariant_cells_are_the_pure_group_rows_of_todd_cocycle(tmp_path, capsys):
    scn = str(SCENARIOS / "henon_z.scn")
    out = tmp_path / "t.json"
    assert main(["todd-cocycle", scn, "--output", str(out)]) == 0
    assert main(["group-invariant", scn]) == 0
    printed = capsys.readouterr().out
    cells = json.loads(printed[printed.index("{"):])["cells"]
    dump = json.loads(out.read_text())["cells"]
    expected = [{"index": c["indices"][0], "words": c["words"], "max_abs": c["max_abs"],
                 "values": c["values"]} for c in dump if c["bidegree"] == [0, 2]]
    assert cells and cells == expected


def _run_check(tmp_path, name, check_type):
    out = tmp_path / ("run-%s.json" % check_type)
    main(["run", str(SCENARIOS / name), "--output", str(out)])
    report = json.loads(out.read_text())
    return next(c for c in report["checks"] if c["type"] == check_type)


def test_verify_cocycle_residual_is_the_run_residual(tmp_path):
    out = tmp_path / "v.json"
    assert main(["verify-cocycle", str(SCENARIOS / "henon_z.scn"), "--output", str(out)]) == 0
    residual = json.loads(out.read_text())["closedness"]["max_residual"]
    assert residual == _run_check(tmp_path, "henon_z.scn", "tau-closedness")["max_residual"]


def test_witness_command_residual_is_the_run_residual(tmp_path):
    out = tmp_path / "w.json"
    assert main(["witness", str(SCENARIOS / "witness_reparam.scn"), "--output", str(out)]) == 0
    residual = json.loads(out.read_text())["witness"]["max_residual"]
    assert residual == _run_check(tmp_path, "witness_reparam.scn", "witness")["max_residual"]


def test_affine_vanishing_residual_is_the_todd_cocycle_maximum(tmp_path):
    out = tmp_path / "t.json"
    assert main(["todd-cocycle", str(SCENARIOS / "affine_torus.scn"),
                 "--output", str(out)]) == 0
    cells = json.loads(out.read_text())["cells"]
    dumped = max(c["max_abs"] for c in cells)
    checked = _run_check(tmp_path, "affine_torus.scn", "affine-vanishing")["max_residual"]
    assert dumped == checked == 0.0
    # structural zeros are never the result of arithmetic, so no -0.0 appears
    coefficients = [part for c in cells for row in c["values"]
                    for pair in row["coefficients"].values() for part in pair]
    assert coefficients and all(math.copysign(1.0, v) == 1.0 for v in coefficients)


def test_symfun_cli_strings(capsys):
    assert main(["symfun", "todd", "2"]) == 0
    assert capsys.readouterr().out.strip() == "(1/12)(S1^2 + S2) = (1/24)(3 T1^2 - T2)"
    assert main(["symfun", "todd", "1"]) == 0
    assert capsys.readouterr().out.strip() == "(1/2) S1 = (1/2) T1"
    assert main(["symfun", "todd", "3"]) == 0
    assert capsys.readouterr().out.strip() == "(1/24) S1 S2 = (1/48)(T1^3 - T1 T2)"
    assert main(["symfun", "chern", "3"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.endswith("= (1/6) T3")


def test_symfun_rejects_degree_zero(capsys):
    assert main(["symfun", "todd", "0"]) == 2


@pytest.mark.parametrize("kind", ["todd", "chern"])
def test_symfun_refuses_degrees_above_the_bound(capsys, kind):
    assert main(["symfun", kind, str(MAX_SYMFUN_DEGREE + 1)]) == 2
    assert "1..%d" % MAX_SYMFUN_DEGREE in capsys.readouterr().err


def test_symfun_degree_bound_is_accepted_and_in_the_help(capsys):
    assert main(["symfun", "chern", str(MAX_SYMFUN_DEGREE)]) == 0
    with pytest.raises(SystemExit):
        main(["symfun", "--help"])
    assert "1..%d" % MAX_SYMFUN_DEGREE in capsys.readouterr().out


def test_symfun_convert_round_trip(tmp_path, capsys):
    payload = {"basis": "power", "terms": [
        {"partition": [2], "num": "1", "den": "1"}]}
    src = tmp_path / "f.json"
    src.write_text(json.dumps(payload))
    assert main(["symfun", "convert", "--input", str(src), "--json"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "(S1^2 - 2 S2)"
    converted = json.loads(lines[1])
    assert converted["basis"] == "elementary"


def test_symfun_convert_sums_terms_of_equal_partitions(tmp_path, capsys):
    payload = {"basis": "power", "terms": [{"partition": [1, 2], "num": "1", "den": "1"},
                                           {"partition": [2, 1], "num": "2", "den": "1"},
                                           {"partition": [1], "num": "1", "den": "2"},
                                           {"partition": [1], "num": "1", "den": "2"}]}
    src = tmp_path / "f.json"
    src.write_text(json.dumps(payload))
    assert main(["symfun", "convert", "--input", str(src), "--json"]) == 0
    converted = json.loads(capsys.readouterr().out.strip().splitlines()[1])
    back = SymFun.from_json(converted)
    assert newton_convert(back, POWER).terms == {(2, 1): 3, (1,): 1}


@pytest.mark.parametrize("text, message", [
    ("{not json", "not valid JSON"),
    (json.dumps({"terms": []}), "'basis' and 'terms'"),
    (json.dumps({"basis": "power"}), "'basis' and 'terms'"),
    (json.dumps({"basis": "power", "terms": 5}), "terms: must be an array"),
    (json.dumps({"basis": "power", "terms": [{"partition": [1], "num": "1", "den": "0"}]}),
     "terms[0]: 'den' must be nonzero"),
    (json.dumps({"basis": "power", "terms": [{"partition": [1], "den": "2"}]}),
     "terms[0]: 'num' must be an integer string"),
    (json.dumps({"basis": "power", "terms": [{"partition": [2], "num": "1", "den": "1"},
                                             {"partition": [1], "num": "a", "den": "1"}]}),
     "terms[1]: 'num' must be an integer string"),
    (json.dumps({"basis": "power", "terms": [{"partition": 1, "num": "1", "den": "1"}]}),
     "terms[0]: 'partition' must be a list"),
    (json.dumps({"basis": "power", "terms": [7]}), "terms[0]: must be an object"),
])
def test_symfun_convert_bad_input_exits_2(tmp_path, capsys, text, message):
    src = tmp_path / "f.json"
    src.write_text(text)
    assert main(["symfun", "convert", "--input", str(src)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_cli_entry_point_subprocess():
    proc = subprocess.run([sys.executable, "-m", "cocyclekit.cli", "symfun", "todd", "2"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert "(1/12)(S1^2 + S2)" in proc.stdout


def test_schema_file_ships_and_is_valid_json():
    schema = json.loads((REPO / "docs" / "scenario.schema.json").read_text())
    assert schema["type"] == "object"
    assert "checks" in schema["properties"]


def test_verify_cocycle_command(tmp_path):
    assert main(["verify-cocycle", str(SCENARIOS / "henon_z.scn"),
                 "--output", str(tmp_path / "v.json")]) == 0


def test_witness_command(tmp_path):
    assert main(["witness", str(SCENARIOS / "witness_reparam.scn"),
                 "--output", str(tmp_path / "w.json")]) == 0


def test_todd_cocycle_dump(tmp_path):
    out = tmp_path / "todd-cocycle.json"
    assert main(["todd-cocycle", str(SCENARIOS / "henon_z.scn"),
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["arity"] == 2
    assert any(c["max_abs"] > 1e-6 for c in payload["cells"])
    sample = payload["cells"][0]["values"]
    assert "point" in sample[0] and "coefficients" in sample[0]


def test_cocycle_report_has_per_cell_and_per_point_data(tmp_path):
    out = tmp_path / "cocycle-report.json"
    assert main(["verify-cocycle", str(SCENARIOS / "henon_z.scn"),
                 "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    cells = payload["closedness"]["cells"]
    assert cells and all("residual" in c and "worst_point" in c for c in cells)
    assert set(cells[0]["dominant_term"]) == {"cochain", "bidegree", "indices", "words",
                                              "pullback", "coefficient", "modulus"}


def test_check_error_does_not_abort_batch(tmp_path):
    data = load_scn("henon_z.scn")
    data["checks"] = [
        # step too large relative to the probe distance: a runtime DomainError
        {"type": "bm-dbar", "name": "will-error", "tolerance": 1e-7, "step": 0.5},
        {"type": "tau-closedness", "name": "still-runs", "tolerance": 1e-7},
    ]
    out = tmp_path / "r.json"
    assert main(["run", write_scn(tmp_path, data), "--output", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["checks"][0]["status"] == "error"
    assert "DomainError" in report["checks"][0]["error"]
    assert report["checks"][1]["status"] == "pass"


@pytest.mark.parametrize("check, field", [
    ({"type": "bm-dbar", "n": 1}, "'n'"),
    ({"type": "bm-dbar", "n": 3, "z": [0.0, 0.0]}, "'z'"),
    ({"type": "bm-dbar", "probes": 0}, "'probes'"),
    ({"type": "bm-dbar", "step": 0}, "'step'"),
    ({"type": "bm-reproducing", "order": 3}, "'order'"),
    ({"type": "bm-reproducing", "radii": [1.0, -0.5]}, "'radii'"),
    ({"type": "bm-reproducing", "radii": []}, "'radii'"),
    ({"type": "bm-reproducing", "n": 3, "z": [0.0, 0.0, 0.0]}, "'n'"),
])
def test_bad_bm_field_exits_2_with_location(tmp_path, capsys, check, field):
    data = load_scn("henon_z.scn")
    data["checks"] = [{"type": "tau-closedness", "tolerance": 1e-7},
                      dict(check, name="bad", tolerance=1e-3)]
    path = write_scn(tmp_path, data)
    with pytest.raises(ScenarioError) as err:
        Scenario.load(path)
    assert err.value.location == "checks[1]"
    out = tmp_path / "r.json"
    assert main(["run", path, "--output", str(out)]) == 2
    msg = capsys.readouterr().err
    assert "checks[1]" in msg and field in msg
    assert "Traceback" not in msg
    assert not out.exists()


def test_bm_reproducing_integrates_around_its_z():
    entry = {"type": "bm-reproducing", "z": [0.5, 0], "order": 8, "radii": [1.0],
             "tolerance": 1e-3}
    result = cli.verdict(entry, *cli.run_bm_reproducing(None, entry))
    want = reproducing_integral(z=(0.5, 0.0), radius=1.0, order=8)
    assert result["status"] == "pass" and result["radii"][0]["value"] == [want.real, want.imag]
    assert want != reproducing_integral(radius=1.0, order=8)


def test_bm_check_command_n2(capsys):
    assert main(["bm-check", "--n", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"dbar", "reproducing", "sign_convention"}
    assert report["dbar"]["order_two"] and report["dbar"]["pass"]
    assert [row["radius"] for row in report["reproducing"]] == [1.0, 2.0]
    assert all(row["error"] <= 1e-3 for row in report["reproducing"])


def test_bm_check_command_n3(capsys):
    assert main(["bm-check", "--n", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"dbar", "sign_convention"}
    assert len(report["dbar"]["per_probe"]) == 12


def test_bm_check_step_too_large_exits_2(capsys):
    # probes lie on the unit sphere, so a step of 0.5 breaks the 10h guard
    assert main(["bm-check", "--step", "0.5"]) == 2
    err = capsys.readouterr().err
    assert "need >= 10h" in err and "Traceback" not in err


def test_thin_cloud_warning(tmp_path):
    data = load_scn("henon_z.scn")
    data["cover"]["clouds"][0]["points"] = data["cover"]["clouds"][0]["points"][:3]
    with pytest.warns(UserWarning, match="fewer than 8"):
        Scenario.load(write_scn(tmp_path, data))


def test_shipped_scenarios_conform_to_schema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((REPO / "docs" / "scenario.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)
    for name in ("affine_torus.scn", "henon_z.scn", "cech_todd3.scn",
                 "witness_reparam.scn"):
        validator.validate(load_scn(name))


# --- schema-driven bad input -----------------------------------------------------

SCHEMA = json.loads((REPO / "docs" / "scenario.schema.json").read_text())
# Scenarios that together hold every property of the schema: the shipped ones,
# and a fixture for the check fields no shipped scenario uses.
FIELD_SOURCES = [SCENARIOS / name for name in sorted(p.name for p in SCENARIOS.glob("*.scn"))] \
    + [REPO / "tests" / "every_check_field.scn"]
# values of other JSON types per declared type: True is the bool that Python
# takes for an integer, {} an empty container, 7 and "x" are not containers
WRONG_TYPE = {"string": [1, ["x"]], "integer": [True, "1"], "number": [True, "1"],
              "array": [{}, 7], "object": [[], "x"]}


def _resolve(node):
    while "$ref" in node:
        node = SCHEMA["$defs"][node["$ref"].rsplit("/", 1)[-1]]
    return node


def _typed_values(node, value, path=()):
    """(path, schema node) for every value in a scenario that the schema types."""
    node = _resolve(node)
    if path and ("type" in node or "enum" in node):
        yield path, node
    if isinstance(value, dict):
        for key, child in value.items():
            sub = node.get("properties", {}).get(key, node.get("additionalProperties"))
            if isinstance(sub, dict):
                yield from _typed_values(sub, child, path + (key,))
    elif isinstance(value, list) and "items" in node:
        for i, child in enumerate(value):
            yield from _typed_values(node["items"], child, path + (i,))


def _schema_cases():
    """One (scenario, path, schema node) per typed schema property, first instance wins."""
    cases = {}
    for source in FIELD_SOURCES:
        data = json.loads(source.read_text())
        for path, node in _typed_values(SCHEMA, data):
            # indices and additionalProperties keys name the same schema property
            pattern = tuple("*" if isinstance(k, int) or _under_map(path[:i]) else k
                            for i, k in enumerate(path))
            cases.setdefault(pattern, (source, path, node))
    return cases


def _under_map(parent):
    """True when the key after `parent` is a free name (a map, constant or chart index)."""
    return parent in (("maps",), ("constants",), ("atlas",), ("atlas_b",)) \
        or (len(parent) == 4 and parent[-1] == "index_action")


SCHEMA_CASES = _schema_cases()


def _location(path):
    """Where the loader must point: the entry of a keyed section, else the section."""
    if len(path) > 2 and path[0] in ("checks", "maps", "constants", "atlas", "atlas_b"):
        return path[0] + ("[%d]" % path[1] if isinstance(path[1], int) else "/%s" % path[1])
    return path[0]


def test_schema_cases_cover_every_typed_property():
    def walk(node, pattern):
        node = _resolve(node)
        if pattern and ("type" in node or "enum" in node):
            yield pattern
        for key, sub in node.get("properties", {}).items():
            yield from walk(sub, pattern + (key,))
        if isinstance(node.get("additionalProperties"), dict):
            yield from walk(node["additionalProperties"], pattern + ("*",))
        if "items" in node:
            yield from walk(node["items"], pattern + ("*",))

    assert set(walk(SCHEMA, ())) == set(SCHEMA_CASES)
    # the fixture is itself a valid scenario whose checks pass
    assert main(["run", str(FIELD_SOURCES[-1]), "--output", os.devnull]) == 0


def _wrong_values(node):
    return WRONG_TYPE[node["type"]] if "type" in node else ["not-" + str(node["enum"][0]), 1]


BAD_VALUES = [(pattern, bad) for pattern in sorted(SCHEMA_CASES, key=repr)
              for bad in _wrong_values(SCHEMA_CASES[pattern][2])]


@pytest.mark.parametrize("pattern, bad", BAD_VALUES,
                         ids=["%s=%s" % ("/".join(map(str, p)), json.dumps(b))
                              for p, b in BAD_VALUES])
def test_schema_typed_property_of_wrong_type_exits_2(tmp_path, capsys, pattern, bad):
    source, path, _ = SCHEMA_CASES[pattern]
    data = json.loads(source.read_text())
    _set(list(path), bad)(data)
    code = main(["run", write_scn(tmp_path, data), "--output", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2, (path, bad)
    assert _location(path) in err and "Traceback" not in err, (path, err)


def _miscounted(source, path, node):
    """The array at `path` cut one item short of minItems and grown one past maxItems."""
    value = json.loads(source.read_text())
    for key in path:
        value = value[key]
    return ([value[:node["minItems"] - 1]] if "minItems" in node else []) \
        + ([value + value[-1:] * (node["maxItems"] + 1 - len(value))] if "maxItems" in node else [])


BAD_COUNTS = [(pattern, bad) for pattern in sorted(SCHEMA_CASES, key=repr)
              for bad in _miscounted(*SCHEMA_CASES[pattern])]


@pytest.mark.parametrize("pattern, bad", BAD_COUNTS,
                         ids=["%s=%s" % ("/".join(map(str, p)), json.dumps(b))
                              for p, b in BAD_COUNTS])
def test_schema_array_of_wrong_length_exits_2(tmp_path, capsys, pattern, bad):
    source, path, _ = SCHEMA_CASES[pattern]
    data = json.loads(source.read_text())
    _set(list(path), bad)(data)
    code = main(["run", write_scn(tmp_path, data), "--output", str(tmp_path / "r.json")])
    err = capsys.readouterr().err
    assert code == 2, (path, bad)
    assert _location(path) in err and "Traceback" not in err, (path, err)


# --- a check that visits nothing does not pass -------------------------------------


def _without_points(name):
    data = load_scn(name)
    for cloud in data["cover"]["clouds"]:
        cloud["points"] = []
    return data


@pytest.mark.parametrize("expect", ["pass", "fail"])
@pytest.mark.parametrize("name, check_type", [("affine_torus.scn", "affine-vanishing"),
                                              ("henon_z.scn", "tau-closedness"),
                                              ("witness_reparam.scn", "witness")])
def test_check_over_no_cells_is_an_error(tmp_path, capsys, name, check_type, expect):
    data = _without_points(name)
    data["checks"] = [{"type": check_type, "name": "empty", "tolerance": 1e-7,
                       "expect": expect}]
    with pytest.warns(UserWarning, match="fewer than 8"):
        code = main(["run", write_scn(tmp_path, data), "--output", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "checks[0]: no cover cloud holds a point" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "verify-cocycle"])
def test_a_cover_without_clouds_exits_2_from_run_as_from_verify_cocycle(tmp_path, capsys,
                                                                         command):
    data = load_scn("henon_z.scn")
    data["cover"]["clouds"] = []
    code = main([command, write_scn(tmp_path, data), "--output", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "checks[0]: no cover cloud holds a point" in err and "Traceback" not in err


@pytest.mark.parametrize("command, name", [("verify-cocycle", "henon_z.scn"),
                                           ("witness", "witness_reparam.scn"),
                                           ("todd-cocycle", "henon_z.scn"),
                                           ("group-invariant", "henon_z.scn")])
def test_residual_subcommand_over_no_cells_exits_2(tmp_path, capsys, command, name):
    # without checks, whose loading would refuse the empty cover first
    data = _without_points(name)
    data["checks"] = []
    path = write_scn(tmp_path, data)
    output = [] if command == "group-invariant" else ["--output", str(tmp_path / "r.json")]
    with pytest.warns(UserWarning, match="fewer than 8"):
        code = main([command, path] + output)
    assert code == 2
    err = capsys.readouterr().err
    assert "no nonempty cells in bidegrees" in err and "Traceback" not in err


@pytest.mark.parametrize("entry", [{"pairs": [], "points": [[[0.1, 0.2], [0.3, -0.1]]]},
                                   {"pairs": [["henon", "shear"]]}],
                         ids=["no-pairs", "no-points"])
def test_theta_composition_over_nothing_exits_2(tmp_path, capsys, entry):
    data = load_scn("henon_z.scn")
    data["checks"].append(dict(entry, type="theta-composition"))
    assert main(["run", write_scn(tmp_path, data), "--output", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "checks[1]" in err and "one map pair and one point" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name, edit, location", [
    ("cech_todd3.scn", lambda d: d["cover"]["indices"].append(d["cover"]["indices"][0]),
     "cover/indices: repeated cover index 'p'"),
    ("henon_z.scn", lambda d: d["action"]["generators"].append(
        dict(d["action"]["generators"][0], map="shear", inverse="shear_inv")),
     "action/generators[1]: repeated generator name 'h'"),
    ("henon_z.scn", lambda d: d["action"]["words"].append(["h", "h^-1", "h^-1"]),
     "action/words[2]: word [\"h\", \"h^-1\", \"h^-1\"] reduces to action/words[1]"),
], ids=["cover-index", "generator-name", "word-after-reduction"])
def test_a_repeated_index_generator_or_word_exits_2_with_location(tmp_path, capsys, name,
                                                                   edit, location):
    # each used to load: a cover index twice doubled the cells of every tuple through
    # it, a later generator replaced the earlier, a word walked its cells twice
    data = load_scn(name)
    edit(data)
    assert main(["run", write_scn(tmp_path, data), "--output", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert location in err and "Traceback" not in err


def test_words_without_generators_exit_2(tmp_path, capsys):
    data = load_scn("henon_z.scn")
    data["action"]["generators"] = []
    assert main(["run", write_scn(tmp_path, data), "--output", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert "action/words" in err and "Traceback" not in err
