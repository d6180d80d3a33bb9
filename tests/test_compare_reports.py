"""tools/compare_reports.py: how a difference between two reports is classified."""

import copy
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
import compare_reports  # noqa: E402

ROW = {"bidegree": [1, 1], "indices": ["u", "v"], "words": ["h"], "residual": 2.5e-16,
       "worst_point": [[0.1, 0.0], [0.2, 0.0]], "dominant_term": None}
REPORT = {"checks": [{"name": "closed", "status": "pass", "tolerance": 1e-7,
                      "max_residual": 2.5e-16, "worst": ROW},
                     {"name": "witness", "status": "pass", "tolerance": 1e-7,
                      "max_residual": 1.0e-16, "worst": ROW}],
          "cells": [ROW, dict(ROW, indices=["v", "u"], residual=0.0)],
          "pass": True}


def result(edit=None):
    """(exit code, stdout, stderr, report) of a run whose report is REPORT after edit."""
    report = copy.deepcopy(REPORT)
    if edit:
        edit(report)
    return 0, "overall: PASS\n", "", report


def test_a_key_dropped_from_one_check_is_substantive():
    verdict = compare_reports.classify(
        result(), result(lambda r: r["checks"][1].pop("tolerance")))
    assert verdict.reasons == ["report: keys differ"]


def test_a_key_dropped_from_one_cell_row_is_substantive():
    verdict = compare_reports.classify(
        result(), result(lambda r: r["cells"][1].pop("dominant_term")))
    assert verdict.reasons == ["report: keys differ"]


def test_a_difference_only_in_digits_is_digits_only():
    def digits(report):
        report["checks"][0]["max_residual"] = 3.5e-16
        report["cells"][0]["residual"] = 3.5e-16
    verdict = compare_reports.classify(result(), result(digits))
    assert verdict.reasons == [] and verdict.rose == pytest.approx(1.4)


def test_equal_reports_give_no_reasons():
    verdict = compare_reports.classify(result(), result())
    assert verdict.reasons == [] and verdict.rose == verdict.fell == 1.0


def test_each_tree_runs_its_own_scenarios_and_an_unpaired_one_differs(tmp_path, monkeypatch,
                                                                      capsys):
    shipped = compare_reports.ROOT / "scenarios"
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree in trees.values():
        (tree / "scenarios").mkdir(parents=True)
        # the mixed-checks workload reads this shipped scenario from the tree
        (tree / "scenarios" / "affine_torus.scn").write_text(
            (shipped / "affine_torus.scn").read_text(encoding="utf-8"), encoding="utf-8")
    (trees["parent"] / "scenarios" / "edited.scn").write_text('{"v": 1}', encoding="utf-8")
    (trees["change"] / "scenarios" / "edited.scn").write_text('{"v": 2}', encoding="utf-8")
    (trees["parent"] / "scenarios" / "dropped.scn").write_text("{}", encoding="utf-8")
    (trees["change"] / "scenarios" / "added.scn").write_text("{}", encoding="utf-8")
    seen = []

    def outputs(tree, scenario, command, writes, workdir):
        seen.append((pathlib.Path(tree).name, scenario.name))
        return 0, "", "", {"scenario": scenario.read_text(encoding="utf-8")}

    monkeypatch.setattr(compare_reports, "outputs", outputs)
    assert compare_reports.main(["--parent", str(trees["parent"]),
                                 "--change", str(trees["change"])]) == 1
    out = capsys.readouterr().out
    assert "DIFF added.scn: only in the change tree" in out
    assert "DIFF dropped.scn: only in the parent tree" in out
    for command, _ in compare_reports.COMMANDS:
        assert "DIFF edited.scn %s: report" % command in out
        assert "DIFF affine_torus.scn %s" % command not in out
    assert ("parent", "dropped.scn") not in seen and ("change", "added.scn") not in seen
    assert {("parent", "edited.scn"), ("change", "edited.scn")} <= set(seen)
    assert "2 inputs in one tree only" in out
