"""Self-tests of the benchmark: inputs, gate and tracer.

    python3 -m pytest perfbench -q

Run from the root of a checkout; the program is imported from `src/`.
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from gate import Gate  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

from cocyclekit import cli  # noqa: E402
from cocyclekit.scenario import Scenario  # noqa: E402


def make_runner(paths, workdir):
    return run.Runner(cli, Scenario, paths, workdir, Gate())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(workload):
    first = workloads.scenario_texts(workload, 3, ROOT)
    assert workloads.scenario_texts(workload, 3, ROOT) == first
    assert workloads.scenario_texts(workload, 4, ROOT) != first


def test_written_scenarios_validate_and_load(tmp_path):
    for workload in workloads.WORKLOADS:
        workdir = tmp_path / workload
        workdir.mkdir()
        for path in workloads.write_scenarios(workload, 5, ROOT, workdir):
            assert Scenario.load(path).checks


def _snapshot():
    """Every cocyclekit module attribute and class attribute, by identity."""
    out = {("runners", k): v for k, v in cli.CHECK_RUNNERS.items()}
    for name, mod in list(sys.modules.items()):
        if name != "cocyclekit" and not name.startswith("cocyclekit."):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("cocyclekit"):
                for member, raw in vars(value).items():
                    out[(name, attr, member)] = raw
    return out


def test_traced_pass_matches_untraced_and_wrappers_are_removed(tmp_path):
    paths = workloads.write_scenarios("mixed-checks", 0, ROOT, tmp_path)
    runner = make_runner(paths, tmp_path)
    runner.run_pass(runner.load())
    before = _snapshot()
    with Tracer() as tracer:
        during = _snapshot()
        runner.run_pass(runner.load())
    after = _snapshot()
    # the gate compares each report, minus seconds, with the untraced first one
    assert runner.gate.attempted == 20
    assert runner.gate.failed == 0, runner.gate.messages
    assert sum(during[k] is not v for k, v in before.items()) >= 30
    changed = [k for k, v in before.items() if after.get(k) is not v]
    assert not changed
    calls, _, _ = tracer.totals()
    assert calls["invariants.eval_invariant"] > 0
    assert calls["scenario.load"] == len(paths)


def test_targets_the_program_lacks_are_skipped():
    tracer = Tracer()
    tracer._patch_method("forms.NoSuchForm", "eval", lambda f: f)
    tracer._patch_method("forms.SampledForm", "no_such_method", lambda f: f)
    tracer._patch_function("no_such_module", "run", lambda f: f)
    assert "forms.NoSuchForm.eval" in tracer.missing
    assert "forms.SampledForm.no_such_method" in tracer.missing
    assert "no_such_module.run" in tracer.missing
    assert not tracer._patches


def test_dropped_expect_on_negative_control_fails_the_gate(tmp_path):
    data = workloads.chart_kernel(1)
    control = next(c for c in data["checks"] if c.get("expect") == "fail")
    control["source_points"] = control["source_points"][:12]
    data["checks"] = [control]
    ok = tmp_path / "control.scn"
    ok.write_text(json.dumps(data))
    runner = make_runner([ok], tmp_path)
    runner.run_pass(runner.load())
    assert runner.gate.fail_ratio == 0.0

    del control["expect"]
    broken = tmp_path / "dropped.scn"
    broken.write_text(json.dumps(data))
    runner = make_runner([broken], tmp_path)
    runner.run_pass(runner.load())
    assert runner.gate.fail_ratio > 0.0


def test_empty_thread_setting_is_refused(monkeypatch):
    monkeypatch.setenv("COCYCLE_THREADS", "")
    assert "COCYCLE_THREADS" in run.preflight()
    monkeypatch.delenv("COCYCLE_THREADS")
    assert run.preflight() is None


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
