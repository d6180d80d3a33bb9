"""What a `run` pays for: the modules it imports and the report rows it builds.

A run's BM checks use numpy core and nothing else of numpy, its scenario hash
comes from the interpreter's builtin SHA-256 rather than OpenSSL's, and its
residual checks build one report row each, the worst cell's, the same row that
verify-cocycle and witness print first.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import cocyclekit.cechgroup as cg
from cocyclekit import cli
from cocyclekit.scenario import Scenario

ROOT = pathlib.Path(__file__).resolve().parents[1]
SHIPPED = sorted((ROOT / "scenarios").glob("*.scn"))

GUARD = """
import contextlib, io, pathlib, sys
from cocyclekit import cli
from cocyclekit.scenario import Scenario
import workloads

out, root = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
paths = [pathlib.Path(p) for p in sys.argv[3:]]
for name, text in workloads.scenario_texts("mixed-checks", 2, root).items():
    (out / name).write_text(text, encoding="utf-8")
    paths.append(out / name)
for path in paths:
    scn = Scenario.load(path)
    results = cli.execute_checks(scn)
    assert all(r["status"] == "pass" for r in results), (path, results)
    cli.write_report(cli.build_report(scn, results), str(out / (path.stem + "-report.json")))
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["run", str(paths[0]), "--output", str(out / "cli-report.json")])
assert code == 0, code
loaded = sorted(m for m in sys.modules
                if m.split(".")[:2] in (["numpy", "random"], ["numpy", "polynomial"])
                or m in ("hashlib", "_hashlib"))
print(" ".join(loaded))
"""

FALLBACK = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from cocyclekit.scenario import Scenario
print(Scenario.load(sys.argv[1]).hash, "hashlib" in sys.modules)
"""

# a _sha2 module as Python 3.12+ has it, whose sha256 counts its calls
BUILTIN_SHA2 = """
import importlib, sys, types
try:
    real = importlib.import_module("_sha2").sha256
except ImportError:
    real = importlib.import_module("_sha256").sha256
calls = []
def sha256(data=b""):
    calls.append(len(data))
    return real(data)
sys.modules["_sha2"] = types.SimpleNamespace(sha256=sha256)
from cocyclekit import scenario
digest = scenario.Scenario.load(sys.argv[1]).hash
print(digest, scenario.sha256 is sha256, len(calls),
      "hashlib" in sys.modules or "_hashlib" in sys.modules)
"""


def test_a_run_imports_neither_numpy_random_nor_numpy_polynomial(tmp_path):
    # every shipped scenario and the mixed-checks ones (chart-kernel holds the BM checks)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                       str(ROOT / "perfbench")]))
    argv = [sys.executable, "-c", GUARD, str(tmp_path), str(ROOT)] + list(map(str, SHIPPED))
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == ""
    assert (tmp_path / "chart-kernel-report.json").exists()
    assert (tmp_path / "cli-report.json").exists()


def test_the_scenario_hash_is_the_sha256_of_the_file_bytes():
    for path in SHIPPED:
        assert Scenario.load(path).hash == hashlib.sha256(path.read_bytes()).hexdigest()


def test_without_a_builtin_sha256_the_hash_comes_from_hashlib():
    path = SHIPPED[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", FALLBACK, str(path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [hashlib.sha256(path.read_bytes()).hexdigest(), "True"]


def test_with_a_builtin_sha2_the_hash_comes_from_it():
    path = SHIPPED[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", BUILTIN_SHA2, str(path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [hashlib.sha256(path.read_bytes()).hexdigest(),
                                   "True", "1", "False"]


@pytest.fixture(scope="module")
def residual_scenarios(tmp_path_factory):
    """The shipped scenarios and the generated group-witness one, by path."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    path = tmp_path_factory.mktemp("scn") / "group-witness.scn"
    path.write_text(json.dumps(workloads.group_witness(2)), encoding="utf-8")
    return SHIPPED + [path]


def printed_first_row(command, path, tmp_path):
    out = tmp_path / "report.json"
    cli.main([command, str(path), "--output", str(out)])
    report = json.loads(out.read_text())
    return report["closedness" if command == "verify-cocycle" else "witness"]["cells"][0]


def test_the_run_row_is_the_first_row_of_verify_cocycle_and_witness(residual_scenarios,
                                                                      tmp_path):
    for path in residual_scenarios:
        scn = Scenario.load(path)
        checked = [("verify-cocycle", cli.run_tau_closedness)]
        if scn.atlas_b is not None:
            checked.append(("witness", cli.run_witness))
        for command, runner in checked:
            _, fields = runner(scn, {"tolerance": 1e-7})
            want = printed_first_row(command, path, tmp_path)
            assert (json.dumps(fields["worst"], indent=2, sort_keys=True)
                    == json.dumps(want, indent=2, sort_keys=True)), (path.name, command)


def test_a_run_builds_one_row_per_residual_check(residual_scenarios, monkeypatch):
    rows, described = [], []
    row, describe = cg.ResidualReport.row, cg.TermPlan.describe
    monkeypatch.setattr(cg.ResidualReport, "row",
                        lambda self, i: rows.append(i) or row(self, i))
    monkeypatch.setattr(cg.TermPlan, "describe",
                        lambda self, *args: described.append(args) or describe(self, *args))
    checks = 0
    for path in residual_scenarios:
        scn = Scenario.load(path)
        results = cli.execute_checks(scn)
        assert all(r["status"] == "pass" for r in results), path.name
        checks += sum(r["type"] in ("tau-closedness", "witness") for r in results)
    # verify-cocycle builds a row per cell; run builds the worst cell's alone
    assert checks >= 4 and len(rows) == checks
    assert len(described) <= checks
