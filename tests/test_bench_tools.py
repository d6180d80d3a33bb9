"""tools/bench_pairs.py and tools/points_sweep.py: what they refuse and what they record."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import bench_pairs  # noqa: E402


def test_run_refuses_a_tree_with_a_bytecode_cache_under_src(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    (parent / "src" / "cocyclekit").mkdir(parents=True)
    (change / "src" / "cocyclekit" / "__pycache__").mkdir(parents=True)
    out = tmp_path / "raw"
    assert bench_pairs.main(["run", "--parent", str(parent), "--change", str(change),
                             "--seeds", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "change" in err and str(change / "src" / "cocyclekit" / "__pycache__") in err
    assert not out.exists()


def test_run_compiles_every_run_cold(tmp_path, monkeypatch):
    envs = []

    def fake_run(argv, cwd, env, **kwargs):
        envs.append(env)
        metrics = {m["name"]: {"value": 1.0} for m in bench_pairs.BENCHMARK["end_to_end"]}
        line = json.dumps({"metrics": metrics, "attempted": 1, "failed": 0, "correct": True})
        return subprocess.CompletedProcess(argv, 0, stdout=line + "\n", stderr="")

    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    for side in bench_pairs.SIDES:
        (tmp_path / side / "src").mkdir(parents=True)
    out = tmp_path / "raw"
    assert bench_pairs.main(["run", "--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--seeds", "1", "--out", str(out)]) == 0
    # one run per side and workload, none of which may write a __pycache__ into src/
    assert len(envs) == 2 * len(bench_pairs.BENCHMARK["workloads"])
    assert all(env["PYTHONDONTWRITEBYTECODE"] == "1" for env in envs)
    assert len(list(out.glob("*.json"))) == len(envs)


def test_points_sweep_reports_the_traced_peak_next_to_peak_rss():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "points_sweep.py"),
                           "--sizes", "32", "--passes", "1"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    row = json.loads(done.stdout.strip().splitlines()[-1])
    assert row["points"] == 32 and len(row["pass_s"]) == 1
    # the traced allocations are part of what the process holds
    assert 0 < row["traced_peak_mb"] < row["peak_rss_mb"]
