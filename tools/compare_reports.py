#!/usr/bin/env python3
"""Compare every CLI output of two trees, apart from `seconds`.

    python tools/compare_reports.py --parent DIR --change DIR

The inputs are every `scenarios/*.scn` of the change tree and the scenarios of
both benchmark workloads at seeds 2, 3 and 7, written by
`perfbench/workloads.py` of this checkout (imported, never changed). Each tree
runs `run`, `todd-cocycle`, `verify-cocycle`, `group-invariant` and `witness`
on every input, one process at a time, with its own `src/` on PYTHONPATH. A
subcommand that does not apply to an input (`witness` without a second atlas)
exits 2, and that exit and its message are compared too.

For every (input, command) pair the exit code, standard output, standard error
and written report must be equal; reports are compared as JSON with every
`seconds` key removed. It prints one line per difference and a summary, and
exits 1 if anything differs.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEEDS = (2, 3, 7)
# (subcommand, whether it writes a report through --output)
COMMANDS = (("run", True), ("todd-cocycle", True), ("verify-cocycle", True),
            ("group-invariant", False), ("witness", True))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="root of the parent tree")
    p.add_argument("--change", required=True, help="root of the change tree")
    return p.parse_args(argv)


def write_inputs(change, workdir):
    """Paths of the input scenarios, written into workdir; equal texts are written once."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    texts = {p.name: p.read_text(encoding="utf-8")
             for p in sorted((pathlib.Path(change) / "scenarios").glob("*.scn"))}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for name, text in workloads.scenario_texts(workload, seed, ROOT).items():
                if text not in texts.values():
                    texts["%s-%d-%s" % (workload, seed, name)] = text
    paths = []
    for name, text in texts.items():
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def without_seconds(obj):
    if isinstance(obj, dict):
        return {k: without_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [without_seconds(v) for v in obj]
    return obj


def outputs(tree, scenario, command, writes, workdir):
    """(exit code, stdout, stderr, report without seconds) of one command on one tree."""
    report = workdir / "report.json"
    report.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "cocyclekit.cli", command, str(scenario)]
    if writes:
        argv += ["--output", str(report)]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(tree) / "src"))
    out = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True,
                         check=False)
    written = (without_seconds(json.loads(report.read_text(encoding="utf-8")))
               if report.exists() else None)
    return out.returncode, out.stdout.replace(str(workdir), "<dir>"), \
        out.stderr.replace(str(workdir), "<dir>"), written


def main(argv=None):
    args = parse_args(argv)
    differences = compared = 0
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as tmp:
        tmp = pathlib.Path(tmp)
        inputs = tmp / "inputs"
        inputs.mkdir()
        runs = {side: tmp / side for side in ("parent", "change")}
        for workdir in runs.values():
            workdir.mkdir()
        for scenario in write_inputs(args.change, inputs):
            for command, writes in COMMANDS:
                got = {side: outputs(getattr(args, side), scenario, command, writes, workdir)
                       for side, workdir in runs.items()}
                compared += 1
                for part, a, b in zip(("exit code", "stdout", "stderr", "report"),
                                      got["parent"], got["change"]):
                    if a != b:
                        differences += 1
                        print("DIFF %s %s: %s" % (scenario.name, command, part), flush=True)
    print("%d (input, command) pairs compared, %d differences" % (compared, differences))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
