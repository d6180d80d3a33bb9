#!/usr/bin/env python3
"""Compare every CLI output of two trees, apart from `seconds`.

    python tools/compare_reports.py --parent DIR --change DIR

Each tree's inputs are its own `scenarios/*.scn` and the scenarios of both
benchmark workloads at seeds 2, 3 and 7, written by `perfbench/workloads.py`
of this checkout (imported, never changed), a shipped scenario of a workload
read from the tree. Inputs are paired by file name, and an input that only one
tree has is a difference. Each tree runs `run`, `todd-cocycle`,
`verify-cocycle`, `group-invariant` and `witness` on every one of its paired
inputs, one process at a time, with its own `src/` on PYTHONPATH. A subcommand
that does not apply to an input (`witness` without a second atlas) exits 2,
and that exit and its message are compared too.

For every (input, command) pair the exit code, standard output, standard error
and written report must be equal; reports are compared as JSON with every
`seconds` key removed, and the directories of the run and of the input are
written as `<dir>` and `<inputs>` in printed text. An edited shipped scenario
differs at least in its `scenario_hash`. It prints one line per difference and
a summary, and exits 1 if anything differs.

Each (input, command) pair that differs is also classified. It is "digits
only" when the exit codes are equal, every `status` and `pass` is equal, the
JSON keys are the same in every list item and every cell row, every number
that is bitwise zero in the parent is bitwise zero in the change, and every
residual (`max_residual`, `residual`, `max_residual_h`, `max_residual_h_half`,
a numeric `error`, and every number in a printed line that is not JSON) is
within a factor of 10 of the parent's.
Otherwise it is "substantive", with the reasons. Rows of cells (objects with
`indices` and `words`) are matched by cell, not by position, since reports
sort them by residual. Sample coordinates (`point`, `worst_point`) and the
`dominant_term` at the worst point only say where a value sits, so they move
with the digits and are not compared. The summary gives the largest residual
ratios in both directions, and how many substantive pairs differ only by
residuals that fell more than tenfold or became exact zeros.
"""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEEDS = (2, 3, 7)
RESIDUALS = ("max_residual", "residual", "max_residual_h", "max_residual_h_half", "error")
# where a value sits or which term dominates there: they move with the digits
LOCATIONS = ("point", "worst_point", "dominant_term")
FACTOR = 10.0
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
# (subcommand, whether it writes a report through --output)
COMMANDS = (("run", True), ("todd-cocycle", True), ("verify-cocycle", True),
            ("group-invariant", False), ("witness", True))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="root of the parent tree")
    p.add_argument("--change", required=True, help="root of the change tree")
    return p.parse_args(argv)


def write_inputs(tree, workdir):
    """{file name: path} of one tree's input scenarios, written into workdir; equal
    texts are written once."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    tree = pathlib.Path(tree)
    texts = {p.name: p.read_text(encoding="utf-8")
             for p in sorted((tree / "scenarios").glob("*.scn"))}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for name, text in workloads.scenario_texts(workload, seed, tree).items():
                if text not in texts.values():
                    texts["%s-%d-%s" % (workload, seed, name)] = text
    workdir.mkdir()
    paths = {}
    for name, text in texts.items():
        paths[name] = workdir / name
        paths[name].write_text(text, encoding="utf-8")
    return paths


def without_seconds(obj):
    if isinstance(obj, dict):
        return {k: without_seconds(v) for k, v in obj.items() if k != "seconds"}
    if isinstance(obj, list):
        return [without_seconds(v) for v in obj]
    return obj


def canonical(obj):
    """obj with rows of cells keyed by their cell, so that order does not matter."""
    if isinstance(obj, dict):
        return {k: canonical(v) for k, v in obj.items()}
    if isinstance(obj, list):
        if obj and all(isinstance(v, dict) and "indices" in v and "words" in v for v in obj):
            return {json.dumps([v.get("bidegree"), v["indices"], v["words"]]): canonical(v)
                    for v in obj}
        return [canonical(v) for v in obj]
    return obj


def key_paths(obj, path=""):
    """The paths of obj's keys: the items of a list by position, rows of cells by
    their cell, as canonical keys them."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            inner = path + "/" + k
            yield inner
            yield from key_paths(v, inner)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from key_paths(v, "%s[%d]" % (path, i))


class Verdict:
    """Reasons a difference is substantive, and the residual ratios seen."""

    def __init__(self):
        self.reasons = []
        self.rose = self.fell = 1.0  # largest change/parent and parent/change
        self.only_lower = True  # every reason is a residual that fell

    def substantive(self, reason, lower=False):
        self.reasons.append(reason)
        self.only_lower = self.only_lower and lower

    def residual(self, where, a, b):
        if a == b:
            return
        if a == 0 or b == 0:
            self.substantive("%s: residual %r -> %r, exact zero %s"
                             % (where, a, b, "lost" if a == 0 else "gained"), lower=b == 0)
            return
        self.rose = max(self.rose, abs(b / a))
        self.fell = max(self.fell, abs(a / b))
        if not max(abs(b / a), abs(a / b)) <= FACTOR:
            self.substantive("%s: residual %r -> %r" % (where, a, b), lower=abs(b) < abs(a))

    def walk(self, a, b, where="", key=None):
        """Compare two canonical JSON values leaf by leaf."""
        if isinstance(a, dict) and isinstance(b, dict):
            for k in a.keys() & b.keys():
                if k not in LOCATIONS:
                    self.walk(a[k], b[k], where + "/" + k, k)
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for i, (x, y) in enumerate(zip(a, b)):
                self.walk(x, y, "%s[%d]" % (where, i), key)
        elif _is_number(a) and _is_number(b):
            if key in RESIDUALS:
                self.residual(where, a, b)
            elif a == 0 and b != 0:
                self.substantive("%s: %r -> %r, exact zero lost" % (where, a, b))
        elif key in ("status", "pass") or type(a) is not type(b):
            if a != b:
                self.substantive("%s: %r -> %r" % (where, a, b))
        elif isinstance(a, list) and len(a) != len(b):
            self.substantive("%s: %d -> %d entries" % (where, len(a), len(b)))

    def text(self, name, a, b):
        """Printed lines: JSON is walked, other text compared with its numbers taken out."""
        try:
            a, b = json.loads(a), json.loads(b)
        except ValueError:
            if NUMBER.sub("#", a) != NUMBER.sub("#", b):
                self.substantive("%s: text differs beyond its numbers" % name)
                return
            for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
                self.residual(name, float(x), float(y))
            return
        self.tree(name, a, b)

    def tree(self, name, a, b):
        a, b = canonical(a), canonical(b)
        if set(key_paths(a)) != set(key_paths(b)):
            self.substantive("%s: keys differ" % name)
        self.walk(a, b, name)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def classify(parent, change):
    """A Verdict on two (exit code, stdout, stderr, report) results."""
    verdict = Verdict()
    if parent[0] != change[0]:
        verdict.substantive("exit code %d -> %d" % (parent[0], change[0]))
    for name, a, b in (("stdout", parent[1], change[1]), ("stderr", parent[2], change[2])):
        if a != b:
            verdict.text(name, a, b)
    if parent[3] != change[3]:
        if parent[3] is None or change[3] is None:
            verdict.substantive("report written by one side only")
        else:
            verdict.tree("report", parent[3], change[3])
    return verdict


def outputs(tree, scenario, command, writes, workdir):
    """(exit code, stdout, stderr, report without seconds) of one command on one tree."""
    report = workdir / "report.json"
    report.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "cocyclekit.cli", command, str(scenario)]
    if writes:
        argv += ["--output", str(report)]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(tree).resolve() / "src"))
    out = subprocess.run(argv, cwd=workdir, env=env, capture_output=True, text=True,
                         check=False)
    written = (without_seconds(json.loads(report.read_text(encoding="utf-8")))
               if report.exists() else None)

    def text(s):
        return s.replace(str(workdir), "<dir>").replace(str(scenario.parent), "<inputs>")

    return out.returncode, text(out.stdout), text(out.stderr), written


def main(argv=None):
    args = parse_args(argv)
    differences = compared = differing = substantive = lower = unpaired = 0
    rose = fell = 1.0
    with tempfile.TemporaryDirectory(prefix="compare-reports-") as tmp:
        tmp = pathlib.Path(tmp)
        runs = {side: tmp / side for side in ("parent", "change")}
        for workdir in runs.values():
            workdir.mkdir()
        inputs = {side: write_inputs(getattr(args, side), tmp / ("inputs-" + side))
                  for side in runs}
        for name in sorted(inputs["parent"].keys() | inputs["change"].keys()):
            only = [side for side in runs if name in inputs[side]]
            if len(only) == 1:
                differences += 1
                unpaired += 1
                print("DIFF %s: only in the %s tree" % (name, only[0]), flush=True)
                continue
            for command, writes in COMMANDS:
                got = {side: outputs(getattr(args, side), inputs[side][name], command, writes,
                                     workdir)
                       for side, workdir in runs.items()}
                compared += 1
                parts = [part for part, a, b in zip(("exit code", "stdout", "stderr", "report"),
                                                    got["parent"], got["change"]) if a != b]
                for part in parts:
                    differences += 1
                    print("DIFF %s %s: %s" % (name, command, part), flush=True)
                if not parts:
                    continue
                verdict = classify(got["parent"], got["change"])
                differing += 1
                substantive += bool(verdict.reasons)
                lower += bool(verdict.reasons) and verdict.only_lower
                rose, fell = max(rose, verdict.rose), max(fell, verdict.fell)
                print("  %s %s: %s; residuals up to %.3gx higher, %.3gx lower" % (
                    name, command,
                    "substantive" if verdict.reasons else "digits only", verdict.rose,
                    verdict.fell))
                for reason in verdict.reasons:
                    print("    " + reason)
    print("%d (input, command) pairs compared, %d inputs in one tree only, %d differences"
          % (compared, unpaired, differences))
    print("%d differing pairs: %d digits only, %d substantive (%d of them only by residuals "
          "that fell more than %gx or became exact zeros)"
          % (differing, differing - substantive, substantive, lower, FACTOR))
    print("largest residual ratio %.3g: up to %.3gx higher, %.3gx lower"
          % (max(rose, fell), rose, fell))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
