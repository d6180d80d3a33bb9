#!/usr/bin/env python3
"""cocyclekit benchmark: one workload, closed loop, one caller.

    python3 perfbench/run.py --workload todd3-cech --seed 1 --seconds 60 --trace 0

Run from the root of a checkout; the program is imported from `src/`. Each
verification pass drives the path `cocyclekit run` takes (`Scenario.load`,
`cli.execute_checks`, `build_report`, `write_report`) over the workload's
scenario files; the next pass starts only when the previous one has returned,
and every pass goes through the correctness gate. The benchmark starts no
threads of its own; `execute_checks` uses the program's own pool. Untraced
passes run in fresh interpreters (perfbench/fresh.py), started one at a time,
each waited for, so that set-up and first passes are timed as a CLI user pays
them.

With `--trace 0` the last line of standard output carries the end-to-end
metrics; with `--trace 1` it carries the per-layer metrics of traced passes,
interleaved with untraced passes that give the tracing overhead. The line
before it records the machine and environment. See README.md in this
directory for what each workload and metric is for.
"""

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time
import warnings

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402  (benchmark-local modules, need HERE on sys.path)
from fresh import verify_pass  # noqa: E402
from gate import Gate  # noqa: E402

SETUP_SAMPLES = 9          # fresh interpreters timed for setup_s, at least
PASSES_PER_PROCESS = 2     # a first pass and a later one in each sample process
MIN_PROCESSES = 2          # sample processes that run passes, whatever --seconds says
MIN_TRACED_PASSES = 2      # so that every count can be compared across passes
CHILD_TIMEOUT_S = 150

END_TO_END = (("setup_s", "s"), ("first_verify_s", "s"), ("verify_s", "s"),
              ("peak_rss_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def preflight():
    """Refuse to run without the program's sources or with a broken environment."""
    missing = [str(p.relative_to(ROOT)) for p in
               (SRC / "cocyclekit" / "cli.py", ROOT / "docs" / "scenario.schema.json",
                ROOT / "scenarios" / workloads.AFFINE)
               if not p.is_file()]
    if missing:
        return "not a cocyclekit checkout, missing: %s" % ", ".join(missing)
    threads = os.environ.get("COCYCLE_THREADS")
    if threads is not None and not threads.isdigit():
        return ("COCYCLE_THREADS=%r is not a whole number, and cli.execute_checks "
                "raises ValueError on it; unset it" % threads)
    return None


def environment(args):
    """Machine, interpreter and program settings the numbers depend on."""
    import concurrent.futures

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        commit = out.stdout.strip() or "unknown"
    threads = os.environ.get("COCYCLE_THREADS")
    workers = int(threads or "0") or None
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        pool_size = getattr(pool, "_max_workers", None)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "COCYCLE_THREADS": "unset" if threads is None else threads,
        "pool_workers": 0 if workers == 1 else pool_size,
        "pool_used_when": "a scenario has more than one check",
    }


class Clock:
    """Times each kind of sample, and tells whether another one ends before --seconds."""

    def __init__(self, seconds):
        self.deadline = time.perf_counter() + seconds
        self.took = {}

    def time(self, kind, fn, *args):
        started = time.perf_counter()
        value = fn(*args)
        self.took[kind] = time.perf_counter() - started
        return value

    def fits(self, kind, reserve=0.0):
        """Whether a sample of this kind, as long as the last one, leaves `reserve` seconds."""
        return time.perf_counter() + self.took.get(kind, 0.0) + reserve <= self.deadline


class Runner:
    """Closed-loop pass runner over one workload's scenario files."""

    def __init__(self, cli, scenario_cls, paths, workdir, gate):
        self.cli = cli
        self.scenario_cls = scenario_cls
        self.paths = paths
        self.workdir = workdir
        self.gate = gate

    def load(self):
        return [self.scenario_cls.load(p) for p in self.paths]

    def reload_and_run(self):
        """A later pass: reload the scenarios untimed, so per-object caches start cold."""
        return self.run_pass(self.load())

    def run_pass(self, scns):
        """Time one pass, then gate its reports; return (wall seconds, outputs)."""
        wall, outputs = verify_pass(self.cli, scns, self.paths, self.workdir)
        self.judge(outputs)
        return wall, outputs

    def judge(self, outputs):
        for scn, path, _, out in outputs:
            self.gate.check(path.name, scn.checks, out.read_text(encoding="utf-8"))

    def fresh_sample(self, scns, index, passes):
        """Set-up and `passes` passes of a new interpreter, each pass gated."""
        prefix = "fresh%d-" % index
        out = subprocess.run(
            [sys.executable, str(HERE / "fresh.py"), str(SRC), str(self.workdir), prefix,
             str(passes), *map(str, self.paths)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True, cwd=str(ROOT))
        for k in range(passes):
            self.judge([(scn, path, None,
                         self.workdir / ("%s%d-%s-report.json" % (prefix, k, path.stem)))
                        for scn, path in zip(scns, self.paths)])
        return json.loads(out.stdout.strip().splitlines()[-1])


def report_metrics(outputs, wall):
    """Per-pass cli metrics read from the reports themselves."""
    from tracer import CHECK_TYPES

    per_type = {"cli.check_s.%s" % t: 0.0 for t in CHECK_TYPES}
    total = 0.0
    worst = 0.0
    for scn, _, results, _ in outputs:
        for entry, r in zip(scn.checks, results):
            key = "cli.check_s.%s" % r["type"]
            if key in per_type:
                per_type[key] += r["seconds"]
            total += r["seconds"]
            if entry.get("expect") != "fail":
                worst = max(worst, r.get("max_residual", 0.0))
    per_type["cli.check_overlap"] = total / wall
    per_type["cli.max_residual"] = worst
    return per_type


def measure(args, runner, scns):
    """Untraced run; returns the end-to-end metrics and the raw samples.

    Every pass runs in a fresh interpreter, one after another: each times its
    set-up (setup_s), a first pass (first_verify_s) and a later pass on freshly
    loaded scenarios (verify_s), and reports its peak RSS. The host gives one
    process a speed of its own for as long as it lives, so samples of a metric
    drawn from one process would move together; drawn from many, their median
    is steady. No process starts that would end after --seconds, once the
    minimum count is met; the time the remaining set-up-only interpreters take
    is kept free for them.
    """
    clock = Clock(args.seconds)
    setup = [clock.time("setup", runner.fresh_sample, scns, 0, 0)["setup_s"]]
    first, later, rss = [], [], []
    while True:
        reserve = max(0, SETUP_SAMPLES - len(setup) - 1) * clock.took["setup"]
        if len(first) >= MIN_PROCESSES and not clock.fits("passes", reserve):
            break
        sample = clock.time("passes", runner.fresh_sample, scns, len(first) + 1,
                            PASSES_PER_PROCESS)
        setup.append(sample["setup_s"])
        first.append(sample["pass_s"][0])
        later.extend(sample["pass_s"][1:])
        rss.append(sample["peak_rss_mb"])
    while len(setup) < SETUP_SAMPLES:
        setup.append(runner.fresh_sample(scns, 0, 0)["setup_s"])
    values = {
        "setup_s": statistics.median(setup),
        "first_verify_s": statistics.median(first),
        "verify_s": statistics.median(later),
        "peak_rss_mb": statistics.median(rss),
    }
    metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
    info = {"setup_s": setup, "first_pass_s": first, "later_pass_s": later, "peak_rss_mb": rss}
    return metrics, info


def measure_traced(args, runner, scns):
    """Traced run: alternate untraced and traced passes after an untraced first one."""
    from tracer import PER_LAYER, Tracer, layer_metrics

    clock = Clock(args.seconds)
    clock.time("untraced", runner.run_pass, scns)
    untraced, traced, layers = [], [], []

    def traced_pass():
        with Tracer() as tracer:
            return tracer, runner.reload_and_run()

    while True:
        kind = "untraced" if len(untraced) <= len(traced) else "traced"
        if untraced and len(traced) >= MIN_TRACED_PASSES and not clock.fits(kind):
            break
        if kind == "untraced":
            untraced.append(clock.time(kind, runner.reload_and_run)[0])
            continue
        tracer, (wall, outputs) = clock.time(kind, traced_pass)
        traced.append(wall)
        row = layer_metrics(tracer)
        row.update(report_metrics(outputs, wall))
        layers.append(row)

    counted = [name for name, unit in PER_LAYER
               if unit == "count" or name.endswith("hit_ratio") or name.endswith("zero_ratio")]
    unstable = sorted(n for n in counted if n in layers[0]
                      and len({row[n] for row in layers}) > 1)
    for name in unstable:
        print("perfbench: count %s differs across traced passes: %s"
              % (name, [row[name] for row in layers]), file=sys.stderr)
    for target in tracer.missing:
        print("perfbench: not traced, the program has no %s" % target, file=sys.stderr)
    units = dict(PER_LAYER)
    values = {name: statistics.median(row[name] for row in layers)
              for name in layers[0]}
    values["trace.verify_s"] = statistics.median(traced)
    values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    values["trace.unstable_counts"] = len(unstable)
    values["gate.check_fail_ratio"] = runner.gate.fail_ratio
    metrics = {n: {"value": values[n], "unit": units[n]} for n, _ in PER_LAYER}
    info = {"untraced_pass_s": untraced, "traced_pass_s": traced,
            "unstable_counts": unstable, "not_traced": tracer.missing}
    return metrics, info


def main(argv=None):
    args = parse_args(argv)
    problem = preflight()
    if problem:
        print("perfbench: %s" % problem, file=sys.stderr)
        return 2
    workroot = ROOT / ".perfbench-work"
    workdir = workroot / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = workloads.write_scenarios(args.workload, args.seed, ROOT, workdir)
        warnings.simplefilter("ignore")  # thin-cloud warnings are expected on the affine file

        sys.path.insert(0, str(SRC))
        from cocyclekit import cli
        from cocyclekit.scenario import Scenario

        if pathlib.Path(cli.__file__).resolve().parents[1] != SRC:
            raise RuntimeError("imported cocyclekit from %s, not %s" % (cli.__file__, SRC))
        runner = Runner(cli, Scenario, paths, workdir, Gate())
        env = environment(args)
        measure_run = measure_traced if args.trace else measure
        metrics, info = measure_run(args, runner, runner.load())
        gate = runner.gate
        for message in gate.messages[:20]:
            print("perfbench: gate: %s" % message, file=sys.stderr)
        print(json.dumps({"env": env, "passes": info,
                          "check_fail_ratio": gate.fail_ratio}, sort_keys=True))
        print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                          "failed": gate.failed, "metrics": metrics}, sort_keys=True))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
