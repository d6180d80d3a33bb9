#!/usr/bin/env python3
"""Points sweep: the todd3-cech workload regenerated at larger clouds.

    python tools/points_sweep.py [--src DIR] [--sizes 32 256 1024 4096] [--passes 3]

Outside the gated benchmark workloads. For each size, one fresh interpreter
writes `perfbench/workloads.todd3_cech(SEED)` with that many points, imports
cocyclekit from --src (default: this checkout's src/), loads the scenario and
times --passes verification passes, each on a freshly loaded scenario, as
`perfbench/fresh.py` runs them (execute_checks, build_report, write_report).
It prints one JSON line per size: the time of the first Scenario.load
(`load_s`, after the import) and of json.loads on the same file (`json_s`), so
`load_s - json_s` is the load outside JSON parsing; every pass time, their
median and the process's peak RSS (ru_maxrss). Peak RSS also follows where
glibc places the heap, so after it is read one extra untimed pass, its
Scenario.load included, runs under tracemalloc: `traced_peak_mb` is the peak of
the Python and numpy allocations it holds at once. Pointing --src at another
tree, for example a git worktree of an older commit, runs that tree in the
same harness. perfbench/ is imported, never changed.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEED = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--src", default=str(ROOT / "src"), help="directory holding cocyclekit/")
    p.add_argument("--sizes", type=int, nargs="+", default=[32, 256, 1024, 4096])
    p.add_argument("--passes", type=int, default=3)
    p.add_argument("--child", type=int, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child(args, workdir):
    """One size in this interpreter: write, load and time passes; print one JSON line."""
    import resource
    import tracemalloc
    import warnings

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads
    from fresh import verify_pass

    workloads.TODD3_POINTS = args.child
    path = pathlib.Path(workdir) / "todd3-cech.scn"
    path.write_text(json.dumps(workloads.todd3_cech(SEED)), encoding="utf-8")
    warnings.simplefilter("ignore")
    sys.path.insert(0, args.src)
    from cocyclekit import cli
    from cocyclekit.scenario import Scenario

    started = time.perf_counter()
    Scenario.load(path)
    load_s = time.perf_counter() - started
    started = time.perf_counter()
    json.loads(path.read_bytes())
    json_s = time.perf_counter() - started

    def verified_pass(k):
        scn = Scenario.load(path)
        wall, outputs = verify_pass(cli, [scn], [path], pathlib.Path(workdir), "%d-" % k)
        results = outputs[0][2]
        if any(r["status"] != "pass" for r in results):
            raise SystemExit("pass %d at %d points failed: %r" % (k, args.child, results))
        return round(wall, 4)

    passes = [verified_pass(k) for k in range(args.passes)]
    peak_rss_mb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
    tracemalloc.start()
    verified_pass(args.passes)
    traced_peak_mb = round(tracemalloc.get_traced_memory()[1] / 2**20, 1)
    tracemalloc.stop()
    print(json.dumps({"points": args.child, "src": args.src, "load_s": round(load_s, 4),
                      "json_s": round(json_s, 4),
                      "pass_s": passes, "median_s": statistics.median(passes),
                      "peak_rss_mb": peak_rss_mb, "traced_peak_mb": traced_peak_mb}))


def main(argv=None):
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="points-sweep-") as workdir:
        if args.child is not None:
            child(args, workdir)
            return 0
        for size in args.sizes:
            out = subprocess.run(
                [sys.executable, __file__, "--src", args.src, "--passes", str(args.passes),
                 "--child", str(size)],
                capture_output=True, text=True, check=False)
            if out.returncode:
                sys.stderr.write(out.stderr)
                return out.returncode
            print(out.stdout.strip().splitlines()[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
