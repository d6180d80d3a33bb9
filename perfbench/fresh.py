"""One sample process of the benchmark, and the verification pass it times.

    python3 perfbench/fresh.py SRC OUTDIR PREFIX PASSES SCENARIO...

run as a child of run.py, imports cocyclekit from SRC and loads the scenarios.
It then runs PASSES verification passes, reloading the scenarios untimed before
every pass after the first, and writes the reports of pass k to OUTDIR as
PREFIX<k>-<scenario>-report.json. It prints a JSON object with `setup_s` (from
just before the import until the last `Scenario.load` returns), `pass_s` (the
wall time of each pass, first pass first) and `peak_rss_mb`. Nothing is
imported ahead of the timed import except the standard library.
"""

import gc
import json
import sys
import time


def verify_pass(cli, scns, paths, outdir, prefix=""):
    """What `cocyclekit run` does for each scenario; returns (wall, outputs)."""
    outputs = []
    gc.collect()
    started = time.perf_counter()
    for scn, path in zip(scns, paths):
        results = cli.execute_checks(scn)
        report = cli.build_report(scn, results)
        out = outdir / ("%s%s-report.json" % (prefix, path.stem))
        cli.write_report(report, str(out))
        outputs.append((scn, path, results, out))
    return time.perf_counter() - started, outputs


def main(argv):
    src, outdir, prefix, passes, scenario_paths = argv[0], argv[1], argv[2], argv[3], argv[4:]
    import pathlib
    import resource
    import warnings

    warnings.simplefilter("ignore")
    started = time.perf_counter()
    sys.path.insert(0, src)
    from cocyclekit import cli
    from cocyclekit.scenario import Scenario

    scns = [Scenario.load(p) for p in scenario_paths]
    sample = {"setup_s": time.perf_counter() - started, "pass_s": []}
    paths = [pathlib.Path(p) for p in scenario_paths]
    for k in range(int(passes)):
        if k:
            scns = [Scenario.load(p) for p in scenario_paths]
        wall, _ = verify_pass(cli, scns, paths, pathlib.Path(outdir), "%s%d-" % (prefix, k))
        sample["pass_s"].append(wall)
    sample["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(sample))


if __name__ == "__main__":
    main(sys.argv[1:])
