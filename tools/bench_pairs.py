#!/usr/bin/env python3
"""Paired benchmark runs of a parent and a change tree, and the BENCH file built from them.

    python tools/bench_pairs.py run --parent DIR --change DIR --seeds 31 32 ... --out RAW
    python tools/bench_pairs.py build RAW --pr 11 --parent-commit SHA --change TEXT \\
        [--claim todd3-cech:verify_s] [--extra extra.json] > BENCH_11.json

`run` runs `python3 perfbench/run.py --workload W --seed S --seconds 60 --trace 0`
from the root of each tree, for every workload of BENCHMARK.json and its
run_seconds (60), one pair per seed and workload, one run at a time; the side
that runs first alternates (the parent on odd seeds). Each run's last output
line is kept as RAW/<workload>-<seed>-<side>.json. The runs get
PYTHONDONTWRITEBYTECODE=1, and `run` exits 2 before any run when either tree
holds a __pycache__ under src/ (a cache on one side only skews setup_s by about
30%), so every run on both sides compiles the package cold.

`build` reads those files and prints the BENCH JSON: every pair, and per
workload and end-to-end metric of BENCHMARK.json the medians and quartiles of
each side (statistics.quantiles(n=4, method="inclusive")), how many pairs the
change wins, the relative change of the medians against the metric's bound,
and for --claim whether the change is better in at least 9 of 10 pairs with
medians further apart than the parent's quartile spread. --extra merges a
JSON object (sweep rows, notes) into the result.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run alternating parent/change pairs")
    run.add_argument("--parent", required=True, help="root of the parent tree")
    run.add_argument("--change", required=True, help="root of the change tree")
    run.add_argument("--seeds", type=int, nargs="+", required=True)
    run.add_argument("--out", required=True)
    build = sub.add_parser("build", help="BENCH JSON from the runs in a directory")
    build.add_argument("raw")
    build.add_argument("--pr", type=int, required=True)
    build.add_argument("--parent-commit", required=True)
    build.add_argument("--change", required=True, help="one paragraph on what changed")
    build.add_argument("--claim", help="workload:metric the change claims to improve")
    build.add_argument("--extra", help="JSON object merged into the result")
    return p.parse_args(argv)


def run_pairs(args):
    roots = {"parent": args.parent, "change": args.change}
    for side in SIDES:
        cached = sorted(pathlib.Path(roots[side], "src").rglob("__pycache__"))
        if cached:
            print("bench_pairs: the %s tree %s holds %s; delete its bytecode caches under "
                  "src/ first" % (side, roots[side], cached[0]), file=sys.stderr)
            return 2
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for seed in args.seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            for position, side in enumerate(order):
                done = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                     str(seed), "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"],
                    cwd=roots[side], env=env, capture_output=True, text=True, check=True)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                result.update(workload=workload, seed=seed, side=side, position=position)
                path = out / ("%s-%d-%s.json" % (workload, seed, side))
                path.write_text(json.dumps(result, sort_keys=True) + "\n", encoding="utf-8")
                print("%s seed %d %s: %s" % (workload, seed, side, {
                    k: round(v["value"], 4) for k, v in result["metrics"].items()}), flush=True)
    return 0


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(pairs, name, bound):
    """Per-side quartiles and pair wins of one lower-is-better metric."""
    parent = [p["parent"][name] for p in pairs]
    change = [p["change"][name] for p in pairs]
    out = {"parent": quartiles(parent), "change": quartiles(change),
           "change_better_pairs": sum(c < p for p, c in zip(parent, change)),
           "ties": sum(c == p for p, c in zip(parent, change)), "pairs": len(pairs)}
    out["median_change"] = round(out["change"]["median"] / out["parent"]["median"] - 1, 4)
    out["parent_iqr"] = round(out["parent"]["q3"] - out["parent"]["q1"], 4)
    out["bound"] = bound
    out["within_bound"] = out["median_change"] <= bound
    return out


def build(args):
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    runs = {}
    for path in sorted(pathlib.Path(args.raw).glob("*.json")):
        r = json.loads(path.read_text(encoding="utf-8"))
        runs.setdefault((r["workload"], r["seed"]), {})[r["side"]] = r
    pairs = []
    for (workload, seed), sides in sorted(runs.items()):
        if set(sides) != set(SIDES):
            raise SystemExit("%s seed %d lacks a side" % (workload, seed))
        pair = {"workload": workload, "seed": seed,
                "first": min(SIDES, key=lambda s: sides[s]["position"])}
        for side in SIDES:
            r = sides[side]
            pair[side] = {k: round(v["value"], 4) for k, v in r["metrics"].items()}
            pair[side].update(attempted=r["attempted"], failed=r["failed"],
                              correct=r["correct"])
        pairs.append(pair)
    summary = {}
    for workload in sorted({p["workload"] for p in pairs}):
        mine = [p for p in pairs if p["workload"] == workload]
        summary[workload] = {name: summarize(mine, name, bound) for name, bound in bounds.items()}
        summary[workload]["failed"] = sum(p[s]["failed"] for p in mine for s in SIDES)
    result = {"pr": args.pr, "change": args.change, "parent_commit": args.parent_commit,
              "harness": "python3 perfbench/run.py --workload <w> --seed <s> --seconds 60 "
                         "--trace 0, from the root of each tree (tools/bench_pairs.py run)",
              "seeds": sorted({p["seed"] for p in pairs}), "summary": summary}
    if args.claim:
        workload, name = args.claim.split(":")
        s = summary[workload][name]
        difference = s["parent"]["median"] - s["change"]["median"]
        result["claim"] = {"metric": name, "workload": workload,
                           "parent_median": s["parent"]["median"],
                           "change_median": s["change"]["median"],
                           "median_change": s["median_change"],
                           "change_better_pairs": s["change_better_pairs"], "pairs": s["pairs"],
                           "parent_iqr": s["parent_iqr"],
                           "median_difference": round(difference, 4),
                           "met": (s["change_better_pairs"] >= 0.9 * s["pairs"]
                                   and difference > s["parent_iqr"])}
    if args.extra:
        result.update(json.loads(pathlib.Path(args.extra).read_text(encoding="utf-8")))
    result["pairs"] = pairs
    print(json.dumps(result, indent=2))


def main(argv=None):
    args = parse_args(argv)
    if args.command == "run":
        return run_pairs(args)
    build(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
