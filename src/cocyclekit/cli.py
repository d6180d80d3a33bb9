"""Command line entry points: scenario runs, symmetric function tables, BM checks.

Exit codes: 0 all checks pass, 1 any check failed or errored, 2 the scenario
(or arguments) failed validation. Checks run in declaration order and never
abort the batch; the report is written even when some fail.

Each check runner returns whether its check held and its report fields; verdict
alone writes the status, inverted for a negative control ("expect": "fail").
"""

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .bm import dbar_closed_check, gauss_legendre, reproducing_integral, sphere_probes
from .cechgroup import (SIGN_CONVENTION, cell_values, closedness_report, cohomologous_witness,
                        require_cells, witness_report)
from .cocycle import LabelPlan
from .errors import DomainError, ScenarioError, ValidationError, nan_worst
from .holomap import ChainTable, compose
from .invariants import (ELEMENTARY, POWER, SymFun, chern_character_component,
                         format_symfun, newton_convert, todd_component, todd_invariant)
from .scenario import Scenario, validate_bm_fields, validate_check_fields


# ---------------------------------------------------------------------------
# check runners: each returns (whether the check held, its report fields)


def run_affine_vanishing(scn, entry):
    tau = scn.tau(scn.atlas, entry.get("arity", scn.n))
    moduli = [v.max_abs() for _, _, _, values in cell_values(tau) for v in values]
    require_cells(len(moduli), tau.bidegrees())
    worst = max(moduli, key=nan_worst)
    return worst == 0.0, {"max_residual": worst, "cells": len(moduli),
                          "detail": "exact zero required; values are bitwise zero"
                          if worst == 0.0 else "nonzero coefficient found"}


def run_tau_closedness(scn, entry):
    tau = scn.tau(scn.atlas, entry.get("arity", scn.n))
    return _residual_fields(closedness_report(tau, tol=entry["tolerance"]))


def scenario_witness_report(scn, arity, tol):
    """witness_report of the witness between atlas and atlas_b against both taus."""
    wit = cohomologous_witness(scn.cover, scn.action, scn.atlas, scn.atlas_b,
                               todd_invariant(arity))
    return witness_report(wit, scn.tau(scn.atlas, arity), scn.tau(scn.atlas_b, arity),
                          tol=tol)


def run_witness(scn, entry):
    return _residual_fields(scenario_witness_report(scn, entry.get("arity", scn.n),
                                                    entry["tolerance"]))


def run_simplex_faces(scn, entry):
    """telescoping and dk-validate: the face sums on every (k+1)-cell of the chart
    simplex, its tau's Cech differential on increasing tuples, with the worst cell
    and dominant face named by chart positions. A telescoping simplex is a single
    (k+1)-cell, so its result names no cell."""
    report = closedness_report(scn.tau(*entry["simplex"]), tol=entry["tolerance"], increasing=True)
    row = report.worst()
    term = row["dominant_term"]
    fields = {"max_residual": report.max_residual, "worst_point": row["worst_point"],
              "dominant_term": term and {"face": list(map(int, term["indices"])),
                                         "sign": term["coefficient"], "modulus": term["modulus"]}}
    if entry["type"] == "dk-validate":
        fields["worst_cell"] = str(tuple(map(int, row["indices"])))
    return report.passed, fields


def run_theta_composition(scn, entry):
    """The label plan's composition rule against the symbolic oracle: per pair (f, g),
    theta of compose(f, g) (left) and of the chain f . g (right) on the check's
    points; residual max|L - R| / (1 + max|L|).

    One LabelPlan counts both sides of every pair before it takes any
    (LabelPlan.count_theta), so a theta of one map on one cloud that several
    pairs read is evaluated once, and the thetas of a map are evaluated in one
    batch. The sides are then taken pair by pair, left before right. An error
    raised while a pair is counted (a map evaluated on a cloud) is raised in
    that pair's turn, after the left side is taken, so the check reports the
    error of the first pair that fails, as if the pairs ran one after another.
    """
    P = entry["points"]
    table = ChainTable()
    plan = LabelPlan(None, table)
    counted = []  # per pair: (its sides' keys, the error its counting raised)
    for fname, gname in entry["pairs"]:
        keys = []
        try:
            f = scn.map_named(fname, "theta-composition")
            g = scn.map_named(gname, "theta-composition")
            for chain in ((table.map(compose(f, g)),), (table.map(f), table.map(g))):
                keys.append(plan.count_theta(table.chain(chain), 0, P))
        except Exception as err:  # raised in this pair's turn; later pairs never run
            counted.append((keys, err))
            break
        counted.append((keys, None))
    rows = []
    for (fname, gname), (keys, err) in zip(entry["pairs"], counted):
        sides = [plan.take_theta(k, P) for k in keys]
        if err is not None:
            raise err
        lhs, rhs = sides
        rel = float(np.max(np.abs(lhs.values - rhs.values))) / (1.0 + lhs.max_abs())
        rows.append({"pair": [fname, gname], "residual": rel})
    worst = max((row["residual"] for row in rows), key=nan_worst)
    return worst <= entry["tolerance"], {"max_residual": worst, "pairs": rows}


def run_bm_dbar(scn, entry):
    n = entry.get("n", 2)
    h = entry.get("step", 1e-3)
    count = entry.get("probes", 12)
    z = tuple(entry.get("z", [0.0] * n))
    report = dbar_closed_check(n, z, sphere_probes(z, count, entry.get("seed", 5)), h)
    held = report["pass"] and report["order_two"]
    return held, dict(report, max_residual=report["max_residual_h"])


def run_bm_reproducing(scn, entry):
    order = entry.get("order", 32)
    radii = entry.get("radii", [0.5, 1.0, 2.0])
    z = entry.get("z", [0.0, 0.0])
    rule = gauss_legendre(order)
    rows = []
    for r in radii:
        val = reproducing_integral(z=z, radius=r, order=order, rule=rule)
        err = abs(val - 1.0)
        rows.append({"radius": r, "value": [val.real, val.imag], "error": err})
    worst = max((row["error"] for row in rows), key=nan_worst)
    return worst <= entry["tolerance"], {"max_residual": worst, "radii": rows}


def _residual_fields(report):
    """(pass flag, report fields) of a closedness or witness ResidualReport: its
    maximum and the row of its worst cell, the only row built."""
    return report.passed, {"max_residual": report.max_residual, "worst": report.worst()}


def verdict(entry, held, fields):
    """A check's result: its report fields and status, pass when the check held.

    A negative control ("expect": "fail") passes when its check did not hold;
    its detail then says whether it tripped. held is None for a check that
    raised, whose status is "error" whatever it expects.
    """
    if held is None:
        return dict(fields, status="error")
    if entry.get("expect") == "fail":
        held = not held
        fields = dict(fields, detail="negative control: failure expected and observed" if held
                      else "negative control did not trip")
    return dict(fields, status="pass" if held else "fail")


CHECK_RUNNERS = {
    "affine-vanishing": run_affine_vanishing,
    "tau-closedness": run_tau_closedness,
    "witness": run_witness,
    "telescoping": run_simplex_faces,
    "dk-validate": run_simplex_faces,
    "theta-composition": run_theta_composition,
    "bm-dbar": run_bm_dbar,
    "bm-reproducing": run_bm_reproducing,
}


# check types no tolerance decides, whose results report none: bm-dbar, affine-vanishing
TOLERANCE_FREE = frozenset({"affine-vanishing", "bm-dbar"})


def execute_checks(scn):
    """Run all checks in declaration order on the calling thread."""

    def one(entry):
        started = time.monotonic()
        try:
            held, fields = CHECK_RUNNERS[entry["type"]](scn, entry)
        except Exception as err:  # checks never abort the batch
            held, fields = None, {"error": "%s: %s" % (type(err).__name__, err)}
        result = verdict(entry, held, fields)
        result["seconds"] = round(time.monotonic() - started, 4)
        result.update(name=entry["name"], type=entry["type"])
        if entry["type"] not in TOLERANCE_FREE:
            result["tolerance"] = entry["tolerance"]
        return result

    return [one(e) for e in scn.checks]


def build_report(scn, results):
    return {
        "tool": "cocyclekit",
        "version": __version__,
        "scenario_hash": scn.hash,
        "sign_convention": SIGN_CONVENTION,
        "checks": results,
        "pass": all(r["status"] == "pass" for r in results),
    }


def write_report(report, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _print_check_lines(report):
    for r in report["checks"]:
        line = "[%s] %s" % (r["status"].upper(), r["name"])
        if "max_residual" in r:
            line += "  max_residual=%.3e" % r["max_residual"]
        if "error" in r:
            line += "  " + r["error"]
        print(line)
    print("overall: %s" % ("PASS" if report["pass"] else "FAIL"))


# ---------------------------------------------------------------------------
# subcommands


def cmd_run(args):
    scn = Scenario.load(args.scenario)
    results = execute_checks(scn)
    report = build_report(scn, results)
    write_report(report, args.output or scn.output)
    _print_check_lines(report)
    return 0 if report["pass"] else 1


MAX_SYMFUN_DEGREE = 20  # todd 20 takes about a second, todd 22 several


def cmd_symfun(args):
    k = args.degree
    if args.kind in ("todd", "chern") and not 1 <= k <= MAX_SYMFUN_DEGREE:
        raise ValidationError("degree must be in 1..%d for %s" % (MAX_SYMFUN_DEGREE, args.kind))
    if args.kind == "todd":
        f_power = todd_component(k)
    elif args.kind == "chern":
        f_power = chern_character_component(k)
    else:
        try:
            if args.input:
                with open(args.input, encoding="utf-8") as fh:
                    payload = json.load(fh)
            else:
                payload = json.load(sys.stdin)
        except ValueError as err:  # bad JSON, non-UTF-8 bytes or an integer past int()'s limit
            raise ValidationError("SymFun input %s is not valid JSON: %s"
                                  % (args.input or "<stdin>", err)) from None
        if not (isinstance(payload, dict) and "basis" in payload and "terms" in payload):
            raise ValidationError("SymFun JSON needs 'basis' and 'terms'")
        f = SymFun.from_json(payload)
        converted = newton_convert(f, ELEMENTARY if f.basis == POWER else POWER)
        print(format_symfun(converted))
        if args.json:
            print(json.dumps(converted.to_json(), sort_keys=True))
        return 0
    f_elem = newton_convert(f_power, ELEMENTARY)
    line = "%s = %s" % (format_symfun(f_elem), format_symfun(f_power))
    print(line)
    if args.json:
        print(json.dumps({"power": f_power.to_json(), "elementary": f_elem.to_json()},
                         sort_keys=True))
    return 0


def cmd_bm_check(args):
    """The bm-dbar and bm-reproducing runners on entries built from the flags."""
    dbar_entry = {"type": "bm-dbar", "n": args.n, "probes": args.probes,
                  "step": args.step, "seed": 11}
    validate_bm_fields(dbar_entry, "bm-check")
    dbar = verdict(dbar_entry, *run_bm_dbar(None, dbar_entry))
    report = {"dbar": dbar, "sign_convention": SIGN_CONVENTION}
    ok = dbar["status"] == "pass"
    if args.n == 2:
        repro_entry = {"type": "bm-reproducing", "order": args.quad_order,
                       "radii": [args.radius, args.radius * 2], "tolerance": 1e-3}
        validate_bm_fields(repro_entry, "bm-check")
        repro = verdict(repro_entry, *run_bm_reproducing(None, repro_entry))
        report["reproducing"] = repro["radii"]
        ok = ok and repro["status"] == "pass"
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if ok else 1


def tau_cell_rows(scn, bidegrees=None):
    """One todd-cocycle row per nonempty cell of the scenario's tau (arity n).

    No nonempty cell in the bidegrees walked is a ValidationError.
    """
    tau = scn.tau(scn.atlas, scn.n)
    bidegrees = tau.bidegrees() if bidegrees is None else bidegrees
    rows = []
    ids = tau.ids
    for bd, J, G, values in cell_values(tau, bidegrees):
        for j, g, on, sampled in zip(J.tolist(), G.tolist(), ids.moved(J, G).tolist(), values):
            rows.append({
                "bidegree": list(bd),
                "indices": ids.index_names(j),
                "words": ids.word_names(g),
                "on": sorted(ids.index_names(on)),
                "max_abs": sampled.max_abs(),
                "values": sampled.to_json(),
            })
    require_cells(len(rows), bidegrees)
    return rows


def cmd_todd_cocycle(args):
    scn = Scenario.load(args.scenario)
    cells = tau_cell_rows(scn)
    report = {"tool": "cocyclekit", "version": __version__,
              "scenario_hash": scn.hash, "sign_convention": SIGN_CONVENTION,
              "arity": scn.n, "cells": cells}
    out = args.output or "todd-cocycle.json"
    write_report(report, out)
    print("wrote %s (%d cells)" % (out, len(cells)))
    return 0


def cmd_verify_cocycle(args):
    validate_check_fields({"tolerance": args.tolerance}, "verify-cocycle")
    scn = Scenario.load(args.scenario)
    report = closedness_report(scn.tau(scn.atlas, scn.n), tol=args.tolerance)
    report = {"tool": "cocyclekit", "version": __version__,
              "scenario_hash": scn.hash, "closedness": report.to_json(),
              "pass": report.passed}
    write_report(report, args.output or "cocycle-report.json")
    status = "PASS" if report["pass"] else "FAIL"
    print("[%s] mixed-differential residual %.3e (tol %.1e)"
          % (status, report["closedness"]["max_residual"], args.tolerance))
    return 0 if report["pass"] else 1


def cmd_group_invariant(args):
    """The pure group cells of tau: the (0, n) rows of todd-cocycle."""
    scn = Scenario.load(args.scenario)
    rows = [{"index": c["indices"][0], "words": c["words"],
             "max_abs": c["max_abs"], "values": c["values"]}
            for c in tau_cell_rows(scn, [(0, scn.n)])]
    print(json.dumps({"cells": rows}, indent=2, sort_keys=True))
    return 0


def cmd_witness(args):
    validate_check_fields({"tolerance": args.tolerance}, "witness")
    scn = Scenario.load(args.scenario)
    if scn.atlas_b is None:
        raise ScenarioError("scenario has no atlas_b section")
    report = scenario_witness_report(scn, scn.n, args.tolerance)
    write_report({"witness": report.to_json(), "scenario_hash": scn.hash}, args.output)
    status = "PASS" if report.passed else "FAIL"
    print("[%s] d(witness) vs tau difference: residual %.3e (tol %.1e)"
          % (status, report.max_residual, args.tolerance))
    return 0 if report.passed else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="cocyclekit",
                                     description="cocycle-level characteristic class checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run every check in a scenario file")
    p.add_argument("scenario")
    p.add_argument("--output", help="report path (defaults to the scenario's 'output')")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("symfun", help="print exact symmetric function expansions")
    p.add_argument("kind", choices=["todd", "chern", "convert"])
    p.add_argument("degree", type=int, nargs="?", default=1,
                   help="degree of todd or chern, 1..%d" % MAX_SYMFUN_DEGREE)
    p.add_argument("--json", action="store_true")
    p.add_argument("--input", help="JSON SymFun file for 'convert' (default stdin)")
    p.set_defaults(fn=cmd_symfun)

    p = sub.add_parser("bm-check", help="kernel dbar and reproducing checks")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--probes", type=int, default=12)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--quad-order", type=int, default=32)
    p.add_argument("--radius", type=float, default=1.0)
    p.set_defaults(fn=cmd_bm_check)

    p = sub.add_parser("todd-cocycle", help="compute and dump the Todd cocycle")
    p.add_argument("scenario")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_todd_cocycle)

    p = sub.add_parser("verify-cocycle", help="closedness of the Todd cocycle")
    p.add_argument("scenario")
    p.add_argument("--tolerance", type=float, default=1e-7)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_verify_cocycle)

    p = sub.add_parser("group-invariant", help="pure group components of tau")
    p.add_argument("scenario")
    p.set_defaults(fn=cmd_group_invariant)

    p = sub.add_parser("witness", help="cohomologous witness between two atlases")
    p.add_argument("scenario")
    p.add_argument("--tolerance", type=float, default=1e-7)
    p.add_argument("--output")
    p.set_defaults(fn=cmd_witness)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as err:
        print("scenario error: %s" % err, file=sys.stderr)
        return 2
    except (ValidationError, DomainError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
