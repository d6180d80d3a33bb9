"""Scenario inputs for the two benchmark workloads.

Each workload is a list of scenario files, generated from the workload seed;
`mixed-checks` also runs the repository's own `scenarios/affine_torus.scn`,
unchanged. Every file is validated against `docs/scenario.schema.json` before
anything is timed. This module never imports `cocyclekit`, so generating inputs
stays outside the timed set-up.
"""

import itertools
import json
import math
import random

AFFINE = "affine_torus.scn"  # shipped scenario whose theta vanishes structurally

TODD3_POINTS = 32
WITNESS_POINTS = 12
CHART_POINTS = 160
THETA_POINTS = 24


def _coord(z):
    return [z.real, z.imag]


def _square_cloud(rng, n, count, center, half_width):
    """Points whose coordinates are uniform on a square of complex numbers."""
    return [[_coord(complex(center + half_width * rng.uniform(-1, 1),
                            half_width * rng.uniform(-1, 1)))
             for _ in range(n)] for _ in range(count)]


def _disc_cloud(rng, n, count, radius):
    """Points with every coordinate in the complex disc of the given radius."""
    out = []
    for _ in range(count):
        point = []
        for _ in range(n):
            rho = radius * math.sqrt(rng.random())
            phi = 2 * math.pi * rng.random()
            point.append(_coord(complex(rho * math.cos(phi), rho * math.sin(phi))))
        out.append(point)
    return out


def todd3_cech(seed):
    """Arity-3 Todd closedness over four charts of C^3 and all 15 intersections.

    The three coordinate-square charts make theta span all three differentials,
    so the arity-3 cocycle is nonzero. The cloud sits near (1, 1, 1), away from
    the principal log branch cut the square-root inverses use.
    """
    rng = random.Random(seed)
    cloud = _square_cloud(rng, 3, TODD3_POINTS, 0.9, 0.3)
    maps = {"ident": {"components": "z1; z2; z3"}}
    coords = ["z1", "z2", "z3"]
    for a in range(3):
        fwd = list(coords)
        inv = list(coords)
        fwd[a] = "%s^2" % coords[a]
        inv[a] = "exp(log(%s)/2)" % coords[a]
        maps["sq%d" % (a + 1)] = {"components": "; ".join(fwd)}
        maps["sq%d_inv" % (a + 1)] = {"components": "; ".join(inv)}
    indices = ["a", "b", "c", "d"]
    clouds = [{"on": list(subset), "points": cloud}
              for size in range(1, 5) for subset in itertools.combinations(indices, size)]
    return {
        "dimension": 3,
        "maps": maps,
        "cover": {"indices": indices, "clouds": clouds},
        "action": {},
        "atlas": {
            "a": {"chart": "ident", "inverse": "ident"},
            "b": {"chart": "sq1", "inverse": "sq1_inv"},
            "c": {"chart": "sq2", "inverse": "sq2_inv"},
            "d": {"chart": "sq3", "inverse": "sq3_inv"},
        },
        "checks": [
            {"name": "cech-closed-3", "type": "tau-closedness", "arity": 3,
             "tolerance": 1e-7},
        ],
    }


MAPS_C2 = {
    "ident": {"components": "z1; z2"},
    "henon": {"components": "z2; z2^2 + c - z1"},
    "henon_inv": {"components": "z1^2 + c - z2; z1"},
    "shear": {"components": "z1; z2 + z1^2"},
    "shear_inv": {"components": "z1; z2 - z1^2"},
    "shear3": {"components": "z1; z2 + z1^2 + z1^3"},
    "shear3_inv": {"components": "z1; z2 - z1^2 - z1^3"},
    "affine": {"components": "z1 + z2/3 + 1/5; z2"},
    "affine_inv": {"components": "z1 - z2/3 - 1/5; z2"},
    "mobius": {"components": "z1/(1 + z2); z2 + 1"},
}
CONST_C = {"c": {"re": "3/10", "im": "0"}}


def group_witness(seed):
    """Free action by Henon h and shear s on one chart, witness to a shear3 atlas."""
    rng = random.Random(seed)
    cloud = _disc_cloud(rng, 2, WITNESS_POINTS, 0.3)
    return {
        "dimension": 2,
        "constants": CONST_C,
        "maps": dict(MAPS_C2),
        "cover": {"indices": ["u"], "clouds": [{"on": ["u"], "points": cloud}]},
        "action": {
            "generators": [
                {"name": "h", "map": "henon", "inverse": "henon_inv",
                 "index_action": {"u": "u"}},
                {"name": "s", "map": "shear", "inverse": "shear_inv",
                 "index_action": {"u": "u"}},
            ],
            "words": [["h"], ["s"], ["h^-1"], ["h", "s"]],
        },
        "atlas": {"u": {"chart": "ident", "inverse": "ident"}},
        "atlas_b": {"u": {"chart": "shear3", "inverse": "shear3_inv"}},
        "checks": [
            {"name": "closed", "type": "tau-closedness", "tolerance": 1e-7},
            {"name": "witness", "type": "witness", "tolerance": 1e-7},
        ],
    }


def chart_kernel(seed):
    """Level-3 chart simplex checks, theta composition and the BM kernel checks."""
    rng = random.Random(seed)
    source = _square_cloud(rng, 2, CHART_POINTS, 0.0, 0.4)
    theta_points = _square_cloud(rng, 2, THETA_POINTS, 0.0, 0.3)
    charts = [{"chart": "ident", "inverse": "ident"},
              {"chart": "shear", "inverse": "shear_inv"},
              {"chart": "henon", "inverse": "henon_inv"},
              {"chart": "affine", "inverse": "affine_inv"}]
    simplex = {"charts": charts, "source_points": source, "tolerance": 1e-7}
    return {
        "dimension": 2,
        "constants": CONST_C,
        "maps": dict(MAPS_C2),
        "checks": [
            dict(simplex, name="telescoping", type="telescoping"),
            dict(simplex, name="telescoping-corrupt", type="telescoping", expect="fail",
                 corrupt={"replace": [0, 2], "with_map": "henon"}),
            dict(simplex, name="dk", type="dk-validate"),
            {"name": "theta-composition", "type": "theta-composition", "tolerance": 1e-7,
             "pairs": [["henon", "shear"], ["shear", "henon"], ["henon", "henon"],
                       ["shear", "mobius"], ["mobius", "henon"]],
             "points": theta_points},
            {"name": "bm-dbar", "type": "bm-dbar", "tolerance": 1e-7, "n": 2,
             "probes": 12, "seed": seed},
            {"name": "bm-reproducing", "type": "bm-reproducing", "tolerance": 1e-6,
             "order": 32, "radii": [0.5, 1.0, 2.0]},
        ],
    }


# Each workload's scenarios, in pass order: a generator takes the seed, a file
# name is a shipped scenario. `mixed-checks` puts every small-cloud, multi-check
# scenario in one pass, so that one run measures them all for long enough to
# average out a shared host's drift in speed.
WORKLOADS = {
    "todd3-cech": (todd3_cech,),
    "mixed-checks": (group_witness, AFFINE, chart_kernel),
}


def scenario_texts(workload, seed, root):
    """{file name: scenario JSON text} for one workload and seed."""
    texts = {}
    for source in WORKLOADS[workload]:
        if isinstance(source, str):
            texts[source] = (root / "scenarios" / source).read_text(encoding="utf-8")
        else:
            name = source.__name__.replace("_", "-") + ".scn"
            texts[name] = json.dumps(source(seed), indent=2, sort_keys=True) + "\n"
    return texts


def write_scenarios(workload, seed, root, workdir):
    """Write the workload's scenarios into workdir, validated; return their paths."""
    import jsonschema

    schema = json.loads((root / "docs" / "scenario.schema.json").read_text(encoding="utf-8"))
    validator = jsonschema.Draft202012Validator(schema)
    paths = []
    for name, text in scenario_texts(workload, seed, root).items():
        validator.validate(json.loads(text))
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths
