#!/usr/bin/env python3
"""Regenerate the shipped .scn files. Deterministic; run from this directory."""

import itertools
import json
import math
import pathlib

HERE = pathlib.Path(__file__).parent


def pt(z1, z2):
    return [[z1.real, z1.imag], [z2.real, z2.imag]]


def ring_points(count, r0, r1, theta0, theta1, seed_phase=0.0):
    """z1 on an annulus sector; z2 wiggles near 1 so square-root charts in
    either coordinate stay clear of the principal branch cut."""
    out = []
    for j in range(count):
        t = j / max(count - 1, 1)
        rho = r0 + (r1 - r0) * ((j * 7) % count) / count
        theta = theta0 + (theta1 - theta0) * t + seed_phase
        z1 = rho * complex(math.cos(theta), math.sin(theta))
        z2 = 0.9 + 0.25 * complex(math.cos(2.1 * theta + 0.4), math.sin(1.7 * theta))
        out.append(pt(z1, z2))
    return out


def disc_points(count, radius, phase=0.0):
    out = []
    for j in range(count):
        theta = phase + 2 * math.pi * j / count
        rho = radius * (0.35 + 0.6 * ((j * 5) % count) / count)
        z1 = rho * complex(math.cos(theta), math.sin(theta))
        z2 = 0.8 * rho * complex(math.cos(1.9 * theta + 0.7), math.sin(1.3 * theta + 0.2))
        out.append(pt(z1, z2))
    return out


MAPS_COMMON = {
    "ident": {"components": "z1; z2"},
    "henon": {"components": "z2; z2^2 + c - z1"},
    "henon_inv": {"components": "z1^2 + c - z2; z1"},
    "shear": {"components": "z1; z2 + z1^2"},
    "shear_inv": {"components": "z1; z2 - z1^2"},
    "shear3": {"components": "z1; z2 + z1^2 + z1^3"},
    "shear3_inv": {"components": "z1; z2 - z1^2 - z1^3"},
    # square chart on a sector of the annulus; nonconstant Jacobian
    # determinant keeps the singleton-trace terms of the Todd labels alive
    "square": {"components": "z1^2; z2"},
    "square_inv": {"components": "exp(log(z1)/2); z2"},
    "square2": {"components": "z1; z2^2"},
    "square2_inv": {"components": "z1; exp(log(z2)/2)"},
}

CONST_C = {"c": {"re": "3/10", "im": "0"}}


def affine_torus():
    return {
        "dimension": 2,
        "constants": {},
        "maps": {
            "ident": {"components": "z1; z2"},
            "chart": {"components": "2*z1 + z2 + 1/4; z1 + z2"},
            "chart_inv": {"components": "z1 - z2 - 1/4; -z1 + 2*z2 + 1/4"},
            "t1": {"components": "z1 + 1; z2"},
            "t1_inv": {"components": "z1 - 1; z2"},
            "t2": {"components": "z1; z2 + i"},
            "t2_inv": {"components": "z1; z2 - i"},
        },
        "cover": {
            "indices": ["u"],
            "clouds": [{"on": ["u"], "points": disc_points(10, 0.5)}],
        },
        "action": {
            "generators": [
                {"name": "t1", "map": "t1", "inverse": "t1_inv", "index_action": {"u": "u"}},
                {"name": "t2", "map": "t2", "inverse": "t2_inv", "index_action": {"u": "u"}},
            ],
            "words": [["t1"], ["t2"], ["t1", "t2"]],
        },
        "atlas": {"u": {"chart": "chart", "inverse": "chart_inv"}},
        "checks": [
            {"name": "affine-zero", "type": "affine-vanishing", "tolerance": 1e-12},
            {"name": "closed", "type": "tau-closedness", "tolerance": 1e-12},
        ],
        "output": "affine_torus-report.json",
    }


def henon_z():
    return {
        "dimension": 2,
        "constants": CONST_C,
        "maps": dict(MAPS_COMMON),
        "cover": {
            "indices": ["u"],
            "clouds": [{"on": ["u"], "points": disc_points(12, 0.35)}],
        },
        "action": {
            "generators": [
                {"name": "h", "map": "henon", "inverse": "henon_inv",
                 "index_action": {"u": "u"}},
            ],
            "words": [["h"], ["h^-1"]],
        },
        "atlas": {"u": {"chart": "ident", "inverse": "ident"}},
        "checks": [
            {"name": "dtau-closed", "type": "tau-closedness", "tolerance": 1e-7},
        ],
        "output": "henon_z-report.json",
    }


def cech_todd3():
    # four angular sectors of an annulus-like region with a common arc; the
    # square charts keep their cells inside the principal branch's safe range,
    # the henon chart keeps the product-trace part of the labels nonzero
    two_pi = 2 * math.pi
    sectors = {
        "p": (-1 / 6, 1 / 3),       # identity chart
        "q": (1 / 18, 5 / 9),       # square in z2
        "r": (-2 / 9, 2 / 9),       # square in z1 (principal-branch safe arc)
        "s": (-13 / 36, 5 / 36),    # henon chart
    }
    indices = list(sectors)
    clouds = []
    for size in range(1, 5):
        for subset in itertools.combinations(indices, size):
            lo = max(sectors[i][0] for i in subset)
            hi = min(sectors[i][1] for i in subset)
            if lo >= hi:
                continue
            count = 10 if size == 1 else 8
            clouds.append({"on": list(subset),
                           "points": ring_points(count, 0.35, 0.6,
                                                 lo * two_pi, hi * two_pi,
                                                 0.005 * size)})
    return {
        "dimension": 2,
        "constants": CONST_C,
        "maps": dict(MAPS_COMMON),
        "cover": {"indices": indices, "clouds": clouds},
        "action": {},
        "atlas": {
            "p": {"chart": "ident", "inverse": "ident"},
            "q": {"chart": "square2", "inverse": "square2_inv"},
            "r": {"chart": "square", "inverse": "square_inv"},
            "s": {"chart": "henon", "inverse": "henon_inv"},
        },
        "checks": [
            {"name": "cech-closed", "type": "tau-closedness", "tolerance": 1e-7},
            # at arity 1 the Jacobian minors are 1 x 1 entries, so a transposed
            # minor reads a wrong entry; at arity n = 2 it is the same determinant
            {"name": "cech-closed-arity1", "type": "tau-closedness", "arity": 1,
             "tolerance": 1e-7},
        ],
        "output": "cech_todd3-report.json",
    }


def witness_reparam():
    base = cech_todd3()
    base["atlas_b"] = dict(base["atlas"])
    base["atlas_b"]["p"] = {"chart": "shear3", "inverse": "shear3_inv"}
    base["checks"] = [
        {"name": "witness-matches", "type": "witness", "tolerance": 1e-7},
        {"name": "witness-matches-arity1", "type": "witness", "arity": 1, "tolerance": 1e-7},
    ]
    base["output"] = "witness_reparam-report.json"
    return base


def main():
    scns = {
        "affine_torus.scn": affine_torus(),
        "henon_z.scn": henon_z(),
        "cech_todd3.scn": cech_todd3(),
        "witness_reparam.scn": witness_reparam(),
    }
    for name, data in scns.items():
        path = HERE / name
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print("wrote", path)


if __name__ == "__main__":
    main()
