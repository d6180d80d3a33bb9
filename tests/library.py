"""Built-in library: a spread of affine and polynomial-automorphism maps used by the
composition and pullback identity suites, and the exact identity and affine maps
they are built from. No check type reaches it, so it lives with the tests as a
reference.
"""

from fractions import Fraction

import numpy as np

from cocyclekit import expr as ex
from cocyclekit.errors import ValidationError
from cocyclekit.holomap import HoloMap, as_cloud


def _disc_points(n, count, radius, seed, center=0.0):
    rng = np.random.default_rng(seed)
    return as_cloud([[center + radius * complex(a, b) for a, b in rng.uniform(-1, 1, size=(n, 2))]
                     for _ in range(count)], n)


def identity_map(n):
    return HoloMap(n, [ex.Var(i + 1) for i in range(n)], name="id")


def affine_map(A, b, name="affine"):
    """z -> Az + b with exact rational entries."""
    n = len(b)
    comps = []
    for r in range(n):
        terms = [ex.mul(ex.Const(ex.CRat(*_crat_pair(A[r][c]))), ex.Var(c + 1))
                 for c in range(n)]
        terms.append(ex.Const(ex.CRat(*_crat_pair(b[r]))))
        comps.append(ex.add(*terms))
    return HoloMap(n, comps, name=name)


def _crat_pair(v):
    if isinstance(v, tuple):
        return Fraction(v[0]), Fraction(v[1])
    if isinstance(v, complex):
        raise ValidationError("affine coefficients must be exact; pass (re, im) fractions")
    return Fraction(v), Fraction(0)


HENON_C = Fraction(3, 10)


def henon_map():
    """(z1, z2) -> (z2, z2^2 + c - z1), a polynomial automorphism of C^2."""
    c = ex.Const(ex.CRat(HENON_C))
    comps = [ex.Var(2), ex.add(ex.pow_(ex.Var(2), 2), c, ex.neg(ex.Var(1)))]
    return HoloMap(2, comps, name="henon")


def henon_inverse():
    """(w1, w2) -> (w1^2 + c - w2, w1)."""
    c = ex.Const(ex.CRat(HENON_C))
    comps = [ex.add(ex.pow_(ex.Var(1), 2), c, ex.neg(ex.Var(2))), ex.Var(1)]
    return HoloMap(2, comps, name="henon_inv")


def shear_map():
    """(z1, z2) -> (z1, z2 + z1^2), an elementary polynomial automorphism."""
    comps = [ex.Var(1), ex.add(ex.Var(2), ex.pow_(ex.Var(1), 2))]
    return HoloMap(2, comps, name="shear")


def shear_inverse():
    comps = [ex.Var(1), ex.add(ex.Var(2), ex.neg(ex.pow_(ex.Var(1), 2)))]
    return HoloMap(2, comps, name="shear_inv")


def diagonal_square_map():
    """(z1, z2) -> (z1^2, z2); invertible away from z1 = 0."""
    return HoloMap(2, [ex.pow_(ex.Var(1), 2), ex.Var(2)], name="sq1")


def mobius_like_map():
    """(z1, z2) -> (z1 / (1 + z2), z2 + 1); rational, regular near the origin."""
    one = ex.Const(ex.CRat(1))
    comps = [ex.div(ex.Var(1), ex.add(one, ex.Var(2))), ex.add(ex.Var(2), one)]
    return HoloMap(2, comps, name="mobius")


def builtin_library(seed=7, count=12):
    """Named maps, each map's (count, 2) sample cloud, and composable non-affine pairs.

    Every map samples the disc cloud of radius 0.45, except sq1, which samples a
    shifted disc away from its singular line z1 = 0.
    """
    cloud = _disc_points(2, count, 0.45, seed)
    shifted = _disc_points(2, count, 0.35, seed + 1, center=0.2)
    maps = {
        "id": identity_map(2),
        "affine21": affine_map([[2, 1], [1, 1]], [Fraction(1, 4), Fraction(-1, 5)],
                               name="affine21"),
        "affine_lower": affine_map([[1, 0], [Fraction(1, 2), 1]], [0, Fraction(1, 3)],
                                   name="affine_lower"),
        "henon": henon_map(),
        "henon_inv": henon_inverse(),
        "shear": shear_map(),
        "shear_inv": shear_inverse(),
        "sq1": diagonal_square_map(),
        "mobius": mobius_like_map(),
    }
    clouds = {name: shifted if name == "sq1" else cloud for name in maps}
    pairs = [
        ("henon", "shear"), ("shear", "henon"), ("henon", "henon"),
        ("shear", "mobius"), ("mobius", "henon"), ("shear", "shear"),
        ("henon", "affine21"), ("affine_lower", "shear"), ("mobius", "affine21"),
    ]
    return maps, clouds, pairs
