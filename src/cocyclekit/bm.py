"""Bochner-Martinelli kernel evaluation and its verification battery.

The kernel is kept in the difference basis: the antiholomorphic part of each
term is a wedge of (d xi-bar^j - d z-bar^j) factors with one index omitted,
times the full holomorphic d xi wedge. Coefficients follow the paper's
normalization constant; the classical reproducing constant differs by
-(2 pi i)^{n-1}, and the reproducing check rescales accordingly (both values
are reported).

Kernel evaluation works on clouds, like the rest of the package:
bm_coefficients takes an (N, n) array of xi, with one z or an (N, n) array of
z aligned row by row, and returns (N, n) coefficients. The dbar check
sends every stencil point of every probe and step to the coefficient function
in one (M, n) cloud; the reproducing integral evaluates one (order, order)
slab of sphere nodes per kernel call. The diagonal guard names the first
offending xi of a cloud.

The bm-dbar and bm-reproducing checks (and bm-check) reach this module. They
use numpy core and nothing else of numpy: the probe directions come from
Python's random.Random (sphere_probes), the quadrature from the Legendre
recurrence (gauss_legendre).
"""

import math
import random

import numpy as np

from .errors import DomainError, ValidationError

DIAGONAL_CUTOFF = 1e-12


def bm_constant(n):
    """The paper's normalization: -(-1)^{n(n-1)} (n-1)!/(2 pi i). The sign
    exponent n(n-1) is always even, so this is -(n-1)!/(2 pi i)."""
    return -((-1) ** (n * (n - 1))) * math.factorial(n - 1) / (2j * math.pi)


def classical_constant(n):
    """(n-1)!/(2 pi i)^n, the constant whose sphere integral reproduces 1."""
    return math.factorial(n - 1) / (2j * math.pi) ** n


def bm_coefficients(n, z, xi):
    """The omitted-index coefficients b_n (-1)^i (xi-bar^i - z-bar^i)/|xi-z|^{2n}.

    Coefficient i multiplies the wedge of all (d xi-bar^j - d z-bar^j) with
    j != i, times d xi^1 ... d xi^n. xi is an (N, n) cloud and z one point or
    an (N, n) array aligned row by row with xi; the result is (N, n), column
    i - 1 holding index i.
    """
    if n < 2:
        raise ValidationError("the kernel is defined for n >= 2")
    z = np.asarray(z, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    if xi.ndim != 2 or xi.shape[1] != n or z.shape not in ((n,), xi.shape):
        raise ValidationError("points must have %d coordinates" % n)
    # Elementwise work runs column by column: broadcasting along the length-n
    # axis would run numpy's inner loop n elements at a time.
    diff = np.empty_like(xi)
    for j in range(n):
        np.subtract(xi[:, j], z[..., j], out=diff[:, j])
    square = np.abs(diff)
    square *= square
    dist2 = square[:, 0] + square[:, 1]
    for j in range(2, n):
        dist2 += square[:, j]
    if len(dist2) and math.sqrt(dist2.min()) < DIAGONAL_CUTOFF:
        i = int(np.argmax(np.sqrt(dist2) < DIAGONAL_CUTOFF))
        raise DomainError("point xi = %s within %.0e of the diagonal"
                          % (tuple(complex(c) for c in xi[i]), DIAGONAL_CUTOFF))
    # numpy divides a complex number by a real one as both parts times its
    # reciprocal; a zero part may keep its sign here where numpy's loses it
    scale = 1.0 / dist2 ** n
    signed = bm_constant(n) * (-1.0) ** np.arange(1, n + 1)
    coeffs = np.conj(diff)
    for j in range(n):
        column = coeffs[:, j]
        np.multiply(signed[j], column, out=column)
        column.real *= scale
        column.imag *= scale
    return coeffs


# +h, -h, +ih, -ih along one coordinate
_STENCIL = np.array([1.0, -1.0, 1.0j, -1.0j])


def _stencil_cloud(points, steps):
    """(P, S, m, 4, m): the (P, m) points, coordinate b moved by steps[s] * _STENCIL[k]."""
    m = points.shape[1]
    steps = np.asarray(steps, dtype=float)
    offsets = (steps[:, None, None, None] * _STENCIL[None, None, :, None]
               * np.eye(m)[None, :, None, :])
    return points[:, None, None, None, :] + offsets[None]


def _stencil_dbar(values, steps):
    """Wirtinger d/dw-bar_b by central differences: (P, S, m, 4, F) values on the
    _stencil_cloud to (P, S, m, F) derivatives."""
    h = np.asarray(steps, dtype=float)[None, :, None, None]
    dx = (values[:, :, :, 0] - values[:, :, :, 1]) / (2 * h)
    dy = (values[:, :, :, 2] - values[:, :, :, 3]) / (2 * h)
    return 0.5 * (dx + 1j * dy)


def _stencil_residuals(n, z, probes, steps, coeff_fn):
    """Central-difference dbar defects at every (probe, step): a (P, S) array.

    In the difference basis the only surviving part of dbar omega^0 is the
    alternating sum of the xi-bar_i derivatives of the omitted-index
    coefficients, so that single complex number is the residual. Every
    stencil point of every probe and step goes to coeff_fn in one (M, n)
    cloud.
    """
    coeff_fn = coeff_fn or (lambda pts: bm_coefficients(n, z, pts))
    pts = _stencil_cloud(probes, steps)
    coeffs = np.asarray(coeff_fn(pts.reshape(-1, n))).reshape(pts.shape)
    # dbar[p, s, i]: the xi-bar_i derivative of coefficient i
    dbar = np.diagonal(_stencil_dbar(coeffs, steps), axis1=2, axis2=3)
    return np.sum((-1.0) ** np.arange(n) * dbar, axis=-1)


def sphere_probes(z, count, seed):
    """`count` points on the unit sphere around z, drawn from random.Random(seed).

    Each coordinate's offset is one Box-Muller pair on random(), so the offset
    vector is Gaussian in C^n, then scaled to norm 1. Python keeps random()'s
    sequence for a seed across versions, so a seed gives the same probes
    everywhere.
    """
    rnd = random.Random(seed)
    probes = []
    for _ in range(count):
        v = []
        for _ in z:
            t = 2.0 * math.pi * rnd.random()
            r = math.sqrt(-2.0 * math.log(1.0 - rnd.random()))
            v.append(complex(r * math.cos(t), r * math.sin(t)))
        norm = math.sqrt(sum(abs(c) ** 2 for c in v))
        probes.append(tuple(zi + c / norm for zi, c in zip(z, v)))
    return probes


def dbar_closed_check(n, z, probes, h, coeff_fn=None):
    """Residuals at h and h/2 with the order-2 convergence ratio.

    Probes must stay at least 10h away from the diagonal. coeff_fn, when
    given, maps an (M, n) cloud to (M, n) coefficients; it is called once.
    """
    z = np.asarray(z, dtype=complex)
    probes = np.asarray(probes, dtype=complex)
    if probes.ndim != 2 or probes.shape[1] != n or z.shape != (n,):
        raise ValidationError("probes and z must have %d coordinates" % n)
    dist = np.sqrt(np.sum(np.abs(probes - z) ** 2, axis=1))
    bad = dist < 10 * h
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError("probe %r is %.3e from the diagonal, need >= 10h"
                          % (tuple(complex(c) for c in probes[i]), dist[i]))
    res = np.abs(_stencil_residuals(n, z, probes, (h, h / 2), coeff_fn))
    res_h, res_h2 = res[:, 0].tolist(), res[:, 1].tolist()
    max_h, max_h2 = max(res_h), max(res_h2)
    ratio = max_h / max_h2 if max_h2 > 1e-300 else float("inf")
    fitted_c = max_h / h ** 2
    passes = max_h2 <= fitted_c * (h / 2) ** 2 * 1.5 or max_h2 < 1e-12
    return {
        "h": h,
        "max_residual_h": max_h,
        "max_residual_h_half": max_h2,
        "ratio": ratio,
        "fitted_C": fitted_c,
        "order_two": bool(max_h2 < 1e-12 or 0.8 * 4 <= ratio <= 1.2 * 4),
        "pass": bool(passes),
        "per_probe": [{"probe": [[c.real, c.imag] for c in p], "residual": r}
                      for p, r in zip(probes.tolist(), res_h)],
    }


def _legendre(order, x):
    """P_order and its derivative at x, by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, order + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, order * (x * p1 - p0) / (x * x - 1)


def gauss_legendre(order):
    """The order-point Gauss-Legendre rule on [-1, 1]: ascending nodes and weights.

    Newton's method on P_order from the asymptotic guesses
    cos(pi (k - 1/4) / (order + 1/2)) until no node moves more than 1e-15;
    the weights are 2 / ((1 - x^2) P'(x)^2) at the final nodes. Both are
    symmetrized about 0. Matches numpy's leggauss to 1.2e-16 in the nodes
    and 5e-15 in the weights for orders 4..64.
    """
    x = np.cos(math.pi * (np.arange(order, 0, -1) - 0.25) / (order + 0.5))
    while True:
        p, dp = _legendre(order, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    _, dp = _legendre(order, x)
    w = 2.0 / ((1 - x * x) * dp * dp)
    return (x - x[::-1]) / 2, (w + w[::-1]) / 2


def _scaled_nodes(rule, a, b):
    x, w = rule
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def reproducing_integral(z=(0.0, 0.0), radius=1.0, order=32, rule=None):
    """Integral of the classically normalized kernel over |xi - z| = radius (n = 2).

    Gauss-Legendre product quadrature in Hopf-style angles. The parametrization
    orientation is fixed so the classical kernel integrates to +1; the raw
    integral of the paper-normalized kernel is the returned value divided by
    classical_constant(2)/bm_constant(2). `rule` is the (nodes, weights) pair
    of gauss_legendre(order), computed here when not given:
    the eta and phi axes share it, and a check over several radii passes one.

    Each eta node contributes one (order, order) slab of (phi1, phi2) nodes,
    evaluated with one kernel call; slabs are summed in eta order, so the
    order^3 grid is never held at once.
    """
    if order < 4:
        raise ValidationError("quadrature order must be at least 4")
    if radius <= 0:
        raise ValidationError("radius must be positive")
    z = np.asarray(z, dtype=complex)
    if rule is None:
        rule = gauss_legendre(order)
    eta_x, eta_w = _scaled_nodes(rule, 0.0, 0.5 * math.pi)
    phi_x, phi_w = _scaled_nodes(rule, 0.0, 2.0 * math.pi)
    rescale = classical_constant(2) / bm_constant(2)
    r = radius
    e1 = (np.cos(phi_x) + 1j * np.sin(phi_x))[:, None]  # phi1 along rows
    e2 = e1.T                                            # phi2 along columns
    # With c = cos eta, s = sin eta, the tangent rows of (xi_1, xi_2) in
    # (eta, phi1, phi2) are (-r s e1, i r c e1, 0) and (r c e2, 0, i r s e2),
    # and |e1| = |e2| = 1, so the two 3x3 determinants are closed-form:
    #   det(d xi-bar^2, d xi^1, d xi^2) = -2 r^3 c^2 s e1
    #   det(d xi-bar^1, d xi^1, d xi^2) =  2 r^3 c s^2 e2
    # Each slab only rescales these two weighted (phi1, phi2) columns.
    w12 = phi_w[:, None] * phi_w[None, :]
    wdet = np.stack([(w12 * (-2 * r ** 3 * e1)).ravel(),
                     (w12 * (2 * r ** 3 * e2)).ravel()], axis=1)
    xi = np.empty((order, order, 2), dtype=complex)
    total = 0.0 + 0.0j
    for eta, we in zip(eta_x.tolist(), eta_w.tolist()):
        c, s = math.cos(eta), math.sin(eta)
        xi[..., 0] = z[0] + r * c * e1
        xi[..., 1] = z[1] + r * s * e2
        coeffs = bm_coefficients(2, z, xi.reshape(-1, 2))
        sum1, sum2 = np.einsum("ij,ij->j", wdet, coeffs).tolist()
        total += we * (c * c * s * sum1 + c * s * s * sum2)
    # the (eta, phi1, phi2) chart is negatively oriented for the outward sphere
    return complex(-rescale * total)
