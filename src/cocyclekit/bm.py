"""Bochner-Martinelli kernel evaluation and its verification battery.

The kernel is kept in the difference basis: the antiholomorphic part of each
term is a wedge of (d xi-bar^j - d z-bar^j) factors with one index omitted,
times the full holomorphic d xi wedge. Coefficients follow the paper's
normalization constant; the classical reproducing constant differs by
-(2 pi i)^{n-1}, and the reproducing check rescales accordingly (both values
are reported).

Kernel evaluation works on clouds, like the rest of the package:
bm_coefficients takes an (N, n) array of xi, with one z or an (N, n) array of
z aligned row by row, and returns (N, n) coefficients; a single point is a
one-row view of the same path returning {i: coefficient}. The dbar check
sends every stencil point of every probe and step to the coefficient function
in one (M, n) cloud; the reproducing integral evaluates one (order, order)
slab of sphere nodes per kernel call. The diagonal guard names the first
offending xi of a cloud. Pair forms (the kernel on W x W, its pullbacks and
their dbar) are SampledForms on (N, 2n) pair clouds.
"""

import itertools
import math

import numpy as np

from .errors import DomainError, ValidationError
from .forms import SampledForm, jacobian_minors, minor_pullback, signed_sum
from .holomap import MapChain, as_cloud

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
    i - 1 holding index i. A single xi is a one-row view of the same path that
    returns {i: coefficient}.
    """
    if n < 2:
        raise ValidationError("the kernel is defined for n >= 2")
    z = np.asarray(z, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    single = xi.ndim == 1
    cloud = xi.reshape(1, -1) if single else xi
    if cloud.ndim != 2 or cloud.shape[1] != n or z.shape not in ((n,), cloud.shape):
        raise ValidationError("points must have %d coordinates" % n)
    diff = cloud - z
    dist2 = np.sum(np.abs(diff) ** 2, axis=1)
    if len(dist2) and math.sqrt(dist2.min()) < DIAGONAL_CUTOFF:
        i = int(np.argmax(np.sqrt(dist2) < DIAGONAL_CUTOFF))
        raise DomainError("point xi = %s within %.0e of the diagonal"
                          % (tuple(complex(c) for c in cloud[i]), DIAGONAL_CUTOFF))
    signs = (-1.0) ** np.arange(1, n + 1)
    coeffs = bm_constant(n) * signs * np.conj(diff) / (dist2 ** n)[:, None]
    if single:
        return {i: complex(c) for i, c in enumerate(coeffs[0], start=1)}
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


def _scaled_nodes(order, a, b):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def reproducing_integral(z=(0.0, 0.0), radius=1.0, order=32):
    """Integral of the classically normalized kernel over |xi - z| = radius (n = 2).

    Gauss-Legendre product quadrature in Hopf-style angles. The parametrization
    orientation is fixed so the classical kernel integrates to +1; the raw
    integral of the paper-normalized kernel is the returned value divided by
    classical_constant(2)/bm_constant(2).

    Each eta node contributes one (order, order) slab of (phi1, phi2) nodes,
    evaluated with one kernel call; slabs are summed in eta order, so the
    order^3 grid is never held at once.
    """
    if order < 4:
        raise ValidationError("quadrature order must be at least 4")
    if radius <= 0:
        raise ValidationError("radius must be positive")
    z = np.asarray(z, dtype=complex)
    eta_x, eta_w = _scaled_nodes(order, 0.0, 0.5 * math.pi)
    phi_x, phi_w = _scaled_nodes(order, 0.0, 2.0 * math.pi)
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


# ---------------------------------------------------------------------------
# pair forms: forms on W x W minus the diagonal, sampled on pair clouds
#
# A pair form maps an (N, 2n) pair cloud with rows (w1, w2) to a SampledForm
# of dimension 2n. Its k-indices are the antiholomorphic differentials
# d z-bar_1..d z-bar_n (indices 0..n-1, first factor) and d xi-bar_1..d xi-bar_n
# (indices n..2n-1, second factor) in combinations order. The holomorphic
# d xi^1..d xi^n wedge rides along implicitly: a pullback multiplies every
# coefficient by its Jacobian determinant.

# Wirtinger step of the layer condition's dbar
PARAMETRIX_STEP = 1e-4


def _split_pairs(pairs, n):
    P = as_cloud(pairs, 2 * n)[0]
    return P, P[:, :n], P[:, n:]


def _difference_expansion(n):
    """E[i, K]: coefficient of d w-bar_K in prod_{j != i, increasing} (d xi-bar_j - d z-bar_j)."""
    cols = {K: c for c, K in enumerate(itertools.combinations(range(2 * n), n - 1))}
    E = np.zeros((n, len(cols)))
    for i in range(n):
        rest = [j for j in range(n) if j != i]
        for sides in itertools.product((0, 1), repeat=n - 1):
            keys = [j + n * side for j, side in zip(rest, sides)]
            inversions = sum(a > b for a, b in itertools.combinations(keys, 2))
            E[i, cols[tuple(sorted(keys))]] = (-1) ** (n - 1 - sum(sides) + inversions)
    return E


def bm_pairform(n):
    """The kernel as a pair form of degree n - 1."""
    expansion = _difference_expansion(n)

    def form(pairs):
        P, w1, w2 = _split_pairs(pairs, n)
        return SampledForm(2 * n, n - 1, P, bm_coefficients(n, w1, w2) @ expansion)

    return form


def pair_pullback(psi, form):
    """(psi x psi)^* of a pair form; psi needs eval and jacobian on clouds.

    The antiholomorphic part pulls back through the minors of
    conj(blockdiag(J1, J2)), the implicit d xi wedge through det J2.
    """
    n = psi.n

    def pulled(pairs):
        P, w1, w2 = _split_pairs(pairs, n)
        inner = form(np.concatenate([psi.eval(w1), psi.eval(w2)], axis=1))
        J2 = psi.jacobian(w2)
        J = np.zeros((len(P), 2 * n, 2 * n), dtype=complex)
        J[:, :n, :n], J[:, n:, n:] = psi.jacobian(w1), J2
        values = minor_pullback(inner.values, jacobian_minors(np.conj(J), inner.k))
        return SampledForm(2 * n, inner.k, P, values * np.linalg.det(J2)[:, None])

    return pulled


def bm_vertex(rho):
    """The vertex assignment: pull the kernel back along rho x rho."""
    return pair_pullback(rho, bm_pairform(rho.n))


def _wedge_table(m, k):
    """table[b, K, L] = s where d w-bar_b ^ d w-bar_K = s d w-bar_L."""
    rows = list(itertools.combinations(range(m), k))
    cols = {L: c for c, L in enumerate(itertools.combinations(range(m), k + 1))}
    table = np.zeros((m, len(rows), len(cols)))
    for b in range(m):
        for r, K in enumerate(rows):
            if b not in K:
                table[b, r, cols[tuple(sorted(K + (b,)))]] = (-1) ** sum(a < b for a in K)
    return table


def pairform_dbar(form, pairs, h):
    """Numeric dbar of a pair form on an (N, 2n) pair cloud, by Wirtinger central differences.

    The form is evaluated once, on the stencil points of every pair.
    """
    P = np.asarray(pairs, dtype=complex)
    pts = _stencil_cloud(P, (h,))
    shifted = form(pts.reshape(-1, P.shape[1]))
    dbar = _stencil_dbar(shifted.values.reshape(pts.shape[:-1] + (-1,)), (h,))[:, 0]
    return SampledForm(P.shape[1], shifted.k + 1, P,
                       np.einsum("pbK,bKL->pL", dbar, _wedge_table(P.shape[1], shifted.k)))


def parametrix_layer_residual(omega_q, omega_qm1, chain, pairs):
    """Residual of the layer condition dbar(omega^q) = delta(omega^{q-1}).

    omega_q and omega_qm1 map a tuple of composable maps to a pair form; chain
    is the tuple (phi_1, ..., phi_q) and pairs a nonempty (N, 2n) pair cloud,
    evaluated all at once. This is the verifier interface for externally
    supplied parametrix cochain data.
    """
    q = len(chain)
    if q < 1:
        raise ValidationError("need at least one map in the chain")
    n = chain[0].n
    P = as_cloud(pairs, 2 * n)[0]
    if not len(P):
        raise ValidationError("no pairs to check the layer condition on")
    lhs = pairform_dbar(omega_q(chain), P, PARAMETRIX_STEP)
    # delta drops phi_1, merges each adjacent pair, and pulls back along phi_q
    faces = [(1.0, omega_qm1(chain[1:]))]
    faces += [((-1.0) ** j, omega_qm1(chain[:j - 1] + (MapChain(chain[j - 1:j + 1]),)
                                      + chain[j + 1:]))
              for j in range(1, q)]
    faces.append(((-1.0) ** q, pair_pullback(chain[-1], omega_qm1(chain[:-1]))))
    rhs = signed_sum(2 * n, lhs.k, P, ((sign, face(P)) for sign, face in faces))
    return lhs.sub(rhs).max_abs()


# ---------------------------------------------------------------------------
# Hartogs diagonal restriction by extrapolation

# the ladder eps = HARTOGS_EPS0 / 2^j, j < HARTOGS_LEVELS, along each direction
HARTOGS_EPS0 = 0.25
HARTOGS_LEVELS = 7
# directions may disagree by this many error estimates
HARTOGS_DISAGREEMENT = 10.0


def hartogs_diagonal(F, diagonal_points):
    """Extrapolated limit of F(z, z + eps v) as eps -> 0 along each direction.

    F is the scalar coefficient of a holomorphic (0, n)-type pair form; the
    directions are the coordinate axes and one oblique vector. Returns one
    entry per diagonal point with the value and an error estimate; raises
    DomainError when the ladder diverges or directions disagree beyond
    HARTOGS_DISAGREEMENT times the estimate (no holomorphic extension in the
    sampled data).
    """
    out = []
    for z in diagonal_points:
        z = tuple(complex(c) for c in z)
        dirs = _default_directions(len(z))
        limits = []
        estimates = []
        for v in dirs:
            v = tuple(complex(c) for c in v)
            ladder = []
            for j in range(HARTOGS_LEVELS):
                eps = HARTOGS_EPS0 / 2 ** j
                xi = tuple(a + eps * b for a, b in zip(z, v))
                ladder.append(complex(F(z, xi)))
            # a genuine singularity keeps growing geometrically at the
            # smallest steps; converging data has tail ratios near one
            tail = [abs(x) for x in ladder[-4:]]
            if all(b > 1.3 * a + 1e-12 for a, b in zip(tail, tail[1:])):
                raise DomainError(
                    "ladder diverges near %r along %r (no extension)" % (z, v))
            value, est = _richardson_limit(ladder)
            if est > 10.0 * (1.0 + abs(value)):
                raise DomainError(
                    "extrapolation unstable near %r along %r" % (z, v))
            limits.append(value)
            estimates.append(est)
        est = max(max(estimates), 1e-15)
        spread = max(abs(a - b) for a in limits for b in limits)
        if spread > HARTOGS_DISAGREEMENT * est:
            raise DomainError(
                "direction-dependent limits at %r: spread %.3e vs estimate %.3e"
                % (z, spread, est))
        out.append({"point": z, "value": sum(limits) / len(limits),
                    "estimate": est, "spread": spread})
    return out


def _default_directions(n):
    dirs = []
    for a in range(n):
        v = [0.0] * n
        v[a] = 1.0
        dirs.append(tuple(v))
    dirs.append(tuple(complex(0.6, 0.8 / (a + 1)) for a in range(n)))
    return dirs


def _richardson_limit(ladder):
    """Neville table eliminating powers eps, eps^2, ... with ratio 2."""
    table = [list(ladder)]
    for m in range(1, len(ladder)):
        prev = table[-1]
        row = []
        for j in range(1, len(prev)):
            row.append((2 ** m * prev[j] - prev[j - 1]) / (2 ** m - 1))
        table.append(row)
    value = table[-1][-1]
    estimate = abs(table[-1][-1] - table[-2][-1]) if len(table) > 1 else abs(value)
    return value, estimate
