"""Bochner-Martinelli kernel evaluation and its verification battery.

The kernel is kept in the difference basis: the antiholomorphic part of each
term is a wedge of (d xi-bar^j - d z-bar^j) factors with one index omitted,
times the full holomorphic d xi wedge. Coefficients follow the paper's
normalization constant; the classical reproducing constant differs by
-(2 pi i)^{n-1}, and the reproducing check rescales accordingly (both values
are reported).

Kernel evaluation works on clouds, like the rest of the package:
bm_coefficients takes an (N, n) array of xi and returns (N, n) coefficients,
and a single point is a one-row view of the same path returning
{i: coefficient}. The dbar check sends every stencil point of every probe and
step to the coefficient function in one (M, n) cloud; the reproducing
integral evaluates one (order, order) slab of sphere nodes per kernel call.
The diagonal guard names the first offending xi of a cloud.
"""

import itertools
import math

import numpy as np

from .errors import DomainError, ValidationError
from .holomap import compose

DIAGONAL_CUTOFF = 1e-12


def bm_constant(n):
    """The paper's normalization: -(-1)^{n(n-1)} (n-1)!/(2 pi i). The sign
    exponent n(n-1) is always even, so this is -(n-1)!/(2 pi i)."""
    return -((-1) ** (n * (n - 1))) * math.factorial(n - 1) / (2j * math.pi)


def classical_constant(n):
    """(n-1)!/(2 pi i)^n, the constant whose sphere integral reproduces 1."""
    return math.factorial(n - 1) / (2j * math.pi) ** n


class BMEvaluation:
    """Kernel coefficients at one off-diagonal pair (z, xi).

    coefficients[i] multiplies the wedge of all (d xi-bar^j - d z-bar^j) with
    j != i, times d xi^1 ... d xi^n.
    """

    def __init__(self, n, z, xi, coefficients):
        self.n = n
        self.z = tuple(z)
        self.xi = tuple(xi)
        self.coefficients = dict(coefficients)

    def __repr__(self):
        return "BMEvaluation(n=%d, %r)" % (self.n, self.coefficients)


def bm_coefficients(n, z, xi, scale=1.0):
    """The omitted-index coefficients b_n (-1)^i (xi-bar^i - z-bar^i)/|xi-z|^{2n}.

    xi is an (N, n) cloud and the result is (N, n), column i - 1 holding index
    i. A single point is a one-row view of the same path that returns
    {i: coefficient}.
    """
    if n < 2:
        raise ValidationError("the kernel is defined for n >= 2")
    z = np.asarray(z, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    single = xi.ndim == 1
    cloud = xi.reshape(1, -1) if single else xi
    if z.shape != (n,) or cloud.ndim != 2 or cloud.shape[1] != n:
        raise ValidationError("points must have %d coordinates" % n)
    diff = cloud - z
    dist2 = np.sum(np.abs(diff) ** 2, axis=1)
    if len(dist2) and math.sqrt(dist2.min()) < DIAGONAL_CUTOFF:
        i = int(np.argmax(np.sqrt(dist2) < DIAGONAL_CUTOFF))
        raise DomainError("point xi = %s within %.0e of the diagonal"
                          % (tuple(complex(c) for c in cloud[i]), DIAGONAL_CUTOFF))
    signs = (-1.0) ** np.arange(1, n + 1)
    coeffs = (bm_constant(n) * scale) * signs * np.conj(diff) / (dist2 ** n)[:, None]
    if single:
        return {i: complex(c) for i, c in enumerate(coeffs[0], start=1)}
    return coeffs


def bm_eval(n, z, xi):
    return BMEvaluation(n, z, xi, bm_coefficients(n, z, xi))


# +h, -h, +ih, -ih along one coordinate
_STENCIL = np.array([1.0, -1.0, 1.0j, -1.0j])


def _stencil_residuals(n, z, probes, steps, coeff_fn):
    """Central-difference dbar defects at every (probe, step): a (P, S) array.

    In the difference basis the only surviving part of dbar omega^0 is the
    alternating sum of the xi-bar_i derivatives of the omitted-index
    coefficients, so that single complex number is the residual. Every
    stencil point of every probe and step goes to coeff_fn in one (M, n)
    cloud, stacked as (probe, step, coordinate, stencil direction).
    """
    coeff_fn = coeff_fn or (lambda pts: bm_coefficients(n, z, pts))
    steps = np.asarray(steps, dtype=float)
    # offsets[s, i, k] moves coordinate i by steps[s] * _STENCIL[k]
    offsets = (steps[:, None, None, None] * _STENCIL[None, None, :, None]
               * np.eye(n)[None, :, None, :])
    pts = probes[:, None, None, None, :] + offsets[None]
    coeffs = np.asarray(coeff_fn(pts.reshape(-1, n))).reshape(pts.shape)
    # own[p, s, k, i]: coefficient i on the stencil along coordinate i
    own = np.diagonal(coeffs, axis1=2, axis2=4)
    h = steps[None, :, None]
    dx = (own[:, :, 0] - own[:, :, 1]) / (2 * h)
    dy = (own[:, :, 2] - own[:, :, 3]) / (2 * h)
    dbar = 0.5 * (dx + 1j * dy)
    return np.sum((-1.0) ** np.arange(n) * dbar, axis=-1)


def dbar_residual(n, z, xi, h, coeff_fn=None):
    """The dbar defect at one probe: a one-row view of the stencil cloud.

    coeff_fn, when given, maps an (M, n) cloud to (M, n) coefficients.
    """
    probe = np.asarray(xi, dtype=complex).reshape(1, n)
    return complex(_stencil_residuals(n, np.asarray(z, dtype=complex), probe, (h,),
                                      coeff_fn)[0, 0])


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


def reproducing_integral(z=(0.0, 0.0), radius=1.0, order=32, kernel_scale=1.0):
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
        coeffs = bm_coefficients(2, z, xi.reshape(-1, 2), scale=kernel_scale)
        sum1, sum2 = np.einsum("ij,ij->j", wdet, coeffs).tolist()
        total += we * (c * c * s * sum1 + c * s * s * sum2)
    # the (eta, phi1, phi2) chart is negatively oriented for the outward sphere
    return complex(-rescale * total)


# ---------------------------------------------------------------------------
# pair forms: forms on W x W minus the diagonal, in full (z-bar, xi-bar) basis


class PairForm:
    """Antiholomorphic-degree-d form on pairs, times the full d xi wedge.

    eval(w1, w2) returns {key: coefficient} where a key is an increasing tuple
    of (side, index) with side 0 for the first factor (z-bar differentials)
    and 1 for the second (xi-bar); the holomorphic part d xi^1..d xi^n rides
    along implicitly through pullbacks (its Jacobian determinant multiplies
    every coefficient).
    """

    def __init__(self, n, degree, eval_fn, name="pairform"):
        self.n = int(n)
        self.degree = int(degree)
        self._eval = eval_fn
        self.name = name

    def keys(self):
        sides = [(s, j) for s in (0, 1) for j in range(1, self.n + 1)]
        return list(itertools.combinations(sorted(sides), self.degree))

    def eval(self, w1, w2):
        return self._eval(tuple(w1), tuple(w2))

    def scale(self, a):
        return PairForm(self.n, self.degree,
                        lambda w1, w2: {k: a * v for k, v in self.eval(w1, w2).items()})

    def __add__(self, other):
        if (self.n, self.degree) != (other.n, other.degree):
            raise ValidationError("pair form mismatch")

        def ev(w1, w2):
            a = self.eval(w1, w2)
            for k, v in other.eval(w1, w2).items():
                a[k] = a.get(k, 0) + v
            return a

        return PairForm(self.n, self.degree, ev)

    def __sub__(self, other):
        return self + other.scale(-1.0)


def bm_pairform(n, scale=1.0):
    """The kernel as a PairForm: difference-basis wedges expanded into sides."""

    def ev(w1, w2):
        coeffs = bm_coefficients(n, w1, w2, scale=scale)
        out = {}
        for i, c in coeffs.items():
            rest = [j for j in range(1, n + 1) if j != i]
            # expand the product of (xi-bar_j - z-bar_j) over j in rest
            for choice in itertools.product((0, 1), repeat=len(rest)):
                keys = [(1 if pick else 0, j) for pick, j in zip(choice, rest)]
                sign = (-1) ** sum(1 for pick in choice if not pick)
                skeys, perm_sign = _sort_wedge(keys)
                if skeys is None:
                    continue
                out[skeys] = out.get(skeys, 0) + sign * perm_sign * c
        return out

    return PairForm(n, n - 1, ev, name="bm_kernel")


def _sort_wedge(keys):
    """Sort wedge factors, tracking the permutation sign; repeats kill the term."""
    if len(set(keys)) != len(keys):
        return None, 0
    sign = 1
    keys = list(keys)
    for i in range(len(keys)):
        for j in range(len(keys) - 1 - i):
            if keys[j] > keys[j + 1]:
                keys[j], keys[j + 1] = keys[j + 1], keys[j]
                sign = -sign
    return tuple(keys), sign


def pair_pullback(psi, form):
    """(psi x psi)^* on a PairForm; psi needs eval and jacobian."""

    def ev(w1, w2):
        J1 = psi.jacobian(w1)
        J2 = psi.jacobian(w2)
        det_hol = np.linalg.det(J2)
        vals = form.eval(psi.eval(w1), psi.eval(w2))
        out = {}
        for key, coeff in vals.items():
            if coeff == 0:
                continue
            # each (side, j) factor expands along its factor's conjugate Jacobian
            ranges = []
            for side, j in key:
                J = J1 if side == 0 else J2
                ranges.append([(side, b + 1, J[j - 1, b].conjugate())
                               for b in range(form.n)])
            for combo in itertools.product(*ranges):
                keys = [(side, b) for side, b, _ in combo]
                skeys, perm_sign = _sort_wedge(keys)
                if skeys is None:
                    continue
                factor = coeff * perm_sign * det_hol
                for _, _, jac in combo:
                    factor *= jac
                out[skeys] = out.get(skeys, 0) + factor
        return out

    return PairForm(form.n, form.degree, ev, name="(psi x psi)*%s" % form.name)


def bm_vertex(rho, scale=1.0):
    """The vertex assignment: pull the kernel back along rho x rho."""
    return pair_pullback(rho, bm_pairform(rho.n, scale=scale))


def pairform_dbar(form, w1, w2, h):
    """Numeric dbar of a PairForm at one pair, via Wirtinger central differences."""
    out = {}
    for side in (0, 1):
        for b in range(1, form.n + 1):
            def shifted(step):
                p1, p2 = list(w1), list(w2)
                (p1 if side == 0 else p2)[b - 1] += step
                return form.eval(tuple(p1), tuple(p2))

            plus_x, minus_x = shifted(h), shifted(-h)
            plus_y, minus_y = shifted(1j * h), shifted(-1j * h)
            keys = set(plus_x) | set(minus_x) | set(plus_y) | set(minus_y)
            for key in keys:
                dx = (plus_x.get(key, 0) - minus_x.get(key, 0)) / (2 * h)
                dy = (plus_y.get(key, 0) - minus_y.get(key, 0)) / (2 * h)
                dbar = 0.5 * (dx + 1j * dy)
                if dbar == 0:
                    continue
                skeys, sign = _sort_wedge([(side, b)] + list(key))
                if skeys is None:
                    continue
                out[skeys] = out.get(skeys, 0) + sign * dbar
    return out


def parametrix_layer_residual(omega_q, omega_qm1, chain, pairs, h=1e-4):
    """Residual of the layer condition dbar(omega^q) = delta(omega^{q-1}).

    omega_q and omega_qm1 map a tuple of composable maps to a PairForm; chain
    is the tuple (phi_1, ..., phi_q). This is the verifier interface for
    externally supplied parametrix cochain data.
    """
    q = len(chain)
    if q < 1:
        raise ValidationError("need at least one map in the chain")
    lhs_form = omega_q(chain)
    rhs_parts = []
    if q == 1:
        rhs_parts.append((1.0, omega_qm1(()), None))
    else:
        rhs_parts.append((1.0, omega_qm1(chain[1:]), None))
        for j in range(1, q):
            merged = chain[:j - 1] + (compose(chain[j - 1], chain[j], check=False),) \
                + chain[j + 1:]
            rhs_parts.append(((-1.0) ** j, omega_qm1(merged), None))
        rhs_parts.append(((-1.0) ** q, omega_qm1(chain[:-1]), chain[-1]))
    worst = 0.0
    for w1, w2 in pairs:
        lhs = pairform_dbar(lhs_form, w1, w2, h)
        rhs = {}
        for sign, form, pull in rhs_parts:
            vals = pair_pullback(pull, form).eval(w1, w2) if pull is not None \
                else form.eval(w1, w2)
            for k, v in vals.items():
                rhs[k] = rhs.get(k, 0) + sign * v
        keys = set(lhs) | set(rhs)
        for k in keys:
            worst = max(worst, abs(lhs.get(k, 0) - rhs.get(k, 0)))
    return worst


# ---------------------------------------------------------------------------
# Hartogs diagonal restriction by extrapolation


def hartogs_diagonal(F, diagonal_points, directions=None, eps0=0.25, levels=7,
                     disagreement_factor=10.0):
    """Extrapolated limit of F(z, z + eps v) as eps -> 0 along each direction.

    F is the scalar coefficient of a holomorphic (0, n)-type pair form. Returns
    one entry per diagonal point with the value and an error estimate; raises
    DomainError when the ladder diverges or directions disagree beyond
    disagreement_factor times the estimate (no holomorphic extension in the
    sampled data).
    """
    out = []
    for z in diagonal_points:
        z = tuple(complex(c) for c in z)
        dirs = directions or _default_directions(len(z))
        limits = []
        estimates = []
        for v in dirs:
            v = tuple(complex(c) for c in v)
            ladder = []
            for j in range(levels):
                eps = eps0 / 2 ** j
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
        if spread > disagreement_factor * est:
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
