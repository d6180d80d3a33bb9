import cmath
import itertools
import math

import numpy as np
import pytest

import cocyclekit.bm as bm
import cocyclekit.holomap as hm
from cocyclekit.errors import DomainError, ValidationError
from cocyclekit.forms import SampledForm


def transcribed_coefficients(n, z, xi):
    """Second, independent transcription of the kernel formula."""
    z = np.asarray(z, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    b = -((-1) ** (n * (n - 1))) * math.factorial(n - 1) / (2 * math.pi * 1j)
    norm2n = float(np.sum(np.abs(xi - z) ** 2)) ** n
    out = {}
    for i in range(1, n + 1):
        out[i] = b * (-1) ** i * np.conj(xi[i - 1] - z[i - 1]) / norm2n
    return out


def test_b2_value():
    assert bm.bm_constant(2) == pytest.approx(1j / (2 * math.pi))
    assert bm.bm_constant(2) == pytest.approx(-1 / (2j * math.pi))


def test_bm_eval_against_independent_transcription(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 4))
        z = tuple(complex(a, b) for a, b in rng.uniform(-2, 2, (n, 2)))
        xi = tuple(complex(a, b) for a, b in rng.uniform(-2, 2, (n, 2)))
        if math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(xi, z))) < 1e-6:
            continue
        got = bm.bm_coefficients(n, z, xi)
        want = transcribed_coefficients(n, z, xi)
        for i in got:
            assert abs(got[i] - want[i]) <= 1e-12 * (1 + abs(want[i]))


def test_bm_eval_explicit_point():
    # n = 2, z = 0, xi = (1, 0): |xi - z|^4 = 1
    got = bm.bm_coefficients(2, (0, 0), (1, 0))
    b = bm.bm_constant(2)
    assert got[1] == pytest.approx(-b)   # (-1)^1 * conj(1)
    assert got[2] == pytest.approx(0.0)


def test_bm_eval_diagonal_rejected():
    with pytest.raises(DomainError):
        bm.bm_coefficients(2, (0.5, 0.5), (0.5, 0.5))


@pytest.mark.parametrize("n", [2, 3])
def test_cloud_coefficients_match_transcription(rng, n):
    z = tuple(complex(a, b) for a, b in rng.uniform(-1, 1, (n, 2)))
    cloud = rng.uniform(-2, 2, (200, n)) + 1j * rng.uniform(-2, 2, (200, n))
    got = bm.bm_coefficients(n, z, cloud)
    assert got.shape == (200, n)
    for row, xi in zip(got, cloud):
        want = transcribed_coefficients(n, z, xi)
        for i in range(1, n + 1):
            assert abs(row[i - 1] - want[i]) <= 1e-12 * abs(want[i])
        # the single-point call is a one-row view of the same path
        single = bm.bm_coefficients(n, z, tuple(xi))
        assert sorted(single) == list(range(1, n + 1))
        assert [single[i] for i in single] == list(row)
    # z aligned row by row with xi: row r uses its own z
    zs = rng.uniform(-1, 1, (200, n)) + 1j * rng.uniform(-1, 1, (200, n))
    aligned = bm.bm_coefficients(n, zs, cloud)
    for r in (0, 57, 199):
        assert list(aligned[r]) == list(bm.bm_coefficients(n, zs[r], cloud[r:r + 1])[0])


def test_cloud_diagonal_point_is_named():
    z = (0.25 - 0.5j, 1.0)
    # two diagonal points, the exact one second: the first is named
    near = (0.25 - 0.5j + 1e-13, 1.0)
    cloud = np.array([(1.0, 0.0), (0.5, 2j), near, z, (3.0, 1.0)], dtype=complex)
    with pytest.raises(DomainError) as err:
        bm.bm_coefficients(2, z, cloud)
    assert str(tuple(complex(c) for c in near)) in str(err.value)


def test_bm_eval_dimension_one_rejected():
    with pytest.raises(ValidationError):
        bm.bm_coefficients(1, (0,), (1,))


def test_bm_homogeneity_scaling_law(rng):
    # coefficients at (z, z + t v) equal t^(1-2n) times those at (z, z + v),
    # for real t > 0; both sides evaluated directly
    for n in (2, 3):
        z = tuple(complex(a, b) for a, b in rng.uniform(-1, 1, (n, 2)))
        v = tuple(complex(a, b) for a, b in rng.uniform(-1, 1, (n, 2)))
        t = 0.37
        base = bm.bm_coefficients(n, z, tuple(a + b for a, b in zip(z, v)))
        scaled = bm.bm_coefficients(n, z, tuple(a + t * b for a, b in zip(z, v)))
        for i in base:
            assert scaled[i] == pytest.approx(t ** (1 - 2 * n) * base[i], rel=1e-10)


def test_dbar_residual_is_order_two(rng):
    z = (0.1 + 0.05j, -0.2 + 0.1j)
    probes = []
    for _ in range(10):
        v = rng.normal(size=4).reshape(2, 2)
        v /= np.linalg.norm(v)
        probes.append(tuple(z[i] + complex(v[i, 0], v[i, 1]) for i in range(2)))
    report = bm.dbar_closed_check(2, z, probes, h=1e-3)
    assert report["pass"]
    assert report["order_two"]
    assert 0.8 * 4 <= report["ratio"] <= 1.2 * 4


def test_dbar_residual_is_order_two_n3(rng):
    z = (0.05, -0.1 + 0.05j, 0.02j)
    probes = []
    for _ in range(6):
        v = rng.normal(size=6).reshape(3, 2)
        v /= np.linalg.norm(v)
        probes.append(tuple(z[i] + complex(v[i, 0], v[i, 1]) for i in range(3)))
    report = bm.dbar_closed_check(3, z, probes, h=1e-3)
    assert report["pass"] and report["order_two"]


def test_dbar_constant_form_gives_zero_residual(rng):
    z = (0.0, 0.0)
    probes = [(1.0, 0.0), (0.0, 1.0)]
    const = lambda pts: np.broadcast_to([2.3 + 1j, -0.5], (len(pts), 2))
    report = bm.dbar_closed_check(2, z, probes, h=1e-3, coeff_fn=const)
    assert report["max_residual_h"] == 0.0


def scalar_dbar_residual(n, z, probe, h, coeff):
    """Per-probe central-difference stencil, one coefficient call per point."""
    total = 0j
    for i in range(1, n + 1):
        def shifted(step):
            pt = list(probe)
            pt[i - 1] = pt[i - 1] + step
            return coeff(tuple(pt))[i]

        dx = (shifted(h) - shifted(-h)) / (2 * h)
        dy = (shifted(1j * h) - shifted(-1j * h)) / (2 * h)
        total += (-1) ** (i - 1) * 0.5 * (dx + 1j * dy)
    return total


@pytest.mark.parametrize("n", [2, 3])
def test_dbar_stencil_matches_per_probe_oracle(rng, n):
    z = tuple(complex(a, b) for a, b in rng.uniform(-0.2, 0.2, (n, 2)))
    probes = []
    for _ in range(5):
        v = rng.normal(size=(n, 2))
        v /= np.linalg.norm(v)
        probes.append(tuple(z[i] + complex(v[i, 0], v[i, 1]) for i in range(n)))
    h = 1e-3
    calls = []

    def cloud_coeffs(pts):
        calls.append(len(pts))
        return np.array([[transcribed_coefficients(n, z, p)[i] for i in range(1, n + 1)]
                         for p in pts])

    report = bm.dbar_closed_check(n, z, probes, h, coeff_fn=cloud_coeffs)
    assert calls == [len(probes) * 2 * n * 4]
    want_h = [abs(scalar_dbar_residual(n, z, p, h, lambda xi: transcribed_coefficients(n, z, xi)))
              for p in probes]
    want_h2 = [abs(scalar_dbar_residual(n, z, p, h / 2,
                                        lambda xi: transcribed_coefficients(n, z, xi)))
               for p in probes]
    # same coefficients on both sides: only the order of the O(1) sums differs
    for row, want in zip(report["per_probe"], want_h):
        assert abs(row["residual"] - want) <= 1e-13
    assert abs(report["max_residual_h"] - max(want_h)) <= 1e-13
    assert abs(report["max_residual_h_half"] - max(want_h2)) <= 1e-13
    # the default kernel path against the scalar stencil on the single-point view
    default = bm.dbar_closed_check(n, z, probes, h)
    for row, p in zip(default["per_probe"], probes):
        want = abs(scalar_dbar_residual(n, z, p, h, lambda xi: bm.bm_coefficients(n, z, xi)))
        assert abs(row["residual"] - want) <= 1e-12


def test_dbar_probe_too_close_rejected():
    with pytest.raises(DomainError):
        bm.dbar_closed_check(2, (0, 0), [(1e-3, 0)], h=1e-3)


def test_reproducing_integral_is_one():
    val = bm.reproducing_integral(radius=1.0, order=32)
    assert abs(val - 1.0) < 1e-3


def test_reproducing_integral_radius_independent():
    vals = [bm.reproducing_integral(radius=r, order=32) for r in (0.5, 1.0, 2.0)]
    for v in vals:
        assert abs(v - 1.0) < 1e-3


def test_reproducing_integral_converges():
    # Cauchy differences shrink monotonically beyond order 16, up to an
    # epsilon floor once the quadrature hits machine precision
    orders = [8, 16, 24, 32]
    vals = [bm.reproducing_integral(order=o) for o in orders]
    diffs = [abs(a - b) for a, b in zip(vals, vals[1:])]
    floor = 1e-12
    for earlier, later in zip(diffs, diffs[1:]):
        assert later <= earlier or later < floor


def det3(r0, r1, r2):
    return (r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
            - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
            + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0]))


def scalar_reproducing_integral(z, radius, order):
    """Per-node transcription of the quadrature: one kernel call and two
    cofactor-expanded tangent determinants per node."""
    eta_x, eta_w = np.polynomial.legendre.leggauss(order)
    eta_x, eta_w = 0.25 * math.pi * (eta_x + 1), 0.25 * math.pi * eta_w
    phi_x, phi_w = np.polynomial.legendre.leggauss(order)
    phi_x, phi_w = math.pi * (phi_x + 1), math.pi * phi_w
    total = 0j
    r = radius
    for eta, we in zip(eta_x, eta_w):
        ce, se = math.cos(eta), math.sin(eta)
        for p1, w1 in zip(phi_x, phi_w):
            e1 = complex(math.cos(p1), math.sin(p1))
            for p2, w2 in zip(phi_x, phi_w):
                e2 = complex(math.cos(p2), math.sin(p2))
                xi = (z[0] + r * ce * e1, z[1] + r * se * e2)
                c = transcribed_coefficients(2, z, xi)
                d1 = (-r * se * e1, 1j * r * ce * e1, 0.0)
                d2 = (r * ce * e2, 0.0, 1j * r * se * e2)
                det1 = det3([v.conjugate() for v in d2], d1, d2)
                det2 = det3([v.conjugate() for v in d1], d1, d2)
                total += we * w1 * w2 * (c[1] * det1 + c[2] * det2)
    rescale = (1 / (2j * math.pi) ** 2) / (-1 / (2j * math.pi))
    return -rescale * total


@pytest.mark.parametrize("order", [8, 32])
@pytest.mark.parametrize("radius", [0.5, 2.0])
def test_reproducing_integral_matches_per_node_oracle(order, radius):
    z = (0.3 - 0.1j, -0.25 + 0.4j)
    want = scalar_reproducing_integral(z, radius, order)
    got = bm.reproducing_integral(z=z, radius=radius, order=order)
    assert abs(got - want) <= 1e-12 * (1 + abs(want))


def test_reproducing_integral_rejects_low_order():
    with pytest.raises(ValidationError):
        bm.reproducing_integral(order=2)


# --- pair forms ----------------------------------------------------------------
#
# Per-pair reference: a pair form evaluated at one pair (w1, w2) as a dict
# {key: coefficient}, a key being an increasing tuple of (side, index) with
# side 0 for the d z-bar differentials and 1 for the d xi-bar ones. Pair
# cloud column side * n + index - 1 holds (side, index), so sorted keys are
# the combinations order of the array code.


def sort_wedge(keys):
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


def ref_pairform(n):
    """The kernel at one pair, difference-basis wedges expanded into sides."""

    def ev(w1, w2):
        coeffs = transcribed_coefficients(n, w1, w2)
        out = {}
        for i, c in coeffs.items():
            rest = [j for j in range(1, n + 1) if j != i]
            for choice in itertools.product((0, 1), repeat=len(rest)):
                keys = [(1 if pick else 0, j) for pick, j in zip(choice, rest)]
                sign = (-1) ** sum(1 for pick in choice if not pick)
                skeys, perm_sign = sort_wedge(keys)
                out[skeys] = out.get(skeys, 0) + sign * perm_sign * c
        return out

    return ev


def ref_pullback(psi, ev):
    """(psi x psi)^* at one pair: each (side, j) factor expands along its
    factor's conjugate Jacobian, the d xi wedge takes det J2."""

    def pulled(w1, w2):
        J1, J2 = psi.jacobian(w1), psi.jacobian(w2)
        det_hol = np.linalg.det(J2)
        out = {}
        for key, coeff in ev(psi.eval(w1), psi.eval(w2)).items():
            ranges = [[(side, b + 1, (J1 if side == 0 else J2)[j - 1, b].conjugate())
                       for b in range(psi.n)] for side, j in key]
            for combo in itertools.product(*ranges):
                skeys, perm_sign = sort_wedge([(side, b) for side, b, _ in combo])
                if skeys is None:
                    continue
                factor = coeff * perm_sign * det_hol
                for _, _, jac in combo:
                    factor *= jac
                out[skeys] = out.get(skeys, 0) + factor
        return out

    return pulled


def ref_dbar(n, ev, w1, w2, h):
    """dbar at one pair, one Wirtinger central difference per (side, index)."""
    out = {}
    for side in (0, 1):
        for b in range(1, n + 1):
            def shifted(step):
                p1, p2 = list(w1), list(w2)
                (p1 if side == 0 else p2)[b - 1] += step
                return ev(tuple(p1), tuple(p2))

            px, mx, py, my = shifted(h), shifted(-h), shifted(1j * h), shifted(-1j * h)
            for key in set(px) | set(mx) | set(py) | set(my):
                dx = (px.get(key, 0) - mx.get(key, 0)) / (2 * h)
                dy = (py.get(key, 0) - my.get(key, 0)) / (2 * h)
                skeys, sign = sort_wedge([(side, b)] + list(key))
                if skeys is not None:
                    out[skeys] = out.get(skeys, 0) + sign * 0.5 * (dx + 1j * dy)
    return out


def as_row(n, k, coefficients):
    """A reference dict as one row of the array code's k-indices."""
    cols = {K: c for c, K in enumerate(itertools.combinations(range(2 * n), k))}
    row = np.zeros(len(cols), dtype=complex)
    for key, v in coefficients.items():
        row[cols[tuple(side * n + j - 1 for side, j in key)]] += v
    return row


def random_pairs(rng, n, count, near=(-0.4, 0.4), far=(0.6, 1.2)):
    w1 = rng.uniform(*near, (count, n)) + 1j * rng.uniform(*near, (count, n))
    w2 = rng.uniform(*far, (count, n)) + 1j * rng.uniform(*far, (count, n))
    return np.concatenate([w1, w2], axis=1)


def smooth_pairform(n, k, seed):
    """A degree-k pair form that is not dbar-closed: quadratic in w and w-bar."""
    r = np.random.default_rng(seed)
    m = math.comb(2 * n, k)
    A = r.normal(size=(2 * n, m)) + 1j * r.normal(size=(2 * n, m))
    B = r.normal(size=(2 * n, m)) + 1j * r.normal(size=(2 * n, m))
    return lambda P: SampledForm(2 * n, k, P, (np.conj(P) * P) @ A + P @ B)


def per_pair(form, n):
    """An array pair form read one pair at a time, as a reference dict."""

    def ev(w1, w2):
        f = form(np.array([tuple(w1) + tuple(w2)], dtype=complex))
        keys = [tuple((a // n, a % n + 1) for a in K)
                for K in itertools.combinations(range(2 * n), f.k)]
        return dict(zip(keys, f.values[0]))

    return ev


def maps_of_dimension(n):
    if n == 2:
        return [hm.henon_map(), hm.shear_map(), hm.mobius_like_map(),
                hm.affine_map([[(1, 1), (2, 0)], [(0, 0), (-1, 2)]], [(1, 0), (0, 1)])]
    return [hm.parse_map("z2; z2^2 + 3/10 - z1; z3", 3),
            hm.parse_map("z1; z2 + z1^2; z3 + z1*z2", 3),
            hm.parse_map("z1/(1 + z2); z2 + 1; z3", 3),
            hm.affine_map([[(1, 0), (2, 1), (0, 0)], [(0, 0), (1, 0), (3, 0)],
                           [(1, 0), (0, 0), (1, 1)]], [(1, 0), (0, 1), (2, 0)])]


def assert_rows_close(got, want_rows, rtol=1e-12):
    for row, want in zip(got, want_rows):
        assert np.max(np.abs(row - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("n", [2, 3])
def test_pairform_matches_per_pair_oracle(rng, n):
    pairs = random_pairs(rng, n, 8)
    form = bm.bm_pairform(n)(pairs)
    assert (form.n, form.k, form.values.shape) == (2 * n, n - 1, (8, math.comb(2 * n, n - 1)))
    assert_rows_close(form.values, [as_row(n, n - 1, ref_pairform(n)(P[:n], P[n:]))
                                    for P in pairs])


@pytest.mark.parametrize("n", [2, 3])
def test_pair_pullback_matches_per_pair_oracle(rng, n):
    pairs = random_pairs(rng, n, 6)
    smooth = smooth_pairform(n, 2, seed=n)
    for psi in maps_of_dimension(n):
        for form, ev, k in ((bm.bm_pairform(n), ref_pairform(n), n - 1),
                            (smooth, per_pair(smooth, n), 2)):
            got = bm.pair_pullback(psi, form)(pairs)
            assert (got.n, got.k) == (2 * n, k)
            assert_rows_close(got.values, [as_row(n, k, ref_pullback(psi, ev)(P[:n], P[n:]))
                                           for P in pairs])


@pytest.mark.parametrize("n", [2, 3])
def test_pairform_dbar_matches_per_pair_oracle(rng, n):
    pairs = random_pairs(rng, n, 5)
    psi = maps_of_dimension(n)[0]
    smooth = smooth_pairform(n, 1, seed=10 + n)
    # The reference differentiates the same form, one pair at a time. Form
    # values that differ by rounding differ by eps / h after differencing, so
    # the step is 1e-2 here: that keeps rounding below the 1e-12 tolerance,
    # and both sides take the same central differences at any step.
    for form in (smooth, bm.pair_pullback(psi, smooth)):
        got = bm.pairform_dbar(form, pairs, 1e-2)
        assert (got.n, got.k) == (2 * n, 2)
        assert_rows_close(got.values, [as_row(n, 2, ref_dbar(n, per_pair(form, n), P[:n],
                                                             P[n:], 1e-2))
                                       for P in pairs])
    # the kernel and its pullbacks are dbar-closed: only truncation and rounding remain
    h = 1e-4
    for form in (bm.bm_pairform(n), bm.bm_vertex(psi)):
        got = bm.pairform_dbar(form, pairs, h)
        scale = np.max(np.abs(form(pairs).values)) / h
        assert got.max_abs() <= 1e-9 * scale


def test_bm_vertex_identity_is_kernel(rng):
    pairs = random_pairs(rng, 2, 5, near=(-0.5, 0.5), far=(1, 2))
    a = bm.bm_vertex(hm.identity_map(2))(pairs)
    b = bm.bm_pairform(2)(pairs)
    assert (a.n, a.k) == (b.n, b.k) == (4, 1)
    assert list(a.values.ravel()) == pytest.approx(list(b.values.ravel()))


def test_bm_vertex_affine_unitary_law(rng):
    # rho(z) = U z + b with U unitary: |rho(xi) - rho(z)| = |xi - z|, the
    # Jacobian is the constant U, and the exact pullback law is linear in
    # conj(U) entries with det(U) on the holomorphic side
    theta = 0.3
    U = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]], dtype=complex)
    rho = hm.affine_map([[(math.cos(theta), 0.0), (-math.sin(theta), 0.0)],
                         [(math.sin(theta), 0.0), (math.cos(theta), 0.0)]],
                        [0, 0], name="rot")
    pairs = random_pairs(rng, 2, 5, near=(-0.5, 0.5), far=(1, 2))
    moved = np.concatenate([pairs[:, :2] @ U.T, pairs[:, 2:] @ U.T], axis=1)
    # d w-bar_(side, j) = sum_b conj(U[j, b]) d w-bar_(side, b) on each side
    exact = bm.bm_pairform(2)(moved).values @ np.kron(np.eye(2), np.conj(U)) * np.linalg.det(U)
    got = bm.bm_vertex(rho)(pairs).values
    assert list(got.ravel()) == pytest.approx(list(exact.ravel()), abs=1e-12)


def test_bm_vertex_naturality(rng):
    for rho, psi in ((hm.henon_map(), hm.shear_map()),
                     (hm.shear_map(), hm.henon_map()),
                     (hm.mobius_like_map(), hm.shear_map())):
        pairs = random_pairs(rng, 2, 6)
        lhs = bm.bm_vertex(hm.compose(rho, psi, check=False))(pairs).values
        rhs = bm.pair_pullback(psi, bm.bm_vertex(rho))(pairs).values
        for a, b in zip(lhs, rhs):
            assert np.max(np.abs(a - b)) < 1e-9 * (1 + np.max(np.abs(b)))


def test_bm_vertex_diagonal_pair_rejected():
    with pytest.raises(DomainError):
        bm.bm_vertex(hm.identity_map(2))([[0.3, 0.4, 0.3, 0.4]])


# --- Hartogs -------------------------------------------------------------------


def test_hartogs_polynomial_recovered_exactly(rng):
    def F(z, xi):
        return (xi[0] + 2 * xi[1]) ** 2 + z[0] * xi[1] + 3

    pts = [(0.3 + 0.1j, -0.2j), (0.1, 0.5)]
    out = bm.hartogs_diagonal(F, pts)
    for entry, z in zip(out, pts):
        z = tuple(complex(c) for c in z)
        want = (z[0] + 2 * z[1]) ** 2 + z[0] * z[1] + 3
        assert abs(entry["value"] - want) <= 1e-12


def test_hartogs_pole_flagged():
    with pytest.raises(DomainError):
        bm.hartogs_diagonal(lambda z, xi: 1.0 / (xi[0] - z[0]), [(0.1, 0.2)])


def test_hartogs_removable_singularity():
    def F(z, xi):
        d = xi[0] - z[0]
        payload = cmath.exp(z[1]) + xi[1]
        return payload if abs(d) < 1e-30 else cmath.sin(d) / d * payload

    z = (0.2 + 0.1j, 0.4 - 0.3j)
    out = bm.hartogs_diagonal(F, [z])
    want = cmath.exp(z[1]) + z[1]
    assert abs(out[0]["value"] - want) <= 1e-9


# --- parametrix layer interface -------------------------------------------------


def test_parametrix_interface_holomorphic_data_passes(rng):
    # omega^1 holomorphic in every antiholomorphic direction, omega^0 = 0:
    # the layer condition dbar(omega^1) = delta(omega^0) holds
    def omega_q(chain):
        return lambda P: SampledForm(4, 0, P, (P[:, 0] ** 2 + P[:, 3])[:, None])

    def omega_qm1(chain):
        return lambda P: SampledForm.zeros(4, 1, P, ())

    pairs = np.array([[0.1, 0.2, 0.5, 0.8], [0.3 + 0.1j, 0.0, 0.0, 0.6]])
    res = bm.parametrix_layer_residual(omega_q, omega_qm1, (hm.shear_map(),), pairs)
    assert res < 1e-8


def test_parametrix_interface_flags_bad_data():
    def omega_q(chain):
        return lambda P: SampledForm(4, 0, P, (np.abs(P[:, 2]) ** 2)[:, None])

    def omega_qm1(chain):
        return lambda P: SampledForm.zeros(4, 1, P, ())

    pairs = np.array([[0.1, 0.2, 0.5, 0.8]])
    res = bm.parametrix_layer_residual(omega_q, omega_qm1, (hm.shear_map(),), pairs)
    assert res > 1e-3


def test_parametrix_coboundary_data_passes(rng):
    # omega^q = delta(g) over omega^{q-1} = beta with dbar g = beta, and
    # omega^2 = 0 over the closed omega^1 = delta(beta): the layer condition
    # holds, the face pulled back along phi_q included. The shear leaves z_1
    # alone, so g = |z_1|^2 + |xi_1|^2 stays quadratic and central differences
    # are exact up to rounding.
    def g(P):
        return SampledForm(4, 0, P, (np.abs(P[:, 0]) ** 2 + np.abs(P[:, 2]) ** 2)[:, None])

    def beta(P):
        values = np.zeros((len(P), 4), dtype=complex)
        values[:, 0], values[:, 2] = P[:, 0], P[:, 2]
        return SampledForm(4, 1, P, values)

    def delta(base):
        """The coboundary of a 0-cochain: phi -> base - (phi x phi)^* base."""
        def at(chain):
            pulled = bm.pair_pullback(chain[0], base)
            return lambda P: base(P).sub(pulled(P))
        return at

    pairs = random_pairs(rng, 2, 4)
    res = bm.parametrix_layer_residual(delta(g), lambda chain: beta, (hm.shear_map(),), pairs)
    assert res < 1e-8
    res = bm.parametrix_layer_residual(lambda chain: lambda P: SampledForm.zeros(4, 0, P, ()),
                                       delta(beta), (hm.henon_map(), hm.shear_map()), pairs)
    assert res < 1e-10


def test_parametrix_without_pairs_is_refused():
    def zero(degree):
        return lambda chain: lambda P: SampledForm.zeros(4, degree, P, ())

    with pytest.raises(ValidationError, match="no pairs"):
        bm.parametrix_layer_residual(zero(0), zero(1), (hm.shear_map(),), np.zeros((0, 4)))
