import cmath
import math

import numpy as np
import pytest

import cocyclekit.bm as bm
import hartogs
from cocyclekit import cli
from cocyclekit.errors import DomainError, ValidationError


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
        got = bm.bm_coefficients(n, z, [xi])[0]
        want = transcribed_coefficients(n, z, xi)
        for i in range(1, n + 1):
            assert abs(got[i - 1] - want[i]) <= 1e-12 * (1 + abs(want[i]))


def test_bm_eval_explicit_point():
    # n = 2, z = 0, xi = (1, 0): |xi - z|^4 = 1
    got = bm.bm_coefficients(2, (0, 0), [(1, 0)])[0]
    b = bm.bm_constant(2)
    assert got[0] == pytest.approx(-b)   # (-1)^1 * conj(1)
    assert got[1] == pytest.approx(0.0)


def test_bm_eval_diagonal_rejected():
    with pytest.raises(DomainError):
        bm.bm_coefficients(2, (0.5, 0.5), [(0.5, 0.5)])


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
        # a one-row cloud gives the same row
        assert list(bm.bm_coefficients(n, z, [xi])[0]) == list(row)
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


def numpy_coefficients(n, z, xi):
    """The coefficients by numpy's sum over each row and complex division by the
    real |xi - z|^{2n}, the formula the kernel's column adds and reciprocal
    multiply reproduce."""
    diff = np.asarray(xi, dtype=complex) - np.asarray(z, dtype=complex)
    dist2 = np.sum(np.abs(diff) ** 2, axis=1)
    signs = (-1.0) ** np.arange(1, n + 1)
    return bm.bm_constant(n) * signs * np.conj(diff) / (dist2 ** n)[:, None]


@pytest.mark.parametrize("n", range(2, 8))
def test_coefficients_equal_numpy_sum_and_division_bit_for_bit(rng, n):
    cloud = rng.uniform(-2, 2, (300, n)) + 1j * rng.uniform(-2, 2, (300, n))
    z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    zs = rng.uniform(-1, 1, (300, n)) + 1j * rng.uniform(-1, 1, (300, n))
    for point in (z, zs):
        got = bm.bm_coefficients(n, point, cloud)
        assert got.tobytes() == numpy_coefficients(n, point, cloud).tobytes()
    # the diagonal guard names the first point within the cutoff, as it always did
    cloud[17] = z + 1e-13
    with pytest.raises(DomainError) as err:
        bm.bm_coefficients(n, z, cloud)
    assert str(err.value) == "point xi = %s within 1e-12 of the diagonal" % (
        tuple(complex(c) for c in cloud[17]),)


@pytest.mark.parametrize("n", (8, 9, 12))
def test_coefficients_from_eight_terms_agree_with_numpy_to_rounding(rng, n):
    # from 8 terms numpy's sum adds in a pairwise order, so the in-order column
    # adds may differ from it in the last bits
    cloud = rng.uniform(-2, 2, (300, n)) + 1j * rng.uniform(-2, 2, (300, n))
    z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    want = numpy_coefficients(n, z, cloud)
    got = bm.bm_coefficients(n, z, cloud)
    assert np.all(np.abs(got - want) <= 8 * n * np.finfo(float).eps * np.abs(want))


def test_bm_eval_dimension_one_rejected():
    with pytest.raises(ValidationError):
        bm.bm_coefficients(1, (0,), [(1,)])


def test_bm_homogeneity_scaling_law(rng):
    # coefficients at (z, z + t v) equal t^(1-2n) times those at (z, z + v),
    # for real t > 0; both sides evaluated directly
    for n in (2, 3):
        z = tuple(complex(a, b) for a, b in rng.uniform(-1, 1, (n, 2)))
        v = tuple(complex(a, b) for a, b in rng.uniform(-1, 1, (n, 2)))
        t = 0.37
        base = bm.bm_coefficients(n, z, [tuple(a + b for a, b in zip(z, v))])[0]
        scaled = bm.bm_coefficients(n, z, [tuple(a + t * b for a, b in zip(z, v))])[0]
        for i in range(n):
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
    # the default kernel path against the scalar stencil on one-row clouds
    default = bm.dbar_closed_check(n, z, probes, h)
    for row, p in zip(default["per_probe"], probes):
        want = abs(scalar_dbar_residual(n, z, p, h, lambda xi: dict(
            enumerate(bm.bm_coefficients(n, z, [xi])[0], start=1))))
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


def test_a_check_computes_one_quadrature_rule_for_every_radius(monkeypatch):
    # the eta and phi axes and every radius share one rule, with the values of a
    # rule per axis and radius
    want = [bm.reproducing_integral(radius=r, order=32) for r in (0.5, 1.0, 2.0)]
    rules = []
    gauss_legendre = bm.gauss_legendre
    for module in (bm, cli):
        monkeypatch.setattr(module, "gauss_legendre",
                            lambda order: rules.append(order) or gauss_legendre(order))
    entry = {"order": 32, "radii": [0.5, 1.0, 2.0], "tolerance": 1e-3}
    held, fields = cli.run_bm_reproducing(None, entry)
    assert held and rules == [32]
    assert [complex(*row["value"]) for row in fields["radii"]] == want


@pytest.mark.parametrize("order", range(4, 65))
def test_gauss_legendre_matches_numpy_and_is_exact(order):
    x, w = bm.gauss_legendre(order)
    want_x, want_w = np.polynomial.legendre.leggauss(order)
    assert np.max(np.abs(x - want_x)) <= 2.5e-16
    assert np.max(np.abs(w - want_w)) <= 1e-14
    # exact for every monomial x^k with k < 2 * order
    for k in range(2 * order):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(w * x ** k) - exact) <= 4e-15, k


def test_sphere_probes_are_seeded_unit_offsets():
    z = (0.3, -1.2, 0.5)
    probes = bm.sphere_probes(z, 12, 5)
    assert len(probes) == 12 and all(len(p) == 3 for p in probes)
    assert bm.sphere_probes(z, 12, 5) == probes
    assert bm.sphere_probes(z, 12, 6) != probes
    for p in probes:
        assert abs(math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(p, z))) - 1.0) <= 1e-15
    # the first probes of a longer draw are the shorter draw
    assert bm.sphere_probes(z, 20, 5)[:12] == probes


def test_the_default_bm_dbar_entry_converges_at_order_two():
    for n in (2, 3):
        held, fields = cli.run_bm_dbar(None, {"type": "bm-dbar", "n": n})
        assert held and fields["order_two"] and fields["pass"]
        assert len(fields["per_probe"]) == 12


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


# --- Hartogs -------------------------------------------------------------------


def test_hartogs_polynomial_recovered_exactly(rng):
    def F(z, xi):
        return (xi[0] + 2 * xi[1]) ** 2 + z[0] * xi[1] + 3

    pts = [(0.3 + 0.1j, -0.2j), (0.1, 0.5)]
    out = hartogs.hartogs_diagonal(F, pts)
    for entry, z in zip(out, pts):
        z = tuple(complex(c) for c in z)
        want = (z[0] + 2 * z[1]) ** 2 + z[0] * z[1] + 3
        assert abs(entry["value"] - want) <= 1e-12


def test_hartogs_pole_flagged():
    with pytest.raises(DomainError):
        hartogs.hartogs_diagonal(lambda z, xi: 1.0 / (xi[0] - z[0]), [(0.1, 0.2)])


def test_hartogs_removable_singularity():
    def F(z, xi):
        d = xi[0] - z[0]
        payload = cmath.exp(z[1]) + xi[1]
        return payload if abs(d) < 1e-30 else cmath.sin(d) / d * payload

    z = (0.2 + 0.1j, 0.4 - 0.3j)
    out = hartogs.hartogs_diagonal(F, [z])
    want = cmath.exp(z[1]) + z[1]
    assert abs(out[0]["value"] - want) <= 1e-9
