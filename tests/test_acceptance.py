"""Acceptance suite: every criterion at its stated tolerance and time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import cocyclekit.cechgroup as cg
import cocyclekit.holomap as hm
import cocyclekit.invariants as inv
from cocyclekit.bm import dbar_closed_check, reproducing_integral
from cocyclekit.cli import execute_checks
from cocyclekit.errors import DomainError
from cocyclekit.scenario import Scenario
import library as lib
import dold_kan as sim
import permutations as perm
from chart_labels import chart_path, validate
from sampled_forms import add, sharp_pullback, sub, theta
from cochains import base_value
from hartogs import hartogs_diagonal
from conftest import object_cells, random_matrices, random_points, well_conditioned
from free_words import Word
from test_simplicial import _check_five_identities, random_complex

F = Fraction
REPO = pathlib.Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"


class Budget:
    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print("[%s] criterion %2d: %s (%.2fs < %ds)"
              % (status, self.number, self.label, elapsed, self.seconds))
        if exc_type is None:
            assert elapsed < self.seconds, \
                "criterion %d exceeded its %ds budget (%.2fs)" % (
                    self.number, self.seconds, elapsed)
        return False


def test_criterion_01_todd_coefficients_exact():
    with Budget(1, "Todd coefficients exact, both bases, CLI < 1s each", 10):
        expected_power = {
            1: {(1,): F(1, 2)},
            2: {(1, 1): F(1, 8), (2,): F(-1, 24)},
            3: {(1, 1, 1): F(1, 48), (2, 1): F(-1, 48)},
        }
        expected_elem = {
            1: {(1,): F(1, 2)},
            2: {(1, 1): F(1, 12), (2,): F(1, 12)},
            3: {(2, 1): F(1, 24)},
        }
        expected_lines = {
            1: "(1/2) S1 = (1/2) T1",
            2: "(1/12)(S1^2 + S2) = (1/24)(3 T1^2 - T2)",
            3: "(1/24) S1 S2 = (1/48)(T1^3 - T1 T2)",
        }
        for k in (1, 2, 3):
            f = inv.todd_component(k)
            assert f.terms == expected_power[k]
            assert inv.newton_convert(f, inv.ELEMENTARY).terms == expected_elem[k]
            started = time.monotonic()
            proc = subprocess.run(
                [sys.executable, "-m", "cocyclekit.cli", "symfun", "todd", str(k)],
                capture_output=True, text=True, timeout=30)
            elapsed = time.monotonic() - started
            assert proc.returncode == 0
            assert proc.stdout.strip() == expected_lines[k]
            assert elapsed < 1.0, "symfun todd %d took %.2fs" % (k, elapsed)


def test_criterion_02_newton_round_trip():
    with Budget(2, "Newton round trip exact through degree 8", 5):
        rnd = random.Random(2)

        def partitions(d, cap=None):
            cap = cap or d
            if d == 0:
                yield ()
                return
            for first in range(min(d, cap), 0, -1):
                for rest in partitions(d - first, first):
                    yield (first,) + rest

        for degree in range(1, 9):
            terms = {p: F(rnd.randint(-12, 12) or 5, rnd.randint(1, 9))
                     for p in partitions(degree)}
            for basis in (inv.POWER, inv.ELEMENTARY):
                other = inv.ELEMENTARY if basis == inv.POWER else inv.POWER
                f = inv.SymFun(basis, terms)
                back = inv.newton_convert(inv.newton_convert(f, other), basis)
                assert back.terms == f.terms, degree


def test_criterion_03_gl_invariance_suite(rng):
    with Budget(3, "GL invariance, 100 conjugation trials x 8 invariants", 10):
        invariants = [("todd", k, inv.todd_invariant(k)) for k in (1, 2, 3, 4)]
        invariants += [("chern", k, perm.chern_invariant(k)) for k in (1, 2, 3, 4)]
        for label, k, T in invariants:
            for trial in range(100):
                n = int(rng.integers(2, 5))
                mats = random_matrices(rng, k, n)
                A = well_conditioned(rng, n)
                Ainv = np.linalg.inv(A)
                conj = [Ainv @ M @ A for M in mats]
                v0 = inv.eval_invariant(T, mats)
                v1 = inv.eval_invariant(T, conj)
                assert abs(v1 - v0) <= 1e-9 * (1 + abs(v0)), (label, k, trial)


def test_criterion_04_theta_composition_identity(rng):
    with Budget(4, "theta composition identity over the map library", 10):
        maps, _, pairs = lib.builtin_library(seed=11, count=25)
        nonaffine = 0
        pts_pool = random_points(rng, 50, radius=0.35)
        for fname, gname in pairs:
            f, g = maps[fname], maps[gname]
            if not (f.is_affine() and g.is_affine()):
                nonaffine += 1
            lhs = theta(hm.compose(f, g), pts_pool)
            rhs = add(sharp_pullback(g, theta(f, g.eval(pts_pool)), pts_pool),
                      theta(g, pts_pool))
            resid = sub(lhs, rhs).max_abs()
            scale = 1.0 + lhs.max_abs()
            assert resid <= 1e-8 * scale, (fname, gname, resid)
        assert nonaffine >= 6


def test_criterion_05_telescoping_and_dk(rng):
    with Budget(5, "telescoping/DK at level 3, n = k = 2, with negative control", 30):
        pts = random_points(rng, 24, radius=0.4)
        charts = [lib.identity_map(2), lib.shear_map(), lib.henon_map(),
                  lib.affine_map([[1, F(1, 3)], [0, 1]], [F(1, 5), 0])]
        invs = [lib.identity_map(2), lib.shear_inverse(), lib.henon_inverse(),
                lib.affine_map([[1, F(-1, 3)], [0, 1]], [F(-1, 5), 0])]
        validate(chart_path([(c,) for c in charts],
                            {(p, q): (charts[p], invs[q]) for q in range(4) for p in range(q)},
                            pts))
        T2 = inv.todd_invariant(2)
        tau = sim.simplex_tau(charts, invs, pts, T2)
        tel = cg.closedness_report(tau, tol=1e-7, increasing=True)
        assert tel.passed, tel.max_residual
        labeling = sim.cf_map(tau, 3, pts)
        dk = sim.dk_validate(labeling, sim.shifted_form_complex(2, 2, pts), tol=1e-7)
        assert dk["pass"], dk["max_residual"]
        assert dk["max_residual"] == tel.max_residual
        bad = sim.simplex_tau(charts, invs, pts, T2, {(0, 2): (lib.henon_map(),)})
        tel_bad = cg.closedness_report(bad, tol=1e-7, increasing=True)
        assert not tel_bad.passed


def test_criterion_06_affine_vanishing():
    with Budget(6, "affine atlas + affine action: tau exactly zero", 5):
        scn = Scenario.load(SCENARIOS / "affine_torus.scn")
        results = execute_checks(scn)
        byname = {r["name"]: r for r in results}
        assert byname["affine-zero"]["status"] == "pass"
        assert byname["affine-zero"]["max_residual"] == 0.0
        # recheck bitwise-zero directly on every stored coefficient
        T = inv.todd_invariant(2)
        tau = cg.tau_invariant(scn.cover, scn.action, scn.atlas, T)
        for (m, q) in tau.bidegrees():
            for J, G in object_cells(scn.cover, scn.action, m, q):
                sampled = base_value(tau, (m, q), J, G)
                assert np.all(sampled.values == 0)


def test_criterion_07_henon_cocycle_closedness():
    with Budget(7, "henon_z.scn: d tau residual within 1e-7", 60):
        scn = Scenario.load(SCENARIOS / "henon_z.scn")
        T = inv.todd_invariant(2)
        tau = cg.tau_invariant(scn.cover, scn.action, scn.atlas, T)
        report = cg.closedness_report(tau, tol=1e-7)
        assert report.passed, report.max_residual
        # nonzero cocycle, so the check is not vacuous
        h = Word.gen("h")
        assert base_value(tau, (0, 2), ("u",), (h, h)).max_abs() > 1e-6


def test_criterion_08_cohomologous_witness():
    with Budget(8, "witness_reparam.scn: d(witness) = tau_1 - tau_2", 60):
        scn = Scenario.load(SCENARIOS / "witness_reparam.scn")
        T = inv.todd_invariant(2)
        tau_a = cg.tau_invariant(scn.cover, scn.action, scn.atlas, T)
        tau_b = cg.tau_invariant(scn.cover, scn.action, scn.atlas_b, T)
        wit = cg.cohomologous_witness(scn.cover, scn.action, scn.atlas, scn.atlas_b, T)
        report = cg.witness_report(wit, tau_a, tau_b, tol=1e-7)
        assert report.passed, report.max_residual


def test_criterion_09_bm_kernel(rng):
    with Budget(9, "BM kernel: order-2 dbar convergence and reproducing = 1", 60):
        z = (0.05 + 0.02j, -0.1 + 0.07j)
        probes = []
        for _ in range(10):
            v = rng.normal(size=4).reshape(2, 2)
            v /= np.linalg.norm(v)
            probes.append(tuple(z[i] + complex(v[i, 0], v[i, 1]) for i in range(2)))
        report = dbar_closed_check(2, z, probes, h=1e-3)
        assert 0.8 * 4 <= report["ratio"] <= 1.2 * 4, report["ratio"]
        for r in (0.5, 1.0, 2.0):
            val = reproducing_integral(radius=r, order=32)
            assert abs(val - 1.0) <= 1e-3, (r, val)


def test_criterion_10_hartogs_restriction():
    with Budget(10, "Hartogs: polynomial exact, pole flagged", 5):
        def F_poly(z, xi):
            return (xi[0] - 2 * xi[1]) ** 3 + z[1] * xi[0] - 1

        pts = [(0.25 + 0.1j, -0.3j), (0.4, 0.2 + 0.2j)]
        for entry, z in zip(hartogs_diagonal(F_poly, pts), pts):
            z = tuple(complex(c) for c in z)
            want = (z[0] - 2 * z[1]) ** 3 + z[1] * z[0] - 1
            assert abs(entry["value"] - want) <= 1e-12
        with pytest.raises(DomainError):
            hartogs_diagonal(lambda z, xi: 1.0 / (xi[0] - z[0]), [(0.1, 0.2)])


def test_criterion_11_simplicial_identities():
    with Budget(11, "five simplicial identities, 500 exact random instances", 10):
        rnd = random.Random(11)
        for trial in range(500):
            C, dims = random_complex(rnd)
            _check_five_identities(rnd, C, dims, rnd.randint(2, 3))
