import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import cocyclekit.invariants as inv
import permutations as perm
from cocyclekit.errors import ValidationError
from conftest import random_matrices, well_conditioned

F = Fraction


def brute_cycle_type(images):
    """Independent cycle enumeration by repeated application."""
    k = len(images)
    seen = set()
    lengths = []
    for start in range(1, k + 1):
        if start in seen:
            continue
        length = 0
        j = start
        while j not in seen:
            seen.add(j)
            j = images[j - 1]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def test_cycle_type_worked_example():
    # sigma = (1 3 7 2)(4)(5 8 6) in two-line form
    sigma = perm.Permutation([3, 1, 7, 4, 8, 5, 2, 6])
    assert perm.cycle_type(sigma) == (4, 3, 1)


def test_cycle_type_identity():
    assert perm.cycle_type(perm.Permutation([1, 2, 3, 4, 5])) == (1, 1, 1, 1, 1)


def test_cycle_type_matches_brute_force(rng):
    for _ in range(50):
        images = list(rng.permutation(6) + 1)
        assert perm.cycle_type(perm.Permutation(images)) == brute_cycle_type(images)


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValidationError):
        perm.Permutation([1, 1, 3])


def test_T_sigma_worked_example(rng):
    sigma = perm.Permutation([3, 1, 7, 4, 8, 5, 2, 6])
    mats = random_matrices(rng, 8, 3)
    got = perm.eval_T_sigma(sigma, mats)
    want = (np.trace(mats[0] @ mats[2] @ mats[6] @ mats[1])
            * np.trace(mats[3]) * np.trace(mats[4] @ mats[7] @ mats[5]))
    assert abs(got - want) < 1e-12 * (1 + abs(want))


def test_T_sigma_identity_matrices():
    swap = perm.Permutation([2, 1])
    eye = np.eye(3)
    assert perm.eval_T_sigma(swap, [eye, eye]) == pytest.approx(3.0)


def test_T_sigma_fixed_points_are_trace_products(rng):
    ident = perm.Permutation([1, 2])
    mats = random_matrices(rng, 2, 2)
    want = sum(mats[0][i, i] for i in range(2)) * sum(mats[1][i, i] for i in range(2))
    assert abs(perm.eval_T_sigma(ident, mats) - want) < 1e-12 * (1 + abs(want))


def test_T_sigma_dimension_mismatch(rng):
    with pytest.raises(ValidationError):
        perm.eval_T_sigma(perm.Permutation([2, 1]),
                         [np.eye(2), np.eye(3)])


def test_symmetrize_identity_permutation(rng):
    T = perm.symmetrize(perm.Permutation([1, 2, 3]))
    assert T.terms == {(1, 1, 1): F(1)}
    mats = random_matrices(rng, 3, 2)
    want = np.trace(mats[0]) * np.trace(mats[1]) * np.trace(mats[2])
    assert abs(inv.eval_invariant(T, mats) - want) < 1e-12 * (1 + abs(want))


def test_symmetrize_transposition_is_trace_of_product(rng):
    T = perm.symmetrize(perm.Permutation([2, 1]))
    mats = random_matrices(rng, 2, 3)
    want = np.trace(mats[0] @ mats[1])
    assert abs(inv.eval_invariant(T, mats) - want) < 1e-12 * (1 + abs(want))


def test_symmetrize_three_cycle_matches_brute_force(rng):
    T = perm.symmetrize(perm.Permutation([2, 3, 1]))
    mats = random_matrices(rng, 3, 3)
    want = sum(np.trace(mats[a] @ mats[b] @ mats[c])
               for a, b, c in itertools.permutations(range(3))) / 6
    assert abs(inv.eval_invariant(T, mats) - want) < 1e-12 * (1 + abs(want))


def test_power_sum_on_equal_inputs(rng):
    T = inv.InvariantMap(3, {(3,): 1})
    M = random_matrices(rng, 1, 4)[0]
    want = np.trace(M @ M @ M)
    assert abs(inv.eval_invariant(T, [M, M, M]) - want) < 1e-11 * (1 + abs(want))


def test_todd2_on_diagonal_pair(rng):
    T = inv.todd_invariant(2)
    M = random_matrices(rng, 1, 3)[0]
    t1, t2 = np.trace(M), np.trace(M @ M)
    want = (3 * t1 ** 2 - t2) / 24
    assert abs(inv.eval_invariant(T, [M, M]) - want) < 1e-11 * (1 + abs(want))


def test_eval_invariant_conjugation_invariance(rng):
    T = inv.todd_invariant(3)
    mats = random_matrices(rng, 3, 3)
    A = well_conditioned(rng, 3)
    Ainv = np.linalg.inv(A)
    conj = [Ainv @ M @ A for M in mats]
    v0 = inv.eval_invariant(T, mats)
    v1 = inv.eval_invariant(T, conj)
    assert abs(v0 - v1) <= 1e-10 * (1 + abs(v0))


def test_eval_invariant_symmetric_under_input_permutation(rng):
    T = inv.todd_invariant(3)
    mats = random_matrices(rng, 3, 2)
    v0 = inv.eval_invariant(T, mats)
    for perm in itertools.permutations(range(3)):
        v = inv.eval_invariant(T, [mats[i] for i in perm])
        assert abs(v - v0) < 1e-11 * (1 + abs(v0))


def test_grouped_evaluation_matches_full_average(rng):
    # brute-force S_k average: trace blocks (0,1,2)(3,4) over every input order
    mats = random_matrices(rng, 5, 2)
    total = 0.0 + 0.0j
    for tau in itertools.permutations(range(5)):
        val = 1.0 + 0.0j
        for blk in ((0, 1, 2), (3, 4)):
            prod = np.eye(2, dtype=complex)
            for i in blk:
                prod = prod @ mats[tau[i]]
            val *= np.trace(prod)
        total += val
    full = total / math.factorial(5)
    grouped = inv.eval_invariant(inv.InvariantMap(5, {(3, 2): 1}), mats)
    assert abs(full - grouped) < 1e-12 * (1 + abs(full))


def test_eval_invariant_arity_mismatch(rng):
    with pytest.raises(ValidationError):
        inv.eval_invariant(inv.todd_invariant(2), random_matrices(rng, 3, 2))


# --- Newton conversions ----------------------------------------------------


def test_newton_degree_one():
    f = inv.SymFun(inv.POWER, {(1,): 1})
    g = inv.newton_convert(f, inv.ELEMENTARY)
    assert g.terms == {(1,): F(1)}


def test_newton_T2():
    f = inv.SymFun(inv.POWER, {(2,): 1})
    g = inv.newton_convert(f, inv.ELEMENTARY)
    assert g.terms == {(1, 1): F(1), (2,): F(-2)}


def test_newton_todd2_both_expressions():
    # (1/12)(S1^2 + S2) and (1/24)(3 T1^2 - T2) are the same function
    elem = inv.SymFun(inv.ELEMENTARY, {(1, 1): F(1, 12), (2,): F(1, 12)})
    power = inv.newton_convert(elem, inv.POWER)
    assert power.terms == {(1, 1): F(3, 24), (2,): F(-1, 24)}


def test_newton_round_trip_exact(rng):
    for degree in range(1, 9):
        parts = list(_partitions(degree))
        terms = {p: F(int(rng.integers(-9, 10)) or 1, int(rng.integers(1, 7)))
                 for p in parts}
        f = inv.SymFun(inv.POWER, terms)
        back = inv.newton_convert(inv.newton_convert(f, inv.ELEMENTARY), inv.POWER)
        assert back.terms == f.terms
        g = inv.SymFun(inv.ELEMENTARY, terms)
        back = inv.newton_convert(inv.newton_convert(g, inv.POWER), inv.ELEMENTARY)
        assert back.terms == g.terms


def _partitions(d, cap=None):
    cap = cap or d
    if d == 0:
        yield ()
        return
    for first in range(min(d, cap), 0, -1):
        for rest in _partitions(d - first, first):
            yield (first,) + rest


def test_newton_agrees_numerically_on_eigenvalues(rng):
    f = inv.SymFun(inv.POWER, {(3, 1): F(2, 7), (2, 2): F(-1, 3), (4,): F(5)})
    g = inv.newton_convert(f, inv.ELEMENTARY)
    for _ in range(10):
        eigs = rng.normal(size=4) + 1j * rng.normal(size=4)
        a = perm.eval_on_eigenvalues(f, eigs)
        b = perm.eval_on_eigenvalues(g, eigs)
        assert abs(a - b) < 1e-10 * (1 + abs(a))


# --- Todd and Chern components ----------------------------------------------


def test_todd_log_coefficients():
    c = inv.todd_log_coefficients(4)
    assert c[1] == F(1, 2)
    assert c[2] == F(-1, 24)
    assert c[3] == 0
    assert c[4] == F(1, 2880)


def test_todd_components_match_listed_expansions():
    assert inv.todd_component(1).terms == {(1,): F(1, 2)}
    assert inv.todd_component(2).terms == {(1, 1): F(3, 24), (2,): F(-1, 24)}
    assert inv.todd_component(3).terms == {(1, 1, 1): F(1, 48), (2, 1): F(-1, 48)}
    elem2 = inv.newton_convert(inv.todd_component(2), inv.ELEMENTARY)
    assert elem2.terms == {(1, 1): F(1, 12), (2,): F(1, 12)}
    elem3 = inv.newton_convert(inv.todd_component(3), inv.ELEMENTARY)
    assert elem3.terms == {(2, 1): F(1, 24)}


def test_todd_rejects_nonpositive_degree():
    with pytest.raises(ValidationError):
        inv.todd_component(0)


def test_todd_multiplicativity_two_eigenvalues():
    # product over two symbolic eigenvalues, expanded directly to degree 4
    def series_mul(a, b, depth):
        out = [F(0)] * (depth + 1)
        for i, ai in enumerate(a):
            if ai == 0 or i > depth:
                continue
            for j, bj in enumerate(b):
                if i + j > depth:
                    break
                out[i + j] += ai * bj
        return out

    depth = 4
    c = inv.todd_log_coefficients(depth)
    single = [F(0)] * (depth + 1)
    single[0] = F(1)
    # exp of sum c_m t^m for one variable
    x = [F(0)] + [c[m] for m in range(1, depth + 1)]
    series = [F(1)] + [F(0)] * depth
    power = [F(1)] + [F(0)] * depth
    for j in range(1, depth + 1):
        power = series_mul(power, x, depth)
        for m in range(depth + 1):
            series[m] += power[m] / math.factorial(j)
    # two-variable product: coefficient of s^a t^b is series[a] * series[b];
    # its power sums are T_m = s^m + t^m, so compare against todd_component
    for k in range(1, depth + 1):
        todd_k = inv.todd_component(k)
        for a in range(k + 1):
            b = k - a
            want = series[a] * series[b]
            got = _eval_partition_poly_two_vars(todd_k.terms, a, b)
            assert got == want, (k, a, b)


def _eval_partition_poly_two_vars(terms, a, b):
    """Coefficient of s^a t^b in a power-sum polynomial under T_m = s^m + t^m."""
    total = F(0)
    for part, coeff in terms.items():
        # expand the product of (s^m + t^m) over m in part
        acc = {(0, 0): F(1)}
        for m in part:
            nxt = {}
            for (i, j), v in acc.items():
                for di, dj in ((m, 0), (0, m)):
                    key = (i + di, j + dj)
                    nxt[key] = nxt.get(key, F(0)) + v
            acc = nxt
        total += coeff * acc.get((a, b), F(0))
    return total


def test_chern_character_components():
    assert inv.chern_character_component(1).terms == {(1,): F(1)}
    assert inv.chern_character_component(2).terms == {(2,): F(1, 2)}
    assert inv.chern_character_component(4).terms == {(4,): F(1, 24)}
    rank = inv.chern_character_component(0)
    assert rank.terms == {} and rank.rank_coeff == F(1)
    assert perm.eval_on_eigenvalues(rank, [1.0, 2.0, 3.0]) == 3.0


# --- invariant_from_symfun ---------------------------------------------------


def test_invariant_from_symfun_single_trace(rng):
    T = inv.invariant_from_symfun(inv.SymFun(inv.POWER, {(2,): 1}))
    assert T.terms == {(2,): F(1)}
    M = random_matrices(rng, 1, 3)[0]
    want = np.trace(M @ M)
    assert abs(inv.eval_invariant(T, [M, M]) - want) < 1e-11 * (1 + abs(want))


def test_invariant_from_symfun_todd2_elementary_side(rng):
    T = inv.todd_invariant(2)
    M = random_matrices(rng, 1, 3)[0]
    eigs = np.linalg.eigvals(M)
    s1 = eigs.sum()
    s2 = sum(eigs[i] * eigs[j] for i in range(3) for j in range(i + 1, 3))
    want = (s1 ** 2 + s2) / 12
    got = inv.eval_invariant(T, [M, M])
    assert abs(got - want) < 1e-9 * (1 + abs(want))


def test_invariant_from_symfun_product_polarization(rng):
    # T1^2 acts on (M1, M2) as tr(M1) tr(M2): check against the mixed
    # derivative of s, t -> f(s M1 + t M2) at zero, by finite differences
    T = inv.invariant_from_symfun(inv.SymFun(inv.POWER, {(1, 1): 1}))
    M1, M2 = random_matrices(rng, 2, 3)
    got = inv.eval_invariant(T, [M1, M2])

    def f(s, t):
        M = s * M1 + t * M2
        return np.trace(M) ** 2

    h = 1e-4
    mixed = (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h * h)
    # the polarization of a degree-2 monomial carries 1/2! per symmetry
    assert abs(got - mixed / 2) < 1e-6 * (1 + abs(got))
    want = np.trace(M1) * np.trace(M2)
    assert abs(got - want) < 1e-12 * (1 + abs(want))


def test_invariant_from_symfun_rejects_bad_input():
    with pytest.raises(ValidationError):
        inv.invariant_from_symfun(inv.SymFun(inv.ELEMENTARY, {(2,): 1}))
    with pytest.raises(ValidationError):
        inv.invariant_from_symfun(inv.SymFun(inv.POWER, {(2,): 1, (1,): 1}))


def test_diagonal_consistency_exact_rationals():
    # random diagonal M with rational eigenvalues: exact agreement
    eigs = [F(1, 2), F(-2, 3), F(3, 5)]
    for k in (1, 2, 3):
        f = inv.todd_component(k)
        T = inv.invariant_from_symfun(f)
        direct = perm.eval_exact_on_eigenvalues(f, eigs)
        # diagonal matrices: symmetrized trace monomials reduce to power sums
        power = {m: sum(e ** m for e in eigs) for m in range(1, k + 1)}
        from functools import reduce
        total = F(0)
        for part, coeff in T.terms.items():
            total += coeff * reduce(lambda a, b: a * b, (power[m] for m in part), F(1))
        assert total == direct


# --- serialization -----------------------------------------------------------


def test_symfun_json_round_trip():
    f = inv.SymFun(inv.POWER, {(2, 1): F(-3, 7), (3,): F(10 ** 30, 9)}, rank_coeff=F(2))
    back = inv.SymFun.from_json(f.to_json())
    assert back == f
    payload = f.to_json()
    assert payload["terms"][1]["num"] == str((-3))
    assert all(isinstance(t["num"], str) for t in payload["terms"])


def test_format_symfun():
    assert inv.format_symfun(inv.todd_component(2)) == "(1/24)(3 T1^2 - T2)"
    elem = inv.newton_convert(inv.todd_component(2), inv.ELEMENTARY)
    assert inv.format_symfun(elem) == "(1/12)(S1^2 + S2)"
    assert inv.format_symfun(inv.chern_character_component(3)) == "(1/6) T3"
