"""Property tests of the small-matrix kernels against per-matrix formulas.

Hypothesis draws stacks of complex n x n matrices (n = 1..4, N = 1..6 stacked
positions); one example per kernel runs on the empty cloud. The invariants are
held to per-matrix eval_T_sigma sums over each conjugacy class, theta and the
sharp pullback to inv(J) @ dJ and the conjugation formula at each point, all
to the relative 1e-12 of tests/test_batched.py.
"""

import itertools
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cocyclekit.forms as fo
import cocyclekit.invariants as inv
import permutations as perm
import sampled_forms as sf

RTOL = 1e-12
SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


def assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    assert float(np.max(np.abs(got - want), initial=0.0)) <= RTOL * scale


@st.composite
def stacks(draw, count, tail=(), n=None, N=None):
    """`count` complex arrays of shape (N, *tail, n, n), entries in the unit square."""
    n = draw(st.integers(1, 4)) if n is None else n
    N = draw(st.integers(1, 6)) if N is None else N
    parts = draw(arrays(float, (count, 2, N) + tuple(tail) + (n, n),
                        elements=st.floats(-1, 1, width=32)))
    return list(parts[:, 0] + 1j * parts[:, 1])


def invertible(M):
    """5 I + M/2: diagonally dominant for entries in the unit square and n <= 4."""
    return 5 * np.eye(M.shape[-1]) + M / 2


def class_average(partition, mats):
    """Mean of eval_T_sigma over the permutations of the given cycle type."""
    k = len(mats)
    vals = [perm.eval_T_sigma(p, mats) for p in map(perm.Permutation,
                                                   itertools.permutations(range(1, k + 1)))
            if perm.cycle_type(p) == partition]
    return sum(vals) / len(vals)


def invariant_oracle(T, stack):
    return np.array([sum(complex(c) * class_average(part, [m[i] for m in stack])
                         for part, c in T.terms.items())
                     for i in range(len(stack[0]))], dtype=complex)


def invariants_of_arity(k):
    yield inv.todd_invariant(k)
    yield perm.chern_invariant(k)
    perms = map(perm.Permutation, itertools.permutations(range(1, k + 1)))
    for p in {perm.cycle_type(p): p for p in perms}.values():
        yield perm.symmetrize(p)


@SETTINGS
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), stacks(k))))
def test_eval_invariant_matches_per_matrix_trace_sums(case):
    k, stack = case
    for T in invariants_of_arity(k):
        assert_close(inv.eval_invariant(T, stack), invariant_oracle(T, stack))


def test_eval_invariant_on_the_empty_cloud():
    for k in range(1, 5):
        empty = [np.zeros((0, 3, 3), dtype=complex)] * k
        for T in invariants_of_arity(k):
            assert inv.eval_invariant(T, empty).shape == (0,)


def test_chern_invariant_equals_the_class_sum_of_its_partition():
    # ch_k = (1/k!) T_k, so the oracle's normalization is pinned independently
    rng = np.random.default_rng(3)
    mats = [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3)]
    want = Fraction(1, 6) * np.mean([np.trace(a @ b @ c) for a, b, c in
                                     itertools.permutations(mats)])
    assert abs(inv.eval_invariant(perm.chern_invariant(3), mats) - complex(want)) < 1e-12


class StackedMap:
    """A map known only through drawn Jacobians J and their derivatives dJ."""

    def __init__(self, J, dJ=None):
        self.n = J.shape[-1]
        self.J, self.dJ = J, dJ

    def jacobian(self, points):
        return self.J

    def djacobian(self, points):
        return self.dJ


def theta_oracle(J, dJ):
    return np.array([[np.linalg.inv(J[p]) @ dJ[p, a] for a in range(J.shape[-1])]
                     for p in range(len(J))], dtype=complex).reshape(dJ.shape)


def sharp_oracle(J, W):
    n = J.shape[-1]
    return np.array([[sum(J[p, a, b] * (np.linalg.inv(J[p]) @ W[p, a] @ J[p]) for a in range(n))
                      for b in range(n)] for p in range(len(J))], dtype=complex).reshape(W.shape)


def kernel_case(n, N):
    return st.tuples(stacks(1, n=n, N=N), stacks(1, tail=(n,), n=n, N=N))


@SETTINGS
@given(st.tuples(st.integers(1, 4), st.integers(1, 6)).flatmap(lambda nN: kernel_case(*nN)))
def test_theta_and_sharp_pullback_match_per_point_formulas(case):
    ([M], [W]) = case
    J, N, n = invertible(M), len(M), M.shape[-1]
    P = np.zeros((N, n))
    assert_close(sf.theta(StackedMap(J, W), P).values, theta_oracle(J, W))
    omega = fo.SampledForm(n, 1, P, W)
    assert_close(sf.sharp_pullback(StackedMap(J), omega, P).values, sharp_oracle(J, W))


def test_theta_and_sharp_pullback_on_the_empty_cloud():
    J, W = np.zeros((0, 3, 3), dtype=complex), np.zeros((0, 3, 3, 3), dtype=complex)
    P = np.zeros((0, 3))
    assert sf.theta(StackedMap(J, W), P).values.shape == (0, 3, 3, 3)
    omega = fo.SampledForm(3, 1, P, W)
    assert sf.sharp_pullback(StackedMap(J), omega, P).values.shape == (0, 3, 3, 3)
