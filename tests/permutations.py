"""Permutations and their multi-trace values: the reference the symmetrized maps
of cocyclekit.invariants are checked against. Also the eigenvalue values of a
SymFun, numeric and exact, and the Chern character invariants. No check type
reaches them, so they live with the tests.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from cocyclekit.errors import ValidationError
from cocyclekit.invariants import (POWER, InvariantMap, _check_mats, as_partition,
                                   chern_character_component, invariant_from_symfun)


class Permutation:
    """A permutation of {1..k}, stored as the image list [p(1), ..., p(k)]."""

    def __init__(self, images):
        self.images = tuple(int(x) for x in images)
        k = len(self.images)
        if sorted(self.images) != list(range(1, k + 1)):
            raise ValidationError("images %r are not a bijection of 1..%d" % (images, k))

    @property
    def size(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i - 1]

    def __repr__(self):
        return "Permutation(%r)" % (list(self.images),)

    def cycles(self):
        """Orbits in traversal order, each starting at its smallest element."""
        seen = set()
        out = []
        for start in range(1, self.size + 1):
            if start in seen:
                continue
            orbit = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                orbit.append(j)
                seen.add(j)
                j = self(j)
            out.append(tuple(orbit))
        return out


def cycle_type(p):
    """Multiset of cycle lengths of p, sorted nonincreasing."""
    return as_partition(len(c) for c in p.cycles())


def eval_T_sigma(p, mats):
    """Product over the cycles of p of the trace of the matrix product along each cycle."""
    mats = _check_mats(p.size, mats)
    val = 1.0 + 0.0j
    for cyc in p.cycles():
        prod = mats[cyc[0] - 1]
        for j in cyc[1:]:
            prod = prod @ mats[j - 1]
        val *= np.trace(prod)
    return complex(val)


def symmetrize(p):
    """The symmetrized multi-trace map of a permutation: one term, its cycle type."""
    return InvariantMap(p.size, {cycle_type(p): Fraction(1)})


def eval_on_eigenvalues(f, eigs):
    """Numeric value of the SymFun f on a concrete eigenvalue list (rank marker counts them)."""
    eigs = [complex(t) for t in eigs]
    gens = {}

    def gen(j):
        if j not in gens:
            if f.basis == POWER:
                gens[j] = sum(t ** j for t in eigs)
            else:
                gens[j] = sum(np.prod(c) for c in itertools.combinations(eigs, j)) \
                    if j <= len(eigs) else 0.0
        return gens[j]

    val = complex(f.rank_coeff) * len(eigs)
    for part, coeff in f.terms.items():
        mono = 1.0 + 0.0j
        for j in part:
            mono *= gen(j)
        val += complex(coeff) * mono
    return val


def eval_exact_on_eigenvalues(f, eigs):
    """Same as eval_on_eigenvalues but in exact Fraction arithmetic."""
    eigs = [Fraction(t) for t in eigs]

    def gen(j):
        if f.basis == POWER:
            return sum((t ** j for t in eigs), Fraction(0))
        if j > len(eigs):
            return Fraction(0)
        return sum((math.prod(c) for c in itertools.combinations(eigs, j)), Fraction(0))

    val = f.rank_coeff * len(eigs)
    for part, coeff in f.terms.items():
        mono = Fraction(1)
        for j in part:
            mono *= gen(j)
        val += coeff * mono
    return val


def chern_invariant(k):
    return invariant_from_symfun(chern_character_component(k))
