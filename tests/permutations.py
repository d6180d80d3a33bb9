"""Permutations and their multi-trace values: the reference the symmetrized maps
of cocyclekit.invariants are checked against. No check type reaches them, so they
live with the tests.
"""

from fractions import Fraction

import numpy as np

from cocyclekit.errors import ValidationError
from cocyclekit.invariants import InvariantMap, _check_mats, as_partition


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
