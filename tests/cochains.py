"""The Cech and bar differentials alone, and one base value at a time.

The pass only ever takes the total differential (cechgroup.mixed_differential)
and batches of base values (MixedCochain.evaluate_all); the parts here are the
references the suites split it into. No check type reaches them, so they live
with the tests.
"""

from cocyclekit.cechgroup import CochainExpression, as_expression
from conftest import id_cell, reference_points


def cech_differential(c):
    """Alternating sum over dropped Cech indices, each face read on the cell's cloud."""
    c = as_expression(c)
    return CochainExpression(c.bases, {(m + 1, q): ("cech", m, q, node)
                                       for (m, q), node in c.components.items()})


def group_differential(c):
    """Bar differential: drop-and-translate, merge adjacent letters, act on the last."""
    c = as_expression(c)
    return CochainExpression(c.bases, {(m, q + 1): ("group", m, q, node)
                                       for (m, q), node in c.components.items()})


def base_value(c, bidegree, J, G):
    """The base value of the MixedCochain c on the cell of cover indices J and Words G,
    on the cell's own cloud (conftest.reference_points), evaluated once."""
    return c.evaluate_all([(bidegree,) + id_cell(c.action, J, G)
                           + (reference_points(c.cover, c.action, J, G), 0)])[0]
