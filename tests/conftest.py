import numpy as np
import pytest

import cocyclekit.expr as ex
from cocyclekit.cechgroup import TermPlan, enumerate_cells
from cocyclekit.holomap import compose
from cocyclekit.forms import SampledForm
from free_words import Word, act_index
from map_values import word_pullback


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_matrices(rng, k, n):
    return [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(k)]


def id_cell(action, J, G):
    """The cell of cover indices J and Words G as id tuples of the action's tables."""
    ids = action.ids()
    return tuple(map(ids.index, J)), tuple(ids.word(g.letters) for g in G)


def reference_points(cover, action, J, G):
    """The cloud of the cell of cover indices J and Words G: the indices of J moved by
    the product of G (free_words.act_index), as its key."""
    letters = Word.product(G).letters
    return cover.cloud(tuple(act_index(action, i, letters) for i in J))


def object_word(action, w):
    """The Word with id w of the action's tables (free_words.Word)."""
    return Word(action.ids().words[w])


def object_cell(action, J, G):
    """The cell of id tuples J and G as cover indices and Words."""
    return tuple(action.ids().indices[i] for i in J), tuple(object_word(action, g) for g in G)


def object_cells(cover, action, m, q):
    """The cells of enumerate_cells, in its order, as cover indices and Words."""
    J, G, _ = enumerate_cells(cover, action, m, q)
    return [object_cell(action, j, g) for j, g in zip(J.tolist(), G.tolist())]


def cell_arrays(action, cells):
    """(C, r) index-id and (C, s) word-id arrays of cells of cover indices and Words,
    with the (C,) ids of their index sets, as enumerate_cells gives them."""
    rows = [id_cell(action, J, G) for J, G in cells]
    J, G = (np.array([row[i] for row in rows], dtype=np.int64).reshape(
        len(rows), len(rows[0][i]) if rows else 0) for i in (0, 1))
    return J, G, action.ids().cell_sets(J, G)


def per_cell(provider, action):
    """A MixedCochain provider of (J, G, points, pull) requests from a one-cell
    provider(J, G, points) of cover indices and Words; a request under a group
    word is evaluated at the moved points and pulled back along the word of
    `action` (map_values.word_pullback)."""
    return lambda requests: [word_pullback(action, provider, *object_cell(action, J, G), P,
                                           object_word(action, pull))
                             for J, G, P, pull in requests]


def plan_form(plan, c, total):
    """Cell c of a TermPlan as a SampledForm from its row of a batch total; a total
    of None is the structural zero."""
    base = plan.bases[0][1]
    if total is None:
        return SampledForm.zeros(base.n, base.form_degree, plan.points(c), ())
    return SampledForm(base.n, base.form_degree, plan.points(c), total)


def cell_value(expr, bidegree, J, G):
    """An expression's value on one cell of cover indices and Words, from a TermPlan
    over that cell alone."""
    plan = TermPlan(expr, bidegree, cell_arrays(expr.bases[0][1].action, [(J, G)]))
    (_, _, _, total), = plan.sums()
    return plan_form(plan, 0, None if total is None else total[0])


def random_points(rng, count, n=2, radius=0.5, center=0.0):
    return [tuple(center + radius * complex(a, b) for a, b in rng.uniform(-1, 1, (n, 2)))
            for _ in range(count)]


def well_conditioned(rng, n, cap=200.0):
    """Random invertible matrix, resampled until the condition number is tame."""
    while True:
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if np.linalg.cond(A) < cap:
            return A


def numeric_jacobian(f, point, h=1e-3):
    """Fourth-order stencil along real and imaginary steps of each coordinate.

    Averaging the two central differences kills the h^2 term for holomorphic
    components, which is the independent check the symbolic Jacobian is held to.
    """
    return np.stack([numeric_partial(f.eval, point, b + 1, h) for b in range(f.n)], axis=1)


def numeric_partial(fn, point, var, h=1e-3):
    """Same stencil along z_var for a complex-differentiable function of (N, n)
    clouds, evaluated on one-row clouds: d/dz_var of its first row of values."""
    def at(step):
        q = np.array([point], dtype=complex)
        q[0, var - 1] += step
        return fn(q)[0]

    re = (at(h) - at(-h)) / (2 * h)
    im = (at(1j * h) - at(-1j * h)) / (2j * h)
    return 0.5 * (re + im)


def word_composite(action, word):
    """rho(word) of a non-identity word as one symbolic composite, innermost letter
    first: the oracle for the chains of letter maps the pass builds (map_values.word_chain)."""
    m = action.letter_map(*word.letters[-1])
    for name, sgn in reversed(word.letters[:-1]):
        m = compose(action.letter_map(name, sgn), m)
    return m


def holds_arrays(m):
    """True when the attributes of the map m, the containers among them or its
    compiled programs hold an ndarray; expressions and other maps are not walked."""
    def walk(x):
        if isinstance(x, np.ndarray):
            return True
        if isinstance(x, dict):
            return any(walk(k) or walk(v) for k, v in x.items())
        if isinstance(x, (list, tuple, set, frozenset)):
            return any(walk(v) for v in x)
        if isinstance(x, ex.Program):
            return any(walk(v) for v in vars(x).values())
        return False

    return any(walk(v) for v in vars(m).values())
