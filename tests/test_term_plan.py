"""Term plans against the per-cell term expansion they replace.

The oracle below is the walk `cechgroup` did for every cell before term plans:
expand the cell's component into a dict of term keys with nested signed sums,
order the keys by base position and then by the repr of the rest, evaluate
each term at the cell's points (its base value there, pulled back along its
group word if it has one) and add them left to right with forms.signed_sum.
Plan-evaluated cells must match it bit for bit, including the structural-zero
flag.
"""

import itertools
import pathlib
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclekit.cechgroup as cg
import cocyclekit.expr as ex
import cocyclekit.forms as fo
from cocyclekit.forms import SampledForm, signed_sum
from cocyclekit.holomap import HoloMap
from cocyclekit.invariants import todd_invariant
from cocyclekit.scenario import Scenario
import library as lib
import map_values as mv
from cochains import cech_differential, group_differential
from conftest import (cell_arrays, cell_value, id_cell, object_cell, object_cells, per_cell,
                      plan_form, random_points, reference_points)
from free_words import Word, act_index

ROOT = pathlib.Path(__file__).resolve().parents[1]

SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)

GENERATORS = {
    "h": (lib.henon_map(), lib.henon_inverse()),
    "s": (lib.shear_map(), lib.shear_inverse()),
    "t": (lib.affine_map([[0, 1], [1, 0]], [0, 0], name="swap"),
          lib.affine_map([[0, 1], [1, 0]], [0, 0], name="swap")),
}


# ---------------------------------------------------------------------------
# the oracle: per-cell term dicts summed in repr order


def _signed_sum(parts):
    out = {}
    for sign, terms in parts:
        for key, coeff in terms.items():
            out[key] = out.get(key, 0) + sign * coeff
    return {k: c for k, c in out.items() if c}


def oracle_terms(node, J, G, action):
    if node is None:
        return {}
    kind = node[0]
    if kind == "base":
        return {(node[1], node[2], tuple(J), tuple(G), Word()): 1}
    if kind == "sum":
        return _signed_sum((sign, oracle_terms(child, J, G, action)) for sign, child in node[1])
    _, m, q, child = node
    if kind == "cech":
        return _signed_sum(((-1) ** k, oracle_terms(child, J[:k] + J[k + 1:], G, action))
                           for k in range(m + 2))
    g1 = G[0]
    parts = [(1, oracle_terms(child, tuple(act_index(action, i, g1.letters) for i in J), G[1:],
                              action))]
    for k in range(1, q + 1):
        merged = G[:k - 1] + (G[k - 1] * G[k],) + G[k + 1:]
        parts.append(((-1) ** k, oracle_terms(child, J, merged, action)))
    pulled = {(b, bd, Jb, Gb, pull * G[-1]): c
              for (b, bd, Jb, Gb, pull), c in oracle_terms(child, J, G[:-1], action).items()}
    parts.append(((-1) ** (q + 1), pulled))
    return _signed_sum(parts)


def oracle_term_value(expr, term, points):
    """A term's value at the cell's points, straight from its base's provider, past the
    cache: its base value there, or pulled back along its word."""
    b, bd, J, G, pull = term
    base = expr.bases[b][1]
    provider, cell = base.components[bd], id_cell(base.action, J, G)
    if pull.is_identity():
        return provider([cell + (points, 0)])[0]
    chain = mv.word_chain(base.action, pull)
    moved = provider([cell + (mv.image(chain, points), 0)])[0]
    return moved if moved.structurally_zero else mv.pullback_kform(chain, moved, points)


def oracle_value(expr, bd, J, G):
    base = expr.bases[0][1]
    points = reference_points(base.cover, base.action, J, G)
    terms = sorted(oracle_terms(expr.components.get(bd), J, G, base.action).items(),
                   key=lambda kv: (kv[0][0], repr(kv[0][1:])))
    return signed_sum(base.n, base.form_degree, points,
                      ((c, oracle_term_value(expr, t, points)) for t, c in terms))


def same_bits(got, want):
    """Equal flags, shapes and bytes: -0.0 and 0.0 differ, as they would in a report."""
    return (got.structurally_zero == want.structurally_zero
            and got.values.shape == want.values.shape
            and got.values.tobytes() == want.values.tobytes())


# ---------------------------------------------------------------------------
# generated covers, actions and cochains


@st.composite
def setups(draw):
    """(cover, action) with 1-3 indices, some intersections undeclared, 0-2 generators."""
    indices = ["a", "b", "c"][:draw(st.integers(1, 3))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    subsets = [s for r in range(1, len(indices) + 1) for s in itertools.combinations(indices, r)]
    declared = [s for s in subsets if draw(st.booleans())] or [subsets[-1]]
    clouds = {frozenset(s): np.array([[0.3 * complex(*rng.uniform(-1, 1, 2)) for _ in range(2)]
                                      for _ in range(draw(st.integers(1, 4)))])
              for s in declared}
    cover = cg.CoverSpec(indices, clouds, 2)
    names = draw(st.lists(st.sampled_from(sorted(GENERATORS)), max_size=2, unique=True))
    tables = {g: dict(zip(indices, draw(st.permutations(indices)))) for g in names}
    letters = [Word.gen(g, sgn) for g in names for sgn in (1, -1)]
    words = draw(st.lists(st.sampled_from(letters), max_size=2, unique=True)) if letters else []
    if len(words) == 2 and draw(st.booleans()):
        words.append(words[0] * words[1])
    action = cg.GroupActionSpec({g: GENERATORS[g] for g in names}, tables, indices,
                                words=[w.letters for w in words], n=2)
    return cover, action


def cochain(cover, action, bidegrees, zero_every, salt=""):
    """Analytic base values, distinct per cell and salt; every zero_every-th cell is
    structurally zero."""
    def make(bd):
        def provider(J, G, P):
            key = zlib.crc32(repr((bd, J, G)).encode() + salt.encode())
            if zero_every and key % zero_every == 0:
                return SampledForm.zeros(2, 2, P, ())
            c = np.random.default_rng(key).normal(size=(4, 2)) @ np.array([1, 1j])
            z1, z2 = P[:, 0], P[:, 1]
            return SampledForm(2, 2, P, (c[0] + c[1] * z1 + c[2] * z2 ** 2 + c[3] * z1 * z2)[:, None])
        return provider
    return cg.MixedCochain(cover, action, 2, 2, {bd: per_cell(make(bd), action) for bd in bidegrees})


def combination(*parts):
    """The sum of a * e over (a, expression e) parts, as one ("sum", ((a, node), ...))
    node per bidegree."""
    nodes = {}
    for a, e in parts:
        for bd, node in e.components.items():
            nodes.setdefault(bd, []).append((a, node))
    return cg.CochainExpression(parts[0][1].bases,
                                {bd: ("sum", tuple(p)) for bd, p in nodes.items()})


def witness_like(c):
    """d(c) - a + b over two more named bases a and b, as witness_report builds its
    expression, a and b with structural zeros of their own."""
    diff = cg.mixed_differential(c)
    a, b = (cochain(c.cover, c.action, diff.bidegrees(), k, salt)
            for k, salt in ((2, "a"), (3, "b")))
    return cg.CochainExpression(diff.bases + (("a", a), ("b", b)), {
        bd: ("sum", ((1, node), (-1, ("base", 1, bd)), (1, ("base", 2, bd))))
        for bd, node in diff.components.items()})


def base_first(c):
    """-a + d(c) with a the first base: a's terms rank before c's, although the reprs
    of their higher bidegrees would rank them after."""
    bidegrees = cg.mixed_differential(c).bidegrees()
    a = cochain(c.cover, c.action, bidegrees, 2, "a")
    diff = cg.mixed_differential(cg.CochainExpression(
        (("a", a), ("c", c)), {bd: ("base", 1, bd) for bd in c.components}))
    return cg.CochainExpression(diff.bases, {
        bd: ("sum", ((-1, ("base", 0, bd)), (1, node))) for bd, node in diff.components.items()})


EXPRESSIONS = {
    "cech": lambda c: cech_differential(c),
    "group": lambda c: group_differential(c),
    "mixed": lambda c: cg.mixed_differential(c),
    "mixed-mixed": lambda c: cg.mixed_differential(cg.mixed_differential(c)),
    "cech-cech": lambda c: cech_differential(cech_differential(c)),
    "group-group": lambda c: group_differential(group_differential(c)),
    "combination": lambda c: combination((3, cg.mixed_differential(c)),
                                         (-1, cech_differential(c)),
                                         (-2, group_differential(c))),
    "difference": lambda c: combination((1, cg.mixed_differential(c)),
                                        (-1, cg.mixed_differential(c))),
    "base": lambda c: combination((2, c.expression()), (1, c.expression())),
    "witness": witness_like,
    "base-first": base_first,
}


def plan_values(expr, bd, cells):
    """{cell: SampledForm} from one plan over all cells of cover indices and Words,
    batch by batch."""
    action = expr.bases[0][1].action
    plan = cg.TermPlan(expr, bd, cell_arrays(action, cells))
    out = {}
    for batch, _, _, total in plan.sums():
        for r, c in enumerate(batch.tolist()):
            out[object_cell(action, *plan.cells[c])] = plan_form(
                plan, c, None if total is None else total[r])
    assert sorted(out, key=repr) == sorted(cells, key=repr)
    return out


@SETTINGS
@given(setups(), st.sampled_from(sorted(EXPRESSIONS)),
       st.lists(st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)]), min_size=1, unique=True),
       st.sampled_from([0, 2, 3]), st.sampled_from([1, 8, fo.BATCH_ENTRIES]))
def test_plan_values_equal_the_per_cell_oracle_bitwise(setup, name, bidegrees, zero_every,
                                                      batch):
    cover, action = setup
    expr = EXPRESSIONS[name](cochain(cover, action, bidegrees, zero_every))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fo, "BATCH_ENTRIES", batch)
        for bd in expr.bidegrees():
            cells = object_cells(cover, action, *bd)
            got = plan_values(expr, bd, cells)
            for J, G in cells:
                want = oracle_value(expr, bd, J, G)
                assert same_bits(got[(J, G)], want), (name, bd, J, G)
                assert same_bits(cell_value(expr, bd, J, G), want), (name, bd, J, G)
                if name in ("difference", "mixed-mixed", "cech-cech", "group-group"):
                    assert want.structurally_zero


def test_all_cancelling_cell_is_the_structural_zero(rng):
    pts = [tuple(complex(*rng.uniform(-0.3, 0.3, 2)) for _ in range(2)) for _ in range(4)]
    cover = cg.CoverSpec(["a", "b"], {frozenset(["a", "b"]): np.array(pts)}, 2)
    action = cg.trivial_action(["a", "b"], 2)
    expr = cech_differential(cech_differential(cochain(cover, action, [(0, 0)], 0)))
    plan = cg.TermPlan(expr, (2, 0), cg.enumerate_cells(cover, action, 2, 0))
    assert plan.cells and not plan.count.any() and not len(plan.table)
    value = cell_value(expr, (2, 0), ("a", "b", "a"), ())
    assert value.structurally_zero and value.values.shape == (4, 1)


def test_structurally_zero_base_values_leave_no_slot(rng):
    pts = [tuple(complex(*rng.uniform(-0.3, 0.3, 2)) for _ in range(2)) for _ in range(3)]
    cover = cg.CoverSpec(["a"], {frozenset(["a"]): np.array(pts)}, 2)
    action = cg.trivial_action(["a"], 2)
    c = cg.MixedCochain(cover, action, 2, 2,
                        {(0, 0): per_cell(lambda J, G, P: SampledForm.zeros(2, 2, P, ()),
                                          action)})
    plan = cg.TermPlan(combination((1, cech_differential(c)), (1, c.expression())),
                       (0, 0), cell_arrays(action, [(("a",), ())]))
    assert len(plan.keys) == 1 and not len(plan.term_key) and not len(plan.table)


# ---------------------------------------------------------------------------
# one value per (key, cloud)


def test_face_value_on_a_nested_cell_cloud_is_its_own_value_at_those_points(rng):
    # nesting appends the points of {p, q, r, s} to the face's own cloud {p, q, r}
    face_points, deep = random_points(rng, 6, radius=0.3), random_points(rng, 4, radius=0.3)
    cover = cg.CoverSpec(list("pqrs"), {frozenset("pqr"): np.array(face_points),
                                        frozenset("pqrs"): np.array(deep)}, 2)
    one = ex.Const(ex.CRat(1))
    mobius_inverse = HoloMap(2, [ex.mul(ex.Var(1), ex.Var(2)), ex.sub(ex.Var(2), one)])
    atlas = cg.Atlas({"p": (lib.henon_map(), lib.henon_inverse()),
                      "q": (lib.mobius_like_map(), mobius_inverse),
                      "r": (lib.shear_map(), lib.shear_inverse()),
                      "s": (lib.identity_map(2), lib.identity_map(2))})
    action = cg.trivial_action(list("pqrs"), 2)
    tau = cg.tau_invariant(cover, action, atlas, todd_invariant(2))
    face = ((2, 0),) + id_cell(action, ("p", "q", "r"), ())
    own, = tau.evaluate_all([face + (cover.cloud(("p", "q", "r")), 0)])
    P = cover.cloud(("p", "q", "r", "s"))
    on_cell, = tau.evaluate_all([face + (P, 0)])
    rows = {point.tobytes(): i for i, point in enumerate(cover.cloud(("p", "q", "r")))}
    shared = [rows[point.tobytes()] for point in P]
    assert len(own.values) == 10 and shared == [6, 7, 8, 9]
    assert len(set(own.values[:, 0].tolist())) == 10  # the value varies from point to point
    assert own.values[shared].tobytes() == on_cell.values.tobytes()


def test_index_sets_with_byte_equal_clouds_share_one_request_per_key(monkeypatch):
    # the todd3-cech benchmark scenario declares one 32-point cloud on all 15 index
    # sets of its cover; keyed by index set, its closedness would make 204 requests
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    scn = Scenario(workloads.todd3_cech(2))
    tau = scn.tau(scn.atlas, 3)
    requests, provider = [], tau.components[(3, 0)]
    tau.components[(3, 0)] = lambda batch: requests.extend(batch) or provider(batch)
    assert cg.closedness_report(tau, 1e-7).passed
    assert len(requests) == 108
    assert len({(J, G, pull) for J, G, _, pull in requests}) == 108
