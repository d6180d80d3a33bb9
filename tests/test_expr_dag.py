"""Expressions as shared DAGs: node memos and straight-line programs.

Composition shares subtrees by reference, and differentiate, substitute,
max_var and Program each treat a shared node once. These properties
hold that work to what a walk of the same expression as a tree computes:
equal derivative text, bitwise equal values, the same first failing point.
"""

import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclekit.expr as ex
import cocyclekit.holomap as hm
from cocyclekit.cli import execute_checks
from cocyclekit.errors import DomainError, ValidationError
from cocyclekit.scenario import Scenario
from test_batched import tree_eval
from test_expr import GOLDEN, _derivative_texts, _golden_maps
import library as lib

REPO = pathlib.Path(__file__).resolve().parents[1]
RTOL = 1e-12  # as in test_batched

# ---------------------------------------------------------------------------
# random DAGs: every step combines earlier nodes, so later ones share them

OPS = ("add", "sub", "mul", "div", "pow", "exp", "log", "neg")
STEPS = st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 99), st.integers(0, 99),
                           st.integers(-2, 3)), min_size=1, max_size=9)
# points with zero coordinates or equal coordinates make denominators,
# negative-power bases and log arguments vanish
PALETTE = ((0.3 + 0.2j, -0.5 + 0.1j), (0.0, 0.6 - 0.2j), (0.7j, 0.0), (0.4, 0.4),
           (-0.6 + 0.3j, 0.2 - 0.7j), (0.5 - 0.5j, 0.8 + 0.1j), (0.0, 0.0))
CLOUDS = st.lists(st.sampled_from(PALETTE), min_size=1, max_size=6)


def build(steps):
    """Nodes built from z1, z2 and two constants by the folding constructors."""
    pool = [ex.Var(1), ex.Var(2), ex.Const(ex.CRat(3, 10)), ex.Const(ex.CRat(-1, 2))]
    for op, i, j, power in steps:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        try:
            pool.append({"add": lambda: ex.add(a, b), "sub": lambda: ex.sub(a, b),
                         "mul": lambda: ex.mul(a, b), "div": lambda: ex.div(a, ex.add(a, b)),
                         "pow": lambda: ex.pow_(a, power), "exp": lambda: ex.exp(ex.mul(a, b)),
                         "log": lambda: ex.log(a), "neg": lambda: ex.neg(a)}[op]())
        except (ValidationError, ZeroDivisionError):
            pass  # a division by, or a negative power of, a zero constant
    return pool


def entries(steps):
    """The last three nodes: a list of expressions that share subtrees."""
    return build(steps)[-3:]


def clone(e):
    """The same expression as a tree: every occurrence of a node a new object."""
    if isinstance(e, ex.Const):
        return ex.Const(e.value)
    if isinstance(e, ex.Var):
        return ex.Var(e.index)
    if isinstance(e, ex.Add):
        return ex.Add([clone(t) for t in e.terms])
    if isinstance(e, ex.Mul):
        return ex.Mul([clone(f) for f in e.factors])
    if isinstance(e, ex.Div):
        return ex.Div(clone(e.num), clone(e.den))
    if isinstance(e, ex.Pow):
        return ex.Pow(clone(e.base), e.exponent)
    if isinstance(e, ex.Exp):
        return ex.Exp(clone(e.arg))
    return ex.Log(clone(e.arg))


def _check(v, cols, message):
    bad = np.abs(v) < 1e-300
    if bad.any():
        i = int(np.argmax(np.broadcast_to(bad, np.shape(cols[0]))))
        raise DomainError(message % (tuple(complex(c[i]) for c in cols),))


def tree_walk(e, cols):
    """Values of e on coordinate columns, walking e as a tree with numpy.

    Every occurrence of a shared node is evaluated again, children in the order
    a node computes them (a denominator before its numerator), each check right
    after its operand: what an evaluation that knows nothing of sharing does.
    """
    if isinstance(e, ex.Const):
        return e.value.to_complex()
    if isinstance(e, ex.Var):
        return cols[e.index - 1]
    if isinstance(e, (ex.Add, ex.Mul)):
        first, *rest = e.children()
        v = tree_walk(first, cols)
        for t in rest:
            v = v + tree_walk(t, cols) if isinstance(e, ex.Add) else v * tree_walk(t, cols)
        return v
    if isinstance(e, ex.Div):
        d = tree_walk(e.den, cols)
        _check(d, cols, "denominator vanished at %r")
        return tree_walk(e.num, cols) / d
    if isinstance(e, ex.Pow):
        b = tree_walk(e.base, cols)
        if e.exponent < 0:
            _check(b, cols, "negative power of ~0 at %r")
        return b ** e.exponent
    if isinstance(e, ex.Exp):
        return np.exp(tree_walk(e.arg, cols))
    v = tree_walk(e.arg, cols)
    _check(v, cols, "log of ~0 at %r")
    return np.log(v)


def walk_entries(exprs, points):
    """(N, len(exprs)) values of tree_walk, entry by entry; literal zeros stay zero."""
    cols = np.ascontiguousarray(points.T)
    out = np.zeros((len(points), len(exprs)), dtype=complex)
    for j, e in enumerate(exprs):
        if not ex.is_zero_expr(e):
            out[:, j] = tree_walk(e, cols)
    return out


def outcome(fn, *args):
    """fn's result, or the text of the DomainError it raises."""
    try:
        return fn(*args)
    except DomainError as err:
        return "DomainError: %s" % err


def node_count(exprs):
    """Distinct nodes (by identity) reachable from exprs."""
    seen = {}
    stack = list(exprs)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            stack.extend(e.children())
    return len(seen)


# ---------------------------------------------------------------------------
# derivatives


@settings(max_examples=150, deadline=None, derandomize=True)
@given(STEPS, st.lists(st.integers(1, 2), min_size=1, max_size=4))
def test_memoized_derivatives_print_like_fresh_ones(steps, order):
    exprs = entries(steps)
    # warm the memos in a random order of first and second derivatives
    for a in order:
        for e in exprs:
            for b in order:
                ex.differentiate(ex.differentiate(e, a), b)
    for e in exprs:
        for a in (1, 2):
            fresh = ex.differentiate(clone(e), a)
            assert ex.to_text(ex.differentiate(e, a)) == ex.to_text(fresh)
            for b in (1, 2):
                assert (ex.to_text(ex.differentiate(ex.differentiate(e, a), b))
                        == ex.to_text(ex.differentiate(fresh, b)))


def test_henon_henon_shear_differentiates_each_node_once(monkeypatch):
    calls = []
    for cls in (ex.Const, ex.Var, ex.Add, ex.Mul, ex.Div, ex.Pow, ex.Exp, ex.Log):
        def counted(self, var, rule=cls.diff):
            calls.append((self, var))  # the node itself, so no id is reused
            return rule(self, var)
        monkeypatch.setattr(cls, "diff", counted)
    f = hm.compose(lib.henon_map(), hm.compose(lib.henon_map(), lib.shear_map()))
    for a in range(1, f.n + 1):
        f.djac_exprs(a)
    assert calls
    assert len({(id(node), var) for node, var in calls}) == len(calls)


def test_golden_derivatives_hold_with_warm_memos():
    """tests/golden_derivatives.json, taken after every second derivative is built
    first, in the reverse variable order, through HoloMap.djac_exprs."""
    maps = _golden_maps()
    for f in maps.values():
        for a in range(f.n, 0, -1):
            f.djac_exprs(a)
    want = json.loads(GOLDEN.read_text())
    assert {key: _derivative_texts(f) for key, f in maps.items()} == want


def test_composition_keeps_sharing():
    # henon . henon . shear: each component of the outer henon reads the inner
    # map's components, so the composite is a DAG far smaller than its tree
    inner = hm.compose(lib.henon_map(), lib.shear_map())
    f = hm.compose(lib.henon_map(), inner)
    tree = sum(node_count([clone(c)]) for c in f.components)
    assert node_count(f.components) < tree
    shared = {id(n) for c in inner.components for n in _nodes(c)}
    assert all(any(id(n) in shared for n in _nodes(c)) for c in f.components)


def _nodes(e):
    yield e
    for c in e.children():
        yield from _nodes(c)


# ---------------------------------------------------------------------------
# straight-line programs


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@settings(max_examples=200, deadline=None, derandomize=True)
@given(STEPS, CLOUDS)
def test_program_matches_tree_walk_bitwise(steps, cloud):
    exprs = entries(steps)
    points = np.array(cloud, dtype=complex)
    got = outcome(ex.Program(exprs), points)
    want = outcome(walk_entries, exprs, points)
    if isinstance(want, str):
        # the same error, naming the same first point
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(STEPS, CLOUDS)
def test_program_matches_cmath_oracle(steps, cloud):
    exprs = entries(steps)
    points = np.array(cloud, dtype=complex)
    try:
        got = ex.Program(exprs)(points)
        want = np.array([[tree_eval(e, tuple(p)) for e in exprs] for p in cloud])
    except (DomainError, ZeroDivisionError, ValueError, OverflowError):
        return
    if not (np.all(np.isfinite(want)) and np.max(np.abs(want), initial=0.0) < 1e6):
        return
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert float(np.max(np.abs(got - want), initial=0.0)) <= RTOL * scale * 10


def test_shared_subtree_error_names_the_point_a_tree_walk_names():
    shared = ex.log(ex.Var(1))                      # fails where z1 = 0
    first = ex.add(ex.mul(shared, ex.Var(2)), ex.div(ex.Const(ex.CRat(1)), ex.Var(2)))
    second = ex.div(shared, ex.Var(2))              # z2 = 0 fails here
    points = np.array([[0.5, 0.5], [0.3, 0.0], [0.0, 0.2]], dtype=complex)
    # the shared log is reached first, through the first entry, at the third
    # point, before any denominator is checked at the second
    with pytest.raises(DomainError, match=r"log of ~0 at \(0j, \(0\.2\+0j\)\)"):
        ex.Program([first, second])(points)
    # with the entries swapped, the second entry's denominator is checked first
    with pytest.raises(DomainError, match=r"denominator vanished at \(\(0\.3\+0j\), 0j\)"):
        ex.Program([second, first])(points)


def test_program_evaluates_each_distinct_node_once():
    f = hm.compose(lib.henon_map(), hm.compose(lib.henon_map(), lib.shear_map()))
    exprs = [e for a in range(1, 3) for row in f.djac_exprs(a) for e in row]
    program = ex.Program(exprs)
    computed = [dest for fn, _, dest, _ in program.steps if fn is not None]
    assert len(computed) == len(set(computed))
    assert len(computed) < node_count(clone(e) for e in exprs if not ex.is_zero_expr(e))
    points = np.array([[0.1, 0.2], [0.3j, -0.4]], dtype=complex)
    assert program(points).tobytes() == walk_entries(exprs, points).tobytes()


def test_values_are_dropped_after_their_last_reader():
    shared = ex.mul(ex.Var(1), ex.Var(2))
    exprs = [ex.add(shared, ex.Var(1)), ex.exp(ex.Var(2)), ex.add(shared, ex.Var(2))]
    program = ex.Program(exprs)
    last = {}
    for i, (_, args, _, _) in enumerate(program.steps):
        for a in args:
            last[a] = i
    for i, (_, args, _, dead) in enumerate(program.steps):
        assert set(dead) == {a for a in args if last[a] == i}
    # every computed value is dropped, the shared product only after the second sum
    dropped = [a for _, _, _, dead in program.steps for a in dead]
    computed = [dest for fn, _, dest, _ in program.steps if fn is not None]
    assert set(computed) <= set(dropped)
    (product,) = [dest for fn, _, dest, _ in program.steps if fn is ex._product]
    readers = [i for i, (_, args, _, _) in enumerate(program.steps) if product in args]
    assert len(readers) == 2 and product in program.steps[readers[1]][3]


def test_max_var_is_computed_once_per_node(monkeypatch):
    f = hm.compose(lib.henon_map(), hm.compose(lib.henon_map(), lib.shear_map()))
    assert [c.max_var() for c in f.components] == [2, 2]
    # a second call reads what the first kept on every node
    monkeypatch.setattr(ex.Expr, "children", lambda self: pytest.fail("walked again"))
    assert [c.max_var() for c in f.components] == [2, 2]


# ---------------------------------------------------------------------------
# memos die with the scenario


def _maps(scn):
    stack, seen = list(scn.maps.values()), {}
    while stack:
        m = stack.pop()
        if id(m) not in seen:
            seen[id(m)] = m
            stack.extend(m._composed.values())
    return seen.values()


def _memo_nodes(scn):
    """Every node a loaded scenario's maps hold, with the derivatives memoized on them."""
    seen = {}
    stack = []
    for m in _maps(scn):
        stack.extend(m.components)
        if m._jac is not None:
            stack.extend(e for row in m._jac for e in row)
        stack.extend(e for rows in m._djac.values() for row in rows for e in row)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            stack.extend(e.children())
            stack.extend((e._derivs or {}).values())
    return seen


def test_two_loads_of_one_scenario_share_no_memo():
    path = REPO / "scenarios" / "henon_z.scn"
    first, second = Scenario.load(path), Scenario.load(path)
    for scn in (first, second):
        assert all(r["status"] == "pass" for r in execute_checks(scn))
    a, b = _memo_nodes(first), _memo_nodes(second)
    assert any(e._derivs for e in a.values())
    assert not set(a) & set(b)
    programs = [{id(p) for m in _maps(scn) for p in m._fns.values()} for scn in (first, second)]
    assert programs[0] and not programs[0] & programs[1]
