import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest

import cocyclekit.expr as ex
import cocyclekit.holomap as hm
from cocyclekit.errors import DomainError, DslSyntaxError
from cocyclekit.scenario import Scenario
import library as lib
from conftest import numeric_partial, word_composite
from free_words import Word

REPO = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = pathlib.Path(__file__).with_name("golden_derivatives.json")


def ev(e, *point):
    """e at one point: a one-row run of its compiled program."""
    return complex(ex.Program([e])(np.array([point], dtype=complex))[0, 0])


def on_clouds(e):
    """e as a function of (N, n) clouds, one value per point (numeric_partial's fn)."""
    return lambda P: ex.Program([e])(P)[:, 0]


def test_parse_and_eval_basics():
    e = ex.parse_expr("z1^2 * z2 + 3/4", 2)
    assert ev(e, 2 + 0j, 5 + 0j) == pytest.approx(20.75)


def test_parse_imaginary_literal():
    e = ex.parse_expr("i * z1", 1)
    assert ev(e, 3 + 0j) == pytest.approx(3j)


def test_parse_decimal_is_exact():
    e = ex.parse_expr("0.25 + z1", 1)
    assert isinstance(e, ex.Add)
    const = [t for t in e.terms if isinstance(t, ex.Const)][0]
    assert const.value.re == Fraction(1, 4)


def test_parse_named_constant():
    e = ex.parse_expr("c * z1", 1, constants={"c": ex.CRat(Fraction(3, 10))})
    assert ev(e, 10 + 0j) == pytest.approx(3.0)


def test_syntax_error_offset_trailing_operator():
    with pytest.raises(DslSyntaxError) as err:
        ex.parse_expr("z1^2 +", 2)
    assert err.value.offset == 6


def test_unknown_name_rejected():
    with pytest.raises(DslSyntaxError):
        ex.parse_expr("z1 + bogus", 2)


def test_coordinate_out_of_range():
    with pytest.raises(DslSyntaxError):
        ex.parse_expr("z3", 2)


def test_unbalanced_parenthesis():
    with pytest.raises(DslSyntaxError):
        ex.parse_expr("(z1 + z2", 2)


def test_differentiate_product():
    e = ex.parse_expr("z1^2 * z2", 2)
    d = ex.differentiate(e, 1)
    for p in [(1 + 1j, 2 - 1j), (0.5j, 3.0), (2.0, -1.0)]:
        assert ev(d, *p) == pytest.approx(2 * p[0] * p[1])


def test_differentiate_unused_variable_is_zero_node():
    e = ex.parse_expr("exp(z1)", 2)
    d = ex.differentiate(e, 2)
    assert ex.is_zero_expr(d)


def test_differentiate_constant_is_zero_node():
    assert ex.is_zero_expr(ex.differentiate(ex.Const(ex.CRat(5)), 1))


def test_differentiate_quotient_against_numeric_oracle():
    e = ex.parse_expr("1 / (z1 + z2)", 2)
    d = ex.differentiate(e, 1)
    assert ev(d, 1 + 0j, 2 + 0j) == pytest.approx(-1 / 9)
    fn = on_clouds(e)
    for p in [(1 + 0j, 2 + 0j), (0.3 + 0.7j, -0.2 + 0.1j)]:
        oracle = numeric_partial(fn, p, 1, h=1e-4)
        assert abs(ev(d, *p) - oracle) < 1e-10 * (1 + abs(oracle))


def test_differentiate_exp_log_chain():
    e = ex.parse_expr("exp(z1^2) + log(1 + z2)", 2)
    d1 = ex.differentiate(e, 1)
    d2 = ex.differentiate(e, 2)
    p = (0.4 + 0.3j, 0.2 - 0.1j)
    fn = on_clouds(e)
    assert abs(ev(d1, *p) - numeric_partial(fn, p, 1, 1e-4)) < 1e-10
    assert abs(ev(d2, *p) - numeric_partial(fn, p, 2, 1e-4)) < 1e-10


def random_expr(rng, depth, n_vars):
    roll = rng.integers(0, 8 if depth > 0 else 2)
    if roll == 0:
        num = int(rng.integers(-6, 7))
        den = int(rng.integers(1, 5))
        return ex.Const(ex.CRat(Fraction(num, den), Fraction(int(rng.integers(-3, 4)))))
    if roll == 1:
        return ex.Var(int(rng.integers(1, n_vars + 1)))
    if roll in (2, 3):
        return ex.add(random_expr(rng, depth - 1, n_vars),
                      random_expr(rng, depth - 1, n_vars))
    if roll == 4:
        return ex.mul(random_expr(rng, depth - 1, n_vars),
                      random_expr(rng, depth - 1, n_vars))
    if roll == 5:
        return ex.pow_(random_expr(rng, depth - 1, n_vars), int(rng.integers(2, 4)))
    if roll == 6:
        return ex.sub(random_expr(rng, depth - 1, n_vars),
                      random_expr(rng, depth - 1, n_vars))
    return ex.div(random_expr(rng, depth - 1, n_vars),
                  ex.add(ex.Const(ex.CRat(3)), ex.pow_(ex.Var(1), 2)))


def test_print_parse_round_trip_500_random(rng):
    for trial in range(500):
        e = random_expr(rng, 3, 2)
        text = ex.to_text(e)
        back = ex.parse_expr(text, 2)
        for _ in range(20):
            p = tuple(0.8 * complex(a, b) for a, b in rng.uniform(-1, 1, (2, 2)))
            try:
                v0 = ev(e, *p)
            except DomainError:
                continue
            v1 = ev(back, *p)
            assert abs(v0 - v1) <= 1e-12 * (1 + abs(v0))


def test_symbolic_derivative_vs_numeric_200_random(rng):
    checked = 0
    trial = 0
    while checked < 200:
        trial += 1
        e = random_expr(rng, 3, 2)
        var = int(rng.integers(1, 3))
        d = ex.differentiate(e, var)
        p = tuple(0.6 * complex(a, b) for a, b in rng.uniform(-1, 1, (2, 2)))
        try:
            got = ev(d, *p)
            oracle = numeric_partial(on_clouds(e), p, var, h=1e-3)
        except DomainError:
            continue
        if abs(oracle) > 1e6 or not np.isfinite(abs(oracle)):
            continue
        assert abs(got - oracle) <= 1e-9 * (1 + abs(oracle)), (trial, ex.to_text(e))
        checked += 1


def test_substitute_folds_constants():
    e = ex.parse_expr("z1 + z2^2", 2)
    out = ex.substitute(e, [ex.Const(ex.CRat(2)), ex.Const(ex.CRat(3))])
    assert isinstance(out, ex.Const)
    assert out.value.re == 11


def _derivative_texts(f):
    """to_text of d/dz_a and d^2/dz_a dz_b of every component, in a fixed order."""
    out = []
    for c in f.components:
        for a in range(1, f.n + 1):
            d = ex.differentiate(c, a)
            out.append(ex.to_text(d))
            out.extend(ex.to_text(ex.differentiate(d, b)) for b in range(1, f.n + 1))
    return out


def _golden_maps():
    """Library maps and pairs, scenario maps, and scenario transitions with words."""
    maps, _, pairs = lib.builtin_library()
    out = {"library/" + name: f for name, f in maps.items()}
    for a, b in pairs:
        out["library/%s.%s" % (a, b)] = hm.compose(maps[a], maps[b])
    for scn_name in ("cech_todd3", "henon_z"):
        scn = Scenario.load(REPO / "scenarios" / ("%s.scn" % scn_name))
        for name, f in scn.maps.items():
            out["%s/%s" % (scn_name, name)] = f
        atlas, action = scn.atlas, scn.action
        declared = [Word(w) for w in action.words]
        words = declared + [u * v for u in declared for v in declared]
        for i in atlas.indices():
            for j in atlas.indices():
                if i != j:
                    out["%s/%s.%s_inv" % (scn_name, i, j)] = hm.compose(
                        atlas.chart(i), atlas.inverse(j))
                for w in words:
                    if not w.is_identity():
                        inner = hm.compose(word_composite(action, w), atlas.inverse(j))
                        out["%s/%s.%r.%s_inv" % (scn_name, i, w, j)] = hm.compose(
                            atlas.chart(i), inner)
    return out


def test_derivative_trees_match_golden_text():
    """The folding constructors skip zero and one constants instead of folding
    them; the golden strings were printed by constructors that folded every
    constant, so equal text means the same trees, zeros and floats."""
    want = json.loads(GOLDEN.read_text())
    got = {key: _derivative_texts(f) for key, f in _golden_maps().items()}
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key
