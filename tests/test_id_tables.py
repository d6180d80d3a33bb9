"""The id tables of the label structure: cells, words, chains and labels as small ints.

A pass builds a cell's paths, vertices, transitions and top charts from the
action's id tables (cechgroup._Ids) and the labeler's chain table
(holomap.ChainTable). The references here build the same things one path
at a time from the Words and Chains of free_words (path_labels.ReferencePaths),
and from itertools for the cells.
"""

import collections
import itertools
import json
import pathlib

import numpy as np
import pytest

import cocyclekit.cechgroup as cg
import cocyclekit.cocycle as co
import library as lib
from cocyclekit import cli
from cocyclekit.invariants import todd_invariant
from cocyclekit.scenario import Scenario
from chart_labels import entry_path
from conftest import object_cell, object_cells, object_word, reference_points
from free_words import Chain, Word, act_index
from path_labels import ReferencePaths

ROOT = pathlib.Path(__file__).resolve().parents[1]
SHIPPED = sorted(p.name for p in (ROOT / "scenarios").glob("*.scn"))


def workload_scenario(name, seed, tmp_path, monkeypatch):
    """A scenario of the benchmark workloads (perfbench/workloads.py) at a seed."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    path = tmp_path / ("%s.scn" % name)
    path.write_text(json.dumps(getattr(workloads, name.replace("-", "_"))(seed)),
                    encoding="utf-8")
    return Scenario.load(path)


def scenarios(tmp_path, monkeypatch):
    """Every shipped scenario and group-witness at seed 2."""
    return ([Scenario.load(ROOT / "scenarios" / name) for name in SHIPPED]
            + [workload_scenario("group-witness", 2, tmp_path, monkeypatch)])


def labelers(scn):
    """(labeler, reference, step types per bidegree) of the scenario's tau and, with a
    second atlas, of its witness: the steps of tau_invariant and cohomologous_witness."""
    n, T, action = scn.n, todd_invariant(scn.n), scn.action
    grouped = bool(action.generators)
    tau = {(m, n - m): (cg.C_STEP,) * m + (cg.G_STEP,) * (n - m)
           for m in range(n + 1) if m == n or grouped}
    out = [([scn.atlas], tau)]
    if scn.atlas_b is not None:
        out.append(([scn.atlas_b, scn.atlas],
                    {(m, n - 1 - m): (cg.E_STEP,) + (cg.C_STEP,) * m
                     + (cg.G_STEP,) * (n - 1 - m)
                     for m in range(n) if m == n - 1 or grouped}))
    return [(cg.PathLabeler(scn.cover, action, atlases, T), ReferencePaths(action, atlases, T),
             steps) for atlases, steps in out]


def pieces(chains, c):
    """The named maps of the chain with id c."""
    return tuple(chains.maps[p] for p in chains.chains[c])


def id_cells(cover, action, m, q):
    J, G, _ = cg.enumerate_cells(cover, action, m, q)
    return [(tuple(j), tuple(g)) for j, g in zip(J.tolist(), G.tolist())]


def test_label_lists_equal_the_per_path_reference(tmp_path, monkeypatch):
    checked = 0
    for scn in scenarios(tmp_path, monkeypatch):
        for labeler, reference, steps in labelers(scn):
            chains = labeler.chains
            for (m, q), step_types in steps.items():
                for J, G in id_cells(scn.cover, scn.action, m, q):
                    got = [(sign, tuple(pieces(chains, f) for f in ladder),
                            tuple(pieces(chains, f) for f in pullbacks), pieces(chains, top))
                           for sign, ladder, pullbacks, top in labeler.labels(J, G, step_types)]
                    want = reference.labels(*object_cell(scn.action, J, G), step_types)
                    assert got == want, (scn.hash, J, G)
                    assert labeler.cell_vanishes(J, G, step_types) == (not want)
                    checked += len(want)
    assert checked


def test_pulled_top_charts_extend_the_top_by_the_word_letters(tmp_path, monkeypatch):
    scn = workload_scenario("group-witness", 2, tmp_path, monkeypatch)
    (labeler, _, steps), _ = labelers(scn)
    ids, chains = scn.action.ids(), labeler.chains
    tops = {top for (m, q), s in steps.items() for J, G in id_cells(scn.cover, scn.action, m, q)
            for _, _, _, top in labeler.labels(J, G, s)}
    assert tops
    for top in tops:
        for word in scn.action.words:
            w = ids.word(word)
            want = Chain(pieces(chains, top) + tuple(scn.action.letter_maps(word)), scn.n,
                         labeler.inverses).pieces
            assert pieces(chains, labeler.pulled_top(top, w)) == want
            assert labeler.pulled_top(top, w) == labeler.pulled_top(top, w)
        assert labeler.pulled_top(top, 0) == top


def test_face_label_chains_are_the_simplex_transitions(tmp_path, monkeypatch):
    # each face-sum check, on a scenario of its own, labels every increasing k-face
    # once, its ladder, pullbacks and top chart the chains of chart_labels.entry_path
    added = []
    add_label = co.LabelPlan.add_label

    def recorded(plan, ladder, pullbacks, top, pid):
        added.append((tuple(pieces(plan.chains, f) for f in ladder),
                      tuple(pieces(plan.chains, f) for f in pullbacks), pieces(plan.chains, top)))
        return add_label(plan, ladder, pullbacks, top, pid)

    monkeypatch.setattr(co.LabelPlan, "add_label", recorded)
    names = [e["name"] for e in workload_scenario("chart-kernel", 2, tmp_path, monkeypatch).checks
             if e["type"] in ("telescoping", "dk-validate")]
    for name in names:
        scn = workload_scenario("chart-kernel", 2, tmp_path, monkeypatch)
        entry = next(e for e in scn.checks if e["name"] == name)
        s, k = entry_path(entry), entry["arity"]
        added.clear()
        cli.CHECK_RUNNERS[entry["type"]](scn, entry)

        def chain(maps):
            return Chain(maps, s.n, s.inverses)

        want = []
        for face in itertools.combinations(range(s.level + 1), k + 1):
            ladder = [chain(s.transitions[a, b]) for a, b in zip(face, face[1:])]
            if not any(f.is_affine() for f in ladder):
                want.append((tuple(f.pieces for f in ladder),
                             tuple(chain(s.transitions[i, face[-1]]).pieces
                                   for i in face[1:-1]),
                             chain(s.charts[face[-1]]).pieces))
        assert want and collections.Counter(added) == collections.Counter(want), name


@pytest.mark.parametrize("name", SHIPPED)
def test_enumerated_cells_follow_the_itertools_order(name):
    scn = Scenario.load(ROOT / "scenarios" / name)
    action = scn.action
    for m, q in itertools.product(range(4), range(4)):
        want = []
        for J in itertools.product(scn.cover.indices, repeat=m + 1):
            for G in itertools.product(map(Word, action.words), repeat=q):
                if len(reference_points(scn.cover, action, J, G)):
                    want.append((J, G))
        assert object_cells(scn.cover, action, m, q) == want, (m, q)


def test_term_keys_rank_by_the_repr_of_their_objects(tmp_path, monkeypatch):
    scn = workload_scenario("group-witness", 2, tmp_path, monkeypatch)
    tau, action = scn.tau(scn.atlas, scn.n), scn.action
    diff, ids = cg.mixed_differential(tau), action.ids()
    keys = 0
    for bd in diff.bidegrees():
        plan = cg.TermPlan(diff, bd, cg.enumerate_cells(scn.cover, action, *bd))
        for b, key_bd, J, G, pull in plan.keys:
            objects = (key_bd,) + object_cell(action, J, G) + (object_word(action, pull),)
            assert b == 0 and ids.key_repr(key_bd, J, G, pull) == repr(objects)
            keys += 1
    assert keys


def test_witness_terms_rank_own_by_repr_then_tau_a_then_tau_b(tmp_path, monkeypatch):
    scn = workload_scenario("group-witness", 2, tmp_path, monkeypatch)
    witness = cg.cohomologous_witness(scn.cover, scn.action, scn.atlas, scn.atlas_b,
                                      todd_invariant(scn.n))
    report = cg.witness_report(witness, scn.tau(scn.atlas, scn.n), scn.tau(scn.atlas_b, scn.n),
                               1e-7)
    ids, cells = scn.action.ids(), 0
    for bd, plan in report._plans:
        for c, (J, G) in enumerate(plan.cells):
            first = plan._first[c]
            keys = [plan.keys[k] for k in plan.term_key[first:first + plan.count[c]].tolist()]
            ranked = sorted(keys, key=lambda k: (k[0], repr((k[1],) + object_cell(
                scn.action, k[2], k[3]) + (object_word(scn.action, k[4]),))))
            assert keys == ranked
            # each tau reads the cell's own value, not pulled back
            taus = [k for k in keys if k[0]]
            assert taus == [k for k in ((1, bd, J, G, 0), (2, bd, J, G, 0)) if k in taus]
            cells += len(keys) > len(taus) == 2
    assert cells


class Stored(dict):
    """A memo that counts how often each of its keys is stored."""

    def __init__(self):
        super().__init__()
        self.stores = collections.Counter()

    def __setitem__(self, key, value):
        self.stores[key] += 1
        super().__setitem__(key, value)


def test_each_product_reduction_and_transition_is_computed_once(tmp_path, monkeypatch):
    # a pass of the scenario's checks: every word product of the action, every chain
    # reduction and every transition of each labeler is stored in its memo once
    scn = workload_scenario("group-witness", 2, tmp_path, monkeypatch)
    ids = scn.action.ids()
    products = ids._products = Stored()
    memos = []
    init = cg.PathLabeler.__init__

    def recorded(self, *args):
        init(self, *args)
        self._transitions, self.chains._reduced = Stored(), Stored()
        memos.extend([self._transitions, self.chains._reduced])

    monkeypatch.setattr(cg.PathLabeler, "__init__", recorded)
    assert all(r["status"] == "pass" for r in cli.execute_checks(scn))
    assert len(memos) == 6  # tau, tau_b and the witness
    for memo in [products] + memos:
        assert memo.stores and set(memo.stores.values()) == {1}
        assert len(memo) == len(memo.stores)


@pytest.mark.parametrize("count", [3, 64, 65])
def test_index_sets_and_cells_of_large_covers_equal_the_per_cell_references(count):
    # past 64 cover indices, cell_sets keys an index set by a bit mask of several words
    indices = ["i%d" % k for k in range(count)]
    rng = np.random.default_rng(count)
    declared = [(indices[0],), (indices[-1],), (indices[-2], indices[-1]),
                (indices[0], indices[-1]), (indices[1], indices[-2], indices[-1])]
    cover = cg.CoverSpec(indices, {frozenset(key): 0.3 * (rng.uniform(-1, 1, (2, 2))
                                                          + 1j * rng.uniform(-1, 1, (2, 2)))
                                   for key in declared}, 2)
    tr = lib.affine_map([[1, 0], [0, 1]], [1, 0], name="tr")
    tr_inv = lib.affine_map([[1, 0], [0, 1]], [-1, 0], name="tr_inv")
    action = cg.GroupActionSpec({"t": (tr, tr_inv)}, {"t": dict(zip(indices, indices[-1:]
                                                                    + indices[:-1]))},
                                indices, words=[(("t", 1),), (("t", -1),)])
    ids = action.ids()
    for m, q in [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)]:
        cells = [(J, G) for J in itertools.product(indices, repeat=m + 1)
                 for G in itertools.product(map(Word, action.words), repeat=q)]
        J = np.array([[ids.index(i) for i in J] for J, _ in cells]).reshape(len(cells), m + 1)
        G = np.array([[ids.word(g.letters) for g in G] for _, G in cells]).reshape(len(cells), q)
        moved = [tuple(act_index(action, i, Word.product(G).letters) for i in J)
                 for J, G in cells]
        assert [tuple(ids.indices[i] for i in row)
                for row in ids.moved(J, G).tolist()] == moved, (m, q)
        got = [ids.sets[s] for s in ids.cell_sets(J, G).tolist()]
        assert got == list(map(frozenset, moved)), (m, q)
        nonempty = [cell for cell, key in zip(cells, moved) if len(cover.cloud(key))]
        assert nonempty and object_cells(cover, action, m, q) == nonempty, (m, q)


@pytest.mark.parametrize("name", SHIPPED)
def test_todd_cocycle_rows_are_on_the_moved_indices_with_their_repeats(name):
    # "on" lists a cell's indices moved by the product of its words, not its index set
    scn = Scenario.load(ROOT / "scenarios" / name)
    want = [sorted(str(act_index(scn.action, i, Word.product(G).letters)) for i in J)
            for bd in scn.tau(scn.atlas, scn.n).bidegrees()
            for J, G in object_cells(scn.cover, scn.action, *bd)]
    assert [row["on"] for row in cli.tau_cell_rows(scn)] == want
    assert any(len(set(on)) < len(on) for on in want)
