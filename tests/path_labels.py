"""Grid paths through a cell one path at a time, as Words and Chains
(free_words): the reference the id tables of cechgroup.PathLabeler are
checked against.

A cell is a tuple of cover indices J and a tuple of Words G. A path's vertex
is (atlas layer, translated cover index, remaining word tail); its chart is
the chain chart . tail letters, and the transition between two vertices the
chain chart_a . letters of ta tb^-1 . inverse_b. Every word product, vertex
and chain is built afresh for every path, with the object arithmetic of
free_words, which the pass does not use. No check type reaches this, so it
lives with the tests.
"""

import cocyclekit.cechgroup as cg
from chart_labels import chart_path
from free_words import Chain, Word, act_index


class ReferencePaths:
    """The chart paths of the cells of a tau (one atlas) or a witness (two)."""

    def __init__(self, action, atlases, T):
        self.action = action
        self.atlases = list(atlases)
        self.T = T
        self.n = self.atlases[0].chart(self.atlases[0].indices()[0]).n
        self.inverses = action.inverses.union(*(atlas.inverses for atlas in self.atlases))

    def _chain(self, maps):
        return Chain(maps, self.n, self.inverses)

    def path(self, J, G, seq):
        """Vertices of the grid path that takes the steps `seq` through cell (J, G)."""
        layer, r, s, vertices = 0, 0, 0, []
        for kind in (None,) + tuple(seq):
            if kind == cg.E_STEP:
                layer = 1
            elif kind == cg.C_STEP:
                r += 1
            elif kind == cg.G_STEP:
                s += 1
            head, tail = Word.product(G[:s]), Word.product(G[s:])
            vertices.append((layer, act_index(self.action, J[r], head.letters), tail))
        return vertices

    def _chart_maps(self, vertex):
        layer, index, tail = vertex
        return [self.atlases[layer].chart(index)] + self.action.letter_maps(tail.letters)

    def _transition_maps(self, va, vb):
        (layer_a, ia, ta), (layer_b, ib, tb) = va, vb
        return ([self.atlases[layer_a].chart(ia)]
                + self.action.letter_maps((ta * tb.inverse()).letters)
                + [self.atlases[layer_b].inverse(ib)])

    def chart(self, vertex):
        return self._chain(self._chart_maps(vertex))

    def transition(self, va, vb):
        return self._chain(self._transition_maps(va, vb))

    def labels(self, J, G, step_types):
        """(sign, ladder pieces, pullback pieces, top pieces) of the cell's paths whose
        label is not structurally zero, in shuffle order."""
        out = []
        for seq, sign in cg._shuffles(step_types):
            v = self.path(J, G, seq)
            ladder = [self.transition(a, b) for a, b in zip(v, v[1:])]
            if self.T.arity > self.n or any(f.is_affine() for f in ladder):
                continue
            out.append((sign, tuple(f.pieces for f in ladder),
                        tuple(self.transition(u, v[-1]).pieces for u in v[1:-1]),
                        self.chart(v[-1]).pieces))
        return out

    def simplex(self, J, G, seq, points):
        """The chart path (chart_labels.ChartPath) of the path that takes the steps
        `seq` through (J, G), on the source cloud `points`."""
        v = self.path(J, G, seq)
        return chart_path([tuple(self._chart_maps(u)) for u in v],
                          {(a, b): tuple(self._transition_maps(v[a], v[b]))
                           for b in range(len(v)) for a in range(b)}, points, self.inverses)
