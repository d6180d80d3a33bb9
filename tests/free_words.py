"""Free words and chains of named maps as objects, and the index action of a word:
the references the id tables (cechgroup._Ids, holomap.ChainTable) are checked
against.

A Word is a reduced tuple of letters (generator name, +1 or -1); a Chain is a
composite p_1 . ... . p_m of named maps, outermost first, without identity
pieces and without adjacent declared inverse pairs. Both reduce with their own
code here, never with holomap.reduced, so a test that compares them with the
id tables compares two implementations. The pass holds words and chains only
as ids, so these live with the tests.
"""

import cocyclekit.expr as ex


def _reduce(items, cancels):
    """`items` with every adjacent pair (a, b) for which cancels(a, b) holds removed,
    cascading as a free word reduces."""
    out = []
    for x in items:
        if out and cancels(out[-1], x):
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class Word:
    """Reduced free word; letters are (generator name, +1 or -1)."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = _reduce(letters, lambda a, b: a == (b[0], -b[1]))

    def __mul__(self, other):
        return Word(self.letters + other.letters)

    def inverse(self):
        return Word((name, -sgn) for name, sgn in reversed(self.letters))

    def is_identity(self):
        return not self.letters

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return "*".join(name + ("" if sgn > 0 else "^-1") for name, sgn in self.letters) or "e"

    @classmethod
    def gen(cls, name, sgn=1):
        return cls(((name, sgn),))

    @classmethod
    def product(cls, words):
        return cls(letter for w in words for letter in w.letters)


def act_index(action, index, letters):
    """The cover index that a word's letters move `index` to, first letter first, read
    from the action's index tables: an inverse letter looks its image up backwards."""
    for name, sgn in letters:
        table = action.index_action[name]
        index = table[index] if sgn > 0 else next(k for k, v in table.items() if v == index)
    return index


def is_identity_map(m):
    """True when the components of the map m are z1..zn in order."""
    return all(isinstance(c, ex.Var) and c.index == i + 1 for i, c in enumerate(m.components))


class Chain:
    """Composite p_1 . ... . p_m of named maps in dimension n, applied right to left:
    identity pieces and adjacent pairs (f, g) in `inverses` (declared f . g = id)
    are dropped, so the identity chain holds no piece."""

    def __init__(self, pieces, n, inverses=frozenset()):
        self.n = n
        self.pieces = _reduce([p for p in pieces if not is_identity_map(p)],
                              lambda f, g: (f, g) in inverses)

    def is_affine(self):
        return all(p.is_affine() for p in self.pieces)
