"""Hartogs diagonal restriction by extrapolation: the subject of acceptance criterion 10.

hartogs_diagonal restricts a pair coefficient F(z, xi) to the diagonal xi = z
by Richardson extrapolation along several directions. No check type reaches
it, so it lives with the tests as a reference.
"""

from cocyclekit.errors import DomainError

# the ladder eps = HARTOGS_EPS0 / 2^j, j < HARTOGS_LEVELS, along each direction
HARTOGS_EPS0 = 0.25
HARTOGS_LEVELS = 7
# directions may disagree by this many error estimates
HARTOGS_DISAGREEMENT = 10.0


def hartogs_diagonal(F, diagonal_points):
    """Extrapolated limit of F(z, z + eps v) as eps -> 0 along each direction.

    F is the scalar coefficient of a holomorphic (0, n)-type pair form; the
    directions are the coordinate axes and one oblique vector. Returns one
    entry per diagonal point with the value and an error estimate; raises
    DomainError when the ladder diverges or directions disagree beyond
    HARTOGS_DISAGREEMENT times the estimate (no holomorphic extension in the
    sampled data).
    """
    out = []
    for z in diagonal_points:
        z = tuple(complex(c) for c in z)
        dirs = _default_directions(len(z))
        limits = []
        estimates = []
        for v in dirs:
            v = tuple(complex(c) for c in v)
            ladder = []
            for j in range(HARTOGS_LEVELS):
                eps = HARTOGS_EPS0 / 2 ** j
                xi = tuple(a + eps * b for a, b in zip(z, v))
                ladder.append(complex(F(z, xi)))
            # a genuine singularity keeps growing geometrically at the
            # smallest steps; converging data has tail ratios near one
            tail = [abs(x) for x in ladder[-4:]]
            if all(b > 1.3 * a + 1e-12 for a, b in zip(tail, tail[1:])):
                raise DomainError(
                    "ladder diverges near %r along %r (no extension)" % (z, v))
            value, est = _richardson_limit(ladder)
            if est > 10.0 * (1.0 + abs(value)):
                raise DomainError(
                    "extrapolation unstable near %r along %r" % (z, v))
            limits.append(value)
            estimates.append(est)
        est = max(max(estimates), 1e-15)
        spread = max(abs(a - b) for a in limits for b in limits)
        if spread > HARTOGS_DISAGREEMENT * est:
            raise DomainError(
                "direction-dependent limits at %r: spread %.3e vs estimate %.3e"
                % (z, spread, est))
        out.append({"point": z, "value": sum(limits) / len(limits),
                    "estimate": est, "spread": spread})
    return out


def _default_directions(n):
    dirs = []
    for a in range(n):
        v = [0.0] * n
        v[a] = 1.0
        dirs.append(tuple(v))
    dirs.append(tuple(complex(0.6, 0.8 / (a + 1)) for a in range(n)))
    return dirs


def _richardson_limit(ladder):
    """Neville table eliminating powers eps, eps^2, ... with ratio 2."""
    table = [list(ladder)]
    for m in range(1, len(ladder)):
        prev = table[-1]
        row = []
        for j in range(1, len(prev)):
            row.append((2 ** m * prev[j] - prev[j - 1]) / (2 ** m - 1))
        table.append(row)
    value = table[-1][-1]
    estimate = abs(table[-1][-1] - table[-2][-1]) if len(table) > 1 else abs(value)
    return value, estimate
