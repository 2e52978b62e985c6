"""Exact geometry on the moment curve, in integers only.

The normalized volume of a simplex is a Vandermonde determinant, so it is
the product of its label differences.  The hull of C(n, d), its facets
found by orientation signs, is summed from determinants computed by one
fraction-free Bareiss elimination, `_det`.  The LP side that tests check
heights and intersections with lives in `oracles`.
"""

from itertools import combinations

from .simplices import simplex

_hull_cache = {}


def moment_point(i, d):
    """(i, i^2, ..., i^d) as exact integers."""
    if i < 1:
        raise ValueError("labels start at 1")
    return tuple(i ** k for k in range(1, d + 1))


def _det(rows):
    """Exact determinant of a square int matrix, fraction-free by Bareiss:
    each update divides exactly by the previous pivot."""
    n = len(rows)
    m = [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                m[r][c] = (m[r][c] * m[k][k] - m[r][k] * m[k][c]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def normalized_volume(s, d):
    """|det| of the edge-vector matrix of a d-simplex on the moment curve:
    a Vandermonde determinant, so the product of s_j - s_i over i < j."""
    s = simplex(s)
    if len(s) != d + 1:
        raise ValueError("normalized volume needs a full-dimensional simplex")
    v = 1
    for j, b in enumerate(s):
        for a in s[:j]:
            v *= b - a
    return v


def cyclic_volume(n, d):
    """Normalized volume of C(n, d), via the fan from vertex 1 over the hull
    facets that avoid it (independent of the gap-parity rule).

    A d-set F of {2..n} is a facet iff the orientation det[(1, m(f)) for f
    in F; (1, m(v))] has one nonzero sign over every other label v; a zero
    means "not a facet".  Its absolute value at v = 1 is the volume of the
    fan's simplex (1,) + F."""
    v = _hull_cache.get((n, d))
    if v is not None:
        return v
    points = [None] + [(1,) + moment_point(i, d) for i in range(1, n + 1)]
    total = 0
    for face in combinations(range(2, n + 1), d):
        rows = [points[f] for f in face]
        apex = _det(rows + [points[1]])
        if apex == 0:
            continue
        if all(_det(rows + [points[v]]) * apex > 0
               for v in range(2, n + 1) if v not in face):
            total += abs(apex)
    _hull_cache[n, d] = total
    return total
