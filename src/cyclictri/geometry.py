"""Exact geometry on the moment curve, in integers only.

The normalized volume of a simplex is a Vandermonde determinant, so it is
the product of its label differences.  The hull of C(n, d) is the fan from
vertex 1 over the facets that avoid it, read off Gale's evenness rule
(`simplices.gale_facets`).  The determinant route to the same hull, and the
LP side that tests check heights and intersections with, live in `oracles`.
"""

from .simplices import gale_facets, simplex


def moment_point(i, d):
    """(i, i^2, ..., i^d) as exact integers."""
    if i < 1:
        raise ValueError("labels start at 1")
    return tuple(i ** k for k in range(1, d + 1))


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
    """Normalized volume of C(n, d): the sum over the hull facets F that
    avoid vertex 1 of the volume of the fan's simplex (1,) + F."""
    return sum(normalized_volume((1,) + f, d) for f in gale_facets(n, d) if f[0] != 1)
