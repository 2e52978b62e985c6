"""Label combinatorics of cyclic polytopes.

Vertices of C(n, d) are the integer labels 1..n sitting on the moment curve;
everything in this module is pure bookkeeping on sorted label tuples, plus
`bits`, the one walk (by bytes) over the set bits of the int masks that
index sets of them, and `_image`, the one OR of images over it.  What each
predicate means geometrically is pinned down by the exact-arithmetic
oracles in `oracles` and the agreement tests between the two routes.
"""

from itertools import combinations
from types import MappingProxyType

EVEN = "even"
ODD = "odd"
LOWER = "lower"
UPPER = "upper"

_gale_cache = {}
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def bits(m):
    """Indices of the set bits of the mask m, in ascending order: m is
    shifted to its lowest nonzero byte and written out as bytes once, and
    each nonzero byte's bits are read from a table, so no step of the walk
    is a whole-int operation."""
    if m:
        low = ((m & -m).bit_length() - 1) & ~7
        m >>= low
        for byte in m.to_bytes((m.bit_length() + 7) // 8, "little"):
            if byte:
                for i in _BYTE_BITS[byte]:
                    yield low + i
            low += 8


def _image(mask, images):
    """The OR of images[i] over the set bits i of mask."""
    m = 0
    for i in bits(mask):
        m |= images[i]
    return m


def simplex(labels):
    """Canonical simplex: strictly increasing tuple of positive int labels."""
    t = tuple(sorted(labels))
    if len(t) != len(set(t)):
        raise ValueError("repeated label in simplex: %r" % (labels,))
    if not t:
        raise ValueError("empty simplex")
    if any((not isinstance(v, int)) or v < 1 for v in t):
        raise ValueError("labels must be positive integers: %r" % (labels,))
    return t


def gap_parity(face, label):
    """Parity of a gap: count labels of `face` lying above `label`."""
    if label in face:
        raise ValueError("label %d is not a gap of %r" % (label, face))
    above = sum(1 for j in face if j > label)
    return EVEN if above % 2 == 0 else ODD


def facet_class(face, vertices, d):
    """Classify a d-subset of `vertices` as a lower/upper facet of the
    cyclic subpolytope on `vertices`, or None if it is not a facet.

    A facet is lower iff every gap is even, upper iff every gap is odd.
    """
    face = simplex(face)
    vset = frozenset(vertices)
    if len(face) != d:
        raise ValueError("facet of a d-polytope needs d vertices")
    if not set(face) <= vset:
        raise ValueError("face %r not inside vertex set" % (face,))
    if len(vset) < d + 1:
        raise ValueError("vertex set too small for dimension %d" % d)
    saw_even = saw_odd = False
    for i in vset:
        if i in face:
            continue
        if gap_parity(face, i) == EVEN:
            saw_even = True
        else:
            saw_odd = True
        if saw_even and saw_odd:
            return None
    return UPPER if saw_odd else LOWER


def gale_facets(n, d):
    """All facets of C(n, d) with their class, as a read-only mapping
    {facet_tuple: class} in lexicographic order, computed once per (n, d)."""
    got = _gale_cache.get((n, d))
    if got is None:
        if n < d + 1:
            raise ValueError("C(n, d) needs n >= d+1")
        out = {}
        labels = range(1, n + 1)
        for face in combinations(labels, d):
            cls = facet_class(face, labels, d)
            if cls is not None:
                out[face] = cls
        got = _gale_cache[(n, d)] = MappingProxyType(out)
    return got


def facet_split(s):
    """Partition the facets of a simplex into (lower, upper).

    For s = {s_0 < ... < s_k}, the facet s \\ {s_j} is lower iff k - j is
    even; this is the gap rule applied inside the simplex itself.
    """
    s = simplex(s)
    if len(s) < 2:
        raise ValueError("simplex needs at least 2 vertices to have facets")
    k = len(s) - 1
    lower, upper = set(), set()
    for j in range(k + 1):
        facet = s[:j] + s[j + 1:]
        (lower if (k - j) % 2 == 0 else upper).add(facet)
    return frozenset(lower), frozenset(upper)
