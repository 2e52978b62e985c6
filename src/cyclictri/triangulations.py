"""Triangulations of C(n, d): the value type, validity checking, bistellar
flips, the vertex contraction/insertion maps, and submersion sets."""

import json
from dataclasses import dataclass
from itertools import combinations, product

from . import geometry
from .simplices import simplex, facet_split, gale_facets, zig_zag_admissible, LOWER

_bottom_top_cache = {}
_split_cache = {}
_intertwining_cache = {}


@dataclass(frozen=True)
class Violation:
    rule: str
    witness: object
    message: str


class Triangulation:
    """Immutable set of d-simplices on labels 1..n, canonically ordered."""

    __slots__ = ("n", "d", "simplices", "_set", "_hash")

    def __init__(self, n, d, simplices):
        if n < d + 1 or d < 1:
            raise ValueError("need n >= d+1 >= 2")
        simp = tuple(sorted(simplex(s) for s in simplices))
        for s in simp:
            if len(s) != d + 1:
                raise ValueError("member %r is not a %d-simplex" % (s, d))
            if s[-1] > n:
                raise ValueError("label out of range in %r" % (s,))
        if len(set(simp)) != len(simp):
            raise ValueError("repeated simplex")
        self.n = n
        self.d = d
        self.simplices = simp
        self._set = frozenset(simp)
        self._hash = hash((n, d, simp))

    def __contains__(self, s):
        return tuple(s) in self._set

    def __iter__(self):
        return iter(self.simplices)

    def __len__(self):
        return len(self.simplices)

    def __eq__(self, other):
        return isinstance(other, Triangulation) and \
            (self.n, self.d, self.simplices) == (other.n, other.d, other.simplices)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Triangulation(%d, %d, %s)" % (self.n, self.d, list(self.simplices))

    def key(self):
        """Canonical JSON form; byte-stable identity for posets and exports."""
        return json.dumps(
            {"n": self.n, "d": self.d, "simplices": [list(s) for s in self.simplices]},
            separators=(",", ":"))

    @staticmethod
    def from_json(text):
        obj = json.loads(text)
        return Triangulation(obj["n"], obj["d"], [tuple(s) for s in obj["simplices"]])


def validate(simplices, n, d):
    """First violated triangulation invariant, or None if valid.

    Checks: member shape, pairwise admissibility, exact volume covering,
    wall condition (every facet of a member is shared by exactly two members
    or lies once on the hull boundary), and extreme-label coverage.
    """
    try:
        if isinstance(simplices, Triangulation) and (simplices.n, simplices.d) == (n, d):
            t = simplices
        else:
            t = Triangulation(n, d, simplices)
    except ValueError as e:
        return Violation("shape", simplices, str(e))
    if not t.simplices:
        return Violation("empty", t, "no simplices")

    members = t.simplices
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if not zig_zag_admissible(a, b, d):
                return Violation("admissible", (a, b),
                                 "members intersect improperly")

    vol = sum(geometry.normalized_volume(s, d) for s in members)
    hull = geometry.cyclic_volume(n, d)
    if vol != hull:
        return Violation("volume", (vol, hull),
                         "simplex volumes sum to %s, hull has %s" % (vol, hull))

    boundary = gale_facets(n, d)
    seen = {}
    for s in members:
        for j in range(d + 1):
            f = s[:j] + s[j + 1:]
            seen[f] = seen.get(f, 0) + 1
    for f, c in seen.items():
        if c == 2:
            if f in boundary:
                return Violation("wall", f, "hull facet covered twice")
        elif c == 1:
            if f not in boundary:
                return Violation("wall", f, "interior wall covered once")
        else:
            return Violation("wall", f, "wall covered %d times" % c)
    for f in boundary:
        if seen.get(f) != 1:
            return Violation("wall", f, "hull facet not covered")

    used = set()
    for s in members:
        used.update(s)
    extreme = set(range(1, n + 1)) if d >= 2 else {1, n}
    missing = extreme - used
    if missing:
        return Violation("labels", min(missing), "extreme label unused")
    return None


def make_triangulation(simplices, n, d):
    """Validating constructor; raises on the first violation."""
    t = Triangulation(n, d, simplices)
    v = validate(t, n, d)
    if v is not None:
        raise ValueError("invalid triangulation (%s): %s" % (v.rule, v.message))
    return t


def _bottom_top(n, d):
    key = (n, d)
    pair = _bottom_top_cache.get(key)
    if pair is None:
        if n == d + 1:
            only = Triangulation(n, d, [tuple(range(1, n + 1))])
            pair = (only, only)
        else:
            lo, hi = [], []
            for f, cls in gale_facets(n, d + 1).items():
                (lo if cls == LOWER else hi).append(f)
            pair = (Triangulation(n, d, lo), Triangulation(n, d, hi))
        _bottom_top_cache[key] = pair
    return pair


def bottom(n, d):
    """The triangulation by lower facets of C(n, d+1); least element of the
    flip order."""
    return _bottom_top(n, d)[0]


def top(n, d):
    """The triangulation by upper facets of C(n, d+1); greatest element."""
    return _bottom_top(n, d)[1]


def _split(s):
    pair = _split_cache.get(s)
    if pair is None:
        pair = facet_split(s)
        _split_cache[s] = pair
    return pair


def increasing_flips(t):
    """All (d+2)-subsets whose lower facets all lie in t; each is a valid
    upward bistellar move."""
    out = []
    for cand in combinations(range(1, t.n + 1), t.d + 2):
        lower, _ = _split(cand)
        if all(f in t._set for f in lower):
            out.append(cand)
    return out


def apply_flip(t, cand):
    """Replace the lower facets of cand by its upper facets."""
    cand = simplex(cand)
    if len(cand) != t.d + 2:
        raise ValueError("flip simplex needs d+2 vertices")
    lower, upper = _split(cand)
    if not all(f in t._set for f in lower):
        raise ValueError("%r is not an increasing flip of this triangulation" % (cand,))
    return Triangulation(t.n, t.d, (t._set - lower) | upper)


def contract_last(t):
    """Contract vertex n onto n-1: keep members avoiding n, and slide the
    link of n over to n-1 where that does not collapse the simplex."""
    n, d = t.n, t.d
    if n < d + 2:
        raise ValueError("nothing to contract")
    out = set()
    for s in t:
        if s[-1] != n:
            out.add(s)
        elif n - 1 not in s:
            out.add(tuple(sorted(s[:-1] + (n - 1,))))
    return Triangulation(n - 1, d, out)


def insert_bottom(t):
    """Extend a triangulation of C(n-1, d) to C(n, d) by coning the new last
    vertex from below (adds the star of n in bottom(n, d))."""
    n = t.n + 1
    star = [s for s in bottom(n, t.d) if s[-1] == n]
    return Triangulation(n, t.d, set(t.simplices) | set(star))


def insert_top(t):
    """Extend to C(n, d) by pushing the old last vertex's star up to the new
    vertex and capping with the top star of {n-1, n}."""
    n = t.n + 1
    d = t.d
    out = set()
    for s in t:
        if n - 1 in s:
            out.add(tuple(sorted(set(s) - {n - 1} | {n})))
        else:
            out.add(s)
    for s in top(n, d):
        if n - 1 in s and n in s:
            out.add(s)
    return Triangulation(n, d, out)


def terminal_simplex(n, d):
    """The last d+1 labels {n-d, ..., n}."""
    return tuple(range(n - d, n + 1))


GREEN = "green"
RED = "red"


def color(t):
    """Two-coloring by membership of the terminal simplex: green iff the
    parity of d and the membership disagree in the fixed pattern (even d:
    green = absent; odd d: green = present)."""
    s0 = terminal_simplex(t.n, t.d)
    present = s0 in t
    if t.d % 2 == 0:
        return GREEN if not present else RED
    return GREEN if present else RED


# ---------------------------------------------------------------------------
# Submersion sets.

def _middle(d):
    """The middle dimension ceil(d/2) at which the height order compares
    submersion sets."""
    return (d + 1) // 2


def _intertwining_masks(n, d):
    """Middle cells of [n] and, for each (floor(d/2)+1)-subset B, the bitmask
    of the cells B denies.

    With k = floor(d/2), B denies the cell s iff b0<s0<b1<...<bk<sk for even
    d, and iff s0<b0<s1<...<bk<s(k+1) for odd d (Oppermann-Thomas 2012;
    Williams 2023).  The denied cells are enumerated directly: each s_j
    ranges over the open gap between its two neighbouring b's.
    """
    key = (n, d)
    got = _intertwining_cache.get(key)
    if got is None:
        cells = list(combinations(range(1, n + 1), _middle(d) + 1))
        index = {c: j for j, c in enumerate(cells)}
        masks = {}
        for b in combinations(range(1, n + 1), d // 2 + 1):
            walls = (b if d % 2 == 0 else (0,) + b) + (n + 1,)
            m = 0
            for s in product(*(range(lo + 1, hi) for lo, hi in zip(walls, walls[1:]))):
                m |= 1 << index[s]
            masks[b] = m
        got = (cells, masks)
        _intertwining_cache[key] = got
    return got


def submersion_mask(t):
    """Bitmask over the middle cells of [n] (the (ceil(d/2)+1)-subsets, in
    lexicographic order) marking those submerged under t: the cells no
    (floor(d/2)+1)-vertex face of t denies."""
    cells, masks = _intertwining_masks(t.n, t.d)
    faces = set()
    for s in t:
        faces.update(combinations(s, t.d // 2 + 1))
    deny = 0
    for b in faces:
        deny |= masks[b]
    return ((1 << len(cells)) - 1) & ~deny


def submersion_set(t, i):
    """The i-simplices whose lifts lie weakly under the section of t: by the
    intertwining rule at the middle dimension, by exact LPs otherwise."""
    n, d = t.n, t.d
    if not 0 <= i <= d:
        raise ValueError("submersion dimension out of range")
    if i == _middle(d):
        cells, _ = _intertwining_masks(n, d)
        m = submersion_mask(t)
        return frozenset(c for j, c in enumerate(cells) if (m >> j) & 1)
    cells = combinations(range(1, n + 1), i + 1)
    return frozenset(c for c in cells if geometry.submerged(c, t.simplices, d))
