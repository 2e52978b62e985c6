"""Polytopal subdivisions of a cyclic polytope (d <= 3), the map from a
subdivision to the interval of triangulations refining it, the inverse
construction from coatomic intervals, and the refinement poset.

Cells are vertex subsets, checked and compared as vertex masks (bit v for
label v); a subdivision is valid when cells are large enough, pairwise meet
in a common face (combinatorially: their shared vertex mask is in each
cell's set of face masks, the subsets of its facets, as cells are
simplicial), the glued bottom triangulations of the cells form a
triangulation of the whole polytope, and cell volumes sum to the hull
volume.  Together these force the cell hulls to meet face to face.  The
cell walk's round trip from a coatomic interval is end-mask equality: the
glued cell bottoms and tops must be the interval's two ends.  The
polygon-dissection oracle and the pairwise refinement test the tests check
against are in `oracles`.
"""

import json
from collections import namedtuple
from functools import reduce
from itertools import combinations

from . import simplices, triangulations as tri
from .posets import build_s2, interval_poset


class Subdivision:
    """Cells of a polytopal subdivision of C(n, d), canonically sorted."""

    __slots__ = ("n", "d", "cells")

    def __init__(self, n, d, cells):
        self.n = n
        self.d = d
        try:
            self.cells = tuple(sorted(tuple(sorted(set(c))) for c in cells))
        except TypeError:   # labels that do not sort: only then are they checked
            for c in cells:
                if not all(isinstance(v, int) for v in c):
                    raise ValueError("labels must be positive integers: %r" % (tuple(c),))
            raise

    def key(self):
        return json.dumps({"n": self.n, "d": self.d,
                           "cells": [list(c) for c in self.cells]},
                          separators=(",", ":"))

    @staticmethod
    def from_json(text):
        doc = json.loads(text)
        return Subdivision(doc["n"], doc["d"], doc["cells"])

    def is_proper(self):
        return self.cells != (tuple(range(1, self.n + 1)),)

    def __eq__(self, other):
        return isinstance(other, Subdivision) and \
            (self.n, self.d, self.cells) == (other.n, other.d, other.cells)

    def __hash__(self):
        return hash((self.n, self.d, self.cells))

    def __repr__(self):
        return "Subdivision(%d, %d, %s)" % (self.n, self.d, list(self.cells))


def _relabel(t, labels):
    return tuple(tuple(labels[i - 1] for i in s) for s in t)


def cell_bottom(labels, d):
    """Bottom triangulation of the cyclic subpolytope on the given labels."""
    labels = sorted(labels)
    return _relabel(tri.bottom(len(labels), d).simplices, labels)


def cell_top(labels, d):
    labels = sorted(labels)
    return _relabel(tri.top(len(labels), d).simplices, labels)


_Cell = namedtuple("_Cell", "mask faces bottom top volume")


def _cell(c, tab, memo):
    """A cell's vertex mask, the set of vertex masks of the faces of its
    subpolytope (simplicial, so every subset of a facet, the empty face
    included: at most 2^d per facet), the table masks of its bottom and top
    triangulations and its volume: built once per cell, in memo.  Before
    listing faces, raises ResourceBudgetError (size_guard) when the facets
    times 2^d exceed DEFAULT_ENUM_CAP."""
    got = memo.get(c)
    if got is None:
        d = tab.d
        facets = simplices.gale_facets(len(c), d)
        count = len(facets) << d
        if count > tri.DEFAULT_ENUM_CAP:
            raise tri.ResourceBudgetError(
                "cell %s: %d facets x 2^%d faces exceed the size bound %d"
                % (c, len(facets), d, tri.DEFAULT_ENUM_CAP),
                "size_guard", tri.DEFAULT_ENUM_CAP, count, "C(%d, %d)" % (len(c), d))
        bottom = tab.mask(cell_bottom(c, d))
        got = memo[c] = _Cell(
            sum(1 << v for v in c),
            {sum(1 << c[i - 1] for i in s) for f in facets
             for k in range(d + 1) for s in combinations(f, k)},
            bottom, tab.mask(cell_top(c, d)),
            tab._accumulate(bottom)[1])
    return got


def validate_subdivision(cells, n, d):
    """None when the cells form a polytopal subdivision of C(n, d), else the
    first violation found."""
    return _checked_subdivision(cells, n, d, {})[0]


def _checked_subdivision(cells, n, d, memo):
    """(violation, low, high): validate_subdivision's verdict, and the table
    masks of the glued cell bottoms and tops once the checks reach them
    (else None).  memo holds the _cell data of the cells seen so far."""
    canonical = isinstance(cells, Subdivision)
    if canonical:
        if (cells.n, cells.d) != (n, d):
            return tri.Violation("shape", cells, "ambient (n, d) mismatch"), None, None
        cells = cells.cells
    cells = list(map(tuple, cells))
    for c in cells:     # before sorting: mixed labels do not sort; memo's cells passed
        if c not in memo and not all(isinstance(v, int) for v in c):
            return tri.Violation("shape", c, "labels must be positive integers: %r"
                                 % (c,)), None, None
    if not canonical:
        cells = [tuple(sorted(c)) for c in cells]
    if not cells:
        return tri.Violation("shape", (), "no cells"), None, None
    if len(set(cells)) != len(cells):
        return tri.Violation("shape", cells, "repeated cell"), None, None
    for c in cells:
        if len(set(c)) != len(c) or len(c) < d + 1:
            return tri.Violation("cell-size", c, "cell needs at least %d distinct "
                                 "vertices" % (d + 1)), None, None
        if c[0] < 1 or c[-1] > n:
            return tri.Violation("cell-size", c, "vertex label out of range"), None, None
    tab = tri.table(n, d)
    data = [_cell(c, tab, memo) for c in cells]
    for a, b in combinations(range(len(cells)), 2):
        ma, mb = data[a].mask, data[b].mask
        if not ma & ~mb or not mb & ~ma:
            return tri.Violation("nesting", (cells[a], cells[b]),
                                 "one cell contains another"), None, None
        w = ma & mb
        for k in (a, b):
            if w not in data[k].faces:
                return tri.Violation(
                    "face-to-face", (cells[a], cells[b]),
                    "shared vertices do not span a face of cell %s" % (cells[k],)), None, None
    low = high = 0
    for cell in data:
        low |= cell.bottom
        high |= cell.top
    v = tab.violation(low)
    if v is not None:
        return tri.Violation("refinement", v.witness,
                             "glued cell triangulations fail: %s" % v.message), low, high
    total = sum(cell.volume for cell in data)
    if total != tab.hull:
        return tri.Violation("coverage", cells,
                             "cell volumes sum to %d, hull needs %d" %
                             (total, tab.hull)), low, high
    return None, low, high


def make_subdivision(n, d, cells):
    v = validate_subdivision(cells, n, d)
    if v is not None:
        raise ValueError("invalid subdivision: %s (%s)" % (v.message, v.rule))
    return Subdivision(n, d, cells)


def phi(delta):
    """The interval [T, T'] of triangulations refining the subdivision:
    T glues cell bottoms, T' glues cell tops.  Requires a proper subdivision
    of dimension at most 3."""
    if delta.d > 3:
        raise ValueError("interval map implemented for d <= 3 only")
    v, low, high = _checked_subdivision(delta, delta.n, delta.d, {})
    if v is not None:
        raise ValueError("invalid subdivision: %s" % (v.message,))
    if not delta.is_proper():
        raise ValueError("trivial subdivision maps to the improper interval")
    tab = tri.table(delta.n, delta.d)
    # the check has just validated the glued bottoms
    t_low = tab.triangulation(low)
    v = tab.violation(high)
    if v is not None:
        raise ValueError("invalid triangulation (%s): %s" % (v.rule, v.message))
    t_high = tab.triangulation(high)
    if tri.submersion_mask(t_low) & ~tri.submersion_mask(t_high):
        raise AssertionError("glued bottom is not below glued top")
    if low == tab.bottom.mask and high == tab.top.mask:
        raise AssertionError("proper subdivision mapped to the improper interval")
    return t_low, t_high


def interval_to_subdivision(t_low, t_high, s2=None):
    """Recover the subdivision whose refinements are exactly [t_low, t_high].

    Rejects endpoints off S2 or unordered, the improper interval and
    non-coatomic intervals (which no subdivision gives), then runs
    baues_poset's cell walk."""
    n, d = t_high.n, t_high.d
    if d > 3:
        raise ValueError("interval map implemented for d <= 3 only")
    if (t_low.n, t_low.d) != (n, d):
        raise ValueError("interval endpoints on different polytopes")
    if s2 is None:
        s2 = build_s2(n, d)
    i, j = s2.index.get(t_low.key()), s2.index.get(t_high.key())
    if i is None or j is None:
        raise ValueError("interval endpoint is not a triangulation of C(%d, %d)" % (n, d))
    if not s2.le(i, j):
        raise ValueError("endpoints are not ordered")
    if i == s2.bottom() and j == s2.top():
        raise ValueError("improper interval")
    if not s2.is_coatomic(i, j):
        raise ValueError("interval is not coatomic")
    return _cells_of_interval(t_low, t_high, {})


def _cells_of_interval(t_low, t_high, memo):
    """The subdivision of the proper coatomic interval [t_low, t_high] of
    S2, checked by end-mask equality (memo as for _checked_subdivision), as
    t_low and t_high are valid, ordered and not both ends.  Its cells join
    t_high's members across the walls t_low lacks: t_low's walls are the OR
    of its members' facet masks (the met sum of _accumulate), a member of
    both ends has all its facets among them and is a cell alone, the other
    members merge when their masks of walls outside t_low meet, and a cell
    is the union of their labels."""
    n, d = t_high.n, t_high.d
    tab = tri.table(n, d)
    walls = tab._accumulate(t_low.mask)[3]
    cells = [set(tab.simplices[k]) for k in simplices.bits(t_low.mask & t_high.mask)]
    comps = []      # (walls outside t_low, labels) of each component so far
    for k in simplices.bits(t_high.mask & ~t_low.mask):
        beside = tab._accumulate(1 << k)[3] & ~walls
        labels = set(tab.simplices[k])
        joined = [comp for comp in comps if comp[0] & beside]
        comps = [comp for comp in comps if not comp[0] & beside]
        for w, other in joined:
            beside |= w
            labels |= other
        comps.append((beside, labels))
    cells += [labels for _, labels in comps]
    if d == 1:
        # triangulations of a segment may skip interior vertices, so cells
        # must pick up the vertices the fine end uses inside each span
        used = [v for v in range(1, n + 1) if t_low.mask & tab.holders[v]]
        cells = [c.union(v for v in used if min(c) < v < max(c)) for c in cells]
    delta = Subdivision(n, d, cells)
    v, low, high = _checked_subdivision(delta, n, d, memo)
    if v is not None or (low, high) != (t_low.mask, t_high.mask):
        back = v or tuple(map(tab.triangulation, (low, high)))
        raise AssertionError("interval does not come from a subdivision: "
                             "round trip gave %s" % (back,))
    return delta


def baues_poset(n, d, cap=None):
    """Proper polytopal subdivisions of C(n, d), ordered by refinement.

    One subdivision per proper coatomic interval of the height order, by
    the cell walk at the interval's ends; each subdivision takes the
    position of its interval.  The refinement row of a subdivision is the
    AND, over its cells, of the mask of subdivisions having a cell that
    contains that cell, and must equal its row of interval inclusion.
    """
    if d > 3:
        raise ValueError("subdivision poset implemented for d <= 3 only")
    s2 = build_s2(n, d, cap)
    coat = interval_poset(s2, "proper_coatomic")
    ts = list(s2.data)
    memo = {}
    deltas = [_cells_of_interval(ts[i], ts[j], memo) for i, j in coat.data]
    keys = [delta.key() for delta in deltas]
    if len(set(keys)) != len(keys):
        raise AssertionError("interval map is not injective")
    # cells as vertex masks; has[c]: the positions of the subdivisions with
    # cell c, inside[c]: those with a cell containing c
    cells = [[memo[c].mask for c in delta.cells] for delta in deltas]
    has = {}
    for x, row in enumerate(cells):
        for c in row:
            has[c] = has.get(c, 0) | 1 << x
    inside = {c: 0 for c in has}
    for c in inside:
        for big, where in has.items():
            if c & ~big == 0:
                inside[c] |= where
    p = coat.relabel(keys, deltas, sorted(range(len(keys)), key=keys.__getitem__))
    w = p.first_pair(lambda x: p.up[x] ^ reduce(int.__and__, map(inside.get, cells[x])))
    if w is not None:
        raise AssertionError("refinement disagrees with interval inclusion: "
                             "%s vs %s" % (keys[w[0]], keys[w[1]]))
    return p


def interval_product_check(n, d, cap=None):
    """Each subdivision's interval should factor as the product of the cell
    posets: compare element counts and Mobius values multiplicatively."""
    s2 = build_s2(n, d, cap)
    p = baues_poset(n, d, cap)
    tab = tri.table(n, d)
    bad = []
    memo = {}
    factors = {}     # cell size -> (size, mu(bottom, top)) of its height order
    for m in sorted({len(c) for delta in p.data for c in delta.cells}):
        sub = build_s2(m, d, cap)
        factors[m] = len(sub.elements), sub.mobius_bottom_top()
    for key, delta in zip(p.elements, p.data):
        # baues_poset has validated delta; its interval's ends glue its
        # cells' bottoms and tops
        low = high = 0
        want_size = want_mu = 1
        for c in delta.cells:
            cell = _cell(c, tab, memo)
            low, high = low | cell.bottom, high | cell.top
            want_size *= factors[len(c)][0]
            want_mu *= factors[len(c)][1]
        i, j = s2.index[tab.key(low)], s2.index[tab.key(high)]
        size = (s2.up[i] & s2.down[j]).bit_count()
        mu = s2.mobius(i, j)
        if size != want_size or mu != want_mu:
            bad.append({"subdivision": key, "size": (size, want_size),
                        "mobius": (mu, want_mu)})
    return bad
