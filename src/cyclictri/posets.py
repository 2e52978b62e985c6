"""Finite posets over canonical string keys, and the two triangulation
orders: the flip order (transitive closure of single upward flips) and the
height order (containment of submersion sets at the middle dimension).

Relations are stored as per-element up-set bitmasks (python ints), which
makes closure, reduction, meets/joins and relation comparison cheap at the
scale this package targets (a few thousand elements).
"""

import json
import os
from collections import deque
from itertools import combinations

from . import triangulations as tri
from .simplices import bits
from .triangulations import DEFAULT_ENUM_CAP, ResourceBudgetError


def _enum_cap(cap):
    if cap is not None:
        return cap
    env = os.environ.get("CYCLICTRI_ENUM_CAP")
    return int(env) if env else DEFAULT_ENUM_CAP


class FinitePoset:
    """Elements (hashable canonical keys) plus reflexive partial order.

    up[i] is the bitmask of j with element_i <= element_j; down is the
    transpose.  Construction verifies reflexivity, antisymmetry and
    transitivity outright.
    """

    def __init__(self, elements, up, check=True):
        self.elements = tuple(elements)
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise ValueError("repeated element key")
        self.up = list(up)
        if len(self.up) != n:
            raise ValueError("relation size mismatch")
        self.index = {e: i for i, e in enumerate(self.elements)}
        if check:
            for i in range(n):
                if not (self.up[i] >> i) & 1:
                    raise ValueError("not reflexive at %r" % (self.elements[i],))
            for i in range(n):
                for j in bits(self.up[i]):
                    if j != i and (self.up[j] >> i) & 1:
                        raise ValueError("not antisymmetric: %r, %r" %
                                         (self.elements[i], self.elements[j]))
                    if self.up[j] & ~self.up[i]:
                        raise ValueError("not transitive at %r <= %r" %
                                         (self.elements[i], self.elements[j]))
        self.down = [0] * n
        for i in range(n):
            for j in bits(self.up[i]):
                self.down[j] |= 1 << i
        self._covers = None
        self._topo = None
        self.data = {}

    def __len__(self):
        return len(self.elements)

    def le(self, i, j):
        return (self.up[i] >> j) & 1 == 1

    def le_keys(self, a, b):
        return self.le(self.index[a], self.index[b])

    @staticmethod
    def from_edges(elements, edges, check=True):
        """Reflexive-transitive closure of a step relation given as index
        pairs (i, j) meaning element_i < element_j."""
        n = len(elements)
        succ = [0] * n
        indeg = [0] * n
        for i, j in edges:
            if not (succ[i] >> j) & 1:
                succ[i] |= 1 << j
                indeg[j] += 1
        order = [i for i in range(n) if indeg[i] == 0]
        q = deque(order)
        seen = len(order)
        order = list(order)
        indeg2 = list(indeg)
        while q:
            i = q.popleft()
            for j in bits(succ[i]):
                indeg2[j] -= 1
                if indeg2[j] == 0:
                    q.append(j)
                    order.append(j)
                    seen += 1
        if seen != n:
            raise ValueError("step relation has a cycle")
        up = [0] * n
        for i in reversed(order):
            m = 1 << i
            for j in bits(succ[i]):
                m |= up[j]
            up[i] = m
        return FinitePoset(elements, up, check=check)

    def topo_order(self):
        """Indices in some linear extension."""
        if self._topo is None:
            self._topo = sorted(range(len(self.elements)),
                                key=lambda i: bin(self.up[i]).count("1"),
                                reverse=True)
        return self._topo

    def covers(self):
        """Transitive reduction as a sorted list of index pairs (i covered by j)."""
        if self._covers is None:
            n = len(self.elements)
            out = []
            for i in range(n):
                strict = self.up[i] & ~(1 << i)
                reach = 0
                for j in bits(strict):
                    reach |= self.up[j] & ~(1 << j)
                out.extend((i, j) for j in bits(strict & ~reach))
            self._covers = sorted(out)
        return self._covers

    def bottom(self):
        full = (1 << len(self.elements)) - 1
        mins = [i for i in range(len(self.elements)) if self.up[i] == full]
        return mins[0] if len(mins) == 1 else None

    def top(self):
        full = (1 << len(self.elements)) - 1
        maxs = [i for i in range(len(self.elements)) if self.down[i] == full]
        return maxs[0] if len(maxs) == 1 else None

    def is_bounded(self):
        return self.bottom() is not None and self.top() is not None

    def restrict(self, keep):
        """Induced subposet on the given element indices (order preserved)."""
        keep = sorted(keep)
        pos = {i: k for k, i in enumerate(keep)}
        up = []
        for i in keep:
            m = self.up[i]
            r = 0
            for j in keep:
                if (m >> j) & 1:
                    r |= 1 << pos[j]
            up.append(r)
        sub = FinitePoset([self.elements[i] for i in keep], up, check=False)
        for i in keep:
            k = self.elements[i]
            if k in self.data:
                sub.data[k] = self.data[k]
        return sub

    def proper_part(self):
        """Strip the global bottom and top (both must exist)."""
        b, t = self.bottom(), self.top()
        if b is None or t is None:
            raise ValueError("poset is not bounded")
        return self.restrict([i for i in range(len(self.elements)) if i not in (b, t)])

    def meet(self, i, j):
        """Index of the meet, or None if it does not exist."""
        lows = self.down[i] & self.down[j]
        for k in bits(lows):
            if lows & ~self.down[k] == 0:
                return k
        return None

    def join(self, i, j):
        ups = self.up[i] & self.up[j]
        for k in bits(ups):
            if ups & ~self.up[k] == 0:
                return k
        return None

    def topo_masks(self):
        """Down-sets and up-sets re-indexed by position in topo_order():
        (pos, down_t, up_t) with pos[i] the position of element i and
        down_t[pos[i]], up_t[pos[i]] its down-set and up-set as position
        masks.  Whatever lies strictly above an element sits at a higher
        position, so the only candidate for the maximum of a position mask
        is its top set bit, and for the minimum its bottom set bit."""
        n = len(self.elements)
        pos = [0] * n
        for p, i in enumerate(self.topo_order()):
            pos[i] = p
        down_t = [0] * n
        up_t = [0] * n
        for i in range(n):
            for j in bits(self.down[i]):
                down_t[pos[i]] |= 1 << pos[j]
            for j in bits(self.up[i]):
                up_t[pos[i]] |= 1 << pos[j]
        return pos, down_t, up_t

    def is_lattice(self):
        """True, or a witness dict naming the first pair lacking a meet or
        a join."""
        n = len(self.elements)
        # a common down-set (up-set) has a unique maximum (minimum) iff its
        # top (bottom) set bit in topo coordinates dominates the rest
        pos, down_t, up_t = self.topo_masks()
        for i in range(n):
            di = down_t[pos[i]]
            ui = up_t[pos[i]]
            for j in range(i + 1, n):
                lows = di & down_t[pos[j]]
                if not lows or lows & ~down_t[lows.bit_length() - 1]:
                    return {"pair": (self.elements[i], self.elements[j]),
                            "missing": "meet"}
                ups = ui & up_t[pos[j]]
                if not ups or ups & ~up_t[(ups & -ups).bit_length() - 1]:
                    return {"pair": (self.elements[i], self.elements[j]),
                            "missing": "join"}
        return True

    def mobius(self, i, j):
        """Mobius function of the interval [i, j]."""
        if not self.le(i, j):
            raise ValueError("mobius needs i <= j")
        interval = self.up[i] & self.down[j]
        mu = {i: 1}
        elems = [k for k in self.topo_order() if (interval >> k) & 1]
        for k in elems:
            if k == i:
                continue
            mu[k] = -sum(mu[w] for w in bits(interval & self.down[k] & ~(1 << k)))
        return mu[j]

    def mobius_bottom_top(self):
        b, t = self.bottom(), self.top()
        if b is None or t is None:
            raise ValueError("poset is not bounded")
        if b == t:
            return 1
        return self.mobius(b, t)

    def adjoin_bounds(self):
        """Add fresh global bottom/top elements (for Hall-style checks)."""
        n = len(self.elements)
        bot, topk = "_bottom_", "_top_"
        while bot in self.index:
            bot += "_"
        while topk in self.index:
            topk += "_"
        elements = [bot] + list(self.elements) + [topk]
        full = (1 << (n + 2)) - 1
        tbit = 1 << (n + 1)
        up = [full]
        for i in range(n):
            up.append((self.up[i] << 1) | tbit)
        up.append(tbit)
        return FinitePoset(elements, up, check=False)

    def to_json(self):
        return json.dumps({"elements": [str(e) for e in self.elements],
                           "covers": [[i, j] for i, j in self.covers()]},
                          separators=(",", ":"))

    def to_dot(self, name="poset"):
        lines = ["digraph %s {" % name]
        for i, e in enumerate(self.elements):
            lines.append('  n%d [label="%s"];' % (i, _dot_escape(str(e))))
        for i, j in self.covers():
            lines.append("  n%d -> n%d;" % (i, j))
        lines.append("}")
        return "\n".join(lines) + "\n"


def _dot_escape(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')


# ---------------------------------------------------------------------------
# Enumeration and the two orders.

_enum_cache = {}
_s1_cache = {}
_s2_cache = {}


def enumerate_triangulations(n, d, cap=None):
    """All triangulations of C(n, d), by breadth-first search along upward
    flips from the bottom element.  Every result is validated.  Returns a
    list sorted by canonical key; also records the flip step edges."""
    key = (n, d)
    got = _enum_cache.get(key)
    cap = _enum_cap(cap)
    if got is None:
        tab = tri.table(n, d)
        start = tab.mask(tab.bottom.simplices)
        seen = {start: 0}
        masks = [start]
        edges = []
        for i, t in enumerate(masks):   # masks grows: the BFS queue
            for cand, low, up in tab.flips(t):
                nxt = (t ^ low) | up
                j = seen.get(nxt)
                if j is None:
                    if len(seen) >= cap:
                        raise ResourceBudgetError(
                            "enumeration cap %d exceeded at C(%d, %d)" % (cap, n, d))
                    j = seen[nxt] = len(masks)
                    masks.append(nxt)
                edges.append((i, j, cand))
        ts = [tab.triangulation(t) for t in masks]
        for t in ts:
            v = tri.validate(t, n, d)
            if v is not None:
                raise AssertionError("enumerated an invalid triangulation: %s" % (v,))
        if tab.mask(tab.top.simplices) not in seen:
            raise AssertionError("flip search failed to reach the top element")
        order = sorted(range(len(ts)), key=lambda i: ts[i].key())
        rank = [0] * len(order)
        for r, i in enumerate(order):
            rank[i] = r
        got = ([ts[i] for i in order],
               [(rank[i], rank[j], cand) for i, j, cand in edges])
        _enum_cache[key] = got
    elif len(got[0]) > cap:
        raise ResourceBudgetError(
            "enumeration cap %d exceeded at C(%d, %d)" % (cap, n, d))
    return got[0]


def flip_step_edges(n, d, cap=None):
    """Single-flip steps (i, j, flip_simplex), one per flip found by
    enumeration: element i of enumerate_triangulations(n, d) flips up to
    element j."""
    enumerate_triangulations(n, d, cap)
    return _enum_cache[(n, d)][1]


def build_s1(n, d, cap=None):
    """Flip order: reflexive-transitive closure of single upward flips."""
    key = (n, d)
    p = _s1_cache.get(key)
    if p is None:
        ts = enumerate_triangulations(n, d, cap)
        edges = [(i, j) for i, j, _ in flip_step_edges(n, d, cap)]
        p = FinitePoset.from_edges([t.key() for t in ts], edges, check=False)
        for t in ts:
            p.data[t.key()] = t
        if p.bottom() != p.index[tri.bottom(n, d).key()] or \
                p.top() != p.index[tri.top(n, d).key()]:
            raise AssertionError("flip order is not bounded by bottom/top")
        _s1_cache[key] = p
    return p


def build_s2(n, d, cap=None):
    """Height order: t <= t' iff the middle-dimension submersion set of t is
    contained in that of t'."""
    key = (n, d)
    p = _s2_cache.get(key)
    if p is None:
        ts = enumerate_triangulations(n, d, cap)
        masks = [tri.submersion_mask(t) for t in ts]
        m = len(ts)
        up = []
        for i in range(m):
            mi = masks[i]
            row = 0
            for j in range(m):
                if mi & ~masks[j] == 0:
                    row |= 1 << j
            up.append(row)
        p = FinitePoset([t.key() for t in ts], up)
        for t in ts:
            p.data[t.key()] = t
        idx = p.index
        if p.bottom() != idx[tri.bottom(n, d).key()] or \
                p.top() != idx[tri.top(n, d).key()]:
            raise AssertionError("height order is not bounded by bottom/top")
        _s2_cache[key] = p
    return p


def compare_relations(p, q):
    """None if the two posets are the same relation on the same keys, else a
    dict naming the first divergent ordered pair."""
    if sorted(p.elements) != sorted(q.elements):
        raise ValueError("posets have different element sets")
    perm = [q.index[e] for e in p.elements]
    for i, e in enumerate(p.elements):
        m = p.up[i]
        qa = q.up[perm[i]]
        for j in range(len(p.elements)):
            pin = (m >> j) & 1
            qin = (qa >> perm[j]) & 1
            if pin != qin:
                return {"pair": (e, p.elements[j]),
                        "in_first": bool(pin), "in_second": bool(qin)}
    return None


def flip_cover_discrepancies(n, d, cap=None):
    """Flip edges that are not cover relations of the flip order (empty in
    every verified instance; reported, never assumed)."""
    cov = set(build_s1(n, d, cap).covers())
    ts = enumerate_triangulations(n, d, cap)
    return [(ts[i].key(), ts[j].key(), cand)
            for i, j, cand in flip_step_edges(n, d, cap) if (i, j) not in cov]


def interval_poset(p, variant="all"):
    """Poset of intervals [x, y] of p ordered by inclusion.

    variant: all | proper | proper_atomic | proper_coatomic.  The atomic and
    coatomic variants need p to be a lattice (meets and joins are used).
    """
    if variant not in ("all", "proper", "proper_atomic", "proper_coatomic"):
        raise ValueError("unknown interval variant %r" % (variant,))
    n = len(p.elements)
    b, t = p.bottom(), p.top()
    if variant != "all" and (b is None or t is None):
        raise ValueError("proper variants need a bounded poset")
    if variant in ("proper_atomic", "proper_coatomic"):
        w = p.is_lattice()
        if w is not True:
            raise ValueError("atomic/coatomic intervals need a lattice: %r" % (w,))
    pairs = []
    for i in range(n):
        pairs.extend((i, j) for j in bits(p.up[i]))
    if variant != "all":
        pairs = [(i, j) for i, j in pairs if not (i == b and j == t)]
    if variant == "proper_atomic":
        pairs = [ij for ij in pairs if _interval_atomic(p, *ij)]
    elif variant == "proper_coatomic":
        pairs = [ij for ij in pairs if _interval_coatomic(p, *ij)]
    pairs.sort(key=lambda ij: (str(p.elements[ij[0]]), str(p.elements[ij[1]])))
    keys = [json.dumps([str(p.elements[i]), str(p.elements[j])],
                       separators=(",", ":")) for i, j in pairs]
    up = []
    for a, (i, j) in enumerate(pairs):
        row = 0
        for c, (k, l) in enumerate(pairs):
            # [i,j] <= [k,l] iff k <= i and j <= l
            if p.le(k, i) and p.le(j, l):
                row |= 1 << c
        up.append(row)
    q = FinitePoset(keys, up, check=False)
    for key, ij in zip(keys, pairs):
        q.data[key] = ij
    return q


def _interval_covers_of_bottom(p, i, j):
    inner = p.up[i] & p.down[j]
    atoms = []
    for k in bits(inner & ~(1 << i)):
        between = p.up[i] & p.down[k] & ~(1 << i) & ~(1 << k)
        if between & inner == 0:
            atoms.append(k)
    return atoms


def _interval_atomic(p, i, j):
    atoms = _interval_covers_of_bottom(p, i, j)
    cur = None
    for a in atoms:
        cur = a if cur is None else p.join(cur, a)
        if cur is None:
            return False
    return (cur if cur is not None else i) == j


def _interval_coatomic(p, i, j):
    coatoms = []
    inner = p.up[i] & p.down[j]
    for k in bits(inner & ~(1 << j)):
        between = p.up[k] & p.down[j] & ~(1 << k) & ~(1 << j)
        if between & inner == 0:
            coatoms.append(k)
    cur = None
    for c in coatoms:
        cur = c if cur is None else p.meet(cur, c)
        if cur is None:
            return False
    return (cur if cur is not None else j) == i


def boolean_lattice(k):
    """Subsets of {1..k} by inclusion; keys are sorted-subset strings."""
    subs = []
    for r in range(k + 1):
        subs.extend(combinations(range(1, k + 1), r))
    subs.sort(key=lambda s: (len(s), s))
    keys = ["{" + ",".join(map(str, s)) + "}" for s in subs]
    up = []
    for a, s in enumerate(subs):
        row = 0
        for b, t in enumerate(subs):
            if set(s) <= set(t):
                row |= 1 << b
        up.append(row)
    p = FinitePoset(keys, up, check=False)
    for key, s in zip(keys, subs):
        p.data[key] = frozenset(s)
    return p


def clear_caches():
    _enum_cache.clear()
    _s1_cache.clear()
    _s2_cache.clear()
