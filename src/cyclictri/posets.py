"""Finite posets over canonical string keys, and the two triangulation
orders: the flip order (transitive closure of single upward flips) and the
height order (containment of submersion sets at the middle dimension).

A poset is stored once, in one coordinate system: the positions of a linear
extension, with the up-set and the down-set of each element as int bitmasks.
A down-set is a mask over positions; an up-set is stored from its element's
own position, bit k of the row of x standing for position x + k, so the row
of x spans n - x positions and not n, and a dense order's rows take about
n^2/8 bytes instead of 3n^2/16.  Only this module reads that storage:
closure, covers, meets and joins, coatomic intervals, restriction, the
beat-point core and the Mobius function read the stored rows directly (the
top set bit of a down-set is the only candidate for its maximum, the lowest
bit of an up-set for its minimum).  Keys are mapped to their own order, the
sorted order for S1 and S2, only in exports (covers) and witnesses (first_pair).
Masks built from masks have one rule each: an OR of images (_image) for
interval rows, bulk meets and joins, and one run rule for restricted rows.

The lattice verdict on a bounded poset is one join test per pair of upper
covers of a common element (Bjorner-Edelman-Ziegler 1990, Lemma 2.1); a
refutation is first_pair's on the masks of the positions lacking a meet or
a join, with the small side of each row, meets or joins, settled in bulk.
Enumeration walks the members of each flip-search
mask once, for its flips, its validation and its compact bytes sort key, and
keeps one record: the masks, sorted in key order by those keys, and the flip
edges in flat arrays that the S1 closure reads, and S2 reads its submersion
masks off the masks.
A Triangulation is its mask, wrapped when it is read, and a key string is
built from the mask when it is read: a poset on C(n, d), its proper part,
its restrictions and its interval posets name their elements through the
one positional view (_Record), which also reads the flip edges off the
record and a poset's up-sets and a proper part's rows off the stored rows,
so none of them holds a key string, a Triangulation or a row of its own,
and index, key -> position, is a dict built from the keys on first read.
"""

import json
from array import array
from collections.abc import Sequence
from functools import cached_property
from itertools import accumulate, combinations

from . import simplices, triangulations as tri
from .simplices import _image, bits
from .triangulations import DEFAULT_ENUM_CAP, ResourceBudgetError


class FinitePoset:
    """A finite partial order on hashable keys, stored once, in the
    positions of a linear extension: x < y in the order implies x < y as
    positions.

    elements[x] is the key at position x and index maps keys back; data[x]
    is the payload of position x (a Triangulation, an interval's ends, a
    subdivision), data a read-only sequence like elements, or None where
    the elements carry none.  down[x]
    is the mask of the positions below x, and up[x] of those above x, both
    including x, so no bit of up[x] lies below bit x and no bit of down[x]
    above it.  The up-sets are stored from their own positions, bit k of
    _up[x] standing for position x + k (up[x] == _up[x] << x); up is the
    positional view (_Record) of that storage shifted on each read, and the
    poset's own code reads _up.  The keys also have an order of their own,
    the order they were given in (sorted keys for S1 and S2): by_key lists
    the positions in key order and rank[x] is the key-order index of
    position x, both array('I').  Exports (to_json, to_dot, covers) and
    every witness use key order; nothing else does.
    """

    def __init__(self, elements, up):
        """Poset from up-set rows in key order: bit j of up[i] says
        elements[i] <= elements[j].  The rows become step edges of the
        closure from_edges takes; they are a partial order iff they are
        reflexive, the steps have no cycle and the closure adds nothing to
        any row."""
        elements = tuple(elements)
        n = len(elements)
        if len(up) != n:
            raise ValueError("relation size mismatch")
        for i in range(n):
            if up[i] >> n:
                raise ValueError("relation size mismatch")
            if not (up[i] >> i) & 1:
                raise ValueError("not reflexive at %r" % (elements[i],))
        order, rows, down, by_key = _closure(n, *_edge_arrays(
            (i, j) for i in range(n) for j in bits(up[i] & ~(1 << i))))
        self._fill([elements[i] for i in order], None, by_key, rows, down)
        for i, x in enumerate(self.by_key):
            if self._up[x].bit_count() != up[i].bit_count():
                raise ValueError("not transitive at %r" % (elements[i],))

    def _fill(self, elements, data, by_key, up, down, first=0):
        """Keys, data, key order and rows: elements and data by position
        (data None where the elements carry none), by_key the positions in
        key order.  elements may be an enumeration (the record
        enumerate_triangulations returns) whose triangulations are the
        elements in key order, or a _Record (the keys of a poset on one,
        from restrict or proper_part, data its triangulations, or an
        interval poset's keys): elements, and data where it is a _Record,
        are then kept as read-only views, each key built when it is read.
        Plain keys must be distinct.  Row x is read from the lists up (each
        stored from its own position) and down at first + x: first = 0 for
        own rows, 1 for a proper part, whose reads drop the bits outside."""
        self.by_key = array("I", by_key)
        self.rank = array("I", [0]) * len(self.by_key)
        for r, x in enumerate(self.by_key):
            self.rank[x] = r
        self._covers = None
        if isinstance(elements, _Enumeration):   # key order is the record's
            enum = elements
            elements = _Record(enum, self.rank, enum.key)
            data = _Record(enum, self.rank, enum.__getitem__)
        if isinstance(elements, _Record):
            self.elements = elements
        else:
            self.elements = tuple(elements)
            if len(self.index) != len(self.elements):
                raise ValueError("repeated element key")
        self.data = data if data is None or isinstance(data, _Record) else tuple(data)
        if self.data is not None and len(self.data) != len(self.elements):
            raise ValueError("data size mismatch")
        self._frame = (up, down, first)
        end = first + len(self.elements)
        at = array("I", range(first, end))     # indexed faster than a range
        if first:   # a proper part: each read drops the bits of the positions outside
            self._up = _Record(up, at, lambda s: up[s] & ((1 << (end - s)) - 1))
            self.up = _Record(up, at,
                              lambda s: (up[s] & ((1 << (end - s)) - 1)) << (s - first))
            self.down = _Record(down, at, lambda s: down[s] >> first)
        else:
            self._up, self.down = up, down
            self.up = _Record(up, at, lambda x: up[x] << x)

    @cached_property
    def index(self):
        """Key -> position, a dict built from elements on first read."""
        return {e: x for x, e in enumerate(self.elements)}

    @classmethod
    def _native(cls, elements, data, up, down, by_key, first=0):
        """A poset given in its own coordinates: elements, data, up and down
        by position (a linear extension; row x read at first + x, see _fill),
        each up-row stored from its own position, by_key the positions in key
        order.  elements may instead be an enumeration (see _fill)."""
        p = cls.__new__(cls)
        p._fill(elements, data, by_key, up, down, first)
        return p

    def __len__(self):
        return len(self.elements)

    def le(self, x, y):
        return y >= x and (self._up[x] >> (y - x)) & 1 == 1

    def le_keys(self, a, b):
        return self.le(self.index[a], self.index[b])

    def first_pair(self, bad):
        """The first pair (x, y) of positions, in key order, with y in the
        position mask bad(x): x the first whose mask is nonempty, y the
        first member of that mask; None if every mask is empty."""
        for x in self.by_key:
            m = bad(x)
            if m:
                return x, min(bits(m), key=self.rank.__getitem__)
        return None

    def monotone_witness(self, dst, image):
        """None if x -> image[x], from positions here to those of dst, keeps
        the order, else first_pair's pair x <= y with image[x] not <=
        image[y].  dst is transitive, so the map is monotone iff every cover
        maps to a related pair; only a failing cover costs a full scan."""
        le = dst.le
        if all(le(image[x], image[y]) for x in range(len(self.elements))
               for y in self._upper_covers(x)):
            return None
        w = self.first_pair(lambda x: sum(1 << y for y in bits(self.up[x])
                                          if not le(image[x], image[y])))
        if w is None:
            raise AssertionError("a cover fails but every pair holds")
        return w

    @staticmethod
    def from_edges(elements, edges):
        """Reflexive-transitive closure of a step relation given as key-order
        index pairs (i, j) meaning elements[i] < elements[j]; longer tuples
        starting (i, j) are read the same way."""
        elements = tuple(elements)
        order, up, down, by_key = _closure(len(elements), *_edge_arrays(edges))
        return FinitePoset._native([elements[i] for i in order], None, up, down, by_key)

    def covers(self):
        """Transitive reduction as a sorted list of key-order index pairs
        (i covered by j)."""
        if self._covers is None:
            rank = self.rank
            self._covers = sorted((rank[x], rank[y]) for x in range(len(self.elements))
                                  for y in self._upper_covers(x))
        return self._covers

    def _upper_covers(self, x):
        """The positions covering x, lowest first: the lowest position left
        above x is a cover of x, and nothing above that cover is one.  The
        positions left are kept from the last cover found, so each step
        reads that cover's stored row as it is."""
        up = self._up
        rest = up[x] >> 1
        y = x + 1
        out = []
        while rest:
            k = (rest & -rest).bit_length() - 1
            y += k
            out.append(y)
            rest = (rest >> k) & ~up[y]
        return out

    def bottom(self):
        n = len(self.elements)
        return 0 if n and self._up[0] == (1 << n) - 1 else None

    def top(self):
        n = len(self.elements)
        return n - 1 if n and self.down[n - 1] == (1 << n) - 1 else None

    def is_bounded(self):
        return self.bottom() is not None and self.top() is not None

    def restrict(self, keep):
        """Induced subposet on the given positions.  Kept elements keep
        their relative positions and key order, so each stored row, an
        up-row shifted to a position mask, is compressed by one rule
        (_compress) over the runs of kept positions it can reach: the bits
        of the positions left out, a proper part's ends included, lie
        outside every run.  Keys and data are taken by position, so on an
        enumeration's triangulations the result is a view over the same
        record and no key is built."""
        up, down, first = self._frame
        kept = sorted(set(keep))
        if kept and (kept[0] < 0 or kept[-1] >= len(self.elements)):
            raise IndexError("restrict: position out of range")
        runs = []       # [first, last, new position of first] per run
        for k, x in enumerate(kept):
            x += first
            if runs and runs[-1][1] == x - 1:
                runs[-1][1] = x
            else:
                runs.append([x, x, k])
        runs = [(start, (1 << (last - start + 1)) - 1, at) for start, last, at in runs]
        new = [None] * len(self.elements)
        new_up, new_down = [], []
        r = 0           # the run of the kept element
        for k, x in enumerate(kept):
            new[x] = k
            x += first
            if r + 1 < len(runs) and runs[r + 1][2] == k:
                r += 1
            new_up.append(_compress(up[x] << x, runs[r:]) >> k)
            new_down.append(_compress(down[x], runs[:r + 1]))
        return FinitePoset._native(
            _take(self.elements, kept), _take(self.data, kept), new_up, new_down,
            [new[x] for x in self.by_key if new[x] is not None])

    def proper_part(self):
        """Strip the global bottom and top (both must exist and differ):
        positions 1 .. n-2.  The rows are this order's stored rows, read
        from position 1 with the two ends' bits dropped on each read, so
        up and down are read-only views sharing this order's storage;
        elements and data are this order's, slices without the two ends."""
        if not self.is_bounded():
            raise ValueError("poset is not bounded")
        n = len(self.elements)
        if n == 1:
            raise ValueError("bottom equals top: a one-element order has "
                             "no proper part")
        up, down, first = self._frame
        return FinitePoset._native(
            self.elements[1:n - 1], None if self.data is None else self.data[1:n - 1],
            up, down, (x - 1 for x in self.by_key if 0 < x < n - 1), first + 1)

    # The common lower bounds of x and y hold the down-set of each of them,
    # so they have a maximum iff they equal the down-set of their highest
    # position; likewise for upper bounds, up-sets and the lowest position.
    # Upper bounds are read from the higher of the two positions: its
    # stored row, ANDed with the lower one's shifted to it.

    def meet(self, x, y):
        """Position of the meet, or None if it does not exist."""
        lows = self.down[x] & self.down[y]
        top = lows.bit_length() - 1
        return top if lows and self.down[top] == lows else None

    def join(self, x, y):
        up = self._up
        if x > y:
            x, y = y, x
        ups = (up[x] >> (y - x)) & up[y]
        k = (ups & -ups).bit_length() - 1
        return y + k if ups and up[y + k] == ups >> k else None

    def is_lattice(self):
        """True, or a witness dict naming the first pair, in key order,
        lacking a meet or a join.

        A finite bounded poset is a lattice iff any two upper covers of a
        common element have a join (Bjorner-Edelman-Ziegler, DCG 5 (1990),
        Lemma 2.1), so a lattice is certified by one join per such pair.
        Otherwise first_pair names the witness on the masks of _lacking,
        the meet side first.  The witness row's mask is computed in full,
        so a witness found early in a large order costs up to one row of
        pair tests more than a scan that stops at the first failing pair."""
        if self.is_bounded() and all(
                self.join(a, b) is not None for x in range(len(self.elements))
                for a, b in combinations(self._upper_covers(x), 2)):
            return True
        w = self.first_pair(self._lacking)
        if w is None:
            return True
        x, y = w
        return {"pair": (self.elements[x], self.elements[y]),
                "missing": "meet" if self.meet(x, y) is None else "join"}

    def _lacking(self, x):
        """The mask of the positions lacking a meet or a join with x; only
        those incomparable with x can.  A side whose k bounds of x have
        k * k <= n is settled in bulk (_bounded, k * k mask operations
        instead of n pair tests), and only the other side is tested pair by
        pair."""
        n = len(self.elements)
        full = (1 << n) - 1
        down, up = self.down, self.up
        dx, ux = down[x], up[x]
        bulk_meets = dx.bit_count() ** 2 <= n
        bulk_joins = ux.bit_count() ** 2 <= n
        out = 0
        if bulk_meets:
            out |= full & ~_bounded(dx, down, up)
        if bulk_joins:
            out |= full & ~_bounded(ux, up, down)
        if not (bulk_meets and bulk_joins):
            meet, join = self.meet, self.join
            for y in bits(full & ~(dx | ux)):
                if (not bulk_meets and meet(x, y) is None) or \
                        (not bulk_joins and join(x, y) is None):
                    out |= 1 << y
        return out

    def mobius(self, x, y):
        """Mobius function of the interval [x, y]: mu(0, 1) of the open
        interval (x, y) with x and y as its adjoined bounds, Hall's sum over
        its positions' down-rows as read (hall_mobius); no subposet is built."""
        if not self.le(x, y):
            raise ValueError("mobius needs x <= y")
        if x == y:
            return 1
        inner = (self.up[x] & self.down[y]) ^ (1 << x) ^ (1 << y)
        return -1 - sum(_mobius_values((z, self.down[z]) for z in bits(inner)).values())

    def mobius_bottom_top(self):
        """mu(bottom, top), read on this order's rows (mobius)."""
        if not self.is_bounded():
            raise ValueError("poset is not bounded")
        return self.mobius(self.bottom(), self.top())

    def hall_mobius(self):
        """mu(0, 1) of this poset with a bottom 0 and a top 1 adjoined, the
        reduced Euler characteristic of its order complex (Hall's theorem):
        mu(0, z) = -1 - the sum of mu(0, w) over w < z, and mu(0, 1) = -1 -
        the sum over all z.  Each z reads its stored down-row as it is."""
        _, down, first = self._frame
        rows = ((z, down[z]) for z in range(first, first + len(self.elements)))
        return -1 - sum(_mobius_values(rows).values())

    def is_coatomic(self, i, j):
        """Whether i is the meet of the coatoms of [i, j] ([i, i] is
        coatomic).  The coatoms, j's lower covers above i, are found as
        _upper_covers finds covers, on the down-rows and highest first; i
        is their greatest common lower bound iff their down-sets AND to
        down[i], a rule that holds in any finite poset."""
        down = self.down
        rest, lows = (self.up[i] & down[j]) ^ (1 << j), down[j]
        while rest:
            under = down[rest.bit_length() - 1]     # the next coatom's down-set
            lows &= under
            rest &= ~under
        return lows == down[i]

    def relabel(self, keys, data, by_key):
        """This order under new keys and data, keys[x] naming position x and
        data[x] its payload (data may be None), and a new key order, by_key
        listing the positions in it; the rows are shared."""
        if len(keys) != len(self.elements) or sorted(by_key) != list(range(len(keys))):
            raise ValueError("relabel needs a key and a key-order place per position")
        return FinitePoset._native(keys, data, self._up, self.down, by_key)

    def keys(self):
        """The element keys in key order."""
        return [self.elements[x] for x in self.by_key]

    def to_json(self):
        return json.dumps({"elements": [str(e) for e in self.keys()],
                           "covers": [[i, j] for i, j in self.covers()]},
                          separators=(",", ":"))

    def to_dot(self):
        lines = ["digraph poset {"]
        for i, e in enumerate(self.keys()):
            lines.append('  n%d [label="%s"];' % (i, _dot_escape(str(e))))
        for i, j in self.covers():
            lines.append("  n%d -> n%d;" % (i, j))
        lines.append("}")
        return "\n".join(lines) + "\n"


class _Record(Sequence):
    """The one positional view: position x holds item at[x] of source,
    read as read(at[x]).  Keys, data and flip edges read an enumeration (by
    key, Triangulation, or edge over range(len(src))) or an interval poset's
    intervals (by their keys); a poset's up-sets, and a proper part's
    stored rows, read the stored row lists at their stored positions, each
    row shifted by its position or with the bits outside a proper part
    dropped.  A slice, or take(positions), is the same view over those
    positions; a slice shares at (a range slices to a range, anything else
    to a memoryview), so a proper part's keys and data copy no positions."""

    __slots__ = ("source", "at", "_read")

    def __init__(self, source, at, read):
        self.source = source
        self.at = at
        self._read = read

    def __len__(self):
        return len(self.at)

    def __getitem__(self, x):
        try:
            return self._read(self.at[x])
        except TypeError:   # a slice of at is a sequence, which no read takes
            if not isinstance(x, slice):
                raise
        at = self.at if isinstance(self.at, range) else memoryview(self.at)
        return _Record(self.source, at[x], self._read)

    def __iter__(self):
        return map(self._read, self.at)

    def take(self, positions):
        return _Record(self.source, array("I", map(self.at.__getitem__, positions)),
                       self._read)


def _take(seq, positions):
    """The items of seq at the given positions: a view over the same record
    for a _Record, else a list; None for None."""
    if seq is None:
        return None
    if isinstance(seq, _Record):
        return seq.take(positions)
    return [seq[x] for x in positions]


def _compress(row, runs):
    """((row >> start) & width) << at ORed over the runs (start, width, at)
    given: row's bits inside each run, moved to at.  The rest are dropped."""
    m = 0
    for start, width, at in runs:
        m |= ((row >> start) & width) << at
    return m


def _bounded(row, same, other):
    """For row = down[x], same = down and other = up, all position masks:
    the mask of the positions y that have a meet with x.  The meet of x and
    y is the member m of row with down[m] = row & down[y], so the y met at
    m are up[m] minus the image under up (_image) of the members of row
    outside down[m].  Read dually, with row = up[x], same = up and other =
    down, it is the mask of the positions that have a join with x."""
    out = 0
    for m in bits(row):
        out |= other[m] & ~_image(row & ~same[m], other)
    return out


def _mobius_values(rows):
    """{z: -1 - the sum of the values over row_z} for (z, row_z) in rows:
    only the positions listed before z have values, so the other bits of a
    row, z's own among them, add nothing.  A row is summed by bit
    planes of the values so far, one AND and popcount per plane and sign,
    not one step per element."""
    plus, minus = [], []
    out = {}
    for z, row in rows:
        s = 0
        for b in range(len(plus)):
            s += ((row & plus[b]).bit_count() - (row & minus[b]).bit_count()) << b
        v = out[z] = -1 - s
        while len(plus) < abs(v).bit_length():
            plus.append(0)
            minus.append(0)
        planes = plus if v > 0 else minus
        for b in bits(abs(v)):
            planes[b] |= 1 << z
    return out


def _closure(n, src, dst):
    """(order, up, down, by_key) of the reflexive-transitive closure of the
    step edges src[k] -> dst[k] between the key-order indices of n
    elements, order[x] the key-order index at position x.  The edges
    are read into successor arrays by element (_csr), and Kahn's algorithm
    numbers the positions on them.  Up is pulled over the successors in
    reverse position order, each row stored from its own position, and the
    same walk files each edge into predecessor arrays by position; the
    successor arrays are then dropped and down is pulled over the
    predecessors in position order.  Pushing each row into its successors'
    down rows would need no predecessors, but it leaves the heap full of
    freed partial rows, and at S1(11,4) the lattice scan that follows ran
    about a sixth slower."""
    at, succ = _csr(n, src, dst)
    indeg = [0] * n
    for j in dst:
        indeg[j] += 1
    count = indeg.copy()
    order = array("I", [i for i in range(n) if indeg[i] == 0])
    for i in order:     # order grows: the queue
        for j in succ[at[i]:at[i + 1]]:
            indeg[j] -= 1
            if indeg[j] == 0:
                order.append(j)
    if len(order) != n:
        raise ValueError("step relation has a cycle")
    pos = array("I", [0]) * n
    for x, i in enumerate(order):
        pos[i] = x
    below_at = array("I", [0])
    below_at.extend(accumulate(map(count.__getitem__, order)))
    del indeg, count
    fill = below_at.tolist()
    below = array("I", [0]) * len(dst)
    up = [0] * n
    for x in range(n - 1, -1, -1):
        i = order[x]
        m = 1
        for y in map(pos.__getitem__, succ[at[i]:at[i + 1]]):
            m |= up[y] << (y - x)
            below[fill[y]] = x
            fill[y] += 1
        up[x] = m
    del at, succ, fill
    down = [0] * n
    for x in range(n):
        m = 1 << x
        for y in below[below_at[x]:below_at[x + 1]]:
            m |= down[y]
        down[x] = m
    return order, up, down, pos


def _csr(n, heads, tails):
    """(at, to), two array('I'): to[at[h]:at[h + 1]] lists the tails of
    the edges heads[k] -> tails[k] with head h, in edge order (compressed
    sparse rows)."""
    count = [0] * n
    for h in heads:
        count[h] += 1
    at = array("I", [0])
    at.extend(accumulate(count))
    fill = at.tolist()
    to = array("I", [0]) * len(heads)
    for h, t in zip(heads, tails):
        to[fill[h]] = t
        fill[h] += 1
    return at, to


def _edge_arrays(edges):
    """(src, dst) arrays of step edges read from tuples starting (i, j)."""
    src, dst = array("I"), array("I")
    for e in edges:
        src.append(e[0])
        dst.append(e[1])
    return src, dst


class _Enumeration(Sequence):
    """The one record of an enumeration of C(n, d): masks, the table masks
    of its triangulations in key order, and its flip steps, all array('I'):
    step k goes from element src[k] to dst[k] by the (d+2)-set at bit
    flip[k] of table(n, d+1).  Read as a sequence it gives the
    Triangulations, wrapped when read; key(r) builds element r's key,
    edge(k) step k's tuple (i, j, flip simplex), and edges reads them."""

    __slots__ = ("table", "masks", "src", "dst", "flip")

    def __init__(self, table, masks, src, dst, flip):
        self.table, self.masks = table, masks
        self.src, self.dst, self.flip = src, dst, flip

    def __len__(self):
        return len(self.masks)

    def __getitem__(self, r):
        return self.table.triangulation(self.masks[r])

    def __iter__(self):
        return map(self.table.triangulation, self.masks)

    def key(self, r):
        return self.table.key(self.masks[r])

    def edge(self, k):
        return self.src[k], self.dst[k], self.table.move(self.flip[k])[0]

    @property
    def edges(self):
        return _Record(self, range(len(self.src)), self.edge)


def _dot_escape(s):
    return s.replace("\\", "\\\\").replace('"', '\\"')


# ---------------------------------------------------------------------------
# Enumeration and the two orders.

_enum_cache = {}
_s1_cache = {}
_s2_cache = {}

# The bound on the rows of one dense relation, about N^2 / 8 bytes for N
# elements, checked before build_s1, build_s2 or interval_poset allocates
# any: 2 GiB holds S1 and S2 of C(11, 4) (1.16 GB) and the Baues relations
# of C(10, 3) and C(11, 2) (1.90 and 1.33 GB), and refuses C(12, 6) (14.5 GB)
# right after its enumeration.  Fixed, so the verdict does not depend on
# the machine.
RELATION_BYTES = 2 << 30


def _relation_guard(count, where):
    """Raise ResourceBudgetError (relation_bytes) when the rows of a dense
    relation on count elements, count^2 // 8 bytes, exceed RELATION_BYTES."""
    need = count * count // 8
    if need > RELATION_BYTES:
        raise ResourceBudgetError(
            "%s: %d elements need %d bytes of relation rows, over the bound of %d bytes"
            % (where, count, need, RELATION_BYTES),
            "relation_bytes", RELATION_BYTES, need, where)


def enumerate_triangulations(n, d, cap=None):
    """All triangulations of C(n, d), by breadth-first search along upward
    flips from the bottom element.  One walk over the members of each mask
    gives its validation sums, its increasing flips, each with its bit in
    table(n, d+1) as its id, and its compact bytes sort key (table.key_order), and
    every mask is judged before it is kept.  Returns the enumeration's
    record (_Enumeration): the masks sorted in key order by those bytes,
    read as a sequence of Triangulations built when they are read, and the
    flip step edges, in flat arrays re-ranked in place to the sorted order."""
    key = (n, d)
    got = _enum_cache.get(key)
    if cap is None:
        cap = DEFAULT_ENUM_CAP
    if got is None:
        tab = tri.table(n, d)
        start = tab.bottom.mask
        seen = {start: 0}
        masks = [start]
        sort_keys = []
        end = tab._text_ranks[1]
        ends = array("I"), array("I"), array("I")     # src, dst, flip
        src, dst, flip = (a.append for a in ends)
        for i, t in enumerate(masks):   # masks grows: the BFS queue
            flips, ranks = [], []
            v = tab._judge(t, tab._accumulate(t, flips, ranks))
            if v is not None:
                raise AssertionError("enumerated an invalid triangulation: %s" % (v,))
            ranks.append(end)
            sort_keys.append(b"".join(ranks))
            for _, low, up, k in flips:
                nxt = (t ^ low) | up
                j = seen.get(nxt)
                if j is None:
                    if len(seen) >= cap:
                        raise _over_cap(cap, len(seen) + 1, n, d)
                    j = seen[nxt] = len(masks)
                    masks.append(nxt)
                src(i)
                dst(j)
                flip(k)
        if tab.top.mask not in seen:
            raise AssertionError("flip search failed to reach the top element")
        del seen
        order = sorted(range(len(masks)), key=sort_keys.__getitem__)
        del sort_keys
        rank = array("I", [0]) * len(order)
        for r, i in enumerate(order):
            rank[i] = r
        for e in ends[:2]:     # src and dst, re-ranked in place
            for k, i in enumerate(e):
                e[k] = rank[i]
        got = _enum_cache[key] = _Enumeration(tab, [masks[i] for i in order], *ends)
    elif len(got) > cap:
        raise _over_cap(cap, len(got), n, d)
    return got


def _over_cap(cap, reached, n, d):
    """enumerate_triangulations' refusal (enum_cap) at C(n, d)."""
    return ResourceBudgetError("enumeration cap %d exceeded at C(%d, %d)" % (cap, n, d),
                               "enum_cap", cap, reached, "C(%d, %d)" % (n, d))


def flip_step_edges(n, d, cap=None):
    """Single-flip steps (i, j, flip_simplex), one per flip found by
    enumeration: element i of enumerate_triangulations(n, d) flips up to
    element j.  A read-only view over the enumeration's flat arrays
    (source, target, and the flip simplex's bit in table(n, d+1)): its
    length costs nothing, and each tuple is built when it is read."""
    return enumerate_triangulations(n, d, cap).edges


def _check_ends(p, ts, name):
    """Raise unless the bottom and top of p, on the triangulations of the
    enumeration ts, are the bottom and top triangulations."""
    ends = [p.bottom(), p.top()]
    if None in ends or [ts.masks[p.rank[x]] for x in ends] != \
            [ts.table.bottom.mask, ts.table.top.mask]:
        raise AssertionError("%s is not bounded by bottom/top" % name)


def build_s1(n, d, cap=None):
    """Flip order: reflexive-transitive closure of single upward flips,
    read from the enumeration's flat edge arrays."""
    key = (n, d)
    ts = enumerate_triangulations(n, d, cap)    # the cap holds on a cache hit too
    _relation_guard(len(ts), "flip order of C(%d, %d)" % key)    # and so does the bound
    p = _s1_cache.get(key)
    if p is None:
        _, up, down, by_key = _closure(len(ts), ts.src, ts.dst)
        p = FinitePoset._native(ts, None, up, down, by_key)
        _check_ends(p, ts, "flip order")
        _s1_cache[key] = p
    return p


def build_s2(n, d, cap=None):
    """Height order: t <= t' iff the middle-dimension submersion set of t is
    contained in that of t'.

    Built by columns: sorting by mask size is a linear extension, has[c] is
    the position mask of the triangulations whose mask holds middle cell c,
    the up-set of x is the AND of has[c] over the cells of x, stored from
    x's own position, and down[x] the AND of the complements over the cells
    x lacks.  Containment is reflexive and transitive; it is antisymmetric
    iff the masks are pairwise distinct."""
    key = (n, d)
    tri.table(n, d)._middle     # the middle cells' size guard, before enumerating
    ts = enumerate_triangulations(n, d, cap)    # the cap holds on a cache hit too
    _relation_guard(len(ts), "height order of C(%d, %d)" % key)  # and so does the bound
    p = _s2_cache.get(key)
    if p is None:
        masks = list(map(ts.table.submersion, ts.masks))
        first = {}
        for i, m in enumerate(masks):
            if first.setdefault(m, i) != i:
                raise ValueError("not antisymmetric: %r, %r"
                                 % (ts.key(first[m]), ts.key(i)))
        order = sorted(range(len(ts)), key=lambda i: masks[i].bit_count())
        full = (1 << len(ts)) - 1
        # a cell in every mask, or in none, constrains nothing
        common, anywhere = masks[0], 0
        for m in masks:
            common &= m
            anywhere |= m
        has = [0] * anywhere.bit_length()
        for x, i in enumerate(order):
            for c in bits(masks[i] & ~common):
                has[c] |= 1 << x
        lacks = [full & ~h for h in has]
        up = []
        down = []
        for x, i in enumerate(order):
            m = masks[i]
            u = full
            for c in bits(m & ~common):
                u &= has[c]
            dn = full
            for c in bits(anywhere & ~m):
                dn &= lacks[c]
            up.append(u >> x)
            down.append(dn)
        pos = [0] * len(ts)
        for x, i in enumerate(order):
            pos[i] = x
        p = FinitePoset._native(ts, None, up, down, pos)
        _check_ends(p, ts, "height order")
        _s2_cache[key] = p
    return p


def build_order(order, n, d, cap=None):
    """The flip order ("s1") or the height order ("s2") of C(n, d)."""
    if order == "s1":
        return build_s1(n, d, cap)
    if order == "s2":
        return build_s2(n, d, cap)
    raise ValueError("order must be s1 or s2, got %r" % (order,))


def compare_relations(p, q):
    """None if the two posets are the same relation on the same keys, else a
    dict naming the first divergent ordered pair, in the key order of p.

    Each is contained in the other iff every cover of each holds in the
    other (the other is transitive), so only a mismatch costs a scan."""
    # the keys are matched by sorting them once each: where[x] is the
    # position in q of the key at position x in p, back the inverse.  Two
    # posets whose keys are views over one source are matched by item
    # number, equal exactly when the keys are, so no key is built.
    pk, qk = p.elements, q.elements
    if isinstance(pk, _Record) and isinstance(qk, _Record) and pk.source is qk.source:
        pk, qk = pk.at, qk.at
    else:
        pk, qk = list(pk), list(qk)
    ps = sorted(range(len(pk)), key=pk.__getitem__)
    qs = sorted(range(len(qk)), key=qk.__getitem__)
    if [pk[x] for x in ps] != [qk[y] for y in qs]:
        raise ValueError("posets have different element sets")
    where, back = [0] * len(ps), [0] * len(ps)
    for x, y in zip(ps, qs):
        where[x], back[y] = y, x

    if p.monotone_witness(q, where) is None and q.monotone_witness(p, back) is None:
        return None
    # the positions whose relation to x differs: q's up-set of x, moved to p
    moved = [1 << x for x in back]
    w = p.first_pair(lambda x: p.up[x] ^ _image(q.up[where[x]], moved))
    if w is None:
        raise AssertionError("covers disagree but the relations are equal")
    pin = p.le(*w)
    return {"pair": (p.elements[w[0]], p.elements[w[1]]),
            "in_first": pin, "in_second": not pin}


def flip_cover_discrepancies(n, d, cap=None):
    """Flip edges that are not cover relations of the flip order (empty in
    every verified instance; reported, never assumed)."""
    p, ts = build_s1(n, d, cap), enumerate_triangulations(n, d, cap)
    at, up, down = p.by_key, p._up, p.down
    # y covers x iff [x, y] has two members
    return [(ts.key(i), ts.key(j), ts.table.move(k)[0])
            for i, j, k in zip(ts.src, ts.dst, ts.flip)
            if (up[at[i]] & (down[at[j]] >> at[i])).bit_count() != 2]


def interval_poset(p, variant="all"):
    """Poset of intervals [x, y] of p ordered by inclusion.

    variant: all | proper | proper_coatomic.  The coatomic variant needs p
    to be a lattice.
    Intervals sit in order of size, a linear extension of inclusion, and
    their relation is built by columns: [x, y] <= [v, w] iff v <= x and
    y <= w, so the intervals above [x, y] are those with their low end in
    down[x] and their high end in up[y].  Interval z's data is its ends
    (x, y); its key, the JSON list of their keys, is written when read.
    """
    if variant not in ("all", "proper", "proper_coatomic"):
        raise ValueError("unknown interval variant %r" % (variant,))
    n = len(p.elements)
    b, t = p.bottom(), p.top()
    if variant != "all" and (b is None or t is None):
        raise ValueError("proper variants need a bounded poset")
    if variant == "proper_coatomic":
        w = p.is_lattice()
        if w is not True:
            raise ValueError("coatomic intervals need a lattice: %r" % (w,))
    up = p._up
    pairs = []
    for x in range(n):
        pairs.extend((x, x + k) for k in bits(up[x]))
    if variant != "all":
        pairs = [(x, y) for x, y in pairs if not (x == b and y == t)]
    if variant == "proper_coatomic":
        pairs = [xy for xy in pairs if p.is_coatomic(*xy)]
    _relation_guard(len(pairs), "interval poset (%s)" % variant)
    pairs.sort(key=lambda xy: (up[xy[0]] & (p.down[xy[1]] >> xy[0])).bit_count())
    low = [0] * n
    high = [0] * n
    for z, (x, y) in enumerate(pairs):
        low[x] |= 1 << z
        high[y] |= 1 << z
    low_down, low_up = [_image(r, low) for r in p.down], [_image(r, low) for r in p.up]
    high_down, high_up = [_image(r, high) for r in p.down], [_image(r, high) for r in p.up]
    names = [str(e) for e in p.elements]    # each key read once
    keys = _Record(pairs, range(len(pairs)), lambda z: json.dumps(
        [names[x] for x in pairs[z]], separators=(",", ":")))
    by_key = sorted(range(len(pairs)), key=lambda z: (names[pairs[z][0]],
                                                      names[pairs[z][1]]))
    # the intervals holding interval z sit at z or later
    return FinitePoset._native(keys, pairs,
                               [(low_down[x] & high_up[y]) >> z
                                for z, (x, y) in enumerate(pairs)],
                               [low_up[x] & high_down[y] for x, y in pairs],
                               by_key)


def poset_core(p):
    """The core of a finite poset: the subposet left after repeatedly
    removing beat points, elements whose strict down-set has a maximum or
    whose strict up-set has a minimum.  Each removal keeps the homotopy type
    of the order complex (Stong 1966).

    Each round walks the live mask as it stood when the round began and
    drops each beat point from it at once.  The rows are read as stored, a
    proper part's from its order's rows: the live mask leaves out the
    positions outside p, and the part of it above x is shifted to x's
    stored up-row, not the row to the mask."""
    up, down, first = p._frame
    alive = ((1 << len(p.elements)) - 1) << first
    removed = True
    while removed:
        removed = False
        for x in bits(alive):
            rest = alive ^ (1 << x)
            below = down[x] & rest
            if below and not below & ~down[below.bit_length() - 1]:
                alive, removed = rest, True
                continue
            above = up[x] & (rest >> x)
            k = (above & -above).bit_length() - 1
            if above and not (above >> k) & ~up[x + k]:
                alive, removed = rest, True
    return p.restrict([x - first for x in bits(alive)])


def boolean_lattice(k):
    """Subsets of {1..k} by inclusion; keys are sorted-subset strings, in
    key order by size, then lexicographically."""
    subs = []
    for r in range(k + 1):
        subs.extend(combinations(range(1, k + 1), r))
    subs.sort(key=lambda s: (len(s), s))
    index = {s: a for a, s in enumerate(subs)}
    edges = [(a, index[tuple(sorted(s + (v,)))])
             for a, s in enumerate(subs) for v in range(1, k + 1) if v not in s]
    order, up, down, by_key = _closure(len(subs), *_edge_arrays(edges))
    return FinitePoset._native(
        ["{" + ",".join(map(str, subs[i])) + "}" for i in order],
        [frozenset(subs[i]) for i in order], up, down, by_key)


def clear_caches():
    """Forget every per-(n, d) result: enumerations, S1 and S2, the
    triangulation tables (with their rows, deny masks and the hull) and
    Gale's facets, so the next build of anything starts cold."""
    tri._table_cache.clear()
    simplices._gale_cache.clear()
    _enum_cache.clear()
    _s1_cache.clear()
    _s2_cache.clear()
