"""Triangulations of C(n, d): the value type, validity checking, bistellar
flips, the vertex contraction/insertion maps, and submersion masks.

Everything runs on one lookup table per (n, d), `table(n, d)`: the
d-simplices of [n] are numbered in lexicographic order, so a set of them is
an int mask and an increasing flip is `t & low == low -> (t ^ low) | up`
(the bitset design of TOPCOM; Rambau, ICMS 2002).  A Triangulation is
(n, d, mask): equality, hashing, membership and size read the mask, and its
member tuples are built only when they are read.  Validation reads masks
too: each simplex's row holds its conflict mask (the zig-zag rule, one
alternating-path scan over the masks of the simplices holding each label),
its volume, its facet mask and its extensions (the candidate flips of the
(d+2)-sets it extends by one larger label).  A mask is checked by four sums
and a few ANDs: a triangulation is a pseudomanifold, each hull facet in one
member and each other facet met in two, and parity and one incidence count
decide that (De Loera-Rambau-Santos, Triangulations, 2010).  The check is two
steps: one walk over the members accumulates the sums (and, for the flip
search, the increasing flips on the same walk), then a judge reads them.
Members and facets are walked again only to name the witness of a failure.
A mask gives its Triangulation, its key string and its place in key order
on demand (`triangulation`, `key`, `key_order`), so a set of triangulations
can be kept as masks alone; `key` is the one writer of key strings, and
`Triangulation.from_json` the one reader.  Submersion masks are ORs of
per-simplex deny masks, alternating-path scans too, and the suspension maps
(f, i, j) and the connecting sets are per-table index maps, one OR each."""

import json
from bisect import bisect_right
from collections import namedtuple
from functools import cached_property
from itertools import accumulate, combinations
from math import comb

from . import geometry
from .simplices import LOWER, _image, bits, facet_split, gale_facets, simplex

DEFAULT_ENUM_CAP = 10 ** 6

_table_cache = {}


class ResourceBudgetError(RuntimeError):
    """A configured cap or budget was exceeded.  Besides the message it
    carries kind (enum_cap, size_guard, relation_bytes or face_budget),
    limit (the bound), reached (the count that crossed it) and where (the
    instance, C(n, d), the relation, or the order-complex dimension)."""

    def __init__(self, message, kind, limit, reached, where):
        super().__init__(message)
        self.kind = kind
        self.limit = limit
        self.reached = reached
        self.where = where


Violation = namedtuple("Violation", "rule witness message")


class Triangulation:
    """Immutable set of d-simplices on labels 1..n, held as its mask over
    table(n, d).simplices; the member tuples, in lexicographic order, are
    built from the mask on first read and kept."""

    __slots__ = ("n", "d", "mask", "_simplices")

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
        self._assign(n, d, table(n, d).mask(simp))
        self._simplices = simp

    def _assign(self, n, d, mask):
        self.n = n
        self.d = d
        self.mask = mask
        self._simplices = None

    @property
    def simplices(self):
        if self._simplices is None:
            self._simplices = tuple(
                map(table(self.n, self.d).simplices.__getitem__, bits(self.mask)))
        return self._simplices

    def __contains__(self, s):
        """Whether the simplex s, its labels in any order, is a member."""
        try:
            return (self.mask >> table(self.n, self.d).index[tuple(sorted(s))]) & 1 == 1
        except (KeyError, TypeError):   # no simplex of the table, or labels that do not sort
            return False

    def __iter__(self):
        return iter(self.simplices)

    def __len__(self):
        return self.mask.bit_count()

    def __eq__(self, other):
        return isinstance(other, Triangulation) and \
            (self.n, self.d, self.mask) == (other.n, other.d, other.mask)

    def __hash__(self):
        return hash((self.n, self.d, self.mask))

    def __repr__(self):
        return "Triangulation(%d, %d, %s)" % (self.n, self.d, list(self.simplices))

    def key(self):
        """Canonical JSON form; byte-stable identity for posets and exports:
        the bytes of json.dumps({"n": n, "d": d, "simplices": [list(s) for s
        in simplices]}, separators=(",", ":")), as _Table.key writes them."""
        return table(self.n, self.d).key(self.mask)

    @staticmethod
    def from_json(text):
        """The Triangulation a key names: the one reader of key strings,
        for keys from outside the package (no package path reads one)."""
        obj = json.loads(text)
        return Triangulation(obj["n"], obj["d"], [tuple(s) for s in obj["simplices"]])


class _Table:
    """The d-simplices of [n] in lexicographic order, bit i of a mask
    standing for simplices[i], with what validation and flips need of each:
    one row, filled in on first use, so only the simplices that occur cost
    anything, and likewise its deny mask for submersion.  The per-label
    masks of the simplices and of the middle cells (for _alternating), the
    hull volume, the numbering of the d-subsets of [n] (the facets) and the
    boundary are computed once.
    """

    def __init__(self, n, d):
        self.n = n
        self.d = d
        self.simplices = list(combinations(range(1, n + 1), d + 1))
        self.index = {s: i for i, s in enumerate(self.simplices)}
        self.head = '{"n":%d,"d":%d,"simplices":' % (n, d)     # of every key
        self._rows = [None] * len(self.simplices)
        self._denies = [None] * len(self.simplices)
        if n == d + 1:
            lo = hi = 1
        else:
            facets = gale_facets(n, d + 1).items()
            lo = self.mask(f for f, cls in facets if cls == LOWER)
            hi = self.mask(f for f, cls in facets if cls != LOWER)
        self.bottom = self.triangulation(lo)
        self.top = self.triangulation(hi)

    @cached_property
    def hull(self):
        return geometry.cyclic_volume(self.n, self.d)

    @cached_property
    def boundary(self):
        return gale_facets(self.n, self.d)

    @cached_property
    def facet_index(self):
        """Lexicographic numbering of the d-subsets of [n]."""
        return {f: k for k, f in enumerate(combinations(range(1, self.n + 1), self.d))}

    @cached_property
    def boundary_mask(self):
        index = self.facet_index
        return sum(1 << index[f] for f in self.boundary)

    def mask(self, members):
        """Mask of distinct d-simplices of [n]."""
        m = 0
        for s in members:
            m |= 1 << self.index[s]
        return m

    def triangulation(self, mask):
        """The Triangulation of a mask, wrapped as it is."""
        t = Triangulation.__new__(Triangulation)
        t._assign(self.n, self.d, mask)
        return t

    @cached_property
    def texts(self):
        """texts[i]: the JSON text "[a,b,c]" of simplices[i]."""
        return ["[%s]" % ",".join(map(str, s)) for s in self.simplices]

    def members_text(self, mask):
        """The JSON text "[[a,b,c],...]" of the mask's members, joined from
        texts: the one writer of simplex lists, in keys and exports."""
        return "[%s]" % ",".join(map(self.texts.__getitem__, bits(mask)))

    def key(self, mask):
        """The key of the mask's Triangulation: the one writer of key strings."""
        return "%s%s}" % (self.head, self.members_text(mask))

    @cached_property
    def _text_ranks(self):
        """The string-order rank of each simplex's text, and a sentinel above
        every rank, as big-endian bytes of one width."""
        count = len(self.simplices)
        width = (count.bit_length() + 7) // 8
        ranks = [b""] * count
        for r, i in enumerate(sorted(range(count), key=self.texts.__getitem__)):
            ranks[i] = r.to_bytes(width, "big")
        return ranks, count.to_bytes(width, "big")

    def key_order(self, mask):
        """A bytes sort key of the mask in the string order of key(): its
        members' text ranks, in member order, then the sentinel.

        Two keys agree up to the first member whose texts differ, and no
        text is a prefix of another, so that member's texts decide.  When
        one member list extends the other, the longer key goes on with ","
        where the shorter closes with "]", and "," sorts first; the
        sentinel, above every rank, puts the shorter list last too."""
        ranks, end = self._text_ranks
        return b"".join([*map(ranks.__getitem__, bits(mask)), end])

    @cached_property
    def holders(self):
        """holders[v]: the mask of the simplices holding label v, for
        0 <= v <= n (none holds 0)."""
        return _holders(self.n, self.d + 1)

    def row(self, i):
        """(conflicts, volume, facets, extensions) of simplices[i]: the mask
        of the later simplices it is not zig-zag admissible with (those with
        an alternating sequence of d + 2 labels, _alternating), its
        normalized volume, the mask of its facets over facet_index, and
        (cand, low, up, k) for each (d+2)-set cand = simplices[i] + (v,)
        with v above the last label, low and up the masks of its lower and
        upper facets, k its bit in table(n, d+1) (see move).  The facet
        dropping the last label is always lower, so each (d+2)-set is an
        extension of exactly one simplex, and each increasing flip of t an
        extension of a member of t."""
        got = self._rows[i]
        if got is None:
            s, d = self.simplices[i], self.d
            later = (1 << len(self.simplices)) - (2 << i)
            mine, theirs = _alternating(s, self.holders, later, d + 2)
            index = self.facet_index
            k = self._first_moves[i] - s[-1] - 1
            extensions = []
            for v in range(s[-1] + 1, self.n + 1):
                lower, upper = facet_split(s + (v,))
                extensions.append((s + (v,), self.mask(lower), self.mask(upper), k + v))
            got = self._rows[i] = (
                mine | theirs, geometry.normalized_volume(s, d),
                sum(1 << index[f] for f in _facets(s)), extensions)
        return got

    def violation(self, mask):
        """validate's checks after shape and emptiness, for the mask of a
        set of d-simplices of [n]: admissibility, volume, walls, labels."""
        return self._judge(mask, self._accumulate(mask))

    def _accumulate(self, mask, flips=None, ranks=None):
        """One walk over the members of a mask, in lexicographic order, for
        the four sums _judge reads, one operation each per member: the OR
        of the conflict masks, the volume sum, and the XOR (odd) and the OR
        (met) of the facet masks.  The flip search passes two lists: each
        increasing flip (cand, low, up, k) is appended to flips on the way,
        in lexicographic order of cand, as flips() lists them, and each
        member's text rank to ranks, so ranks and the sentinel joined are
        key_order(mask)."""
        rows = self._rows
        text = self._text_ranks[0] if ranks is not None else None
        clash = vol = odd = met = 0
        for i in bits(mask):
            conflicts, volume, facets, extensions = rows[i] or self.row(i)
            clash |= conflicts
            vol += volume
            odd ^= facets
            met |= facets
            if flips is not None:
                ranks.append(text[i])
                for f in extensions:
                    if mask & f[1] == f[1]:
                        flips.append(f)
        return clash, vol, odd, met

    def _judge(self, mask, sums):
        """The first violation of a mask given its _accumulate sums, or
        None; the rules in validate's order, each decided by an identity.

        Walls: each hull facet must be met once and each other facet met
        twice or not at all.  That holds iff the facets met an odd number
        of times are the hull's and the (d + 1)|mask| facet incidences
        number |boundary| + 2|met outside the boundary|: with odd counts
        (at least 1) on the hull and even ones (at least 2) elsewhere, the
        incidences reach that sum only when every count is 1 or 2."""
        conflicts, vol, odd, met = sums
        if mask & conflicts:
            return Violation("admissible", self.clash(mask), "members intersect improperly")

        if vol != self.hull:
            return Violation("volume", (vol, self.hull),
                             "simplex volumes sum to %s, hull has %s" % (vol, self.hull))

        boundary = self.boundary_mask
        if odd != boundary or (self.d + 1) * mask.bit_count() != \
                len(self.boundary) + 2 * (met & ~boundary).bit_count():
            return self._wall_violation(mask)

        holders = self.holders
        for v in range(1, self.n + 1) if self.d >= 2 else (1, self.n):
            if not mask & holders[v]:
                return Violation("labels", v, "extreme label unused")
        return None

    def clash(self, mask):
        """The first non-admissible pair of the mask's members, or None: the
        first member whose conflict row meets the mask, and the first there."""
        rows = self._rows
        for i in bits(mask):
            bad = mask & (rows[i] or self.row(i))[0]
            if bad:
                return self.simplices[i], self.simplices[(bad & -bad).bit_length() - 1]
        return None

    def _wall_violation(self, mask):
        """The wall violation of a mask failing the wall identity: the first
        facet met a wrong number of times, walking the members in
        lexicographic order and their facets as _facets lists them, else
        the first hull facet not covered."""
        counts = {}
        for s in map(self.simplices.__getitem__, bits(mask)):
            for f in _facets(s):
                counts[f] = counts.get(f, 0) + 1
        boundary = self.boundary
        for f, c in counts.items():
            if c > 2:
                return Violation("wall", f, "wall covered %d times" % c)
            if c == 2 and f in boundary:
                return Violation("wall", f, "hull facet covered twice")
            if c == 1 and f not in boundary:
                return Violation("wall", f, "interior wall covered once")
        f = next(f for f in boundary if f not in counts)
        return Violation("wall", f, "hull facet not covered")

    @cached_property
    def _first_moves(self):
        """Per simplex, the count of the extensions of the simplices before,
        and last the count of all."""
        return list(accumulate((self.n - s[-1] for s in self.simplices), initial=0))

    def move(self, k):
        """The extension of the (d+2)-set at bit k of table(n, d+1): the
        extensions of the simplices in turn list every (d+2)-set of [n]
        once, in lexicographic order."""
        first = self._first_moves
        i = bisect_right(first, k) - 1
        return self.row(i)[3][k - first[i]]

    def flips(self, mask):
        """(cand, low, up, k) for each increasing flip of the mask, in
        lexicographic order of cand."""
        return [f for i in bits(mask) for f in self.row(i)[3]
                if mask & f[1] == f[1]]

    def split(self, cand):
        """(low, up) masks of a (d+2)-set of [n], given as a sorted tuple."""
        i = self.index.get(cand[:-1])
        if i is None or cand[-1] > self.n:
            raise ValueError("%r is not a (d+2)-set of [%d]" % (cand, self.n))
        _, low, up, _ = self.row(i)[3][cand[-1] - cand[-2] - 1]
        return low, up

    # contract_last, insert_bottom, insert_top and the connecting sets as
    # index maps: per simplex of one table, its image as a bit of the other
    # (0 for none), so a map takes a mask by one OR over its members.

    @cached_property
    def _contraction(self):
        """Into table(n-1, d): label n moved to n - 1, 0 if both are held."""
        n = self.n
        if n < self.d + 2:
            raise ValueError("nothing to contract")
        index = table(n - 1, self.d).index
        return [0 if s[-2:] == (n - 1, n) else 1 << index[s[:-1] + (min(s[-1], n - 1),)]
                for s in self.simplices]

    def contract(self, mask):
        """contract_last of a mask, a mask of table(n-1, d)."""
        return _image(mask, self._contraction)

    @cached_property
    def _insertion(self):
        """From table(n-1, d): each simplex as it is (bottom) and with label
        n - 1 moved to n (top); then the star of n in bottom(n, d), its
        members with label n, and the cap, the members of top(n, d) with
        labels n - 1 and n."""
        n, index, holders = self.n, self.index, self.holders
        old = table(n - 1, self.d).simplices
        return ([1 << index[s] for s in old],
                [1 << index[s[:-1] + (n if s[-1] == n - 1 else s[-1],)] for s in old],
                self.bottom.mask & holders[n],
                self.top.mask & holders[n - 1] & holders[n])

    def insert(self, mask, at_top):
        """insert_bottom (insert_top if at_top) of a mask of table(n-1, d)."""
        low, high, star, cap = self._insertion
        return cap | _image(mask, high) if at_top else star | _image(mask, low)

    @cached_property
    def _widening(self):
        """Into table(n, d+1): A~ widens the simplices holding n but not
        n - 1 by n - 1, B~ those ending in n - 1 by n."""
        n = self.n
        index = table(n, self.d + 1).index if n > self.d + 1 else None
        return ([1 << index[s[:-1] + (n - 1, n)] if s[-1] == n and s[-2] != n - 1 else 0
                 for s in self.simplices],
                [1 << index[s + (n,)] if s[-1] == n - 1 else 0 for s in self.simplices])

    def connecting(self, mask):
        """The connecting sets A~ and B~ of a mask, masks of table(n, d+1)."""
        a, b = self._widening
        return _image(mask, a), _image(mask, b)

    def green(self, mask):
        """Whether a mask is green: it holds the terminal simplex, the last
        d + 1 labels and so the last simplex, iff d is odd."""
        return (mask >> (len(self.simplices) - 1)) & 1 == self.d % 2

    @cached_property
    def _middle(self):
        """(cells, holders): the mask of the middle cells, the (ceil(d/2)+1)-
        subsets of [n] in lexicographic order, and holders[v] that of those
        holding label v; counted first by the size guard, never listed."""
        size = (self.d + 1) // 2 + 1
        _size_guard(self.n, self.d, size)
        return (1 << comb(self.n, size)) - 1, _holders(self.n, size)

    def submersion(self, mask):
        """The submersion mask of a mask: the middle cells that no member
        denies, the complement of the OR of the members' deny masks.

        A d-simplex s denies the cell c iff some (floor(d/2)+1)-face b of s
        interleaves c: b0<c0<b1<...<bk<ck for even d, c0<b0<...<bk<c(k+1)
        for odd d (Oppermann-Thomas 2012; Williams 2023).  These are the
        alternating sequences of d + 2 labels ending in c (_alternating): they
        take all ceil(d/2)+1 labels of c and floor(d/2)+1 of s, a face."""
        cells, holders = self._middle
        denies, d = self._denies, self.d
        deny = 0
        for i in bits(mask):
            m = denies[i]
            if m is None:
                m = denies[i] = _alternating(self.simplices[i], holders, cells, d + 2)[1]
            deny |= m
        return cells & ~deny


def _alternating(s, holders, start, length):
    """(mine, theirs): the members of start, given by the masks holders[v]
    of those holding label v (0 <= v <= n), with `length` labels
    x_1 < x_2 < ... alternating between s and the member, ending in s
    (mine) or in the member (theirs); a label of both may play either part.
    oracles.zig_zag_admissible's scan for every member at once: after label
    x, mine[j] (theirs[j]) masks those with such j labels ending in s (in
    the member); only the j with j + n - x >= length can reach length."""
    n = len(holders) - 1
    mine = [start] + [0] * length
    theirs = mine[:]
    for x, h in enumerate(holders):
        # longest first, so each j reads the j - 1 of label x - 1
        span = range(min(x, length), max(0, x + length - 1 - n), -1)
        if x in s:
            for j in span:
                mine[j] |= theirs[j - 1]
                theirs[j] |= mine[j - 1] & h
        else:
            for j in span:
                theirs[j] |= mine[j - 1] & h
    return mine[length], theirs[length]


def _holders(n, size):
    """Per label v, 0 <= v <= n, the mask of the size-subsets of [n] (in
    lexicographic order) holding v, grown by whole-mask shifts and ORs: the
    j-subsets of {a..n} list a before each (j-1)-subset of {a+1..n}, then
    the j-subsets of {a+1..n}.  Only the j > size - a reach size, and those
    j-subsets of {a..n} number at most C(n, size)."""
    masks = [[0] * (n + 1) for _ in range(size + 1)]  # masks[j]: j-subsets of {a..n}
    for a in range(n, 0, -1):
        for j in range(min(size, n + 1 - a), max(0, size - a), -1):   # masks[j - 1]: a + 1's
            with_a = comb(n - a, j - 1)
            row = [(m << with_a) | low for m, low in zip(masks[j], masks[j - 1])]
            row[a] = (1 << with_a) - 1
            masks[j] = row
    return masks[size]


def _facets(s):
    """The facets of a simplex, dropping its labels first to last."""
    return [s[:k] + s[k + 1:] for k in range(len(s))]


def _size_guard(n, d, *sizes):
    """For C(n, d): raises ResourceBudgetError (size_guard) when the subsets
    of [n] of one of the sizes number more than DEFAULT_ENUM_CAP."""
    for k in sizes:
        count = comb(n, k)
        if count > DEFAULT_ENUM_CAP:
            raise ResourceBudgetError(
                "C(%d, %d): %d vertex sets of size %d exceed the size bound %d"
                % (n, d, count, k, DEFAULT_ENUM_CAP),
                "size_guard", DEFAULT_ENUM_CAP, count, "C(%d, %d)" % (n, d))


def table(n, d):
    """The lookup table of C(n, d), built on first use.  Before building
    anything, raises ResourceBudgetError when the d- or (d+1)-simplices of
    [n], or the d-subsets (its facets), number more than DEFAULT_ENUM_CAP."""
    got = _table_cache.get((n, d))
    if got is None:
        if n < d + 1 or d < 1:
            raise ValueError("need n >= d+1 >= 2")
        _size_guard(n, d, d + 1, d + 2, d)
        got = _table_cache[(n, d)] = _Table(n, d)
    return got


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
    if not t.mask:
        return Violation("empty", t, "no simplices")
    return table(n, d).violation(t.mask)


def make_triangulation(simplices, n, d):
    """Validating constructor; raises on the first violation."""
    t = Triangulation(n, d, simplices)
    v = validate(t, n, d)
    if v is not None:
        raise ValueError("invalid triangulation (%s): %s" % (v.rule, v.message))
    return t


def bottom(n, d):
    """The triangulation by lower facets of C(n, d+1); least element of the
    flip order."""
    return table(n, d).bottom


def top(n, d):
    """The triangulation by upper facets of C(n, d+1); greatest element."""
    return table(n, d).top


def increasing_flips(t):
    """All (d+2)-subsets whose lower facets all lie in t, in lexicographic
    order; each is a valid upward bistellar move."""
    return [f[0] for f in table(t.n, t.d).flips(t.mask)]


def apply_flip(t, cand):
    """Replace the lower facets of cand by its upper facets."""
    cand = simplex(cand)
    if len(cand) != t.d + 2:
        raise ValueError("flip simplex needs d+2 vertices")
    tab = table(t.n, t.d)
    low, up = tab.split(cand)
    if t.mask & low != low:
        raise ValueError("%r is not an increasing flip of this triangulation" % (cand,))
    return tab.triangulation((t.mask ^ low) | up)


def contract_last(t):
    """Contract vertex n onto n-1: keep members avoiding n, and slide the
    link of n over to n-1 where that does not collapse the simplex."""
    if t.n < t.d + 2:
        raise ValueError("nothing to contract")
    return table(t.n - 1, t.d).triangulation(table(t.n, t.d).contract(t.mask))


def insert_bottom(t):
    """Extend a triangulation of C(n-1, d) to C(n, d) by coning the new last
    vertex from below (adds the star of n in bottom(n, d))."""
    tab = table(t.n + 1, t.d)
    return tab.triangulation(tab.insert(t.mask, False))


def insert_top(t):
    """Extend to C(n, d) by pushing the old last vertex's star up to the new
    vertex and capping with the top star of {n-1, n}."""
    tab = table(t.n + 1, t.d)
    return tab.triangulation(tab.insert(t.mask, True))


def terminal_simplex(n, d):
    """The last d+1 labels {n-d, ..., n}."""
    return tuple(range(n - d, n + 1))


GREEN = "green"
RED = "red"


def color(t):
    """Two-coloring by membership of the terminal simplex: green iff the
    parity of d and the membership disagree in the fixed pattern (even d:
    green = absent; odd d: green = present)."""
    return GREEN if table(t.n, t.d).green(t.mask) else RED


def submersion_mask(t):
    """Bitmask over the middle cells of [n] (the (ceil(d/2)+1)-subsets, in
    lexicographic order) marking those submerged under t: the cells no
    member of t denies (_Table.submersion)."""
    return table(t.n, t.d).submersion(t.mask)
