"""Order complexes and exact integral homology.

Chains of a finite poset become simplices (vertex set = poset elements); the
boundary matrices are reduced over the integers, so Betti numbers and torsion
are exact.  They are reduced from the top dimension down, each by one
column reduction against +-1 pivots, which leaves it equivalent to an
identity block beside a small residual; a face that is a pivot row one
dimension up gets no column (clearing), and a dense Smith normal form of the
residual gives the rest of the rank and the torsion.  Poset homology is
computed on the core, what is left after repeatedly removing beat points,
which keeps the homotopy type (Stong 1966; Barmak 2011).  The reduced Euler
characteristic is mu(0, 1) of the unreduced poset with bounds adjoined
(Hall's theorem), so the core's Betti numbers are cross-checked against the
Mobius function across the reduction.  The core and mu come from `posets`;
this module reads only `up` and `down`.

The empty face is kept as a dimension -1 simplex throughout, which makes all
homology reduced and gives the empty complex H~_{-1} = Z.  The tests build
complexes from their facets with `oracles.complex_from_maximal`.
"""

import json
from heapq import heapify, heappop, heappush
from itertools import accumulate

from .posets import ResourceBudgetError, interval_poset, poset_core
from .simplices import bits

DEFAULT_FACE_BUDGET = 2 * 10 ** 6


class SimplicialComplex:
    """Explicit face list graded by dimension (including the empty face).

    faces_by_dim maps dim -> sorted list of vertex-index tuples.
    """

    def __init__(self, faces_by_dim):
        self.faces_by_dim = {k: sorted(v) for k, v in faces_by_dim.items() if v}
        if -1 not in self.faces_by_dim:
            self.faces_by_dim[-1] = [()]

    def counts(self):
        """Face counts per dimension, empty face included at -1."""
        return {k: len(v) for k, v in sorted(self.faces_by_dim.items())}

    def euler_reduced(self):
        c = self.counts()
        return sum((-1) ** k * c[k] for k in c if k >= 0) - 1


def chain_counts(p):
    """Number of chains per size (index = number of elements; entry 0 is the
    empty chain), counted size by size without materializing any chain: the
    chains of size k + 1 with top x number the sum, over the y below x, of
    the chains of size k with top y, up to the first size with none.  Each
    size is one pass over the strict down-sets, read once as tuples.  A Baues
    core keeps nearly all of its poset; there reading the rows costs most."""
    below = [tuple(bits(d ^ (1 << x))) for x, d in enumerate(p.down)]
    counts = [1]
    top = [1] * len(below)
    while any(top):
        counts.append(sum(top))
        top = [sum(map(top.__getitem__, row)) for row in below]
    return counts


def order_complex(p, budget=None):
    """All chains of the poset as a simplicial complex on element indices.
    Raises before building anything when the face count crosses the
    budget, naming the dimension that blew up."""
    if budget is None:
        budget = DEFAULT_FACE_BUDGET
    for size, total in enumerate(accumulate(chain_counts(p))):
        if total > budget:
            raise ResourceBudgetError(
                "face budget %d exceeded at dimension %d" % (budget, size - 1),
                "face_budget", budget, total, "dimension %d" % (size - 1))
    # positions are a linear extension: each size's chains are the last
    # size's, each grown by every position above its top, in lexicographic order
    above = [tuple(bits(u ^ (1 << x))) for x, u in enumerate(p.up)]
    by_dim = {-1: [()]}
    faces = [(x,) for x in range(len(above))]
    while faces:
        by_dim[len(faces[0]) - 1] = faces
        faces = [f + (y,) for f in faces for y in above[f[-1]]]
    return SimplicialComplex(by_dim)


# ---------------------------------------------------------------------------
# Smith normal form.

def _boundary_columns(upper, index_low):
    """The boundary column of each face of upper, one at a time: row
    index_low[sub] holds the sign of the face with sub's missing vertex."""
    for f in upper:
        col = {}
        for i in range(len(f)):
            col[index_low[f[:i] + f[i + 1:]]] = 1 if i % 2 == 0 else -1
        yield col


def _clear(col, pivots):
    """Subtract pivot columns from col until it holds no pivot row.  pivots
    maps a pivot row to (its rank, its column, scaled to 1 there).  A pivot
    column holds no row of an earlier pivot, so clearing the present pivot
    rows earliest first never brings back one already cleared."""
    heap = [(pivots[r][0], r) for r in col if r in pivots]
    heapify(heap)
    while heap:
        r = heappop(heap)[1]
        f = col.get(r)
        if f is None:
            continue
        for rr, v in pivots[r][1].items():
            nv = col.get(rr, 0) - f * v
            if not nv:
                del col[rr]
                continue
            if rr not in col and rr in pivots:
                heappush(heap, (pivots[rr][0], rr))
            col[rr] = nv


def _reduce_units(cols):
    """Column reduction against +-1 pivots; returns (unit rank, residual,
    the set of pivot rows).

    Each column in turn is cleared against the pivots before it; its first
    +-1 row then becomes a pivot, or else a nonzero column is kept, and a
    zero column is dropped.  The kept columns are cleared at the end
    against every pivot, so the matrix is equivalent to a unit-triangular
    block (the pivots) beside the residual, whose rows are all non-pivot
    rows.  Only the pivot rows are returned, so the pivot columns are freed
    on return."""
    pivots = {}
    kept = []
    for col in cols:
        _clear(col, pivots)
        r = next((r for r, v in col.items() if v in (1, -1)), None)
        if r is not None:
            if col[r] == -1:
                for rr in col:
                    col[rr] = -col[rr]
            pivots[r] = (len(pivots), col)
        elif col:
            kept.append(col)
    for col in kept:
        _clear(col, pivots)
    rows = {r: i for i, r in enumerate(sorted({r for col in kept for r in col}))}
    dense = [[0] * len(kept) for _ in rows]
    for j, col in enumerate(kept):
        for r, v in col.items():
            dense[rows[r]][j] = v
    return len(pivots), dense, set(pivots)


def _dense_snf(a):
    """Invariant factors (positive, each dividing the next) of a small dense
    integer matrix.  Each round moves an entry of least absolute value to
    the corner and reduces the corner's row and column by it; a nonzero
    remainder is a smaller entry for the next round.  Once both are clear,
    the corner is recorded and its row and column dropped if it divides
    every entry left; otherwise a row it does not divide is added to its
    row, where the next round leaves a remainder.  A recorded factor divides
    all that is left, so the factors come out in divisibility order."""
    a = [row[:] for row in a]
    factors = []
    while True:
        nonzero = [(abs(v), i, j) for i, row in enumerate(a)
                   for j, v in enumerate(row) if v]
        if not nonzero:
            return factors
        _, i, j = min(nonzero)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        top, p = a[0], a[0][0]
        for row in a[1:]:
            q = row[0] // p
            for c, v in enumerate(top):
                row[c] -= q * v
        for c in range(1, len(top)):
            q = top[c] // p
            for row in a:
                row[c] -= q * row[0]
        if any(top[1:]) or any(row[0] for row in a[1:]):
            continue
        rest = next((row for row in a[1:] if any(v % p for v in row)), None)
        if rest is None:
            factors.append(abs(p))
            a = [row[1:] for row in a[1:]]
        else:
            for c, v in enumerate(rest):
                top[c] += v


class HomologyResult:
    """Reduced integral homology: betti[k] and torsion[k] per dimension."""

    def __init__(self, betti, torsion, euler):
        self.betti = dict(betti)
        self.torsion = {k: tuple(v) for k, v in torsion.items() if v}
        self.euler = euler

    def groups(self):
        """Nontrivial part only: {dim: (betti, torsion tuple)}."""
        out = {}
        for k in sorted(set(self.betti) | set(self.torsion)):
            b = self.betti.get(k, 0)
            t = self.torsion.get(k, ())
            if b or t:
                out[k] = (b, t)
        return out

    def is_trivial(self):
        return not self.groups()

    def is_sphere(self, k):
        return self.groups() == {k: (1, ())}

    def betti_euler(self):
        return sum((-1) ** k * b for k, b in self.betti.items() if k >= 0) - \
            self.betti.get(-1, 0)

    def to_json(self, extra=None):
        dims = {}
        top = max([k for k in self.betti] + [0])
        for k in range(-1, top + 1):
            b = self.betti.get(k, 0)
            t = list(self.torsion.get(k, ()))
            if k >= 0 or b or t:
                dims[str(k)] = {"betti": b, "torsion": t}
        doc = {"dims": dims, "euler": self.euler}
        if extra:
            doc.update(extra)
        return json.dumps(doc, separators=(",", ":"), sort_keys=True)

    def __eq__(self, other):
        return isinstance(other, HomologyResult) and self.groups() == other.groups()

    def __repr__(self):
        g = self.groups()
        if not g:
            return "HomologyResult(trivial)"
        parts = []
        for k, (b, t) in g.items():
            s = "Z^%d" % b if b != 1 else "Z"
            if b == 0:
                s = ""
            for d in t:
                s += ("+" if s else "") + "Z/%d" % d
            parts.append("H~%d=%s" % (k, s))
        return "HomologyResult(%s)" % ", ".join(parts)


def homology(k_complex):
    """Reduced integral homology of an explicit complex via Smith normal form.

    The boundaries are reduced from the top dimension down, and a k-face
    that is a pivot row of the reduced (k+1)-boundary gets no column
    (clearing; Chen and Kerber 2011).  Each reduced pivot column is a
    boundary, hence a cycle; it holds 1 in its pivot row and no row of an
    earlier pivot, so on the pivot rows these columns form a unit-triangular
    block.  Swapping them for the unit vectors of their rows is thus a
    unimodular change of basis of the k-chains, under which the k-boundary
    sends them to zero: dropping the columns of those rows keeps its rank
    and its invariant factors."""
    euler = k_complex.euler_reduced()
    faces = k_complex.faces_by_dim
    top = max(faces)
    rank = {}
    invf = {}
    cleared = set()
    for k in range(top, -1, -1):
        upper = faces.get(k, [])
        index_low = {f: i for i, f in enumerate(faces.get(k - 1, []))}
        cols = _boundary_columns(
            (f for i, f in enumerate(upper) if i not in cleared), index_low)
        units, residual, cleared = _reduce_units(cols)
        invf[k] = _dense_snf(residual)
        rank[k] = units + len(invf[k])
    betti = {}
    torsion = {}
    for k in range(-1, top + 1):
        fk = len(faces.get(k, []))
        betti[k] = fk - rank.get(k, 0) - rank.get(k + 1, 0)
        torsion[k] = [d for d in invf.get(k + 1, []) if d > 1]
        if betti[k] < 0:
            raise AssertionError("negative betti number at dimension %d" % k)
    res = HomologyResult(betti, torsion, euler)
    if res.betti_euler() != euler:
        raise AssertionError("betti alternating sum disagrees with face counts")
    return res


def poset_homology(p, budget=None):
    """Reduced integral homology of the order complex of p.  Betti numbers
    and torsion come from the core, whose order complex is the only one
    built (and bounded by the face budget); the reduced Euler characteristic
    is mu(0, 1) of p with bounds adjoined and must agree with them."""
    euler = p.hall_mobius()
    core = homology(order_complex(poset_core(p), budget))
    if core.betti_euler() != euler:
        raise AssertionError("core betti numbers give euler %d, the Mobius "
                             "function of the poset gives %d"
                             % (core.betti_euler(), euler))
    return HomologyResult(core.betti, core.torsion, euler)


# ---------------------------------------------------------------------------
# Certificates.

def sphere_certificate(p_proper, k, budget=None):
    """Homology-level sphere check for the proper part of a bounded poset.

    Two routes must agree: the core's reduced homology is Z in dimension k
    and zero elsewhere, and the Mobius function of the whole poset with
    bounds adjoined, which is its reduced Euler characteristic, is (-1)^k.
    poset_homology raises when the core's Betti numbers and mu disagree.
    """
    hom = poset_homology(p_proper, budget)
    mob = hom.euler
    expected = -1 if k % 2 else 1
    reasons = []
    if not hom.is_sphere(k):
        reasons.append("homology is %r, not that of S^%d" % (hom, k))
    if mob != expected:
        reasons.append("mobius %d != (-1)^%d" % (mob, k))
    return {"pass": not reasons, "k": k, "homology": hom, "euler": hom.euler,
            "mobius": mob, "reasons": reasons,
            "certificate": "homology-level"}


def suspension_compare(l_poset, budget=None):
    """Check that proper Int(L) has the suspension homology of proper L, and
    that full Int(L) matches L itself (both are cones, hence trivial)."""
    hom_proper = poset_homology(l_poset.proper_part(), budget)
    hom_int_proper = poset_homology(interval_poset(l_poset, "proper"), budget)
    hom_full = poset_homology(l_poset, budget)
    hom_int_full = poset_homology(interval_poset(l_poset, "all"), budget)
    # H~_{k+1} of proper Int(L) is H~_k of proper L, for every k >= -1
    shift_ok = hom_int_proper.groups() == {k + 1: v for k, v in hom_proper.groups().items()}
    full_ok = hom_full == hom_int_full and hom_full.is_trivial()
    return {"pass": shift_ok and full_ok,
            "shift_ok": shift_ok, "full_ok": full_ok,
            "proper": hom_proper, "interval_proper": hom_int_proper,
            "certificate": "homology-level"}


def webb_reduction_check(l_poset, budget=None):
    """Drop from proper Int(L) every interval whose open part has trivial
    reduced homology and Mobius value zero; the survivors must still contain
    all coatomic intervals and carry the homology of the whole interval poset.
    The open part's Euler characteristic is mu(i, j) (Hall's theorem).
    """
    w = l_poset.is_lattice()
    if w is not True:
        raise ValueError("webb reduction needs a lattice: %r" % (w,))
    intp = interval_poset(l_poset, "proper")
    keep = set()
    for idx, (i, j) in enumerate(intp.data):
        strict = l_poset.up[i] & l_poset.down[j] & ~(1 << i) & ~(1 << j)
        hom = poset_homology(l_poset.restrict(bits(strict)), budget)
        if hom.euler != 0 or not hom.is_trivial():
            keep.add(idx)
    coatomic = {z for z, (i, j) in enumerate(intp.data) if l_poset.is_coatomic(i, j)}
    contains = coatomic <= keep
    hom_full = poset_homology(intp, budget)
    hom_surv = poset_homology(intp.restrict(keep), budget)
    match = hom_full == hom_surv
    return {"pass": contains and match,
            "removed": len(intp.elements) - len(keep),
            "survivors": len(keep),
            "contains_coatomic": contains,
            "survivors_equal_coatomic": keep == coatomic,
            "homology_match": match,
            "homology": hom_full,
            "certificate": "homology-level"}
