"""Reference implementations that tests and `oracle-crosscheck` check the
production rules against.  No production module imports this one, so a CLI
process loads it (and `fractions`) only for `oracle-crosscheck`.

Each oracle reaches its answer by a route independent of the rule it checks:

- `exact_lp`, an exact two-phase simplex (Bland's rule, so termination is
  unconditional) on an integer tableau;
- `_det`, a fraction-free Bareiss determinant, and `hull_volume`, the route
  to `geometry.cyclic_volume` by orientation signs, not Gale's evenness rule;
- per-simplex lift functionals and barycentric halfspace systems (Cramer's
  rule over `_det`) that turn relative-height, submersion and
  intersection queries into very small LPs: `submersion_set` is the LP route
  to `triangulations.submersion_mask`, `admissible_geometric` the LP route to
  `zig_zag_admissible`, the label-level conflict rule that
  `triangulations.table` builds its conflict masks from;
- `brute_force_triangulations` packs admissible simplices until the volume
  is exact, never flipping;
- `dissection_oracle_d2` generates the subdivisions of a polygon as
  noncrossing diagonal sets, and `refinement_leq` is the pairwise refinement
  test behind the Baues poset's mask rows;
- `lattice_witness_all_pairs` tests the meet and the join of every pair of
  a poset in key order, the scan `FinitePoset.is_lattice` replaces by the
  cover-pair lemma and bulk rows;
- `complex_from_maximal` closes a list of faces under subsets.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import lcm

from . import triangulations as tri
from .baues import Subdivision
from .geometry import moment_point, normalized_volume
from .simplices import simplex
from .topology import SimplicialComplex

BELOW = "below"
ABOVE = "above"
EQUAL = "equal"
INCOMPARABLE = "incomparable"
CROSSING = "crossing"

_lift_cache = {}
_bary_cache = {}
_pair_height_cache = {}
_pair_submerged_cache = {}


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


def hull_volume(n, d):
    """Normalized volume of C(n, d), via the fan from vertex 1 over the hull
    facets that avoid it: a d-set F of {2..n} is a facet iff the orientation
    det[(1, m(f)) for f in F; (1, m(v))] has one nonzero sign over every
    other label v, and its absolute value at v = 1 is the volume of (1,) + F."""
    points = [None] + [(1,) + moment_point(i, d) for i in range(1, n + 1)]
    total = 0
    for face in combinations(range(2, n + 1), d):
        rows = [points[f] for f in face]
        apex = _det(rows + [points[1]])
        if apex and all(_det(rows + [points[v]]) * apex > 0
                        for v in range(2, n + 1) if v not in face):
            total += abs(apex)
    return total


def _solve_linear(a_rows, rhs, den=None):
    """Solve A x = rhs for a square nonsingular int matrix A by Cramer's
    rule over _det; den, when given, is det(A).  Returns list[Fraction]."""
    if den is None:
        den = _det(a_rows)
    if den == 0:
        raise ValueError("singular system")
    return [Fraction(_det([list(row[:k]) + [b] + list(row[k + 1:])
                           for row, b in zip(a_rows, rhs)]), den)
            for k in range(len(a_rows))]


class AffineFunctional:
    """h(x) = gradient . x + offset with exact rational coefficients."""

    __slots__ = ("gradient", "offset")

    def __init__(self, gradient, offset):
        self.gradient = tuple(Fraction(g) for g in gradient)
        self.offset = Fraction(offset)

    def __call__(self, point):
        return sum(g * x for g, x in zip(self.gradient, point)) + self.offset


def lift_functional(s, d):
    """The unique affine h on R^d with h(moment_point(v)) = v^(d+1) for all
    v in the d-simplex s.  This is the facet functional of s's lift into
    C(n, d+1)."""
    s = simplex(s)
    if len(s) != d + 1:
        raise ValueError("lift functional needs d+1 vertices")
    key = (s, d)
    h = _lift_cache.get(key)
    if h is None:
        rows = [list(moment_point(v, d)) + [1] for v in s]
        rhs = [v ** (d + 1) for v in s]
        sol = _solve_linear(rows, rhs)
        h = AffineFunctional(sol[:d], sol[d])
        _lift_cache[key] = h
    return h


# ---------------------------------------------------------------------------
# Exact LP: two-phase simplex, Bland's rule, integer tableau.

# status is "optimal" | "infeasible" | "unbounded"
LpResult = namedtuple("LpResult", "status value point", defaults=(None, None))


def _scaled(values):
    """(L, [L * v for v in values]) for ints and Fractions, L the LCM of
    their denominators."""
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def exact_lp(sense, objective, constraints, nonneg=False):
    """Solve min/max objective . x (+ const) over the given constraints.

    sense: "min" | "max".
    objective: sequence of coefficients, or (coefficients, constant).
    constraints: iterable of (coefficients, rel, rhs) with rel in
      "<=", ">=", "==".
    nonneg: if True the variables are x >= 0; otherwise free (handled by
      splitting x = x+ - x-).
    Coefficients, constants and right-hand sides are ints or Fractions.

    Infeasible/unbounded are reported as result statuses, not exceptions;
    value and point are Fractions.

    The tableau is integer with one common denominator `den` > 0, and each
    pivot is a fraction-free Bareiss step (Math. Comp. 22, 1968), whose
    division by the previous pivot is exact.  Each constraint row is scaled
    by the LCM L_r of its denominators, which scales its slack and its
    artificial by L_r too; the phase-1 cost -L/L_r of that artificial (L
    the LCM of all L_r) is L times the unscaled cost, so every reduced cost
    keeps its sign and the pivots are those of the rational tableau.
    """
    if isinstance(objective, tuple) and len(objective) == 2 \
            and not isinstance(objective[0], (int, Fraction)):
        obj_coeffs, obj_const = objective
    else:
        obj_coeffs, obj_const = objective, 0
    nvar = len(obj_coeffs)
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    _, cobj = _scaled(obj_coeffs)
    if sense == "min":
        cobj = [-c for c in cobj]

    # expand to nonnegative variables
    width = nvar if nonneg else 2 * nvar

    def expand(coeffs):
        return coeffs if nonneg else [y for c in coeffs for y in (c, -c)]

    rows = []
    for coeffs, rel, rhs in constraints:
        if len(coeffs) != nvar:
            raise ValueError("constraint arity mismatch")
        scale, ints = _scaled(list(coeffs) + [rhs])
        rows.append((expand(ints[:-1]), rel, ints[-1], scale))

    # standard form with slacks
    nslack = sum(1 for row in rows if row[1] != "==")
    total = width + nslack
    m = len(rows)
    tab = []
    si = 0
    for r, (coeffs, rel, rhs, _) in enumerate(rows):
        row = coeffs + [0] * nslack
        if rel == "<=":
            row[width + si] = 1
            si += 1
        elif rel == ">=":
            row[width + si] = -1
            si += 1
        elif rel != "==":
            raise ValueError("bad relation %r" % (rel,))
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        # phase 1: artificial basis
        tab.append(row + [1 if c == r else 0 for c in range(m)] + [rhs])
    basis = [total + r for r in range(m)]
    cols = total + m
    den = 1

    def pivot(r, c):
        nonlocal den
        pr = tab[r]
        p = pr[c]
        if p < 0:
            tab[r] = pr = [-x for x in pr]
            p = -p
        for rr in range(m):
            if rr != r:
                row = tab[rr]
                f = row[c]
                if f:
                    tab[rr] = [(x * p - f * y) // den for x, y in zip(row, pr)]
                elif p != den:
                    tab[rr] = [x * p // den for x in row]
        den = p
        basis[r] = c

    def optimize(costs, limit):
        # maximize costs . x, Bland's rule; returns True, or False if
        # unbounded.  Entering columns are restricted to < limit so phase 2
        # can never re-admit an artificial.  Reduced costs are kept times den.
        while True:
            red = [c * den for c in costs[:limit]]
            for r in range(m):
                cb = costs[basis[r]]
                if cb != 0:
                    row = tab[r]
                    for c in range(limit):
                        if row[c] != 0:
                            red[c] -= cb * row[c]
            enter = next((c for c in range(limit) if red[c] > 0), None)
            if enter is None:
                return True
            leave = None
            for r in range(m):
                arc = tab[r][enter]
                if arc > 0:
                    if leave is None:
                        leave = r
                        continue
                    # ratio tab[r][cols] / arc against the best one so far
                    lhs = tab[r][cols] * tab[leave][enter]
                    rhs = tab[leave][cols] * arc
                    if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                        leave = r
            if leave is None:
                return False
            pivot(leave, enter)

    big = lcm(*(row[3] for row in rows))
    optimize([0] * total + [-(big // row[3]) for row in rows], total)
    if any(tab[r][cols] != 0 for r in range(m) if basis[r] >= total):
        return LpResult("infeasible")
    # drive leftover zero-valued artificials out of the basis; rows with no
    # real entry are redundant and stay inert
    for r in range(m):
        if basis[r] >= total:
            c = next((c for c in range(total) if tab[r][c] != 0), None)
            if c is not None:
                pivot(r, c)

    if not optimize(expand(cobj) + [0] * (total - width + m), total):
        return LpResult("unbounded")
    xs = [0] * total
    for r in range(m):
        if basis[r] < total:
            xs[basis[r]] = tab[r][cols]
    if not nonneg:
        xs = [xs[2 * i] - xs[2 * i + 1] for i in range(nvar)]
    point = [Fraction(x, den) for x in xs[:nvar]]
    value = sum((c * x for c, x in zip(obj_coeffs, point)), Fraction(obj_const))
    return LpResult("optimal", value, point)


# ---------------------------------------------------------------------------
# Cached per-simplex halfspace systems and the two intersection queries.

def _barycentric_rows(s, d):
    """Affine functionals beta_b with beta_b(vertex_c) = delta_{bc}; x lies in
    conv(s) iff all beta_b(x) >= 0.  Requires a full d-simplex."""
    key = (s, d)
    rows = _bary_cache.get(key)
    if rows is None:
        if len(s) != d + 1:
            raise ValueError("halfspace system needs a full-dimensional simplex")
        mat = [list(moment_point(v, d)) + [1] for v in s]
        den = _det(mat)
        funcs = []
        for b in range(d + 1):
            rhs = [1 if c == b else 0 for c in range(d + 1)]
            sol = _solve_linear(mat, rhs, den)
            funcs.append(AffineFunctional(sol[:d], sol[d]))
        rows = tuple(funcs)
        _bary_cache[key] = rows
    return rows


def _overlap_interior(sigma, s, d):
    """Max-slack LP: is conv(sigma) n conv(s) full-dimensional inside
    aff(sigma)?  sigma is an i-simplex, s a d-simplex, both label tuples."""
    betas = _barycentric_rows(s, d)
    pts = [moment_point(v, d) for v in sigma]
    k = len(sigma)
    # vars: lambda_0..lambda_{k-1}, eps  (all >= 0)
    nv = k + 1
    cons = [([1] * k + [0], "==", 1)]
    for a in range(k):
        row = [0] * nv
        row[a] = 1
        row[k] = -1
        cons.append((row, ">=", 0))
    for beta in betas:
        row = [beta(p) for p in pts] + [-1]
        cons.append((row, ">=", 0))
    obj = [0] * k + [1]
    res = exact_lp("max", obj, cons, nonneg=True)
    return res.status == "optimal" and res.value > 0


def _range_overlap(sigma, s):
    return sigma[0] < s[-1] and s[0] < sigma[-1]


def relative_height(s1, s2, d):
    """How the lift of d-simplex s1 sits relative to the lift of s2 over the
    interior of their common shadow: below / above / equal / crossing, or
    incomparable when the shadows share no interior."""
    s1 = simplex(s1)
    s2 = simplex(s2)
    if len(s1) != d + 1 or len(s2) != d + 1:
        raise ValueError("relative_height compares full-dimensional simplices")
    if s1 == s2:
        return EQUAL
    key = (s1, s2, d)
    out = _pair_height_cache.get(key)
    if out is not None:
        return out
    if not _range_overlap(s1, s2) or not _overlap_interior(s1, s2, d):
        out = INCOMPARABLE
    else:
        h2 = lift_functional(s2, d)
        pts = [moment_point(v, d) for v in s1]
        w = [h2(p) - v ** (d + 1) for p, v in zip(pts, s1)]  # h_{s2} - h_{s1}
        betas = _barycentric_rows(s2, d)
        k = len(s1)
        cons = [([1] * k, "==", 1)]
        for beta in betas:
            cons.append(([beta(p) for p in pts], ">=", 0))
        lo = exact_lp("min", w, cons, nonneg=True)
        hi = exact_lp("max", w, cons, nonneg=True)
        if lo.status != "optimal" or hi.status != "optimal":
            raise AssertionError("height LP must be feasible and bounded")
        mn, mx = lo.value, hi.value
        if mn == 0 and mx == 0:
            out = EQUAL
        elif mn >= 0:
            out = BELOW
        elif mx <= 0:
            out = ABOVE
        else:
            out = CROSSING
    _pair_height_cache[key] = out
    _pair_height_cache[(s2, s1, d)] = {BELOW: ABOVE, ABOVE: BELOW}.get(out, out)
    return out


def _submersion_pair(sigma, s, d):
    """'ok' if s never forces sigma's lift above the section over their
    overlap (or no full-dim overlap); 'violate' otherwise."""
    key = (sigma, s, d)
    out = _pair_submerged_cache.get(key)
    if out is not None:
        return out
    if not _range_overlap(sigma, s) or set(sigma) <= set(s) \
            or not _overlap_interior(sigma, s, d):
        out = "ok"
    else:
        hs = lift_functional(s, d)
        pts = [moment_point(v, d) for v in sigma]
        w = [v ** (d + 1) - hs(p) for p, v in zip(pts, sigma)]  # h_sigma - h_s
        betas = _barycentric_rows(s, d)
        k = len(sigma)
        cons = [([1] * k, "==", 1)]
        for beta in betas:
            cons.append(([beta(p) for p in pts], ">=", 0))
        hi = exact_lp("max", w, cons, nonneg=True)
        if hi.status != "optimal":
            raise AssertionError("submersion LP must be feasible and bounded")
        out = "ok" if hi.value <= 0 else "violate"
    _pair_submerged_cache[key] = out
    return out


def submerged(sigma, members, d):
    """Whether the lift of simplex sigma lies weakly below the section
    determined by the d-simplices `members` everywhere over conv(sigma)."""
    sigma = simplex(sigma)
    if len(sigma) > d + 1:
        raise ValueError("sigma has too many vertices for dimension %d" % d)
    members = [simplex(s) for s in members]
    if any(set(sigma) <= set(s) for s in members):
        return True
    for s in members:
        if _submersion_pair(sigma, s, d) == "violate":
            return False
    return True


def submersion_set(t, i):
    """The i-simplices of [n] whose lifts lie weakly under the section of
    the triangulation t, one exact LP query per simplex."""
    if not 0 <= i <= t.d:
        raise ValueError("submersion dimension out of range")
    cells = combinations(range(1, t.n + 1), i + 1)
    return frozenset(c for c in cells if submerged(c, t.simplices, t.d))


# ---------------------------------------------------------------------------
# Intersection: by an LP, and by the zig-zag rule on labels.

def admissible_geometric(s1, s2, d):
    """Exact test that conv(s1) n conv(s2) equals the hull of the shared
    vertices: maximize the barycentric mass placed outside the shared
    vertices over all common points; admissible iff that mass is 0 (or the
    hulls are disjoint)."""
    s1 = simplex(s1)
    s2 = simplex(s2)
    if len(s1) > d + 1 or len(s2) > d + 1:
        raise ValueError("simplices do not fit in dimension %d" % d)
    shared = set(s1) & set(s2)
    p1 = [moment_point(v, d) for v in s1]
    p2 = [moment_point(v, d) for v in s2]
    k1, k2 = len(s1), len(s2)
    cons = [([1] * k1 + [0] * k2, "==", 1), ([0] * k1 + [1] * k2, "==", 1)]
    for c in range(d):
        row = [p[c] for p in p1] + [-q[c] for q in p2]
        cons.append((row, "==", 0))
    obj = [0 if v in shared else 1 for v in s1] + \
          [0 if v in shared else 1 for v in s2]
    res = exact_lp("max", obj, cons, nonneg=True)
    if res.status == "infeasible":
        return True
    if res.status != "optimal":
        raise AssertionError("intersection LP cannot be unbounded")
    return res.value == 0


def zig_zag_admissible(s1, s2, d):
    """Whether two simplices intersect in a common (possibly empty) face
    when realized on the moment curve in dimension d.

    True iff there is no alternating path x_1 < ... < x_{d+2} whose odd
    positions lie in one simplex and even positions in the other.  A label
    present in both simplices may play either role.  Computed by a two-lane
    longest-alternating-path scan over the merged labels.
    """
    a = frozenset(s1)
    b = frozenset(s2)
    best1 = best2 = 0  # longest path ending in lane 1 / lane 2
    for x in sorted(a | b):
        n1 = best2 + 1 if x in a else 0
        n2 = best1 + 1 if x in b else 0
        if n1 > best1:
            best1 = n1
        if n2 > best2:
            best2 = n2
    return max(best1, best2) <= d + 1


# ---------------------------------------------------------------------------
# Enumerations and orders by independent routes.

def brute_force_triangulations(n, d, max_candidates=25):
    """Independent enumeration oracle: depth-first search for sets of
    pairwise-admissible d-simplices with exact total volume, validating each
    hit.  Guarded, since the search is exponential in the candidate count."""
    cands = list(combinations(range(1, n + 1), d + 1))
    if len(cands) > max_candidates:
        raise ValueError("%d candidate simplices exceed the guard %d"
                         % (len(cands), max_candidates))
    vols = [normalized_volume(s, d) for s in cands]
    target = hull_volume(n, d)
    ok = [[zig_zag_admissible(a, b, d) for b in cands] for a in cands]
    found = []

    def grow(start, chosen, remaining):
        if remaining == 0:
            if tri.validate(chosen, n, d) is None:
                found.append(tri.make_triangulation(chosen, n, d))
            return
        for k in range(start, len(cands)):
            if vols[k] <= remaining and all(ok[k][j] for j in chosen_idx):
                chosen_idx.append(k)
                grow(k + 1, chosen + [cands[k]], remaining - vols[k])
                chosen_idx.pop()

    chosen_idx = []
    grow(0, [], target)
    return tuple(sorted(found, key=lambda t: t.key()))


def _diagonals(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 2, n + 1)
            if not (i == 1 and j == n)]


def _crosses(a, b):
    return (a[0] < b[0] < a[1] < b[1]) or (b[0] < a[0] < b[1] < a[1])


def _regions(cycle, diags):
    if not diags:
        return [tuple(sorted(cycle))]
    (a, b) = diags[0]
    ia, ib = cycle.index(a), cycle.index(b)
    if ia > ib:
        ia, ib = ib, ia
    side1 = cycle[ia:ib + 1]
    side2 = cycle[ib:] + cycle[:ia + 1]
    rest = diags[1:]
    d1 = [d for d in rest if set(d) <= set(side1)]
    d2 = [d for d in rest if set(d) <= set(side2)]
    if len(d1) + len(d2) != len(rest):
        raise AssertionError("crossing diagonals in a noncrossing set")
    return _regions(side1, d1) + _regions(side2, d2)


def dissection_oracle_d2(n):
    """All proper subdivisions of a convex n-gon, generated independently as
    nonempty noncrossing diagonal sets split into regions."""
    if n < 4:
        raise ValueError("need at least a quadrilateral")
    diags = _diagonals(n)
    out = []

    def grow(chosen, start):
        if chosen:
            cells = _regions(list(range(1, n + 1)), chosen)
            out.append(Subdivision(n, 2, cells))
        for k in range(start, len(diags)):
            cand = diags[k]
            if all(not _crosses(cand, c) for c in chosen):
                grow(chosen + [cand], k + 1)

    grow([], 0)
    uniq = {s.key(): s for s in out}
    if len(uniq) != len(out):
        raise AssertionError("oracle generated a subdivision twice")
    return sorted(uniq.values(), key=lambda s: s.key())


def refinement_leq(d1, d2):
    """d1 refines d2: every cell of d1 is contained in a cell of d2."""
    if (d1.n, d1.d) != (d2.n, d2.d):
        raise ValueError("subdivisions live on different polytopes")
    return all(any(set(a) <= set(b) for b in d2.cells) for a in d1.cells)


def lattice_witness_all_pairs(p):
    """True, or a witness dict naming the first pair of the finite poset p,
    in key order, lacking a meet or a join: the meet and the join of every
    pair are tested, the meet first."""
    up, down = list(p.up), p.down
    order = p.by_key
    for r, x in enumerate(order):
        dx = down[x]
        ux = up[x]
        for y in order[r + 1:]:
            lows = dx & down[y]
            if not lows or down[lows.bit_length() - 1] != lows:
                return {"pair": (p.elements[x], p.elements[y]),
                        "missing": "meet"}
            ups = ux & up[y]
            if not ups or up[(ups & -ups).bit_length() - 1] != ups:
                return {"pair": (p.elements[x], p.elements[y]),
                        "missing": "join"}
    return True


def complex_from_maximal(faces):
    """Close a list of vertex-tuples under subsets."""
    verts = sorted({v for f in faces for v in f})
    ind = {v: i for i, v in enumerate(verts)}
    seen = set()
    by_dim = {}
    stack = [tuple(sorted(ind[v] for v in f)) for f in faces]
    for f in stack:
        if len(f) != len(set(f)):
            raise ValueError("repeated vertex in face %r" % (f,))
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        by_dim.setdefault(len(f) - 1, []).append(f)
        for i in range(len(f)):
            stack.append(f[:i] + f[i + 1:])
    return SimplicialComplex(by_dim)
