"""Exact geometry on the moment curve.

There are no floats anywhere.  The production path is integer only: the
normalized volumes and the hull of C(n, d) (its facets found by orientation
signs) are Vandermonde determinants, computed by one fraction-free Bareiss
elimination, `_det`.  The rest is the oracle side that tests check the
combinatorial rules against, and the only place `fractions.Fraction`
appears: an exact two-phase simplex solver (Bland's rule, so termination is
unconditional) and cached per-simplex data (lift functionals, barycentric
halfspace systems, solved by Cramer's rule over `_det`) that turn
relative-height and submersion queries into very small LPs.
"""

from fractions import Fraction
from itertools import combinations

from .simplices import simplex

BELOW = "below"
ABOVE = "above"
EQUAL = "equal"
INCOMPARABLE = "incomparable"
CROSSING = "crossing"

_lift_cache = {}
_bary_cache = {}
_pair_height_cache = {}
_pair_submerged_cache = {}
_volume_cache = {}


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
    """|det| of the edge-vector matrix of a d-simplex on the moment curve.

    Equals the Vandermonde product prod_{i<j}(s_j - s_i), which the tests
    use as the independent route.
    """
    s = simplex(s)
    if len(s) != d + 1:
        raise ValueError("normalized volume needs a full-dimensional simplex")
    key = (s, d)
    v = _volume_cache.get(key)
    if v is None:
        p0 = moment_point(s[0], d)
        rows = [[moment_point(si, d)[k] - p0[k] for k in range(d)] for si in s[1:]]
        v = abs(_det(rows))
        _volume_cache[key] = v
    return v


def cyclic_volume(n, d):
    """Normalized volume of C(n, d), via the fan from vertex 1 over the hull
    facets that avoid it (independent of the gap-parity rule).

    A d-set F of {2..n} is a facet iff the orientation det[(1, m(f)) for f
    in F; (1, m(v))] has one nonzero sign over every other label v; a zero
    means "not a facet".  Its absolute value at v = 1 is the volume of the
    fan's simplex (1,) + F."""
    key = ("hull", n, d)
    v = _volume_cache.get(key)
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
    _volume_cache[key] = total
    return total


def _solve_linear(a_rows, rhs):
    """Solve A x = rhs for a square nonsingular int matrix A by Cramer's
    rule over _det.  Returns list[Fraction]."""
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

    def __eq__(self, other):
        return (self.gradient, self.offset) == (other.gradient, other.offset)

    def __repr__(self):
        return "AffineFunctional(%r, %r)" % (self.gradient, self.offset)


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
# Exact LP: two-phase simplex, Bland's rule.

class LpResult:
    __slots__ = ("status", "value", "point")

    def __init__(self, status, value=None, point=None):
        self.status = status  # "optimal" | "infeasible" | "unbounded"
        self.value = value
        self.point = point

    def __repr__(self):
        return "LpResult(%r, %r)" % (self.status, self.value)


def exact_lp(sense, objective, constraints, nonneg=False):
    """Solve min/max objective . x (+ const) over the given constraints.

    sense: "min" | "max".
    objective: sequence of coefficients, or (coefficients, constant).
    constraints: iterable of (coefficients, rel, rhs) with rel in
      "<=", ">=", "==".
    nonneg: if True the variables are x >= 0; otherwise free (handled by
      splitting x = x+ - x-).

    Infeasible/unbounded are reported as result statuses, not exceptions.
    """
    if isinstance(objective, tuple) and len(objective) == 2 \
            and not isinstance(objective[0], (int, Fraction)):
        obj_coeffs, obj_const = objective
    else:
        obj_coeffs, obj_const = objective, 0
    obj_coeffs = [Fraction(c) for c in obj_coeffs]
    obj_const = Fraction(obj_const)
    nvar = len(obj_coeffs)
    if sense not in ("min", "max"):
        raise ValueError("sense must be 'min' or 'max'")
    flip = sense == "min"
    if flip:
        obj_coeffs = [-c for c in obj_coeffs]

    # expand to nonnegative variables
    if nonneg:
        width = nvar
        def expand(coeffs):
            return [Fraction(c) for c in coeffs]
    else:
        width = 2 * nvar
        def expand(coeffs):
            row = []
            for c in coeffs:
                c = Fraction(c)
                row.append(c)
                row.append(-c)
            return row

    rows = []
    for coeffs, rel, rhs in constraints:
        if len(coeffs) != nvar:
            raise ValueError("constraint arity mismatch")
        rows.append((expand(coeffs), rel, Fraction(rhs)))
    cobj = expand(obj_coeffs)

    # standard form with slacks
    nslack = sum(1 for _, rel, _ in rows if rel != "==")
    total = width + nslack
    a = []
    b = []
    si = 0
    for coeffs, rel, rhs in rows:
        row = list(coeffs) + [Fraction(0)] * nslack
        if rel == "<=":
            row[width + si] = Fraction(1)
            si += 1
        elif rel == ">=":
            row[width + si] = Fraction(-1)
            si += 1
        elif rel != "==":
            raise ValueError("bad relation %r" % (rel,))
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        a.append(row)
        b.append(rhs)

    m = len(a)
    # phase 1: artificial basis
    tab = [a[r] + [Fraction(1) if c == r else Fraction(0) for c in range(m)]
           + [b[r]] for r in range(m)]
    basis = [total + r for r in range(m)]
    cols = total + m

    def pivot(r, c):
        pr = tab[r]
        pv = pr[c]
        if pv != 1:
            tab[r] = pr = [x / pv for x in pr]
        for rr in range(m):
            if rr != r and tab[rr][c] != 0:
                f = tab[rr][c]
                row = tab[rr]
                tab[rr] = [x - f * y for x, y in zip(row, pr)]
        basis[r] = c

    def optimize(costs, limit):
        # maximize costs . x, Bland's rule; returns True, or False if
        # unbounded.  Entering columns are restricted to < limit so phase 2
        # can never re-admit an artificial.
        while True:
            red = list(costs)
            for r in range(m):
                cb = costs[basis[r]]
                if cb != 0:
                    row = tab[r]
                    for c in range(cols):
                        if row[c] != 0:
                            red[c] -= cb * row[c]
            enter = next((c for c in range(limit) if red[c] > 0), None)
            if enter is None:
                return True
            leave = None
            best = None
            for r in range(m):
                arc = tab[r][enter]
                if arc > 0:
                    ratio = tab[r][cols] / arc
                    if best is None or ratio < best or \
                            (ratio == best and basis[r] < basis[leave]):
                        best = ratio
                        leave = r
            if leave is None:
                return False
            pivot(leave, enter)

    phase1 = [Fraction(0)] * total + [Fraction(-1)] * m
    optimize(phase1, total)
    if any(tab[r][cols] != 0 for r in range(m) if basis[r] >= total):
        return LpResult("infeasible")
    # drive leftover zero-valued artificials out of the basis; rows with no
    # real entry are redundant and stay inert
    for r in range(m):
        if basis[r] >= total:
            c = next((c for c in range(total) if tab[r][c] != 0), None)
            if c is not None:
                pivot(r, c)

    phase2 = list(cobj) + [Fraction(0)] * (total - width + m)
    if not optimize(phase2, total):
        return LpResult("unbounded")
    xs = [Fraction(0)] * total
    for r in range(m):
        if basis[r] < total:
            xs[basis[r]] = tab[r][cols]
    if nonneg:
        point = xs[:nvar]
    else:
        point = [xs[2 * i] - xs[2 * i + 1] for i in range(nvar)]
    value = sum(c * x for c, x in zip(obj_coeffs, point)) + obj_const * (-1 if flip else 1)
    if flip:
        value = -value
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
        funcs = []
        for b in range(d + 1):
            rhs = [1 if c == b else 0 for c in range(d + 1)]
            sol = _solve_linear(mat, rhs)
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
    if out in (BELOW, ABOVE):
        rev = ABOVE if out == BELOW else BELOW
        _pair_height_cache[(s2, s1, d)] = rev
    elif out in (EQUAL, INCOMPARABLE, CROSSING):
        _pair_height_cache[(s2, s1, d)] = out
    return out


def _submersion_pair(sigma, s, d):
    """'ok' if s never forces sigma's lift above the section over their
    overlap (or no full-dim overlap); 'violate' otherwise."""
    key = (sigma, s, d)
    out = _pair_submerged_cache.get(key)
    if out is not None:
        return out
    if not _range_overlap(sigma, s) or _is_subset(sigma, s) \
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


def _is_subset(small, big):
    return set(small) <= set(big)


def submerged(sigma, members, d):
    """Whether the lift of simplex sigma lies weakly below the section
    determined by the d-simplices `members` everywhere over conv(sigma)."""
    sigma = simplex(sigma)
    if len(sigma) > d + 1:
        raise ValueError("sigma has too many vertices for dimension %d" % d)
    members = [simplex(s) for s in members]
    for s in members:
        if _is_subset(sigma, s):
            return True
    for s in members:
        if _submersion_pair(sigma, s, d) == "violate":
            return False
    return True


# ---------------------------------------------------------------------------
# Intersection oracle (independent of the zig-zag rule).

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
    nv = k1 + k2
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


def clear_caches():
    """Drop all memoized geometric data (mainly for tests)."""
    _lift_cache.clear()
    _bary_cache.clear()
    _pair_height_cache.clear()
    _pair_submerged_cache.clear()
    _volume_cache.clear()
