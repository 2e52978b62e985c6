"""Exact geometry and the exact LP oracle checked against floating-point
references.

scipy.optimize.linprog is the oracle for the simplex solver; numpy's
determinant and scipy's ConvexHull are the oracles for volumes.  All
comparisons cross an exact/float boundary, so they use tolerances.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from cyclictri.geometry import cyclic_volume, moment_point, normalized_volume
from cyclictri.oracles import (
    BELOW,
    ABOVE,
    EQUAL,
    INCOMPARABLE,
    CROSSING,
    _det,
    _solve_linear,
    exact_lp,
    hull_volume,
    lift_functional,
    relative_height,
    submerged,
)
from cyclictri.triangulations import bottom, make_triangulation, top


def _random_lp(rng):
    nvar = rng.randint(1, 4)
    ncon = rng.randint(1, 5)
    cons = []
    for _ in range(ncon):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(nvar)]
        rel = rng.choice(["<=", "<=", ">=", "=="])
        cons.append((coeffs, rel, Fraction(rng.randint(-6, 6))))
    obj = [Fraction(rng.randint(-4, 4)) for _ in range(nvar)]
    sense = rng.choice(["min", "max"])
    nonneg = rng.random() < 0.7
    return sense, obj, cons, nonneg


def _scipy_solve(sense, obj, cons, nonneg):
    nvar = len(obj)
    sign = 1 if sense == "min" else -1
    c = [sign * float(x) for x in obj]
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coeffs, rel, rhs in cons:
        row = [float(x) for x in coeffs]
        if rel == "<=":
            a_ub.append(row)
            b_ub.append(float(rhs))
        elif rel == ">=":
            a_ub.append([-x for x in row])
            b_ub.append(-float(rhs))
        else:
            a_eq.append(row)
            b_eq.append(float(rhs))
    bound = (0, None) if nonneg else (None, None)
    res = linprog(
        c,
        A_ub=a_ub or None,
        b_ub=b_ub or None,
        A_eq=a_eq or None,
        b_eq=b_eq or None,
        bounds=[bound] * nvar,
        method="highs",
    )
    if res.status == 2:
        return "infeasible", None
    if res.status == 3:
        return "unbounded", None
    assert res.status == 0, res
    return "optimal", sign * res.fun


def _check_against_scipy(sense, obj, cons, nonneg):
    """Status and value as scipy has them, the point exactly feasible.
    Returns whether the LP was optimal."""
    got = exact_lp(sense, obj, cons, nonneg=nonneg)
    want_status, want_value = _scipy_solve(sense, obj, cons, nonneg)
    assert got.status == want_status, (sense, obj, cons, nonneg)
    if want_status != "optimal":
        return False
    assert abs(float(got.value) - want_value) < 1e-7
    # returned point must satisfy every constraint exactly
    pt = got.point
    assert all(isinstance(x, Fraction) for x in pt)
    assert got.value == sum(c * x for c, x in zip(obj, pt))
    for coeffs, rel, rhs in cons:
        lhs = sum(c * x for c, x in zip(coeffs, pt))
        if rel == "<=":
            assert lhs <= rhs
        elif rel == ">=":
            assert lhs >= rhs
        else:
            assert lhs == rhs
    if nonneg:
        assert all(x >= 0 for x in pt)
    return True


def test_exact_lp_against_scipy_fuzz():
    rng = random.Random(20240817)
    checked = 0
    for _ in range(120):
        checked += _check_against_scipy(*_random_lp(rng))
    assert checked > 25  # the generator must not produce only degenerate LPs


def _fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def test_exact_lp_fractional_and_repeated_rows_against_scipy():
    # fractional coefficients and right-hand sides exercise the row scaling;
    # an equality row repeated (possibly rescaled) keeps a zero-valued
    # artificial in the basis after phase 1, which has to be driven out.
    # Most right-hand sides are set so a point x0 of the box is feasible.
    rng = random.Random(1968)
    checked = 0
    for _ in range(150):
        nvar = rng.randint(1, 4)
        x0 = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in range(nvar)]
        cons = []
        for rel in [rng.choice(["<=", ">=", "=="]) for _ in range(rng.randint(1, 4))] + ["=="]:
            coeffs = [_fraction(rng) for _ in range(nvar)]
            at_x0 = sum(c * x for c, x in zip(coeffs, x0))
            gap = abs(_fraction(rng)) * {"<=": 1, ">=": -1, "==": 0}[rel]
            cons.append((coeffs, rel, at_x0 + gap if rng.random() < 0.8 else _fraction(rng)))
        k = rng.choice([1, 2, Fraction(1, 3), Fraction(-5, 2)])
        coeffs, _, rhs = cons[-1]
        cons.append(([k * c for c in coeffs], "==", k * rhs))
        rng.shuffle(cons)
        for j in range(nvar):   # a box, so most of these are bounded
            cons.append(([Fraction(int(i == j)) for i in range(nvar)], "<=",
                         x0[j] + Fraction(rng.randint(0, 9), rng.randint(1, 3))))
        obj = [_fraction(rng) for _ in range(nvar)]
        nonneg = rng.random() < 0.7
        checked += _check_against_scipy(rng.choice(["min", "max"]), obj, cons, nonneg)
    assert checked > 75


def test_exact_lp_statuses():
    r = exact_lp("min", [Fraction(1)], [([Fraction(1)], ">=", Fraction(2)),
                                        ([Fraction(1)], "<=", Fraction(1))])
    assert r.status == "infeasible"
    r = exact_lp("max", [Fraction(1)], [([Fraction(1)], ">=", Fraction(0))])
    assert r.status == "unbounded"
    r = exact_lp("min", [Fraction(1)], [([Fraction(1)], ">=", Fraction(-3))], nonneg=False)
    assert r.status == "optimal" and r.value == Fraction(-3)


def test_exact_lp_value_is_exact():
    # optimum 1/3 must come back as the exact fraction, not a float
    r = exact_lp("min", [Fraction(1)], [([Fraction(3)], ">=", Fraction(1))], nonneg=True)
    assert r.value == Fraction(1, 3)


def test_moment_point():
    assert moment_point(3, 4) == (3, 9, 27, 81)


def test_normalized_volume_is_vandermonde_det():
    # the product against the exact determinant of the edge vectors
    for d in (1, 2, 3, 4):
        for s in combinations(range(1, 8), d + 1):
            p0 = moment_point(s[0], d)
            rows = [[x - y for x, y in zip(moment_point(v, d), p0)] for v in s[1:]]
            assert normalized_volume(s, d) == abs(_det(rows))


def test_normalized_volume_smallest_triangle():
    assert normalized_volume((1, 2, 3), 2) == 2


def test_cyclic_volume_matches_scipy_hull():
    for n, d in [(4, 2), (6, 2), (7, 2), (5, 3), (6, 3), (7, 4)]:
        pts = np.array([[float(x) for x in moment_point(i, d)] for i in range(1, n + 1)])
        want = ConvexHull(pts).volume * math.factorial(d)
        assert abs(float(cyclic_volume(n, d)) - want) < 1e-6 * want


def test_cyclic_volume_matches_orientation_hull():
    # Gale's facets against the facets found by orientation determinants
    for d in range(1, 9):
        for n in range(d + 1, d + 6):
            assert cyclic_volume(n, d) == hull_volume(n, d), (n, d)


def test_cyclic_volume_is_triangulation_sum():
    # d = 1, n = d + 1 (the hull is one simplex) and d up to 6 included
    for n, d in [(2, 1), (5, 1), (3, 2), (5, 2), (6, 2), (5, 4), (6, 3), (7, 3),
                 (7, 4), (11, 4), (6, 5), (8, 5), (9, 5), (7, 6), (9, 6)]:
        for t in (bottom(n, d), top(n, d)):
            assert sum(normalized_volume(s, d) for s in t.simplices) == cyclic_volume(n, d)


def test_cyclic_volume_needs_no_fractions():
    # the hull volume, computed in a fresh process, loads no fractions module
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; from cyclictri.geometry import cyclic_volume; cyclic_volume(10, 4); "
            "print(sorted(m for m in ('fractions', 'decimal') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert cyclic_volume(10, 4) == sum(normalized_volume(s, 4)
                                       for s in bottom(10, 4).simplices)


def test_solve_linear_is_exact():
    rng = random.Random(1968)
    solved = 0
    for k in range(1, 8):
        for _ in range(12):
            a = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k)]
            rhs = [rng.randint(-20, 20) for _ in range(k)]
            if _det(a) == 0:
                continue
            x = _solve_linear(a, rhs)
            assert all(isinstance(v, Fraction) for v in x)
            assert [sum(c * v for c, v in zip(row, x)) for row in a] == rhs
            solved += 1
        # a repeated row makes the system singular
        a = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k - 1)]
        a.append(list(a[0]) if a else [0])
        with pytest.raises(ValueError, match="singular system"):
            _solve_linear(a, [1] * k)
    assert solved > 60


def test_lift_functional_hand_cases():
    h = lift_functional((1, 2), 1)
    assert h(moment_point(1, 1)) == 1 and h(moment_point(2, 1)) == 4
    assert h((Fraction(3, 2),)) == Fraction(5, 2)
    g = lift_functional((1, 3), 1)
    assert g((Fraction(3, 2),)) == 3


def test_relative_height_crossing_pair():
    # lifts of {1,3} and {2,4} to the parabola cross over (2,3)
    assert relative_height((1, 3), (2, 4), 1) == CROSSING
    assert relative_height((2, 4), (1, 3), 1) == CROSSING


def test_relative_height_below_above():
    assert relative_height((1, 2), (1, 3), 1) == BELOW
    assert relative_height((1, 3), (1, 2), 1) == ABOVE
    assert relative_height((1, 2), (1, 2), 1) == EQUAL
    assert relative_height((1, 2), (3, 4), 1) == INCOMPARABLE


def test_relative_height_antisymmetric():
    flip = {BELOW: ABOVE, ABOVE: BELOW, EQUAL: EQUAL,
            INCOMPARABLE: INCOMPARABLE, CROSSING: CROSSING}
    for s1 in combinations(range(1, 6), 3):
        for s2 in combinations(range(1, 6), 3):
            assert relative_height(s2, s1, 2) == flip[relative_height(s1, s2, 2)]


def test_triangulation_members_never_ordered():
    # within one triangulation no member lies strictly over another
    for t in (bottom(6, 2), top(6, 2), bottom(6, 3)):
        for s1 in t.simplices:
            for s2 in t.simplices:
                if s1 != s2:
                    assert relative_height(s1, s2, t.d) == INCOMPARABLE


def test_submerged_hand_cases():
    t = make_triangulation([(1, 2, 3), (1, 3, 4)], 4, 2)
    assert submerged((1, 3), t.simplices, 2)
    assert not submerged((2, 4), t.simplices, 2)
    t2 = make_triangulation([(1, 2, 4), (2, 3, 4)], 4, 2)
    assert submerged((1, 3), t2.simplices, 2)
