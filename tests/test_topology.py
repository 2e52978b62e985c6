"""Order complexes, integral simplicial homology, sphere certificates.

Fixture homology is frozen from the literature (projective plane,
7-vertex torus, simplex boundaries); the implementation must reproduce
it including torsion.  Poset homology goes through beat-point cores and is
checked against the full order complex.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from cyclictri import topology
from cyclictri.baues import baues_poset
from cyclictri.oracles import _det, complex_from_maximal
from cyclictri.posets import (
    FinitePoset,
    ResourceBudgetError,
    boolean_lattice,
    build_s1,
    build_s2,
    interval_poset,
)
from cyclictri.topology import (
    chain_counts,
    homology,
    order_complex,
    poset_core,
    poset_homology,
    sphere_certificate,
    suspension_compare,
    webb_reduction_check,
)

# minimal 6-vertex triangulation of the real projective plane
RP2 = [(1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
       (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6)]

# cyclic 7-vertex torus: orbits of {0,1,3} and {0,2,3} mod 7
TORUS = sorted(
    tuple(sorted(((i + a) % 7 + 1 for a in tri)))
    for i in range(7)
    for tri in ((0, 1, 3), (0, 2, 3))
)


def _poset(els, edges):
    ix = {e: i for i, e in enumerate(els)}
    return FinitePoset.from_edges(els, [(ix[a], ix[b]) for a, b in edges])


def _sphere_complex(k):
    # boundary of the (k+1)-simplex: k+2 vertices, all k-faces
    verts = tuple(range(k + 2))
    return complex_from_maximal(list(itertools.combinations(verts, k + 1)))


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_simplex_boundary_is_sphere(k):
    h = homology(_sphere_complex(k))
    assert h.is_sphere(k)
    assert h.euler == (-1) ** k


def test_two_points_is_s0():
    h = homology(complex_from_maximal([(1,), (2,)]))
    assert h.betti[0] == 1 and h.is_sphere(0)


def test_hexagon_cycle_is_s1():
    edges = [(i, i % 6 + 1) for i in range(1, 7)]
    h = homology(complex_from_maximal(edges))
    assert h.is_sphere(1)


def test_empty_complex_is_reduced_sphere():
    # reduced homology of {} is Z in degree -1
    h = homology(complex_from_maximal([]))
    assert h.is_sphere(-1)
    assert h.euler == -1


def test_point_is_trivial():
    h = homology(complex_from_maximal([(1,)]))
    assert h.is_trivial()
    assert h.euler == 0


def test_rp2_torsion():
    h = homology(complex_from_maximal(RP2))
    assert h.betti == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert h.torsion == {1: (2,)}
    assert h.euler == 0
    assert not h.is_trivial()


def test_torus_homology():
    k = complex_from_maximal(TORUS)
    assert k.counts() == {-1: 1, 0: 7, 1: 21, 2: 14}
    h = homology(k)
    assert h.betti[1] == 2 and h.betti[2] == 1
    assert h.torsion == {}
    assert h.euler == -1


def _snf_homology(k_complex):
    """Reduced Betti numbers and torsion from the invariant factors of each
    whole dense boundary matrix, with no sparse reduction in between."""
    faces = k_complex.faces_by_dim
    rank, invf = {}, {}
    for k in range(0, max(faces) + 1):
        upper, lower = faces.get(k, []), faces.get(k - 1, [])
        index = {f: i for i, f in enumerate(lower)}
        dense = [[0] * len(upper) for _ in lower]
        for j, col in enumerate(topology._boundary_columns(upper, index)):
            for i, v in col.items():
                dense[i][j] = v
        invf[k] = topology._dense_snf(dense) if upper and lower else []
        rank[k] = len(invf[k])
    betti = {k: len(faces.get(k, [])) - rank.get(k, 0) - rank.get(k + 1, 0)
             for k in range(-1, max(faces) + 1)}
    torsion = {k: tuple(d for d in invf.get(k + 1, []) if d > 1)
               for k in range(-1, max(faces) + 1)}
    return betti, {k: t for k, t in torsion.items() if t}


def _random_complexes(count, seed=2005):
    rng = random.Random(seed)
    for _ in range(count):
        verts = range(rng.randint(1, 8))
        yield complex_from_maximal(
            [tuple(rng.sample(verts, rng.randint(1, len(verts))))
             for _ in range(rng.randint(0, 6))])


def _rational_betti(k_complex):
    """Reduced Betti numbers f_k - rank d_k - rank d_(k+1), each rank that
    of the signed boundary matrix over Q, by Fraction elimination."""
    faces = k_complex.faces_by_dim
    rank = {}
    for k in range(0, max(faces) + 1):
        pivots = {}     # pivot row -> its reduced column
        for f in faces.get(k, []):
            col = {f[:i] + f[i + 1:]: Fraction((-1) ** i) for i in range(len(f))}
            while col:
                r = min(col)
                if r not in pivots:
                    pivots[r] = col
                    break
                q = col[r] / pivots[r][r]
                for rr, v in pivots[r].items():
                    col[rr] = col.get(rr, 0) - q * v
                    if not col[rr]:
                        del col[rr]
        rank[k] = len(pivots)
    return {k: len(faces.get(k, [])) - rank.get(k, 0) - rank.get(k + 1, 0)
            for k in range(-1, max(faces) + 1)}


def _suspended(facets, *poles):
    return [f + (v,) for f in facets for v in poles]


def test_homology_betti_numbers_match_rational_rank_on_random_complexes():
    # larger than _random_complexes: on a few of these, clearing a column
    # cancels a row that was queued to be cleared later, which _clear skips
    rng = random.Random(4242)
    for _ in range(60):
        verts = range(rng.randint(6, 9))
        k_complex = complex_from_maximal(
            [tuple(rng.sample(verts, rng.randint(3, 5))) for _ in range(rng.randint(5, 20))])
        assert homology(k_complex).betti == _rational_betti(k_complex)


@pytest.mark.parametrize("facets,text", [
    (_suspended(RP2, 7), "HomologyResult(trivial)"),
    (RP2, "HomologyResult(H~1=Z/2)"),
    (_suspended(RP2, 7, 8), "HomologyResult(H~2=Z/2)"),
    (TORUS, "HomologyResult(H~1=Z^2, H~2=Z)"),
], ids=["cone over RP2", "RP2", "suspended RP2", "torus"])
def test_homology_repr(facets, text):
    assert repr(homology(complex_from_maximal(facets))) == text


def _oracle_complexes():
    yield "RP2", complex_from_maximal(RP2)
    yield "suspended RP2", complex_from_maximal(_suspended(RP2, 7, 8))
    # its Z/2 is cleared across three dimensions
    yield "double suspended RP2", complex_from_maximal(
        _suspended(_suspended(RP2, 7, 8), 9, 10))
    yield "torus", complex_from_maximal(TORUS)
    for k in range(4):
        yield "S%d" % k, _sphere_complex(k)
    for n, d in ((6, 2), (7, 3)):
        yield "S1(%d,%d)" % (n, d), order_complex(build_s1(n, d).proper_part())
    # the full order complex of proper S1(8,3) has 200k faces, past a dense
    # SNF; its 14-element core stands in for it
    yield "core S1(8,3)", order_complex(poset_core(build_s1(8, 3).proper_part()))
    yield "core Baues(6,2)", order_complex(poset_core(baues_poset(6, 2)))
    for i, k in enumerate(_random_complexes(100)):
        yield "random %d" % i, k


def _determinantal_factors(a):
    """Invariant factors of an integer matrix from its determinantal
    divisors: d_k, the gcd of the k x k minors, up to the rank, and the
    factors d_k / d_(k-1)."""
    rows, cols = len(a), len(a[0])
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rs in itertools.combinations(range(rows), k):
            for cs in itertools.combinations(range(cols), k):
                g = math.gcd(g, _det([[a[r][c] for c in cs] for r in rs]))
        if not g:
            break
        out.append(g // prev)
        prev = g
    return out


def test_dense_snf_matches_determinantal_divisors():
    # diag(2, 3) is clear at once, but 2 does not divide the 3 left; in
    # [[3, 2], [4, 6]] the first pivot is the 2, a column away, and leaves
    # a remainder in its row
    assert topology._dense_snf([[2, 0], [0, 3]]) == [1, 6]
    assert topology._dense_snf([[3, 2], [4, 6]]) == [1, 10]
    assert topology._dense_snf([[0, 0], [0, 0]]) == []
    rng = random.Random(32)
    for _ in range(600):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(cols)]
             for _ in range(rows)]
        if rng.random() < 0.3:
            a[rng.randrange(rows)] = [0] * cols
        if rng.random() < 0.3:
            zero = rng.randrange(cols)
            for row in a:
                row[zero] = 0
        assert topology._dense_snf(a) == _determinantal_factors(a), a


def test_homology_matches_dense_snf_of_whole_boundaries():
    bad = []
    for name, k in _oracle_complexes():
        h = homology(k)
        if (h.betti, h.torsion) != _snf_homology(k):
            bad.append(name)
    assert not bad


def test_reduction_clears_kept_columns_against_later_pivots():
    # the first column has no unit when it is met; the second's pivot row 1
    # must still be cleared from it, leaving [[2]] and the Z/2
    units, residual, pivot_rows = topology._reduce_units([{0: 2, 1: 3}, {1: 1}])
    assert (units, residual, pivot_rows) == (1, [[2]], {1})


@pytest.mark.parametrize("build, columns", [
    (lambda: complex_from_maximal(TORUS), None),
    (lambda: complex_from_maximal(_suspended(RP2, 7, 8)), None),
    (lambda: order_complex(poset_core(baues_poset(8, 3))), 8385),
], ids=["torus", "suspended RP2", "core Baues(8,3)"])
def test_homology_builds_no_column_at_a_pivot_row_one_dimension_up(
        monkeypatch, build, columns):
    # from the top down, dimension k yields f_k columns minus the unit
    # pivots of dimension k + 1
    k_complex = build()
    reduce_units = topology._reduce_units
    built, units = [], []

    def counted(cols):
        cols = list(cols)
        built.append(len(cols))
        out = reduce_units(cols)
        assert len(out[2]) == out[0]
        units.append(out[0])
        return out

    monkeypatch.setattr(topology, "_reduce_units", counted)
    homology(k_complex)
    f = k_complex.counts()
    top = max(f)
    assert built == [f[k] - (units[top - k - 1] if k < top else 0)
                     for k in range(top, -1, -1)]
    if columns is not None:
        assert sum(built) == columns


def test_order_complex_of_chain_is_simplex():
    c = _poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    k = order_complex(c)
    assert k.counts()[2] == 1  # the full chain is a 2-face
    assert homology(k).is_trivial()


def test_order_complex_counts_match_chain_counts():
    # chain_counts[m] counts chains of m elements without materializing them
    for p in (boolean_lattice(3).proper_part(),
              build_s2(6, 2).proper_part(),
              _poset(["a", "b", "c", "d"],
                     [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])):
        counts = order_complex(p).counts()
        cc = chain_counts(p)
        assert cc == [counts.get(m - 1, 0) for m in range(len(cc))]
        assert sum(cc) == sum(counts.values())


def test_chain_counts_budget():
    # counting materializes nothing, so no face budget bounds it
    cc = chain_counts(boolean_lattice(8))
    assert cc[1] == 256 and cc[9] == 40320  # elements; maximal chains 8!
    assert len(cc) == 10


def test_order_complex_budget():
    with pytest.raises(ResourceBudgetError) as e:
        order_complex(boolean_lattice(8), budget=100)
    assert "dimension" in str(e.value)


def test_order_complex_budget_fields():
    # B8 has 1 empty chain and 256 one-element chains: 257 > 100 at dimension 0
    with pytest.raises(ResourceBudgetError) as e:
        order_complex(boolean_lattice(8), budget=100)
    err = e.value
    assert (err.kind, err.limit, err.reached, err.where) == \
        ("face_budget", 100, 257, "dimension 0")
    assert str(err) == "face budget 100 exceeded at dimension 0"


def _chains_by_listing(p):
    """Every totally ordered set of positions, by size, listed as the
    position subsets whose consecutive members compare: the reference for
    the size-by-size build."""
    by_dim = {-1: [()]}
    for size in itertools.count(1):
        faces = [c for c in itertools.combinations(range(len(p)), size)
                 if all(p.le(a, b) for a, b in zip(c, c[1:]))]
        if not faces:
            return by_dim
        by_dim[size - 1] = faces


@pytest.mark.parametrize("build", [
    lambda: boolean_lattice(4).proper_part(),
    lambda: build_s2(6, 2).proper_part(),
    lambda: poset_core(baues_poset(6, 2)),
], ids=["B4", "S2(6,2)", "core Baues(6,2)"])
def test_order_complex_lists_every_chain_in_order(monkeypatch, build):
    # each dimension reaches SimplicialComplex already in lexicographic order
    p = build()
    handed = []
    real = topology.SimplicialComplex

    def recorded(by_dim):
        handed.append({k: list(v) for k, v in by_dim.items()})
        return real(by_dim)

    monkeypatch.setattr(topology, "SimplicialComplex", recorded)
    want = _chains_by_listing(p)
    assert order_complex(p).faces_by_dim == want
    assert handed == [want]


def _refuse_to_build(monkeypatch):
    def fail(by_dim):
        raise AssertionError("a refused complex was built")

    monkeypatch.setattr(topology, "SimplicialComplex", fail)


def test_order_complex_refuses_above_dimension_0_before_building(monkeypatch):
    # proper B4: 1 + 14 chains fit in 20, its 36 comparable pairs do not
    _refuse_to_build(monkeypatch)
    with pytest.raises(ResourceBudgetError) as e:
        order_complex(boolean_lattice(4).proper_part(), budget=20)
    err = e.value
    assert (err.kind, err.limit, err.reached, err.where) == \
        ("face_budget", 20, 51, "dimension 1")
    assert str(err) == "face budget 20 exceeded at dimension 1"


def test_baues_9_2_core_counts_and_refusal(monkeypatch):
    # the core keeps all 4,278 subdivisions; its 2,519,197 chains through
    # dimension 4 exceed the default budget of 2,000,000 there
    core = poset_core(baues_poset(9, 2))
    assert chain_counts(core) == [1, 4278, 91398, 483120, 1013760, 926640, 308880]
    _refuse_to_build(monkeypatch)
    with pytest.raises(ResourceBudgetError) as e:
        order_complex(core)
    err = e.value
    assert (err.kind, err.limit, err.reached, err.where) == \
        ("face_budget", 2000000, 2519197, "dimension 4")


# proper S2(8,2) is left out: its full order complex has 1.6 M faces
@pytest.mark.parametrize("build", [
    lambda: boolean_lattice(3).proper_part(),
    lambda: build_s2(6, 2).proper_part(),
    lambda: build_s2(7, 2).proper_part(),
    lambda: build_s2(7, 3).proper_part(),
    lambda: build_s2(8, 3).proper_part(),
    lambda: baues_poset(6, 2),
], ids=["B3", "S2(6,2)", "S2(7,2)", "S2(7,3)", "S2(8,3)", "Baues(6,2)"])
def test_core_homology_matches_full_order_complex(build):
    p = build()
    h = poset_homology(p)
    full = homology(order_complex(p))
    assert h == full and h.euler == full.euler
    core = poset_core(p)
    assert list(poset_core(core).elements) == list(core.elements)


def test_poset_with_bottom_cores_to_a_point():
    for p in (boolean_lattice(3), build_s2(6, 2)):
        assert len(poset_core(p)) == 1


def test_poset_with_bottom_is_cone():
    # any bounded-below poset has contractible order complex
    for p in (boolean_lattice(3), build_s2(5, 2)):
        assert poset_homology(p).is_trivial()


def test_hall_mobius_equals_reduced_euler():
    for p in (boolean_lattice(3), boolean_lattice(4), build_s2(6, 2)):
        h = poset_homology(p.proper_part())
        assert h.euler == p.mobius_bottom_top()


# the instances of acceptance criteria 04 (S1 and S2) and 05 (Baues)
CATALOG = [(n, d) for d in range(1, 7) for n in range(d + 2, 10)]
BAUES_INSTANCES = [(4, 2), (5, 2), (6, 2), (7, 2), (5, 3), (6, 3), (7, 3),
                   (8, 3), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)]


def _chain_euler(p):
    # the reduced Euler characteristic as the alternating sum of chains
    return sum((-1) ** (size + 1) * count
               for size, count in enumerate(chain_counts(p)))


@pytest.mark.parametrize("build", [build_s1, build_s2], ids=["S1", "S2"])
def test_chain_euler_equals_mobius_on_the_catalog(build):
    # Hall's theorem: the chain sum of the whole proper part is mu(0, 1)
    bad = []
    for n, d in CATALOG:
        p = build(n, d).proper_part()
        euler = _chain_euler(p)
        if not euler == p.hall_mobius() == poset_homology(p).euler:
            bad.append((n, d, euler))
    assert not bad


def test_chain_euler_equals_mobius_on_baues_posets():
    bad = []
    for n, d in BAUES_INSTANCES:
        p = baues_poset(n, d)
        euler = _chain_euler(p)
        if not euler == p.hall_mobius() == poset_homology(p).euler:
            bad.append((n, d, euler))
    assert not bad


def test_poset_homology_rejects_a_wrong_mobius(monkeypatch):
    # the core's Betti numbers are checked against mu of the whole poset
    real = FinitePoset.hall_mobius
    monkeypatch.setattr(FinitePoset, "hall_mobius", lambda p: real(p) + 2)
    with pytest.raises(AssertionError, match="Mobius"):
        poset_homology(boolean_lattice(3).proper_part())


def test_sphere_certificate_counts_chains_of_the_core_only(monkeypatch):
    # one chain count, the order complex's pre-flight on the 30-element core
    # (the proper part of B_5), not one on all 970 elements of S1(9,3)
    sizes = []
    real = topology.chain_counts

    def counted(p):
        sizes.append(len(p))
        return real(p)

    monkeypatch.setattr(topology, "chain_counts", counted)
    p = build_s1(9, 3).proper_part()
    assert len(p) == 970
    assert sphere_certificate(p, 3)["pass"] is True
    assert sizes == [30]


def test_proper_b3_is_s1():
    # proper part of B3 triangulates the barycentric hexagon
    h = poset_homology(boolean_lattice(3).proper_part())
    assert h.is_sphere(1)


def test_hexagon_face_poset_order_complex():
    # barycentric subdivision of the hexagon boundary is a 12-gon
    els = ["v%d" % i for i in range(1, 7)] + ["e%d" % i for i in range(1, 7)]
    edges = []
    for i in range(1, 7):
        edges.append(("v%d" % i, "e%d" % i))
        edges.append(("v%d" % (i % 6 + 1), "e%d" % i))
    p = _poset(els, edges)
    k = order_complex(p)
    assert k.counts() == {-1: 1, 0: 12, 1: 12}
    assert homology(k).is_sphere(1)


def test_sphere_certificate_passes():
    cert = sphere_certificate(boolean_lattice(3).proper_part(), 1)
    assert cert["pass"] is True
    assert cert["certificate"] == "homology-level"
    assert cert["euler"] == cert["mobius"] == -1
    assert cert["reasons"] == []


def test_sphere_certificate_fails_with_reasons():
    cert = sphere_certificate(boolean_lattice(3).proper_part(), 2)
    assert cert["pass"] is False
    assert cert["reasons"]


def test_sphere_certificate_empty_poset():
    # proper part of a 2-chain is empty: a (-1)-sphere
    two = _poset(["a", "b"], [("a", "b")])
    cert = sphere_certificate(two.proper_part(), -1)
    assert cert["pass"] is True


def test_suspension_compare_on_small_lattices():
    for p in (_poset(["a", "b"], [("a", "b")]),
              boolean_lattice(2),
              boolean_lattice(3),
              build_s2(5, 2)):
        rep = suspension_compare(p)
        assert rep["pass"] is True, rep
        assert rep["shift_ok"] and rep["full_ok"]


def test_webb_reduction_on_b3():
    rep = webb_reduction_check(boolean_lattice(3))
    assert rep["pass"] is True
    assert rep["contains_coatomic"]
    assert rep["homology_match"]


@pytest.mark.parametrize("name", ["B2", "B3", "S2(5,2)", "S2(6,2)"])
def test_webb_reduction_reports_on_the_criterion_posets(name):
    # the coatomic intervals are the proper ones that is_coatomic accepts,
    # the same keys as those of the coatomic interval poset; the reports
    # are pinned as the route through that poset gave them
    p = {"B2": boolean_lattice(2), "B3": boolean_lattice(3),
         "S2(5,2)": build_s2(5, 2), "S2(6,2)": build_s2(6, 2)}[name]
    intp = interval_poset(p, "proper")
    assert {intp.elements[z] for z, (i, j) in enumerate(intp.data)
            if p.is_coatomic(i, j)} == set(interval_poset(p, "proper_coatomic").elements)
    removed, survivors, sphere = {"B2": (0, 8, 1), "B3": (0, 26, 2),
                                  "S2(5,2)": (2, 10, 1), "S2(6,2)": (23, 44, 2)}[name]
    rep = webb_reduction_check(p)
    assert rep == {"pass": True, "removed": removed, "survivors": survivors,
                   "contains_coatomic": True, "survivors_equal_coatomic": True,
                   "homology_match": True, "homology": rep["homology"],
                   "certificate": "homology-level"}
    assert rep["homology"].is_sphere(sphere)


def test_webb_reduction_requires_lattice():
    # bounded but a,b still have no join: must be rejected, not mis-reported
    m = _poset(["0", "a", "b", "c", "d", "1"],
               [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
                ("b", "d"), ("c", "1"), ("d", "1")])
    assert m.is_bounded()
    with pytest.raises(ValueError):
        webb_reduction_check(m)


def test_homology_report_json():
    import json

    h = poset_homology(boolean_lattice(3).proper_part())
    doc = json.loads(h.to_json())
    assert set(doc) >= {"dims", "euler"}
    assert doc["dims"]["1"] == {"betti": 1, "torsion": []}
