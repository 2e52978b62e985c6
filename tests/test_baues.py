"""Polytopal subdivisions, the refinement poset, and the interval map.

dissection_oracle_d2 enumerates noncrossing diagonal sets of a convex
polygon directly; it never looks at triangulations, so it serves as the
independent count for everything d=2 here (little Schroeder numbers
minus the trivial dissection: 2, 10, 44, 196).
"""

import time
from itertools import combinations

import pytest

from cyclictri import baues, posets
from cyclictri.baues import (
    Subdivision,
    baues_poset,
    cell_bottom,
    cell_top,
    interval_product_check,
    interval_to_subdivision,
    make_subdivision,
    phi,
    validate_subdivision,
)
from cyclictri.oracles import dissection_oracle_d2, refinement_leq
from cyclictri.posets import (FinitePoset, ResourceBudgetError, build_s2,
                              interval_poset)
from cyclictri.simplices import gale_facets
from cyclictri.triangulations import Triangulation, _Table, bottom, table, top


@pytest.mark.parametrize("n,want", [(4, 2), (5, 10), (6, 44), (7, 196)])
def test_dissection_counts(n, want):
    assert len(dissection_oracle_d2(n)) == want


def test_dissections_are_valid_and_proper():
    for delta in dissection_oracle_d2(6):
        assert validate_subdivision(delta.cells, 6, 2) is None
        assert delta.is_proper()


def test_validate_subdivision_accepts_trivial():
    assert validate_subdivision([(1, 2, 3, 4, 5)], 5, 2) is None
    assert not make_subdivision(5, 2, [(1, 2, 3, 4, 5)]).is_proper()


@pytest.mark.parametrize("cell", [(1, 2, 3.5), ("a", "b", "c"), (1, "b", 3), (1, 2, None)])
def test_validate_subdivision_refuses_non_integer_labels(cell):
    # a shape violation, with simplex's wording, before the cells are sorted
    v = validate_subdivision([cell], 5, 2)
    assert v == ("shape", cell, "labels must be positive integers: %r" % (cell,))
    with pytest.raises(ValueError, match="labels must be positive integers"):
        make_subdivision(5, 2, [cell])


@pytest.mark.parametrize("build,cell", [
    (lambda: Subdivision(5, 2, [(1, "b", 3)]), (1, "b", 3)),
    (lambda: Subdivision(5, 2, [(1, 2, None)]), (1, 2, None)),
    (lambda: Subdivision.from_json('{"n":5,"d":2,"cells":[[1,"b",3]]}'), (1, "b", 3)),
], ids=["str", "none", "from_json"])
def test_subdivision_refuses_labels_that_do_not_sort(build, cell):
    # the constructor sorts each cell's labels; a label that does not sort
    # with the others is a ValueError naming the cell, in simplex's wording
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == "labels must be positive integers: %r" % (cell,)


def test_unhashable_labels_are_a_shape_violation():
    # the label check comes before any memo lookup hashes the cell
    cell = (1, [2], 3)
    want = "labels must be positive integers: %r" % (cell,)
    assert validate_subdivision([cell], 5, 2) == ("shape", cell, want)
    with pytest.raises(ValueError) as err:
        Subdivision(5, 2, [cell])
    assert str(err.value) == want


def test_cell_iterators_are_read_once():
    # validation must not use up the cells the constructor then reads
    assert make_subdivision(5, 2, iter([(1, 2, 3, 4), (1, 4, 5)])) == \
        Subdivision(5, 2, [(1, 2, 3, 4), (1, 4, 5)])
    with pytest.raises(ValueError) as err:
        Subdivision(5, 2, (c for c in [(1, "b", 3)]))
    assert str(err.value) == "labels must be positive integers: (1, 'b', 3)"


def test_validate_subdivision_violations():
    # cells on the same side of the shared chord
    v = validate_subdivision([(1, 2, 3, 4), (3, 4, 5)], 5, 2)
    assert v is not None
    # shared vertex set {2,4} is not a face of the square 1..4
    v = validate_subdivision([(1, 2, 4), (2, 3, 4, 5)], 5, 2)
    assert v is not None and v.rule == "face-to-face"
    # nested cells
    v = validate_subdivision([(1, 2, 3, 4, 5), (1, 2, 3)], 5, 2)
    assert v is not None
    # a cell needs at least d+1 vertices
    v = validate_subdivision([(1, 2), (2, 3, 4, 5)], 5, 2)
    assert v is not None
    # labels outside 1..n
    v = validate_subdivision([(1, 2, 3, 7)], 5, 2)
    assert v is not None


def _faces_by_listing(c, d):
    """The vertex masks of the faces of the simplicial cell C(c, d), listed
    as every subset of every Gale facet: the reference for the block rule."""
    return {sum(1 << c[i - 1] for i in s) for f in gale_facets(len(c), d)
            for k in range(d + 1) for s in combinations(f, k)}


def test_large_cells_answer_without_listing_faces():
    # one cell on all 18 labels of C(18, 14) has 540 Gale facets and 2^14
    # subsets of each; no face is listed, so it answers at once (listing
    # them took about 10 s), as does the cell at (14, 10)
    start = time.perf_counter()
    assert validate_subdivision([tuple(range(1, 19))], 18, 14) is None
    assert time.perf_counter() - start < 1
    assert validate_subdivision([tuple(range(1, 15))], 14, 10) is None


@pytest.mark.parametrize("m", range(2, 12))
def test_block_rule_decides_faces_as_facet_subsets_do(m):
    # every subset of [m], for every 1 <= d < m, is a face of C(m, d) by
    # the block rule iff it lies in a Gale facet
    c = tuple(range(1, m + 1))
    for d in range(1, m):
        faces = _faces_by_listing(c, d)
        for w in range(0, 1 << m + 1, 2):
            assert baues._spans_face(c, w, d) == (w in faces), (m, d, w)


def test_subdivision_key_roundtrip():
    d = make_subdivision(5, 2, [(1, 2, 3, 4), (1, 4, 5)])
    assert Subdivision.from_json(d.key()) == d


def test_cell_bottom_top_relabel():
    assert cell_bottom((2, 4, 5, 7), 2) == ((2, 4, 5), (2, 5, 7))
    assert cell_top((2, 4, 5, 7), 2) == ((2, 4, 7), (4, 5, 7))


def test_refinement_leq_is_cellwise_containment():
    fine = make_subdivision(6, 2, [(1, 2, 3), (1, 3, 4, 5, 6)])
    coarse = make_subdivision(6, 2, [(1, 2, 3, 4, 5, 6)])
    assert refinement_leq(fine, coarse)
    assert not refinement_leq(coarse, fine)
    other = make_subdivision(6, 2, [(1, 2, 3, 4), (1, 4, 5, 6)])
    assert not refinement_leq(fine, other)
    assert not refinement_leq(other, fine)


def test_phi_on_single_diagonal():
    delta = make_subdivision(5, 2, [(1, 2, 3, 4), (1, 4, 5)])
    lo, hi = phi(delta)
    assert lo.simplices == ((1, 2, 3), (1, 3, 4), (1, 4, 5))
    assert hi.simplices == ((1, 2, 4), (1, 4, 5), (2, 3, 4))


def test_phi_rejects_trivial_subdivision():
    with pytest.raises(ValueError):
        phi(make_subdivision(5, 2, [(1, 2, 3, 4, 5)]))


def test_phi_image_is_proper_coatomic_interval():
    s2 = build_s2(6, 2)
    coat = interval_poset(s2, "proper_coatomic")
    keys = set(coat.elements)
    import json

    for delta in dissection_oracle_d2(6):
        lo, hi = phi(delta)
        assert json.dumps([lo.key(), hi.key()], separators=(",", ":")) in keys


def test_phi_round_trip_d2():
    s2 = build_s2(6, 2)
    for delta in dissection_oracle_d2(6):
        lo, hi = phi(delta)
        assert interval_to_subdivision(lo, hi, s2) == delta


def test_interval_to_subdivision_round_trip_d3():
    s2 = build_s2(6, 3)
    coat = interval_poset(s2, "proper_coatomic")
    assert len(coat) == 12
    for i, j in coat.data:
        lo = s2.data[i]
        hi = s2.data[j]
        delta = interval_to_subdivision(lo, hi, s2)
        assert phi(delta) == (lo, hi)


def test_interval_to_subdivision_rejects_non_coatomic():
    s2 = build_s2(6, 2)
    # the full interval [bottom, top] is proper only if we pick interior ends;
    # use a cover pair whose upper end is not a join of coatoms
    for i in range(len(s2)):
        for j in range(len(s2)):
            if not s2.le(i, j) or (i, j) == (s2.bottom(), s2.top()):
                continue
            if not s2.is_coatomic(i, j):
                with pytest.raises(ValueError):
                    interval_to_subdivision(s2.data[i], s2.data[j], s2)
                return
    pytest.fail("expected a non-coatomic interval in S2(6,2)")


def test_interval_to_subdivision_rejects_endpoint_outside_s2():
    # a valid shape, but not a triangulation of C(6, 2)
    with pytest.raises(ValueError, match="not a triangulation of C\\(6, 2\\)"):
        interval_to_subdivision(Triangulation(6, 2, [(1, 2, 3)]), top(6, 2),
                                build_s2(6, 2))


def test_interval_to_subdivision_builds_s2_when_not_given():
    s2 = build_s2(6, 2)
    for i, j in interval_poset(s2, "proper_coatomic").data[:10]:
        lo, hi = s2.data[i], s2.data[j]
        assert interval_to_subdivision(lo, hi) == interval_to_subdivision(lo, hi, s2)


@pytest.mark.parametrize("ends,message", [
    (lambda: (bottom(6, 4), top(6, 4)), "interval map implemented for d <= 3 only"),
    (lambda: (bottom(5, 2), top(6, 2)), "interval endpoints on different polytopes"),
    (lambda: (Triangulation(6, 2, [(1, 2, 3)]), top(6, 2)),
     "interval endpoint is not a triangulation of C(6, 2)"),
    (lambda: (top(6, 2), bottom(6, 2)), "endpoints are not ordered"),
    (lambda: (bottom(6, 2), top(6, 2)), "improper interval"),
], ids=["d4", "polytopes", "off-s2", "unordered", "improper"])
def test_interval_to_subdivision_refusals(ends, message):
    # each refusal, with and without the height order given
    t_low, t_high = ends()
    for s2 in [None, build_s2(6, 2)] if t_high.d == 2 else [None]:
        with pytest.raises(ValueError) as err:
            interval_to_subdivision(t_low, t_high, s2)
        assert str(err.value) == message


@pytest.mark.parametrize("n,want", [(4, 2), (5, 10), (6, 44)])
def test_baues_poset_counts_d2(n, want):
    assert len(baues_poset(n, 2)) == want


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_baues_poset_counts_d1(n):
    # subdivisions of a path into subpaths with optional skipped points
    assert len(baues_poset(n, 1)) == 3 ** (n - 2) - 1


def test_baues_poset_matches_oracle_as_posets():
    bp = baues_poset(6, 2)
    oracle = dissection_oracle_d2(6)
    assert bp.keys() == sorted(d.key() for d in oracle)
    for a in oracle:
        for b in oracle:
            assert refinement_leq(a, b) == bp.le_keys(a.key(), b.key())
    # the pairwise reference against the built order, beyond the oracle
    for n, d in [(7, 2), (6, 3), (7, 3)]:
        bp = baues_poset(n, d)
        deltas = [bp.data[x] for x in bp.by_key]
        bad = [(a.key(), b.key()) for a in deltas for b in deltas
               if refinement_leq(a, b) != bp.le_keys(a.key(), b.key())]
        assert bad == []


def test_baues_poset_validates_each_subdivision_once(monkeypatch):
    # phi validates through _checked_subdivision, which validate_subdivision
    # wraps; the round trip compares the glued masks with the interval's
    # ends, so only the glued bottoms go through the table's validation, and
    # no submersion mask is read once S2 is built
    build_s2(7, 2)
    calls = []
    real = baues._checked_subdivision

    def counting(cells, n, d, memo):
        calls.append(cells)
        return real(cells, n, d, memo)

    reads = {"violation": 0, "submersion": 0}
    for name in reads:
        def reading(tab, mask, name=name, real=getattr(_Table, name)):
            reads[name] += 1
            return real(tab, mask)

        monkeypatch.setattr(_Table, name, reading)
    monkeypatch.setattr(baues, "_checked_subdivision", counting)
    assert len(baues_poset(7, 2)) == 196
    assert len(calls) == 196
    assert reads == {"violation": 196, "submersion": 0}


def test_cell_faces_are_the_subsets_of_facets():
    # the face-to-face check decides shared vertices by Gale's block rule;
    # the reference is the facet listing it replaced: a vertex set spans a
    # face of a simplicial cell iff it lies in one of the cell's facets
    for n, d in [(4, 2), (5, 2), (6, 2), (7, 2), (5, 3), (6, 3), (7, 3), (8, 3),
                 (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)]:
        tab, memo = table(n, d), {}
        for c in {c for delta in baues_poset(n, d).data for c in delta.cells}:
            cell, faces = baues._cell(c, tab, memo), _faces_by_listing(c, d)
            w = cell.mask
            while True:     # every vertex subset of the cell, the cell itself first
                assert baues._spans_face(c, w, d) == (w in faces), (n, d, c, w)
                if not w:
                    break
                w = (w - 1) & cell.mask


def test_cell_walk_rejects_glued_tops_off_the_interval():
    # [bottom, t_high] of S2(6, 2) is not coatomic: the walk joins one
    # triangle and the pentagon on 1, 3, 4, 5, 6, whose glued bottoms are
    # the bottom but whose glued tops are not t_high
    t_low = Triangulation(6, 2, [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6)])
    t_high = Triangulation(6, 2, [(1, 2, 3), (1, 3, 6), (3, 4, 5), (3, 5, 6)])
    glued = Triangulation(6, 2, [(1, 2, 3)] + list(cell_top((1, 3, 4, 5, 6), 2)))
    assert glued != t_high
    with pytest.raises(AssertionError) as e:
        baues._cells_of_interval(t_low, t_high, {})
    assert str(e.value) == ("interval does not come from a subdivision: "
                            "round trip gave %s" % ((t_low, glued),))


def test_baues_poset_tests_each_interval_once(monkeypatch):
    # interval_poset tests each proper interval for coatomicity, and the
    # cell walk tests none again; the refinement rows are compared with the
    # interval rows directly, with no second poset to close
    s2 = build_s2(7, 2)
    proper = len(interval_poset(s2, "proper"))
    calls, closures = [], []
    real_coatomic, real_closure = FinitePoset.is_coatomic, posets._closure

    def coatomic(p, i, j):
        calls.append((i, j))
        return real_coatomic(p, i, j)

    def closure(*args):
        closures.append(args)
        return real_closure(*args)

    monkeypatch.setattr(FinitePoset, "is_coatomic", coatomic)
    monkeypatch.setattr(posets, "_closure", closure)
    assert len(baues_poset(7, 2)) == 196
    assert len(calls) == proper == 398
    assert closures == []


def test_refinement_mismatch_names_first_pair_in_key_order(monkeypatch):
    # interval inclusion made discrete, so every strict refinement disagrees
    def discrete(p, variant):
        q = interval_poset(p, variant)
        flat = FinitePoset(q.keys(), [1 << i for i in range(len(q))])
        flat.data = tuple(q.data[x] for x in q.by_key)
        return flat

    monkeypatch.setattr(baues, "interval_poset", discrete)
    oracle = dissection_oracle_d2(6)    # sorted by key
    a, b = next((a, b) for a in oracle for b in oracle
                if a != b and refinement_leq(a, b))
    with pytest.raises(AssertionError) as e:
        baues_poset(6, 2)
    assert str(e.value) == ("refinement disagrees with interval inclusion: "
                            "%s vs %s" % (a.key(), b.key()))


def test_baues_poset_cap_when_cached():
    assert len(build_s2(7, 3)) == 25
    with pytest.raises(ResourceBudgetError) as e:
        baues_poset(7, 3, cap=5)
    assert e.value.kind == "enum_cap"


def test_baues_52_is_ten_cycle():
    bp = baues_poset(5, 2)
    assert len(bp) == 10
    deg = {}
    for i, j in bp.covers():
        deg[i] = deg.get(i, 0) + 1
        deg[j] = deg.get(j, 0) + 1
    assert sorted(deg.values()) == [2] * 10


def test_interval_product_check_small():
    assert interval_product_check(5, 2) == []
    assert interval_product_check(6, 2) == []
    assert interval_product_check(6, 3) == []


def test_interval_product_check_reports_a_factor_that_disagrees(monkeypatch):
    # the quadrilateral's factor replaced by S2(4, 1), the square lattice
    # (4 elements, mu 1): each subdivision with a quadrilateral cell, whose
    # interval is one flip (2 elements, mu -1), is reported
    real = baues.build_s2
    monkeypatch.setattr(baues, "build_s2", lambda n, d, cap=None:
                        real(n, d - 1, cap) if (n, d) == (4, 2) else real(n, d, cap))
    p = baues_poset(5, 2)
    want = [{"subdivision": key, "size": (2, 4), "mobius": (-1, 1)}
            for key, delta in zip(p.elements, p.data) if any(len(c) == 4 for c in delta.cells)]
    assert len(want) == 5
    assert interval_product_check(5, 2) == want


def test_interval_product_check_validates_each_subdivision_once(monkeypatch):
    # the interval's ends come from the cells baues_poset has checked, so
    # _checked_subdivision runs only inside baues_poset, once per subdivision
    checked, inside = [], []

    def counted(*args):
        checked.append(bool(inside))
        return checked_subdivision(*args)

    def marked(*args):
        inside.append(True)
        try:
            return build(*args)
        finally:
            inside.pop()

    checked_subdivision, build = baues._checked_subdivision, baues.baues_poset
    subdivisions = len(build(7, 2))
    monkeypatch.setattr(baues, "_checked_subdivision", counted)
    monkeypatch.setattr(baues, "baues_poset", marked)
    assert interval_product_check(7, 2) == []
    assert checked == [True] * subdivisions
