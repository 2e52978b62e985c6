"""Finite poset machinery plus the two Stasheff-Tamari constructions."""

import ast
import hashlib
import json
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclictri
from cyclictri import posets
from cyclictri.baues import Subdivision, baues_poset
from cyclictri.oracles import lattice_witness_all_pairs
from cyclictri.posets import (
    FinitePoset,
    ResourceBudgetError,
    boolean_lattice,
    build_order,
    build_s1,
    build_s2,
    clear_caches,
    compare_relations,
    enumerate_triangulations,
    flip_cover_discrepancies,
    flip_step_edges,
    interval_poset,
    poset_core,
)
from cyclictri.simplices import bits, gale_facets
from cyclictri.topology import chain_counts, poset_homology
from cyclictri.triangulations import Triangulation, apply_flip, increasing_flips, table


def _poset(els, edges):
    ix = {e: i for i, e in enumerate(els)}
    return FinitePoset.from_edges(els, [(ix[a], ix[b]) for a, b in edges])


# standard small non-lattice: a,b both below c,d with nothing between
M_POSET = (["a", "b", "c", "d"],
           [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])


def test_from_edges_closure():
    p = _poset(["x", "y", "z"], [("x", "y"), ("y", "z")])
    assert p.le_keys("x", "z")
    assert not p.le_keys("z", "x")
    assert p.le_keys("y", "y")


def test_from_edges_rejects_cycle():
    with pytest.raises(ValueError):
        _poset(["x", "y"], [("x", "y"), ("y", "x")])


def test_constructor_rejects_non_poset():
    # up-sets that violate antisymmetry
    with pytest.raises(ValueError):
        FinitePoset(("a", "b"), [0b11, 0b11])


def test_covers_is_transitive_reduction():
    p = _poset(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])
    assert p.covers() == [(0, 1), (1, 2)]


def test_boolean_lattice_shape():
    b3 = boolean_lattice(3)
    assert len(b3) == 8
    assert b3.is_bounded()
    assert b3.is_lattice() is True
    assert len(b3.covers()) == 12
    assert b3.mobius_bottom_top() == -1  # mu of B3 is (-1)^3


def test_is_lattice_witness():
    p = _poset(*M_POSET)
    w = p.is_lattice()
    assert w == {"pair": ("a", "b"), "missing": "meet"} or \
        w == {"pair": ("c", "d"), "missing": "join"} or \
        (set(w["pair"]) in ({"a", "b"}, {"c", "d"}))


BOWTIE = (["a", "b", "c", "d", "0", "1"] + ["e%d" % i for i in range(10)],
          [("0", "a"), ("0", "b")] + M_POSET[1] + [("c", "1"), ("d", "1")]
          + [(e, f) for i in range(10) for e, f in (("0", "e%d" % i), ("e%d" % i, "1"))])

# criterion 02's instances of test_acceptance.py
ORDER_INSTANCES = [(n, d) for d in range(1, 8) for n in range(d + 2, 10)] + [(10, 5)]


def _lattice_cases():
    for n, d in ORDER_INSTANCES:
        for name, build in (("s1", build_s1), ("s2", build_s2)):
            yield "%s(%d,%d)" % (name, n, d), lambda b=build, n=n, d=d: b(n, d)
    for n, d in ((6, 2), (7, 3)):
        yield "proper intervals of s2(%d,%d)" % (n, d), \
            lambda n=n, d=d: interval_poset(build_s2(n, d), "proper")
    # criterion 05's instances
    for n, d in ((4, 2), (5, 2), (6, 2), (7, 2), (5, 3), (6, 3), (7, 3), (8, 3),
                 (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)):
        yield "baues(%d,%d)" % (n, d), lambda n=n, d=d: baues_poset(n, d)
    yield "M", lambda: _poset(*M_POSET)
    # a bounded M: the first pair lacks a join, or a meet, in a row whose
    # up-set, or down-set, has 4 members of 16, so the row is settled in bulk
    yield "bowtie, join first", lambda: _poset(["a", "c", "b", "d"] + BOWTIE[0][4:],
                                               BOWTIE[1])
    yield "bowtie, meet first", lambda: _poset(["c", "d", "a", "b"] + BOWTIE[0][4:],
                                               BOWTIE[1])


@pytest.mark.parametrize("make", [pytest.param(make, id=name)
                                  for name, make in _lattice_cases()])
def test_is_lattice_matches_all_pairs_scan(make):
    # True, or the same first pair with the same missing side
    p = make()
    assert p.is_lattice() == lattice_witness_all_pairs(p)


def test_is_lattice_tests_pairs_through_meet_and_join(monkeypatch):
    # the verdict reads the pair rules of meet and join, not copies of them
    calls = {"meet": 0, "join": 0}
    for name in calls:
        rule = getattr(FinitePoset, name)

        def counted(self, x, y, rule=rule, name=name):
            calls[name] += 1
            return rule(self, x, y)

        monkeypatch.setattr(FinitePoset, name, counted)
    p = build_s1(7, 3)
    pairs = sum(len(c) * (len(c) - 1) // 2
                for c in map(p._upper_covers, range(len(p))))
    assert p.is_lattice() is True
    assert calls == {"meet": 0, "join": pairs} and pairs == 18
    assert build_s1(10, 4).is_lattice() is not True
    assert calls["meet"] > 0


def test_bounded_matches_the_pair_rules():
    # the bulk route against meet and join, on every row, bounded or not
    s2 = build_s2(8, 3)
    for p in (build_s1(8, 3), build_s2(9, 4), boolean_lattice(4), s2.proper_part(),
              _poset(*M_POSET), interval_poset(build_s2(6, 2))):
        down, up = p.down, p.up
        for x in range(len(p)):
            meets = sum(1 << y for y in range(len(p)) if p.meet(x, y) is not None)
            joins = sum(1 << y for y in range(len(p)) if p.join(x, y) is not None)
            assert posets._bounded(down[x], down, up) == meets
            assert posets._bounded(up[x], up, down) == joins


def test_meet_join():
    b2 = boolean_lattice(2)
    i1 = b2.index["{1}"]
    i2 = b2.index["{2}"]
    assert b2.elements[b2.meet(i1, i2)] == "{}"
    assert b2.elements[b2.join(i1, i2)] == "{1,2}"


def test_mobius_alternates_on_boolean_lattice():
    b4 = boolean_lattice(4)
    bot = b4.bottom()
    for j in range(len(b4)):
        if b4.le(bot, j):
            rank = b4.elements[j].count(",") + (0 if b4.elements[j] == "{}" else 1)
            assert b4.mobius(bot, j) == (-1) ** rank


def _mobius_by_le(p, x, y):
    # mu(x, x) = 1 and mu(x, z) = -(the sum of mu(x, w) over x <= w < z)
    mu = {}
    for z in range(x, y + 1):
        if p.le(x, z) and p.le(z, y):
            mu[z] = 1 if z == x else -sum(v for w, v in mu.items() if p.le(w, z))
    return mu[y]


@pytest.mark.parametrize("build", [build_s1, build_s2], ids=["s1", "s2"])
def test_hall_mobius_of_the_proper_part_is_mobius_bottom_top(build):
    # one recursion: mu(0, 1) with bounds adjoined, read from the order's
    # rows under a proper part and from copied rows under restrict
    for n, d in CRITERION_02:
        p = build(n, d)
        want = p.mobius_bottom_top()
        assert want == (-1) ** (n - d - 3)     # the proper part is S^(n-d-3)
        assert p.proper_part().hall_mobius() == want
        assert p.restrict(range(1, len(p) - 1)).hall_mobius() == want


def test_mobius_bottom_top_builds_no_proper_part(monkeypatch):
    # criterion 04's orders: mu(bottom, top) read on the rows equals the
    # proper part's Hall sum, with proper_part made to raise
    orders = [build(n, d) for d in range(1, 7) for n in range(d + 2, 10)
              for build in (build_s1, build_s2)]
    want = [p.proper_part().hall_mobius() for p in orders]

    def no_proper_part(self):
        raise AssertionError("mobius_bottom_top built a proper part")

    monkeypatch.setattr(FinitePoset, "proper_part", no_proper_part)
    assert [p.mobius_bottom_top() for p in orders] == want
    assert _poset(["x"], []).mobius_bottom_top() == 1
    for unbounded in (_poset([], []), _poset(*M_POSET)):
        with pytest.raises(ValueError, match="poset is not bounded"):
            unbounded.mobius_bottom_top()


def test_mobius_is_hall_mobius_of_the_open_interval():
    for p in (boolean_lattice(4), build_s1(7, 3)):
        for x in range(len(p)):
            for y in bits(p.up[x]):
                inner = p.up[x] & p.down[y] & ~(1 << x) & ~(1 << y)
                mu = p.mobius(x, y)
                assert mu == _mobius_by_le(p, x, y)
                if x != y:
                    assert mu == p.restrict(bits(inner)).hall_mobius()


def test_mobius_builds_no_subposet(monkeypatch):
    # Hall's sum over the interval's positions on the rows as read, a
    # proper part's too, against the restricted open interval
    s2 = build_s2(8, 3)
    cases = []
    for p in (s2, s2.proper_part()):
        for x in range(len(p)):
            for y in bits(p.up[x]):
                inner = p.up[x] & p.down[y] & ~(1 << x) & ~(1 << y)
                want = 1 if x == y else p.restrict(bits(inner)).hall_mobius()
                cases.append((p, x, y, want))

    def no_restrict(self, keep):
        raise AssertionError("mobius built a subposet")
    monkeypatch.setattr(FinitePoset, "restrict", no_restrict)
    for p, x, y, want in cases:
        assert p.mobius(x, y) == want, (x, y)


@pytest.mark.parametrize("n,d", [(8, 3), (9, 4)])
@pytest.mark.parametrize("build", [build_s1, build_s2], ids=["s1", "s2"])
def test_join_and_meet_are_symmetric(build, n, d):
    # join reads the rows from the higher of its two positions, swapping
    # them when the first is the higher
    p = build(n, d)
    for x in range(len(p)):
        for y in range(x):
            assert p.join(x, y) == p.join(y, x), (x, y)
            assert p.meet(x, y) == p.meet(y, x), (x, y)


@pytest.mark.parametrize("proper", [False, True], ids=["bounded", "proper_part"])
def test_restrict_rejects_positions_out_of_range(proper):
    # a proper part's position -1 would read its order's bottom row, and
    # position len its top row
    p = boolean_lattice(3)
    if proper:
        p = p.proper_part()
    for keep in ([-1, 0], [0, len(p)], [len(p) + 3]):
        with pytest.raises(IndexError):
            p.restrict(keep)
    assert p.restrict([]).elements == ()


def _keep_sets(n, rng):
    """Keep sets for restrict on n positions: none, all, single positions,
    long runs, runs with gaps and scattered positions."""
    keeps = [[], list(range(n))] + [[x] for x in rng.sample(range(n), 3)]
    for _ in range(3):
        a, b = sorted(rng.sample(range(n + 1), 2))
        keeps.append(list(range(a, b)))
        keeps.append([x for x in range(n) if (x // rng.randint(1, 9)) % 2])
        keeps.append(rng.sample(range(n), rng.randint(1, n)))
    return keeps


def test_restrict_matches_a_bitwise_reference():
    # every row of a restriction against one built bit by bit from le, on a
    # triangulation order, on its proper part (rows read from its order's
    # lists) and on interval rows whose key order is not string order
    rng = random.Random(39)
    s1 = build_s1(8, 3)
    for p in (s1, s1.proper_part(), interval_poset(boolean_lattice(3))):
        for keep in _keep_sets(len(p), rng):
            q = p.restrict(keep)
            kept = sorted(keep)
            assert list(q.elements) == [p.elements[x] for x in kept]
            names = set(q.elements)
            assert q.keys() == [e for e in p.keys() if e in names]
            assert list(q.up) == [sum(1 << b for b, y in enumerate(kept) if p.le(x, y))
                                  for x in kept]
            assert list(q.down) == [sum(1 << b for b, y in enumerate(kept) if p.le(y, x))
                                    for x in kept]
            assert [q._up[a] << a for a in range(len(q))] == list(q.up)


def test_relabel_shares_the_rows_under_new_keys():
    p = boolean_lattice(3)
    n = len(p)
    keys = ["k%d" % x for x in range(n)]
    q = p.relabel(keys, None, list(range(n - 1, -1, -1)))
    assert q.elements == tuple(keys) and q.keys() == keys[::-1]
    assert q._up is p._up and q.down is p.down
    assert q.data is None and q.bottom() == p.bottom() and q.top() == p.top()
    assert p.relabel(keys, range(n), list(range(n))).data == tuple(range(n))
    for args in ((keys[1:], None, list(range(n))), (keys, None, [0] * n),
                 (keys, None, list(range(1, n + 1))), (keys, range(n - 1), list(range(n)))):
        with pytest.raises(ValueError):
            p.relabel(*args)


def test_restrict_carries_order():
    b3 = boolean_lattice(3)
    keep = [i for i in range(len(b3)) if b3.elements[i] != "{1,2,3}"]
    q = b3.restrict(keep)
    assert len(q) == 7
    assert q.is_lattice() is not True  # three coatoms lost their join


def test_proper_part():
    b3 = boolean_lattice(3)
    q = b3.proper_part()
    assert len(q) == 6
    assert q.le_keys("{1}", "{1,2}")


# the instances of acceptance criterion 02
CRITERION_02 = [(n, d) for d in range(1, 8) for n in range(d + 2, 10)] + [(10, 5)]


@pytest.mark.parametrize("build", [build_s1, build_s2], ids=["s1", "s2"])
def test_proper_part_matches_restrict(build):
    # the proper part reads the bounded order's rows; restrict copies them
    for n, d in CRITERION_02:
        p = build(n, d)
        q = p.proper_part()
        r = p.restrict(range(1, len(p) - 1))
        assert len(q) == len(r) == len(p) - 2
        assert list(q.up) == list(r.up) and list(q.down) == list(r.down)
        assert [q.up[x] for x in range(len(q))] == list(r.up)
        assert [q.down[x] for x in range(len(q))] == list(r.down)
        assert list(q.elements) == list(r.elements)
        assert list(q.by_key) == list(r.by_key) and list(q.rank) == list(r.rank)
        assert dict(q.index) == dict(r.index)
        assert list(q.data) == list(r.data)
        assert q.covers() == r.covers()
        # restrict reads the order's stored rows under a proper part too
        half = range(0, len(q), 2)
        qh, ph = q.restrict(half), p.restrict([x + 1 for x in half])
        assert list(qh.up) == list(ph.up) and list(qh.down) == list(ph.down)
        assert qh.keys() == ph.keys()


def test_proper_part_rows_are_read_only_views():
    p = build_s1(7, 3)
    q = p.proper_part()
    assert q.up[-1] == q.up[len(q) - 1]
    for bad in (len(q), -len(q) - 1):
        with pytest.raises(IndexError):
            q.up[bad]
    with pytest.raises(TypeError):
        q.up[0] = 0
    with pytest.raises(TypeError):
        q.data[0] = None
    for end in (p.elements[0], p.elements[-1]):
        assert end not in q.index
        with pytest.raises(KeyError):
            q.index[end]


def test_positional_views_read_like_lists():
    # every positional view (keys, data, flip edges, rows) reads, slices
    # and slices again as the list of its items does
    p = build_s1(6, 2)
    q = p.proper_part()
    r = q.restrict(range(0, len(q), 3))
    views = [view for poset in (p, q, r)
             for view in (poset.elements, poset.data, poset.up, poset.down, poset._up)]
    views += [interval_poset(build_s2(5, 2)).elements, flip_step_edges(5, 2)]
    for v in views:
        items = list(v)
        n = len(v)
        assert n == len(items) > 3
        assert [v[i] for i in range(n)] == items and v[-1] == items[-1]
        for a, b in ((1, 3), (0, n), (-3, None), (2, -1), (None, None), (n - 1, 1)):
            assert list(v[a:b]) == items[a:b]
            assert list(v[a:b][1:3]) == items[a:b][1:3]
            assert list(v[a:b][-2:]) == items[a:b][-2:]
        assert list(v[::2][1::-1]) == items[::2][1::-1]
        with pytest.raises(IndexError):
            v[n]
        with pytest.raises(TypeError):
            v["0"]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_empty_proper_part(d):
    # n = d + 2: the two triangulations are the bottom and the top
    q = build_s1(d + 2, d).proper_part()
    assert len(q) == 0 and list(q.up) == [] and list(q.down) == []
    assert q.keys() == [] and q.covers() == [] and dict(q.index) == {}
    with pytest.raises(IndexError):
        q.up[0]
    assert chain_counts(q) == [1]
    assert poset_homology(q).is_sphere(-1)


def test_one_element_order_has_no_proper_part():
    with pytest.raises(ValueError, match="one-element order"):
        FinitePoset.from_edges(["x"], []).proper_part()


def test_proper_part_shares_the_rows():
    # the proper part allocates its keys and key order, never rows
    p = build_s1(9, 3)
    rows = sum(sys.getsizeof(m) for m in p._up) + sum(sys.getsizeof(m) for m in p.down)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        q = p.proper_part()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(q) == 970
    assert peak < rows // 10, (peak, rows)


def test_build_s1_closes_the_flip_edges_in_place(monkeypatch):
    # the closure reads the enumeration's flat edge arrays and holds one set
    # of compressed adjacency arrays at a time, successors by element and
    # then predecessors by position; a second edge list and three lists of
    # adjacency lists took 1.9 MB at (10,4)
    from cyclictri import posets
    enumerate_triangulations(10, 4)
    monkeypatch.setattr(posets, "_s1_cache", {})
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        p = build_s1(10, 4)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(p) == 4824
    assert peak - current < 512 * 1024, (peak, current)


def test_enumeration_keeps_masks_not_triangulations(monkeypatch):
    # the record is the sorted masks and three flip arrays: keeping a
    # Triangulation, a member tuple and a key string per element took a
    # 3.4 MB peak at (10,4), the masks alone 1.0 MB (the table's rows built)
    from cyclictri import posets
    enumerate_triangulations(10, 4)
    monkeypatch.setattr(posets, "_enum_cache", {})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ts = enumerate_triangulations(10, 4)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(ts) == 4824 and len(ts.edges) == 15120
    assert peak < 1536 * 1024, peak


@pytest.mark.parametrize("n,d", [(9, 4), (10, 4)])
def test_lattice_verdict_builds_no_triangulation_per_element(monkeypatch, n, d):
    # enumeration, S1 and its witness build Triangulations and key strings
    # for the witness only, not one per element (4,824 at (10,4) before).
    # Every Triangulation passes through _assign, a mask's own included
    # (_Table.triangulation); a key string is built by Triangulation.key or
    # from a mask by _Table.key.
    from cyclictri import posets, triangulations
    Triangulation, Table = triangulations.Triangulation, triangulations._Table
    made = []

    def counted(cls, name, kind):
        method = getattr(cls, name)

        def wrapper(*args):
            made.append(kind)
            return method(*args)
        monkeypatch.setattr(cls, name, wrapper)

    monkeypatch.setattr(posets, "_enum_cache", {})
    monkeypatch.setattr(posets, "_s1_cache", {})
    monkeypatch.setattr(triangulations, "_table_cache", {})
    counted(Triangulation, "_assign", "object")
    counted(Triangulation, "key", "key")
    counted(Table, "key", "key")
    w = build_s1(n, d).is_lattice()
    assert w is not True and len(w["pair"]) == 2
    # the table's bottom and top, and the two witness keys
    assert sorted(made) == ["key", "key", "object", "object"], made


@pytest.mark.parametrize("n,d,size", [(9, 4, 357), (10, 4, 4824)])
def test_s2_build_makes_no_triangulation(monkeypatch, n, d, size):
    # the height order reads its submersion masks off the enumeration's
    # table masks: no Triangulation and no key string is built per element
    from cyclictri import posets, triangulations
    for cache in ("_enum_cache", "_s2_cache"):
        monkeypatch.setattr(posets, cache, {})
    monkeypatch.setattr(triangulations, "_table_cache", {})
    enumerate_triangulations(n, d)
    made = []

    def counted(cls, name, kind):
        method = getattr(cls, name)

        def wrapper(*args):
            made.append(kind)
            return method(*args)
        monkeypatch.setattr(cls, name, wrapper)

    counted(triangulations.Triangulation, "_assign", "object")
    counted(triangulations.Triangulation, "key", "key")
    counted(triangulations._Table, "key", "key")
    assert len(build_s2(n, d)) == size
    assert made == []


# sha256 of the JSON of [keys, up-sets, down-sets, by_key, rank] of the core
# of each proper part, as the cores were when restrict copied each key
CORE_DIGESTS = {
    ("s1", 9, 3): "b15935f814ded852898b5f3a343b6519a49697370f627791a44e4ab9829f5cea",
    ("s2", 9, 3): "5300f42a7d54849ea3ff4cc7ff623a2e78c4822515b635af36724643fc7484a6",
    ("s1", 10, 4): "cecaeba2564327715b23b58048634ac89100fd18a667d94971633d2af491b9a8",
    ("s2", 10, 4): "33505499a114d4b6bed29a0b77d0ecda3e187a91b36a7e4415e971caac7d5cec",
}


def test_restrict_builds_no_key_and_no_triangulation(monkeypatch):
    # the core and the open interval of mobius are views over the record:
    # building them reads no key string, finds no key and makes no
    # Triangulation (30 of each per core when restrict looked each kept key
    # up)
    from cyclictri import posets, triangulations
    for cache in ("_enum_cache", "_s1_cache", "_s2_cache"):
        monkeypatch.setattr(posets, cache, {})
    monkeypatch.setattr(triangulations, "_table_cache", {})
    parts = {(name, n, d): build(n, d).proper_part()
             for name, build in (("s1", build_s1), ("s2", build_s2))
             for n, d in [(9, 3), (10, 4)]}
    s2 = build_s2(8, 3)
    made = []

    def counted(cls, name):
        method = getattr(cls, name)

        def wrapper(*args):
            made.append(name)
            return method(*args)
        monkeypatch.setattr(cls, name, wrapper)

    counted(triangulations._Table, "key")
    counted(triangulations._Table, "triangulation")
    cores = {at: poset_core(q) for at, q in parts.items()}
    mu = s2.mobius(s2.bottom(), s2.top())
    assert made == []
    assert mu == 1      # (-1)^(n - d - 3)
    for at, core in cores.items():
        doc = [list(core.elements), list(core.up), list(core.down),
               list(core.by_key), list(core.rank)]
        digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
        assert len(core) == 30 and digest == CORE_DIGESTS[at], at
        assert all(core.index[k] == x for x, k in enumerate(core.elements))
        assert list(core.index) == list(core.elements)
        kept = set(core.elements)
        for key in (next(k for k in parts[at].elements if k not in kept),
                    build_order(at[0], at[1], at[2]).elements[0]):     # the bottom
            assert key not in core.index
            with pytest.raises(KeyError):
                core.index[key]
        assert [t.key() for t in core.data] == list(core.elements)


# every instance the acceptance battery enumerates: criteria 01-04 and 07
ACCEPTANCE_ENUMERATED = sorted({(n, d) for d in range(1, 8) for n in range(d + 2, 10)}
                               | {(n, d) for d in (1, 2, 3) for n in range(d + 2, 11)}
                               | {(10, 5)})


def test_compact_sort_key_is_the_key_string_order():
    from cyclictri.triangulations import table
    sizes = {}
    for n, d in ACCEPTANCE_ENUMERATED:
        ts = enumerate_triangulations(n, d)
        keys = [ts.key(r) for r in range(len(ts))]
        assert keys == [t.key() for t in ts], (n, d)
        assert keys == sorted(keys), (n, d)
        tab = table(n, d)
        assert sorted(ts.masks, key=tab.key) == sorted(ts.masks, key=tab.key_order)
        sizes[n, d] = {len(t) for t in ts}
    # instances whose triangulations differ in size
    for nd in [(9, 3), (10, 3), (9, 5)] + [(n, 1) for n in range(4, 11)]:
        assert len(sizes[nd]) > 1, nd
    # no triangulation's members extend another's, so the sentinel decides
    # only for other sets: random ones, each with its prefixes
    rng = random.Random(2101)
    for n, d in [(8, 1), (9, 3), (10, 3), (12, 2)]:
        tab = table(n, d)
        masks = set()
        for _ in range(40):
            members = sorted(rng.sample(range(len(tab.simplices)), rng.randint(1, 6)))
            masks.update(sum(1 << i for i in members[:k]) for k in range(1, len(members) + 1))
        assert sorted(masks, key=tab.key) == sorted(masks, key=tab.key_order), (n, d)


@pytest.mark.parametrize("n,d", [(8, 1), (9, 3), (9, 5), (10, 4)])
def test_walk_sort_keys_are_key_order(n, d):
    # the flip search reads each mask's sort key off its one member walk:
    # the ranks it collects, closed by the sentinel, are key_order's bytes
    from cyclictri.triangulations import table
    ts = enumerate_triangulations(n, d)
    tab = table(n, d)
    end = tab._text_ranks[1]
    for m in ts.masks:
        flips, ranks = [], []
        tab._accumulate(m, flips, ranks)
        assert b"".join(ranks + [end]) == tab.key_order(m)
        assert flips == tab.flips(m)
    assert ts.masks == sorted(ts.masks, key=tab.key_order)


def test_find_reads_no_other_instance(monkeypatch):
    # a key with this instance's head and a later "n" (or "d") field naming
    # another instance is a KeyError before that instance's table is built
    from cyclictri import triangulations
    from cyclictri.triangulations import table
    p = build_s1(7, 3)
    monkeypatch.setattr(triangulations, "_table_cache", {(7, 3): table(7, 3)})
    key = p.elements[0]
    for bad in (key[:-1] + ',"n":30}', key[:-1] + ',"d":5}', key[:-1] + ',"n":30,"d":2}'):
        with pytest.raises(KeyError):
            p.index[bad]
        assert bad not in p.index
    assert list(triangulations._table_cache) == [(7, 3)]
    assert p.index[key] == 0


def test_compare_relations_on_one_record_builds_no_key(monkeypatch):
    # S1 and S2 on one enumeration are matched by element number: no key
    # string is built when they agree, and a divergence names the same pair
    # as the key-string route does
    from cyclictri import triangulations
    from cyclictri.posets import FinitePoset
    s1, s2 = build_s1(8, 3), build_s2(8, 3)
    ts = enumerate_triangulations(8, 3)
    n = len(ts)
    chain = FinitePoset._native(ts, None, [(1 << (n - x)) - 1 for x in range(n)],
                                [(1 << (x + 1)) - 1 for x in range(n)], range(n))

    def plain(p):
        return p.relabel(list(p.elements), None, p.by_key)

    want = [compare_relations(plain(s1), plain(chain)),
            compare_relations(plain(chain), plain(s2))]
    keys = []
    method = triangulations._Table.key

    def counted(tab, mask):
        keys.append(mask)
        return method(tab, mask)
    monkeypatch.setattr(triangulations._Table, "key", counted)
    assert compare_relations(s1, s2) is None and keys == []
    got = [compare_relations(s1, chain), compare_relations(chain, s2)]
    assert got == want and None not in got
    assert len(keys) == 4       # the two witness pairs
    with pytest.raises(ValueError, match="different element sets"):
        compare_relations(s1, s1.restrict(range(1, n)).relabel(
            list(s1.elements)[1:], None, range(n - 1)))
    with pytest.raises(ValueError, match="different element sets"):
        compare_relations(s1, s1.restrict(range(n - 1)))


def test_enumeration_record_views():
    ts = enumerate_triangulations(8, 3)
    p = build_s1(8, 3)
    assert len(p.elements) == len(p.index) == len(p.data) == len(ts)
    for x in (0, 5, len(p) - 1):
        k = p.elements[x]
        assert p.index[k] == x and p.data[x] == ts[p.rank[x]]
        assert p.data[x].key() == k
    assert list(p.elements[1:4]) == [p.elements[x] for x in range(1, 4)]
    doc = json.loads(ts.key(0))
    unsorted = dict(doc, simplices=doc["simplices"][::-1])
    repeated = dict(doc, simplices=doc["simplices"][:1] * 2 + doc["simplices"][1:])
    fewer = dict(doc, simplices=doc["simplices"][1:])   # canonical, not a triangulation
    # another instance's key, past the size guard, is rejected by its head
    # before any table is built; a second "n" field is read past the head
    for bad in ("{}", ts.key(0)[:-1], 3, enumerate_triangulations(8, 2).key(0),
                ts.key(0).replace(",", ", "), ts.key(0).replace('"n":8', '"n":400'),
                ts.key(0)[:-1] + ',"n":400}',
                *(json.dumps(x, separators=(",", ":")) for x in (unsorted, repeated, fewer))):
        assert bad not in p.index
        with pytest.raises(KeyError):
            p.index[bad]
    with pytest.raises(TypeError):
        p.data[0] = None
    assert sorted(p.index) == sorted(p.elements) == [ts.key(r) for r in range(len(ts))]


def test_index_is_one_dict_built_on_first_read():
    for p in (build_s1(8, 3), boolean_lattice(3)):
        assert p.index == {k: x for x, k in enumerate(p.elements)}
        assert type(p.index) is dict and p.index is p.index


def test_lattice_verdict_and_topology_build_no_index(monkeypatch):
    # the proper part, the lattice scan, the Mobius value and the core read
    # positions only: a key string is written for a witness, never for an
    # index
    from cyclictri import posets, triangulations
    for cache in ("_enum_cache", "_s1_cache"):
        monkeypatch.setattr(posets, cache, {})
    keys = []
    method = triangulations._Table.key

    def counted(tab, mask):
        keys.append(mask)
        return method(tab, mask)
    monkeypatch.setattr(triangulations._Table, "key", counted)
    p = build_s1(9, 3)
    q = p.proper_part()
    w = p.is_lattice()
    q.hall_mobius()
    core = poset_core(q)
    assert len(keys) == (0 if w is True else 2)
    assert all("index" not in vars(r) for r in (p, q, core))


def _payload_cases():
    """(name, poset, payload(x) read from position x's key alone, or None
    where the poset carries no payload) for every builder."""
    s1, s2, b3 = build_s1(8, 3), build_s2(8, 3), boolean_lattice(3)

    def tri(p):
        return lambda x: Triangulation.from_json(p.elements[x])

    def ends(p, src):
        return lambda x: tuple(src.index[k] for k in json.loads(p.elements[x]))

    for name, p in (("S1", s1), ("S2", s2)):
        q = p.proper_part()
        for sub, r in (("", p), (".proper", q), (".restrict", p.restrict(range(0, len(p), 3))),
                       (".proper.restrict", q.restrict(range(1, len(q), 4))),
                       (".core", poset_core(q))):
            yield name + sub, r, tri(r)
    def subset(p):
        return lambda x: frozenset(int(v) for v in p.elements[x][1:-1].split(",") if v)

    for name, p in (("B3", b3), ("B3.proper", b3.proper_part()),
                    ("B3.restrict", b3.restrict([0, 2, 5, 7]))):
        yield name, p, subset(p)
    for variant in ("all", "proper", "proper_coatomic"):
        ip = interval_poset(b3, variant)
        yield "Int(B3)." + variant, ip, ends(ip, b3)
        ip = interval_poset(s2, variant)
        yield "Int(S2)." + variant, ip, ends(ip, s2)
    bp = baues_poset(6, 2)
    yield "Baues(6,2)", bp, lambda x: Subdivision.from_json(bp.elements[x])
    yield "relabel", b3.relabel(list("abcdefgh"), "ABCDEFGH", range(8)), "ABCDEFGH".__getitem__
    yield "relabel.none", s1.relabel(list(range(len(s1))), None, range(len(s1))), None
    yield "from_edges", _poset(["a", "b"], [("a", "b")]), None


def test_data_by_position_is_data_of_each_element():
    for name, p, want in _payload_cases():
        if want is None:
            assert p.data is None, name
            continue
        assert len(p.data) == len(p), name
        assert [p.data[x] for x in range(len(p))] == list(map(want, range(len(p)))), name
        assert list(p.data) == [p.data[x] for x in range(len(p))], name
        with pytest.raises(TypeError):
            p.data[0] = p.data[0]


@pytest.mark.parametrize("build", [build_s1, build_s2], ids=["s1", "s2"])
@pytest.mark.parametrize("n,d,bound", [(9, 3, 0.60), (10, 4, 0.55)])
def test_up_rows_are_stored_from_their_own_position(build, n, d, bound):
    # the row of x spans the n - x positions from x on, so the rows take
    # about half the bytes of full-width ones; the fixed 24-byte header of
    # each int keeps the ratio at 0.58 at (9,3), 0.52 at (10,4)
    p = build(n, d)
    stored = sum(sys.getsizeof(m) for m in p._up)
    full = sum(sys.getsizeof(m) for m in p.up)
    assert stored <= bound * full, (stored, full)
    for x in range(len(p)):
        assert p._up[x] << x == p.up[x]
        assert p._up[x].bit_length() == len(p) - x     # the top is in every row


def _dfs_reach(n, edges):
    """Reflexive-transitive closure over key indices by depth-first search
    from each element."""
    succ = [[] for _ in range(n)]
    for i, j in edges:
        succ[i].append(j)
    reach = []
    for i in range(n):
        seen = {i}
        stack = [i]
        while stack:
            for j in succ[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        reach.append(seen)
    return reach


@pytest.mark.parametrize("n", [0, 1, 2, 50, 200])
def test_from_edges_matches_a_dfs_closure(n):
    rng = random.Random(1900 + n)
    hidden = list(range(n))
    rng.shuffle(hidden)     # the DAG goes up this hidden order
    linked = n - n // 10    # the other elements stay isolated
    edges = []
    for _ in range(3 * n if n > 1 else 0):
        a, b = sorted(rng.sample(range(linked), 2))
        edges.append((hidden[a], hidden[b]))
    edges += edges[:n // 5]     # duplicate edges
    rng.shuffle(edges)
    keys = ["k%03d" % i for i in range(n)]
    p = FinitePoset.from_edges(keys, edges)
    reach = _dfs_reach(n, edges)
    pos = [p.index[k] for k in keys]
    assert p.keys() == keys
    assert len(p.up) == len(p.down) == n
    for i in range(n):
        assert p.up[pos[i]] == sum(1 << pos[j] for j in reach[i])
        assert p.down[pos[i]] == sum(1 << pos[j] for j in range(n) if i in reach[j])
    for i in hidden[linked:]:
        assert p.up[pos[i]] == p.down[pos[i]] == 1 << pos[i]
    if edges:
        i, j = edges[0]
        with pytest.raises(ValueError, match="cycle"):
            FinitePoset.from_edges(keys, edges + [(j, i)])


def _transposed(p):
    """down-sets read off the up-sets, bit by bit."""
    down = [0] * len(p)
    for x, row in enumerate(p.up):
        for y in bits(row):
            down[y] |= 1 << x
    return down


def test_up_is_the_transpose_of_down():
    posets = [boolean_lattice(4), interval_poset(boolean_lattice(3)),
              baues_poset(6, 2)]
    for n, d in CRITERION_02:
        posets += [build_s1(n, d), build_s2(n, d)]
    for p in posets:
        assert _transposed(p) == list(p.down)
        if p.is_bounded() and len(p) > 1:
            q = p.proper_part()
            assert _transposed(q) == list(q.down)


def test_flip_edges_match_the_public_flips():
    for n, d in CRITERION_02:
        ts = enumerate_triangulations(n, d)
        at = {t: i for i, t in enumerate(ts)}
        want = [(i, at[apply_flip(t, cand)], cand)
                for i, t in enumerate(ts) for cand in increasing_flips(t)]
        got = flip_step_edges(n, d)
        assert len(got) == len(want) and sorted(got) == sorted(want), (n, d)
        # a read-only view over the record: the same tuples on every call,
        # by index too, and no way to change them
        assert list(flip_step_edges(n, d)) == list(got)
        assert [got[k] for k in range(len(got))] == list(got)
        with pytest.raises(TypeError):
            got[0] = got[0]


def test_positions_are_a_linear_extension():
    for p in (_poset(*M_POSET), boolean_lattice(3), build_s1(7, 3), build_s2(7, 3)):
        for x in range(len(p)):
            assert p.up[x] & ((1 << x) - 1) == 0
            assert p.down[x] >> (x + 1) == 0


def test_to_json_schema():
    b2 = boolean_lattice(2)
    doc = json.loads(b2.to_json())
    assert set(doc) == {"elements", "covers"}
    assert doc["elements"][0] == "{}"
    assert [0, 1] in doc["covers"]


def test_to_dot_mentions_every_cover():
    b2 = boolean_lattice(2)
    dot = b2.to_dot()
    assert dot.count("->") == len(b2.covers())


def test_enumeration_counts():
    assert len(enumerate_triangulations(4, 2)) == 2
    assert len(enumerate_triangulations(6, 2)) == 14
    assert len(enumerate_triangulations(7, 3)) == 25
    assert len(enumerate_triangulations(8, 4)) == 40
    assert len(enumerate_triangulations(5, 1)) == 8


@pytest.mark.parametrize("d", range(10, 19))
def test_enumeration_counts_at_large_d(d):
    # C(d+3, d) has d+3 triangulations; a conflict row costs time polynomial
    # in d, so these take a fraction of a second each
    assert len(enumerate_triangulations(d + 3, d)) == d + 3


# Regression pins: the brute-force oracle cannot reach these counts.
@pytest.mark.parametrize("d,count", zip(range(4, 15), [40, 67, 102, 165, 244, 387, 562,
                                                        881, 1264, 1967, 2798]))
def test_enumeration_counts_d_plus_4(d, count):
    assert len(enumerate_triangulations(d + 4, d)) == count


@pytest.mark.parametrize("n,d", [(15, 12), (21, 18)])
def test_s1_equals_s2_at_large_d(n, d):
    # S1 = S2 (Williams 2023); the deny masks take O(n(n-d)) mask
    # operations per simplex, so (21,18) takes well under a second
    assert compare_relations(build_s1(n, d), build_s2(n, d)) is None


def test_s1_40_38_is_a_lattice():
    assert len(enumerate_triangulations(40, 38)) == 2
    assert build_s1(40, 38).is_lattice() is True


def test_enumeration_validates_every_mask(monkeypatch):
    # a wrong volume in one table row must stop the flip search
    from cyclictri import posets
    from cyclictri.triangulations import table
    tab = table(6, 2)
    i = tab.index[tab.bottom.simplices[0]]
    conflicts, volume, facets, extensions = tab.row(i)
    rows = list(tab._rows)
    rows[i] = (conflicts, volume + 1, facets, extensions)
    monkeypatch.setattr(tab, "_rows", rows)
    monkeypatch.setattr(posets, "_enum_cache", {})
    with pytest.raises(AssertionError, match="rule='volume'"):
        enumerate_triangulations(6, 2)


def test_enumeration_cap():
    with pytest.raises(ResourceBudgetError):
        enumerate_triangulations(8, 2, cap=10)


def test_enumeration_cap_fields_during_search():
    clear_caches()
    with pytest.raises(ResourceBudgetError) as e:
        enumerate_triangulations(8, 2, cap=10)
    err = e.value
    assert (err.kind, err.limit, err.reached, err.where) == \
        ("enum_cap", 10, 11, "C(8, 2)")
    assert str(err) == "enumeration cap 10 exceeded at C(8, 2)"


def test_enumeration_cap_fields_when_cached():
    assert len(enumerate_triangulations(6, 2)) == 14
    with pytest.raises(ResourceBudgetError) as e:
        enumerate_triangulations(6, 2, cap=5)
    err = e.value
    assert (err.kind, err.limit, err.reached, err.where) == \
        ("enum_cap", 5, 14, "C(6, 2)")
    assert str(err) == "enumeration cap 5 exceeded at C(6, 2)"


def test_relation_bound_refuses_each_builder(monkeypatch):
    # N elements need N^2 // 8 bytes of rows: S1 and S2(6, 2) 24 bytes, the
    # 13 intervals of S2(5, 2) 21 bytes, S2(5, 2) itself 3 bytes
    assert len(build_s1(6, 2)) == 14
    s2 = build_s2(5, 2)
    monkeypatch.setattr(posets, "RELATION_BYTES", 10)
    monkeypatch.setattr(posets, "_s2_cache", {})
    for build, where, count in [
            (lambda: build_s1(6, 2), "flip order of C(6, 2)", 14),    # cached
            (lambda: build_s2(6, 2), "height order of C(6, 2)", 14),
            (lambda: interval_poset(s2), "interval poset (all)", 13)]:
        with pytest.raises(ResourceBudgetError) as e:
            build()
        err = e.value
        assert (err.kind, err.limit, err.reached, err.where) == \
            ("relation_bytes", 10, count * count // 8, where)
        assert str(err) == ("%s: %d elements need %d bytes of relation rows, over "
                            "the bound of 10 bytes" % (where, count, count * count // 8))
    # refused before any row was built
    assert posets._s2_cache == {}
    assert len(build_s2(5, 2)) == 5


def test_relation_bound_keeps_11_4_and_refuses_12_6():
    # S1 and S2 of C(11, 4) and the Baues poset of C(11, 2) stay under the
    # default bound; C(12, 6), 340,560 triangulations, is refused
    posets._relation_guard(96426, "flip order of C(11, 4)")
    posets._relation_guard(103048, "interval poset (proper_coatomic)")
    with pytest.raises(ResourceBudgetError) as e:
        posets._relation_guard(340560, "C(12, 6)")
    assert (e.value.limit, e.value.reached) == (2 << 30, 14497639200)


def test_clear_caches_forgets_tables_and_gale_facets():
    ts = enumerate_triangulations(6, 2)
    tab, facets = table(6, 2), gale_facets(6, 2)
    clear_caches()
    assert table(6, 2) is not tab
    assert gale_facets(6, 2) is not facets
    again = enumerate_triangulations(6, 2)
    assert again is not ts
    assert list(again.masks) == list(ts.masks)
    assert [again.key(r) for r in range(len(again))] == [ts.key(r) for r in range(len(ts))]


@pytest.mark.parametrize("build", [build_s1, build_s2])
def test_order_builders_cap_when_cached(build):
    assert len(build(7, 3)) == 25
    with pytest.raises(ResourceBudgetError) as e:
        build(7, 3, cap=5)
    assert (e.value.kind, e.value.limit, e.value.reached) == ("enum_cap", 5, 25)


def test_s2_middle_cells_size_guard(monkeypatch):
    # the height order's middle cells are counted, with table()'s bound,
    # before any is listed; a fresh table of C(9, 4) and caches that miss
    # let the guard, not a cache, decide
    from cyclictri import posets, triangulations
    tab = triangulations._Table(9, 4)
    monkeypatch.setattr(triangulations, "_table_cache", {(9, 4): tab})
    monkeypatch.setattr(posets, "_enum_cache", {})
    monkeypatch.setattr(posets, "_s2_cache", {})
    monkeypatch.setattr(triangulations, "DEFAULT_ENUM_CAP", 83)
    with pytest.raises(ResourceBudgetError) as e:
        build_s2(9, 4)
    err = e.value
    assert (err.kind, err.limit, err.reached, err.where) == ("size_guard", 83, 84, "C(9, 4)")
    assert str(err) == "C(9, 4): 84 vertex sets of size 3 exceed the size bound 83"
    assert "_middle" not in vars(tab)


def test_s1_s2_small_equal():
    for n, d in [(5, 2), (6, 2), (7, 2), (6, 3)]:
        s1 = build_s1(n, d)
        s2 = build_s2(n, d)
        assert compare_relations(s1, s2) is None


def test_s1_bounds():
    from cyclictri.triangulations import bottom, top

    s1 = build_s1(6, 2)
    assert s1.elements[s1.bottom()] == bottom(6, 2).key()
    assert s1.elements[s1.top()] == top(6, 2).key()


def test_compare_relations_reports_divergence():
    b2 = boolean_lattice(2)
    chain = FinitePoset.from_edges(list(b2.elements), [(0, 1), (1, 2), (2, 3)])
    diff = compare_relations(b2, chain)
    assert diff is not None
    assert diff["in_first"] != diff["in_second"]


def test_tamari_lattice_c62():
    s2 = build_s2(6, 2)
    assert len(s2) == 14
    assert s2.is_lattice() is True
    assert s2.mobius_bottom_top() == -1  # (-1)^{6-2-3}


def test_s2_c52_is_pentagon_chain():
    # S2(5,2) is the Tamari lattice on 5 triangulations
    s2 = build_s2(5, 2)
    assert len(s2) == 5
    assert len(s2.covers()) == 5
    assert s2.is_lattice() is True


def test_every_flip_is_a_cover_small():
    for n, d in [(6, 2), (6, 3), (7, 3)]:
        assert flip_cover_discrepancies(n, d) == []


def test_interval_poset_counts_b2():
    b2 = boolean_lattice(2)
    assert len(interval_poset(b2, "all")) == 9
    assert len(interval_poset(b2, "proper")) == 8
    # every proper interval of B2 has at most one coatom, so all are coatomic
    assert len(interval_poset(b2, "proper_coatomic")) == 8


def test_interval_poset_order_is_containment():
    b2 = boolean_lattice(2)
    ip = interval_poset(b2, "all")
    for a in range(len(ip)):
        ia, ja = ip.data[a]
        for b in range(len(ip)):
            ib, jb = ip.data[b]
            want = b2.le(ib, ia) and b2.le(ja, jb)
            assert ip.le(a, b) == want


def test_interval_keys_are_written_when_read():
    for p in (boolean_lattice(3), build_s2(6, 2)):
        names = [str(e) for e in p.elements]
        for variant in ("all", "proper", "proper_coatomic"):
            ip = interval_poset(p, variant)
            want = [json.dumps([names[x], names[y]], separators=(",", ":"))
                    for x, y in ip.data]
            assert list(ip.elements) == want
            assert [ip.elements[z] for z in range(len(ip))] == want
            assert list(ip.elements[1:-1]) == want[1:-1]
            assert list(ip.restrict(range(0, len(ip), 3)).elements) == want[::3]
            assert ip.index == {k: z for z, k in enumerate(want)}
            # key order: by the keys of the low end, then of the high end
            assert [tuple(json.loads(k)) for k in ip.keys()] == \
                sorted((names[x], names[y]) for x, y in ip.data)


def test_baues_poset_writes_no_interval_key(monkeypatch):
    # baues_poset relabels the coatomic interval poset by subdivision keys,
    # so no interval key is read: 8,214 of them (2.8 MB) were written and
    # dropped at (9,3)
    from types import SimpleNamespace

    from cyclictri import posets
    written = []

    def dumps(obj, **kwargs):
        written.append(obj)
        return json.dumps(obj, **kwargs)
    monkeypatch.setattr(posets, "json", SimpleNamespace(dumps=dumps))
    p = baues_poset(8, 3)
    assert len(p) > 0 and written == []


def test_coatomic_intervals_of_s2_52():
    s2 = build_s2(5, 2)
    coat = interval_poset(s2, "proper_coatomic")
    assert len(coat) == 10


def _reference_coatomic(p, i, j):
    """The rule for lattices by pairwise meets: k in [i, j] is a coatom iff
    [k, j] has two members, and [i, j] is coatomic iff the pairwise meets
    of its coatoms fold to i ([i, i], with none, is coatomic)."""
    cur = None
    for k in bits(p.up[i] & p.down[j]):
        if (p.up[k] & p.down[j]).bit_count() == 2:
            cur = k if cur is None else p.meet(cur, k)
            if cur is None:
                return False
    return (j if cur is None else cur) == i


def test_is_coatomic_matches_pairwise_meets():
    # the lower-cover walk against the meet fold on every comparable pair
    # of the height orders whose Baues posets criterion 05 certifies
    verdicts = set()
    for n, d in [(4, 2), (5, 2), (6, 2), (7, 2), (5, 3), (6, 3), (7, 3), (8, 3),
                 (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)]:
        p = build_s2(n, d)
        for i in range(len(p)):
            for j in bits(p.up[i]):
                got = p.is_coatomic(i, j)
                assert got == _reference_coatomic(p, i, j), (n, d, i, j)
                verdicts.add(got)
    assert verdicts == {True, False}


def test_is_coatomic_off_lattices():
    # S2(9,4) is not a lattice, and the rule holds in any finite poset: [i, j]
    # is coatomic iff i is the greatest of the lower bounds, below j, of its
    # coatoms (j itself when there are none)
    p = build_s2(9, 4)
    assert p.is_lattice() is not True
    with pytest.raises(ValueError, match="need a lattice"):
        interval_poset(p, "proper_coatomic")
    verdicts = set()
    for i in range(len(p)):
        for j in bits(p.up[i]):
            coatoms = [k for k in bits(p.up[i] & p.down[j])
                       if (p.up[k] & p.down[j]).bit_count() == 2]
            lows = [z for z in bits(p.down[j]) if all(p.le(z, c) for c in coatoms)]
            want = all(p.le(z, i) for z in lows)
            assert p.is_coatomic(i, j) == want, (i, j)
            verdicts.add(want)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# The coordinate system against naive references, on random DAGs whose key
# order is not a linear extension.

@st.composite
def _dags(draw):
    """(keys, key-order step edges, hidden bottom, hidden top): a random DAG
    on up to 12 elements, steps going up a hidden order that the keys
    scramble; sometimes bounded by hidden element 0 and the last one."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    steps = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    bounded = draw(st.booleans())
    if bounded:
        steps += [(0, u) for u in range(1, n)] + [(u, n - 1) for u in range(n - 1)]
    key_of = draw(st.permutations(range(n)))
    if steps and all(key_of[u] < key_of[v] for u, v in steps):
        key_of = [n - 1 - k for k in key_of]
    keys = ["k%02d" % r for r in range(n)]
    return keys, [(key_of[u], key_of[v]) for u, v in steps], key_of[0], key_of[n - 1]


def _reach(n, edges):
    """Floyd-Warshall reflexive-transitive closure over key indices."""
    r = [[i == j for j in range(n)] for i in range(n)]
    for i, j in edges:
        r[i][j] = True
    for k in range(n):
        for i in range(n):
            if r[i][k]:
                for j in range(n):
                    if r[k][j]:
                        r[i][j] = True
    return r


def _naive_witness(keys, r):
    """First key-order pair lacking a meet or a join, or True."""
    n = len(keys)

    def extremum(common, below):
        return any(all(below(c, m) for c in common) for m in common)

    for i in range(n):
        for j in range(i + 1, n):
            lows = [k for k in range(n) if r[k][i] and r[k][j]]
            if not extremum(lows, lambda c, m: r[c][m]):
                return {"pair": (keys[i], keys[j]), "missing": "meet"}
            ups = [k for k in range(n) if r[i][k] and r[j][k]]
            if not extremum(ups, lambda c, m: r[m][c]):
                return {"pair": (keys[i], keys[j]), "missing": "join"}
    return True


def _naive_mobius(r, i, j):
    mu = {}

    def m(k):
        if k not in mu:
            mu[k] = 1 if k == i else -sum(m(w) for w in range(len(r))
                                          if r[i][w] and r[w][k] and w != k)
        return mu[k]
    return m(j)


@settings(max_examples=150, deadline=None)
@given(_dags(), st.data())
def test_coordinates_match_naive_references(dag, data):
    keys, edges, bot, top = dag
    n = len(keys)
    r = _reach(n, edges)
    p = FinitePoset.from_edges(keys, edges)
    pos = [p.index[k] for k in keys]
    assert p.keys() == keys
    # closure, both directions, and the linear-extension invariant
    for i in range(n):
        for j in range(n):
            assert p.le(pos[i], pos[j]) == r[i][j]
            assert bool((p.down[pos[j]] >> pos[i]) & 1) == r[i][j]
    for x in range(n):
        assert p.up[x] & ((1 << x) - 1) == 0
        assert p.down[x] >> (x + 1) == 0
    # covers: the naive transitive reduction
    assert p.covers() == sorted(
        (i, j) for i in range(n) for j in range(n)
        if i != j and r[i][j] and not any(r[i][k] and r[k][j]
                                          for k in range(n) if k not in (i, j)))
    # restrict: the induced subposet, key order kept
    keep = sorted(data.draw(st.sets(st.integers(0, n - 1))))
    q = p.restrict([pos[i] for i in keep])
    assert q.keys() == [keys[i] for i in keep]
    for a in keep:
        for b in keep:
            assert q.le_keys(keys[a], keys[b]) == r[a][b]
    for x in range(len(q)):
        assert q.up[x] & ((1 << x) - 1) == 0
    # proper part: positions 1 .. n-2 of a bounded poset
    bounded = all(r[bot][k] and r[k][top] for k in range(n))
    assert p.is_bounded() == bounded
    if not bounded or n == 1:
        with pytest.raises(ValueError):
            p.proper_part()
    else:
        inner = [k for k in range(n) if k not in (bot, top)]
        q = p.proper_part()
        assert q.keys() == [keys[k] for k in inner]
        for a in inner:
            for b in inner:
                assert q.le_keys(keys[a], keys[b]) == r[a][b]
    assert p.is_lattice() == _naive_witness(keys, r)
    ip = interval_poset(p)
    for a in range(len(ip)):
        assert ip.up[a] & ((1 << a) - 1) == 0
        x, y = ip.data[a]
        for b in range(len(ip)):
            v, w = ip.data[b]
            assert ip.le(a, b) == (p.le(v, x) and p.le(y, w))
    for i in range(n):
        for j in range(n):
            if r[i][j]:
                assert p.mobius(pos[i], pos[j]) == _naive_mobius(r, i, j)
    # the same relation from up-set rows; the bare steps only if closed
    rows = [sum(1 << j for j in range(n) if r[i][j]) for i in range(n)]
    assert compare_relations(p, FinitePoset(keys, rows)) is None
    steps = [(1 << i) | sum(1 << j for j in {b for a, b in edges if a == i})
             for i in range(n)]
    if steps == rows:
        FinitePoset(keys, steps)
    else:
        with pytest.raises(ValueError):
            FinitePoset(keys, steps)
    # compare_relations: the first divergent pair in key order
    fewer = data.draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
    r2 = _reach(n, fewer)
    want = next(({"pair": (keys[i], keys[j]), "in_first": r[i][j], "in_second": r2[i][j]}
                 for i in range(n) for j in range(n) if r[i][j] != r2[i][j]), None)
    assert compare_relations(p, FinitePoset.from_edges(keys, fewer)) == want


def _package_nodes(skip):
    """(file name, node) for every syntax node of the package's modules but
    the one named skip."""
    for path in sorted(Path(cyclictri.__file__).parent.glob("*.py")):
        if path.name != skip:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                yield path.name, node


def test_only_triangulations_masks_member_tuples():
    # a Triangulation carries its table mask: no module but triangulations.py
    # rebuilds one from a .simplices attribute by a .mask(...) call
    bad = []
    for name, node in _package_nodes("triangulations.py"):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "mask":
            bad += [(name, node.lineno) for arg in node.args for sub in ast.walk(arg)
                    if isinstance(sub, ast.Attribute) and sub.attr == "simplices"]
    assert not bad


def test_no_package_path_parses_a_key():
    # keys are written, never read back: only the two readers of keys from
    # outside, Triangulation.from_json and Subdivision.from_json, parse JSON
    # (the oracles are not a package path)
    readers = {("triangulations.py", "Triangulation"), ("baues.py", "Subdivision")}
    nodes = list(_package_nodes("oracles.py"))
    inside = set()      # the nodes of the two readers' bodies
    for name, node in nodes:
        if isinstance(node, ast.ClassDef) and (name, node.name) in readers:
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "from_json":
                    inside.update(map(id, ast.walk(fn)))
    bad = []
    for name, node in nodes:
        if isinstance(node, ast.Call) and id(node) not in inside:
            f = node.func
            called = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if called in ("from_json", "loads"):
                bad.append((name, node.lineno, called))
    assert inside and not bad, bad


def test_covers_is_an_export_format_only():
    # the sorted cover list is an export format: in the package only the two
    # writers and the poset subcommand call covers(), and every relation
    # check walks the covers by position
    allowed = {("posets.py", "to_json"), ("posets.py", "to_dot"), ("cli.py", "cmd_poset")}
    calls, callers = [], {}
    for name, node in list(_package_nodes(None)):     # listed: no node id reused
        if isinstance(node, ast.Call):
            f = node.func
            if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) == "covers":
                calls.append((name, node))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # walked outside in, so a nested function names its own calls
            for sub in ast.walk(node):
                callers[id(sub)] = (name, node.name)
    found = {callers.get(id(node), (name, None)) for name, node in calls}
    assert found == allowed


def test_only_posets_reads_the_stored_rows():
    # the row storage (up-rows from their own position, a proper part's
    # window over its order's lists) is read by posets.py alone: no other
    # module of the package touches it or imports a private name of posets
    storage = {"_frame", "_up", "_native", "_fill", "_set_rows"}
    bad = []
    for name, node in _package_nodes("posets.py"):
        if isinstance(node, ast.Attribute) and node.attr in storage:
            bad.append((name, node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module, node.level) in (
                ("posets", 1), ("cyclictri.posets", 0)):
            bad += [(name, node.lineno, a.name) for a in node.names
                    if a.name.startswith("_")]
    assert not bad


CRITERION_04 = [(n, d) for d in range(1, 7) for n in range(d + 2, 10)]


def _core_by_live_list(p):
    """poset_core's positions by the loop it replaced, the reference: each
    round walks a list of the live positions and keeps those it does not
    remove."""
    up, down, first = p._frame
    alive = ((1 << len(p.elements)) - 1) << first
    live = range(first, first + len(p.elements))
    removed = True
    while removed:
        removed = False
        kept = []
        for x in live:
            rest = alive ^ (1 << x)
            below = down[x] & rest
            if below and not below & ~down[below.bit_length() - 1]:
                alive = rest
                removed = True
                continue
            above = up[x] & (rest >> x)
            k = (above & -above).bit_length() - 1
            if above and not (above >> k) & ~up[x + k]:
                alive = rest
                removed = True
            else:
                kept.append(x)
        live = kept
    return [x - first for x in live]


def test_poset_core_matches_the_live_list_core():
    parts = [build(n, d).proper_part() for n, d in CRITERION_04
             for build in (build_s1, build_s2)]
    for q in parts + [baues_poset(6, 2), baues_poset(7, 2)]:
        want = _core_by_live_list(q)
        assert list(poset_core(q).elements) == [q.elements[x] for x in want]
