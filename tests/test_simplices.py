"""Label-level combinatorics against an exact convex-hull oracle.

The oracle below classifies facets of C(n,d) by brute force on
moment-curve coordinates with Fraction arithmetic.  It shares no code
with the gap-parity implementation under test.  The walk over a mask's
set bits is checked against the whole-int lowest-bit loop it replaced.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclictri.oracles import admissible_geometric, zig_zag_admissible
from cyclictri.posets import build_s1
from cyclictri.simplices import (
    bits,
    facet_class,
    facet_split,
    gale_facets,
    gap_parity,
    simplex,
)


def _det(rows):
    # Bareiss-free plain fraction elimination, fine at these sizes.
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    sign = 1
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            sign = -sign
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            for k in range(c, n):
                m[r][k] -= f * m[c][k]
    out = Fraction(sign)
    for i in range(n):
        out *= m[i][i]
    return out


def _pt(i, d):
    return [Fraction(i) ** k for k in range(1, d + 1)]


def hull_facets_oracle(n, d):
    """All facets of conv{(i, i^2, ..., i^d) : 1 <= i <= n}, each tagged
    'lower' or 'upper' by whether the facet is visible from x_d = -inf."""
    out = {}
    for face in combinations(range(1, n + 1), d):
        base = [[1] + _pt(v, d) for v in face]
        signs = set()
        for x in range(1, n + 1):
            if x in face:
                continue
            s = _det(base + [[1] + _pt(x, d)])
            if s == 0:
                signs.add(0)
            else:
                signs.add(1 if s > 0 else -1)
        if len(signs) != 1 or 0 in signs:
            continue
        side = signs.pop()
        # row for the point at infinity in direction +e_d
        inf_side = _det(base + [[0] * d + [1]])
        assert inf_side != 0
        up_dir = 1 if inf_side > 0 else -1
        out[face] = "lower" if up_dir == side else "upper"
    return out


@pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (6, 2), (5, 3), (6, 3), (6, 4), (7, 4)])
def test_gale_facets_match_hull_oracle(n, d):
    oracle = hull_facets_oracle(n, d)
    got = gale_facets(n, d)
    assert {f: c for f, c in got.items()} == oracle


def test_pentagon_facets():
    # (5,2): four lower edges along the chain, one upper edge closing it
    got = gale_facets(5, 2)
    lows = sorted(f for f, c in got.items() if c == "lower")
    ups = sorted(f for f, c in got.items() if c == "upper")
    assert lows == [(1, 2), (2, 3), (3, 4), (4, 5)]
    assert ups == [(1, 5)]


def test_lower_facets_c63():
    got = gale_facets(6, 3)
    lows = sorted(f for f, c in got.items() if c == "lower")
    assert lows == [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6)]


def test_facet_class_hand_cases():
    assert facet_class((1, 2), list(range(1, 6)), 2) == "lower"
    assert facet_class((1, 5), list(range(1, 6)), 2) == "upper"
    # gap 3 is odd and the only gap
    assert facet_class((1, 2, 4), list(range(1, 5)), 3) == "upper"
    assert facet_class((1, 2, 3), list(range(1, 5)), 3) == "lower"


def test_gap_parity_counts_labels_above():
    assert gap_parity((2, 4, 6), 3) == "even"  # 4 and 6 sit above the gap
    assert gap_parity((2, 4, 6), 5) == "odd"
    assert gap_parity((2, 4, 6), 7) == "even"
    with pytest.raises(ValueError):
        gap_parity((2, 4, 6), 4)


def _facet_class_by_gaps(face, vertices):
    # the reference: a facet has every gap of one parity, lower iff even
    parities = {gap_parity(face, i) for i in vertices if i not in face}
    return None if len(parities) > 1 else "upper" if parities == {"odd"} else "lower"


@pytest.mark.parametrize("m", range(2, 13))
def test_facet_class_agrees_with_gap_parity(m):
    # Gale's block scan against the gap-by-gap count, on every d-subset of
    # [m] and, for m <= 9, of the even labels 2, 4, ..., 2m
    vertex_sets = [range(1, m + 1)]
    if m <= 9:
        vertex_sets.append(range(2, 2 * m + 1, 2))
    for vertices in vertex_sets:
        for d in range(1, m):
            for face in combinations(vertices, d):
                assert facet_class(face, vertices, d) == \
                    _facet_class_by_gaps(face, vertices), (face, m)


@pytest.mark.parametrize("n,d,digest", [
    (24, 20, "7c3711f71265047ca2929c2ad94141fd929dd4eff0b91258ec888b5c0193c3d7"),
    (30, 26, "e12eba6a906bc3b786a0d7d994947764f5f77358fc4fc06ddc2abacbb5865c97"),
], ids=["24-20", "30-26"])
def test_gale_facets_keep_keys_order_and_classes(n, d, digest):
    # sha256 of the facets and classes in order, recorded from the
    # gap-by-gap classification the block scan replaced
    text = json.dumps(list(gale_facets(n, d).items()))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_facet_split_tetrahedron():
    lower, upper = facet_split((1, 2, 3, 4))
    assert set(lower) == {(1, 2, 3), (1, 3, 4)}
    assert set(upper) == {(1, 2, 4), (2, 3, 4)}


def test_facet_split_c54():
    lower, upper = facet_split((1, 2, 3, 4, 5))
    assert set(lower) == {(1, 2, 3, 4), (1, 2, 4, 5), (2, 3, 4, 5)}
    assert set(upper) == {(1, 2, 3, 5), (1, 3, 4, 5)}


def test_facet_split_partitions():
    s = (2, 3, 5, 8, 9)
    lower, upper = facet_split(s)
    all_facets = set(combinations(s, len(s) - 1))
    assert set(lower) | set(upper) == all_facets
    assert not set(lower) & set(upper)


def test_zig_zag_hand_cases():
    assert not zig_zag_admissible((1, 3), (2, 4), 1)  # path 1,2,3 too long
    # at d=2 the path 1,2,3,4 still reaches length d+2, and the two chords
    # of the parabola really do cross at an interior point of both
    assert not zig_zag_admissible((1, 3), (2, 4), 2)
    assert zig_zag_admissible((1, 3), (2, 4), 3)
    assert zig_zag_admissible((1, 2), (1, 2), 1)


@pytest.mark.parametrize("n,d", [(5, 2), (6, 2), (6, 3)])
def test_zig_zag_geometry_agreement_lower_faces(n, d):
    # agreement must also hold for faces below full dimension
    faces = [f for k in range(1, d + 2) for f in combinations(range(1, n + 1), k)]
    for s1 in faces:
        for s2 in faces:
            assert zig_zag_admissible(s1, s2, d) == admissible_geometric(s1, s2, d), (s1, s2)


@pytest.mark.parametrize("n,d", [(6, 1), (6, 2), (7, 2), (7, 3), (8, 4), (9, 6), (10, 8)])
def test_zig_zag_agrees_with_geometry(n, d):
    # combinatorial DP vs exact intersection testing, exhaustive
    for s1 in combinations(range(1, n + 1), d + 1):
        for s2 in combinations(range(1, n + 1), d + 1):
            assert zig_zag_admissible(s1, s2, d) == admissible_geometric(s1, s2, d), (s1, s2)


@given(
    st.data(),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=150, deadline=None)
def test_zig_zag_symmetric_and_monotone(data, d):
    n = data.draw(st.integers(min_value=d + 1, max_value=9))
    labels = list(range(1, n + 1))
    s1 = tuple(sorted(data.draw(st.permutations(labels))[: d + 1]))
    s2 = tuple(sorted(data.draw(st.permutations(labels))[: d + 1]))
    a = zig_zag_admissible(s1, s2, d)
    assert a == zig_zag_admissible(s2, s1, d)
    if a:
        assert zig_zag_admissible(s1, s2, d + 1)


def test_simplex_normalizes():
    assert simplex([3, 1, 2]) == (1, 2, 3)
    with pytest.raises(ValueError):
        simplex([1, 1, 2])


def _lowest_bit_walk(m):
    """The set bits of m by the whole-int loop bits replaced, the reference:
    isolate the lowest set bit, report it, clear it."""
    out = []
    while m:
        b = m & -m
        out.append(b.bit_length() - 1)
        m ^= b
    return out


def test_bits_of_zero_and_of_single_bits():
    assert list(bits(0)) == _lowest_bit_walk(0) == []
    for i in [*range(301), 7, 8, 15, 16, 255, 256, 96425]:
        assert list(bits(1 << i)) == _lowest_bit_walk(1 << i) == [i]


def test_bits_of_all_ones():
    for width in range(1, 131):
        m = (1 << width) - 1
        assert list(bits(m)) == _lowest_bit_walk(m) == list(range(width))


@pytest.mark.parametrize("width", [1, 7, 8, 9, 64, 65, 972, 4824, 96426])
def test_bits_matches_the_lowest_bit_walk_on_seeded_masks(width):
    rng = random.Random(width)
    for density in (0.001, 0.01, 0.1, 0.5, 1):
        m = int("".join("1" if rng.random() < density else "0"
                        for _ in range(width)), 2)
        assert list(bits(m)) == _lowest_bit_walk(m), density


def test_bits_matches_the_lowest_bit_walk_on_poset_rows():
    # up-views (each row shifted to its position), stored up-rows and
    # down-rows, of S1(9,3) and of its proper part, whose reads drop the ends
    p = build_s1(9, 3)
    for q in (p, p.proper_part()):
        for rows in (q.up, q._up, q.down):
            for row in rows:
                assert list(bits(row)) == _lowest_bit_walk(row)
