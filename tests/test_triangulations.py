"""Triangulations of C(n,d): construction, validation, flips, maps."""

import json
import random
from itertools import combinations, product

import pytest

from cyclictri.geometry import cyclic_volume, normalized_volume
from cyclictri.oracles import submersion_set, zig_zag_admissible
from cyclictri.simplices import bits, facet_split, gale_facets
from cyclictri.triangulations import (
    ResourceBudgetError,
    Triangulation,
    Violation,
    _Table,
    apply_flip,
    bottom,
    color,
    contract_last,
    increasing_flips,
    insert_bottom,
    insert_top,
    make_triangulation,
    submersion_mask,
    table,
    terminal_simplex,
    top,
    validate,
)


def test_bottom_top_c42():
    assert bottom(4, 2).simplices == ((1, 2, 3), (1, 3, 4))
    assert top(4, 2).simplices == ((1, 2, 4), (2, 3, 4))


def test_bottom_is_fan_at_one_for_d2():
    for n in range(4, 9):
        t = bottom(n, 2)
        assert t.simplices == tuple((1, i, i + 1) for i in range(2, n))


def test_top_is_fan_at_n_for_d2():
    for n in range(4, 9):
        t = top(n, 2)
        assert t.simplices == tuple((i, i + 1, n) for i in range(1, n - 1))


def test_bottom_top_c63():
    # lower/upper facets of C(6,4), read as 3-simplices on 6 labels
    b = bottom(6, 3)
    t = top(6, 3)
    assert b.simplices == ((1, 2, 3, 4), (1, 2, 4, 5), (1, 2, 5, 6),
                           (2, 3, 4, 5), (2, 3, 5, 6), (3, 4, 5, 6))
    assert t.simplices == ((1, 2, 3, 6), (1, 3, 4, 6), (1, 4, 5, 6))
    assert sum(normalized_volume(s, 3) for s in b.simplices) == cyclic_volume(6, 3)
    assert sum(normalized_volume(s, 3) for s in t.simplices) == cyclic_volume(6, 3)
    assert validate(b.simplices, 6, 3) is None
    assert validate(t.simplices, 6, 3) is None


def test_make_triangulation_validates():
    t = make_triangulation([(1, 3, 4), (1, 2, 3)], 4, 2)
    assert t.simplices == ((1, 2, 3), (1, 3, 4))
    with pytest.raises(ValueError):
        make_triangulation([(1, 2, 3), (2, 3, 4)], 4, 2)  # volume shortfall


def test_validate_violations():
    # triangles 123 and 234 lie on the same side of their shared chord
    v = validate([(1, 2, 3), (2, 3, 4)], 4, 2)
    assert v is not None and v.rule == "admissible"
    v = validate([(1, 2, 4), (1, 3, 4)], 4, 2)
    assert v is not None
    # pairwise admissible but leaves the region over {1,3},{3,5} uncovered
    v = validate([(1, 2, 3), (3, 4, 5)], 5, 2)
    assert v is not None and v.rule in ("volume", "wall")
    v = validate([(1, 2), (1, 2, 3)], 4, 2)
    assert v is not None and v.rule == "shape"
    v = validate([(1, 2, 3), (1, 3, 4), (1, 3, 4)], 4, 2)
    assert v is not None
    assert validate([(1, 2, 3), (1, 3, 4)], 4, 2) is None


def test_violation_repr_pinned():
    v = Violation("wall", (1, 3), "hull facet not covered")
    assert repr(v) == "Violation(rule='wall', witness=(1, 3), message='hull facet not covered')"
    assert (v.rule, v.witness, v.message) == ("wall", (1, 3), "hull facet not covered")


def test_triangulation_key_roundtrip():
    t = bottom(7, 3)
    s = t.key()
    assert Triangulation.from_json(s) == t
    assert isinstance(s, str) and '"n":7' in s.replace(" ", "")


@pytest.mark.parametrize("n,d", [(6, 1), (8, 2), (8, 3), (11, 8)])
def test_triangulation_key_is_compact_json(n, d):
    for t in _all_triangulations(n, d):
        assert t.key() == json.dumps({"n": n, "d": d,
                                      "simplices": [list(s) for s in t.simplices]},
                                     separators=(",", ":"))


def test_hash_is_that_of_the_mask(monkeypatch):
    from cyclictri import posets
    monkeypatch.setattr(posets, "_enum_cache", {})
    ts = posets.enumerate_triangulations(7, 3)
    # the enumeration keeps masks: each read builds a new, equal object
    assert ts[3] is not ts[3] and ts[3] == ts[3]
    t = Triangulation(7, 3, ts[3].simplices)
    flipped = [apply_flip(s, cand) for s in ts for cand in increasing_flips(s)]
    for s in [t, ts[3], bottom(7, 3)] + list(ts) + flipped:
        assert hash(s) == hash((s.n, s.d, s.mask))
        assert hash(s) == hash(s)
    assert t == ts[3] and hash(t) == hash(ts[3])
    at = {s: i for i, s in enumerate(ts)}
    assert all(ts[at[s]] == s for s in flipped)


def test_increasing_flips_from_bottom_c52():
    t = bottom(5, 2)
    cands = increasing_flips(t)
    # both interior "ears" 1234 and 1345 support an increasing flip
    assert sorted(cands) == [(1, 2, 3, 4), (1, 3, 4, 5)]


def test_apply_flip_c42():
    t = bottom(4, 2)
    (cand,) = increasing_flips(t)
    assert cand == (1, 2, 3, 4)
    t2 = apply_flip(t, cand)
    assert t2 == top(4, 2)
    assert not increasing_flips(t2)


def test_flip_preserves_validity_and_volume():
    seen = set()
    stack = [bottom(6, 2)]
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        for cand in increasing_flips(t):
            t2 = apply_flip(t, cand)
            assert validate(t2.simplices, 6, 2) is None
            stack.append(t2)
    assert len(seen) == 14  # Catalan number C_4


def test_apply_flip_rejects_non_candidate():
    with pytest.raises(ValueError):
        apply_flip(top(4, 2), (1, 2, 3, 4))


def test_terminal_simplex():
    assert terminal_simplex(6, 2) == (4, 5, 6)
    assert terminal_simplex(7, 3) == (4, 5, 6, 7)


def test_colors_at_the_ends():
    # 0-hat is always green and 1-hat always red, in every dimension
    for n, d in [(5, 2), (6, 2), (6, 3), (7, 3), (7, 4), (8, 5)]:
        assert color(bottom(n, d)) == "green"
        assert color(top(n, d)) == "red"


def test_color_rule_small():
    s0 = terminal_simplex(6, 2)
    for t in _all_triangulations(6, 2):
        want = "green" if s0 not in t.simplices else "red"  # d even
        assert color(t) == want


def _reference_color(t):
    present = terminal_simplex(t.n, t.d) in t.simplices    # a member tuple
    return "green" if present == (t.d % 2 == 1) else "red"


def _reference_connecting_a(t):
    """A~ on member tuples: the members holding n but not n - 1, widened
    by n - 1."""
    n = t.n
    return frozenset(s[:-1] + (n - 1, n) for s in t.simplices
                     if s[-1] == n and s[-2] != n - 1)


def _reference_connecting_b(t):
    """B~ on member tuples: the members whose last label is n - 1, widened
    by n."""
    return frozenset(s + (t.n,) for s in t.simplices if s[-1] == t.n - 1)


def test_maps_match_member_formulas():
    # the three maps, the colouring and the connecting sets on every
    # triangulation of the criterion-07 instances and of their C(n-1, d),
    # against the maps written on member tuples, the stars read off the
    # facets of C(n, d+1)
    from cyclictri.verification import connecting_a, connecting_b
    for d in (1, 2, 3, 4):
        for n in range(d + 3, 9):
            facets = gale_facets(n, d + 1)
            star = [f for f, cls in facets.items() if cls == "lower" and f[-1] == n]
            cap = [f for f, cls in facets.items() if cls == "upper" and f[-2:] == (n - 1, n)]
            for t in _all_triangulations(n, d):
                members = {s if s[-1] != n else s[:-1] + (n - 1,)
                           for s in t.simplices if s[-1] != n or s[-2] != n - 1}
                got = contract_last(t)
                assert got == Triangulation(n - 1, d, members), t.key()
                assert got.simplices == tuple(sorted(members)), t.key()
                assert color(t) == _reference_color(t), t.key()
                assert connecting_a(t) == _reference_connecting_a(t), t.key()
                assert connecting_b(t) == _reference_connecting_b(t), t.key()
            for t in _all_triangulations(n - 1, d):
                for got, members in (
                        (insert_bottom(t), list(t.simplices) + star),
                        (insert_top(t), [s if s[-1] != n - 1 else s[:-1] + (n,)
                                         for s in t.simplices] + cap)):
                    assert got == Triangulation(n, d, members), t.key()
                    assert got.simplices == tuple(sorted(members)), t.key()
                assert color(t) == _reference_color(t), t.key()


def test_contract_insert_identities():
    for n, d in [(5, 2), (6, 2), (6, 3), (7, 3), (7, 4)]:
        for t in _all_triangulations(n - 1, d):
            assert contract_last(insert_bottom(t)) == t
            assert contract_last(insert_top(t)) == t


def test_insert_bottom_of_bottom():
    for n, d in [(5, 2), (6, 3)]:
        assert insert_bottom(bottom(n - 1, d)) == bottom(n, d)
        assert insert_top(top(n - 1, d)) == top(n, d)


def test_contract_last_drops_to_smaller_polytope():
    t = contract_last(top(6, 2))
    assert t.n == 5 and t.d == 2
    assert validate(t.simplices, 5, 2) is None


def test_submersion_set_rule_matches_lp():
    # the intertwining rule at the middle dimension vs exact rational LPs;
    # the mask's bits index the middle cells in lexicographic order
    for n, d in [(4, 1), (6, 1), (5, 2), (6, 2), (6, 3), (7, 4), (8, 4),
                 (7, 5), (8, 5), (8, 6), (9, 7)]:
        mid = (d + 1) // 2
        cells = list(combinations(range(1, n + 1), mid + 1))
        for t in _all_triangulations(n, d):
            decoded = frozenset(cells[j] for j in bits(submersion_mask(t)))
            assert decoded == submersion_set(t, mid), t.key()


def _face_denies(n, d):
    """For each (floor(d/2)+1)-subset B of [n], the mask of the middle cells
    it denies, each cell label ranging over the open gap between two
    neighbouring labels of B (b0<c0<b1<...<bk<ck for even d,
    c0<b0<...<bk<c(k+1) for odd d)."""
    cells = list(combinations(range(1, n + 1), (d + 1) // 2 + 1))
    index = {c: j for j, c in enumerate(cells)}
    masks = {}
    for b in combinations(range(1, n + 1), d // 2 + 1):
        walls = (b if d % 2 == 0 else (0,) + b) + (n + 1,)
        gaps = [range(lo + 1, hi) for lo, hi in zip(walls, walls[1:])]
        masks[b] = sum(1 << index[c] for c in product(*gaps))
    return len(cells), masks


@pytest.mark.parametrize("n,d", [(10, 4), (11, 5), (12, 8), (13, 10), (15, 12)])
def test_deny_masks_match_face_enumeration(n, d):
    # each simplex's deny mask, from the alternating scan, against the OR of
    # its faces' denied cells, bit for bit
    count, masks = _face_denies(n, d)
    tab = table(n, d)
    for i, s in enumerate(tab.simplices):
        deny = 0
        for b in combinations(s, d // 2 + 1):
            deny |= masks[b]
        assert tab.submersion(1 << i) == ((1 << count) - 1) & ~deny, s


def test_submersion_set_monotone_under_flip():
    for t in _all_triangulations(6, 2):
        for cand in increasing_flips(t):
            t2 = apply_flip(t, cand)
            assert submersion_set(t, 1) <= submersion_set(t2, 1)


def _all_triangulations(n, d):
    from cyclictri.posets import enumerate_triangulations

    return enumerate_triangulations(n, d)


# ---------------------------------------------------------------------------
# The per-(n, d) table against the definitions it is built from.

def _reference_validate(simplices, n, d):
    """validate's checks in their plain pairwise form, as a reference:
    (rule, witness, message) of the first violation, or None."""
    try:
        t = Triangulation(n, d, simplices)
    except ValueError as e:
        return ("shape", simplices, str(e))
    if not t.simplices:
        return ("empty", t, "no simplices")
    return _reference_checks(t.simplices, n, d)


def _reference_checks(members, n, d, hull=None):
    """The checks after shape and emptiness, against the given hull volume
    (default: the true one)."""
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if not zig_zag_admissible(a, b, d):
                return ("admissible", (a, b), "members intersect improperly")
    vol = sum(normalized_volume(s, d) for s in members)
    if hull is None:
        hull = cyclic_volume(n, d)
    if vol != hull:
        return ("volume", (vol, hull), "simplex volumes sum to %s, hull has %s" % (vol, hull))
    return _reference_walls(members, n, d)


def _reference_walls(members, n, d):
    """The wall and label checks alone."""
    boundary = gale_facets(n, d)
    seen = {}
    for s in members:
        for j in range(d + 1):
            f = s[:j] + s[j + 1:]
            seen[f] = seen.get(f, 0) + 1
    for f, c in seen.items():
        if c == 2 and f in boundary:
            return ("wall", f, "hull facet covered twice")
        if c == 1 and f not in boundary:
            return ("wall", f, "interior wall covered once")
        if c > 2:
            return ("wall", f, "wall covered %d times" % c)
    for f in boundary:
        if seen.get(f) != 1:
            return ("wall", f, "hull facet not covered")
    used = {v for s in members for v in s}
    missing = (set(range(1, n + 1)) if d >= 2 else {1, n}) - used
    if missing:
        return ("labels", min(missing), "extreme label unused")
    return None


def _rule_witness(v):
    return None if v is None else (v.rule, v.witness, v.message)


@pytest.mark.parametrize("n,d", [(7, 2), (8, 3), (9, 4), (9, 5), (8, 1), (8, 6), (10, 4),
                                 (15, 12), (21, 18)])
def test_table_rows_match_zig_zag(n, d):
    tab = table(n, d)
    for i, a in enumerate(tab.simplices):
        conflicts = tab.row(i)[0]
        for j in range(i + 1, len(tab.simplices)):
            b = tab.simplices[j]
            assert (conflicts >> j) & 1 == (not zig_zag_admissible(a, b, d)), (a, b)
        assert conflicts >> (i + 1) << (i + 1) == conflicts


@pytest.mark.parametrize("n,d", [(6, 2), (8, 3), (9, 4), (9, 5)])
def test_table_candidate_masks_match_facet_split(n, d):
    tab = table(n, d)
    moves = [f for i in range(len(tab.simplices)) for f in tab.row(i)[3]]
    assert [k for *_, k in moves] == list(range(len(moves)))
    assert list(map(tab.move, range(len(moves)))) == moves
    listed = [cand for cand, *_ in moves]
    assert listed == sorted(listed)
    assert listed == list(combinations(range(1, n + 1), d + 2))
    for cand in listed:
        low, up = tab.split(cand)
        lower, upper = facet_split(cand)
        assert {tab.simplices[i] for i in bits(low)} == lower
        assert {tab.simplices[i] for i in bits(up)} == upper


def test_validate_matches_pairwise_reference_on_corrupted_input():
    for n, d in [(7, 2), (8, 3), (8, 4)]:
        cands = list(combinations(range(1, n + 1), d + 1))
        for t in _all_triangulations(n, d):
            members = list(t.simplices)
            cases = [members + [members[0]],                  # duplicate
                     [s[:-1] for s in members],               # wrong size
                     []]
            for k, s in enumerate(members):
                cases.append(members[:k] + members[k + 1:])   # dropped
                vol = normalized_volume(s, d)
                cases.extend(members[:k] + [w] + members[k + 1:]   # same volume
                             for w in cands
                             if w not in t and normalized_volume(w, d) == vol)
            cases.extend(members + [w] for w in cands if w not in t)   # extra
            for case in cases:
                assert _rule_witness(validate(case, n, d)) == \
                    _reference_validate(case, n, d), case


def test_table_wall_check_matches_reference():
    # A pairwise admissible set with the right volume tiles the hull, so the
    # wall check is reached only with the hull volume overridden: drop a
    # member, or all of them, and declare what is left the whole volume.
    for n, d in [(7, 2), (8, 3), (8, 4)]:
        tab = _Table(n, d)
        for t in _all_triangulations(n, d):
            for k in range(len(t)):
                members = t.simplices[:k] + t.simplices[k + 1:]
                vol = sum(normalized_volume(s, d) for s in members)
                tab.hull = vol
                want = _reference_checks(members, n, d, hull=vol)
                assert want[0] == "wall"
                assert _rule_witness(tab.violation(tab.mask(members))) == want
        # nothing covered: the first hull facet is the witness
        tab.hull = 0
        want = _reference_checks((), n, d, hull=0)
        assert want == ("wall", next(iter(gale_facets(n, d))), "hull facet not covered")
        assert _rule_witness(tab.violation(0)) == want


def _table_without_conflicts(n, d):
    """A fresh table whose rows have no conflicts, so the judge reaches the
    wall rule on any set once the hull is patched to the set's volume."""
    tab = _Table(n, d)
    for i in range(len(tab.simplices)):
        tab._rows[i] = (0,) + tab.row(i)[1:]
    return tab


def _cycles(n, d):
    """Per (d+2)-set of [n], the mask of its d-simplices: each of their
    facets is met twice, so adding one to a set keeps every facet's parity."""
    tab = table(n, d)
    return [tab.mask(combinations(q, d + 1)) for q in combinations(range(1, n + 1), d + 2)]


@pytest.mark.parametrize("n,d", [(6, 1), (7, 2), (8, 3), (8, 4)])
def test_wall_identity_counts_what_parity_passes(n, d):
    # a triangulation plus the d-simplices of a (d+2)-set, none of them in
    # it: each facet the two have in common is met 2 more times, a hull
    # facet 3 times and an interior one 4, so the facets met an odd number
    # of times are still the hull's and only the incidence count sees it
    tab = _table_without_conflicts(n, d)
    messages = set()
    for t in _all_triangulations(n, d):
        for z in _cycles(n, d):
            if t.mask & z:
                continue
            m = t.mask | z
            members = [tab.simplices[i] for i in bits(m)]
            tab.hull = sum(normalized_volume(s, d) for s in members)
            want = _reference_walls(members, n, d)
            assert tab._accumulate(m)[2] == tab.boundary_mask
            assert _rule_witness(tab.violation(m)) == want, members
            if want is not None:    # None: the (d+2)-set shares no facet with t
                messages.add((want[1] in gale_facets(n, d), want[2]))
    assert {(True, "wall covered 3 times"), (False, "wall covered 4 times")} <= messages


@pytest.mark.parametrize("n,d", [(5, 1), (8, 2), (7, 3), (11, 4)])
def test_wall_rule_names_the_uncovered_hull_facet(n, d):
    # the d-simplices of a (d+2)-set none of whose d-subsets is a hull
    # facet: every facet met is interior and met twice, and no hull facet
    # is covered, so the witness is the first hull facet
    tab = _table_without_conflicts(n, d)
    hull = gale_facets(n, d)
    found = 0
    for q in combinations(range(1, n + 1), d + 2):
        if any(f in hull for f in combinations(q, d)):
            continue
        members = list(combinations(q, d + 1))
        tab.hull = sum(normalized_volume(s, d) for s in members)
        want = _reference_walls(members, n, d)
        assert want == ("wall", next(iter(hull)), "hull facet not covered")
        assert _rule_witness(tab.violation(tab.mask(members))) == want, q
        found += 1
    assert found


@pytest.mark.parametrize("n,d", [(5, 1), (6, 2), (7, 3), (8, 4)])
def test_wall_rule_names_a_hull_facet_covered_twice(n, d):
    # two simplices s < s' sharing the hull facet s minus its first label:
    # that facet is the first one the wall walk meets, so it is the witness
    tab = _table_without_conflicts(n, d)
    hull = gale_facets(n, d)
    found = 0
    for s in tab.simplices:
        if s[1:] not in hull:
            continue
        for v in range(s[0] + 1, n + 1):
            if v in s:
                continue
            members = [s, tuple(sorted(s[1:] + (v,)))]
            tab.hull = sum(normalized_volume(w, d) for w in members)
            want = _reference_walls(members, n, d)
            assert want == ("wall", s[1:], "hull facet covered twice")
            assert _rule_witness(tab.violation(tab.mask(members))) == want, members
            found += 1
    assert found


@pytest.mark.parametrize("n,d", [(7, 2), (8, 3), (9, 4)])
def test_admissible_rule_names_the_first_member_and_its_first_clash(n, d):
    # sets with several conflicting pairs: the witness is the first member
    # meeting a later one improperly, with the first such later member,
    # which need not be the first member that meets any other improperly
    rng = random.Random(4100 + 10 * n + d)
    tab = table(n, d)
    size = len(tab.simplices)
    apart = 0
    for t in rng.sample(_all_triangulations(n, d), 30):
        for _ in range(5):
            m = t.mask | sum(1 << i for i in rng.sample(range(size), 2))
            members = [tab.simplices[i] for i in bits(m)]
            pairs = [(a, b) for a, b in combinations(members, 2)
                     if not zig_zag_admissible(a, b, d)]
            if len(pairs) < 2:
                continue
            want = _reference_validate(members, n, d)
            assert want[:2] == ("admissible", pairs[0])
            assert _rule_witness(tab.violation(m)) == want, members
            apart += pairs[0][1] != min(b for _, b in pairs)
    assert apart


@pytest.mark.parametrize("n,d", [(7, 2), (8, 3), (9, 4), (8, 1), (7, 5)])
def test_mask_validator_matches_reference_on_random_and_perturbed_sets(n, d):
    # random subsets of the d-simplices, and triangulations with one or two
    # table bits flipped; validate and the table's mask check must both
    # give the reference's rule, witness and message.  A set failing on
    # volume is checked again against its own volume as the hull, which
    # reaches the wall and label checks.
    rng = random.Random(9000 + 10 * n + d)
    tab = table(n, d)
    free = _Table(n, d)
    size = len(tab.simplices)
    ts = _all_triangulations(n, d)
    longest = max(len(t) for t in ts)
    masks = []
    for _ in range(120):
        k = rng.randint(1, min(size, longest + 2))
        masks.append(sum(1 << i for i in rng.sample(range(size), k)))
    for t in rng.sample(ts, min(40, len(ts))):
        m = tab.mask(t.simplices)
        for flips in (1, 2):
            for _ in range(3):
                masks.append(m ^ sum(1 << i for i in rng.sample(range(size), flips)))
    rules = set()
    for m in masks:
        members = [tab.simplices[i] for i in bits(m)]
        want = _reference_validate(members, n, d)
        assert _rule_witness(validate(members, n, d)) == want, members
        if m:
            assert _rule_witness(tab.violation(m)) == want, members
        rules.add(want and want[0])
        if want is not None and want[0] == "volume":
            free.hull = want[1][0]
            want = _reference_checks(members, n, d, hull=free.hull)
            assert _rule_witness(free.violation(m)) == want, members
            rules.add(want and want[0])
    assert {"admissible", "volume", "wall"} <= rules


def _reference_flips(t):
    """Increasing flips by scanning every (d+2)-set, as sets of simplices."""
    for cand in combinations(range(1, t.n + 1), t.d + 2):
        lower, upper = facet_split(cand)
        members = set(t.simplices)
        if lower <= members:
            yield cand, Triangulation(t.n, t.d, (members - lower) | upper)


@pytest.mark.parametrize("n,d", [(8, 3), (8, 4), (9, 5)])
def test_bfs_edges_match_public_flips(n, d):
    from cyclictri.posets import flip_step_edges

    ts = _all_triangulations(n, d)
    index = {t: i for i, t in enumerate(ts)}
    public = []
    for i, t in enumerate(ts):
        cands = increasing_flips(t)
        ref = list(_reference_flips(t))
        assert cands == [cand for cand, _ in ref]
        for cand, t2 in ref:
            assert apply_flip(t, cand) == t2
            public.append((i, index[t2], cand))
    assert sorted(flip_step_edges(n, d)) == sorted(public)


def test_table_size_guard_fields():
    with pytest.raises(ResourceBudgetError) as e:
        table(30, 14)
    err = e.value
    assert (err.kind, err.limit, err.reached, err.where) == \
        ("size_guard", 1000000, 155117520, "C(30, 14)")


def test_table_size_guard():
    with pytest.raises(ResourceBudgetError) as e:
        table(30, 14)
    assert "155117520" in str(e.value) and "1000000" in str(e.value)
    assert len(table(11, 4).simplices) == 462   # largest ladder instance
    # a Triangulation is a mask over the table; its shape is checked first
    with pytest.raises(ResourceBudgetError):
        Triangulation(30, 14, [range(1, 16)])
    with pytest.raises(ValueError):
        Triangulation(30, 14, [(1, 2)])
    assert validate([(1, 2)], 30, 14).rule == "shape"
