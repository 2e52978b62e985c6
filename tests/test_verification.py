"""Connecting sets, suspension hypotheses, and the backtracking oracle.

brute_force_triangulations is the independent enumerator: it never
flips, it just packs admissible simplices until the volume is exact.
"""

import random
from itertools import combinations

import pytest

from cyclictri import verification
from cyclictri.cli import main
from cyclictri.posets import FinitePoset, build_order, build_s1, enumerate_triangulations
from cyclictri.oracles import brute_force_triangulations, zig_zag_admissible
from cyclictri.simplices import bits, facet_split
from cyclictri.triangulations import (
    Triangulation,
    apply_flip,
    bottom,
    contract_last,
    increasing_flips,
    insert_bottom,
    insert_top,
    table,
    terminal_simplex,
    top,
)
from cyclictri.verification import (
    _keys,
    connecting_a,
    connecting_b,
    find_connecting_set,
    verify_connecting_set,
    verify_s0_monotone,
    verify_suspension,
)


@pytest.mark.parametrize("n,d,want", [(4, 2, 2), (5, 2, 5), (6, 2, 14),
                                      (5, 3, 2), (6, 4, 2)])
def test_brute_force_counts(n, d, want):
    assert len(brute_force_triangulations(n, d)) == want


@pytest.mark.parametrize("n,d", [(4, 2), (5, 2), (6, 2), (5, 3), (6, 3), (6, 4)])
def test_brute_force_agrees_with_flip_search(n, d):
    brute = sorted(t.key() for t in brute_force_triangulations(n, d))
    flips = sorted(t.key() for t in enumerate_triangulations(n, d))
    assert brute == flips


def test_connecting_a_of_top():
    # members containing 6 but not 5, each widened by 5
    t = top(6, 2)
    assert sorted(connecting_a(t)) == [(1, 2, 5, 6), (2, 3, 5, 6), (3, 4, 5, 6)]
    assert connecting_b(t) == frozenset()


def test_connecting_b_of_bottom():
    t = bottom(6, 2)
    assert connecting_a(t) == frozenset()
    assert sorted(connecting_b(t)) == [(1, 4, 5, 6)]


def test_connecting_sets_verify_small():
    for n, d in [(5, 2), (6, 2), (6, 3)]:
        for t in enumerate_triangulations(n, d):
            f = contract_last(t)
            ra = verify_connecting_set(insert_bottom(f), t, connecting_a(t))
            assert ra["pass"], (t.key(), ra)
            rb = verify_connecting_set(t, insert_top(f), connecting_b(t))
            assert rb["pass"], (t.key(), rb)


def test_connecting_set_failures_are_reported(monkeypatch, capsys):
    # A~'s index map loses the widening of (1, 3, 5), so A~ of the one
    # triangulation of C(5, 2) holding (1, 3, 5) misses the member that
    # flips (1, 3, 4) away: condition iv, in the record and on the CLI
    tab = table(5, 2)
    a, b = tab._widening
    a = list(a)
    a[tab.index[(1, 3, 5)]] = 0
    monkeypatch.setitem(tab.__dict__, "_widening", (a, b))
    key = '{"n":5,"d":2,"simplices":[[1,2,3],[1,3,5],[3,4,5]]}'
    assert verification.verify_connecting_sets(5, 2) == (5, [
        {"t": key, "set": "A",
         "report": {"pass": False, "condition": "iv", "witness": (1, 3, 4)}}])
    assert main(["verify-connecting", "--n", "5", "--d", "2"]) == 1
    out = capsys.readouterr()
    assert out.out == "connecting sets for C(5,2): 5 triangulations, 1 failures\n" \
        "  A at %s: condition iv\n" % key
    assert out.err == ""


def test_verify_connecting_rejects_wrong_set():
    r = verify_connecting_set(bottom(5, 2), top(5, 2), frozenset({(1, 2, 3, 4)}))
    assert r["pass"] is False
    assert r["condition"] in ("i", "ii", "iii", "iv", "v", "vi")
    assert r["witness"] is not None


def test_verify_connecting_rejects_wrong_member_size():
    with pytest.raises(ValueError):
        verify_connecting_set(bottom(5, 2), top(5, 2), frozenset({(1, 2, 3)}))


def test_single_flip_is_a_connecting_set():
    r = verify_connecting_set(bottom(4, 2), top(4, 2), frozenset({(1, 2, 3, 4)}))
    assert r["pass"] is True


@pytest.mark.parametrize("n,d", [(6, 2), (7, 2), (7, 3)])
def test_find_connecting_set_on_every_pair(n, d):
    # None exactly when the first is not below the second in the flip
    # order; otherwise a set verify_connecting_set passes
    s1 = build_s1(n, d)
    ts = list(enumerate_triangulations(n, d))
    for a in ts:
        for b in ts:
            tilde = find_connecting_set(a, b)
            if s1.le_keys(a.key(), b.key()):
                assert tilde is not None, (a.key(), b.key())
                assert verify_connecting_set(a, b, tilde)["pass"], (a.key(), b.key())
            else:
                assert tilde is None, (a.key(), b.key())


def test_find_connecting_set():
    t1 = bottom(5, 2)
    t2 = top(5, 2)
    tilde = find_connecting_set(t1, t2)
    assert tilde is not None
    assert verify_connecting_set(t1, t2, tilde)["pass"]
    assert find_connecting_set(t1, t1) == frozenset()
    # direction matters: nothing increases from top to bottom
    assert find_connecting_set(t2, t1) is None


@pytest.mark.parametrize("order", ["s1", "s2"])
@pytest.mark.parametrize("n,d", [(5, 2), (6, 2), (6, 3), (7, 4)])
def test_suspension_hypotheses(n, d, order):
    rep = verify_suspension(n, d, order)
    assert rep["pass"] is True, rep
    assert rep["green_ideal"]["pass"]
    assert rep["sandwich"]["pass"]
    assert rep["fiber_bottom"]["pass"] and rep["fiber_top"]["pass"]


def test_suspension_needs_room():
    with pytest.raises(ValueError):
        verify_suspension(4, 2, "s1")  # needs n > d+2


def test_s0_monotone():
    for n, d in [(5, 2), (6, 2), (6, 3)]:
        assert verify_s0_monotone(n, d, "s1")["pass"]
        assert verify_s0_monotone(n, d, "s2")["pass"]


def test_s0_monotone_reads_the_green_rule(monkeypatch):
    # the rising set is read off the masks by the table's green rule, as
    # color reads it: no membership test of the terminal simplex is made
    def refuse(self, s):
        raise AssertionError("membership tested")
    monkeypatch.setattr(Triangulation, "__contains__", refuse)
    for n, d in [(8, 2), (8, 3)]:
        for order in ("s1", "s2"):
            assert verify_s0_monotone(n, d, order) == {"pass": True, "witness": None}


def test_brute_force_candidate_guard():
    with pytest.raises(ValueError):
        brute_force_triangulations(7, 2, max_candidates=10)


def _scrambled_chain():
    """The triangulations of C(6,2) in a chain that scrambles their key
    order, so membership of the terminal simplex is not monotone along it,
    and the first violating element has several violating elements above
    it."""
    s1 = build_s1(6, 2)
    keys = s1.keys()
    link = [(5 * i) % len(keys) for i in range(len(keys))]
    chain = FinitePoset(keys, [sum(1 << j for j in range(len(keys))
                                   if link[j] >= link[i]) for i in range(len(keys))])
    chain.data = tuple(s1.data[s1.index[k]] for k in chain.elements)
    return chain


def test_s0_monotone_witness_is_first_in_key_order(monkeypatch):
    chain = _scrambled_chain()
    keys = chain.keys()
    monkeypatch.setattr(verification, "build_order", lambda order, n, d, cap=None: chain)
    s0 = terminal_simplex(6, 2)
    t = dict(zip(chain.elements, chain.data))
    want = next((a, b) for a in keys for b in keys if chain.le_keys(a, b)
                and s0 in t[a] and s0 not in t[b])
    assert verify_s0_monotone(6, 2) == {"pass": False, "witness": want}


def test_green_ideal_witness_is_the_s0_witness(monkeypatch):
    # the green ideal and the terminal-simplex check test one up-set rule,
    # so on the scrambled chain both name the same first pair
    chain, small = _scrambled_chain(), build_order("s1", 5, 2)
    monkeypatch.setattr(verification, "build_order",
                        lambda order, n, d, cap=None: chain if n == 6 else small)
    want = verify_s0_monotone(6, 2)
    assert want["pass"] is False
    assert verify_suspension(6, 2)["green_ideal"] == want


def _reference_connecting_set(t, t2, tilde):
    """The six connecting-set conditions checked pairwise on tuples."""
    d = t.d
    tilde = sorted(tuple(sorted(s)) for s in tilde)

    def fail(cond, witness):
        return {"pass": False, "condition": cond, "witness": witness}

    for a, b in combinations(tilde, 2):
        if not zig_zag_admissible(a, b, d + 1):
            return fail("i", (a, b))
    in_t, in_t2 = set(t.simplices), set(t2.simplices)
    splits = [facet_split(s) for s in tilde]
    for s, (lower, upper) in zip(tilde, splits):
        for face in lower:
            if not any(set(face) < set(o) for o in tilde if o != s) \
                    and face not in in_t:
                return fail("ii", (s, face))
        for face in upper:
            if not any(set(face) < set(o) for o in tilde if o != s) \
                    and face not in in_t2:
                return fail("iii", (s, face))
    only_t = in_t - in_t2
    only_t2 = in_t2 - in_t
    lowers = set().union(*(lower for lower, _ in splits))
    uppers = set().union(*(upper for _, upper in splits))
    for face in sorted(only_t):
        if face not in lowers:
            return fail("iv", face)
    for face in sorted(only_t2):
        if face not in uppers:
            return fail("v", face)
    for face in sorted(only_t | only_t2):
        if sum(1 for s in tilde if set(face) < set(s)) > 1:
            return fail("vi", face)
    return {"pass": True, "condition": None, "witness": None}


@pytest.mark.parametrize("n,d", [(7, 2), (8, 2), (8, 3), (7, 4)])
def test_connecting_set_matches_pairwise_reference(n, d):
    # the A and B sets of sampled triangulations and single flips, which
    # pass, and the same sets with a member dropped, added or swapped, the
    # flips reversed, and random sets, which mostly fail
    rng = random.Random(900 + 10 * n + d)
    ts = enumerate_triangulations(n, d)
    cands = list(combinations(range(1, n + 1), d + 2))
    cases = []
    for t in rng.sample(ts, min(30, len(ts))):
        f = contract_last(t)
        cases.append((insert_bottom(f), t, connecting_a(t)))
        cases.append((t, insert_top(f), connecting_b(t)))
        for cand in increasing_flips(t)[:2]:
            t2 = apply_flip(t, cand)
            cases.append((t, t2, {cand}))
            cases.append((t2, t, {cand}))
            for cand2 in increasing_flips(t2)[:2]:
                t3 = apply_flip(t2, cand2)
                cases.extend((t, t3, tilde) for tilde in ({cand}, {cand2}, {cand, cand2}))
    for t, t2, tilde in list(cases):
        tilde = sorted(tilde)
        if tilde:
            k = rng.randrange(len(tilde))
            cases.append((t, t2, tilde[:k] + tilde[k + 1:]))
            cases.append((t, t2, tilde[:k] + [rng.choice(cands)] + tilde[k + 1:]))
        cases.append((t, t2, tilde + [rng.choice(cands)]))
    for _ in range(60):
        cases.append((rng.choice(ts), rng.choice(ts),
                      rng.sample(cands, rng.randint(1, 4))))
    # sets of simplices that are not triangulations reach v and vi: two
    # members sharing a facet, which only one end holds, and one member
    # with an extra face at the upper end
    faces = list(combinations(range(1, n + 1), d + 1))
    for a, b in combinations(cands, 2):
        shared = tuple(sorted(set(a) & set(b)))
        if len(shared) == d + 1 and zig_zag_admissible(a, b, d + 1):
            (la, ua), (lb, ub) = facet_split(a), facet_split(b)
            cases.append((Triangulation(n, d, la | lb),
                          Triangulation(n, d, (ua | ub) - {shared}), {a, b}))
            cases.append((Triangulation(n, d, la), Triangulation(n, d, ua | {rng.choice(faces)}),
                          {a}))
    seen = set()
    for t, t2, tilde in cases:
        tilde = frozenset(tilde)
        want = _reference_connecting_set(t, t2, tilde)
        assert verify_connecting_set(t, t2, tilde) == want, (t, t2, sorted(tilde))
        seen.add(want["condition"])
    assert seen == {None, "i", "ii", "iii", "iv", "v", "vi"}


@pytest.mark.parametrize("n,d", [(7, 2), (8, 3), (7, 4)])
def test_mask_core_matches_pairwise_reference_on_perturbed_sets(n, d):
    # the mask core that verify_connecting_sets runs, on the A~ and B~
    # masks of sampled triangulations and on perturbations of them: a member
    # of C(n, d+1) added or dropped, a facet of a member or any simplex
    # added to or dropped from one end
    from cyclictri.triangulations import table
    rng = random.Random(2500 + 10 * n + d)
    ts = enumerate_triangulations(n, d)
    tab, big = table(n, d), table(n, d + 1)
    seen = set()
    for r in rng.sample(range(len(ts)), min(60, len(ts))):
        m = ts.masks[r]
        f = tab.contract(m)
        a, b = tab.connecting(m)
        for ends in ((tab.insert(f, False), m, a), (m, tab.insert(f, True), b)):
            cases = [ends]
            for _ in range(8):
                low, high, tilde = ends
                faces = 0
                for _, lo, up, _ in map(tab.move, bits(tilde)):
                    faces |= lo | up
                kind = rng.randrange(5)
                if kind == 0:
                    tilde ^= 1 << rng.randrange(len(big.simplices))
                else:
                    pool = list(bits(faces)) if kind < 3 and faces else \
                        range(len(tab.simplices))
                    bit = 1 << rng.choice(pool)
                    if kind % 2:
                        low ^= bit
                    else:
                        high ^= bit
                cases.append((low, high, tilde))
            for low, high, tilde in cases:
                want = _reference_connecting_set(
                    tab.triangulation(low), tab.triangulation(high),
                    [big.simplices[k] for k in bits(tilde)])
                got = verification._connecting_report(tab, low, high, tilde)
                assert got == want, (low, high, tilde)
                seen.add(want["condition"])
    assert seen == {None, "i", "ii", "iii", "iv", "v", "vi"}


def test_connecting_sets_and_suspension_read_no_member_tuples(monkeypatch):
    # every map, set and condition is read on masks: with the member
    # tuples of Triangulations and the simplex constructor refused, and the
    # tables' index maps rebuilt, both checks still pass
    from cyclictri import simplices, triangulations
    from cyclictri.triangulations import table
    count = len(enumerate_triangulations(8, 3))
    assert verification.verify_connecting_sets(8, 3) == (count, [])
    for order in ("s1", "s2"):
        assert verify_suspension(8, 3, order)["pass"]
    for nd in ((8, 3), (7, 3)):
        for name in ("_contraction", "_insertion", "_widening"):
            monkeypatch.delitem(table(*nd).__dict__, name, raising=False)

    def refuse(*args):
        raise AssertionError("member tuples read")
    monkeypatch.setattr(triangulations.Triangulation, "simplices", property(refuse))
    monkeypatch.setattr(simplices, "simplex", refuse)
    monkeypatch.setattr(triangulations, "simplex", refuse)
    assert verification.verify_connecting_sets(8, 3) == (count, [])
    for order in ("s1", "s2"):
        assert verify_suspension(8, 3, order)["pass"]


def _reference_monotone(src, dst, image):
    """First pair x <= y of src, in key order, with image[x] not <=
    image[y] in dst, by testing every related pair."""
    for x in src.by_key:
        for y in sorted(bits(src.up[x]), key=src.rank.__getitem__):
            if not dst.le(image[x], image[y]):
                return (src.elements[x], src.elements[y])
    return None


@pytest.mark.parametrize("order", ["s1", "s2"])
@pytest.mark.parametrize("n,d", [(7, 2), (7, 3)])
def test_monotone_helper_matches_pair_scan(n, d, order):
    # the contraction map is monotone; with two images swapped it is not,
    # and the covers-first check must name the pair the full scan finds first
    p, q = build_order(order, n, d), build_order(order, n - 1, d)
    q_at = {t: y for y, t in enumerate(q.data)}
    f = [q_at[contract_last(t)] for t in p.data]
    assert p.monotone_witness(q, f) is None
    assert _reference_monotone(p, q, f) is None
    rng = random.Random(90 + n + d)
    broken = 0
    for _ in range(20):
        a, b = rng.sample(range(len(f)), 2)
        g = list(f)
        g[a], g[b] = g[b], g[a]
        want = _reference_monotone(p, q, g)
        assert _keys(p, p.monotone_witness(q, g)) == want
        broken += want is not None
    assert broken
