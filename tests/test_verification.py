"""Connecting sets, suspension hypotheses, and the backtracking oracle.

brute_force_triangulations is the independent enumerator: it never
flips, it just packs admissible simplices until the volume is exact.
"""

import pytest

from cyclictri import verification
from cyclictri.posets import FinitePoset, build_s1, enumerate_triangulations
from cyclictri.triangulations import (
    bottom,
    contract_last,
    insert_bottom,
    insert_top,
    terminal_simplex,
    top,
)
from cyclictri.verification import (
    brute_force_triangulations,
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


def test_brute_force_candidate_guard():
    with pytest.raises(ValueError):
        brute_force_triangulations(7, 2, max_candidates=10)


def test_s0_monotone_witness_is_first_in_key_order(monkeypatch):
    # the triangulations of C(6,2) in a chain that scrambles their key order,
    # so membership of the terminal simplex is not monotone along it, and
    # the first violating element has several violating elements above it
    s1 = build_s1(6, 2)
    keys = s1.keys()
    link = [(5 * i) % len(keys) for i in range(len(keys))]
    chain = FinitePoset(keys, [sum(1 << j for j in range(len(keys))
                                   if link[j] >= link[i]) for i in range(len(keys))])
    chain.data.update(s1.data)
    monkeypatch.setattr(verification, "build_order", lambda order, n, d, cap=None: chain)
    s0 = terminal_simplex(6, 2)
    want = next((a, b) for a in keys for b in keys if chain.le_keys(a, b)
                and s0 in chain.data[a] and s0 not in chain.data[b])
    assert verify_s0_monotone(6, 2) == {"pass": False, "witness": want}
