"""Acceptance battery: one criterion per test, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Everything here is exact arithmetic; there are no tolerances to tune.
"""

import json

from cyclictri.baues import baues_poset, interval_to_subdivision, phi
from cyclictri.oracles import (
    brute_force_triangulations,
    dissection_oracle_d2,
    refinement_leq,
)
from cyclictri.posets import (
    boolean_lattice,
    build_s1,
    build_s2,
    compare_relations,
    enumerate_triangulations,
    interval_poset,
)
from cyclictri.topology import (
    sphere_certificate,
    suspension_compare,
    webb_reduction_check,
)
from cyclictri.verification import verify_connecting_sets, verify_suspension

CATALOG = [(n, d) for d in range(1, 7) for n in range(d + 2, 10)]


def _verdict(num, label, failures):
    ok = not failures
    line = "ACCEPTANCE %2d %s: %s" % (num, label, "PASS" if ok else "FAIL")
    if failures:
        line += "  %s" % (failures[:3],)
    print(line)
    assert ok, (label, failures)


def test_criterion_01_triangulation_counts():
    bad = []
    for d in range(2, 7):
        if len(enumerate_triangulations(d + 2, d)) != 2:
            bad.append(("count", d + 2, d))
    catalan = {4: 2, 5: 5, 6: 14, 7: 42}
    for n, want in catalan.items():
        if len(enumerate_triangulations(n, 2)) != want:
            bad.append(("count", n, 2))
        brute = brute_force_triangulations(n, 2, max_candidates=40)
        if sorted(t.key() for t in brute) != \
                sorted(t.key() for t in enumerate_triangulations(n, 2)):
            bad.append(("oracle", n, 2))
    for n in range(3, 9):
        if len(enumerate_triangulations(n, 1)) != 2 ** (n - 2):
            bad.append(("count", n, 1))
    _verdict(1, "triangulation counts", bad)


def test_criterion_02_order_coincidence():
    # a theorem in every dimension (Williams 2023), checked, not assumed
    bad = []
    instances = [(n, d) for d in range(1, 8) for n in range(d + 2, 10)] + [(10, 5)]
    for n, d in instances:
        diff = compare_relations(build_s1(n, d), build_s2(n, d))
        if diff is not None:
            bad.append((n, d, diff))
    _verdict(2, "S1 = S2 for d <= 7, n <= 9, and at (10,5)", bad)


def test_criterion_03_lattice_results():
    bad = []
    for d in (1, 2, 3):
        for n in range(d + 2, 11):
            if build_s2(n, d).is_lattice() is not True:
                bad.append((n, d))
    for n, d in ((9, 4), (10, 5)):
        w = build_s2(n, d).is_lattice()
        if w is True or "pair" not in w:
            bad.append((n, d, "expected a witness pair", w))
    _verdict(3, "lattice for d <= 3, n <= 10, and refuted at (9,4) and (10,5)", bad)


def test_criterion_04_stasheff_tamari_spheres():
    # every catalog entry of both orders gets a certificate, none skipped
    bad = []
    for n, d in CATALOG:
        k = n - d - 3
        for name, build in (("s1", build_s1), ("s2", build_s2)):
            # the certificate also checks mu(0,1) = (-1)^k
            cert = sphere_certificate(build(n, d).proper_part(), k)
            if not cert["pass"]:
                bad.append((n, d, name, cert["reasons"]))
    _verdict(4, "S1/S2 sphere certificates and Mobius crosscheck", bad)


def test_criterion_05_baues_spheres():
    bad = []
    for n, d in [(4, 2), (5, 2), (6, 2), (7, 2), (5, 3), (6, 3), (7, 3), (8, 3),
                 (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)]:
        bp = baues_poset(n, d)
        cert = sphere_certificate(bp, n - d - 2)
        if not cert["pass"]:
            bad.append((n, d, cert["reasons"]))
    bp52 = baues_poset(5, 2)
    if len(bp52) != 10:
        bad.append(("size", len(bp52)))
    deg = {}
    for i, j in bp52.covers():
        deg[i] = deg.get(i, 0) + 1
        deg[j] = deg.get(j, 0) + 1
    if sorted(deg.values()) != [2] * 10:
        bad.append(("not a 10-cycle", sorted(deg.values())))
    _verdict(5, "Baues sphere certificates and the 10-cycle", bad)


def test_criterion_06_phi_image():
    bad = []
    for n in range(4, 8):
        s2 = build_s2(n, 2)
        coat = interval_poset(s2, "proper_coatomic")
        oracle = dissection_oracle_d2(n)
        ends = {delta: phi(delta) for delta in oracle}
        image = {delta: json.dumps([lo.key(), hi.key()], separators=(",", ":"))
                 for delta, (lo, hi) in ends.items()}
        if coat.keys() != sorted(image.values()):
            bad.append((n, 2, "image mismatch"))
            continue
        for delta in oracle:
            if interval_to_subdivision(*ends[delta], s2) != delta:
                bad.append((n, 2, "round trip", delta.key()))
        for a in oracle:
            for b in oracle:
                if refinement_leq(a, b) != coat.le_keys(image[a], image[b]):
                    bad.append((n, 2, "order", a.key(), b.key()))
    for n in (5, 6):
        s2 = build_s2(n, 3)
        coat = interval_poset(s2, "proper_coatomic")
        for key, (i, j) in zip(coat.elements, coat.data):
            lo = s2.data[i]
            hi = s2.data[j]
            if phi(interval_to_subdivision(lo, hi, s2)) != (lo, hi):
                bad.append((n, 3, "round trip", key))
    _verdict(6, "phi bijection (d=2) and round trips (d=3)", bad)


def test_criterion_07_suspension_hypotheses():
    bad = []
    for d in (1, 2, 3, 4):
        for n in range(d + 3, 9):
            for order in ("s1", "s2"):
                rep = verify_suspension(n, d, order)
                if not rep["pass"]:
                    bad.append((n, d, order,
                                [k for k, v in rep.items()
                                 if isinstance(v, dict) and not v.get("pass", True)]))
    _verdict(7, "suspension hypotheses for d+3 <= n <= 8, d <= 4", bad)


def test_criterion_08_connecting_sets():
    bad = []
    for d in (1, 2, 3):
        for n in range(d + 2, 8):
            _, failures = verify_connecting_sets(n, d)
            bad += [(f["t"], f["set"], f["report"]["condition"]) for f in failures]
    _verdict(8, "connecting sets A~ and B~ for n <= 7, d <= 3", bad)


def test_criterion_09_interval_topology():
    bad = []
    posets = [("B2", boolean_lattice(2)), ("B3", boolean_lattice(3)),
              ("S2(5,2)", build_s2(5, 2)), ("S2(6,2)", build_s2(6, 2))]
    for name, p in posets:
        rep = suspension_compare(p)
        if not rep["pass"]:
            bad.append((name, "suspension_compare"))
        rep = webb_reduction_check(p)
        if not rep["pass"]:
            bad.append((name, "webb_reduction_check"))
    _verdict(9, "interval-poset suspension and reduction checks", bad)


def test_criterion_10_oracle_equivalence():
    bad = []
    for n, d in [(4, 2), (5, 2), (5, 3), (6, 2), (6, 4)]:
        brute = sorted(t.key() for t in brute_force_triangulations(n, d))
        flips = sorted(t.key() for t in enumerate_triangulations(n, d))
        if brute != flips:
            bad.append((n, d))
    _verdict(10, "flip BFS equals backtracking oracle", bad)
