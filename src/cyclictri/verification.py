"""Mechanical checks of the structural facts the flip and height orders are
supposed to satisfy: the suspension-map hypotheses, connecting sets of
(d+1)-simplices witnessing flip-order comparability, monotonicity of the
terminal simplex, and a brute-force enumeration oracle.
"""

from collections import deque
from itertools import combinations

from . import geometry, simplices, triangulations as tri
from .posets import bits, build_order, enumerate_triangulations


def verify_suspension(n, d, order="s1", cap=None):
    """Check the suspension-map hypotheses on the full poset for (n, d).

    f contracts the last vertex, i and j insert it back at the bottom and the
    top; green/red is membership parity of the terminal simplex.  Each entry
    of the report carries a pass flag and the first witness on failure.
    """
    if n <= d + 2:
        raise ValueError("need n > d+2 so the smaller poset is nontrivial")
    p = build_order(order, n, d, cap)
    q = build_order(order, n - 1, d, cap)
    # witnesses are the first in key order: elements listed in key order,
    # the first of a position mask picked by key rank
    p_elems = [p.data[k] for k in p.keys()]
    q_elems = [q.data[k] for k in q.keys()]
    f_of = {t.key(): tri.contract_last(t) for t in p_elems}
    i_of = {t.key(): tri.insert_bottom(t) for t in q_elems}
    j_of = {t.key(): tri.insert_top(t) for t in q_elems}
    report = {"n": n, "d": d, "order": order}

    def entry(name, witness):
        report[name] = {"pass": witness is None, "witness": witness}

    green = {t.key() for t in p_elems if tri.color(t) == tri.GREEN}
    red_mask = sum(1 << x for x, k in enumerate(p.elements) if k not in green)
    w = None
    for a in p.by_key:
        bad = p.down[a] & red_mask if p.elements[a] in green else 0
        if bad:
            w = (p.elements[min(bits(bad), key=p.rank.__getitem__)], p.elements[a])
            break
    entry("green_ideal", w)

    w = next((t.key() for t in q_elems
              if tri.contract_last(i_of[t.key()]) != t), None)
    entry("f_i_identity", w)
    w = next((t.key() for t in q_elems
              if tri.contract_last(j_of[t.key()]) != t), None)
    entry("f_j_identity", w)

    w = next((t.key() for t in q_elems
              if tri.color(i_of[t.key()]) != tri.GREEN), None)
    if w is None:
        w = next((t.key() for t in q_elems
                  if tri.color(j_of[t.key()]) != tri.RED), None)
    entry("image_colors", w)

    w = None
    for t in p_elems:
        low = i_of[f_of[t.key()].key()]
        high = j_of[f_of[t.key()].key()]
        if not p.le_keys(low.key(), t.key()) or not p.le_keys(t.key(), high.key()):
            w = t.key()
            break
    entry("sandwich", w)

    bot_p, top_p = tri.bottom(n, d), tri.top(n, d)
    bot_q, top_q = tri.bottom(n - 1, d), tri.top(n - 1, d)
    w = next((t.key() for t in p_elems
              if f_of[t.key()] == bot_q and t != bot_p and t.key() in green), None)
    entry("fiber_bottom", w)
    w = next((t.key() for t in p_elems
              if f_of[t.key()] == top_q and t != top_p and t.key() not in green),
             None)
    entry("fiber_top", w)

    # order preservation of the three maps, checked because the interval
    # conditions above only make sense for monotone data
    w = None
    for a in p.by_key:
        fa = f_of[p.elements[a]].key()
        bad = [b for b in bits(p.up[a] & ~(1 << a))
               if not q.le_keys(fa, f_of[p.elements[b]].key())]
        if bad:
            w = (p.elements[a], p.elements[min(bad, key=p.rank.__getitem__)])
            break
    entry("f_monotone", w)
    for name, mapping in (("i_monotone", i_of), ("j_monotone", j_of)):
        w = None
        for a in q.by_key:
            ma = mapping[q.elements[a]].key()
            bad = [b for b in bits(q.up[a] & ~(1 << a))
                   if not p.le_keys(ma, mapping[q.elements[b]].key())]
            if bad:
                w = (q.elements[a], q.elements[min(bad, key=q.rank.__getitem__)])
                break
        entry(name, w)

    report["pass"] = all(v["pass"] for k, v in report.items()
                         if isinstance(v, dict))
    return report


def find_connecting_set(t, t2):
    """Union of the flip simplices along a shortest increasing-flip path from
    t to t2, or None when t2 is not reachable (t is not below t2)."""
    if (t.n, t.d) != (t2.n, t2.d):
        raise ValueError("triangulations on different polytopes")
    if t == t2:
        return frozenset()
    frontier = deque([t])
    back = {t: (None, None)}
    while frontier:
        cur = frontier.popleft()
        for cand in tri.increasing_flips(cur):
            nxt = tri.apply_flip(cur, cand)
            if nxt in back:
                continue
            back[nxt] = (cur, cand)
            if nxt == t2:
                flips = []
                node = nxt
                while back[node][0] is not None:
                    node, cand = back[node]
                    flips.append(cand)
                return frozenset(flips)
            frontier.append(nxt)
    return None


def verify_connecting_set(t, t2, tilde):
    """Check the six conditions making a set of (d+1)-simplices a witness
    for t <= t2 in the flip order; returns the first failure if any."""
    d = t.d
    tilde = sorted(tuple(sorted(s)) for s in tilde)
    for s in tilde:
        if len(s) != d + 2 or len(set(s)) != d + 2:
            raise ValueError("connecting sets consist of (d+2)-vertex simplices")
    result = {"pass": True, "condition": None, "witness": None}

    def fail(cond, witness):
        result.update({"pass": False, "condition": cond, "witness": witness})
        return result

    for a, b in combinations(tilde, 2):
        if not simplices.zig_zag_admissible(a, b, d + 1):
            return fail("i", (a, b))
    in_t, in_t2 = set(t.simplices), set(t2.simplices)
    splits = [simplices.facet_split(s) for s in tilde]
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
    return result


def connecting_a(t):
    """The witness set for i(f(t)) <= t: members containing the last vertex
    but not the second-to-last, widened by the second-to-last."""
    n = t.n
    return frozenset(tuple(sorted(set(s) | {n - 1}))
                     for s in t if n in s and n - 1 not in s)


def connecting_b(t):
    """The witness set for t <= j(f(t)): members containing the
    second-to-last vertex but not the last, widened by the last."""
    n = t.n
    return frozenset(tuple(sorted(set(s) | {n}))
                     for s in t if n - 1 in s and n not in s)


def verify_connecting_sets(n, d, cap=None):
    """Check A~ as the witness for i(f(t)) <= t and B~ for t <= j(f(t)), for
    every triangulation t of C(n, d).  Returns the number of triangulations
    and the failures, each with t's key, the set ("A" or "B") and the report
    of verify_connecting_set."""
    ts = enumerate_triangulations(n, d, cap)
    failures = []
    for t in ts:
        f_t = tri.contract_last(t)
        ra = verify_connecting_set(tri.insert_bottom(f_t), t, connecting_a(t))
        rb = verify_connecting_set(t, tri.insert_top(f_t), connecting_b(t))
        if not ra["pass"]:
            failures.append({"t": t.key(), "set": "A", "report": ra})
        if not rb["pass"]:
            failures.append({"t": t.key(), "set": "B", "report": rb})
    return len(ts), failures


def verify_s0_monotone(n, d, order="s1", cap=None):
    """Terminal-simplex membership is monotone along the order: upward for
    even d, downward for odd d.  Returns pass or the first witness pair."""
    p = build_order(order, n, d, cap)
    s0 = tri.terminal_simplex(n, d)
    has = sum(1 << x for x, k in enumerate(p.elements) if s0 in p.data[k])
    for a in p.by_key:
        if (has >> a) & 1:
            bad = p.up[a] & ~has if d % 2 == 0 else 0
        else:
            bad = 0 if d % 2 == 0 else p.up[a] & has
        if bad:
            b = min(bits(bad), key=p.rank.__getitem__)
            return {"pass": False, "witness": (p.elements[a], p.elements[b])}
    return {"pass": True, "witness": None}


def brute_force_triangulations(n, d, max_candidates=25):
    """Independent enumeration oracle: depth-first search for sets of
    pairwise-admissible d-simplices with exact total volume, validating each
    hit.  Guarded, since the search is exponential in the candidate count."""
    cands = list(combinations(range(1, n + 1), d + 1))
    if len(cands) > max_candidates:
        raise ValueError("%d candidate simplices exceed the guard %d"
                         % (len(cands), max_candidates))
    vols = [geometry.normalized_volume(s, d) for s in cands]
    target = geometry.cyclic_volume(n, d)
    ok = [[simplices.zig_zag_admissible(a, b, d) for b in cands] for a in cands]
    found = []

    def grow(start, chosen, remaining):
        if remaining == 0:
            if tri.validate(chosen, n, d) is None:
                found.append(tri.make_triangulation(chosen, n, d))
            return
        for k in range(start, len(cands)):
            if vols[k] <= remaining and all(ok[k][j] for j in chosen_idx):
                chosen_idx.append(k)
                grow(k + 1, chosen + [cands[k]], remaining - vols[k])
                chosen_idx.pop()

    chosen_idx = []
    grow(0, [], target)
    return tuple(sorted(found, key=lambda t: t.key()))
