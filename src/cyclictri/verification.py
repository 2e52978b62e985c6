"""Mechanical checks of the structural facts the flip and height orders are
supposed to satisfy: the suspension-map hypotheses, connecting sets of
(d+1)-simplices witnessing flip-order comparability, and monotonicity of the
terminal simplex.

The checks read masks.  The suspension maps are position lists between the
two posets, and a map is checked monotone on the covers of its source only.
A connecting set is checked on the triangulation tables: pairwise
admissibility by the conflict rows of table(n, d+1), the face conditions by
the lower/upper facet masks of its members in table(n, d) and a two-level
count of the faces they cover.  Members and faces are walked one by one only
to name the witness of a failure.
"""

from collections import deque

from . import simplices, triangulations as tri
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
    # triangulations and the three maps by position: f from p to q, i and
    # j from q to p.  Witnesses are the first in key order: elements are
    # walked by by_key, and the first of a position mask picked by key rank.
    p_ts = list(p.data)
    q_ts = list(q.data)
    p_at = {t: x for x, t in enumerate(p_ts)}
    q_at = {t: x for x, t in enumerate(q_ts)}
    i_ts = [tri.insert_bottom(t) for t in q_ts]
    j_ts = [tri.insert_top(t) for t in q_ts]
    f = [q_at[tri.contract_last(t)] for t in p_ts]
    i = [p_at[t] for t in i_ts]
    j = [p_at[t] for t in j_ts]
    report = {"n": n, "d": d, "order": order}

    def entry(name, witness):
        report[name] = {"pass": witness is None, "witness": witness}

    green = [tri.color(t) == tri.GREEN for t in p_ts]
    red_mask = sum(1 << x for x, g in enumerate(green) if not g)
    w = None
    for a in p.by_key:
        bad = p.down[a] & red_mask if green[a] else 0
        if bad:
            w = (p.elements[p.first_in_key_order(bad)], p.elements[a])
            break
    entry("green_ideal", w)

    w = next((q.elements[y] for y in q.by_key
              if tri.contract_last(i_ts[y]) != q_ts[y]), None)
    entry("f_i_identity", w)
    w = next((q.elements[y] for y in q.by_key
              if tri.contract_last(j_ts[y]) != q_ts[y]), None)
    entry("f_j_identity", w)

    w = next((q.elements[y] for y in q.by_key
              if tri.color(i_ts[y]) != tri.GREEN), None)
    if w is None:
        w = next((q.elements[y] for y in q.by_key
                  if tri.color(j_ts[y]) != tri.RED), None)
    entry("image_colors", w)

    w = next((p.elements[x] for x in p.by_key
              if not p.le(i[f[x]], x) or not p.le(x, j[f[x]])), None)
    entry("sandwich", w)

    bot_p, top_p = p_at[tri.bottom(n, d)], p_at[tri.top(n, d)]
    bot_q, top_q = q_at[tri.bottom(n - 1, d)], q_at[tri.top(n - 1, d)]
    w = next((p.elements[x] for x in p.by_key
              if f[x] == bot_q and x != bot_p and green[x]), None)
    entry("fiber_bottom", w)
    w = next((p.elements[x] for x in p.by_key
              if f[x] == top_q and x != top_p and not green[x]), None)
    entry("fiber_top", w)

    # order preservation of the three maps, checked because the interval
    # conditions above only make sense for monotone data
    entry("f_monotone", _monotone_witness(p, q, f))
    entry("i_monotone", _monotone_witness(q, p, i))
    entry("j_monotone", _monotone_witness(q, p, j))

    report["pass"] = all(v["pass"] for k, v in report.items()
                         if isinstance(v, dict))
    return report


def _monotone_witness(src, dst, image):
    """None if the map x -> image[x] from the positions of src to those of
    dst preserves the order, else the first pair (x, y) of src keys with
    x <= y but image[x] not <= image[y]: x first in key order, then y.

    dst is transitive, so the map is monotone iff every cover of src maps
    to a related pair; only a failing cover costs the scan of all pairs."""
    order, le = src.by_key, dst.le
    if all(le(image[order[a]], image[order[b]]) for a, b in src.covers()):
        return None
    for x in order:
        row = dst.up[image[x]]
        bad = [y for y in bits(src.up[x] & ~(1 << x)) if not (row >> image[y]) & 1]
        if bad:
            return (src.elements[x], src.elements[min(bad, key=src.rank.__getitem__)])
    raise AssertionError("a cover fails but every pair holds")


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
    for t <= t2 in the flip order; returns the first failure if any.

    The members, taken in lexicographic order, must be (i) pairwise
    admissible in dimension d+1; each lower facet of a member must be a
    facet of another member or (ii) a member of t, each upper facet (iii)
    one of t2; each member of t not in t2 must be (iv) a lower facet of a
    member, each member of t2 not in t (v) an upper one; and (vi) none of
    those is a facet of two members."""
    n, d = t.n, t.d
    if (t2.n, t2.d) != (n, d):
        raise ValueError("triangulations on different polytopes")
    tilde = sorted({tuple(sorted(s)) for s in tilde})
    for s in tilde:
        if len(s) != d + 2 or len(set(s)) != d + 2:
            raise ValueError("connecting sets consist of (d+2)-vertex simplices")
        if s[0] < 1 or s[-1] > n:
            raise ValueError("member %r has a label outside 1..%d" % (s, n))
    result = {"pass": True, "condition": None, "witness": None}

    def fail(cond, witness):
        result.update({"pass": False, "condition": cond, "witness": witness})
        return result

    if tilde:
        big = tri.table(n, d + 1)
        members = [big.index[s] for s in tilde]
        mask = sum(1 << k for k in members)
        for a, k in zip(tilde, members):
            bad = mask & big.row(k)[0]
            if bad:
                return fail("i", (a, big.simplices[(bad & -bad).bit_length() - 1]))

    tab = tri.table(n, d)
    splits = [tab.split(s) for s in tilde]
    once = twice = lowers = uppers = 0      # twice: facets of two members
    for low, up in splits:
        twice |= once & (low | up)
        once |= low | up
        lowers |= low
        uppers |= up
    in_t, in_t2 = t.mask, t2.mask
    for s, (low, up) in zip(tilde, splits):
        for cond, faces, own, end in (("ii", low, 0, in_t), ("iii", up, 1, in_t2)):
            bad = faces & ~twice & ~end
            if bad:
                # the first such face as facet_split lists them
                return fail(cond, (s, next(f for f in simplices.facet_split(s)[own]
                                           if (bad >> tab.index[f]) & 1)))
    only_t, only_t2 = in_t & ~in_t2, in_t2 & ~in_t
    for cond, bad in (("iv", only_t & ~lowers), ("v", only_t2 & ~uppers),
                      ("vi", (only_t | only_t2) & twice)):
        if bad:
            return fail(cond, tab.simplices[(bad & -bad).bit_length() - 1])
    return result


def connecting_a(t):
    """The witness set for i(f(t)) <= t: members containing the last vertex
    but not the second-to-last, widened by the second-to-last."""
    n = t.n
    return frozenset(s[:-1] + (n - 1, n) for s in t.simplices
                     if s[-1] == n and s[-2] != n - 1)


def connecting_b(t):
    """The witness set for t <= j(f(t)): members containing the
    second-to-last vertex but not the last, widened by the last."""
    n = t.n
    return frozenset(s + (n,) for s in t.simplices if s[-1] == n - 1)


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
    has = sum(1 << x for x, t in enumerate(p.data) if s0 in t)
    for a in p.by_key:
        if (has >> a) & 1:
            bad = p.up[a] & ~has if d % 2 == 0 else 0
        else:
            bad = 0 if d % 2 == 0 else p.up[a] & has
        if bad:
            b = p.first_in_key_order(bad)
            return {"pass": False, "witness": (p.elements[a], p.elements[b])}
    return {"pass": True, "witness": None}
