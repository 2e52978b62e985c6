"""Mechanical checks of the structural facts the flip and height orders are
supposed to satisfy: the suspension-map hypotheses, connecting sets of
(d+1)-simplices witnessing flip-order comparability, and monotonicity of the
terminal simplex.

The checks read masks, and no member tuple, by the tables' own rules: the
suspension maps are position lists computed by the tables' index maps, the
colours by the green rule, and a map is checked monotone on the covers of
its source only (FinitePoset.monotone_witness); every witness is the first
in key order (FinitePoset.first_pair, _first).  A connecting set is a mask
over table(n, d+1), checked by one mask-level core: pairwise admissibility
by table(n, d+1)'s clash, as validation names it, the face conditions by
the lower/upper facet masks of its members in table(n, d) and a two-level
count of the faces they cover.  Members and faces are walked one by one
only to name the witness of a failure.
"""

from collections import deque

from . import simplices, triangulations as tri
from .posets import build_order, enumerate_triangulations


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
    # the masks and the three maps by position: f from p to q, i and j
    # from q to p, each computed on the masks by the table's index maps
    tab = tri.table(n, d)
    p_masks = [t.mask for t in p.data]
    q_masks = [t.mask for t in q.data]
    p_at = {m: x for x, m in enumerate(p_masks)}
    q_at = {m: y for y, m in enumerate(q_masks)}
    f = [q_at[tab.contract(m)] for m in p_masks]
    i = [p_at[tab.insert(m, False)] for m in q_masks]
    j = [p_at[tab.insert(m, True)] for m in q_masks]
    report = {"n": n, "d": d, "order": order}

    def entry(name, witness):
        report[name] = {"pass": witness is None, "witness": witness}

    green = list(map(tab.green, p_masks))
    entry("green_ideal", _reds_rise(p, green))

    entry("f_i_identity", _first(q, lambda y: f[i[y]] != y))
    entry("f_j_identity", _first(q, lambda y: f[j[y]] != y))
    entry("image_colors", _first(q, lambda y: not green[i[y]])
          or _first(q, lambda y: green[j[y]]))      # keys are nonempty strings
    entry("sandwich", _first(p, lambda x: not p.le(i[f[x]], x) or not p.le(x, j[f[x]])))

    bot_p, top_p = p_at[tab.bottom.mask], p_at[tab.top.mask]
    small = tri.table(n - 1, d)
    bot_q, top_q = q_at[small.bottom.mask], q_at[small.top.mask]
    entry("fiber_bottom", _first(p, lambda x: f[x] == bot_q and x != bot_p and green[x]))
    entry("fiber_top", _first(p, lambda x: f[x] == top_q and x != top_p and not green[x]))

    # order preservation of the three maps, checked because the interval
    # conditions above only make sense for monotone data
    for name, src, dst, image in (("f_monotone", p, q, f), ("i_monotone", q, p, i),
                                  ("j_monotone", q, p, j)):
        entry(name, _keys(src, src.monotone_witness(dst, image)))

    report["pass"] = all(v["pass"] for k, v in report.items()
                         if isinstance(v, dict))
    return report


def _keys(poset, pair):
    """The keys of a pair of positions of poset; None for None."""
    return pair and (poset.elements[pair[0]], poset.elements[pair[1]])


def _first(poset, bad):
    """The key of the first position x, in key order, with bad(x), or None."""
    return next((poset.elements[x] for x in poset.by_key if bad(x)), None)


def _reds_rise(p, green):
    """None if the red positions (green[x] false) are an up-set of the
    poset p, else the keys of first_pair's pair x <= y, x red and y green."""
    red = sum(1 << x for x, g in enumerate(green) if not g)
    return _keys(p, p.first_pair(lambda x: p.up[x] & ~red if (red >> x) & 1 else 0))


def find_connecting_set(t, t2):
    """Union of the flip simplices along a shortest increasing-flip path from
    t to t2, or None when t2 is not reachable (t is not below t2), walked
    on masks as the flip search walks them (_Table.flips)."""
    if (t.n, t.d) != (t2.n, t2.d):
        raise ValueError("triangulations on different polytopes")
    if t == t2:
        return frozenset()
    tab = tri.table(t.n, t.d)
    frontier = deque([t.mask])
    back = {t.mask: None}     # mask -> (the mask before it, the flip's cand)
    while frontier:
        m = frontier.popleft()
        for cand, low, up, _ in tab.flips(m):
            nxt = (m ^ low) | up
            if nxt in back:
                continue
            back[nxt] = (m, cand)
            if nxt == t2.mask:
                flips = []
                while back[nxt] is not None:
                    nxt, cand = back[nxt]
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
    tilde = {tuple(sorted(simplices._ints(s))) for s in tilde}
    for s in tilde:
        if len(s) != d + 2 or len(set(s)) != d + 2:
            raise ValueError("connecting sets consist of (d+2)-vertex simplices")
        if s[0] < 1 or s[-1] > n:
            raise ValueError("member %r has a label outside 1..%d" % (s, n))
    return _connecting_report(tri.table(n, d), t.mask, t2.mask,
                              tri.table(n, d + 1).mask(tilde))


def _report(cond=None, witness=None):
    return {"pass": cond is None, "condition": cond, "witness": witness}


def _connecting_report(tab, low, high, tilde):
    """verify_connecting_set's report on masks: low and high over tab =
    table(n, d), tilde over table(n, d+1).  The members are tilde's bits,
    in lexicographic order; bit k has its lower and upper facet masks in
    tab.move(k), and (i) is table(n, d+1)'s clash."""
    pair = tilde and tri.table(tab.n, tab.d + 1).clash(tilde)
    if pair:
        return _report("i", pair)
    members = list(map(tab.move, simplices.bits(tilde)))
    once = twice = lowers = uppers = 0      # twice: facets of two members
    for _, lo, up, _ in members:
        twice |= once & (lo | up)
        once |= lo | up
        lowers |= lo
        uppers |= up
    for s, lo, up, _ in members:
        for cond, faces, own, end in (("ii", lo, 0, low), ("iii", up, 1, high)):
            bad = faces & ~twice & ~end
            if bad:
                # the first such face as facet_split lists them
                return _report(cond, (s, next(f for f in simplices.facet_split(s)[own]
                                              if (bad >> tab.index[f]) & 1)))
    only_low, only_high = low & ~high, high & ~low
    for cond, bad in (("iv", only_low & ~lowers), ("v", only_high & ~uppers),
                      ("vi", (only_low | only_high) & twice)):
        if bad:
            return _report(cond, tab.simplices[(bad & -bad).bit_length() - 1])
    return _report()


def connecting_a(t):
    """The witness set for i(f(t)) <= t: members containing the last vertex
    but not the second-to-last, widened by the second-to-last."""
    return _connecting(t, 0)


def connecting_b(t):
    """The witness set for t <= j(f(t)): members containing the
    second-to-last vertex but not the last, widened by the last."""
    return _connecting(t, 1)


def _connecting(t, which):
    mask = tri.table(t.n, t.d).connecting(t.mask)[which]
    return frozenset(tri.table(t.n, t.d + 1).simplices[k] for k in simplices.bits(mask))


def verify_connecting_sets(n, d, cap=None):
    """Check A~ as the witness for i(f(t)) <= t and B~ for t <= j(f(t)), for
    every triangulation t of C(n, d).  Returns the number of triangulations
    and the failures, each with t's key, the set ("A" or "B") and the report
    of verify_connecting_set.  Every set, map and condition is read on the
    enumeration's masks through the table's index maps."""
    if n < d + 2:
        raise ValueError("need n >= d+2 so the last vertex can be contracted")
    ts = enumerate_triangulations(n, d, cap)
    tab = ts.table
    failures = []
    for r, m in enumerate(ts.masks):
        f = tab.contract(m)
        a, b = tab.connecting(m)
        for name, low, high, tilde in (("A", tab.insert(f, False), m, a),
                                       ("B", m, tab.insert(f, True), b)):
            report = _connecting_report(tab, low, high, tilde)
            if not report["pass"]:
                failures.append({"t": ts.key(r), "set": name, "report": report})
    return len(ts), failures


def verify_s0_monotone(n, d, order="s1", cap=None):
    """Terminal-simplex membership is monotone along the order: upward for
    even d, downward for odd d, so the rising set, the red triangulations
    by the table's green rule, is an up-set.  Returns pass or the first witness."""
    p = build_order(order, n, d, cap)
    w = _reds_rise(p, list(map(tri.table(n, d).green, (t.mask for t in p.data))))
    return {"pass": w is None, "witness": w}
