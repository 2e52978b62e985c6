"""Command-line interface.

One subcommand per claim family; output is byte-deterministic for a given
invocation.  Exit codes: 0 success or reported finding, 1 refuted claim,
2 resource budget exceeded, 3 invalid arguments.
"""

import argparse
import json
import sys

from . import baues as baues_mod
from . import topology, triangulations as tri, verification
from .posets import (ResourceBudgetError, build_order, build_s1, build_s2,
                     compare_relations, enumerate_triangulations,
                     flip_cover_discrepancies, flip_step_edges)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, "%s: error: %s\n" % (self.prog, message))


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer, got %r" % text)
    return value


def _emit(text, args):
    if getattr(args, "output", None):
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError("cannot write %s: %s" % (args.output, exc.strerror))
    else:
        sys.stdout.write(text)


def _json(doc):
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def _check_nd(args):
    if args.d < 1 or args.n <= args.d:
        print("error: need n > d >= 1", file=sys.stderr)
        raise SystemExit(3)


def cmd_enumerate(args):
    _check_nd(args)
    ts = enumerate_triangulations(args.n, args.d, args.cap)
    print("triangulations of C(%d,%d): %d" % (args.n, args.d, len(ts)))
    doc = {"n": args.n, "d": args.d, "count": len(ts),
           "triangulations": [[list(s) for s in t.simplices] for t in ts]}
    _emit(_json(doc), args)
    return 0


def cmd_poset(args):
    _check_nd(args)
    p = build_order(args.order, args.n, args.d, args.cap)
    print("%s(%d,%d): %d elements, %d cover relations"
          % (args.order, args.n, args.d, len(p.elements), len(p.covers())))
    _emit(p.to_dot() if args.format == "dot" else p.to_json() + "\n", args)
    return 0


def cmd_compare_orders(args):
    _check_nd(args)
    s1 = build_s1(args.n, args.d, args.cap)
    s2 = build_s2(args.n, args.d, args.cap)
    diff = compare_relations(s1, s2)
    if diff is None:
        print("s1(%d,%d) and s2(%d,%d) are equal as relations"
              % (args.n, args.d, args.n, args.d))
        return 0
    print("orders differ on the pair %s" % (diff["pair"],))
    print("in s1: %s, in s2: %s" % (diff["in_first"], diff["in_second"]))
    return 1


def cmd_check_lattice(args):
    _check_nd(args)
    p = build_order(args.order, args.n, args.d, args.cap)
    w = p.is_lattice()
    if w is True:
        print("%s(%d,%d) is a lattice" % (args.order, args.n, args.d))
    else:
        print("%s(%d,%d) is not a lattice: pair missing a %s"
              % (args.order, args.n, args.d, w["missing"]))
        for key in w["pair"]:
            print("  %s" % key)
    return 0


def cmd_mobius(args):
    _check_nd(args)
    p = build_order(args.order, args.n, args.d, args.cap)
    mu = p.mobius_bottom_top()
    k = args.n - args.d - 3
    expected = -1 if k % 2 else 1
    print("mobius(0,1) of %s(%d,%d) = %d, expected (-1)^%d = %d"
          % (args.order, args.n, args.d, mu, k, expected))
    return 0 if mu == expected else 1


def cmd_sphere(args):
    _check_nd(args)
    p = build_order(args.order, args.n, args.d, args.cap)
    k = args.k if args.k is not None else args.n - args.d - 3
    report = topology.sphere_certificate(p.proper_part(), k, args.budget)
    verdict = "PASS" if report["pass"] else "FAIL"
    print("homology certificate %s: S^%d" % (verdict, k))
    for reason in report["reasons"]:
        print("  %s" % reason)
    _emit(report["homology"].to_json(
        {"mobius_crosscheck": report["mobius"], "pass": report["pass"],
         "certificate": report["certificate"]}) + "\n", args)
    return 0 if report["pass"] else 1


def cmd_baues(args):
    _check_nd(args)
    p = baues_mod.baues_poset(args.n, args.d, args.cap)
    print("subdivision poset of C(%d,%d): %d elements" % (args.n, args.d, len(p.elements)))
    rc = 0
    if args.certificate:
        k = args.n - args.d - 2
        report = topology.sphere_certificate(p, k, args.budget)
        verdict = "PASS" if report["pass"] else "FAIL"
        print("homology certificate %s: S^%d" % (verdict, k))
        for reason in report["reasons"]:
            print("  %s" % reason)
        rc = 0 if report["pass"] else 1
    _emit(p.to_dot() if args.format == "dot" else p.to_json() + "\n", args)
    return rc


def cmd_verify_suspension(args):
    _check_nd(args)
    report = verification.verify_suspension(args.n, args.d, args.order, args.cap)
    print("suspension hypotheses for %s(%d,%d): %s"
          % (args.order, args.n, args.d, "PASS" if report["pass"] else "FAIL"))
    for name in sorted(report):
        val = report[name]
        if isinstance(val, dict) and not val["pass"]:
            print("  %s failed at %s" % (name, val["witness"]))
    _emit(_json(report), args)
    return 0 if report["pass"] else 1


def cmd_verify_connecting(args):
    _check_nd(args)
    ts = enumerate_triangulations(args.n, args.d, args.cap)
    failures = []
    for t in ts:
        f_t = tri.contract_last(t)
        low = tri.insert_bottom(f_t)
        high = tri.insert_top(f_t)
        ra = verification.verify_connecting_set(low, t, verification.connecting_a(t))
        rb = verification.verify_connecting_set(t, high, verification.connecting_b(t))
        if not ra["pass"]:
            failures.append({"t": t.key(), "set": "A", "report": ra})
        if not rb["pass"]:
            failures.append({"t": t.key(), "set": "B", "report": rb})
    print("connecting sets for C(%d,%d): %d triangulations, %d failures"
          % (args.n, args.d, len(ts), len(failures)))
    for item in failures:
        print("  %s at %s: condition %s"
              % (item["set"], item["t"], item["report"]["condition"]))
    return 0 if not failures else 1


def cmd_oracle_crosscheck(args):
    _check_nd(args)
    ours = enumerate_triangulations(args.n, args.d, args.cap)
    oracle = verification.brute_force_triangulations(args.n, args.d,
                                                     args.max_candidates)
    same = [t.key() for t in ours] == [t.key() for t in oracle]
    print("flip search found %d, brute force found %d: %s"
          % (len(ours), len(oracle), "agree" if same else "DISAGREE"))
    return 0 if same else 1


def cmd_flip_graph(args):
    _check_nd(args)
    ts = enumerate_triangulations(args.n, args.d, args.cap)
    edges = sorted((i, j) for i, j, _ in flip_step_edges(args.n, args.d, args.cap))
    stray = flip_cover_discrepancies(args.n, args.d, args.cap)
    print("flip graph of C(%d,%d): %d nodes, %d edges, %d non-cover flips"
          % (args.n, args.d, len(ts), len(edges), len(stray)))
    if args.format == "dot":
        lines = ["digraph flips {"]
        for i, t in enumerate(ts):
            lines.append('  n%d [label="%d"];' % (i, i))
        for i, j in edges:
            lines.append("  n%d -> n%d;" % (i, j))
        lines.append("}")
        _emit("\n".join(lines) + "\n", args)
    else:
        doc = {"elements": [t.key() for t in ts],
               "edges": [[i, j] for i, j in edges]}
        _emit(_json(doc), args)
    return 0


def build_parser():
    parser = _Parser(prog="cyclictri",
                     description="triangulations of cyclic polytopes: "
                                 "posets, certificates, exports")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--cap", type=_positive_int, default=None,
                       help="enumeration cap (default 10^6)")
        p.add_argument("--budget", type=_positive_int, default=None,
                       help="face budget (default 2*10^6)")
        p.add_argument("--output", default=None, help="write artifact here")
        p.add_argument("--format", choices=("json", "dot"), default="json")
        p.set_defaults(func=func)
        return p

    add("enumerate", cmd_enumerate, help="count and export all triangulations")
    for name, func in (("poset", cmd_poset), ("check-lattice", cmd_check_lattice),
                       ("mobius", cmd_mobius), ("sphere", cmd_sphere),
                       ("verify-suspension", cmd_verify_suspension)):
        p = add(name, func)
        p.add_argument("--order", choices=("s1", "s2"), default="s2")
    sub.choices["sphere"].add_argument("--k", type=int, default=None,
                                       help="expected sphere dimension "
                                            "(default n-d-3)")
    add("compare-orders", cmd_compare_orders,
        help="compare the flip order with the height order")
    p = add("baues", cmd_baues, help="subdivision poset and its certificate")
    p.add_argument("--certificate", action="store_true",
                   help="also run the sphere certificate at dimension n-d-2")
    add("verify-connecting", cmd_verify_connecting,
        help="check the connecting-set conditions for every triangulation")
    p = add("oracle-crosscheck", cmd_oracle_crosscheck,
            help="compare flip search with the brute-force oracle")
    p.add_argument("--max-candidates", type=int, default=25)
    add("flip-graph", cmd_flip_graph, help="export the increasing-flip graph")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceBudgetError as exc:
        print("resource budget exceeded: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
