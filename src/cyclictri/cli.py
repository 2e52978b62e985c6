"""Command-line interface.

One subcommand per claim family; output is byte-deterministic for a given
invocation.  Exit codes: 0 success or reported finding, 1 refuted claim,
2 resource budget exceeded, 3 invalid arguments.

Each handler returns (exit code, report lines, payload or None) and prints
nothing; `main` checks the arguments, including that the --output path can
be written, before the handler runs, and does all the output, so a run that
ends in exit 2 or 3 leaves stdout empty.  A MemoryError that escapes a
handler is a resource budget exceeded too: exit 2, one line on stderr.
"""

import argparse
import errno
import json
import os
import sys

# submodules, not names: the package registers them lazily, and a
# from-import would run each at import time, whether the subcommand uses it
# or not
from . import posets, topology, verification, baues as baues_mod


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


def _json(doc):
    return json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"


def _check_output(path):
    """Raise ValueError unless path names a file that can be written: its
    directory exists, it is not itself a directory, and it is writable if
    it exists, else its directory is."""
    parent = os.path.dirname(os.path.abspath(path))
    if not path:
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.exists(parent):
        code = errno.ENOENT
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError("cannot write %s: %s" % (path, os.strerror(code)))


def _poset_payload(p, fmt):
    return p.to_dot() if fmt == "dot" else p.to_json() + "\n"


def _certificate(p, k, budget):
    """The sphere certificate of p for S^k and its report lines."""
    report = topology.sphere_certificate(p, k, budget)
    lines = ["homology certificate %s: S^%d" % ("PASS" if report["pass"] else "FAIL", k)]
    return report, lines + ["  %s" % reason for reason in report["reasons"]]


def cmd_enumerate(args):
    ts = posets.enumerate_triangulations(args.n, args.d, args.cap)
    # the _json text of the whole export, joined from the table's member
    # texts: no nested lists of every member are built
    payload = '{"count":%d,"d":%d,"n":%d,"triangulations":[%s]}\n' % (
        len(ts), args.d, args.n, ",".join(map(ts.table.members_text, ts.masks)))
    return 0, ["triangulations of C(%d,%d): %d" % (args.n, args.d, len(ts))], payload


def cmd_poset(args):
    p = posets.build_order(args.order, args.n, args.d, args.cap)
    line = "%s(%d,%d): %d elements, %d cover relations" % (
        args.order, args.n, args.d, len(p.elements), len(p.covers()))
    return 0, [line], _poset_payload(p, args.format)


def cmd_compare_orders(args):
    s1 = posets.build_s1(args.n, args.d, args.cap)
    s2 = posets.build_s2(args.n, args.d, args.cap)
    diff = posets.compare_relations(s1, s2)
    if diff is None:
        return 0, ["s1(%d,%d) and s2(%d,%d) are equal as relations"
                   % (args.n, args.d, args.n, args.d)], None
    return 1, ["orders differ on the pair %s" % (diff["pair"],),
               "in s1: %s, in s2: %s" % (diff["in_first"], diff["in_second"])], None


def cmd_check_lattice(args):
    p = posets.build_order(args.order, args.n, args.d, args.cap)
    w = p.is_lattice()
    name = "%s(%d,%d)" % (args.order, args.n, args.d)
    if w is True:
        return 0, ["%s is a lattice" % name], None
    lines = ["%s is not a lattice: pair missing a %s" % (name, w["missing"])]
    return 0, lines + ["  %s" % key for key in w["pair"]], None


def cmd_mobius(args):
    p = posets.build_order(args.order, args.n, args.d, args.cap)
    mu = p.mobius_bottom_top()
    k = args.n - args.d - 3
    expected = -1 if k % 2 else 1
    line = "mobius(0,1) of %s(%d,%d) = %d, expected (-1)^%d = %d" % (
        args.order, args.n, args.d, mu, k, expected)
    return (0 if mu == expected else 1), [line], None


def cmd_sphere(args):
    p = posets.build_order(args.order, args.n, args.d, args.cap)
    k = args.k if args.k is not None else args.n - args.d - 3
    report, lines = _certificate(p.proper_part(), k, args.budget)
    payload = report["homology"].to_json(
        {"mobius_crosscheck": report["mobius"], "pass": report["pass"],
         "certificate": report["certificate"]}) + "\n"
    return (0 if report["pass"] else 1), lines, payload


def cmd_baues(args):
    p = baues_mod.baues_poset(args.n, args.d, args.cap)
    lines = ["subdivision poset of C(%d,%d): %d elements" % (args.n, args.d, len(p.elements))]
    rc = 0
    if args.certificate:
        report, cert = _certificate(p, args.n - args.d - 2, args.budget)
        lines += cert
        rc = 0 if report["pass"] else 1
    return rc, lines, _poset_payload(p, args.format)


def cmd_verify_suspension(args):
    report = verification.verify_suspension(args.n, args.d, args.order, args.cap)
    lines = ["suspension hypotheses for %s(%d,%d): %s"
             % (args.order, args.n, args.d, "PASS" if report["pass"] else "FAIL")]
    lines += ["  %s failed at %s" % (name, val["witness"])
              for name, val in sorted(report.items())
              if isinstance(val, dict) and not val["pass"]]
    return (0 if report["pass"] else 1), lines, _json(report)


def cmd_verify_connecting(args):
    count, failures = verification.verify_connecting_sets(args.n, args.d, args.cap)
    lines = ["connecting sets for C(%d,%d): %d triangulations, %d failures"
             % (args.n, args.d, count, len(failures))]
    lines += ["  %s at %s: condition %s" % (item["set"], item["t"], item["report"]["condition"])
              for item in failures]
    return (1 if failures else 0), lines, None


def cmd_oracle_crosscheck(args):
    from . import oracles   # the only subcommand that needs a reference implementation
    ours = posets.enumerate_triangulations(args.n, args.d, args.cap)
    oracle = oracles.brute_force_triangulations(args.n, args.d, args.max_candidates)
    same = list(map(ours.key, range(len(ours)))) == [t.key() for t in oracle]
    line = "flip search found %d, brute force found %d: %s" % (
        len(ours), len(oracle), "agree" if same else "DISAGREE")
    return (0 if same else 1), [line], None


def cmd_flip_graph(args):
    ts = posets.enumerate_triangulations(args.n, args.d, args.cap)
    edges = sorted(zip(ts.src, ts.dst))
    stray = posets.flip_cover_discrepancies(args.n, args.d, args.cap)
    lines = ["flip graph of C(%d,%d): %d nodes, %d edges, %d non-cover flips"
             % (args.n, args.d, len(ts), len(edges), len(stray))]
    if args.format == "dot":
        dot = ["digraph flips {"]
        dot += ['  n%d [label="%d"];' % (i, i) for i in range(len(ts))]
        dot += ["  n%d -> n%d;" % (i, j) for i, j in edges]
        return 0, lines, "\n".join(dot + ["}"]) + "\n"
    return 0, lines, _json({"elements": list(map(ts.key, range(len(ts)))),
                            "edges": [[i, j] for i, j in edges]})


def build_parser():
    parser = _Parser(prog="cyclictri",
                     description="triangulations of cyclic polytopes: "
                                 "posets, certificates, exports")
    sub = parser.add_subparsers(dest="command", required=True)
    # the options only some subcommands take; see README "Command line"
    optional = {
        "budget": dict(type=_positive_int, default=None,
                       help="face budget (default 2*10^6)"),
        "output": dict(default=None, help="write artifact here"),
        "format": dict(choices=("json", "dot"), default="json"),
        "order": dict(choices=("s1", "s2"), default="s2"),
    }

    def add(name, func, options="", **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--cap", type=_positive_int, default=None,
                       help="enumeration cap (default 10^6)")
        for opt in options.split():
            p.add_argument("--" + opt, **optional[opt])
        p.set_defaults(func=func)
        return p

    add("enumerate", cmd_enumerate, "output", help="count and export all triangulations")
    add("poset", cmd_poset, "output format order")
    add("check-lattice", cmd_check_lattice, "order")
    add("mobius", cmd_mobius, "order")
    add("sphere", cmd_sphere, "budget output order").add_argument(
        "--k", type=int, default=None, help="expected sphere dimension (default n-d-3)")
    add("verify-suspension", cmd_verify_suspension, "output order")
    add("compare-orders", cmd_compare_orders,
        help="compare the flip order with the height order")
    add("baues", cmd_baues, "budget output format",
        help="subdivision poset and its certificate").add_argument(
        "--certificate", action="store_true",
        help="also run the sphere certificate at dimension n-d-2")
    add("verify-connecting", cmd_verify_connecting,
        help="check the connecting-set conditions for every triangulation")
    add("oracle-crosscheck", cmd_oracle_crosscheck,
        help="compare flip search with the brute-force oracle").add_argument(
        "--max-candidates", type=_positive_int, default=25)
    add("flip-graph", cmd_flip_graph, "output format",
        help="export the increasing-flip graph")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.d < 1 or args.n <= args.d:
            raise ValueError("need n > d >= 1")
        output = getattr(args, "output", None)
        if output is not None:
            _check_output(output)
        code, lines, payload = args.func(args)
        if payload is not None and output is not None:
            try:
                with open(output, "w") as fh:
                    fh.write(payload)
            except OSError as exc:
                raise ValueError("cannot write %s: %s" % (output, exc.strerror))
            payload = None
    except ValueError as exc:
        # first: an argument error is caught before the next clause reads
        # posets.ResourceBudgetError, which would run posets and its imports
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except posets.ResourceBudgetError as exc:
        print("resource budget exceeded: %s" % exc, file=sys.stderr)
        return 2
    except MemoryError:
        print("resource budget exceeded: out of memory", file=sys.stderr)
        return 2
    try:
        sys.stdout.write("".join(line + "\n" for line in lines))
        if payload is not None:
            sys.stdout.write(payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; with fd 1 on devnull the interpreter's final
        # flush of what is left in the buffer stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
