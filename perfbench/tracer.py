"""Traced child for the benchmark: one cyclictri CLI invocation with every
public function and method of the package wrapped in a span counter.

    python3 perfbench/tracer.py TRACE.json -- <cyclictri arguments>

Wrapping happens from outside the package, so nothing in src/ changes.
Modules import functions by name from each other (`from .posets import
build_s1`), so each wrapper replaces every binding of its function in every
loaded cyclictri module, not only the defining one.  Bindings left pointing
at an original function are reported under "missed", and the benchmark
fails the traced run if there are any.

Spans are aggregated per name while the program runs: call count,
inclusive seconds, and self seconds (inclusive minus the inclusive time of
wrapped calls made inside it).  A few functions also get counters computed
from their arguments or results, named in COUNTERS below.  Stdout of the
invocation is left untouched so it can be compared byte for byte with an
untraced run; the trace goes to TRACE.json when the program ends.
"""

import functools
import json
import sys
import time
import types

class Tracer:
    def __init__(self):
        self.spans = {}        # name -> [calls, inclusive_s, self_s]
        self.counters = {}     # name -> int
        self.stack = []        # open spans: [start, wrapped_child_s]
        self.paused = False    # set while a counter hook calls the package
        self.originals = {}    # id(original) -> (original, wrapper)
        self.seen = set()      # state for counter hooks

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, hook=None):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[0]
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                self.paused = True
                try:
                    hook(self, args, result)
                finally:
                    self.paused = False
            return result

        self.originals[id(fn)] = (fn, wrapper)
        return wrapper


# Counter hooks: (tracer, call arguments, result).  They run after the span
# closes, with wrapping paused, so calls they make are not counted.

def _validate(tr, args, result):
    simplices, n, d = args[:3]
    if hasattr(simplices, "simplices"):
        simplices = simplices.simplices
    key = (n, d, tuple(sorted(tuple(s) for s in simplices)))
    if key not in tr.seen:
        tr.seen.add(key)
        tr.count("triangulations.validate.distinct", 1)


def _enumerate(tr, args, result):
    n, d = args[:2]
    if ("enum", n, d) not in tr.seen:   # first call per instance does the work
        tr.seen.add(("enum", n, d))
        posets = sys.modules["cyclictri.posets"]
        tr.count("posets.enumerate_triangulations.elements", len(result))
        tr.count("posets.enumerate_triangulations.instances", 1)
        tr.count("posets.enumerate_triangulations.flip_edges",
                 len(posets.flip_step_edges(n, d, len(result))))


def _elements(name):
    return lambda tr, args, result: tr.count(name, len(result.elements))


COUNTERS = {
    "triangulations.validate": _validate,
    "posets.enumerate_triangulations": _enumerate,
    "posets.interval_poset": _elements("posets.interval_poset.elements"),
    "baues.baues_poset": _elements("baues.baues_poset.subdivisions"),
    "topology.chain_counts":
        lambda tr, args, result: tr.count("topology.chain_counts.chains", sum(result)),
    "topology.order_complex":
        lambda tr, args, result: tr.count(
            "topology.order_complex.faces",
            sum(len(f) for f in result.faces_by_dim.values())),
}


def _targets(short, mod):
    """(span name, owner, attribute, function) for each public function of
    the module and each public method or __init__ of its public classes."""
    for attr, val in list(vars(mod).items()):
        if attr.startswith("_") or getattr(val, "__module__", None) != mod.__name__:
            continue
        if isinstance(val, types.FunctionType):
            yield "%s.%s" % (short, attr), None, attr, val
        elif isinstance(val, type):
            for meth, member in list(vars(val).items()):
                if meth.startswith("_") and meth != "__init__":
                    continue
                fn = member.__func__ if isinstance(member, staticmethod) else member
                if isinstance(fn, types.FunctionType):
                    name = "%s.%s.%s" % (short, attr, meth.strip("_"))
                    yield name, val, meth, member


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "cyclictri" or name.startswith("cyclictri.")]


def _references(value):
    """The value itself and, for a container, its members (one level)."""
    yield value
    if isinstance(value, dict):
        yield from value.values()
    elif isinstance(value, (list, tuple, set, frozenset)):
        yield from value


def install(tracer):
    """Wrap every target and rebind every module-level name bound to one."""
    for mod in _package_modules():
        short = mod.__name__.rpartition(".")[2]
        for name, owner, attr, member in _targets(short, mod):
            if owner is None:
                tracer.wrap(name, member, COUNTERS.get(name))
            elif isinstance(member, staticmethod):
                setattr(owner, attr, staticmethod(tracer.wrap(name, member.__func__)))
            else:
                setattr(owner, attr, tracer.wrap(name, member))
    for mod in _package_modules():
        for attr, val in list(vars(mod).items()):
            got = tracer.originals.get(id(val))
            if got is not None and got[0] is val:
                setattr(mod, attr, got[1])


def missed_bindings(tracer):
    """Names in loaded cyclictri modules (globals, class attributes and
    members of module-level containers) still bound to an unwrapped
    original."""
    missed = []
    for mod in _package_modules():
        for attr, val in vars(mod).items():
            places = [(attr, val)]
            if isinstance(val, type) and val.__module__ == mod.__name__:
                places += [("%s.%s" % (attr, k), getattr(v, "__func__", v))
                           for k, v in vars(val).items()]
            for where, value in places:
                for ref in _references(value):
                    got = tracer.originals.get(id(ref))
                    if got is not None and got[0] is ref:
                        missed.append("%s.%s" % (mod.__name__, where))
    return missed


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- <cyclictri arguments>", file=sys.stderr)
        return 3
    out_path, cli_args = argv[0], argv[2:]
    import cyclictri.cli as cli   # imports every module of the package
    tracer = Tracer()
    install(tracer)
    missed = missed_bindings(tracer)
    try:
        return cli.main(cli_args)
    finally:
        doc = {"spans": tracer.spans, "counters": tracer.counters,
               "missed": missed, "wrapped": len(tracer.originals)}
        with open(out_path, "w") as fh:
            json.dump(doc, fh, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
