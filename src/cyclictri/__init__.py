"""Exact combinatorics of cyclic polytope triangulations: flip and height
orders, polytopal subdivisions, and homology-level sphericity certificates.

Importing the package runs none of its submodules.  Each one in _EXPORTS
is registered lazily: it is in sys.modules and bound on the package from
the start, and its body runs (and is compiled) on the first read of one of
its attributes, so a CLI process compiles only the modules its subcommand
uses.  Where bytecode is written, the first import still writes the cache
of every registered submodule, as an eager import would, so no later
process compiles a module on its first use.  The public names in __all__ resolve through the module __getattr__
(PEP 562) to their home module.  `cyclictri.cli` is imported by whoever
runs it, as any module.  The reference implementations the tests check
against live in `cyclictri.oracles`, which this package never registers
or imports."""

import importlib.util
import os
import sys

# each lazily registered submodule and the public names it defines
_EXPORTS = {
    "simplices": ("facet_class", "facet_split", "gale_facets", "gap_parity",
                  "simplex"),
    "geometry": ("cyclic_volume", "moment_point", "normalized_volume"),
    "triangulations": ("Triangulation", "Violation", "apply_flip", "bottom",
                       "color", "contract_last", "increasing_flips",
                       "insert_bottom", "insert_top", "make_triangulation",
                       "terminal_simplex", "top", "validate"),
    "posets": ("FinitePoset", "ResourceBudgetError", "boolean_lattice",
               "build_s1", "build_s2", "compare_relations",
               "enumerate_triangulations", "interval_poset"),
    "topology": ("HomologyResult", "SimplicialComplex", "homology",
                 "order_complex", "poset_core", "poset_homology",
                 "sphere_certificate", "suspension_compare",
                 "webb_reduction_check"),
    "baues": ("Subdivision", "baues_poset", "interval_to_subdivision",
              "make_subdivision", "phi", "validate_subdivision"),
    "verification": ("connecting_a", "connecting_b", "find_connecting_set",
                     "verify_connecting_set", "verify_connecting_sets",
                     "verify_s0_monotone", "verify_suspension"),
}
_HOME = {name: short for short, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]


def _register(short):
    name = "%s.%s" % (__name__, short)
    spec = importlib.util.find_spec(name)
    if not sys.dont_write_bytecode and spec.cached and not os.path.exists(spec.cached):
        # compiles and writes the bytecode cache; the module does not run
        spec.loader.get_code(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    globals()[short] = module


for _short in _EXPORTS:
    _register(_short)
del _short


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
