"""Exact combinatorics of cyclic polytope triangulations: flip and height
orders, polytopal subdivisions, and homology-level sphericity certificates.

The reference implementations the tests check against live in
`cyclictri.oracles`, which this package does not import."""

from .simplices import (facet_class, facet_split, gale_facets, gap_parity,
                        simplex)
from .geometry import cyclic_volume, moment_point, normalized_volume
from .triangulations import (Triangulation, Violation, apply_flip, bottom,
                             color, contract_last, increasing_flips,
                             insert_bottom, insert_top, make_triangulation,
                             terminal_simplex, top, validate)
from .posets import (FinitePoset, ResourceBudgetError, boolean_lattice,
                     build_s1, build_s2, compare_relations,
                     enumerate_triangulations, interval_poset)
from .topology import (HomologyResult, SimplicialComplex, homology,
                       order_complex, poset_core, poset_homology,
                       sphere_certificate, suspension_compare,
                       webb_reduction_check)
from .baues import (Subdivision, baues_poset, interval_to_subdivision,
                    make_subdivision, phi, validate_subdivision)
from .verification import (connecting_a, connecting_b, find_connecting_set,
                           verify_connecting_set, verify_connecting_sets,
                           verify_s0_monotone, verify_suspension)

__version__ = "0.1.0"

__all__ = [
    "facet_class", "facet_split", "gale_facets", "gap_parity", "simplex",
    "cyclic_volume", "moment_point", "normalized_volume",
    "Triangulation", "Violation", "apply_flip", "bottom", "color",
    "contract_last", "increasing_flips", "insert_bottom", "insert_top",
    "make_triangulation", "terminal_simplex", "top", "validate",
    "FinitePoset", "ResourceBudgetError", "boolean_lattice", "build_s1",
    "build_s2", "compare_relations", "enumerate_triangulations",
    "interval_poset",
    "HomologyResult", "SimplicialComplex", "homology", "order_complex",
    "poset_core", "poset_homology", "sphere_certificate",
    "suspension_compare", "webb_reduction_check",
    "Subdivision", "baues_poset", "interval_to_subdivision",
    "make_subdivision", "phi", "validate_subdivision",
    "connecting_a", "connecting_b", "find_connecting_set",
    "verify_connecting_set", "verify_connecting_sets", "verify_s0_monotone",
    "verify_suspension",
    "__version__",
]
