"""Exact combinatorics of cyclic polytope triangulations: flip and height
orders, polytopal subdivisions, and homology-level sphericity certificates."""

from .simplices import (facet_class, facet_split, gale_facets, gap_parity,
                        simplex, zig_zag_admissible)
from .geometry import (cyclic_volume, exact_lp, lift_functional, moment_point,
                       normalized_volume, relative_height, submerged)
from .triangulations import (Triangulation, Violation, apply_flip, bottom,
                             color, contract_last, increasing_flips,
                             insert_bottom, insert_top, make_triangulation,
                             submersion_set, terminal_simplex, top, validate)
from .posets import (FinitePoset, ResourceBudgetError, boolean_lattice,
                     build_s1, build_s2, compare_relations,
                     enumerate_triangulations, interval_poset)
from .topology import (HomologyResult, SimplicialComplex, complex_from_maximal,
                       homology, order_complex, poset_core, poset_homology,
                       sphere_certificate, suspension_compare,
                       webb_reduction_check)
from .baues import (Subdivision, baues_poset, dissection_oracle_d2,
                    interval_to_subdivision, make_subdivision, phi,
                    refinement_leq, validate_subdivision)
from .verification import (brute_force_triangulations, connecting_a,
                           connecting_b, find_connecting_set,
                           verify_connecting_set, verify_connecting_sets,
                           verify_s0_monotone, verify_suspension)

__version__ = "0.1.0"

__all__ = [
    "facet_class", "facet_split", "gale_facets", "gap_parity", "simplex",
    "zig_zag_admissible",
    "cyclic_volume", "exact_lp", "lift_functional", "moment_point",
    "normalized_volume", "relative_height", "submerged",
    "Triangulation", "Violation", "apply_flip", "bottom", "color",
    "contract_last", "increasing_flips", "insert_bottom", "insert_top",
    "make_triangulation", "submersion_set", "terminal_simplex", "top",
    "validate",
    "FinitePoset", "ResourceBudgetError", "boolean_lattice", "build_s1",
    "build_s2", "compare_relations", "enumerate_triangulations",
    "interval_poset",
    "HomologyResult", "SimplicialComplex", "complex_from_maximal", "homology",
    "order_complex", "poset_core", "poset_homology", "sphere_certificate",
    "suspension_compare", "webb_reduction_check",
    "Subdivision", "baues_poset", "dissection_oracle_d2",
    "interval_to_subdivision", "make_subdivision", "phi", "refinement_leq",
    "validate_subdivision",
    "brute_force_triangulations", "connecting_a", "connecting_b",
    "find_connecting_set", "verify_connecting_set", "verify_connecting_sets",
    "verify_s0_monotone", "verify_suspension",
    "__version__",
]
