"""davlab: zero-sum invariants and Loewy lengths of small finite groups.

A library plus CLI that constructs explicit small groups from presentations,
computes Davenport-type constants by exact search, computes Loewy lengths
through the Jennings chain, and cross-checks both against closed forms and
extremal witness sequences.
"""

from .version import __version__
from .descriptors import (GroupDescriptor, make_descriptor, parse_descriptor,
                          validate_descriptor)
from .groups import FiniteGroup, build, build_from_string, group_info, verify_presentation
from .subgroups import (Subgroup, commutator_subgroup, is_normal, nilpotency_class,
                        power_subgroup, product_subgroup, quotient_order,
                        subgroup_closure, trivial_subgroup, whole_subgroup)
from .jennings import (JenningsData, jennings_data, jennings_exponents, loewy_formula,
                       loewy_length, loewy_polynomial, m_series,
                       mseries_closed_form_check, power_generators_check)
from .zerosum import (ReachState, SearchBudget, SearchResult, Sequence,
                      davenport_ordered, davenport_ordered_naive, davenport_unordered,
                      davenport_weighted, davenport_weighted_naive, eg_invariant,
                      eg_lower_witness, has_group_length_product_one, is_minimal_product_one,
                      is_ordered_free, is_product_one, is_unordered_free,
                      is_weighted_free, min_weight_set, olson_white_bound, reach_extend)
from .numtheory import half_exponent, is_prime, least_qnr, legendre_symbol
from .witnesses import (CongruenceSystem, WitnessSpec, congruence_oracle,
                        congruence_system, discriminant_check, expected_davenport,
                        witness_dicyclic_sd, witness_for_theorem, witness_g1,
                        witness_g2, witness_g3, witness_plan, witness_two_power)
from .cache import ResultRecord, cache_get, cache_path, cache_put

__all__ = [
    "__version__",
    "GroupDescriptor", "make_descriptor", "parse_descriptor", "validate_descriptor",
    "FiniteGroup", "build", "build_from_string", "group_info", "verify_presentation",
    "Subgroup", "subgroup_closure", "commutator_subgroup", "power_subgroup",
    "product_subgroup", "quotient_order", "is_normal", "nilpotency_class",
    "trivial_subgroup", "whole_subgroup",
    "JenningsData", "jennings_data", "jennings_exponents", "loewy_formula",
    "loewy_length", "loewy_polynomial", "m_series", "mseries_closed_form_check",
    "power_generators_check",
    "ReachState", "SearchBudget", "SearchResult", "Sequence",
    "davenport_ordered", "davenport_ordered_naive", "davenport_unordered",
    "davenport_weighted", "davenport_weighted_naive", "eg_invariant",
    "eg_lower_witness", "has_group_length_product_one", "is_minimal_product_one",
    "is_ordered_free", "is_product_one", "is_unordered_free", "is_weighted_free",
    "min_weight_set", "olson_white_bound", "reach_extend",
    "half_exponent", "is_prime", "least_qnr", "legendre_symbol",
    "CongruenceSystem", "WitnessSpec", "congruence_oracle", "congruence_system",
    "discriminant_check", "expected_davenport", "witness_dicyclic_sd",
    "witness_for_theorem", "witness_g1", "witness_g2", "witness_g3",
    "witness_plan", "witness_two_power",
    "ResultRecord", "cache_get", "cache_path", "cache_put",
]
