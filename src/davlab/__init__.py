"""davlab: zero-sum invariants and Loewy lengths of small finite groups.

A library plus CLI that constructs explicit small groups from presentations,
computes Davenport-type constants by exact search, computes Loewy lengths
through the Jennings chain, and cross-checks both against closed forms and
extremal witness sequences.

The public names are loaded on first use (PEP 562), so `import davlab`
imports no numpy: only the modules that build tables or search them do.
"""

from importlib import import_module

from .version import __version__

# Defining module of each public name, in the order of __all__.
_EXPORTS = {
    "descriptors": ("GroupDescriptor", "make_descriptor", "parse_descriptor",
                    "validate_descriptor"),
    "groups": ("FiniteGroup", "build", "verify_presentation"),
    "subgroups": ("Subgroup", "subgroup_closure", "commutator_subgroup", "power_subgroup",
                  "product_subgroup", "is_normal", "nilpotency_class", "whole_subgroup"),
    "jennings": ("JenningsData", "jennings_data", "jennings_exponents", "loewy_length",
                 "loewy_polynomial", "m_series", "mseries_closed_form_check",
                 "power_generators_check"),
    "sequences": ("Sequence", "is_ordered_free"),
    "checkers": ("davenport_ordered_naive", "davenport_weighted_naive",
                 "has_group_length_product_one", "is_product_one", "is_unordered_free",
                 "is_weighted_free"),
    "zerosum": ("SearchBudget", "SearchResult", "davenport_ordered", "davenport_unordered",
                "davenport_weighted", "eg_invariant", "eg_lower_witness", "min_weight_set"),
    "numtheory": ("half_exponent", "is_prime", "least_qnr", "legendre_symbol"),
    "theory": ("constructions", "loewy_formula", "witness_plan"),
    "witnesses": ("CongruenceSystem", "WitnessSpec", "congruence_oracle",
                  "congruence_system", "discriminant_check", "witness_for_theorem"),
    "cache": ("ResultRecord", "cache_get", "cache_path", "cache_put"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
