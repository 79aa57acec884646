__version__ = "0.1.0"

# Version of the algorithms behind every cached invariant: the searches of D,
# D', E and D_A, and the routes of L, L_formula, witness_check and oracle_check.
# Every cache record carries it; a record of another version, or of none, is
# recomputed rather than served. Raise it when a change could change a stored
# value, exact flag or witness.
SEARCH_ALGO = 4
