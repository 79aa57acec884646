__version__ = "0.1.0"

# Version of the reach-state searches behind D, D', E and D_A. Cache records
# of those invariants carry it; a record of another version, or of none, is
# recomputed rather than served. Raise it when a search change could change
# a stored value, exact flag or witness.
SEARCH_ALGO = 4
