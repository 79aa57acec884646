"""Exception types shared across the package."""


class DavlabError(Exception):
    """Base class for all davlab errors."""


class DescriptorError(DavlabError):
    """Malformed descriptor string (bad family name, wrong arity, bad syntax)."""


class ConstraintError(DavlabError):
    """A family parameter constraint is violated; the message names the constraint."""


class GroupTooLargeError(DavlabError):
    """Construction or search refused because the group exceeds a size cap."""


class InternalConsistencyError(DavlabError):
    """A built table failed a group axiom; indicates a construction bug."""


class NotAPGroupError(DavlabError):
    """Operation requires a p-group for a single prime p."""


class NoFormulaError(DavlabError):
    """No closed-form Loewy length is available for this family."""


class InvalidWeightsError(DavlabError):
    """Weight set is empty or not contained in [exp(G) - 1]."""


class BudgetExceededError(DavlabError):
    """Hard budget hit in a context that cannot degrade gracefully."""


class CacheFileError(DavlabError, OSError):
    """The result cache file could not be read or appended to."""
