"""Exception types shared across the package."""


class CircodesError(Exception):
    """Base class for all errors raised by this package."""


class OffsetOutOfRange(CircodesError, ValueError):
    """An offset d violates 1 <= d < n/2."""


class DuplicateOffset(CircodesError, ValueError):
    """The offset list contains a repeated value."""


class VertexOutOfRange(CircodesError, IndexError):
    """A vertex is not a canonical residue in 0..n-1."""


class NotInCode(CircodesError, ValueError):
    """Share requested for a vertex that is not a code member."""


class ShareUndefined(CircodesError, ValueError):
    """Shares summed or compared on a code that is not dominating."""


class UnsupportedOrder(CircodesError, ValueError):
    """No tabulated construction exists for this graph order."""


class OracleTooLarge(CircodesError, ValueError):
    """The unpruned enumeration oracle was asked for an infeasible n."""


class BudgetExceeded(CircodesError, RuntimeError):
    """Exact search would exceed the order budget.

    The message names the order, the budget and the lower bound.
    """
