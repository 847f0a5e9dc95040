"""Exception types shared across the package, and ``check_int``, its one
integer-argument rule: an ``int`` or an int subclass passes, as a plain
``int``; a ``bool``, a float such as 13.0 (which equals an int key of the
kernel caches, so it would poison them), a string or ``None`` never does.
``check_int`` is the library's own and stays out of ``__all__``.
"""

__all__ = [
    "CircodesError",
    "OffsetOutOfRange",
    "DuplicateOffset",
    "VertexOutOfRange",
    "NotInCode",
    "ShareUndefined",
    "UnsupportedOrder",
    "OracleTooLarge",
    "BudgetExceeded",
]


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
    """Exact search would exceed the order budget, or the depth it can nest.

    The message names the order, the budget and the lower bound, or the size k.
    """


def check_int(value, name: str, lo: int, hi: int | None = None,
              error: type[Exception] = ValueError, message: str = "",
              any_value: bool = False) -> int:
    """``value`` as a plain int if it is an integer in lo..hi (no top when hi is None).

    Otherwise raises ``error`` naming the value.  ``message``, a format
    string with the fields value, lo and hi, words an integer out of range,
    and with ``any_value`` a non-integer too; else a non-integer gets the
    generic "must be an integer".
    """
    if type(value) is int and lo <= value and (hi is None or value <= hi):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        if lo <= value and (hi is None or value <= hi):
            return int(value)
        wrong = f"must be at least {lo}" if hi is None else f"must be within {lo}..{hi}"
    else:
        wrong = "must be an integer"
        message = message if any_value else ""
    raise error(message.format(value=value, lo=lo, hi=hi) if message
                else f"{name} {wrong}, got {value!r}")
