"""Exception hierarchy shared across the library."""


class ChanordError(Exception):
    """Base class for library errors."""


class DimensionMismatchError(ChanordError, ValueError):
    """Operands have incompatible alphabet sizes."""


class ResourceLimitError(ChanordError):
    """An enumeration or pivot budget was exceeded.

    Deliberately distinct from any "no" answer: callers must never read a
    resource failure as a negative verdict.
    """


class LpInfeasibleError(ChanordError):
    """maximize() was called on an infeasible program."""


class LpUnboundedError(ChanordError):
    """The objective is unbounded above on the feasible region."""


class InternalCheckError(ChanordError):
    """An internally produced certificate failed its own verification."""


def enforce_cap(count, cap: int, what: str, unit: str) -> None:
    """Raise ResourceLimitError if count exceeds cap (None: a count only
    known to exceed it). A count prints exactly unless str() refuses it,
    past sys.get_int_max_str_digits() digits; then as the power of two
    below it."""
    if count is None or count > cap:
        size = f"more than {_digits(cap)}" if count is None else _digits(count)
        raise ResourceLimitError(f"{what} has {size} {unit} (cap {_digits(cap)})")


def _digits(n: int) -> str:
    try:
        return str(n)
    except ValueError:
        return f"at least 2^{n.bit_length() - 1}"
