"""Exception types shared across the package, and the integer check."""

import operator


class TLBraidError(Exception):
    """Base class for all tlbraid errors."""


class DimensionMismatchError(TLBraidError, ValueError):
    """Operands have incompatible shapes."""


class CapacityError(TLBraidError, ValueError):
    """Requested object exceeds the dense or structured size cap."""


class DomainError(TLBraidError, ValueError):
    """Parameter outside its admissible domain."""


class BraidSyntaxError(TLBraidError, ValueError):
    """Braid-word text failed to parse.

    `position` is the 0-based character offset of the offending token.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownGateError(TLBraidError, ValueError):
    """Gate name not in the registry."""


def as_int(value, what: str) -> int:
    """value through operator.index, so ints and numpy integers pass and
    2.0, "2" or an array do not: DomainError for anything else."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r:.40}"
                          ) from None
