"""Exception types shared across the package, and the integer check that raises one."""

import operator


class ValidationError(ValueError):
    """An input violates a documented precondition or invariant."""


class ParseError(ValueError):
    """A data file cannot be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def check_integer(value, name: str) -> int:
    """`value` as an int: a numpy integer passes, a value that is not an integer is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
