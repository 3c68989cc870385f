"""Exception hierarchy shared by every module, and the check that a
number prints within the interpreter's int-to-text limit.

Each class carries the CLI's report of it: ``kind``, the error type it
prints, and ``exit_code``, the process exit code.  New error conditions
should reuse one of the classes below rather than raising bare
ValueError/ZeroDivisionError.
"""

import sys


class CyclohouseError(Exception):
    """Base class for all library errors; raised as itself, an internal
    error (exit code 5)."""

    kind = "internal"
    exit_code = 5

    def to_dict(self) -> dict:
        """The CLI's error object."""
        return {"type": self.kind, "message": str(self)}


class DomainError(CyclohouseError):
    """Input outside an operation's mathematical domain (exit code 1)."""

    kind = "domain"
    exit_code = 1


class ParseError(CyclohouseError):
    """Syntax error in the expression grammar (exit code 2)."""

    kind = "syntax"
    exit_code = 2

    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + " | ".join(expected) + ")"
        super().__init__(detail)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "position": self.position, "expected": list(self.expected)}


class ResourceLimitError(CyclohouseError):
    """A configurable expansion/search ceiling was hit (exit code 3)."""

    kind = "resource"
    exit_code = 3


class UndecidedError(CyclohouseError):
    """Precision cap reached before the question could be decided (exit code 4)."""

    kind = "undecided"
    exit_code = 4


def int_digit_limit() -> int:
    """The interpreter's int-to-text limit in digits (0: none, as before
    Python 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def too_long_to_print(limit: int) -> ResourceLimitError:
    """The error for a number of more than ``limit`` digits."""
    return ResourceLimitError(f"a number of more than {limit} digits cannot be printed")


def printable(v):
    """v, an int or Fraction whose numerator and denominator each print
    within ``int_digit_limit()`` digits; else ResourceLimitError, raised
    before the conversion that would fail."""
    limit = int_digit_limit()
    for part in (v.numerator, v.denominator):
        # below 2^(3 * limit) < 10^limit the exact comparison is skipped
        if limit and part.bit_length() > 3 * limit and abs(part) >= 10**limit:
            raise too_long_to_print(limit)
    return v
