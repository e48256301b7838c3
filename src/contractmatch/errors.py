"""Exception types shared across the package."""

from __future__ import annotations


class SpecError(ValueError):
    """A choice-function or instance description is malformed."""


class DomainError(ValueError):
    """A subset lies outside the universe a choice function is defined on."""


class SizeBoundError(RuntimeError):
    """An exhaustive scan was refused because the universe exceeds the configured bound."""


class PreconditionError(ValueError):
    """An operation was invoked on inputs that fail its stated precondition."""


class ParseError(SpecError):
    """An instance file could not be parsed.

    ``location`` points at the offending spot using dotted-path notation,
    e.g. ``choice.side1.variant``.
    """

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)
