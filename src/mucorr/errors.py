"""Semantic exceptions shared across the package, and the number check
that scenario and box validation share."""
from __future__ import annotations

import sys


class DomainError(ValueError):
    """An input lies outside the mathematically valid domain."""


class DegenerateSequenceError(ValueError):
    """A sequence has zero variance, so a correlation is undefined."""


class NotOrthogonalError(ValueError):
    """An operation requires two orthogonal directions."""


class ValidationError(ValueError):
    """A scenario definition failed validation.

    Carries one message per offending field so callers can report all
    problems at once.
    """

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


def _finite_float(value) -> float | None:
    """value as a float if it is a number, not a bool, inside the float
    range (a test exact for any int, false for nan and inf); else None."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return float(value) if is_number and abs(value) <= sys.float_info.max else None
