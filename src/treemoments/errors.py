"""Exception types shared across the package.

DomainError subclasses are expected, user-facing failures (no trees of the
requested size, degenerate variance, ...).  The CLI maps them to exit code 2
and prints ``error: <CODE>: <message>`` on stderr, CODE being the class name.
Library functions reject bad arguments with ValueError.  The CLI decides
usage errors (exit 1) while parsing, before any work starts, so any other
failure after that, such as a ValueError or an ArithmeticError from an exact
division that is not exact, is an internal bug and surfaces as a traceback.
"""

from __future__ import annotations


class DomainError(Exception):
    """Base class for expected domain failures."""

    @property
    def code(self) -> str:
        return type(self).__name__


class NoTrees(DomainError):
    """No tree of the requested size exists for the child set."""


class DegenerateVariance(DomainError):
    """A statistic is constant, so scaled moments are undefined."""


class EnumerationTooLarge(DomainError):
    """Exhaustive enumeration was requested above the configured cap."""


class NonUnitConstantTerm(DomainError):
    """The coefficient recurrence for powers requires constant term 1."""


class InvalidCorrelation(DomainError):
    """A squared correlation outside [0, 1] was supplied."""


class InsufficientData(DomainError):
    """Too few sequence terms for the requested recurrence bounds."""


class LeadingCoefficientZero(DomainError):
    """A recurrence's leading coefficient vanishes at a needed index."""
