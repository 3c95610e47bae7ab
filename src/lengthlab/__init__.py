"""Invariant length functions, bounded generation, and profile lattices
on finite and compact groups, verified at desk scale."""

__version__ = "0.1.0"


class LengthlabError(Exception):
    """Root of the library's exceptions; the CLI reports any of them but
    InvariantFailed as bad input or out of range (exit code 2)."""


class InvariantFailed(LengthlabError):
    """An independent verifier rejected a computed result; the CLI exits 1.
    Raised, not asserted, so that it also holds under python -O."""


class OutOfRange(LengthlabError, ValueError):
    """A size outside what a function covers, or an empty range to check."""
