"""Invariant length functions, bounded generation, and profile lattices
on finite and compact groups, verified at desk scale."""

__version__ = "0.1.0"


class LengthlabError(Exception):
    """Root of the library's exceptions; the CLI reports any of them as
    bad input or out of range (exit code 2)."""


class OutOfRange(LengthlabError, ValueError):
    """A size outside what a function covers, or an empty range to check."""
