"""Shared exception types.

The CLI (``cli.main``) maps these onto exit codes with one ``error:`` line:
BudgetError -> 3; ParseError, SpecError, CycleError, NotATreeError, bad
usage, ValueError and OSError -> 2.  It prints a :class:`SpecWarning` as
one ``warning: spec:`` line.  Negative verdicts are ordinary results, not
errors.
"""

from __future__ import annotations


class OmegacatError(Exception):
    """Base class for library errors."""


class ParseError(OmegacatError):
    """Malformed textual input (term, sequence, spec, or poset file)."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)
        self.line = line
        self.column = column


class BudgetError(OmegacatError):
    """A size/depth/node budget was exceeded before the result was reached."""


class CycleError(OmegacatError):
    """The input relation contains a cycle and is not a partial order."""


class NotATreeError(OmegacatError):
    """An operation that requires tree axioms was handed a non-tree."""


class SpecError(OmegacatError):
    """A tree specification is ill-formed (names, sites, multiplicities)."""


class SpecWarning(UserWarning):
    """A tree specification was accepted after a normalizing adjustment
    (for example a degenerate cut site rewritten to an orbit site)."""
