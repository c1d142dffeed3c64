"""Exception types shared across the library.

Every mathematically meaningful failure gets its own class so callers (and
the CLI exit-code logic) can tell input problems from inconsistent data.
"""

from __future__ import annotations


class FuselabError(Exception):
    """Base class for all library-specific errors."""


class ShapeMismatch(FuselabError, ValueError):
    """Ragged or dimensionally inconsistent input, or a field order over
    cyclo.MAX_FIELD_ORDER."""


class DegenerateScalar(FuselabError, ZeroDivisionError):
    """Division by zero, a zero gauge scalar, or a zero quantum dimension."""


class NonIntegralVerlinde(FuselabError):
    """The Verlinde sum produced something other than a non-negative integer."""


class NotANimRep(FuselabError):
    """A matrix family failed the NIM-rep axioms; carries a witness string."""

    def __init__(self, witness: str):
        super().__init__(witness)
        self.witness = witness


class MultiplicityNotOne(FuselabError):
    """The unit character appears more than once (decomposable module)."""


class NonIntegralMultiplicity(FuselabError):
    """A projector trace failed to be a non-negative integer."""


class MissingPair(FuselabError):
    """The pair set J is not reflexive, symmetric, or composition-closed."""


class GaugeInconsistent(FuselabError):
    """solve_gauge was asked to solve data that fails validate_mu."""


class SearchBudgetExceeded(FuselabError):
    """Lattice enumeration visited more points than the configured cap."""


class SchemaError(FuselabError, ValueError):
    """A data file is malformed or fails validation on load."""


class ValidationFailed(FuselabError):
    """A loaded object is well-formed but fails its mathematical invariants.

    Carries the Verdict so reports can surface the witness.
    """

    def __init__(self, message: str, verdict=None):
        super().__init__(message)
        self.verdict = verdict
