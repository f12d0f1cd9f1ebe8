"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single base class.  Subclasses are organized by subsystem.
"""

from __future__ import annotations

from typing import Mapping, Optional


class ReproError(Exception):
    """Base class of all errors raised by this library."""


class TypeMismatchError(ReproError):
    """A value, term, formula or NRC expression is not well typed."""


class SchemaError(ReproError):
    """An instance does not conform to its declared schema."""


class FormulaError(ReproError):
    """A Δ0 (or extended Δ0) formula is malformed."""


class EvaluationError(ReproError):
    """Evaluation of a term, formula or NRC expression failed."""


class ProofError(ReproError):
    """A proof tree is malformed or fails checking against the calculus."""


class RuleApplicationError(ProofError):
    """A specific inference rule does not apply to the given sequent."""


class ProofSearchError(ReproError):
    """Proof search failed (exhausted its budget) or was given a bad goal.

    ``detail`` says how far an exhausted search got: the depth budgets it
    tried, the attempts it spent and its limits.
    """

    def __init__(self, message: str, detail: Optional[Mapping[str, object]] = None) -> None:
        super().__init__(message)
        self.detail = dict(detail or {})


class InterpolationError(ReproError):
    """Interpolant extraction failed on the given proof/partition."""


class SynthesisError(ReproError):
    """NRC synthesis (parameter collection / implicit-to-explicit) failed."""


class SpecificationError(ReproError):
    """An implicit specification or determinacy problem is malformed."""
