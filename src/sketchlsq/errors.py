"""Exception types raised by the numerical routines.

All library-specific failures derive from SketchLsqError so callers can
catch numerical problems separately from programming errors (ValueError,
TypeError), which signal misuse of an interface rather than a property
of the data.
"""


class SketchLsqError(Exception):
    """Base class for numerical failures in this package."""


class RankDeficient(SketchLsqError):
    """A Householder QR pivot column was exactly zero."""


class SingularTriangular(SketchLsqError):
    """A triangular solve met an exactly zero diagonal entry."""


class NumericallySingular(SketchLsqError):
    """An LU pivot fell below the singularity threshold."""


class NotPositiveDefinite(SketchLsqError):
    """A Cholesky pivot was not strictly positive."""


class NoConvergence(SketchLsqError):
    """An iteration exhausted its sweep budget without converging."""


class DimensionMismatch(SketchLsqError):
    """Operand shapes are incompatible for the requested operation."""


class DegenerateResidual(SketchLsqError):
    """The residual-direction draw kept landing in the column span."""


class PoleAtOne(SketchLsqError):
    """A bound denominator 1 - kappa*u vanished."""


class MissingField(SketchLsqError):
    """A bound evaluation needed an input that was not measured."""


class Overflow(SketchLsqError):
    """A computation produced values outside the working precision's range."""
