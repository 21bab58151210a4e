"""Exception hierarchy shared across the solver package."""


class VetoPersuasionError(ValueError):
    """Base class for all domain errors raised by this package."""


class DomainError(VetoPersuasionError):
    """An argument is outside the mathematical domain of an operation."""


class FullMassBelowError(DomainError):
    """Conditioning event {theta >= s} has (numerically) zero probability."""


class UnsupportedCombinationError(VetoPersuasionError):
    """A (loss, distribution) pairing the model does not define."""


class AssumptionViolatedError(VetoPersuasionError):
    """A maintained modeling assumption fails for the given instance."""


class NoRootError(VetoPersuasionError):
    """A root finder was called with preconditions that rule out a root."""
