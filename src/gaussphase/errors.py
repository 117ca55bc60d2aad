"""Exception and warning types shared across the package."""


class GaussPhaseError(Exception):
    """Base class for all package errors."""


class DimensionError(GaussPhaseError, ValueError):
    """Raised when an array has the wrong shape, an odd dimension, or a
    dimension that does not match the number of modes."""


class UnphysicalStateError(GaussPhaseError, ValueError):
    """Raised when a covariance matrix violates the uncertainty relation
    (a symplectic eigenvalue below one, or sigma + i*Omega^-1 not PSD)."""


class NotPureError(GaussPhaseError, ValueError):
    """Raised when entanglement entropy is requested for a mixed global
    state, for which it is not defined."""


class NotPositiveDefiniteError(GaussPhaseError, ValueError):
    """Raised when a matrix that must be positive definite is not; its
    smallest eigenvalue is kept as ``min_eigenvalue``."""

    def __init__(self, message: str, min_eigenvalue: float):
        super().__init__(message)
        self.min_eigenvalue = float(min_eigenvalue)


class NoGroundStateError(GaussPhaseError, ValueError):
    """Raised when a quadratic Hamiltonian is not positive definite and
    therefore has no normalizable ground state."""


class TruncationError(GaussPhaseError, ValueError):
    """Raised when a truncated Fock-space construction would lose more
    probability mass than the operation tolerates."""


class ConditioningWarning(UserWarning):
    """Warns about ill-conditioned inputs (near-singular matrices)."""


class GridAdequacyWarning(UserWarning):
    """Warns when a phase-space grid is too narrow or too coarse for the
    state being sampled."""
