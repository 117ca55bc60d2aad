"""Exception and warning types shared across the package."""


class GaussPhaseError(Exception):
    """Base class for all package errors."""


class DimensionError(GaussPhaseError, ValueError):
    """Raised when an array has the wrong shape, an odd dimension, or a
    dimension that does not match the number of modes."""


class OrderingError(GaussPhaseError, ValueError):
    """Raised when quadrature orderings of two objects do not agree."""


class UnphysicalStateError(GaussPhaseError, ValueError):
    """Raised when a covariance matrix violates the uncertainty relation
    (a symplectic eigenvalue below one, or sigma + i*Omega^-1 not PSD)."""


class NotPureError(GaussPhaseError, ValueError):
    """Raised when entanglement entropy is requested for a mixed global
    state, for which it is not defined."""


class NoGroundStateError(GaussPhaseError, ValueError):
    """Raised when a quadratic Hamiltonian is not positive definite and
    therefore has no normalizable ground state."""


class TruncationError(GaussPhaseError, ValueError):
    """Raised when a truncated Fock-space construction would lose more
    probability mass than the operation tolerates."""


class DiagonalizationError(GaussPhaseError, RuntimeError):
    """Raised when a symplectic diagonalization fails.  The Hermitian route
    in :mod:`gaussphase.williamson` builds its real orthogonal factor
    directly and reports input it cannot pair up as ``ValueError``, so it
    no longer raises this; the class stays for callers that catch it."""


class SelfCheckError(GaussPhaseError, RuntimeError):
    """Raised when a closed-form construction disagrees with the
    independent numerical reference it is checked against."""


class QuadratureError(GaussPhaseError, RuntimeError):
    """Raised when a numerical Wigner transform leaves a non-negligible
    imaginary residue."""


class ConditioningWarning(UserWarning):
    """Warns about ill-conditioned inputs (near-singular matrices)."""


class GridAdequacyWarning(UserWarning):
    """Warns when a phase-space grid is too narrow or too coarse for the
    state being sampled."""
