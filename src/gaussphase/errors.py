"""Exception and warning types shared across the package.

An error's class says what was refused, and the CLI maps the class alone
to an exit code.  An :class:`InputError` is malformed caller input: a
wrong shape, a parameter outside its range or a mode index that does not
exist.  Every other :class:`GaussPhaseError` refuses a number or a state:
a value that cannot be computed or fails a numeric test, an unphysical
state, a missing ground state or a lossy truncation.  Each class that
refuses a value also derives from ``ValueError`` (``IndexError`` for
mode indices), so code that catches the builtin still catches it.
"""


class GaussPhaseError(Exception):
    """Base class for all package errors."""


class InputError(GaussPhaseError):
    """Base class for malformed caller input (CLI exit 2)."""


class DimensionError(InputError, ValueError):
    """Raised when an array has the wrong shape, an odd dimension, or a
    dimension that does not match the number of modes."""


class ParameterError(InputError, ValueError):
    """Raised when a finite parameter lies outside its accepted range: a
    grid's point count, span or hbar, a Fock level, a time or time step, a
    squeezing r, omega, nbar, a sampling window, or a file's ordering tag
    or mode count.  A NaN or infinite parameter is a DomainError."""


class ModeIndexError(InputError, IndexError):
    """Raised when mode indices do not form a partition of the modes: none,
    a repeated one, one out of range, or all of them where a proper
    subset is needed."""


class DomainError(GaussPhaseError, ValueError):
    """Raised when a number cannot be computed or fails a numeric test: a
    non-finite entry, a float overflow, an asymmetric matrix, a channel
    that is not symplectic, a spectrum that does not pair up, a Wigner
    value beyond 1/(pi hbar), a zero norm or an invalid density matrix."""


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
