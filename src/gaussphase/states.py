"""Gaussian states as first and second moments of dimensionless quadratures.

A Gaussian state is fully described by its mean vector xi0 and covariance
matrix sigma, with the normalization fixed so that the vacuum has
sigma = identity.  In this convention the second moments are

    sigma_ij = <X_i X_j + X_j X_i> - 2 <X_i> <X_j>,

with X the dimensionless quadratures q = (a^dag + a)/sqrt(2),
p = i (a^dag - a)/sqrt(2).  A matrix is an admissible covariance matrix of
a physical state iff sigma + i Omega^-1 >= 0, equivalently iff every
symplectic eigenvalue is >= 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Complex
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, UnphysicalStateError
from .symplectic import _finite, _symmetrized
from .williamson import symplectic_spectrum

PHYSICALITY_TOL = 1e-8
PURITY_TOL = 1e-9


@dataclass(frozen=True)
class GaussianState:
    """A Gaussian state: mode count, mean and covariance, both in pairwise
    quadrature order (q1, p1, ..., qn, pn).

    Mean and covariance must be finite.  The covariance matrix is
    symmetrized on construction when its asymmetry is below
    ``symplectic.SYMMETRY_TOL`` (float noise) and rejected otherwise.  It
    must be positive definite; full physicality (symplectic eigenvalues
    >= 1) is checked separately by :func:`physicality_check` so that
    diagnostic near-physical matrices remain representable.
    """

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.n_modes < 1:
            raise DimensionError(f"n_modes must be >= 1, got {self.n_modes}")
        dim = 2 * self.n_modes
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.shape != (dim,):
            raise DimensionError(f"mean must have shape ({dim},), got {mean.shape}")
        _finite(mean, "mean")
        if cov.shape != (dim, dim):
            raise DimensionError(f"cov must be {dim}x{dim}, got {cov.shape}")
        cov = _symmetrized(cov, "covariance matrix")
        if np.linalg.eigvalsh(cov)[0] <= 0:
            raise UnphysicalStateError("covariance matrix must be positive definite")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return 2 * self.n_modes

    def symplectic_spectrum(self) -> np.ndarray:
        return symplectic_spectrum(self.cov)


def _trusted_state(n_modes: int, mean: np.ndarray, cov: np.ndarray) -> GaussianState:
    """Builds a state from moments derived from already-validated states.

    Skips the constructor's checks: the caller guarantees a float mean and
    an exactly symmetric covariance that no other object references.  The
    arrays are frozen as the constructor would freeze them.
    """
    mean.setflags(write=False)
    cov.setflags(write=False)
    state = object.__new__(GaussianState)
    object.__setattr__(state, "n_modes", n_modes)
    object.__setattr__(state, "mean", mean)
    object.__setattr__(state, "cov", cov)
    return state


@dataclass(frozen=True)
class PurityReport:
    purity: float
    is_pure: bool


@dataclass(frozen=True)
class PhysicalityReport:
    """Diagnostic output of :func:`physicality_check`: the smallest
    symplectic eigenvalue and whether it is >= 1 within tolerance."""

    min_symplectic_eigenvalue: float
    ok: bool


@dataclass(frozen=True)
class GaussianWignerParams:
    """Pieces of the closed-form Gaussian Wigner function.

    The Wigner function of the state is
    W(xi) = normalization * exp(-(xi - mean)^T cov_inv (xi - mean))
    in dimensionless quadratures, with normalization = 1 / (pi^n sqrt(det sigma)).
    """

    normalization: float
    cov_inv: np.ndarray
    mean: np.ndarray = field(repr=False)


def vacuum(n_modes: int) -> GaussianState:
    """Vacuum state: zero mean, identity covariance."""
    if n_modes < 1:
        raise DimensionError(f"n_modes must be >= 1, got {n_modes}")
    return _trusted_state(n_modes, np.zeros(2 * n_modes), np.eye(2 * n_modes))


def thermal(nu: float) -> GaussianState:
    """Single-mode thermal state with covariance nu * identity.

    nu = coth(hbar omega / (2 kB T)) = 2 nbar + 1 >= 1; nu = 1 is the vacuum.
    """
    if not np.isfinite(nu) or nu < 1.0:
        raise UnphysicalStateError(f"thermal state requires nu >= 1, got {nu}")
    return GaussianState(n_modes=1, mean=np.zeros(2), cov=nu * np.eye(2))


def coherent(alpha: Complex | Sequence[Complex]) -> GaussianState:
    """Coherent state(s) with identity covariance and displaced mean.

    Each mode's mean is (sqrt(2) Re alpha, sqrt(2) Im alpha), the map fixed
    by the quadrature convention q = (a^dag + a)/sqrt(2).

    Args:
        alpha: a complex amplitude, or one amplitude per mode.
    """
    alphas = np.atleast_1d(np.asarray(alpha, dtype=complex))
    if alphas.ndim != 1 or alphas.size < 1:
        raise DimensionError("alpha must be a complex scalar or a 1-d sequence")
    if not np.all(np.isfinite(alphas)):
        raise ValueError("alpha must be finite")
    n = alphas.size
    mean = np.empty(2 * n)
    mean[0::2] = np.sqrt(2.0) * alphas.real
    mean[1::2] = np.sqrt(2.0) * alphas.imag
    return GaussianState(n_modes=n, mean=mean, cov=np.eye(2 * n))


def squeezed_vacuum(r: float, theta: float = 0.0) -> GaussianState:
    """Single-mode squeezed vacuum.

    Covariance:
        [[cosh 2r - cos(theta) sinh 2r,  -sin(theta) sinh 2r],
         [-sin(theta) sinh 2r,           cosh 2r + cos(theta) sinh 2r]]

    which has unit determinant for every (r, theta): squeezing preserves
    the phase-space area.  It is built as the rotation
    R(theta/2) diag(e^-2r, e^2r) R(theta/2)^T, whose entries do not cancel
    the way cosh 2r - sinh 2r does at large r.
    """
    if not np.isfinite(r):
        raise ValueError("squeezing parameter must be finite")
    small, large = np.exp(-2 * r), np.exp(2 * r)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    off = (small - large) * c * s
    cov = np.array([[small * c * c + large * s * s, off], [off, small * s * s + large * c * c]])
    return GaussianState(n_modes=1, mean=np.zeros(2), cov=cov)


def two_mode_squeezed_vacuum(r: float, theta: float = 0.0) -> GaussianState:
    """Two-mode squeezed vacuum (pairwise quadrature order).

    Diagonal blocks cosh(r) * I2 per mode; the cross-mode block is built
    from -cos(theta) sinh(r) and -sin(theta) sinh(r).  Tracing out either
    mode leaves a thermal state with nu = cosh r.
    """
    if not np.isfinite(r):
        raise ValueError("squeezing parameter must be finite")
    ch, sh = np.cosh(r), np.sinh(r)
    cs, sn = np.cos(theta) * sh, np.sin(theta) * sh
    cov = np.array(
        [
            [ch, 0.0, -cs, -sn],
            [0.0, ch, -sn, cs],
            [-cs, -sn, ch, 0.0],
            [-sn, cs, 0.0, ch],
        ]
    )
    return GaussianState(n_modes=2, mean=np.zeros(4), cov=cov)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Composite of two uncorrelated states: means concatenate, covariances
    direct-sum.  Both inputs and the result are pairwise, so the modes of
    ``b`` follow those of ``a``."""
    n = a.n_modes + b.n_modes
    mean = np.concatenate([a.mean, b.mean])
    cov = np.zeros((2 * n, 2 * n))
    cov[: a.dim, : a.dim] = a.cov
    cov[a.dim :, a.dim :] = b.cov
    return _trusted_state(n, mean, cov)


def partial_trace(state: GaussianState, keep: Iterable[int]) -> GaussianState:
    """Restricts a state to a subset of modes.

    In the covariance description the partial trace is a plain extraction
    of the kept modes' rows and columns; no trace over a Hilbert space is
    ever performed.
    """
    keep = list(keep)
    if len(keep) == 0:
        raise IndexError("keep must contain at least one mode index")
    if len(set(keep)) != len(keep):
        raise IndexError("keep contains duplicate mode indices")
    if any(k < 0 or k >= state.n_modes for k in keep):
        raise IndexError(f"mode indices {keep} out of range for {state.n_modes} modes")
    idx = np.concatenate([[2 * k, 2 * k + 1] for k in keep])
    return _trusted_state(len(keep), state.mean[idx], state.cov[np.ix_(idx, idx)])


def purity(state: GaussianState) -> PurityReport:
    """Purity 1 / prod(nu_i) = 1 / sqrt(det sigma).

    The determinant comes from a Cholesky factor sigma = L L^T as
    exp(-sum log diag L), which neither overflows nor underflows.

    Raises:
        UnphysicalStateError: if the covariance is not positive definite
            (the Cholesky factorization fails).
    """
    try:
        chol = np.linalg.cholesky(state.cov)
    except np.linalg.LinAlgError:
        raise UnphysicalStateError("covariance matrix is not positive definite") from None
    p = float(np.exp(-np.sum(np.log(np.diagonal(chol)))))
    return PurityReport(purity=p, is_pure=abs(p - 1.0) <= PURITY_TOL)


def physicality_check(state: GaussianState) -> PhysicalityReport:
    """Checks the uncertainty relation sigma + i Omega^-1 >= 0 in its
    equivalent form (Williamson's theorem): every symplectic eigenvalue
    nu_i >= 1, accepted when nu_min >= 1 - PHYSICALITY_TOL."""
    nu_min = float(state.symplectic_spectrum()[0])
    return PhysicalityReport(min_symplectic_eigenvalue=nu_min, ok=nu_min >= 1.0 - PHYSICALITY_TOL)


def gaussian_wigner_params(state: GaussianState) -> GaussianWignerParams:
    """Normalization and inverse covariance of the Gaussian Wigner function.

    Raises:
        numpy.linalg.LinAlgError: if the covariance matrix is singular.
    """
    det = np.linalg.det(state.cov)
    if det <= 0 or not np.isfinite(det):
        raise np.linalg.LinAlgError(f"covariance determinant {det} is not positive")
    norm = float(1.0 / (np.pi**state.n_modes * np.sqrt(det)))
    cov_inv = np.linalg.inv(state.cov)
    return GaussianWignerParams(normalization=norm, cov_inv=cov_inv, mean=state.mean)
