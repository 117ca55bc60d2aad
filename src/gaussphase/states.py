"""Gaussian states as first and second moments of dimensionless quadratures.

A Gaussian state is fully described by its mean vector xi0 and covariance
matrix sigma, with the normalization fixed so that the vacuum has
sigma = identity.  In this convention the second moments are

    sigma_ij = <X_i X_j + X_j X_i> - 2 <X_i> <X_j>,

with X the dimensionless quadratures q = (a^dag + a)/sqrt(2),
p = i (a^dag - a)/sqrt(2).  A matrix is an admissible covariance matrix of
a physical state iff sigma + i Omega^-1 >= 0, equivalently iff every
symplectic eigenvalue is >= 1.

det sigma and sigma^-1 come from one Cholesky factor (:func:`_cholesky`),
which is also the constructor's positive-definiteness test.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Complex
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, ModeIndexError, ParameterError, UnphysicalStateError
from .symplectic import (
    _MAX_FLOATS, _checked, _finite, _frozen, _refusing_overflow, _symmetrized, _trusted,
)
from .williamson import _spectrum

PHYSICALITY_TOL = 1e-8
PURITY_TOL = 1e-9


@dataclass(frozen=True)
class GaussianState:
    """A Gaussian state: mode count, mean and covariance, both in pairwise
    quadrature order (q1, p1, ..., qn, pn).

    Mean and covariance must be finite.  The covariance matrix is
    symmetrized on construction when its asymmetry is below
    ``symplectic.SYMMETRY_TOL`` (float noise) and rejected otherwise.  It
    must be positive definite in floats, that is, have the Cholesky factor
    of :func:`_cholesky`, so every admitted state has a purity and a
    Wigner function.  Full physicality (symplectic eigenvalues >= 1) is
    checked separately by :func:`physicality_check` so that diagnostic
    near-physical matrices remain representable.
    """

    n_modes: int
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        if self.n_modes < 1:
            raise DimensionError(f"n_modes must be >= 1, got {self.n_modes}")
        dim = 2 * self.n_modes
        mean = _checked(self.mean, "mean", (dim,))
        cov = _checked(self.cov, "covariance matrix", (dim, dim))
        cov = _symmetrized(cov, "covariance matrix")
        _cholesky(cov)
        _frozen(self, mean=mean, cov=cov)

    @property
    def dim(self) -> int:
        return 2 * self.n_modes

    def symplectic_spectrum(self) -> np.ndarray:
        """The symplectic eigenvalues of the admitted covariance, ascending,
        factored without admitting it again; a refusal names the
        covariance matrix."""
        return _spectrum(self.cov, "covariance matrix")


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


def vacuum(n_modes: int) -> GaussianState:
    """Vacuum state: zero mean, identity covariance."""
    if n_modes < 1:
        raise DimensionError(f"n_modes must be >= 1, got {n_modes}")
    dim = 2 * n_modes
    if dim * dim > _MAX_FLOATS:
        raise ParameterError(f"{n_modes} modes need a covariance matrix beyond addressable memory")
    return _trusted(GaussianState, n_modes=n_modes, mean=np.zeros(dim), cov=np.eye(dim))


def thermal(nu: float) -> GaussianState:
    """Single-mode thermal state with covariance nu * identity.

    nu = coth(hbar omega / (2 kB T)) = 2 nbar + 1 >= 1; nu = 1 is the vacuum.
    """
    _finite(nu, "nu")
    if nu < 1.0:
        raise UnphysicalStateError(f"thermal state requires nu >= 1, got {nu}")
    return _trusted(GaussianState, n_modes=1, mean=np.zeros(2), cov=nu * np.eye(2))


def coherent(alpha: Complex | Sequence[Complex]) -> GaussianState:
    """Coherent state(s) with identity covariance and displaced mean.

    Each mode's mean is (sqrt(2) Re alpha, sqrt(2) Im alpha), the map fixed
    by the quadrature convention q = (a^dag + a)/sqrt(2).

    Args:
        alpha: a complex amplitude, or one amplitude per mode.
    """
    alphas = np.atleast_1d(alpha)
    alphas = _checked(alphas, "alpha", alphas.shape[:1], complex)
    n = alphas.size
    if n < 1:
        raise DimensionError(f"n_modes must be >= 1, got {n}")
    mean = np.empty(2 * n)
    with _refusing_overflow("the quadrature mean sqrt(2) alpha"):
        mean[0::2] = np.sqrt(2.0) * alphas.real
        mean[1::2] = np.sqrt(2.0) * alphas.imag
    return _trusted(GaussianState, n_modes=n, mean=mean, cov=np.eye(2 * n))


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
    _finite(np.array([r, theta]), "squeezing (r, theta)")
    with _refusing_overflow(f"squeezing r = {r}"):
        two_r = 2 * np.float64(r)  # a float 2r would overflow to inf unrefused
        small, large = np.exp(-two_r), np.exp(two_r)
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
    _finite(np.array([r, theta]), "squeezing (r, theta)")
    with _refusing_overflow(f"squeezing r = {r}"):
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
    return _trusted(GaussianState, n_modes=n, mean=mean, cov=cov)


def partial_trace(state: GaussianState, keep: Iterable[int]) -> GaussianState:
    """Restricts a state to a subset of modes.

    In the covariance description the partial trace is a plain extraction
    of the kept modes' rows and columns; no trace over a Hilbert space is
    ever performed.
    """
    keep = list(keep)
    if len(keep) == 0:
        raise ModeIndexError("keep must contain at least one mode index")
    if len(set(keep)) != len(keep):
        raise ModeIndexError("keep contains duplicate mode indices")
    if any(k < 0 or k >= state.n_modes for k in keep):
        raise ModeIndexError(f"mode indices {keep} out of range for {state.n_modes} modes")
    idx = np.concatenate([[2 * k, 2 * k + 1] for k in keep])
    return _trusted(
        GaussianState, n_modes=len(keep), mean=state.mean[idx], cov=state.cov[np.ix_(idx, idx)]
    )


def _cholesky(cov: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor L of sigma = L L^T, behind det sigma and
    sigma^-1; UnphysicalStateError if sigma is not positive definite."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise UnphysicalStateError("covariance matrix is not positive definite") from None


def purity(state: GaussianState) -> PurityReport:
    """Purity 1 / prod(nu_i) = 1 / sqrt(det sigma).

    The determinant comes from the Cholesky factor of :func:`_cholesky` as
    exp(-sum log diag L), which neither overflows nor underflows.

    Raises:
        UnphysicalStateError: if the covariance is not positive definite.
    """
    p = float(np.exp(-np.log(np.diagonal(_cholesky(state.cov))).sum()))
    return PurityReport(purity=p, is_pure=abs(p - 1.0) <= PURITY_TOL)


def physicality_check(state: GaussianState) -> PhysicalityReport:
    """Checks the uncertainty relation sigma + i Omega^-1 >= 0 in its
    equivalent form (Williamson's theorem): every symplectic eigenvalue
    nu_i >= 1, accepted when nu_min >= 1 - PHYSICALITY_TOL."""
    nu_min = float(state.symplectic_spectrum()[0])
    return PhysicalityReport(min_symplectic_eigenvalue=nu_min, ok=nu_min >= 1.0 - PHYSICALITY_TOL)

