"""Symplectic spectrum and constructive symplectic (Williamson) diagonalization.

Any real symmetric positive definite matrix F of even dimension can be
brought to the normal form

    Sigma F Sigma^T = diag(nu_1, nu_1, ..., nu_n, nu_n)

by a symplectic matrix Sigma.  Both the spectrum and Sigma come from two
factorizations.  One symmetric eigendecomposition of F validates it
(positive definite, conditioning) and gives the symmetric root F^(-1/2).
One Hermitian eigendecomposition of iY, with the real antisymmetric core
Y = F^(-1/2) Omega F^(-1/2), gives the rest: its 2n eigenvalues are
-1/nu_k and +1/nu_k.  The eigenvectors v_k of the negative half are
orthonormal and orthogonal to their conjugates (the positive half), so the
rows sqrt(2) Im v_k, sqrt(2) Re v_k form a real orthogonal matrix O, and

    Sigma = Fdiag^(1/2) O F^(-1/2).

Within a degenerate group of symplectic eigenvalues Sigma is not unique;
the eigensolver's orthonormal basis of the group is kept.

The symmetric root is used rather than a Cholesky factor L (spectrum from
i L^T Omega L) or the real Schur form of Y: on banded covariances such as
a harmonic chain's, both measured slower than eigh(iY) with the symmetric
root (see ROADMAP item 3).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConditioningWarning,
    DimensionError,
    NoGroundStateError,
    NotPositiveDefiniteError,
)
from .symplectic import SymplecticForm, _symmetrized, check_symplectic, make_symplectic_form

DEFAULT_WILLIAMSON_TOL = 1e-8
_COND_FLOOR = 1e-12


def _core(
    f: np.ndarray, form: SymplecticForm | None
) -> tuple[np.ndarray, SymplecticForm, np.ndarray, np.ndarray]:
    """Validates F once and returns (F, form, F^(-1/2), Y).

    The eigenvalues of the one eigh(F) are the positive-definiteness and
    conditioning check; its eigenvectors give the symmetric F^(-1/2).

    Raises:
        DimensionError: if ``f`` is not square of even dimension, or does
            not match ``form``.
        ValueError: if ``f`` is not symmetric.
        NotPositiveDefiniteError: if ``f`` is not positive definite.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] != f.shape[1] or f.shape[0] % 2 != 0:
        raise DimensionError(f"f must be square with even dimension, got shape {f.shape}")
    f = _symmetrized(f, "f")
    n = f.shape[0] // 2
    if form is None:
        form = make_symplectic_form(n)
    if form.n_modes != n:
        raise DimensionError(f"form has {form.n_modes} modes, matrix has {n}")
    vals, vecs = np.linalg.eigh(f)
    if vals[0] <= 0:
        raise NotPositiveDefiniteError(
            f"f must be positive definite (min eigenvalue {vals[0]:.3e})", vals[0]
        )
    if vals[0] <= _COND_FLOOR * vals[-1]:
        warnings.warn(
            f"f is nearly singular (eigenvalue ratio {vals[0] / vals[-1]:.3e})",
            ConditioningWarning,
            stacklevel=3,
        )
    f_inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
    y = f_inv_sqrt @ form.omega @ f_inv_sqrt
    return f, form, f_inv_sqrt, 0.5 * (y - y.T)  # enforce antisymmetry against roundoff


def _nu_from_iy(lam: np.ndarray) -> np.ndarray:
    """Symplectic spectrum from the ascending eigenvalues of iY, which come
    in pairs -1/nu_k, +1/nu_k; the lower half gives nu ascending."""
    n = lam.size // 2
    low, high = lam[:n], lam[n:][::-1]
    if low[-1] >= 0 or np.max(np.abs(low + high)) > DEFAULT_WILLIAMSON_TOL * np.max(np.abs(lam)):
        raise ValueError(
            "eigenvalues of iY do not pair up as -1/nu, +1/nu; numerically degenerate input"
        )
    return -1.0 / low


def symplectic_spectrum(f: np.ndarray, form: SymplecticForm | None = None) -> np.ndarray:
    """Symplectic eigenvalues of a symmetric positive definite matrix.

    The eigenvalues of F Omega^-1 are +/- i*nu_i; they are read off the
    Hermitian matrix iY, whose eigenvalues are +/- 1/nu_i.  The returned
    spectrum is the n values nu_i sorted ascending.

    Raises:
        ValueError: if ``f`` is not symmetric positive definite, or if the
            eigenvalues of iY fail to pair up within
            DEFAULT_WILLIAMSON_TOL * max|1/nu| (numerical degeneracy).
    """
    _, _, _, y = _core(f, form)
    return _nu_from_iy(np.linalg.eigvalsh(1j * y))


@dataclass(frozen=True)
class WilliamsonDecomposition:
    """Result of a symplectic diagonalization.

    Attributes:
        nu: symplectic eigenvalues, sorted ascending, length n.
        sigma: the symplectic matrix Sigma with Sigma F Sigma^T = diag_form.
        diag_form: direct sum of diag(nu_i, nu_i) blocks.
        residual_diag: max-norm of Sigma F Sigma^T - diag_form.
        residual_symplectic: max-norm of Sigma Omega^-1 Sigma^T - Omega^-1.
    """

    nu: np.ndarray
    sigma: np.ndarray
    diag_form: np.ndarray
    residual_diag: float
    residual_symplectic: float


def _phase_fix(v: np.ndarray) -> np.ndarray:
    """Rotates each eigenvector (column) by a unit phase so that its
    largest-magnitude component is real positive, making the sign
    convention deterministic."""
    peak = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return v / (peak / np.abs(peak))


def williamson_decompose(
    f: np.ndarray, form: SymplecticForm | None = None
) -> WilliamsonDecomposition:
    """Symplectically diagonalizes a symmetric positive definite matrix.

    Implements the constructive algorithm: form Y = F^(-1/2) Omega F^(-1/2),
    diagonalize the Hermitian matrix iY once for both the spectrum and the
    eigenvectors v_k of its negative eigenvalues -1/nu_k, and assemble
    Sigma = Fdiag^(1/2) O F^(-1/2) from the real orthogonal O with rows
    sqrt(2) Im v_k, sqrt(2) Re v_k.

    Raises:
        ValueError: if ``f`` is not symmetric positive definite, or its iY
            spectrum does not pair up (see :func:`symplectic_spectrum`).
    """
    f, form, f_inv_sqrt, y = _core(f, form)
    n = form.n_modes
    lam, vecs = np.linalg.eigh(1j * y)
    nu = _nu_from_iy(lam)
    v = _phase_fix(vecs[:, :n])

    scale = np.sqrt(2.0 * nu)[:, None]
    scaled_o = np.empty((2 * n, 2 * n))
    scaled_o[0::2] = scale * v.imag.T
    scaled_o[1::2] = scale * v.real.T
    sigma = scaled_o @ f_inv_sqrt
    diag_form = np.diag(np.repeat(nu, 2))

    residual_diag = float(np.max(np.abs(sigma @ f @ sigma.T - diag_form)))
    residual_sympl = check_symplectic(sigma, form).residual
    return WilliamsonDecomposition(
        nu=nu,
        sigma=sigma,
        diag_form=diag_form,
        residual_diag=residual_diag,
        residual_symplectic=residual_sympl,
    )


def normal_mode_ground_state(hamiltonian):
    """Ground state of a positive definite quadratic Hamiltonian.

    Symplectically diagonalizes the Hamiltonian matrix into decoupled
    normal modes, places each in its ground state, and maps the covariance
    back to the original modes.  The two steps collapse to

        sigma = Sigma^T Sigma,

    with Sigma the Williamson diagonalizer of the Hamiltonian matrix.

    Args:
        hamiltonian: a ``QuadraticHamiltonian`` (its linear part is ignored;
            a linear term only displaces the ground state's mean).

    Returns:
        GaussianState of the ground state (pure, mean zero).

    Raises:
        NoGroundStateError: if the Hamiltonian matrix is not positive
            definite (no normalizable ground state exists).
    """
    from .states import GaussianState

    try:
        dec = williamson_decompose(hamiltonian.f_bar)
    except NotPositiveDefiniteError as exc:
        raise NoGroundStateError(
            "Hamiltonian matrix is not positive definite "
            f"(min eigenvalue {exc.min_eigenvalue:.3e})"
        ) from None
    cov = dec.sigma.T @ dec.sigma
    mean = np.zeros(2 * hamiltonian.n_modes)
    return GaussianState(n_modes=hamiltonian.n_modes, mean=mean, cov=cov)
