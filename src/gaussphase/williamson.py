"""Symplectic spectrum and constructive symplectic (Williamson) diagonalization.

Any real symmetric positive definite matrix F of even dimension can be
brought to the normal form

    Sigma F Sigma^T = diag(nu_1, nu_1, ..., nu_n, nu_n)

by a symplectic matrix Sigma.  Both the spectrum and Sigma come from two
factorizations.  One symmetric eigendecomposition of F validates it
(positive definite, conditioning) and gives the symmetric root F^(-1/2).
One Hermitian eigendecomposition of iY, with the real antisymmetric core
Y = (F^(-1/2) Omega) F^(-1/2), gives the rest: its 2n eigenvalues are
-1/nu_k and +1/nu_k.  The eigenvectors v_k of the negative half are
orthonormal and orthogonal to their conjugates (the positive half), so the
rows sqrt(2) Im v_k, sqrt(2) Re v_k form a real orthogonal matrix O, and

    Sigma = Fdiag^(1/2) O F^(-1/2).

Within a degenerate group of symplectic eigenvalues Sigma is not unique;
the eigensolver's orthonormal basis of the group is kept.

Omega is never built: F^(-1/2) Omega is a signed column swap
(:func:`~gaussphase.symplectic._times_omega`), and Sigma's symplectic
residual subtracts Omega^-1 at its 2n nonzero entries.  Each dense
temporary is dropped before the next LAPACK call, so the complex
eigh(iY), the largest working set of the decomposition, runs beside only
F, F^(-1/2) and iY.

Admission and factorization are separate.  Only the public entry points,
:func:`symplectic_spectrum` and :func:`williamson_decompose`, admit their
argument (:func:`_admitted`: shape, finiteness, symmetrization, and a
passed ``form`` compared with Omega).  :func:`_spectrum` and
:func:`_decomposition` factor a matrix that is already admitted, given
the name to use in refusals; a state's covariance and a Hamiltonian's
Fbar reach them directly.  A second admission would return such a matrix
unchanged, apart from entries below 2^-1021 in magnitude, by at most
2^-1074: halving a larger entry is exact, and a matrix admitted from a
symmetric argument holds 2 round(m/2), which halves exactly too.

The symmetric root is used rather than a Cholesky factor L (spectrum from
i L^T Omega L) or the real Schur form of Y: on the covariance of a
256-mode harmonic chain after a channel (2-vCPU VM, OpenBLAS),
eigvalsh(iY) took 40 ms against 261 ms for eigvalsh(i L^T Omega L) and
270 ms for the real Schur form of Y.  The gap between the first two
stays (76 against 273 ms, in a slower stretch of the same VM) when the
channel output is free of subnormal entries.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningWarning, DomainError, NotPositiveDefiniteError
from .symplectic import (
    _checked, _form_shape, _refusing_overflow, _symmetrized, _symplectic_check, _times_omega,
)

DEFAULT_WILLIAMSON_TOL = 1e-8
_COND_FLOOR = 1e-12


def _admitted(f, form: np.ndarray | None) -> np.ndarray:
    """Admits the argument F of a public entry point: returns F finite and
    symmetrized, of the shape of ``form`` when one is passed.

    Raises:
        DimensionError: if ``f`` is not square of even dimension, or does
            not match ``form``.
        ParameterError: if ``form`` is not Omega.
        DomainError: if ``f`` has non-finite entries or is not symmetric.
    """
    return _symmetrized(_checked(f, "f", _form_shape(f, "f", form)), "f")


def _factored(f: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(F^(-1/2), Y) of an admitted F: a finite, exactly symmetric float
    matrix of even size, refused or warned about as ``name``.

    The eigenvalues of the one eigh(F) are the positive-definiteness and
    conditioning check; its eigenvectors give the symmetric F^(-1/2).

    Raises:
        NotPositiveDefiniteError: if ``f`` is not positive definite.
        DomainError: if Y overflows.
    """
    vals, vecs = np.linalg.eigh(f)
    if vals[0] <= 0:
        raise NotPositiveDefiniteError(
            f"{name} must be positive definite (min eigenvalue {vals[0]:.3e})", vals[0]
        )
    if vals[0] <= _COND_FLOOR * vals[-1]:
        warnings.warn(
            f"{name} is nearly singular (eigenvalue ratio {vals[0] / vals[-1]:.3e})",
            ConditioningWarning,
            stacklevel=4,  # the caller of the entry point, public or trusted
        )
    with _refusing_overflow(f"the core F^(-1/2) Omega F^(-1/2) of {name}"):
        f_inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
        del vecs
        f_omega = _times_omega(f_inv_sqrt)
        y = f_omega @ f_inv_sqrt
        # 0.5 (Y - Y^T), written over F^(-1/2) Omega, enforces antisymmetry against roundoff
        core = np.subtract(y, y.T, out=f_omega)
        core *= 0.5
        return f_inv_sqrt, core


def _nu_from_iy(lam: np.ndarray) -> np.ndarray:
    """Symplectic spectrum from the ascending eigenvalues of iY, which come
    in pairs -1/nu_k, +1/nu_k; the lower half gives nu ascending."""
    n = lam.size // 2
    low, high = lam[:n], lam[n:][::-1]
    if low[-1] >= 0 or np.abs(low + high).max() > DEFAULT_WILLIAMSON_TOL * np.abs(lam).max():
        raise DomainError(
            "eigenvalues of iY do not pair up as -1/nu, +1/nu; numerically degenerate input"
        )
    return -1.0 / low


def symplectic_spectrum(f: np.ndarray, form: np.ndarray | None = None) -> np.ndarray:
    """Symplectic eigenvalues of a symmetric positive definite matrix.

    The eigenvalues of F Omega^-1 are +/- i*nu_i; they are read off the
    Hermitian matrix iY, whose eigenvalues are +/- 1/nu_i.  The returned
    spectrum is the n values nu_i sorted ascending.  ``form`` is None, or
    Omega from :func:`make_symplectic_form`, as in
    :func:`williamson_decompose`.

    Raises:
        DimensionError: if ``f`` is not square of even size, or does not
            match ``form``.
        ParameterError: if ``form`` is not Omega.
        DomainError: if ``f`` is not symmetric, or if the
            eigenvalues of iY fail to pair up within
            DEFAULT_WILLIAMSON_TOL * max|1/nu| (numerical degeneracy).
        NotPositiveDefiniteError: if ``f`` is not positive definite.
    """
    return _spectrum(_admitted(f, form), "f")


def _spectrum(f: np.ndarray, name: str) -> np.ndarray:
    """The symplectic spectrum of an admitted F (see :func:`_factored`),
    for a caller that holds one: a state's covariance or a Hamiltonian's
    Fbar."""
    iy = 1j * _factored(f, name)[1]
    return _nu_from_iy(np.linalg.eigvalsh(iy))


@dataclass(frozen=True)
class WilliamsonDecomposition:
    """Result of a symplectic diagonalization.

    Attributes:
        nu: symplectic eigenvalues, sorted ascending, length n.
        sigma: the symplectic matrix Sigma with Sigma F Sigma^T = D, where
            D = diag(nu_1, nu_1, ..., nu_n, nu_n) is not stored.
        residual_diag: max-norm of Sigma F Sigma^T - D.
        residual_symplectic: max-norm of Sigma Omega^-1 Sigma^T - Omega^-1.
    """

    nu: np.ndarray
    sigma: np.ndarray
    residual_diag: float
    residual_symplectic: float


def _phase_fix(v: np.ndarray) -> np.ndarray:
    """Rotates each eigenvector (column) by a unit phase so that its
    largest-magnitude component is real positive, making the sign
    convention deterministic."""
    peak = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return v / (peak / np.abs(peak))


def williamson_decompose(
    f: np.ndarray, form: np.ndarray | None = None
) -> WilliamsonDecomposition:
    """Symplectically diagonalizes a symmetric positive definite matrix.

    Implements the constructive algorithm: form Y = F^(-1/2) Omega F^(-1/2),
    diagonalize the Hermitian matrix iY once for both the spectrum and the
    eigenvectors v_k of its negative eigenvalues -1/nu_k, and assemble
    Sigma = Fdiag^(1/2) O F^(-1/2) from the real orthogonal O with rows
    sqrt(2) Im v_k, sqrt(2) Re v_k.  The mode count n is len(f) / 2;
    ``form`` is None, or Omega from :func:`make_symplectic_form`, which
    is only compared with Omega and enters no product.

    Raises:
        DimensionError: if ``f`` is not square of even size, or does not
            match ``form``.
        ParameterError: if ``form`` is not Omega.
        DomainError: if ``f`` is not symmetric, or its iY spectrum does
            not pair up (see :func:`symplectic_spectrum`).
        NotPositiveDefiniteError: if ``f`` is not positive definite.
    """
    return _decomposition(_admitted(f, form), "f")


def _decomposition(f: np.ndarray, name: str) -> WilliamsonDecomposition:
    """The Williamson decomposition of an admitted F (see :func:`_factored`),
    for a caller that holds one: a state's covariance or a Hamiltonian's
    Fbar."""
    f_inv_sqrt, y = _factored(f, name)
    n = len(f) // 2
    iy = 1j * y
    del y
    lam, vecs = np.linalg.eigh(iy)
    del iy
    nu = _nu_from_iy(lam)
    v = _phase_fix(vecs[:, :n])
    del vecs

    with _refusing_overflow(f"the Williamson form of {name}"):
        scale = 2.0 * np.sqrt(0.5 * nu)[:, None]  # sqrt(2 nu) without forming 2 nu
        scaled_o = np.empty((2 * n, 2 * n))
        scaled_o[0::2] = scale * v.imag.T
        scaled_o[1::2] = scale * v.real.T
        del v
        sigma = scaled_o @ f_inv_sqrt
        del scaled_o, f_inv_sqrt
        residual = sigma @ f @ sigma.T
        residual[np.diag_indices(2 * n)] -= np.repeat(nu, 2)
        residual_diag = float(np.abs(residual, out=residual).max())
        del residual
    residual_sympl = _symplectic_check(sigma).residual  # finite: its products refuse overflow
    return WilliamsonDecomposition(
        nu=nu,
        sigma=sigma,
        residual_diag=residual_diag,
        residual_symplectic=residual_sympl,
    )
