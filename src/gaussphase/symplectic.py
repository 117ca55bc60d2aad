"""Symplectic form and basic symplectic linear algebra.

Every phase-space vector and matrix in memory is in the pairwise
ordering (q1, p1, q2, p2, ..., qn, pn).  The blockwise ordering
(q1, ..., qn, p1, ..., pn) exists only in state and Hamiltonian files,
which the CLI converts to pairwise order on load.

The symplectic matrix Omega is antisymmetric with Omega^2 = -1, and its
inverse is Omega^-1 = -Omega = Omega^T.  It is the direct sum of n blocks
[[0, -1], [1, 0]].

:func:`_symmetrized` is the one symmetry (Hermiticity) check of the
package, with the one tolerance ``SYMMETRY_TOL``; it also rejects NaN and
infinite entries, as :func:`_finite` does for vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError

DEFAULT_SYMPLECTIC_TOL = 1e-10
SYMMETRY_TOL = 1e-10


def _finite(a: np.ndarray, name: str) -> None:
    """Raises ValueError naming ``a`` if an entry is NaN or infinite."""
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")


def _symmetrized(m: np.ndarray, name: str) -> np.ndarray:
    """Returns (m + m^dag)/2 after checking that ``m`` is finite and
    symmetric, or Hermitian if complex, up to float noise.

    Raises:
        ValueError: naming the matrix, if an entry is not finite or if
            max|m - m^dag| exceeds SYMMETRY_TOL * max(1, max|m|).
    """
    _finite(m, name)
    m_dag = m.conj().T
    asym = np.max(np.abs(m - m_dag))
    if asym > SYMMETRY_TOL * max(1.0, np.max(np.abs(m))):
        raise ValueError(f"{name} asymmetry {asym:.3e} exceeds tolerance")
    return 0.5 * (m + m_dag)


@dataclass(frozen=True)
class SymplecticForm:
    """Symplectic matrix Omega for n modes; its inverse is omega.T.

    Attributes:
        n_modes: number of bosonic modes (phase space dimension is 2n).
        omega: the 2n x 2n symplectic matrix.
    """

    n_modes: int
    omega: np.ndarray


def make_symplectic_form(n_modes: int) -> SymplecticForm:
    """Builds Omega for the requested mode count."""
    if n_modes < 1:
        raise DimensionError(f"n_modes must be >= 1, got {n_modes}")
    n = n_modes
    omega = np.zeros((2 * n, 2 * n))
    # entries (2k, 2k+1) and (2k+1, 2k) lie 4n + 2 apart in the flat array
    flat = omega.reshape(-1)
    flat[1 :: 4 * n + 2] = -1.0
    flat[2 * n :: 4 * n + 2] = 1.0
    omega.setflags(write=False)
    return SymplecticForm(n_modes=n, omega=omega)


class SymplecticCheck(NamedTuple):
    ok: bool
    residual: float


def check_symplectic(
    m: np.ndarray,
    form: SymplecticForm | None = None,
    tol: float = DEFAULT_SYMPLECTIC_TOL,
) -> SymplecticCheck:
    """Tests whether a matrix preserves the symplectic form.

    Computes the max-norm residual || m Omega^-1 m^T - Omega^-1 || and
    accepts it up to ``tol * max(1, max(|m| |Omega^-1| |m|^T))``: the
    rounding error of each entry of the product grows with the size of the
    terms summed into it, so a strongly squeezing matrix is judged relative
    to those terms, while a matrix whose large entries cancel in no term
    (such as diag(1e5, 5e-6)) is still judged on the absolute scale.  The
    residual is always returned so callers can report it even on failure.

    Args:
        m: real square matrix of even dimension 2n.
        form: symplectic form to test against; built on the fly from the
            matrix dimension when omitted.
        tol: acceptance threshold for the residual, relative to the
            largest entry of |m| |Omega^-1| |m|^T when that exceeds 1.

    Returns:
        SymplecticCheck(ok, residual).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0:
        raise DimensionError(f"expected square even-dimensional matrix, got shape {m.shape}")
    if form is None:
        form = make_symplectic_form(m.shape[0] // 2)
    if m.shape[0] != 2 * form.n_modes:
        raise DimensionError(
            f"matrix dimension {m.shape[0]} does not match form with {form.n_modes} modes"
        )
    omega_inv = form.omega.T
    m_omega_inv = m @ omega_inv
    residual = float(np.max(np.abs(m_omega_inv @ m.T - omega_inv)))
    # Omega^-1 is a signed permutation, so |m Omega^-1| = |m| |Omega^-1|;
    # the scale is formed only when the absolute bound is exceeded
    ok = residual <= tol or residual <= tol * float(np.max(np.abs(m_omega_inv) @ np.abs(m).T))
    return SymplecticCheck(ok, residual)
