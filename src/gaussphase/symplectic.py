"""Symplectic form, quadrature orderings and basic symplectic linear algebra.

Every phase-space vector and matrix in memory is in the pairwise
ordering (q1, p1, q2, p2, ..., qn, pn).  The blockwise ordering
(q1, ..., qn, p1, ..., pn) exists only at the file boundary: state and
Hamiltonian files tagged ``"qqpp"``, which the CLI converts on load with
:func:`reorder`.

The symplectic matrix Omega is antisymmetric with Omega^2 = -1, and its
inverse is Omega^-1 = -Omega = Omega^T.  It is the direct sum of n blocks
[[0, -1], [1, 0]].

:func:`_symmetrized` is the one symmetry (Hermiticity) check of the
package, with the one tolerance ``SYMMETRY_TOL``; it also rejects NaN and
infinite entries, as :func:`_finite` does for vectors.
"""

from __future__ import annotations

import enum
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


class Ordering(enum.Enum):
    """Quadrature ordering of phase-space vectors and matrices in files."""

    PAIRWISE = "qpqp"
    BLOCKWISE = "qqpp"


@dataclass(frozen=True)
class SymplecticForm:
    """Symplectic matrix Omega and its inverse for n modes.

    Attributes:
        n_modes: number of bosonic modes (phase space dimension is 2n).
        omega: the 2n x 2n symplectic matrix.
        omega_inv: its inverse, equal to -omega and to omega.T.
    """

    n_modes: int
    omega: np.ndarray
    omega_inv: np.ndarray


def make_symplectic_form(n_modes: int) -> SymplecticForm:
    """Builds Omega and Omega^-1 for the requested mode count."""
    if n_modes < 1:
        raise DimensionError(f"n_modes must be >= 1, got {n_modes}")
    n = n_modes
    omega = np.zeros((2 * n, 2 * n))
    # entries (2k, 2k+1) and (2k+1, 2k) lie 4n + 2 apart in the flat array
    flat = omega.reshape(-1)
    flat[1 :: 4 * n + 2] = -1.0
    flat[2 * n :: 4 * n + 2] = 1.0
    omega.setflags(write=False)
    return SymplecticForm(n_modes=n, omega=omega, omega_inv=omega.T)


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
    compares it against ``tol``.  The residual is always returned so
    callers can report it even on failure.

    Args:
        m: real square matrix of even dimension 2n.
        form: symplectic form to test against; built on the fly from the
            matrix dimension when omitted.
        tol: acceptance threshold for the residual.

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
    residual = float(np.max(np.abs(m @ form.omega_inv @ m.T - form.omega_inv)))
    return SymplecticCheck(residual <= tol, residual)


def _permutation_indices(n_modes: int, source: Ordering, target: Ordering) -> np.ndarray:
    """Index array ``idx`` such that ``v_target = v_source[idx]``."""
    n = n_modes
    if source is target:
        return np.arange(2 * n)
    if source is Ordering.BLOCKWISE and target is Ordering.PAIRWISE:
        idx = np.empty(2 * n, dtype=int)
        idx[0::2] = np.arange(n)
        idx[1::2] = np.arange(n, 2 * n)
        return idx
    # pairwise -> blockwise
    idx = np.empty(2 * n, dtype=int)
    idx[:n] = np.arange(0, 2 * n, 2)
    idx[n:] = np.arange(1, 2 * n, 2)
    return idx


def reorder(
    m: np.ndarray,
    source: Ordering,
    target: Ordering,
    n_modes: int | None = None,
) -> np.ndarray:
    """Permutes a vector or matrix between quadrature orderings.

    The permutation is an exact bijection: a round trip restores the
    input bitwise.  Matrices are permuted on rows and columns.
    """
    m = np.asarray(m)
    dim = m.shape[0]
    if dim % 2 != 0:
        raise DimensionError(f"phase-space dimension must be even, got {dim}")
    if n_modes is None:
        n_modes = dim // 2
    if dim != 2 * n_modes:
        raise DimensionError(f"dimension {dim} does not match {n_modes} modes")
    idx = _permutation_indices(n_modes, source, target)
    if m.ndim == 1:
        return m[idx]
    if m.ndim == 2:
        if m.shape[1] != dim:
            raise DimensionError(f"expected square matrix, got shape {m.shape}")
        return m[np.ix_(idx, idx)]
    raise DimensionError(f"expected vector or matrix, got ndim={m.ndim}")
