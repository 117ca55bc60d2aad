"""Symplectic form, orderings and basic symplectic linear algebra.

Phase-space vectors are stored in one of two quadrature orderings:

* ``Ordering.PAIRWISE``  -- (q1, p1, q2, p2, ..., qn, pn), the default
  everywhere in this package,
* ``Ordering.BLOCKWISE`` -- (q1, ..., qn, p1, ..., pn), used only at
  conversion boundaries (e.g. assembling Hamiltonians from ladder
  operators).

The symplectic matrix Omega is antisymmetric with Omega^2 = -1, and its
inverse is Omega^-1 = -Omega = Omega^T.  In the pairwise ordering Omega
is the direct sum of n blocks [[0, -1], [1, 0]].
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError

DEFAULT_SYMPLECTIC_TOL = 1e-10


class Ordering(enum.Enum):
    """Quadrature ordering of phase-space vectors and matrices."""

    PAIRWISE = "qpqp"
    BLOCKWISE = "qqpp"


@dataclass(frozen=True)
class SymplecticForm:
    """Symplectic matrix Omega and its inverse for n modes.

    Attributes:
        n_modes: number of bosonic modes (phase space dimension is 2n).
        ordering: quadrature ordering the matrices refer to.
        omega: the 2n x 2n symplectic matrix.
        omega_inv: its inverse, equal to -omega and to omega.T.
    """

    n_modes: int
    ordering: Ordering
    omega: np.ndarray
    omega_inv: np.ndarray


def make_symplectic_form(n_modes: int, ordering: Ordering = Ordering.PAIRWISE) -> SymplecticForm:
    """Builds Omega and Omega^-1 for the requested mode count and ordering."""
    if n_modes < 1:
        raise DimensionError(f"n_modes must be >= 1, got {n_modes}")
    n = n_modes
    omega = np.zeros((2 * n, 2 * n))
    if ordering is Ordering.PAIRWISE:
        # entries (2k, 2k+1) and (2k+1, 2k) lie 4n + 2 apart in the flat array
        flat = omega.reshape(-1)
        flat[1 :: 4 * n + 2] = -1.0
        flat[2 * n :: 4 * n + 2] = 1.0
    else:
        omega[:n, n:] = -np.eye(n)
        omega[n:, :n] = np.eye(n)
    omega.setflags(write=False)
    omega_inv = omega.T
    return SymplecticForm(n_modes=n, ordering=ordering, omega=omega, omega_inv=omega_inv)


class SymplecticCheck(NamedTuple):
    ok: bool
    residual: float


def check_symplectic(
    m: np.ndarray,
    form: SymplecticForm | None = None,
    tol: float = DEFAULT_SYMPLECTIC_TOL,
    ordering: Ordering = Ordering.PAIRWISE,
) -> SymplecticCheck:
    """Tests whether a matrix preserves the symplectic form.

    Computes the max-norm residual || m Omega^-1 m^T - Omega^-1 || and
    compares it against ``tol``.  The residual is always returned so
    callers can report it even on failure.

    Args:
        m: real square matrix of even dimension 2n.
        form: symplectic form to test against; built on the fly from the
            matrix dimension and ``ordering`` when omitted.
        tol: acceptance threshold for the residual.
        ordering: used only when ``form`` is None.

    Returns:
        SymplecticCheck(ok, residual).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] % 2 != 0:
        raise DimensionError(f"expected square even-dimensional matrix, got shape {m.shape}")
    if form is None:
        form = make_symplectic_form(m.shape[0] // 2, ordering)
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
