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
infinite entries, as :func:`_finite` does for vectors.  :func:`_expm` is
the package's one matrix exponential.
"""

from __future__ import annotations

import math
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


def check_symplectic(m: np.ndarray, form: SymplecticForm | None = None) -> SymplecticCheck:
    """Tests whether a matrix preserves the symplectic form.

    Computes the max-norm residual || m Omega^-1 m^T - Omega^-1 || and
    accepts it up to ``tol * max(1, max(|m| |Omega^-1| |m|^T))`` with
    ``tol = DEFAULT_SYMPLECTIC_TOL``: the rounding error of each entry of
    the product grows with the size of the terms summed into it, so a
    strongly squeezing matrix is judged relative to those terms, while a
    matrix whose large entries cancel in no term (such as diag(1e5, 5e-6))
    is still judged on the absolute scale.  The residual is always
    returned so callers can report it even on failure.

    Args:
        m: real square matrix of even dimension 2n.
        form: symplectic form to test against; built on the fly from the
            matrix dimension when omitted.

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
    tol = DEFAULT_SYMPLECTIC_TOL
    ok = residual <= tol or residual <= tol * float(np.max(np.abs(m_omega_inv) @ np.abs(m).T))
    return SymplecticCheck(ok, residual)


# Pade coefficients b_0..b_m of r_m(A) = q_m(A)^-1 p_m(A), with
# p_m(A) = sum b_k A^k and q_m(A) = p_m(-A), and the largest 1-norm theta_m
# of 2^-s A for which the backward error of r_m stays below the unit
# roundoff (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009),
# Table 3.1).
_PADE = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
          9: 2.097847961257068, 13: 5.371920351148152}
# |c_{2m+1}| / u: the leading coefficient of the Pade backward-error series
# over the unit roundoff u = 2^-53
_ELL_C = {
    m: math.factorial(m) ** 2 / (math.factorial(2 * m) * math.factorial(2 * m + 1)) * 2.0**53
    for m in _PADE
}


def _norm1(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


def _ell(a: np.ndarray, m: int) -> int:
    """Extra squarings that keep the degree-m Pade backward error below u
    for a nonnormal ``a`` (the function ell of Al-Mohy & Higham's
    Algorithm 5.1); the 1-norm of the nonnegative |a|^(2m+1) is exact from
    row-vector products."""
    abs_a = np.abs(a)
    v = abs_a.sum(axis=0)
    for _ in range(2 * m):
        v = v @ abs_a
    alpha = _ELL_C[m] * float(v.max()) / _norm1(a)
    return 0 if alpha == 0.0 else max(math.ceil(math.log2(alpha) / (2 * m)), 0)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a real or complex square matrix.

    Scaling and squaring with a Pade approximant of degree m = 3, 5, 7, 9
    or 13, chosen from d_k = ||a^k||_1^(1/k) (Algorithm 5.1 of Al-Mohy &
    Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009), with exact norms).
    The exponential of the zero matrix is exactly the identity.
    """
    eye = np.eye(len(a), dtype=a.dtype)
    if not a.any():
        return eye
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    powers = [eye, a2, a4, a6]
    d4, d6 = _norm1(a4) ** (1 / 4), _norm1(a6) ** (1 / 6)
    m = next((k for k in (3, 5) if max(d4, d6) <= _THETA[k] and _ell(a, k) == 0), None)
    if m is None:
        powers.append(a4 @ a4)
        d8 = _norm1(powers[4]) ** (1 / 8)
        m = next((k for k in (7, 9) if max(d6, d8) <= _THETA[k] and _ell(a, k) == 0), 13)
    b, s = _PADE[m], 0
    if m == 13:
        eta = min(max(d6, d8), max(d8, _norm1(a4 @ a6) ** (1 / 10)))
        s = math.ceil(math.log2(eta / _THETA[13])) if eta > _THETA[13] else 0
        s += _ell(a * 2.0**-s, 13)
        a = a * 2.0**-s
        eye, a2, a4, a6 = (p * 2.0 ** (-2 * k * s) for k, p in enumerate(powers[:4]))
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    else:
        u = a @ sum(b[2 * k + 1] * p for k, p in enumerate(powers[: m // 2 + 1]))
        v = sum(b[2 * k] * p for k, p in enumerate(powers[: m // 2 + 1]))
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r
