"""Symplectic form and basic symplectic linear algebra.

Every phase-space vector and matrix in memory is in the pairwise
ordering (q1, p1, q2, p2, ..., qn, pn).  The blockwise ordering
(q1, ..., qn, p1, ..., pn) exists only in state and Hamiltonian files,
which the CLI converts to pairwise order on load.

The symplectic matrix Omega is antisymmetric with Omega^2 = -1, and its
inverse is Omega^-1 = -Omega = Omega^T.  It is the direct sum of n blocks
[[0, -1], [1, 0]].  :func:`make_symplectic_form` returns it as a plain
read-only array, whose shape (2n, 2n) carries the mode count.

:func:`_checked` and :func:`_n_modes` admit every array that enters the
package, once, and :func:`_frozen` stores a value object's fields as
read-only arrays it owns.  :func:`_trusted` builds a value object that the
library derives from admitted inputs (a state, a channel or a Wigner grid)
without its constructor: the deriving code runs only the checks its inputs
have not already passed, and the fresh arrays are stored without a copy.

:class:`_refusing_overflow` refuses every float overflow: a plain class
whose ``__enter__`` enters a fresh ``np.errstate`` that raises on overflow
and invalid operations, and whose ``__exit__`` leaves it and turns a
FloatingPointError, or an OverflowError from ``math``, into one
DomainError, so a guarded block costs no generator frame.
:func:`_symmetrized` is the one symmetry (Hermiticity) check, with the one
tolerance ``SYMMETRY_TOL``.  :func:`_expm` is the package's one matrix
exponential, and :func:`_flushed` stores the negligible entries of the
matrices the dynamics layer creates as zeros.

The checks that every call runs make one numpy pass per quantity, which
on one and two modes is most of a call's cost.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionError, DomainError

DEFAULT_SYMPLECTIC_TOL = 1e-10
SYMMETRY_TOL = 1e-10

# the most float64 entries one array can address; numpy refuses more with a plain ValueError
_MAX_FLOATS = sys.maxsize // 8


# scalar types that cmath.isfinite tests exactly, without an array round trip;
# np.float64 and np.complex128 subclass float and complex
_FLOAT_SCALARS = (float, complex, np.float16, np.float32, np.complex64)


def _finite(a, name: str) -> None:
    """Raises DomainError naming ``a`` if an entry is NaN or infinite."""
    if not (cmath.isfinite(a) if isinstance(a, _FLOAT_SCALARS) else np.isfinite(a).all()):
        raise DomainError(f"{name} has non-finite entries")


def _checked(a, name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """``a`` as an array of ``dtype``; raises DimensionError if its shape
    is not ``shape`` and DomainError if an entry is NaN or infinite."""
    a = np.asarray(a, dtype=dtype)
    if a.shape != shape:
        raise DimensionError(f"{name} must have shape {shape}, got {a.shape}")
    _finite(a, name)
    return a


def _frozen(obj, **fields) -> None:
    """Stores each field on the frozen dataclass ``obj``.  Every ndarray is
    stored read-only, and one that shares memory with the value the caller
    passed for that field is copied first, so that a value object owns its
    arrays and never freezes or aliases a caller's.

    The caller's own array is always copied.  Any other array that owns its
    buffer was made from the caller's ndarray in new memory and cannot
    alias it, so only views, and arrays made from inputs that are not
    ndarrays (which may hand out a buffer they keep), take the memory test."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            given = getattr(obj, name, None)
            if value is given or (
                given is not None
                and (value.base is not None or not isinstance(given, np.ndarray))
                and np.may_share_memory(value, given)
            ):
                value = value.copy()
            value.setflags(write=False)
        object.__setattr__(obj, name, value)


def _trusted(cls, **fields):
    """A ``cls`` value object holding ``fields``, built without its
    constructor, for a value derived from admitted inputs.  The caller hands
    over fresh float arrays that no one else holds; with no caller's value
    to compare, :func:`_frozen` stores them read-only without a copy."""
    obj = object.__new__(cls)
    _frozen(obj, **fields)
    return obj


class _refusing_overflow:
    """Refuses float overflow and invalid operations in its block, and any
    OverflowError from ``math``, with one ``error`` naming ``what``."""

    __slots__ = ("what", "error", "_errstate")

    def __init__(self, what: str, error: type[Exception] = DomainError):
        self.what = what
        self.error = error

    def __enter__(self) -> None:
        self._errstate = np.errstate(over="raise", invalid="raise")
        self._errstate.__enter__()

    def __exit__(self, exc_type, exc, tb) -> None:
        self._errstate.__exit__(exc_type, exc, tb)
        if exc_type is not None and issubclass(exc_type, (FloatingPointError, OverflowError)):
            raise self.error(f"{self.what} gives non-finite values (float overflow)") from None


def _n_modes(m, name: str) -> int:
    """Mode count n of a square matrix of size 2n; DimensionError otherwise."""
    shape = np.shape(m)
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] % 2:
        raise DimensionError(f"{name} must be square of even size, got shape {shape}")
    return shape[0] // 2


def _symmetrized(m: np.ndarray, name: str) -> np.ndarray:
    """Returns m/2 + m^dag/2 after checking that ``m`` is symmetric, or
    Hermitian if complex, up to float noise.  ``m`` comes from
    :func:`_checked`, so it is finite (a NaN would pass the test).  Halving
    first is exact for normal floats, and no finite ``m`` overflows.

    Raises:
        DomainError: naming the matrix, if max|m - m^dag| exceeds
            SYMMETRY_TOL * max(1, max|m|).
    """
    half = 0.5 * m
    half_dag = half.conj().T if half.dtype.kind == "c" else half.T
    asym = 2.0 * float(np.abs(half - half_dag).max())  # a float product: no warning
    # asym > tol * max(1, max|m|), with max|m| formed only past the absolute bound
    if asym > SYMMETRY_TOL and asym > SYMMETRY_TOL * np.abs(m).max():
        raise DomainError(f"{name} asymmetry {asym:.3e} exceeds tolerance")
    return half + half_dag


# entries below this fraction of the largest are stored as exact zeros
_FLUSH_RATIO = 2.0**-500


def _flushed(m: np.ndarray) -> np.ndarray:
    """A copy of ``m`` with every entry below 2^-500 max|m| set to 0.

    Channels of local Hamiltonians decay faster than exponentially away
    from the diagonal, and their products then carry subnormal entries,
    which slow every dense product that touches them by an order of
    magnitude.  After the flush no entry is subnormal, and the threshold
    keeps the products of kept entries normal as well:

    - Scale.  ``m`` is a symplectic S or a physical covariance sigma of
      size 2n.  ||S||_2 >= 1, because the singular values of S come in
      pairs (s, 1/s), and lambda_max(sigma) >= 1, because
      det sigma = prod nu_k^2 >= 1.  Since ||m||_2 <= 2n max|m|, the
      largest entry is at least 1/(2n).
    - Products stay normal.  An entry that is kept has |x| >= 2^-500
      max|x| >= 2^-500 / (2n), so a product of two kept entries, of one
      matrix or of S and sigma, is at least 2^-1000 / (4n^2), which is
      above the smallest normal number 2^-1022 for n <= 1024.
    - Accuracy.  Every entry that is zeroed is below 2^-500 max|m|, so
      the change is at most 2^-500 relative to max|m|, far below the
      rounding error 2^-53 of any product the matrix enters.

    The test |x| >= t is symmetric in x, so a symmetric ``m`` stays
    exactly symmetric.  A flushed entry keeps its sign (0.0 or -0.0), and a
    matrix without small nonzero entries, including the zero matrix, is
    returned bit for bit.
    """
    mag = np.abs(m)
    return m * (mag >= _FLUSH_RATIO * mag.max())


def make_symplectic_form(n_modes: int) -> np.ndarray:
    """Omega for the requested mode count, as a read-only 2n x 2n array;
    its inverse is its transpose."""
    if n_modes < 1:
        raise DimensionError(f"n_modes must be >= 1, got {n_modes}")
    n = n_modes
    omega = np.zeros((2 * n, 2 * n))
    # entries (2k, 2k+1) and (2k+1, 2k) lie 4n + 2 apart in the flat array
    flat = omega.reshape(-1)
    flat[1 :: 4 * n + 2] = -1.0
    flat[2 * n :: 4 * n + 2] = 1.0
    omega.setflags(write=False)
    return omega


class SymplecticCheck(NamedTuple):
    ok: bool
    residual: float


def check_symplectic(m: np.ndarray, form: np.ndarray | None = None) -> SymplecticCheck:
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
        m: real, finite square matrix of even dimension 2n.
        form: the matrix Omega of :func:`make_symplectic_form` to test
            against; built from the dimension of ``m`` when omitted.

    Returns:
        SymplecticCheck(ok, residual).

    Raises:
        DimensionError: if ``m`` is not square of even size, or does not
            match ``form``.
        DomainError: if an entry of ``m`` is NaN or infinite, or if
            m Omega^-1 m^T overflows.
    """
    if form is None:
        form = make_symplectic_form(_n_modes(m, "m"))
    return _symplectic_check(_checked(m, "m", form.shape), form)


def _symplectic_check(m: np.ndarray, form: np.ndarray) -> SymplecticCheck:
    """The test of :func:`check_symplectic` on an admitted ``m``: a finite
    float matrix of the shape of ``form``."""
    omega_inv = form.T
    m_omega_inv = m @ omega_inv
    # Omega^-1 is a signed permutation, so |m Omega^-1| = |m| |Omega^-1|;
    # the scale is formed only when the absolute bound is exceeded
    tol = DEFAULT_SYMPLECTIC_TOL
    with _refusing_overflow("m Omega^-1 m^T"):
        residual = float(np.abs(m_omega_inv @ m.T - omega_inv).max())
        ok = residual <= tol or residual <= tol * float((np.abs(m_omega_inv) @ np.abs(m).T).max())
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


def _ell_table(a: np.ndarray) -> Callable[[int], int]:
    """The function ell of Al-Mohy & Higham's Algorithm 5.1 for ``a``:
    ell(m) is the number of extra squarings that keep the degree-m Pade
    backward error below u for a nonnormal ``a``.  It takes the 1-norm of
    the nonnegative |a|^(2m+1), exact from the row vectors 1^T |a|^k; one
    table of them, extended on demand, serves every candidate degree."""
    abs_a = np.abs(a)
    rows = [abs_a.sum(axis=0)]  # rows[k - 1] = 1^T |a|^k
    norm1 = float(rows[0].max())

    def ell(m: int) -> int:
        while len(rows) <= 2 * m:
            rows.append(rows[-1] @ abs_a)
        alpha = _ELL_C[m] * float(rows[2 * m].max()) / norm1
        return 0 if alpha == 0.0 else max(math.ceil(math.log2(alpha) / (2 * m)), 0)

    return ell


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
    ell = _ell_table(a)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    powers = [eye, a2, a4, a6]
    d4, d6 = _norm1(a4) ** (1 / 4), _norm1(a6) ** (1 / 6)
    m = next((k for k in (3, 5) if max(d4, d6) <= _THETA[k] and ell(k) == 0), None)
    if m is None:
        powers.append(a4 @ a4)
        d8 = _norm1(powers[4]) ** (1 / 8)
        m = next((k for k in (7, 9) if max(d6, d8) <= _THETA[k] and ell(k) == 0), 13)
    b, s = _PADE[m], 0
    if m == 13:
        eta = min(max(d6, d8), max(d8, _norm1(a4 @ a6) ** (1 / 10)))
        s = math.ceil(math.log2(eta / _THETA[13])) if eta > _THETA[13] else 0
        s += (_ell_table(a * 2.0**-s) if s else ell)(13)
        if s:
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
