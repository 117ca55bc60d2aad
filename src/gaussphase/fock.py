"""Truncated Fock-space states and operators, used as a brute-force oracle.

Everything here works directly with ladder-operator matrices on a
truncated number basis, independently of the covariance-matrix machinery,
so that every Gaussian-side claim can be cross-checked against explicit
Hilbert-space arithmetic.  Truncation dimensions are caller supplied; the
constructors verify the probability mass lost to the cutoff and fail
loudly instead of silently renormalizing a bad truncation.

Quadratures are dimensionless, q = (a^dag + a)/sqrt(2),
p = i (a^dag - a)/sqrt(2), matching the covariance convention where the
vacuum has unit covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SelfCheckError, TruncationError
from .symplectic import _expm, _symmetrized

COHERENT_TAIL_TOL = 1e-12
SQUEEZED_TAIL_TOL = 1e-12
TMSV_TAIL_TOL = 1e-14
_DISPLACEMENT_SELF_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class FockState:
    """Pure state vector on a truncated Fock basis (one or two modes).

    For two modes the amplitudes are stored flattened with the first mode
    as the slow index: amplitudes[i * dim + j] = <i, j | psi>.
    """

    amplitudes: np.ndarray
    dim: int
    n_modes: int = 1
    lost_mass: float = 0.0

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        expected = self.dim**self.n_modes
        if amp.shape != (expected,):
            raise DimensionError(
                f"expected {expected} amplitudes for dim={self.dim}, "
                f"n_modes={self.n_modes}, got {amp.shape}"
            )
        norm = np.linalg.norm(amp)
        if norm == 0:
            raise ValueError("state vector is zero")
        amp = amp / norm
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True)
class FockDensity:
    """Hermitian, unit-trace density matrix on a truncated Fock basis."""

    matrix: np.ndarray
    dim: int

    def __post_init__(self):
        rho = np.asarray(self.matrix, dtype=complex)
        if rho.shape != (self.dim, self.dim):
            raise DimensionError(f"expected {self.dim}x{self.dim} matrix, got {rho.shape}")
        rho = _symmetrized(rho, "density matrix")
        tr = np.trace(rho).real
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density matrix trace {tr} != 1")
        if np.linalg.eigvalsh(rho)[0] < -1e-10:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
        rho.setflags(write=False)
        object.__setattr__(self, "matrix", rho)


def _log_factorials(n: int) -> np.ndarray:
    """log k! for k = 0, ..., n - 1."""
    return np.array([math.lgamma(k + 1.0) for k in range(n)])


def _laguerre_ratios(n: int, x: float) -> np.ndarray:
    """Associated Laguerre polynomials relative to their value at 0,
    L_k^(a)(x) / C(k + a, k) for k, a = 0, ..., n - 1, as table[k, a].

    The three-term recurrence in the degree k, written for the ratio p_k
    and its increment d_k = p_k - p_{k-1}:

        p_0 = 1,  d_1 = -x / (a + 1),
        d_{k+1} = (k d_k - x p_k) / (k + a + 1),  p_{k+1} = p_k + d_{k+1}.

    Unlike the recurrence for L itself, whose rounding errors grow like
    k^2 eps at small x, this stays within a few eps of the unit-bounded
    displacement-matrix elements for k, a <= 120 and x <= 30.
    """
    a = np.arange(n, dtype=float)
    table = np.empty((n, n))
    table[0] = 1.0
    d = -x / (a + 1.0)
    for k in range(1, n):
        table[k] = table[k - 1] + d
        d = (k * d - x * table[k]) / (k + a + 1.0)
    return table


def ladder(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Annihilation, creation and number matrices on a dim-level truncation.

    a|n> = sqrt(n)|n-1>; the commutator [a, a^dag] equals the identity
    except at the (dim-1, dim-1) entry, the unavoidable truncation artifact.
    """
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)
    adag = a.conj().T
    number = np.diag(np.arange(dim, dtype=float)).astype(complex)
    return a, adag, number


def quadratures(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Dimensionless quadrature matrices (q, p) on a dim-level truncation."""
    a, adag, _ = ladder(dim)
    q = (adag + a) / np.sqrt(2.0)
    p = 1j * (adag - a) / np.sqrt(2.0)
    return q, p


def coherent_vector(alpha: complex, dim: int, tail_tol: float = COHERENT_TAIL_TOL) -> FockState:
    """Coherent state |alpha> = e^{-|alpha|^2/2} sum alpha^n/sqrt(n!) |n>.

    Raises:
        TruncationError: if the truncated expansion loses more than
            ``tail_tol`` probability mass.
    """
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    if alpha == 0:
        amp = np.zeros(dim, dtype=complex)
        amp[0] = 1.0
        return FockState(amplitudes=amp, dim=dim, lost_mass=0.0)
    n = np.arange(dim)
    log_mag = n * np.log(np.abs(alpha)) - 0.5 * _log_factorials(dim)
    phase = np.exp(1j * n * np.angle(alpha))
    amp = np.exp(log_mag - 0.5 * abs(alpha) ** 2) * phase
    lost = 1.0 - float(np.sum(np.abs(amp) ** 2))
    if lost > tail_tol:
        raise TruncationError(
            f"coherent state with |alpha|={abs(alpha):.3g} loses {lost:.3e} mass at dim={dim}"
        )
    return FockState(amplitudes=amp, dim=dim, lost_mass=max(lost, 0.0))


def displacement_matrix(eta: complex, dim: int) -> np.ndarray:
    """Displacement operator D(eta) on a truncated Fock basis.

    Matrix elements from the associated-Laguerre closed form: with
    lo = min(n, m), l = |n - m| and x = |eta|^2,

        <n|D(eta)|m> = sqrt(lo!/(lo + l)!) e^{-x/2} L_lo^(l)(x)
                       * (eta^l if n >= m else (-eta*)^l),

    where the n < m triangle follows from D(eta)^dag = D(-eta).  With
    L_lo^(l) = C(lo + l, lo) p from :func:`_laguerre_ratios`, the
    magnitude sqrt((lo + l)!/lo!) |eta|^l e^{-x/2} / l! multiplying p is
    taken in log space (exactly 0 for l > 0 at eta = 0).  Unlike the
    alternating finite sum over ladder monomials, this does not cancel at
    large |eta| and dim.
    The result is cross-checked on the low block (n, m < dim/2) against
    exp(eta a^dag - eta* a) built on a basis padded by 10 + 2|eta|^2
    levels, a self-validating construction; the exponential is the
    scaling-and-squaring Pade method of Al-Mohy & Higham, SIAM J. Matrix
    Anal. Appl. 31, 970 (2009).

    Raises:
        SelfCheckError: if the closed form and the exponential disagree
            on the low block by more than 1e-9 (checked for
            |eta|^2 < dim/4).
    """
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    n = np.arange(dim)[:, None]
    m = np.arange(dim)[None, :]
    lo, ell = np.minimum(n, m), np.abs(n - m)
    x = abs(eta) ** 2
    # l log|eta|, with 0 log 0 = 0 on the diagonal
    log_mag = ell * math.log(abs(eta)) if eta != 0 else np.where(ell == 0, 0.0, -np.inf)
    log_fact = _log_factorials(dim)
    log_mag = log_mag - 0.5 * x + 0.5 * (log_fact[lo + ell] - log_fact[lo]) - log_fact[ell]
    # eta^l = |eta|^l e^{i l arg eta} below the diagonal, (-eta*)^l above it
    phase = np.where(n < m, (-1.0) ** ell, 1.0) * np.exp(1j * (n - m) * np.angle(eta))
    d = np.exp(log_mag) * _laguerre_ratios(dim, x)[lo, ell] * phase
    # The exponential of the truncated generator is itself inexact near
    # the cut, and the error reaches the low block (1e-5 at dim 12,
    # |eta| ~ 1).  Padding the basis beyond the spread of D(eta)|n>, which
    # grows with |eta|^2, makes the reference exact to ~1e-15 (checked for
    # dim <= 100).
    pad = 10 + int(2.0 * x)
    a, adag, _ = ladder(dim + pad)
    d_exp = _expm(eta * adag - np.conj(eta) * a)
    low = dim // 2
    dev = np.max(np.abs(d[:low, :low] - d_exp[:low, :low]))
    if dev > _DISPLACEMENT_SELF_CHECK_TOL and x < dim / 4:
        raise SelfCheckError(
            f"displacement self-check failed: closed form vs expm deviate by {dev:.3e}"
        )
    return d


def squeezed_vacuum_vector(
    r: float, theta: float = 0.0, dim: int = 60, tail_tol: float = SQUEEZED_TAIL_TOL
) -> FockState:
    """Single-mode squeezed vacuum in the Fock basis.

    Only even levels are populated:
    C_{2n} = (1/sqrt(cosh r)) (sqrt((2n)!)/(2^n n!)) (-e^{i theta} tanh r)^n,
    and the odd amplitudes are exactly zero.
    """
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    amp = np.zeros(dim, dtype=complex)
    if r == 0.0:
        amp[0] = 1.0
        return FockState(amplitudes=amp, dim=dim, lost_mass=0.0)
    n_pairs = (dim - 1) // 2
    n = np.arange(n_pairs + 1)
    log_fact = _log_factorials(2 * n_pairs + 1)
    log_mag = (
        0.5 * log_fact[2 * n]
        - n * np.log(2.0)
        - log_fact[n]
        + n * np.log(np.tanh(abs(r)))
        - 0.5 * np.log(np.cosh(r))
    )
    base = -np.exp(1j * theta) * np.sign(np.tanh(r))  # unit phase of -e^{i theta} tanh r
    amp[2 * n] = np.exp(log_mag) * base**n
    lost = 1.0 - float(np.sum(np.abs(amp) ** 2))
    if lost > tail_tol:
        raise TruncationError(
            f"squeezed vacuum with r={r:.3g} loses {lost:.3e} mass at dim={dim}"
        )
    return FockState(amplitudes=amp, dim=dim, lost_mass=max(lost, 0.0))


def tmsv_vector(
    r: float, theta: float = 0.0, dim: int = 40, tail_tol: float = TMSV_TAIL_TOL
) -> FockState:
    """Two-mode squeezed vacuum: (1/cosh r) sum (-e^{i theta} tanh r)^n |n,n>.

    Excitations happen strictly in pairs, so the state is Schmidt diagonal.
    Note that this expansion carries the squeeze-operator normalization in
    which the reduced thermal occupation is sinh^2(r); the covariance-level
    two-mode squeezed vacuum with the same covariance corresponds to
    ``tmsv_vector(r/2)`` (see README on the factor-of-two convention).

    Raises:
        TruncationError: if tanh(r)^(2 dim) exceeds ``tail_tol``.
    """
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")
    tail = np.tanh(abs(r)) ** (2 * dim)
    if tail > tail_tol:
        raise TruncationError(
            f"tmsv with r={r:.3g} has tail weight {tail:.3e} > {tail_tol:.1e} at dim={dim}"
        )
    n = np.arange(dim)
    coeff = (-np.exp(1j * theta) * np.tanh(r)) ** n / np.cosh(r)
    amp = np.zeros((dim, dim), dtype=complex)
    amp[n, n] = coeff
    lost = 1.0 - float(np.sum(np.abs(coeff) ** 2))
    return FockState(amplitudes=amp.reshape(-1), dim=dim, n_modes=2, lost_mass=max(lost, 0.0))


def thermal_density(nbar: float, dim: int) -> FockDensity:
    """Geometric (thermal) density matrix with mean occupation nbar."""
    if nbar < 0:
        raise ValueError("nbar must be non-negative")
    if nbar == 0:
        p = np.zeros(dim)
        p[0] = 1.0
    else:
        x = nbar / (1.0 + nbar)
        p = (1.0 - x) * x ** np.arange(dim)
        p = p / p.sum()  # renormalize the truncated geometric series
    return FockDensity(matrix=np.diag(p).astype(complex), dim=dim)


def density_from_state(state: FockState) -> FockDensity:
    """|psi><psi| for a single-mode pure state."""
    if state.n_modes != 1:
        raise DimensionError("density_from_state expects a single-mode state")
    v = state.amplitudes
    return FockDensity(matrix=np.outer(v, v.conj()), dim=state.dim)


def reduced_density(state: FockState, keep: int = 0) -> FockDensity:
    """Reduced density matrix of one mode of a two-mode pure state."""
    if state.n_modes != 2:
        raise DimensionError("reduced_density expects a two-mode state")
    if keep not in (0, 1):
        raise IndexError("keep must be 0 or 1")
    psi = state.amplitudes.reshape(state.dim, state.dim)
    rho = psi @ psi.conj().T if keep == 0 else psi.T @ psi.conj()
    rho = rho / np.trace(rho).real
    return FockDensity(matrix=rho, dim=state.dim)


def _expect1(obj: FockState | FockDensity, op: np.ndarray) -> complex:
    if isinstance(obj, FockDensity):
        return complex(np.trace(obj.matrix @ op))
    v = obj.amplitudes
    return complex(v.conj() @ (op @ v))


def _expect2(state: FockState, op1: np.ndarray, op2: np.ndarray) -> complex:
    """<psi| op1 (x) op2 |psi> for a two-mode pure state, without forming
    the dim^2 x dim^2 Kronecker product."""
    psi = state.amplitudes.reshape(state.dim, state.dim)
    return complex(np.sum(psi.conj() * (op1 @ psi @ op2.T)))


def covariance_from_fock(obj: FockState | FockDensity) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix from Fock-space expectations.

    Uses the dimensionless quadratures and the convention
    sigma_ij = <X_i X_j + X_j X_i> - 2 <X_i><X_j> (vacuum -> identity).
    Two-mode pure states are returned in pairwise order.

    Returns:
        (mean, cov) as float arrays of shape (2n,) and (2n, 2n).
    """
    if isinstance(obj, FockDensity):
        ops = quadratures(obj.dim)
        mean = np.array([_expect1(obj, op).real for op in ops])
        sym = np.array([[_expect1(obj, a @ b + b @ a).real for b in ops] for a in ops])
        return mean, sym - 2.0 * np.outer(mean, mean)
    if obj.n_modes == 1:
        # <X_i X_j + X_j X_i> = 2 Re <X_i psi|X_j psi> for Hermitian X_i, X_j,
        # so only matrix-vector products are needed.  A dim x dim product
        # (dim 60 and up) is large enough for OpenBLAS to thread, and its
        # idle workers then spin on a second core long after the call.
        v = obj.amplitudes
        xv = np.array([op @ v for op in quadratures(obj.dim)])
        mean = (v.conj() @ xv.T).real
        gram = (xv.conj() @ xv.T).real
        return mean, gram + gram.T - 2.0 * np.outer(mean, mean)
    if obj.n_modes != 2:
        raise DimensionError("covariance_from_fock supports one or two modes")
    dim = obj.dim
    q, p = quadratures(dim)
    eye = np.eye(dim, dtype=complex)
    # pairwise order (q1, p1, q2, p2); each entry is a (mode-1 op, mode-2 op) pair
    ops = [(q, eye), (p, eye), (eye, q), (eye, p)]
    mean = np.array([_expect2(obj, o1, o2).real for o1, o2 in ops])
    cov = np.empty((4, 4))
    for i, (a1, a2) in enumerate(ops):
        for j, (b1, b2) in enumerate(ops):
            sym = (_expect2(obj, a1 @ b1, a2 @ b2) + _expect2(obj, b1 @ a1, b2 @ a2)).real
            cov[i, j] = sym - 2.0 * mean[i] * mean[j]
    return mean, cov


def number_expectation(obj: FockState | FockDensity) -> float:
    """<n> for a single-mode state, or total <n1 + n2> for two modes."""
    if isinstance(obj, FockDensity) or obj.n_modes == 1:
        _, _, num = ladder(obj.dim)
        return _expect1(obj, num).real
    _, _, num = ladder(obj.dim)
    eye = np.eye(obj.dim, dtype=complex)
    return (_expect2(obj, num, eye) + _expect2(obj, eye, num)).real


def fock_entropy(rho: FockDensity) -> float:
    """Von Neumann entropy -sum lambda log lambda (natural log) of a density
    matrix, with 0 log 0 = 0."""
    vals = np.linalg.eigvalsh(rho.matrix)
    if vals[0] < -1e-10:
        raise ValueError(f"density matrix has negative eigenvalue {vals[0]:.3e}")
    vals = np.clip(vals, 0.0, None)
    nz = vals[vals > 0]
    return float(-np.sum(nz * np.log(nz)))
