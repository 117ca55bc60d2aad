"""Truncated Fock-space states and operators, used as a brute-force oracle.

Everything here works directly with ladder-operator matrices on a
truncated number basis, independently of the covariance-matrix machinery,
so that every Gaussian-side claim can be cross-checked against explicit
Hilbert-space arithmetic.  Truncation dimensions are caller supplied; the
constructors reject non-finite parameters, verify the probability mass
lost to the cutoff against the ``*_TAIL_TOL`` constants and fail loudly
instead of silently renormalizing a bad truncation.  Every moment comes
from the one kernel :func:`_moments`.

Quadratures are dimensionless, q = (a^dag + a)/sqrt(2),
p = i (a^dag - a)/sqrt(2), matching the covariance convention where the
vacuum has unit covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, SelfCheckError, TruncationError
from .symplectic import _expm, _finite, _symmetrized

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
        _finite(amp, "amplitudes")
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


def _check_dim(dim: int) -> None:
    if dim < 2:
        raise DimensionError(f"dim must be >= 2, got {dim}")


def ladder(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Annihilation, creation and number matrices on a dim-level truncation.

    a|n> = sqrt(n)|n-1>; the commutator [a, a^dag] equals the identity
    except at the (dim-1, dim-1) entry, the unavoidable truncation artifact.
    """
    _check_dim(dim)
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


def coherent_vector(alpha: complex, dim: int) -> FockState:
    """Coherent state |alpha> = e^{-|alpha|^2/2} sum alpha^n/sqrt(n!) |n>.

    Raises:
        ValueError: if ``alpha`` is not finite.
        TruncationError: if the truncated expansion loses more than
            ``COHERENT_TAIL_TOL`` probability mass.
    """
    _check_dim(dim)
    _finite(alpha, "alpha")
    if alpha == 0:
        amp = np.zeros(dim, dtype=complex)
        amp[0] = 1.0
        return FockState(amplitudes=amp, dim=dim, lost_mass=0.0)
    n = np.arange(dim)
    log_mag = n * np.log(np.abs(alpha)) - 0.5 * _log_factorials(dim)
    phase = np.exp(1j * n * np.angle(alpha))
    amp = np.exp(log_mag - 0.5 * abs(alpha) ** 2) * phase
    lost = 1.0 - float(np.sum(np.abs(amp) ** 2))
    if lost > COHERENT_TAIL_TOL:
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
        ValueError: if ``eta`` is not finite.
        SelfCheckError: if the closed form and the exponential disagree
            on the low block by more than 1e-9 (checked for
            |eta|^2 < dim/4).
    """
    _check_dim(dim)
    _finite(eta, "eta")
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


def squeezed_vacuum_vector(r: float, theta: float = 0.0, dim: int = 60) -> FockState:
    """Single-mode squeezed vacuum in the Fock basis.

    Only even levels are populated:
    C_{2n} = (1/sqrt(cosh r)) (sqrt((2n)!)/(2^n n!)) (-e^{i theta} tanh r)^n,
    and the odd amplitudes are exactly zero.

    Raises:
        ValueError: if ``r`` or ``theta`` is not finite.
        TruncationError: if the truncated expansion loses more than
            ``SQUEEZED_TAIL_TOL`` probability mass.
    """
    _check_dim(dim)
    _finite(np.array([r, theta]), "squeezing (r, theta)")
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
    if lost > SQUEEZED_TAIL_TOL:
        raise TruncationError(
            f"squeezed vacuum with r={r:.3g} loses {lost:.3e} mass at dim={dim}"
        )
    return FockState(amplitudes=amp, dim=dim, lost_mass=max(lost, 0.0))


def tmsv_vector(r: float, theta: float = 0.0, dim: int = 40) -> FockState:
    """Two-mode squeezed vacuum: (1/cosh r) sum (-e^{i theta} tanh r)^n |n,n>.

    Excitations happen strictly in pairs, so the state is Schmidt diagonal.
    Note that this expansion carries the squeeze-operator normalization in
    which the reduced thermal occupation is sinh^2(r); the covariance-level
    two-mode squeezed vacuum with the same covariance corresponds to
    ``tmsv_vector(r/2)`` (see README on the factor-of-two convention).

    Raises:
        ValueError: if ``r`` or ``theta`` is not finite.
        TruncationError: if tanh(r)^(2 dim) exceeds ``TMSV_TAIL_TOL``.
    """
    _check_dim(dim)
    _finite(np.array([r, theta]), "squeezing (r, theta)")
    tail = np.tanh(abs(r)) ** (2 * dim)
    if tail > TMSV_TAIL_TOL:
        raise TruncationError(
            f"tmsv with r={r:.3g} has tail weight {tail:.3e} > {TMSV_TAIL_TOL:.1e} at dim={dim}"
        )
    n = np.arange(dim)
    coeff = (-np.exp(1j * theta) * np.tanh(r)) ** n / np.cosh(r)
    amp = np.zeros((dim, dim), dtype=complex)
    amp[n, n] = coeff
    lost = 1.0 - float(np.sum(np.abs(coeff) ** 2))
    return FockState(amplitudes=amp.reshape(-1), dim=dim, n_modes=2, lost_mass=max(lost, 0.0))


def thermal_density(nbar: float, dim: int) -> FockDensity:
    """Geometric (thermal) density matrix with mean occupation nbar.

    Raises:
        ValueError: if ``nbar`` is negative or not finite.
    """
    _check_dim(dim)
    _finite(nbar, "nbar")
    if nbar < 0:
        raise ValueError("nbar must be non-negative")
    x = nbar / (1.0 + nbar)
    p = (1.0 - x) * x ** np.arange(dim)  # 0^0 = 1 gives the vacuum at nbar = 0
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


def _moments(
    obj: FockState | FockDensity, ops: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Means <A_j> and Gram matrix <A_i^dag A_j>, where A_j runs over
    ``ops`` on mode 0, then on mode 1 (pairwise order); <X, Y> = vdot(X, Y).

    A_j acts along its mode's axis of a pure state's amplitudes Psi, of
    shape (dim,) or (dim, dim): <A_j> = <Psi, A_j Psi> and <A_i^dag A_j> =
    <A_i Psi, A_j Psi>: one mode needs only matrix-vector products (a dim-60
    matrix product leaves an OpenBLAS worker spinning on a second core).  A
    density matrix gives <A_j> = <1, A_j rho>, <A_i^dag A_j> = <A_i, A_j rho>.
    """
    if isinstance(obj, FockDensity):
        n_modes, ket, bra = 1, obj.matrix, np.eye(obj.dim)
    else:
        n_modes = obj.n_modes
        if n_modes > 2:
            raise DimensionError("the Fock oracle supports one or two modes")
        ket = bra = obj.amplitudes.reshape((obj.dim,) * n_modes)
    pairs = [(op, mode) for mode in range(n_modes) for op in ops]
    right = np.array([op @ ket if mode == 0 else ket @ op.T for op, mode in pairs])
    # the left factors A_i bra are A_i itself for a density matrix (bra = 1)
    left = right if bra is ket else np.array(ops)
    right = right.reshape(len(pairs), -1)
    mean = right @ bra.reshape(-1).conj()
    gram = left.reshape(len(pairs), -1).conj() @ right.T
    return mean, gram


def covariance_from_fock(obj: FockState | FockDensity) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and covariance matrix from Fock-space expectations.

    Uses the dimensionless quadratures and the convention
    sigma_ij = <X_i X_j + X_j X_i> - 2 <X_i><X_j> (vacuum -> identity);
    for Hermitian X_i the symmetrized moment is G_ij + G_ji with the real
    part G of the Gram matrix <X_i X_j>, so the result is exactly
    symmetric.  Two-mode pure states are returned in pairwise order.

    Returns:
        (mean, cov) as float arrays of shape (2n,) and (2n, 2n).
    """
    mean, gram = _moments(obj, quadratures(obj.dim))
    mean, gram = mean.real, gram.real
    return mean, gram + gram.T - 2.0 * np.outer(mean, mean)


def number_expectation(obj: FockState | FockDensity) -> float:
    """<n> for a single-mode state, or total <n1 + n2> for two modes."""
    a, _, _ = ladder(obj.dim)
    _, gram = _moments(obj, (a,))
    return float(np.trace(gram).real)


def fock_entropy(rho: FockDensity) -> float:
    """Von Neumann entropy -sum lambda log lambda (natural log) of a density
    matrix, with 0 log 0 = 0."""
    vals = np.linalg.eigvalsh(rho.matrix)
    if vals[0] < -1e-10:
        raise ValueError(f"density matrix has negative eigenvalue {vals[0]:.3e}")
    vals = np.clip(vals, 0.0, None)
    nz = vals[vals > 0]
    return float(-np.sum(nz * np.log(nz)))
