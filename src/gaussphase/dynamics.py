"""Quadratic Hamiltonians and the symplectic channels they generate.

A quadratic Hamiltonian H = (1/2) X^T Fbar X + alpha^T X (Fbar symmetric)
generates a Gaussian unitary whose phase-space action is the affine map

    mean -> S mean + d,      cov -> S cov S^T.

Every propagation is a channel built from one (2n+1)-square generator,
A = [[Omega^-1 Fbar, Omega^-1 alpha], [0, 0]].  A constant H gives
exp(A t) = [[S, d], [0, 1]] with S = exp(Omega^-1 Fbar t) and
d = t Phi(Omega^-1 Fbar t) Omega^-1 alpha, Phi(M) = sum_m M^m / (m+1)!,
which is defined for singular M.  An H(t) takes Magnus steps on A(t).

The same Hamiltonian can be specified as a quadratic form of ladder
operators, H = adag^T W a + adag^T G adag + a^T G^dag a, and converted to
quadrature form with :func:`ladder_to_quadrature`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import (
    DimensionError, DomainError, NoGroundStateError, NotPositiveDefiniteError, ParameterError,
)
from .states import GaussianState
from .symplectic import (
    _checked, _expm, _finite, _flushed, _frozen, _n_modes, _refusing_overflow, _symmetrized,
    _symplectic_check, _trusted, make_symplectic_form,
)
from .williamson import _decomposition


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Symmetric quadratic form Fbar plus linear coefficients alpha."""

    n_modes: int
    f_bar: np.ndarray
    alpha: np.ndarray | None = None

    def __post_init__(self):
        dim = 2 * self.n_modes
        f = _symmetrized(_checked(self.f_bar, "f_bar", (dim, dim)), "f_bar")
        a = _checked(np.zeros(dim) if self.alpha is None else self.alpha, "alpha", (dim,))
        _frozen(self, f_bar=f, alpha=a)


def normal_mode_ground_state(hamiltonian: QuadraticHamiltonian) -> GaussianState:
    """Ground state of a positive definite quadratic Hamiltonian.

    Symplectically diagonalizes the Hamiltonian matrix into decoupled
    normal modes, places each in its ground state, and maps the covariance
    back to the original modes.  The two steps collapse to

        sigma = Sigma^T Sigma,

    with Sigma the Williamson diagonalizer of the Hamiltonian matrix.  The
    admitted Fbar is factored without a second admission, and a
    ConditioningWarning names ``f_bar``.

    Args:
        hamiltonian: its linear part is ignored; a linear term only
            displaces the ground state's mean.

    Returns:
        GaussianState of the ground state (pure, mean zero).

    Raises:
        NoGroundStateError: if the Hamiltonian matrix is not positive
            definite (no normalizable ground state exists).
    """
    try:
        dec = _decomposition(hamiltonian.f_bar, make_symplectic_form(hamiltonian.n_modes), "f_bar")
    except NotPositiveDefiniteError as exc:
        raise NoGroundStateError(
            "Hamiltonian matrix is not positive definite "
            f"(min eigenvalue {exc.min_eigenvalue:.3e})"
        ) from None
    cov = dec.sigma.T @ dec.sigma
    mean = np.zeros(2 * hamiltonian.n_modes)
    return GaussianState(n_modes=hamiltonian.n_modes, mean=mean, cov=cov)


@dataclass(frozen=True)
class LadderHamiltonian:
    """Quadratic form of ladder operators: Hermitian W and complex G."""

    n_modes: int
    w: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        n = self.n_modes
        w = _symmetrized(_checked(self.w, "w", (n, n), complex), "w")
        g = _checked(self.g, "g", (n, n), complex)
        _frozen(self, w=w, g=g)


@dataclass(frozen=True)
class GaussianChannel:
    """Affine phase-space map (S, d) with S symplectic; ``residual`` is the
    residual of :func:`~gaussphase.symplectic.check_symplectic` on S."""

    s: np.ndarray
    d: np.ndarray
    residual: float = field(init=False, default=0.0)

    def __post_init__(self):
        n = _n_modes(self.s, "s")
        s = _checked(self.s, "s", (2 * n, 2 * n))
        d = _checked(self.d, "d", (2 * n,))
        _frozen(self, s=s, d=d, residual=_symplectic_residual(s, make_symplectic_form(n)))

    @property
    def n_modes(self) -> int:
        return self.s.shape[0] // 2


def _symplectic_residual(s: np.ndarray, omega: np.ndarray) -> float:
    """The residual of an admitted ``s``; DomainError if it is not symplectic."""
    ok, residual = _symplectic_check(s, omega)
    if not ok:
        raise DomainError(f"s is not symplectic (residual {residual:.3e})")
    return residual


def ladder_to_quadrature(h: LadderHamiltonian) -> QuadraticHamiltonian:
    """Converts a ladder-form Hamiltonian to quadrature form.

    With A = W + G + G^dag, B = W - G - G^dag and X = i (W - G + G^dag),
    the quadrature form is the real part of the Hermitian matrix with
    q-q block A, q-p block X, p-q block X^dag and p-p block B, filled
    directly in pairwise order.  W is Hermitian, so the real part is
    symmetric up to the rounding of the block sums, which
    :class:`QuadraticHamiltonian` symmetrizes away.
    """
    w, g = h.w, h.g
    gdag = g.conj().T
    a_blk = w + g + gdag
    b_blk = w - g - gdag
    x_blk = 1j * (w - g + gdag)
    n = h.n_modes
    f = np.empty((2 * n, 2 * n), dtype=complex)
    f[0::2, 0::2] = a_blk
    f[0::2, 1::2] = x_blk
    f[1::2, 0::2] = x_blk.conj().T
    f[1::2, 1::2] = b_blk
    return QuadraticHamiltonian(n_modes=n, f_bar=f.real)


def squeeze_hamiltonian(r: float, theta: float = 0.0) -> QuadraticHamiltonian:
    """Single-mode squeezing generator; at unit time the generated channel
    maps the vacuum to the squeezed vacuum with parameters (r, theta)."""
    g = np.array([[-0.5j * r * np.exp(1j * theta)]])
    return ladder_to_quadrature(LadderHamiltonian(n_modes=1, w=np.zeros((1, 1)), g=g))


def two_mode_squeeze_hamiltonian(r: float, theta: float = 0.0) -> QuadraticHamiltonian:
    """Two-mode squeezing generator; at unit time the generated channel maps
    the two-mode vacuum to the two-mode squeezed vacuum with parameter r.

    Note the generator convention: the symplectic matrix at unit time
    carries sinh(r/2) entries while the covariance it produces carries
    sinh(r), because the covariance is quadratic in S.
    """
    g = -0.25j * r * np.exp(1j * theta) * np.array([[0.0, 1.0], [1.0, 0.0]])
    return ladder_to_quadrature(LadderHamiltonian(n_modes=2, w=np.zeros((2, 2)), g=g))


def rotation_hamiltonian(n_modes: int = 1) -> QuadraticHamiltonian:
    """Free-oscillator generator Fbar = identity: a phase-space rotation
    with period 2 pi."""
    return QuadraticHamiltonian(n_modes=n_modes, f_bar=np.eye(2 * n_modes))


def _generator(h: QuadraticHamiltonian, omega: np.ndarray) -> np.ndarray:
    """The generator [[Omega^-1 Fbar, Omega^-1 alpha], [0, 0]] of ``h``, for
    the symplectic form ``omega`` of the modes it must act on."""
    n_modes = len(omega) // 2
    if h.n_modes != n_modes:
        raise DimensionError(f"hamiltonian acts on {h.n_modes} modes, state has {n_modes}")
    omega_inv = omega.T
    aug = np.zeros((2 * n_modes + 1, 2 * n_modes + 1))
    np.matmul(omega_inv, h.f_bar, out=aug[:-1, :-1])
    aug[:-1, -1] = omega_inv @ h.alpha
    return aug


def _channel(e_aug: np.ndarray, omega: np.ndarray) -> GaussianChannel:
    """The channel (S, d) of an exponential [[S, d], [0, 1]] of generators
    on the modes of ``omega``.  The solve inside ``_expm`` can return inf or
    NaN without a floating-point error, so S and d are tested for that."""
    s, d = _flushed(e_aug[:-1, :-1]), e_aug[:-1, -1] + 0.0  # no -0.0
    _finite(s, "s")
    _finite(d, "d")
    residual = _symplectic_residual(s, omega)
    return _trusted(GaussianChannel, s=s, d=d, residual=residual)


def generate_channel(h: QuadraticHamiltonian, t: float) -> GaussianChannel:
    """Exponentiates a quadratic Hamiltonian into a Gaussian channel.

    exp(A t) of the generator A (see the module docstring) by the
    scaling-and-squaring Pade method of Al-Mohy & Higham, SIAM J. Matrix
    Anal. Appl. 31, 970 (2009), so d needs no inversion of Omega^-1 Fbar,
    and a zero Fbar gives S = 1 exactly.  A non-finite ``t``, or one so
    large that S overflows, raises DomainError without a warning.  Entries
    of S below 2^-500 max|S| are stored as exact zeros (see
    :func:`~gaussphase.symplectic._flushed`), so that products with S do
    not run on subnormal numbers.
    """
    _finite(t, "t")
    omega = make_symplectic_form(h.n_modes)
    aug = _generator(h, omega)
    dim = 2 * h.n_modes
    with _refusing_overflow(f"the channel of this Hamiltonian at t = {t}"):
        aug *= t  # in place: one (2n+1)-square input is alive in _expm
        # d is linear in the last column; scaled exactly to a 1-norm <= 1, the
        # column cannot raise _expm's squaring count and cost S accuracy
        shift = max(0, math.frexp(np.abs(aug[:dim, dim]).max())[1] + dim.bit_length())
        aug[:dim, dim] = np.ldexp(aug[:dim, dim], -shift)
        e_aug = _expm(aug)
        e_aug[:dim, dim] = np.ldexp(e_aug[:dim, dim], shift)
        return _channel(e_aug, omega)


def apply_channel(channel: GaussianChannel, state: GaussianState) -> GaussianState:
    """Applies (S, d): mean -> S mean + d, cov -> S cov S^T.

    A symplectic congruence of a valid state is a valid state, so the
    result is not re-validated; its covariance is symmetrized exactly, and
    its entries below 2^-500 of the largest are stored as exact zeros.
    """
    if channel.n_modes != state.n_modes:
        raise DimensionError(
            f"channel acts on {channel.n_modes} modes, state has {state.n_modes}"
        )
    s = channel.s
    with _refusing_overflow("the channel output"):
        half = 0.5 * (s @ state.cov @ s.T)
        mean = s @ state.mean + channel.d
    return _trusted(GaussianState, n_modes=state.n_modes, mean=mean, cov=_flushed(half + half.T))


HamiltonianLike = Union[QuadraticHamiltonian, Callable[[float], QuadraticHamiltonian]]


def evolve_ode(
    h: HamiltonianLike,
    state: GaussianState,
    t: float,
    dt: float,
) -> GaussianState:
    """Evolves ``state`` for a time ``t`` >= 0 under ``h``.

    A constant Hamiltonian gives apply_channel(generate_channel(h, t),
    state), and ``dt`` is not used.  A time-dependent one, a callable
    t -> QuadraticHamiltonian, takes equal fourth-order Magnus steps of
    length k <= ``dt``: with generators A1, A2 at the Gauss points
    (1/2 -+ sqrt(3)/6) k of a step, it is exp(k/2 (A1 + A2) +
    sqrt(3) k^2/12 [A2, A1]) (Blanes, Casas, Oteo & Ros, Phys. Rep. 470,
    151 (2009)).  The steps' product is applied as one channel, so a pure
    state stays pure.

    Raises:
        DomainError: if ``t`` or ``dt`` is not finite, or the propagator
            overflows.
        ParameterError: if ``dt`` <= 0 or ``t`` < 0, or if a callable would
            take more than 2^53 steps, beyond which the step start
            k * (t / n_steps) no longer advances exactly.
        DimensionError: if the Hamiltonian (for a callable, each one it
            returns) does not act on the state's modes.
    """
    _finite(np.array([t, dt]), "(t, dt)")
    if dt <= 0:
        raise ParameterError("dt must be positive")
    if t < 0:
        raise ParameterError("t must be non-negative")
    if not callable(h):
        return apply_channel(generate_channel(h, t), state)
    omega = make_symplectic_form(state.n_modes)
    total = np.eye(2 * state.n_modes + 1)
    with _refusing_overflow(f"the propagator up to t = {t}"):  # an infinite t / dt too
        n_steps = max(1, math.ceil(t / dt - 1e-12))
        if n_steps > 2**53:  # beyond it, k * step no longer advances exactly
            raise ParameterError(f"t / dt = {t / dt:.3e} asks for more than 2^53 Magnus steps")
        step = t / n_steps
        nodes = (0.5 - math.sqrt(3.0) / 6.0) * step, (0.5 + math.sqrt(3.0) / 6.0) * step
        for k in range(n_steps):
            a1, a2 = (_generator(h(k * step + node), omega) for node in nodes)
            magnus = step / 2.0 * (a1 + a2) + math.sqrt(3.0) * step**2 / 12.0 * (a2 @ a1 - a1 @ a2)
            total = _expm(magnus) @ total
    return apply_channel(_channel(total, omega), state)
