"""Quadratic Hamiltonians and the symplectic channels they generate.

A quadratic Hamiltonian H = (1/2) X^T Fbar X + alpha^T X (Fbar symmetric)
generates a Gaussian unitary whose phase-space action is the affine map

    mean -> S mean + d,      cov -> S cov S^T,

with S(t) = exp(Omega^-1 Fbar t) and
d(t) = t * Phi(Omega^-1 Fbar t) Omega^-1 alpha, where
Phi(M) = sum_m M^m / (m+1)!  (so d is well defined for singular M).

The same Hamiltonian can be specified as a quadratic form of ladder
operators, H = adag^T W a + adag^T G adag + a^T G^dag a, and converted to
quadrature form with :func:`ladder_to_quadrature`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DimensionError
from .states import SYMMETRY_TOL, GaussianState, _trusted_state
from .symplectic import (
    DEFAULT_SYMPLECTIC_TOL,
    Ordering,
    check_symplectic,
    make_symplectic_form,
    reorder,
)


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Symmetric quadratic form Fbar plus linear coefficients alpha."""

    n_modes: int
    f_bar: np.ndarray
    alpha: np.ndarray | None = None
    ordering: Ordering = Ordering.PAIRWISE

    def __post_init__(self):
        dim = 2 * self.n_modes
        f = np.asarray(self.f_bar, dtype=float)
        if f.shape != (dim, dim):
            raise DimensionError(f"f_bar must be {dim}x{dim}, got {f.shape}")
        asym = np.max(np.abs(f - f.T))
        if asym > SYMMETRY_TOL * max(1.0, np.max(np.abs(f))):
            raise ValueError(f"f_bar asymmetry {asym:.3e} exceeds tolerance")
        f = 0.5 * (f + f.T)
        a = np.zeros(dim) if self.alpha is None else np.asarray(self.alpha, dtype=float)
        if a.shape != (dim,):
            raise DimensionError(f"alpha must have length {dim}, got {a.shape}")
        f.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "f_bar", f)
        object.__setattr__(self, "alpha", a)


@dataclass(frozen=True)
class LadderHamiltonian:
    """Quadratic form of ladder operators: Hermitian W and complex G."""

    n_modes: int
    w: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        n = self.n_modes
        w = np.asarray(self.w, dtype=complex)
        g = np.asarray(self.g, dtype=complex)
        if w.shape != (n, n) or g.shape != (n, n):
            raise DimensionError(f"w and g must be {n}x{n}, got {w.shape} and {g.shape}")
        if np.max(np.abs(w - w.conj().T)) > SYMMETRY_TOL * max(1.0, np.max(np.abs(w))):
            raise ValueError("w must be Hermitian")
        w.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "g", g)


@dataclass(frozen=True)
class GaussianChannel:
    """Affine phase-space map (S, d) with S symplectic."""

    s: np.ndarray
    d: np.ndarray
    ordering: Ordering = Ordering.PAIRWISE

    def __post_init__(self):
        s = np.asarray(self.s, dtype=float)
        d = np.asarray(self.d, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2 != 0:
            raise DimensionError(f"s must be square with even dimension, got {s.shape}")
        if d.shape != (s.shape[0],):
            raise DimensionError(f"d must have length {s.shape[0]}, got {d.shape}")
        ok, residual = check_symplectic(s, ordering=self.ordering, tol=DEFAULT_SYMPLECTIC_TOL)
        if not ok:
            raise ValueError(f"s is not symplectic (residual {residual:.3e})")
        s.setflags(write=False)
        d.setflags(write=False)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "d", d)

    @property
    def n_modes(self) -> int:
        return self.s.shape[0] // 2


def ladder_to_quadrature(h: LadderHamiltonian) -> QuadraticHamiltonian:
    """Converts a ladder-form Hamiltonian to quadrature form.

    Assembles A = W + G + G^dag, B = W - G - G^dag, X = i (W - G + G^dag)
    into the blockwise matrix [[A, X], [X^dag, B]], whose real part is the
    symmetric quadrature form; the result is reordered to pairwise.

    Raises:
        ValueError: if the assembled matrix has an imaginary residue beyond
            tolerance, which signals a non-Hermitian input.
    """
    w, g = h.w, h.g
    gdag = g.conj().T
    a_blk = w + g + gdag
    b_blk = w - g - gdag
    x_blk = 1j * (w - g + gdag)
    n = h.n_modes
    f = np.empty((2 * n, 2 * n), dtype=complex)
    f[:n, :n] = a_blk
    f[:n, n:] = x_blk
    f[n:, :n] = x_blk.conj().T
    f[n:, n:] = b_blk
    f_bar = 0.5 * (f + f.T)
    residue = np.max(np.abs(f_bar.imag))
    if residue > SYMMETRY_TOL * max(1.0, np.max(np.abs(f_bar))):
        raise ValueError(f"assembled quadrature form has imaginary residue {residue:.3e}")
    f_bar = reorder(f_bar.real, Ordering.BLOCKWISE, Ordering.PAIRWISE, n)
    return QuadraticHamiltonian(n_modes=n, f_bar=f_bar, ordering=Ordering.PAIRWISE)


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


def generate_channel(h: QuadraticHamiltonian, t: float) -> GaussianChannel:
    """Exponentiates a quadratic Hamiltonian into a Gaussian channel.

    S = exp(Omega^-1 Fbar t) by scaling-and-squaring; the displacement is
    read off the augmented exponential exp([[M, 1], [0, 0]] t), whose
    top-right block equals t * Phi(M t), so no inversion of M is needed.
    """
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    # Imported here, not at module level: scipy.linalg roughly triples the
    # package's start-up time, and only this function needs it.
    from scipy.linalg import expm

    form = make_symplectic_form(h.n_modes, h.ordering)
    dim = 2 * h.n_modes
    m = form.omega_inv @ h.f_bar
    if np.any(h.alpha):
        aug = np.zeros((2 * dim, 2 * dim))
        aug[:dim, :dim] = m
        aug[:dim, dim:] = np.eye(dim)
        e_aug = expm(aug * t)
        s = e_aug[:dim, :dim]
        d = e_aug[:dim, dim:] @ (form.omega_inv @ h.alpha)
    else:
        s = expm(m * t)
        d = np.zeros(dim)
    if not np.all(np.isfinite(s)) or not np.all(np.isfinite(d)):
        raise ValueError("channel has non-finite entries (t too large for this Hamiltonian?)")
    return GaussianChannel(s=s, d=d, ordering=h.ordering)


def apply_channel(channel: GaussianChannel, state: GaussianState) -> GaussianState:
    """Applies (S, d): mean -> S mean + d, cov -> S cov S^T.

    A symplectic congruence of a valid state is a valid state, so the
    result is not re-validated; its covariance is symmetrized exactly.
    """
    if channel.ordering is not state.ordering:
        raise DimensionError(
            f"channel ordering {channel.ordering} does not match state {state.ordering}"
        )
    if channel.n_modes != state.n_modes:
        raise DimensionError(
            f"channel acts on {channel.n_modes} modes, state has {state.n_modes}"
        )
    s = channel.s
    cov = s @ state.cov @ s.T
    mean = s @ state.mean + channel.d
    return _trusted_state(state.n_modes, mean, 0.5 * (cov + cov.T), state.ordering)


HamiltonianLike = Union[QuadraticHamiltonian, Callable[[float], QuadraticHamiltonian]]


def evolve_ode(
    h: HamiltonianLike,
    state: GaussianState,
    t: float,
    dt: float,
) -> GaussianState:
    """Integrates the moment equations of motion with fixed-step RK4.

        d(mean)/dt = Omega^-1 (Fbar mean + alpha)
        d(cov)/dt  = (Omega^-1 Fbar) cov + cov (Omega^-1 Fbar)^T

    Serves as an independent numerical check of :func:`generate_channel`
    (agreement is O(dt^4)) and covers time-dependent Hamiltonians, passed
    as a callable t -> QuadraticHamiltonian.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return state
    h_of_t = h if callable(h) else (lambda _t: h)
    form = make_symplectic_form(state.n_modes, state.ordering)
    omega_inv = form.omega_inv

    def rhs(time, mean, cov):
        ht = h_of_t(time)
        a = omega_inv @ ht.f_bar
        dmean = a @ mean + omega_inv @ ht.alpha
        dcov = a @ cov + cov @ a.T
        return dmean, dcov

    n_steps = max(1, int(np.ceil(t / dt - 1e-12)))
    step = t / n_steps
    mean = state.mean.copy()
    cov = state.cov.copy()
    time = 0.0
    for _ in range(n_steps):
        k1m, k1c = rhs(time, mean, cov)
        k2m, k2c = rhs(time + step / 2, mean + step / 2 * k1m, cov + step / 2 * k1c)
        k3m, k3c = rhs(time + step / 2, mean + step / 2 * k2m, cov + step / 2 * k2c)
        k4m, k4c = rhs(time + step, mean + step * k3m, cov + step * k3c)
        mean = mean + step / 6 * (k1m + 2 * k2m + 2 * k3m + k4m)
        cov = cov + step / 6 * (k1c + 2 * k2c + 2 * k3c + k4c)
        time += step
    cov = 0.5 * (cov + cov.T)
    return GaussianState(n_modes=state.n_modes, mean=mean, cov=cov, ordering=state.ordering)
