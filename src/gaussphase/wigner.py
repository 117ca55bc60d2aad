"""Wigner functions on rectangular phase-space grids.

Closed-form evaluators for Gaussian and Fock states, a numerical Wigner
transform of sampled wavefunctions, and the standard diagnostics:
marginals, overlaps, purity integral, bounds and negativity volume.

Conventions: the grid carries an explicit hbar (default 1).  The
covariance machinery is dimensionless (vacuum variance 1 per quadrature),
and the bridge to grid coordinates is |alpha|^2 = (q^2 + p^2) / (2 hbar),
i.e. grid coordinates are sqrt(hbar) times the dimensionless quadratures.
Every Wigner function is normalized to 1 and bounded by 1 / (pi hbar).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError, GridAdequacyWarning, ParameterError
from .states import GaussianState, _cholesky
from .symplectic import _MAX_FLOATS, _checked, _finite, _frozen, _refusing_overflow, _trusted

GRID_TOL = 1e-6
N_MAX_LAGUERRE = 200
_BOUNDARY_LEAK = 1e-8


def _axis(lo: float, hi: float, n: int) -> np.ndarray:
    """Read-only sample axis: a cached axis that a caller could edit would
    change every later evaluation on its grid."""
    axis = np.linspace(lo, hi, n)
    axis.setflags(write=False)
    return axis


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Rectangular grid over one phase-space plane (q, p).

    Bounds or hbar that are not finite are refused with DomainError.  Any
    other grid that cannot be formed is refused with ParameterError: a span
    that is not positive or overflows, fewer than 2 points on an axis, more
    points than memory can address, or hbar <= 0.
    """

    q_min: float
    q_max: float
    p_min: float
    p_max: float
    n_q: int
    n_p: int
    hbar: float = 1.0

    def __post_init__(self):
        bounds = np.array([self.q_min, self.q_max, self.p_min, self.p_max, self.hbar])
        _finite(bounds, "grid bounds and hbar")
        with _refusing_overflow("grid span q_max - q_min or p_max - p_min", ParameterError):
            spans = bounds[[1, 3]] - bounds[[0, 2]]
        if (spans <= 0).any():  # a - b = 0 only if a = b, even for subnormal a - b
            raise ParameterError("grid bounds must satisfy q_max > q_min and p_max > p_min")
        if self.n_q < 2 or self.n_p < 2:
            raise ParameterError("need at least 2 points per axis")
        if self.n_q * self.n_p > _MAX_FLOATS:
            raise ParameterError(f"a {self.n_q} x {self.n_p} grid is beyond addressable memory")
        if self.hbar <= 0:
            raise ParameterError("hbar must be positive")

    @cached_property
    def q(self) -> np.ndarray:
        return _axis(self.q_min, self.q_max, self.n_q)

    @cached_property
    def p(self) -> np.ndarray:
        return _axis(self.p_min, self.p_max, self.n_p)

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / (self.n_q - 1)

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / (self.n_p - 1)

    def matches(self, other: "PhaseSpaceGrid") -> bool:
        """Same sample counts, hbar equal to a relative 1e-5 and each bound
        equal to 1e-5 of its axis's span, so the test holds at every scale."""
        tol_q = 1e-5 * max(self.q_max - self.q_min, other.q_max - other.q_min)
        tol_p = 1e-5 * max(self.p_max - self.p_min, other.p_max - other.p_min)
        with np.errstate(over="ignore"):  # a difference that overflows is inf: no match
            return (
                self.n_q == other.n_q
                and self.n_p == other.n_p
                and abs(self.q_min - other.q_min) <= tol_q
                and abs(self.q_max - other.q_max) <= tol_q
                and abs(self.p_min - other.p_min) <= tol_p
                and abs(self.p_max - other.p_max) <= tol_p
                and abs(self.hbar - other.hbar) <= 1e-5 * max(self.hbar, other.hbar)
            )


def centered_grid(half_width: float, n: int = 201, hbar: float = 1.0) -> PhaseSpaceGrid:
    """Square grid spanning [-half_width, half_width] on both axes."""
    return PhaseSpaceGrid(
        q_min=-half_width,
        q_max=half_width,
        p_min=-half_width,
        p_max=half_width,
        n_q=n,
        n_p=n,
        hbar=hbar,
    )


@dataclass(frozen=True)
class WignerGrid:
    """Sampled real Wigner values, values[i, j] = W(q_i, p_j)."""

    grid: PhaseSpaceGrid
    values: np.ndarray

    def __post_init__(self):
        vals = _checked(self.values, "values", (self.grid.n_q, self.grid.n_p))
        _frozen(self, values=_bounded(vals, self.grid))


def _bounded(values: np.ndarray, grid: PhaseSpaceGrid) -> np.ndarray:
    """``values`` after the test that every Wigner grid takes: each |W| is
    finite and at most 1/(pi hbar) + GRID_TOL; DomainError otherwise."""
    peak = float(np.abs(values).max())  # NaN if an entry is NaN
    if not math.isfinite(peak):
        raise DomainError("values has non-finite entries")
    bound = 1.0 / (np.pi * grid.hbar)
    if peak > bound + GRID_TOL:
        raise DomainError(f"|W| exceeds the bound 1/(pi hbar) = {bound:.6g} beyond tolerance")
    return values


def _warn_if_inadequate(values: np.ndarray, grid: PhaseSpaceGrid) -> None:
    mag = np.abs(values)
    peak = mag.max()
    if peak == 0:
        return
    edge = max(mag[0].max(), mag[-1].max(), mag[:, 0].max(), mag[:, -1].max())
    if edge > _BOUNDARY_LEAK * peak:
        warnings.warn(
            f"grid boundary carries {edge / peak:.2e} of the peak Wigner value; "
            "widen the grid for accurate integrals",
            GridAdequacyWarning,
            stacklevel=3,
        )


def eval_gaussian(state: GaussianState, grid: PhaseSpaceGrid) -> WignerGrid:
    """Samples the closed-form Gaussian Wigner function of a one-mode state.

    W(q, p) = exp(-xi^T sigma^-1 xi) / (pi sqrt(det sigma) hbar) with
    xi = (q/sqrt(hbar) - mean_q, p/sqrt(hbar) - mean_p).  With sigma = L L^T,
    1/sqrt(det sigma) = exp(-sum log diag L), as in purity, and the exponent
    is |y|^2 with L y = xi, one forward substitution over the grid axes.  A
    covariance that is not positive definite raises UnphysicalStateError.
    """
    if state.n_modes != 1:
        raise DimensionError("grid evaluation supports single-mode states only")
    chol = _cholesky(state.cov)
    with _refusing_overflow("the Gaussian Wigner function on this grid"):
        peak = np.exp(-np.log(np.diagonal(chol)).sum()) / (np.pi * grid.hbar)
        root_hbar = np.sqrt(grid.hbar)
        y1 = ((grid.q / root_hbar - state.mean[0]) / chol[0, 0])[:, None]
        y2 = (grid.p[None, :] / root_hbar - state.mean[1] - chol[1, 0] * y1) / chol[1, 1]
        values = peak * np.exp(-(y1**2 + y2**2))
    _warn_if_inadequate(values, grid)
    return _trusted(WignerGrid, grid=grid, values=_bounded(values, grid))


def eval_fock(n: int, grid: PhaseSpaceGrid) -> WignerGrid:
    """Wigner function of the n-th Fock state.

    W = ((-1)^n / (pi hbar)) e^{-2|alpha|^2} L_n(4 |alpha|^2) with
    |alpha|^2 = (q^2 + p^2) / (2 hbar).  The Laguerre polynomial is
    evaluated through the damped three-term recurrence
    Lt_{k+1} = ((2k+1-x) Lt_k - k Lt_{k-1}) / (k+1) applied directly to
    Lt_k = e^{-x/2} L_k(x), which never overflows.
    """
    if n < 0:
        raise ParameterError("n must be a non-negative integer")
    if n > N_MAX_LAGUERRE:
        raise ParameterError(f"n = {n} exceeds the stable range (n <= {N_MAX_LAGUERRE})")
    with _refusing_overflow("the Fock Wigner function on this grid"):
        x = 2.0 * (grid.q[:, None] ** 2 + grid.p[None, :] ** 2) / grid.hbar
        damped, damped_prev = np.exp(-0.5 * x), 0.0  # e^{-x/2} L_0, and L_{-1} = 0
        for k in range(n):
            damped, damped_prev = (
                ((2 * k + 1 - x) * damped - k * damped_prev) / (k + 1),
                damped,
            )
        values = ((-1.0) ** n / (np.pi * grid.hbar)) * damped
    _warn_if_inadequate(values, grid)
    return _trusted(WignerGrid, grid=grid, values=_bounded(values, grid))


@dataclass(frozen=True)
class SampledWavefunction:
    """Complex wavefunction sampled on a uniform position grid.

    Renormalized to unit L2 norm (trapezoidal rule) on construction;
    ``norm_deviation`` records how far the input was from normalized.
    """

    x_min: float
    x_max: float
    psi: np.ndarray
    norm_deviation: float = field(init=False, default=0.0)

    def __post_init__(self):
        psi = _checked(self.psi, "psi", np.shape(self.psi)[:1], complex)
        if psi.size < 2:
            raise DimensionError("need at least 2 samples")
        _finite(np.array([self.x_min, self.x_max]), "sampling window")
        if self.x_max <= self.x_min:
            raise ParameterError("x_max must exceed x_min")
        # the exact power of two 2^-e brings the largest real or imaginary part into
        # [1/2, 1): |psi|^2 neither overflows nor underflows, and 2^-e cancels below
        parts = np.ascontiguousarray(psi).view(float)
        e = math.frexp(float(np.abs(parts).max()))[1]
        psi = np.ldexp(parts, -e).view(complex)
        with _refusing_overflow("the norm of psi on the sampling window"):
            x = np.linspace(self.x_min, self.x_max, psi.size)
            norm_sq = np.trapezoid(np.abs(psi) ** 2, x)
        if norm_sq <= 0:
            raise DomainError("wavefunction has zero norm")
        try:
            deviation = abs(math.ldexp(norm_sq, 2 * e) - 1.0)
        except OverflowError:
            deviation = math.inf
        _frozen(self, psi=psi / np.sqrt(norm_sq), norm_deviation=float(deviation))

    @property
    def n_x(self) -> int:
        return self.psi.size

    @cached_property
    def x(self) -> np.ndarray:
        return _axis(self.x_min, self.x_max, self.n_x)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_x - 1)


def oscillator_eigenfunction(n: int, x: np.ndarray, hbar: float = 1.0) -> np.ndarray:
    """Harmonic-oscillator eigenfunction psi_n(x) at m = omega = 1.

    Uses the normalized recurrence
    phi_{n+1} = sqrt(2/(n+1)) z phi_n - sqrt(n/(n+1)) phi_{n-1},
    z = x / sqrt(hbar), which is stable for the moderate n used here.
    """
    if not hbar > 0:
        raise ParameterError("hbar must be positive")
    with _refusing_overflow("z = x / sqrt(hbar)"):
        z = np.asarray(x, dtype=float) / np.sqrt(hbar)
        phi, phi_prev = np.pi ** (-0.25) * np.exp(-0.5 * z**2), 0.0  # phi_0, and phi_{-1} = 0
        for k in range(n):
            phi, phi_prev = (
                np.sqrt(2.0 / (k + 1)) * z * phi - np.sqrt(k / (k + 1.0)) * phi_prev,
                phi,
            )
        return phi / hbar**0.25


def wigner_from_wavefunction(psi: SampledWavefunction, grid: PhaseSpaceGrid) -> WignerGrid:
    """Numerical Wigner transform of a sampled pure-state wavefunction.

    Evaluates W(q, p) = (1/2 pi hbar) int dx e^{-i p x / hbar} c(q, x) with
    c(q, x) = psi(q + x/2) psi*(q - x/2) by the trapezoidal rule at the
    sampling step over |x| <= x_max - x_min, with linear interpolation of
    psi at the shifted points (zero outside the sampling window).

    The interpolated correlation obeys c(q, -x) = conj(c(q, x)) exactly and
    the trapezoid weights are symmetric, so the sum folds onto x >= 0:
    W = (dx / pi hbar) Re sum'_{x >= 0} conj(c(q, x)) e^{i p x / hbar},
    where the primed sum halves the first and last terms.  W is real by
    construction.

    Linear interpolation of psi is exact on its half-step lattice: the
    samples with their midpoints between them.  The points q +- k dx / 2 of
    one row sit on that lattice shifted by one fraction g of a step, so the
    row's values of psi are one weighted sum of two contiguous lattice
    slices.  A row takes only the terms up to its support, the last k with
    both points inside the window; beyond it one factor is zero.

    The phase factors at x_k = k dx come by angle addition: with k = a m + b
    and m = isqrt(n - 1) + 1 for n quadrature points, e^{i p x_k / hbar} is
    the product of a coarse table over a and a fine table over b, each about
    sqrt(n) exponentials per p.  Each row then sums in two levels: its
    correlation, reshaped to (blocks, m), times the fine table, scaled by
    the coarse table and summed over the blocks.  Besides the result, a call
    allocates O(n_x + sqrt(n_x) n_p) memory, none of it growing with n_q.

    The wavefunction should be sampled at least 4x finer than the grid's
    q spacing for the advertised accuracy; a warning is emitted otherwise.
    """
    if grid.q_min < psi.x_min or grid.q_max > psi.x_max:
        raise ParameterError("grid q-range must lie inside the wavefunction window")
    if psi.dx > 0.25 * grid.dq:
        warnings.warn(
            f"wavefunction step {psi.dx:.3g} is coarser than a quarter of the grid "
            f"step {grid.dq:.3g}; results may miss the advertised tolerance",
            GridAdequacyWarning,
            stacklevel=2,
        )
    n_half = int(np.ceil((psi.x_max - psi.x_min) / psi.dx))
    n = n_half + 1
    m = math.isqrt(n - 1) + 1

    # the half-step lattice, with one zero beyond each end
    lattice = np.zeros(2 * psi.n_x + 1, complex)
    lattice[1:-1:2] = psi.psi
    lattice[2:-1:2] = 0.5 * (psi.psi[:-1] + psi.psi[1:])

    # row q sits at lattice position h = 2 (q - x_min) / dx.  Rounding in h
    # can miscount its support by one, so the last term is settled by the
    # comparisons that put a point inside the window or outside it
    q = grid.q
    half_dx = 0.5 * psi.dx
    position = (q - psi.x_min) / half_dx
    support = np.floor(np.minimum(position, (psi.x_max - q) / half_dx))

    def inside(k):
        return (q - k * half_dx >= psi.x_min) & (q + k * half_dx <= psi.x_max)

    support[inside(support + 1)] += 1
    support[~inside(support)] -= 1

    # e^{i p x_k / hbar} at x_k = (a m + b) dx is coarse(a) * fine(b)
    p_dx = grid.p * (psi.dx / grid.hbar)
    n_blocks = -(-n // m)
    coarse = np.exp(1j * np.outer(np.arange(n_blocks) * m, p_dx))
    fine = np.exp(1j * np.outer(np.arange(m), p_dx))

    psi_buf = np.empty(2 * n_half + 1, complex)
    correl_buf = np.empty(n_blocks * m, complex)
    block_buf = np.empty_like(coarse)
    values = np.empty((grid.n_q, grid.n_p))
    floor = np.floor(position)
    rows = support.astype(int).tolist(), floor.astype(int).tolist(), (position - floor).tolist()
    for row, k, h0, g in zip(values, *rows):
        # psi at the lattice positions h - k .. h + k, with h = h0 + g; lattice
        # position i is at index i + 1
        left = lattice[h0 - k + 1 : h0 + k + 2]
        right = lattice[h0 - k + 2 : h0 + k + 3]
        psi_row = np.subtract(right, left, out=psi_buf[: 2 * k + 1])
        psi_row *= g
        psi_row += left
        # conj(c) at x_j = j dx is psi(q - x_j/2) conj(psi(q + x_j/2))
        correl = np.conjugate(psi_row[k:], out=correl_buf[: k + 1])
        correl *= psi_row[k::-1]
        correl[0] *= 0.5  # trapezoid end weights
        if k == n_half:
            correl[k] *= 0.5
        blocks = k // m + 1
        correl_buf[k + 1 : blocks * m] = 0.0
        segments = correl_buf[: blocks * m].reshape(blocks, m)
        block = np.matmul(segments, fine, out=block_buf[:blocks])
        block *= coarse[:blocks]
        row[:] = block.sum(axis=0).real
    values *= psi.dx / (np.pi * grid.hbar)
    _warn_if_inadequate(values, grid)
    return _trusted(WignerGrid, grid=grid, values=_bounded(values, grid))


def marginal_q(w: WignerGrid) -> np.ndarray:
    """Position distribution: W integrated over p (trapezoidal)."""
    return np.trapezoid(w.values, w.grid.p, axis=1)


def marginal_p(w: WignerGrid) -> np.ndarray:
    """Momentum distribution: W integrated over q (trapezoidal)."""
    return np.trapezoid(w.values, w.grid.q, axis=0)


def _integrate2d(values: np.ndarray, grid: PhaseSpaceGrid) -> float:
    """The trapezoidal rule over p, then over q: np.trapezoid's arithmetic
    (step times pairwise sum, halved, then summed), bit for bit, without
    its argument handling."""
    q, p = grid.q, grid.p
    over_p = ((p[1:] - p[:-1]) * (values[:, 1:] + values[:, :-1]) / 2.0).sum(1)
    return float(((q[1:] - q[:-1]) * (over_p[1:] + over_p[:-1]) / 2.0).sum(0))


def normalization(w: WignerGrid) -> float:
    """Integral of W over the grid; 1 for an adequate grid."""
    return _integrate2d(w.values, w.grid)


def overlap(w1: WignerGrid, w2: WignerGrid) -> float:
    """Tr(rho1 rho2) = 2 pi hbar * double integral of W1 W2.

    Requires both functions sampled on the same grid.
    """
    if not w1.grid.matches(w2.grid):
        raise DimensionError("Wigner grids do not match")
    return 2.0 * np.pi * w1.grid.hbar * _integrate2d(w1.values * w2.values, w1.grid)


@dataclass(frozen=True)
class PurityBounds:
    """Diagnostics: purity integral, extremes, and negativity volume."""

    purity_integral: float
    max_abs: float
    min_value: float
    negativity_volume: float


def purity_and_bounds(w: WignerGrid) -> PurityBounds:
    """2 pi hbar * int W^2 (equals Tr rho^2 <= 1), the extreme values, and
    the integral of the negative part of W."""
    grid = w.grid
    return PurityBounds(
        purity_integral=2.0 * np.pi * grid.hbar * _integrate2d(w.values**2, grid),
        max_abs=float(np.abs(w.values).max()),
        min_value=float(w.values.min()),
        negativity_volume=_integrate2d(np.maximum(-w.values, 0.0), grid),
    )
