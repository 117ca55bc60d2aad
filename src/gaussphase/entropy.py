"""Von Neumann entropy of Gaussian states from the symplectic spectrum.

Each symplectic eigenvalue nu >= 1 of the covariance matrix contributes

    h(nu) = ((nu+1)/2) log((nu+1)/2) - ((nu-1)/2) log((nu-1)/2)

to the total entropy, with h(1) = 0 (the x log x limit).  For a pure
bipartite state, the entropy of either reduced state is the entanglement
entropy of the partition.

h is evaluated as log1p(b) + b log1p(1/b), b = (nu-1)/2: two positive
terms, so nothing cancels and h is accurate up to nu = 1e308 (the
difference above gives 0 for h(1e17) = 39.45).

The base of the logarithm is a parameter: "e" for nats (default) or "2"
for bits; it is never guessed silently, and any other is refused with
ParameterError.

:func:`entropy_from_spectrum` admits its spectrum like any public array;
:func:`von_neumann_entropy` passes a state's own spectrum, derived from its
admitted covariance, to the shared :func:`_entropy` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .errors import (
    DimensionError, ModeIndexError, NotPureError, ParameterError, UnphysicalStateError,
)
from .states import PHYSICALITY_TOL, GaussianState, partial_trace, purity
from .symplectic import _checked, _finite, _refusing_overflow

LogBase = Literal["e", "2"]

# nu within this margin of 1 is treated as exactly 1 to avoid log(0) noise
_NU_ONE_MARGIN = 1e-12


@dataclass(frozen=True)
class EntropyResult:
    """Total entropy and the per-symplectic-eigenvalue contributions."""

    total: float
    per_mode: np.ndarray
    log_base: LogBase


def _entropy_contribution(nu: np.ndarray, log_base: LogBase) -> np.ndarray:
    out = np.zeros_like(nu)
    active = nu > 1.0 + _NU_ONE_MARGIN
    b = (nu[active] - 1.0) / 2.0
    out[active] = np.log1p(b) + b * np.log1p(1.0 / b)
    if log_base == "2":
        out /= np.log(2.0)
    return out


def entropy_from_spectrum(nu: Iterable[float], log_base: LogBase = "e") -> EntropyResult:
    """Entropy of a Gaussian state given its symplectic eigenvalues.

    Raises:
        DimensionError: if ``nu`` is not a non-empty vector.
        DomainError: if an entry of ``nu`` is NaN or infinite.
        ParameterError: if ``log_base`` is neither "e" nor "2".
        UnphysicalStateError: if an entry of ``nu`` is below 1 - PHYSICALITY_TOL.
    """
    # an array is taken as it is; any other iterable, a 0-d array too, goes through list()
    nu = np.asarray(nu if isinstance(nu, np.ndarray) and nu.ndim else list(nu), dtype=float)
    nu = _checked(nu, "nu", nu.shape[:1])
    if not nu.size:
        raise DimensionError("nu must hold at least one symplectic eigenvalue, got shape (0,)")
    return _entropy(nu, log_base)


def _entropy(nu: np.ndarray, log_base: LogBase) -> EntropyResult:
    """The entropy of an admitted spectrum: a non-empty finite float vector,
    such as a state's own symplectic spectrum."""
    if log_base not in ("e", "2"):  # a tuple: an unhashable base is refused too
        raise ParameterError(f'unknown log_base {log_base!r} (expected "e" or "2")')
    if (nu < 1.0 - PHYSICALITY_TOL).any():
        raise UnphysicalStateError(
            f"symplectic eigenvalue {nu.min():.6g} < 1: entropy undefined"
        )
    with _refusing_overflow("the entropy of this spectrum"):
        per_mode = _entropy_contribution(np.maximum(nu, 1.0), log_base)
    return EntropyResult(total=float(per_mode.sum()), per_mode=per_mode, log_base=log_base)


def von_neumann_entropy(state: GaussianState, log_base: LogBase = "e") -> EntropyResult:
    """Von Neumann entropy of a Gaussian state (zero iff pure).

    Raises:
        ParameterError: if ``log_base`` is neither "e" nor "2".
        NotPositiveDefiniteError: if the covariance matrix cannot be factored.
        UnphysicalStateError: if a symplectic eigenvalue is below 1 - PHYSICALITY_TOL.
    """
    return _entropy(state.symplectic_spectrum(), log_base)


def entanglement_entropy(
    state: GaussianState,
    partition: Iterable[int],
    log_base: LogBase = "e",
) -> EntropyResult:
    """Entanglement entropy of a mode partition of a pure Gaussian state.

    Equals the entropy of the reduced state on ``partition`` and, by purity
    of the global state, also the entropy of the complementary modes.

    Raises:
        NotPureError: if the global state is mixed; the quantity is then
            not an entanglement measure and is refused rather than returned.
        ModeIndexError: if the partition is empty, out of range or repeats a
            mode (refused by :func:`partial_trace`), or is the whole system.
        ParameterError: if ``log_base`` is neither "e" nor "2".
    """
    report = purity(state)
    if not report.is_pure:
        raise NotPureError(
            f"global state is mixed (purity {report.purity:.9f}); "
            "entanglement entropy is undefined"
        )
    reduced = partial_trace(state, partition)
    if reduced.n_modes == state.n_modes:
        raise ModeIndexError("partition must be a proper subset of the modes")
    return von_neumann_entropy(reduced, log_base)


@dataclass(frozen=True)
class TmsvThermalParams:
    temperature: float
    partition_function: float


def tmsv_temperature(r: float, omega: float = 1.0) -> TmsvThermalParams:
    """Effective temperature and partition function of the reduced state of
    a two-mode squeezed vacuum, in units hbar = kB = 1.

    T = -omega / (2 log tanh r), Z = cosh^2 r; T -> 0 as r -> 0 (returned
    exactly as zero at r = 0).  For r >= 1, log tanh r is evaluated as
    -2 artanh(e^-2r), since tanh r rounds to 1 from r ~ 19 on.

    Raises:
        ParameterError: if r < 0 or omega <= 0.
        DomainError: if r or omega is not finite, or if Z = cosh^2 r (from
            r ~ 355.6 on) or T overflows.
    """
    _finite(np.array([r, omega]), "(r, omega)")
    if r < 0:
        raise ParameterError("r must be non-negative")
    if omega <= 0:
        raise ParameterError("omega must be positive")
    if r == 0.0:
        return TmsvThermalParams(temperature=0.0, partition_function=1.0)
    log_tanh = math.log(math.tanh(r)) if r < 1.0 else -2.0 * math.atanh(math.exp(-2.0 * r))
    with _refusing_overflow(f"tmsv_temperature({r}, {omega})"):
        partition_function = math.cosh(r) ** 2
        temperature = float(np.float64(-omega) / (2.0 * log_tanh))  # numpy: overflow raises
    return TmsvThermalParams(temperature=temperature, partition_function=partition_function)
