"""Von Neumann entropy of Gaussian states from the symplectic spectrum.

Each symplectic eigenvalue nu >= 1 of the covariance matrix contributes

    h(nu) = ((nu+1)/2) log((nu+1)/2) - ((nu-1)/2) log((nu-1)/2)

to the total entropy, with h(1) = 0 (the x log x limit).  For a pure
bipartite state, the entropy of either reduced state is the entanglement
entropy of the partition.

The base of the logarithm is a parameter: "e" for nats (default) or "2"
for bits; it is never guessed silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .errors import NotPureError, UnphysicalStateError
from .states import PHYSICALITY_TOL, GaussianState, partial_trace, purity
from .symplectic import _finite

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
    nu = np.asarray(nu, dtype=float)
    out = np.zeros_like(nu)
    active = nu > 1.0 + _NU_ONE_MARGIN
    x = nu[active]
    up = (x + 1.0) / 2.0
    dn = (x - 1.0) / 2.0
    out[active] = up * np.log(up) - dn * np.log(dn)
    if log_base == "2":
        out /= np.log(2.0)
    return out


def entropy_from_spectrum(nu: Iterable[float], log_base: LogBase = "e") -> EntropyResult:
    """Entropy of a Gaussian state given its symplectic eigenvalues."""
    nu = np.asarray(list(nu), dtype=float)
    if np.any(nu < 1.0 - PHYSICALITY_TOL):
        raise UnphysicalStateError(
            f"symplectic eigenvalue {nu.min():.6g} < 1: entropy undefined"
        )
    per_mode = _entropy_contribution(np.maximum(nu, 1.0), log_base)
    return EntropyResult(total=float(per_mode.sum()), per_mode=per_mode, log_base=log_base)


def von_neumann_entropy(state: GaussianState, log_base: LogBase = "e") -> EntropyResult:
    """Von Neumann entropy of a Gaussian state (zero iff pure)."""
    return entropy_from_spectrum(state.symplectic_spectrum(), log_base)


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
        IndexError: if the partition is empty, out of range, repeats a
            mode, or is the whole system.
    """
    report = purity(state)
    if not report.is_pure:
        raise NotPureError(
            f"global state is mixed (purity {report.purity:.9f}); "
            "entanglement entropy is undefined"
        )
    partition = sorted(partition)
    if len(set(partition)) != len(partition):
        raise IndexError("partition contains duplicate mode indices")
    if len(partition) >= state.n_modes:
        raise IndexError("partition must be a proper subset of the modes")
    reduced = partial_trace(state, partition)
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
        ValueError: if r < 0, omega <= 0 or either is not finite.
    """
    _finite(np.array([r, omega]), "(r, omega)")
    if r < 0:
        raise ValueError("r must be non-negative")
    if omega <= 0:
        raise ValueError("omega must be positive")
    if r == 0.0:
        return TmsvThermalParams(temperature=0.0, partition_function=1.0)
    partition_function = math.cosh(r) ** 2  # OverflowError from r ~ 355.6 on
    log_tanh = math.log(math.tanh(r)) if r < 1.0 else -2.0 * math.atanh(math.exp(-2.0 * r))
    return TmsvThermalParams(
        temperature=float(-omega / (2.0 * log_tanh)), partition_function=partition_function
    )
