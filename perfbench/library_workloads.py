"""In-process workloads: ``modes-many`` and ``few-mode-oracle``.

Each operation calls the library through module attributes
(``dynamics.generate_channel``, ``states.purity``, ...) so that the tracer
in ``tracing.py`` sees every call.  An operation returns its results; the
checks run afterwards, outside the timed region.

Every tolerance below mirrors a library constant or an acceptance test,
named next to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gaussphase import dynamics, entropy, fock, states, symplectic, wigner, williamson

# closed-form covariances of channel outputs: tests/test_acceptance.py criteria 01, 02
TOL_CLOSED_FORM = 1e-10
# Williamson residuals: criterion 03 (residual_diag, residual_symplectic)
TOL_RESIDUAL_DIAG = 1e-8
TOL_RESIDUAL_SYMPLECTIC = 1e-9
# symplectic eigenvalues, relative to max |cov|: williamson.DEFAULT_WILLIAMSON_TOL,
# the scale symplectic_spectrum itself accepts
TOL_SPECTRUM = williamson.DEFAULT_WILLIAMSON_TOL
# Wigner normalization: criterion 06; |W| <= 1/(pi hbar) + wigner.GRID_TOL
TOL_WIGNER_NORM = 1e-6
TOL_WIGNER_BOUND = wigner.GRID_TOL
# Fock-state peak |W(0, 0)| = 1/pi: criterion 06 (fock1 min dev)
TOL_FOCK_PEAK = 1e-4
# wavefunction transform against eval_fock: criterion 08
TOL_TRANSFORM = 1e-5
# oracle covariances against covariance-level states: tests/test_fock.py
TOL_ORACLE_COV = 1e-8
TOL_ORACLE_MEAN = 1e-10
# D(alpha)|0> against coherent amplitudes: tests/test_fock.py
TOL_DISPLACEMENT = 1e-10
# closed-form TMSV entanglement entropy: tests/test_entropy.py
TOL_ENTROPY_CLOSED = 1e-9
# Fock-oracle entropy against the closed form: criterion 05
TOL_ENTROPY_ORACLE = 1e-6

# modes-many: one operation is the pipeline at every mode count, in a seeded
# order, so each operation averages over sizes and its latency is steady
MODES_SIZES = (32, 64, 128, 256)
MODES_SIZES_SMOKE = (4, 8)
MODES_POOL = 3

# few-mode-oracle: one operation runs the pipeline on a batch of parameter
# sets; the latency of a single pipeline is bimodal under threaded BLAS, and
# a batch narrows the spread of operation latencies
FEW_MODE_BATCH = 3
FEW_MODE_POOL = 24
DIM_DISPLACEMENT = 24  # |alpha| < 1: passes the expm self-check (16 does not), tail below 1e-12
DIM_SQUEEZED = 60  # r <= 0.6: tail mass below squeezed_vacuum_vector's 1e-12
DIM_TMSV = 30  # tmsv_vector(r/2) with r <= 1: tail below 1e-14
WIGNER_POINTS = 61
# Grids reach 6.5 standard deviations, where W has fallen below the 1e-8
# edge level at which the library warns that a grid is too narrow.
GRID_REACH = 6.5
# wavefunction transform: Fock levels 0 and 1 on a small grid, sampled at
# the step criterion 08 uses, in a window wide enough for both
PSI_LEVELS = 2
PSI_GRID = (5.0, 13)  # half width, points
PSI_WINDOW = 6.5
PSI_STEP = 0.005


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _h(nu: float) -> float:
    """Entropy (nats) of one symplectic eigenvalue, written out independently."""
    if nu <= 1.0:
        return 0.0
    up, dn = (nu + 1.0) / 2.0, (nu - 1.0) / 2.0
    return up * math.log(up) - dn * math.log(dn)


def _integral(values: np.ndarray, grid: wigner.PhaseSpaceGrid) -> float:
    return float(np.trapezoid(np.trapezoid(values, grid.p, axis=1), grid.q))


def _check_grid(w: wigner.WignerGrid, label: str) -> None:
    norm = _integral(w.values, w.grid)
    _require(abs(norm - 1.0) <= TOL_WIGNER_NORM, f"{label}: normalization {norm!r}")
    peak = float(np.max(np.abs(w.values)))
    bound = 1.0 / (math.pi * w.grid.hbar)
    _require(peak <= bound + TOL_WIGNER_BOUND, f"{label}: |W| = {peak!r} above 1/(pi hbar)")


def _check_williamson(dec, spectrum, nu_sorted, cov, label: str) -> None:
    tol = TOL_SPECTRUM * max(1.0, float(np.max(np.abs(cov))))
    _require(_max_dev(spectrum, nu_sorted) <= tol, f"{label}: symplectic spectrum")
    _require(_max_dev(dec.nu, nu_sorted) <= tol, f"{label}: Williamson nu")
    _require(dec.residual_diag <= TOL_RESIDUAL_DIAG, f"{label}: residual_diag {dec.residual_diag!r}")
    _require(
        dec.residual_symplectic <= TOL_RESIDUAL_SYMPLECTIC,
        f"{label}: residual_symplectic {dec.residual_symplectic!r}",
    )


# ----------------------------------------------------------------- modes-many


@dataclass(frozen=True)
class ChainInput:
    """A harmonic chain with random frequencies and springs, an evolution
    time, and the thermal symplectic eigenvalues of the thermalized copy."""

    n: int
    f_bar: np.ndarray
    t: float
    nu: np.ndarray
    thermal_cov: np.ndarray


def chain_hamiltonian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Pairwise-ordered F for H = sum p^2/2 + sum w_i^2 q_i^2/2
    + sum k_i (q_i - q_{i+1})^2/2, positive definite by construction."""
    k = np.diag(rng.uniform(0.8, 1.2, n) ** 2)
    for i, spring in enumerate(rng.uniform(0.2, 1.0, n - 1)):
        k[i, i] += spring
        k[i + 1, i + 1] += spring
        k[i, i + 1] -= spring
        k[i + 1, i] -= spring
    f = np.zeros((2 * n, 2 * n))
    f[0::2, 0::2] = k
    f[1::2, 1::2] = np.eye(n)
    return f


def modes_inputs(rng: np.random.Generator, smoke: bool) -> list[list[ChainInput]]:
    sizes = MODES_SIZES_SMOKE if smoke else MODES_SIZES
    pool = []
    for _ in range(MODES_POOL):
        chains = []
        for n in rng.permutation(sizes):
            n = int(n)
            nu = rng.uniform(1.5, 4.0, n)
            chains.append(
                ChainInput(
                    n=n,
                    f_bar=chain_hamiltonian(rng, n),
                    t=float(rng.uniform(0.5, 2.0)),
                    nu=nu,
                    thermal_cov=np.diag(np.repeat(nu, 2)),
                )
            )
        pool.append(chains)
    return pool


def modes_warmup(pool: list[list[ChainInput]]) -> list[list[ChainInput]]:
    """The smallest chain alone: lazy set-up without a full operation."""
    return [[min(pool[0], key=lambda inp: inp.n)]]


def _modes_pipeline(inp: ChainInput) -> dict:
    n = inp.n
    ham = dynamics.QuadraticHamiltonian(n_modes=n, f_bar=inp.f_bar)
    channel = dynamics.generate_channel(ham, inp.t)
    pure = dynamics.apply_channel(channel, states.vacuum(n))
    thermal = states.GaussianState(n_modes=n, mean=np.zeros(2 * n), cov=inp.thermal_cov)
    mixed = dynamics.apply_channel(channel, thermal)
    return {
        "mixed": mixed,
        "spectrum": williamson.symplectic_spectrum(mixed.cov),
        "williamson": williamson.williamson_decompose(mixed.cov),
        "purity": states.purity(pure),
        "half_chain": entropy.entanglement_entropy(pure, range(n // 2)),
    }


def modes_op(chains: list[ChainInput]) -> list[dict]:
    return [_modes_pipeline(inp) for inp in chains]


def modes_check(chains: list[ChainInput], outs: list[dict]) -> None:
    for inp, out in zip(chains, outs):
        label = f"n={inp.n}"
        _check_williamson(out["williamson"], out["spectrum"], np.sort(inp.nu), out["mixed"].cov, label)
        _require(out["purity"].is_pure, f"{label}: channel on vacuum has purity {out['purity'].purity!r}")
        s = out["half_chain"].total
        _require(math.isfinite(s) and s >= 0.0, f"{label}: half-chain entropy {s!r}")


# ------------------------------------------------------------ few-mode-oracle


@dataclass(frozen=True)
class FewModeInput:
    r1: float
    theta1: float
    nu1: float
    alpha: complex
    k: int
    r2: float
    theta2: float
    nu2: np.ndarray
    thermal2_cov: np.ndarray
    grid_squeezed: wigner.PhaseSpaceGrid
    grid_fock: wigner.PhaseSpaceGrid
    grid_reduced: wigner.PhaseSpaceGrid
    grid_psi: wigner.PhaseSpaceGrid
    psi: wigner.SampledWavefunction


def _grid(half: float, points: int) -> wigner.PhaseSpaceGrid:
    grid = wigner.centered_grid(half, points)
    grid.q, grid.p  # fill the cached axes before timing
    return grid


def few_mode_inputs(rng: np.random.Generator, smoke: bool) -> list[list[FewModeInput]]:
    x = np.arange(-PSI_WINDOW, PSI_WINDOW + 1e-9, PSI_STEP)
    psis = [
        wigner.SampledWavefunction(
            x_min=-PSI_WINDOW, x_max=PSI_WINDOW, psi=wigner.oscillator_eigenfunction(k, x)
        )
        for k in range(PSI_LEVELS)
    ]
    flat = []
    for _ in range(FEW_MODE_BATCH * (2 if smoke else FEW_MODE_POOL)):
        r1 = float(rng.uniform(0.1, 0.6))
        r2 = float(rng.uniform(0.2, 1.0))
        k = int(rng.integers(0, 4))
        nu2 = rng.uniform(1.2, 3.0, 2)
        flat.append(
            FewModeInput(
                r1=r1,
                theta1=float(rng.uniform(0.0, 2 * math.pi)),
                nu1=float(rng.uniform(1.2, 3.0)),
                alpha=complex(*rng.uniform(-0.7, 0.7, 2)),
                k=k,
                r2=r2,
                theta2=float(rng.uniform(0.0, 2 * math.pi)),
                nu2=nu2,
                thermal2_cov=np.diag(np.repeat(nu2, 2)),
                grid_squeezed=_grid(GRID_REACH * math.sqrt(math.exp(2 * r1) / 2), WIGNER_POINTS),
                grid_fock=_grid(GRID_REACH * math.sqrt((2 * k + 1) / 2), WIGNER_POINTS),
                grid_reduced=_grid(GRID_REACH * math.sqrt(math.cosh(r2) / 2), WIGNER_POINTS),
                grid_psi=_grid(*PSI_GRID),
                psi=psis[k % PSI_LEVELS],
            )
        )
    return [flat[i : i + FEW_MODE_BATCH] for i in range(0, len(flat), FEW_MODE_BATCH)]


def few_mode_warmup(pool: list[list[FewModeInput]]) -> list[list[FewModeInput]]:
    return pool[:1]


def few_mode_op(batch: list[FewModeInput]) -> list[dict]:
    return [_few_mode_pipeline(inp) for inp in batch]


def few_mode_check(batch: list[FewModeInput], outs: list[dict]) -> None:
    for inp, out in zip(batch, outs):
        _few_mode_check_one(inp, out)


def _few_mode_pipeline(inp: FewModeInput) -> dict:
    out: dict = {}
    # one mode: squeeze channel, its thermalized copy, Wigner grids, oracle
    form1 = symplectic.make_symplectic_form(1)
    ch1 = dynamics.generate_channel(dynamics.squeeze_hamiltonian(inp.r1, inp.theta1), 1.0)
    out["sympl1"] = symplectic.check_symplectic(ch1.s, form1)
    sq = dynamics.apply_channel(ch1, states.vacuum(1))
    out["squeezed"] = sq
    out["purity1"] = states.purity(sq)
    mixed1 = dynamics.apply_channel(ch1, states.thermal(inp.nu1))
    out["mixed1"] = mixed1
    out["spectrum1"] = williamson.symplectic_spectrum(mixed1.cov, form1)
    out["williamson1"] = williamson.williamson_decompose(mixed1.cov, form1)
    w_sq = wigner.eval_gaussian(sq, inp.grid_squeezed)
    out["w_squeezed"] = w_sq
    out["bounds_squeezed"] = wigner.purity_and_bounds(w_sq)
    w_fock = wigner.eval_fock(inp.k, inp.grid_fock)
    out["w_fock"] = w_fock
    out["bounds_fock"] = wigner.purity_and_bounds(w_fock)
    out["w_psi"] = wigner.wigner_from_wavefunction(inp.psi, inp.grid_psi)
    out["w_psi_ref"] = wigner.eval_fock(inp.k % PSI_LEVELS, inp.grid_psi)
    coh = fock.coherent_vector(inp.alpha, DIM_DISPLACEMENT)
    out["coherent"] = coh
    out["displacement"] = fock.displacement_matrix(inp.alpha, DIM_DISPLACEMENT)
    out["coherent_moments"] = fock.covariance_from_fock(coh)
    out["squeezed_moments"] = fock.covariance_from_fock(
        fock.squeezed_vacuum_vector(inp.r1, inp.theta1, DIM_SQUEEZED)
    )
    # two modes: two-mode squeeze channel, entropy, reduced state, oracle
    form2 = symplectic.make_symplectic_form(2)
    ch2 = dynamics.generate_channel(dynamics.two_mode_squeeze_hamiltonian(inp.r2, inp.theta2), 1.0)
    out["sympl2"] = symplectic.check_symplectic(ch2.s, form2)
    tm = dynamics.apply_channel(ch2, states.vacuum(2))
    out["tmsv"] = tm
    out["purity2"] = states.purity(tm)
    thermal2 = states.GaussianState(n_modes=2, mean=np.zeros(4), cov=inp.thermal2_cov)
    mixed2 = dynamics.apply_channel(ch2, thermal2)
    out["mixed2"] = mixed2
    out["spectrum2"] = williamson.symplectic_spectrum(mixed2.cov, form2)
    out["williamson2"] = williamson.williamson_decompose(mixed2.cov, form2)
    out["entropy"] = entropy.entanglement_entropy(tm, [0])
    reduced = states.partial_trace(tm, [0])
    out["reduced"] = reduced
    w_red = wigner.eval_gaussian(reduced, inp.grid_reduced)
    out["w_reduced"] = w_red
    out["bounds_reduced"] = wigner.purity_and_bounds(w_red)
    tm_vec = fock.tmsv_vector(inp.r2 / 2, inp.theta2, DIM_TMSV)
    out["tmsv_moments"] = fock.covariance_from_fock(tm_vec)
    out["fock_entropy"] = fock.fock_entropy(fock.reduced_density(tm_vec, 0))
    return out


def squeezed_cov(r: float, theta: float) -> np.ndarray:
    """Closed-form covariance of the single-mode squeezed vacuum."""
    c2, s2 = math.cosh(2 * r), math.sinh(2 * r)
    return np.array(
        [
            [c2 - math.cos(theta) * s2, -math.sin(theta) * s2],
            [-math.sin(theta) * s2, c2 + math.cos(theta) * s2],
        ]
    )


def _tmsv_cov(r: float, theta: float) -> np.ndarray:
    ch = math.cosh(r)
    cs, sn = math.cos(theta) * math.sinh(r), math.sin(theta) * math.sinh(r)
    return np.array(
        [[ch, 0.0, -cs, -sn], [0.0, ch, -sn, cs], [-cs, -sn, ch, 0.0], [-sn, cs, 0.0, ch]]
    )


def _few_mode_check_one(inp: FewModeInput, out: dict) -> None:
    # one mode
    _require(out["sympl1"].ok, f"squeeze channel symplectic residual {out['sympl1'].residual!r}")
    sq_cov = out["squeezed"].cov
    _require(_max_dev(sq_cov, squeezed_cov(inp.r1, inp.theta1)) <= TOL_CLOSED_FORM, "squeezed cov")
    _require(out["purity1"].is_pure, f"squeezed purity {out['purity1'].purity!r}")
    _check_williamson(out["williamson1"], out["spectrum1"], [inp.nu1], out["mixed1"].cov, "mode 1")
    _check_grid(out["w_squeezed"], "squeezed grid")
    purity_integral = out["bounds_squeezed"].purity_integral
    _require(abs(purity_integral - 1.0) <= TOL_WIGNER_NORM, f"squeezed purity integral {purity_integral!r}")
    _check_grid(out["w_fock"], f"fock {inp.k} grid")
    peak = out["bounds_fock"].max_abs
    _require(abs(peak - 1.0 / math.pi) <= TOL_FOCK_PEAK, f"fock {inp.k} peak {peak!r}")
    dev = _max_dev(out["w_psi"].values, out["w_psi_ref"].values)
    _require(dev <= TOL_TRANSFORM, f"wavefunction transform deviates by {dev!r}")
    amplitudes = out["coherent"].amplitudes
    _require(_max_dev(out["displacement"][:, 0], amplitudes) <= TOL_DISPLACEMENT, "D(alpha)|0>")
    mean, cov = out["coherent_moments"]
    expected_mean = math.sqrt(2.0) * np.array([inp.alpha.real, inp.alpha.imag])
    _require(_max_dev(mean, expected_mean) <= TOL_ORACLE_MEAN, "coherent oracle mean")
    _require(_max_dev(cov, np.eye(2)) <= TOL_ORACLE_COV, "coherent oracle cov")
    mean, cov = out["squeezed_moments"]
    _require(_max_dev(mean, 0.0) <= TOL_ORACLE_MEAN, "squeezed oracle mean")
    _require(_max_dev(cov, sq_cov) <= TOL_ORACLE_COV, "squeezed oracle cov")
    # two modes
    _require(out["sympl2"].ok, f"two-mode channel symplectic residual {out['sympl2'].residual!r}")
    tm_cov = out["tmsv"].cov
    _require(_max_dev(tm_cov, _tmsv_cov(inp.r2, inp.theta2)) <= TOL_CLOSED_FORM, "tmsv cov")
    _require(out["purity2"].is_pure, f"tmsv purity {out['purity2'].purity!r}")
    _check_williamson(
        out["williamson2"], out["spectrum2"], np.sort(inp.nu2), out["mixed2"].cov, "modes 2"
    )
    closed = _h(math.cosh(inp.r2))
    s = out["entropy"].total
    _require(abs(s - closed) <= TOL_ENTROPY_CLOSED, f"tmsv entropy {s!r} vs closed form {closed!r}")
    reduced_cov = out["reduced"].cov
    _require(
        _max_dev(reduced_cov, math.cosh(inp.r2) * np.eye(2)) <= TOL_CLOSED_FORM, "reduced tmsv cov"
    )
    _check_grid(out["w_reduced"], "reduced grid")
    purity_integral = out["bounds_reduced"].purity_integral
    _require(
        abs(purity_integral - 1.0 / math.cosh(inp.r2)) <= TOL_WIGNER_NORM,
        f"reduced purity integral {purity_integral!r}",
    )
    mean, cov = out["tmsv_moments"]
    _require(_max_dev(mean, 0.0) <= TOL_ORACLE_MEAN, "tmsv oracle mean")
    _require(_max_dev(cov, tm_cov) <= TOL_ORACLE_COV, "tmsv oracle cov")
    s_fock = out["fock_entropy"]
    _require(abs(s_fock - closed) <= TOL_ENTROPY_ORACLE, f"fock entropy {s_fock!r} vs {closed!r}")
