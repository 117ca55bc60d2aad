"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
import warnings

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse import identity as sp_eye
from scipy.sparse import kron as sp_kron
from scipy.sparse.linalg import eigsh

from fock_oracle import evolved, moment_deviation, vacuum_vector
from gaussphase import (
    GridAdequacyWarning,
    PhaseSpaceGrid,
    QuadraticHamiltonian,
    apply_channel,
    centered_grid,
    coherent,
    entanglement_entropy,
    eval_fock,
    eval_gaussian,
    evolve_ode,
    fock,
    generate_channel,
    make_symplectic_form,
    normal_mode_ground_state,
    normalization,
    oscillator_eigenfunction,
    overlap,
    partial_trace,
    rotation_hamiltonian,
    squeeze_hamiltonian,
    squeezed_vacuum,
    symplectic_spectrum,
    thermal,
    two_mode_squeeze_hamiltonian,
    two_mode_squeezed_vacuum,
    vacuum,
    von_neumann_entropy,
    wigner_from_wavefunction,
    williamson_decompose,
    SampledWavefunction,
)


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_squeezed_vacuum_covariance():
    t0 = time.perf_counter()
    worst = 0.0
    for r in (0.3, 0.8, 1.5):
        for theta in (0.0, np.pi / 4, np.pi / 2):
            channel = generate_channel(squeeze_hamiltonian(r, theta), 1.0)
            got = apply_channel(channel, vacuum(1)).cov
            c2, s2 = np.cosh(2 * r), np.sinh(2 * r)
            closed = np.array(
                [
                    [c2 - np.cos(theta) * s2, -np.sin(theta) * s2],
                    [-np.sin(theta) * s2, c2 + np.cos(theta) * s2],
                ]
            )
            worst = max(worst, float(np.max(np.abs(got - closed))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    report(1, "squeezed-vacuum covariance", ok, f"max dev {worst:.2e}, {elapsed:.3f} s")


def test_criterion_02_tmsv_channel_and_partial_traces():
    worst_cov, worst_red = 0.0, 0.0
    for r in (0.25, 0.5, 1.0, 1.5, 2.0):
        for theta in (0.0, 0.7, np.pi / 2):
            channel = generate_channel(two_mode_squeeze_hamiltonian(r, theta), 1.0)
            got = apply_channel(channel, vacuum(2)).cov
            ch, cs, sn = (
                np.cosh(r),
                np.cos(theta) * np.sinh(r),
                np.sin(theta) * np.sinh(r),
            )
            closed = np.array(
                [
                    [ch, 0.0, -cs, -sn],
                    [0.0, ch, -sn, cs],
                    [-cs, -sn, ch, 0.0],
                    [-sn, cs, 0.0, ch],
                ]
            )
            worst_cov = max(worst_cov, float(np.max(np.abs(got - closed))))
            state = two_mode_squeezed_vacuum(r, theta)
            for mode in (0, 1):
                reduced = partial_trace(state, [mode])
                worst_red = max(
                    worst_red,
                    float(np.max(np.abs(reduced.cov - np.cosh(r) * np.eye(2)))),
                )
    ok = worst_cov <= 1e-10 and worst_red <= 1e-12
    report(2, "two-mode squeezed vacuum", ok, f"cov dev {worst_cov:.2e}, reduced dev {worst_red:.2e}")


def test_criterion_03_williamson_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    worst_diag, worst_sympl = 0.0, 0.0
    for dim in (4, 6):
        form = make_symplectic_form(dim // 2)
        for _ in range(100):
            a = rng.normal(size=(dim, dim))
            f = a.T @ a + 0.1 * np.eye(dim)
            dec = williamson_decompose(f, form)
            worst_diag = max(worst_diag, dec.residual_diag)
            worst_sympl = max(worst_sympl, dec.residual_symplectic)
    elapsed = time.perf_counter() - t0
    ok = worst_diag <= 1e-8 and worst_sympl <= 1e-9 and elapsed < 5.0
    report(
        3,
        "Williamson round trip (200 matrices)",
        ok,
        f"diag {worst_diag:.2e}, sympl {worst_sympl:.2e}, {elapsed:.2f} s",
    )


def _coupled_f(lam):
    return np.array(
        [
            [1.0 + 2 * lam, 0.0, -2 * lam, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [-2 * lam, 0.0, 1.0 + 2 * lam, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def _coupled_ground_fock_entropy(lam, dim=100):
    """Independent oracle: diagonalize the coupled-oscillator Hamiltonian in
    a truncated two-mode Fock basis and take the reduced-state entropy."""
    q_dense, p_dense = fock.quadratures(dim)
    q = csr_matrix(q_dense)
    p = csr_matrix(p_dense)
    eye = sp_eye(dim, format="csr")
    q_a, q_b = sp_kron(q, eye, format="csr"), sp_kron(eye, q, format="csr")
    p_a, p_b = sp_kron(p, eye, format="csr"), sp_kron(eye, p, format="csr")
    h = 0.5 * (p_a @ p_a + p_b @ p_b + q_a @ q_a + q_b @ q_b)
    delta = q_a - q_b
    h = h + lam * (delta @ delta)
    _, vec = eigsh(h.real.tocsc(), k=1, which="SA")
    ground = fock.FockState(amplitudes=vec[:, 0], dim=dim, n_modes=2)
    return fock.fock_entropy(fock.reduced_density(ground, keep=0))


def test_criterion_04_coupled_oscillator_example():
    worst_spec, worst_nu, worst_ent = 0.0, 0.0, 0.0
    for lam in (0.1, 0.75, 2.0):
        alpha = np.sqrt(1.0 + 4.0 * lam)
        f = _coupled_f(lam)
        nu_f = symplectic_spectrum(f)
        worst_spec = max(worst_spec, float(np.max(np.abs(nu_f - sorted([1.0, alpha])))))
        ground = normal_mode_ground_state(QuadraticHamiltonian(n_modes=2, f_bar=f))
        reduced = partial_trace(ground, [0])
        nu_red = reduced.symplectic_spectrum()[0]
        worst_nu = max(worst_nu, abs(nu_red - (1 + alpha) / (2 * np.sqrt(alpha))))
        s_gauss = entanglement_entropy(ground, [0]).total
        s_fock = _coupled_ground_fock_entropy(lam)
        worst_ent = max(worst_ent, abs(s_gauss - s_fock))
    ok = worst_spec <= 1e-10 and worst_nu <= 1e-10 and worst_ent <= 1e-6
    report(
        4,
        "coupled-oscillator ground state",
        ok,
        f"spectrum {worst_spec:.2e}, nu {worst_nu:.2e}, entropy {worst_ent:.2e}",
    )


def test_criterion_05_entropy_oracle_equivalence():
    worst = 0.0
    for nu in (1.0, 1.5, 2.0, 5.0, 10.0):
        gauss = von_neumann_entropy(thermal(nu)).total
        rho = fock.thermal_density((nu - 1.0) / 2.0, 200)
        worst = max(worst, abs(gauss - fock.fock_entropy(rho)))
    ok = worst <= 1e-6
    report(5, "Gaussian vs Fock thermal entropy", ok, f"max dev {worst:.2e}")


def test_criterion_06_wigner_normalization_and_bounds():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridAdequacyWarning)
        cases = []
        # vacuum: quadrature standard deviation 1/sqrt(2)
        cases.append(("vacuum", eval_gaussian(vacuum(1), centered_grid(6.0 / np.sqrt(2.0), 301))))
        for n in range(6):
            half = 6.0 * np.sqrt((2 * n + 1) / 2.0)
            cases.append((f"fock{n}", eval_fock(n, centered_grid(half, 301))))
        alpha = 1.0 + 1.0j
        half = 6.0 / np.sqrt(2.0)
        center_q, center_p = np.sqrt(2.0) * alpha.real, np.sqrt(2.0) * alpha.imag
        grid = PhaseSpaceGrid(
            q_min=center_q - half,
            q_max=center_q + half,
            p_min=center_p - half,
            p_max=center_p + half,
            n_q=301,
            n_p=301,
        )
        cases.append(("coherent", eval_gaussian(coherent(alpha), grid)))

        worst_norm, worst_bound = 0.0, 0.0
        for _, w in cases:
            worst_norm = max(worst_norm, abs(normalization(w) - 1.0))
            worst_bound = max(worst_bound, np.max(np.abs(w.values)) - 1.0 / np.pi)
        w1 = eval_fock(1, centered_grid(6.0 * np.sqrt(1.5), 301))
        origin_dev = abs(np.min(w1.values) + 1.0 / np.pi)
    ok = worst_norm <= 1e-6 and worst_bound <= 1e-6 and origin_dev <= 1e-4
    report(
        6,
        "Wigner normalization and bounds",
        ok,
        f"norm {worst_norm:.2e}, bound excess {worst_bound:.2e}, fock1 min dev {origin_dev:.2e}",
    )


def test_criterion_07_overlap_orthogonality():
    grid = centered_grid(11.0, 401)
    ws = [eval_fock(n, grid) for n in range(5)]
    worst = 0.0
    for m in range(5):
        for n in range(5):
            target = 1.0 if m == n else 0.0
            worst = max(worst, abs(overlap(ws[m], ws[n]) - target))
    ok = worst <= 1e-5
    report(7, "Fock overlap orthogonality", ok, f"max dev {worst:.2e}")


def test_criterion_08_wavefunction_transform_equivalence():
    t0 = time.perf_counter()
    grid = centered_grid(6.0, 201)
    x = np.arange(-9.0, 9.0 + 1e-9, 0.005)
    worst = 0.0
    for n in range(4):
        psi = SampledWavefunction(
            x_min=-9.0, x_max=9.0, psi=oscillator_eigenfunction(n, x)
        )
        w = wigner_from_wavefunction(psi, grid)
        worst = max(worst, float(np.max(np.abs(w.values - eval_fock(n, grid).values))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    report(8, "wavefunction Wigner transform", ok, f"sup dev {worst:.2e}, {elapsed:.2f} s")


def test_criterion_09_coherent_overlap():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        re = rng.uniform(-np.sqrt(2.0), np.sqrt(2.0), size=4)
        alpha = re[0] + 1j * re[1]
        beta = re[2] + 1j * re[3]
        sa = fock.coherent_vector(alpha, 60)
        sb = fock.coherent_vector(beta, 60)
        inner = np.vdot(sa.amplitudes, sb.amplitudes)
        closed = np.exp((-abs(beta) ** 2 - abs(alpha) ** 2 + 2 * beta * np.conj(alpha)) / 2.0)
        worst = max(worst, abs(inner - closed))
    ok = worst <= 1e-10
    report(9, "coherent-state overlaps", ok, f"max dev {worst:.2e}")


def test_criterion_10_fock_propagation_oracle():
    # the channel against the truncated Hamiltonian's unitary (see
    # tests/fock_oracle.py): squeezing, rotation and a displacing generator
    # on a squeezed start, and two-mode squeezing on the two-mode vacuum
    start = squeezed_vacuum(0.4, 0.9)
    general = QuadraticHamiltonian(n_modes=1, f_bar=[[0.4, 0.1], [0.1, 0.2]], alpha=[0.3, -0.2])
    cases = [
        (ham, start, fock.squeezed_vacuum_vector(0.4, 0.9, 80))
        for ham in (squeeze_hamiltonian(0.5, 0.0), rotation_hamiltonian(1), general)
    ]
    cases.append((two_mode_squeeze_hamiltonian(0.6, 0.3), vacuum(2), vacuum_vector(2, 16)))
    worst = 0.0
    for ham, gaussian, vector in cases:
        closed = apply_channel(generate_channel(ham, 1.0), gaussian)
        worst = max(worst, moment_deviation(evolved(vector, ham, ham.alpha, 1.0), closed))
    rotated = evolve_ode(rotation_hamiltonian(1), start, t=2.0 * np.pi, dt=1e-3)
    period_dev = float(np.max(np.abs(rotated.cov - start.cov)))
    ok = worst <= 1e-10 and period_dev <= 1e-12
    report(10, "Fock-space propagation oracle", ok, f"dev {worst:.2e}, period {period_dev:.2e}")
