"""Property-based checks of the Williamson decomposition and of purity
under symplectic channels, on random thermal spectra conjugated by random
symplectic matrices of up to six modes, and of the half-range Wigner
transform against the full-range complex sum, on complex superpositions of
oscillator eigenfunctions."""

import warnings

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaussphase import (
    GaussianState,
    GridAdequacyWarning,
    PhaseSpaceGrid,
    QuadraticHamiltonian,
    SampledWavefunction,
    apply_channel,
    generate_channel,
    oscillator_eigenfunction,
    purity,
    vacuum,
    wigner_from_wavefunction,
    williamson_decompose,
)
from gaussphase.states import PURITY_TOL


@st.composite
def conjugated_thermal(draw):
    """(nu, channel): a thermal spectrum and a channel generated by a random
    symmetric Hamiltonian with entries in [-0.3, 0.3] at unit time."""
    n = draw(st.integers(1, 6))
    nu = np.array(draw(st.lists(st.floats(1.0, 5.0), min_size=n, max_size=n)))
    gen = draw(arrays(np.float64, (2 * n, 2 * n), elements=st.floats(-0.3, 0.3)))
    ham = QuadraticHamiltonian(n_modes=n, f_bar=0.5 * (gen + gen.T))
    return nu, generate_channel(ham, 1.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(conjugated_thermal())
def test_williamson_round_trip(case):
    nu, channel = case
    n = nu.size
    thermal = GaussianState(n_modes=n, mean=np.zeros(2 * n), cov=np.diag(np.repeat(nu, 2)))
    f = apply_channel(channel, thermal).cov
    dec = williamson_decompose(f)
    scale = max(1.0, float(np.max(np.abs(f))))
    assert np.max(np.abs(dec.nu - np.sort(nu))) < 1e-8 * scale
    assert dec.residual_diag < 1e-8 * scale
    assert dec.residual_symplectic < 1e-9


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(conjugated_thermal())
def test_channel_on_vacuum_is_pure(case):
    nu, channel = case
    report = purity(apply_channel(channel, vacuum(nu.size)))
    assert abs(report.purity - 1.0) <= PURITY_TOL
    assert report.is_pure


def full_range_transform(psi, grid):
    """The full-range complex Wigner transform: trapezoid over both signs of
    x with the complex kernel e^{-i p x / hbar}, real part kept."""
    n_half = int(np.ceil((psi.x_max - psi.x_min) / psi.dx))
    x_quad = np.arange(-n_half, n_half + 1) * psi.dx

    def interp(points):
        re = np.interp(points, psi.x, psi.psi.real, left=0.0, right=0.0)
        im = np.interp(points, psi.x, psi.psi.imag, left=0.0, right=0.0)
        return re + 1j * im

    plus = interp(grid.q[:, None] + 0.5 * x_quad[None, :])
    minus = np.conj(interp(grid.q[:, None] - 0.5 * x_quad[None, :]))
    weights = np.full(x_quad.size, psi.dx)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    kernel = weights[:, None] * np.exp(-1j * np.outer(x_quad, grid.p) / grid.hbar)
    return ((plus * minus) @ kernel).real / (2.0 * np.pi * grid.hbar)


WINDOW = 8.0
coefficient = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def superposition_on_grid(draw):
    """(psi, grid): sum_k c_k psi_k for k = 0..3 with complex c_k, sampled on
    [-8, 8], and a grid with off-centre q and p ranges inside the window."""
    hbar = draw(st.sampled_from([1.0, 2.0]))
    coeffs = draw(st.lists(coefficient, min_size=4, max_size=4))
    assume(sum(abs(c) ** 2 for c in coeffs) > 0.01)
    x = np.linspace(-WINDOW, WINDOW, 801)
    samples = sum(c * oscillator_eigenfunction(k, x, hbar) for k, c in enumerate(coeffs))
    q_min = draw(st.floats(-WINDOW, WINDOW - 0.5))
    q_max = draw(st.floats(q_min + 0.5, WINDOW))
    p_min = draw(st.floats(-6.0, 5.5))
    p_max = draw(st.floats(p_min + 0.5, 6.0))
    grid = PhaseSpaceGrid(
        q_min=q_min,
        q_max=q_max,
        p_min=p_min,
        p_max=p_max,
        n_q=draw(st.integers(2, 12)),
        n_p=draw(st.integers(2, 12)),
        hbar=hbar,
    )
    return SampledWavefunction(x_min=-WINDOW, x_max=WINDOW, psi=samples), grid


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(superposition_on_grid())
def test_half_range_transform_matches_full_range(case):
    psi, grid = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridAdequacyWarning)
        values = wigner_from_wavefunction(psi, grid).values
    bound = 1.0 / (np.pi * grid.hbar)
    assert np.max(np.abs(values - full_range_transform(psi, grid))) <= 1e-12 * bound
