"""Property-based checks of the Williamson decomposition, of purity under
symplectic channels and of the physicality test, on random spectra
conjugated by random symplectic matrices of up to six modes, and of the
half-range Wigner transform against the full-range complex sum, on complex
superpositions of oscillator eigenfunctions, and of the Cholesky-based
Gaussian Wigner function against its closed form with sigma^-1 and
det sigma."""

import warnings

import numpy as np
import pytest
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
    eval_gaussian,
    generate_channel,
    oscillator_eigenfunction,
    physicality_check,
    purity,
    squeezed_vacuum,
    vacuum,
    wigner_from_wavefunction,
    williamson_decompose,
)
from gaussphase.states import PHYSICALITY_TOL, PURITY_TOL


@st.composite
def conjugated_thermal(draw, nu=st.floats(1.0, 5.0)):
    """(nu, channel): a spectrum drawn from ``nu`` and a channel generated
    by a random symmetric Hamiltonian with entries in [-0.3, 0.3] at unit
    time."""
    n = draw(st.integers(1, 6))
    nu = np.array(draw(st.lists(nu, min_size=n, max_size=n)))
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


# on both sides of 1, with values just inside and just outside the tolerance
spectrum_around_one = st.one_of(
    st.sampled_from([1.0, 1.0 - 0.1 * PHYSICALITY_TOL, 1.0 - 10 * PHYSICALITY_TOL]),
    st.floats(0.5, 3.0),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(conjugated_thermal(spectrum_around_one))
def test_physicality_is_min_symplectic_eigenvalue(case):
    nu, channel = case
    n, nu_min = nu.size, float(nu.min())
    assume(abs(nu_min - (1.0 - PHYSICALITY_TOL)) > 1e-10)
    s = channel.s
    cov = s @ np.diag(np.repeat(nu, 2)) @ s.T
    state = GaussianState(n_modes=n, mean=np.zeros(2 * n), cov=0.5 * (cov + cov.T))
    report = physicality_check(state)
    assert report.ok == (nu_min >= 1.0 - PHYSICALITY_TOL)
    assert abs(report.min_symplectic_eigenvalue - nu_min) <= 1e-8 * nu_min


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


def assert_matches_full_range(psi, grid):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridAdequacyWarning)
        values = wigner_from_wavefunction(psi, grid).values
    bound = 1.0 / (np.pi * grid.hbar)
    assert np.max(np.abs(values - full_range_transform(psi, grid))) <= 1e-12 * bound


def chirped_samples(n_x):
    """A chirped, skewed wavefunction on [-8, 8], about 7e-3 at the edges."""
    x = np.linspace(-WINDOW, WINDOW, n_x)
    samples = (1.0 + 0.5j * x) * np.exp(-0.1 * x**2 + 0.7j * x)
    return SampledWavefunction(x_min=-WINDOW, x_max=WINDOW, psi=samples)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(superposition_on_grid())
def test_half_range_transform_matches_full_range(case):
    assert_matches_full_range(*case)


@pytest.mark.parametrize(
    "n_x, hbar, p_max",
    [(n, 1.0, 5.0) for n in (2, 3, 4, 5, 17, 26, 801, 2601)]
    + [(801, 0.5, 3.125)],  # |p x / hbar| reaches 3.125 * 16 / 0.5 = 100
)
def test_half_range_transform_matches_full_range_at_sample_count(n_x, hbar, p_max):
    """Sample counts around perfect squares cover every shape of the coarse
    and fine phase tables, including a truncated last coarse block."""
    grid = PhaseSpaceGrid(
        q_min=-3.0, q_max=2.5, p_min=-p_max, p_max=p_max, n_q=7, n_p=9, hbar=hbar
    )
    assert_matches_full_range(chirped_samples(n_x), grid)


HALF_STEP = 2.0**-6  # half the step of 513 samples on [-8, 8]: every q below is exact


def up(x):
    return np.nextafter(x, np.inf)


def down(x):
    return np.nextafter(x, -np.inf)


@pytest.mark.parametrize(
    "n_x, q_min, q_max, n_q",
    [
        # end rows have support 1, the centre row the whole window
        pytest.param(801, -WINDOW, WINDOW, 9, id="window"),
        pytest.param(513, -4.0, 4.0, 9, id="whole-steps"),
        pytest.param(513, -4.0 - HALF_STEP, 4.0 - HALF_STEP, 9, id="half-steps"),
        pytest.param(513, down(-4.0 - HALF_STEP), up(4.0 - HALF_STEP), 2, id="ulp-out"),
        pytest.param(513, up(-4.0 - HALF_STEP), down(4.0 - HALF_STEP), 2, id="ulp-in"),
        pytest.param(513, up(-WINDOW), down(WINDOW), 2, id="ulp-in-window"),
        # one ulp above a half step, where the rounded lattice position
        # overstates the support by one
        pytest.param(801, up(-8.0 + 807 * 0.01), up(-8.0 + 840 * 0.01), 2, id="ulp-rounded"),
        pytest.param(17, -WINDOW, WINDOW, 40, id="n_q>n_x"),
    ],
)
def test_half_range_transform_matches_full_range_at_edge_rows(n_x, q_min, q_max, n_q):
    """Rows on a half step or one ulp off it, where a row's last term has its
    point q +- k dx / 2 exactly on a window edge or one rounding away."""
    grid = PhaseSpaceGrid(q_min=q_min, q_max=q_max, p_min=-5.0, p_max=5.0, n_q=n_q, n_p=9)
    assert_matches_full_range(chirped_samples(n_x), grid)


@st.composite
def displaced_squeezed_on_grid(draw):
    """(state, grid): a squeezed state with r <= 3 and a displaced mean on
    a grid of a drawn hbar that spans four anti-squeezed widths around it."""
    r = draw(st.floats(0.0, 3.0))
    theta = draw(st.floats(0.0, 2 * np.pi))
    mean = np.array([draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))])
    hbar = draw(st.floats(0.1, 4.0))
    state = GaussianState(n_modes=1, mean=mean, cov=squeezed_vacuum(r, theta).cov)
    lo, hi = np.sqrt(hbar) * (mean - 4 * np.exp(r)), np.sqrt(hbar) * (mean + 4 * np.exp(r))
    grid = PhaseSpaceGrid(
        q_min=lo[0], q_max=hi[0], p_min=lo[1], p_max=hi[1], n_q=15, n_p=13, hbar=hbar
    )
    return state, grid


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(displaced_squeezed_on_grid())
def test_gaussian_wigner_matches_closed_form(case):
    state, grid = case
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridAdequacyWarning)
        values = eval_gaussian(state, grid).values
    xi = np.stack(np.meshgrid(grid.q, grid.p, indexing="ij"), axis=-1) / np.sqrt(grid.hbar)
    xi -= state.mean
    exponent = np.einsum("...i,ij,...j->...", xi, np.linalg.inv(state.cov), xi)
    peak = 1.0 / (np.pi * grid.hbar * np.sqrt(np.linalg.det(state.cov)))
    # a backward error eps |sigma| in either factorization moves the exponent
    # E by up to E eps kappa(sigma), and W by up to peak E e^-E eps kappa;
    # against a 40-digit evaluation both forms err by up to 1.7 eps kappa
    tol = 4 * np.finfo(float).eps * np.linalg.cond(state.cov) * peak
    assert np.max(np.abs(values - peak * np.exp(-exponent))) <= tol
