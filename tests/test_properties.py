"""Property-based checks of the Williamson decomposition and of purity
under symplectic channels, on random thermal spectra conjugated by random
symplectic matrices of up to six modes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaussphase import (
    GaussianState,
    QuadraticHamiltonian,
    apply_channel,
    generate_channel,
    purity,
    vacuum,
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
