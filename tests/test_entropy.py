import numpy as np
import pytest

from gaussphase import (
    DimensionError,
    GaussianState,
    NotPureError,
    ParameterError,
    QuadraticHamiltonian,
    UnphysicalStateError,
    apply_channel,
    entanglement_entropy,
    entropy_from_spectrum,
    fock,
    generate_channel,
    normal_mode_ground_state,
    tensor,
    thermal,
    tmsv_temperature,
    two_mode_squeezed_vacuum,
    vacuum,
    von_neumann_entropy,
)
from test_williamson import coupled_oscillator_f


def geometric_entropy(nbar, cutoff=200):
    """Oracle: -sum p_n log p_n for the thermal (geometric) distribution."""
    x = nbar / (1.0 + nbar)
    p = (1.0 - x) * x ** np.arange(cutoff)
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def test_vacuum_entropy_is_zero():
    result = von_neumann_entropy(vacuum(2))
    assert result.total == 0.0
    assert np.array_equal(result.per_mode, np.zeros(2))


def test_thermal_entropy_against_geometric_oracle():
    # nu = 2 <=> nbar = 0.5
    result = von_neumann_entropy(thermal(2.0))
    expected = 1.5 * np.log(1.5) - 0.5 * np.log(0.5)
    assert result.total == pytest.approx(expected, abs=1e-12)
    assert result.total == pytest.approx(geometric_entropy(0.5), abs=1e-10)
    assert result.total == pytest.approx(0.9547712524422623, abs=1e-12)


@pytest.mark.parametrize("nu", [1.0, 1.5, 2.0, 5.0, 10.0])
def test_thermal_entropy_matches_fock_eigenvalue_entropy(nu):
    gauss = von_neumann_entropy(thermal(nu)).total
    rho = fock.thermal_density((nu - 1.0) / 2.0, 200)
    assert abs(gauss - fock.fock_entropy(rho)) < 1e-6


def test_tmsv_reduced_matches_fock_oracle():
    # The covariance-level TMSV(r) corresponds to the ladder-convention
    # tmsv_vector(r/2); both reduced states are thermal with nu = cosh r.
    r = 1.0
    gauss = von_neumann_entropy(thermal(np.cosh(r))).total
    rho = fock.reduced_density(fock.tmsv_vector(r / 2.0, 0.0, 80))
    assert abs(gauss - fock.fock_entropy(rho)) < 1e-7


def test_entropy_base_two():
    nats = von_neumann_entropy(thermal(3.0), "e").total
    bits = von_neumann_entropy(thermal(3.0), "2").total
    assert bits == pytest.approx(nats / np.log(2.0), abs=1e-12)


def test_entropy_rejects_unphysical_spectrum():
    with pytest.raises(UnphysicalStateError):
        entropy_from_spectrum([0.5])


@pytest.mark.parametrize("log_base", [2, "10", "E", "bits", None])
def test_unknown_log_base_is_refused(log_base):
    # a base the entropies do not know used to return nats labelled with it
    with pytest.raises(ParameterError, match="log_base"):
        entropy_from_spectrum([3.0], log_base)
    with pytest.raises(ParameterError, match="log_base"):
        von_neumann_entropy(thermal(3.0), log_base)


def test_empty_spectrum_is_refused():
    # it used to give a total of 0.0
    with pytest.raises(DimensionError, match="at least one"):
        entropy_from_spectrum([])


@pytest.mark.parametrize(
    "nu, expected",
    [(1e15, 34.845629214350744), (1e17, 39.45079940033883), (1e308, 709.5030614616061)],
)
def test_large_nu_entropy_without_cancellation(nu, expected):
    # h(nu) = log(nu/2) + 1 + O(1/nu^2); a difference of two nu log nu
    # terms gives 36.0 at 1e15 and 0.0 at 1e17, and overflows at 1e308
    total = entropy_from_spectrum([nu]).total
    assert total == pytest.approx(expected, rel=1e-15)
    assert total == pytest.approx(np.log(nu / 2) + 1, rel=1e-15)


def test_entropy_matches_difference_form_at_moderate_nu():
    nu = np.array([1.0 + 1e-11, 1.0 + 1e-6, 1.5, 2.0, 10.0, 1e3, 1e6])
    up, dn = (nu + 1) / 2, (nu - 1) / 2
    reference = up * np.log(up) - dn * np.log(dn)
    assert np.allclose(entropy_from_spectrum(nu).per_mode, reference, rtol=1e-9, atol=0)


def test_near_one_eigenvalue_contributes_zero():
    result = entropy_from_spectrum([1.0 + 1e-13])
    assert result.total == 0.0


class TestEntanglementEntropy:
    def test_vacuum_partition_is_zero(self):
        assert entanglement_entropy(vacuum(2), [0]).total == 0.0

    def test_tmsv_equals_thermal_entropy(self):
        r = 1.0
        s_e = entanglement_entropy(two_mode_squeezed_vacuum(r), [0]).total
        expected = von_neumann_entropy(thermal(np.cosh(r))).total
        assert s_e == pytest.approx(expected, abs=1e-10)

    def test_complement_gives_same_entropy(self):
        state = two_mode_squeezed_vacuum(1.3, 0.9)
        s0 = entanglement_entropy(state, [0]).total
        s1 = entanglement_entropy(state, [1]).total
        assert abs(s0 - s1) < 1e-9

    def test_mixed_global_state_rejected(self):
        mixed = tensor(thermal(2.0), thermal(2.0))
        with pytest.raises(NotPureError):
            entanglement_entropy(mixed, [0])

    def test_bad_partition_rejected(self):
        state = two_mode_squeezed_vacuum(1.0)
        with pytest.raises(IndexError):
            entanglement_entropy(state, [])
        with pytest.raises(IndexError):
            entanglement_entropy(state, [0, 1])

    def test_duplicate_partition_rejected(self):
        # [0, 0] must not be read as [0]
        with pytest.raises(IndexError, match="duplicate"):
            entanglement_entropy(two_mode_squeezed_vacuum(1.0), [0, 0])
        with pytest.raises(IndexError, match="duplicate"):
            entanglement_entropy(tensor(vacuum(2), vacuum(1)), [1, 1])

    def test_coupled_oscillator_example(self):
        lam = 0.75
        ham = QuadraticHamiltonian(n_modes=2, f_bar=coupled_oscillator_f(lam))
        ground = normal_mode_ground_state(ham)
        s_e = entanglement_entropy(ground, [0]).total
        nu = 3.0 / (2.0 * np.sqrt(2.0))
        expected = ((nu + 1) / 2) * np.log((nu + 1) / 2) - ((nu - 1) / 2) * np.log(
            (nu - 1) / 2
        )
        assert s_e == pytest.approx(expected, abs=1e-10)

    def test_monotone_in_coupling(self):
        values = []
        for lam in np.linspace(0.1, 2.0, 8):
            ham = QuadraticHamiltonian(n_modes=2, f_bar=coupled_oscillator_f(lam))
            ground = normal_mode_ground_state(ham)
            values.append(entanglement_entropy(ground, [0]).total)
        assert np.all(np.diff(values) > 0)


def test_entropy_invariant_under_gaussian_channels():
    rng = np.random.default_rng(17)
    base = tensor(thermal(1.8), thermal(1.2))
    for _ in range(15):
        f = rng.uniform(-1, 1, size=(4, 4))
        f = 0.5 * (f + f.T)
        alpha = rng.normal(size=4)
        ch = generate_channel(QuadraticHamiltonian(n_modes=2, f_bar=f, alpha=alpha), 1.0)
        moved = apply_channel(ch, base)
        assert abs(
            von_neumann_entropy(moved).total - von_neumann_entropy(base).total
        ) < 1e-9


class TestTmsvTemperature:
    def test_zero_squeezing_limit(self):
        result = tmsv_temperature(0.0)
        assert result.temperature == 0.0
        assert result.partition_function == 1.0

    def test_small_r_temperature_vanishes_slowly(self):
        # T ~ -1/(2 log r) -> 0 only logarithmically as r -> 0
        t_values = [tmsv_temperature(r).temperature for r in (1e-2, 1e-4, 1e-8)]
        assert t_values[0] > t_values[1] > t_values[2] > 0
        assert tmsv_temperature(1e-12).temperature < 0.02

    def test_r_one(self):
        result = tmsv_temperature(1.0, 1.0)
        assert result.temperature == pytest.approx(-1.0 / (2.0 * np.log(np.tanh(1.0))))
        assert result.partition_function == pytest.approx(np.cosh(1.0) ** 2)

    def test_occupation_consistency(self):
        # oracle: nbar from the Bose factor at temperature T must equal the
        # reduced-state occupation sinh^2 r of the ladder-convention TMSV
        r = 0.8
        result = tmsv_temperature(r, 1.0)
        beta = 1.0 / result.temperature
        nbar = 1.0 / (np.exp(beta) - 1.0)
        assert nbar == pytest.approx(np.sinh(r) ** 2, rel=1e-12)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            tmsv_temperature(-0.1)

    @pytest.mark.parametrize("r", [3.0, 5.0, 10.0, 15.0, 19.0, 25.0, 30.0])
    def test_large_r_matches_artanh_series(self, r):
        # T = omega / (4 artanh u) with u = e^-2r; the series of artanh to
        # u^5 leaves a relative remainder below u^6/7 < 4e-17 from r = 3 on.
        # tanh r rounds to 1 from r ~ 19 on, so log tanh r cannot be used.
        omega = 2.5
        u = np.exp(-2.0 * r)
        expected = omega / (4.0 * u * (1.0 + u**2 / 3.0 + u**4 / 5.0))
        assert tmsv_temperature(r, omega).temperature == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "r, omega", [(np.nan, 1.0), (np.inf, 1.0), (0.5, np.nan), (0.5, np.inf)]
    )
    def test_non_finite_input_rejected(self, r, omega):
        with pytest.raises(ValueError, match="non-finite"):
            tmsv_temperature(r, omega)

    def test_overflowing_partition_function_refused(self):
        # Z = cosh^2 r leaves the float range from r ~ 355.6 on; math.cosh
        # and the float power raise OverflowError, refused as ValueError
        assert np.isfinite(tmsv_temperature(355.0).partition_function)
        with pytest.raises(ValueError, match="non-finite"):
            tmsv_temperature(400.0)
