import numpy as np
import pytest

from gaussphase import (
    DimensionError,
    GaussianState,
    Ordering,
    OrderingError,
    UnphysicalStateError,
    as_ordering,
    coherent,
    fock,
    gaussian_wigner_params,
    partial_trace,
    physicality_check,
    purity,
    squeezed_vacuum,
    tensor,
    thermal,
    two_mode_squeezed_vacuum,
    vacuum,
    von_neumann_entropy,
)
from gaussphase.states import PURITY_TOL


def test_vacuum_single_mode():
    state = vacuum(1)
    assert np.array_equal(state.cov, np.eye(2))
    assert np.array_equal(state.mean, np.zeros(2))
    report = physicality_check(state)
    assert report.ok
    assert report.min_symplectic_eigenvalue == pytest.approx(1.0)


def test_vacuum_two_modes():
    assert np.array_equal(vacuum(2).cov, np.eye(4))


def test_vacuum_zero_modes_rejected():
    with pytest.raises(DimensionError):
        vacuum(0)


def test_thermal_nu_one_is_vacuum():
    assert np.array_equal(thermal(1.0).cov, vacuum(1).cov)


def test_thermal_from_inverse_temperature():
    # nbar = 1/(e^beta - 1) and nu = 2 nbar + 1; oracle: coth(beta/2)
    beta = np.log(3.0)
    nbar = 1.0 / (np.exp(beta) - 1.0)
    assert nbar == pytest.approx(0.5)
    nu = 2.0 * nbar + 1.0
    assert nu == pytest.approx(1.0 / np.tanh(beta / 2.0))
    state = thermal(nu)
    assert np.allclose(state.cov, 2.0 * np.eye(2))


def test_thermal_purity_matches_fock_density():
    state = thermal(2.0)
    report = purity(state)
    # oracle: Tr(rho^2) of the geometric thermal density matrix at nbar = 0.5
    rho = fock.thermal_density(0.5, 200)
    tr_rho_sq = float(np.trace(rho.matrix @ rho.matrix).real)
    assert report.purity == pytest.approx(tr_rho_sq, abs=1e-10)
    assert report.purity == pytest.approx(0.5)
    assert not report.is_pure


def test_thermal_below_vacuum_rejected():
    with pytest.raises(UnphysicalStateError):
        thermal(0.5)


def test_coherent_zero_is_vacuum():
    state = coherent(0.0)
    assert np.array_equal(state.cov, np.eye(2))
    assert np.array_equal(state.mean, np.zeros(2))


@pytest.mark.parametrize(
    "alpha, expected_mean",
    [(1.0, [np.sqrt(2.0), 0.0]), (1j, [0.0, np.sqrt(2.0)])],
)
def test_coherent_mean_matches_fock_expectations(alpha, expected_mean):
    state = coherent(alpha)
    assert np.allclose(state.mean, expected_mean)
    # oracle: quadrature expectations in the truncated Fock expansion
    mean_fock, cov_fock = fock.covariance_from_fock(fock.coherent_vector(alpha, 60))
    assert np.allclose(state.mean, mean_fock, atol=1e-10)
    assert np.allclose(state.cov, cov_fock, atol=1e-10)


def test_coherent_multimode():
    state = coherent([1.0, 1j])
    assert state.n_modes == 2
    assert np.allclose(state.mean, [np.sqrt(2), 0.0, 0.0, np.sqrt(2)])


def test_squeezed_vacuum_r_zero():
    assert np.array_equal(squeezed_vacuum(0.0, 1.2).cov, np.eye(2))


def test_squeezed_vacuum_theta_zero_diagonal():
    r = 0.7
    cov = squeezed_vacuum(r, 0.0).cov
    assert np.allclose(cov, np.diag([np.exp(-2 * r), np.exp(2 * r)]), atol=1e-14)


@pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 2.0])
@pytest.mark.parametrize("theta", [0.0, 0.9, np.pi / 2, 4.0])
def test_squeezed_vacuum_preserves_area(r, theta):
    state = squeezed_vacuum(r, theta)
    assert np.linalg.det(state.cov) == pytest.approx(1.0, abs=1e-12)
    assert purity(state).is_pure


def test_tmsv_r_zero_is_vacuum():
    assert np.array_equal(two_mode_squeezed_vacuum(0.0).cov, np.eye(4))


def test_tmsv_theta_zero_structure():
    r = 1.0
    cov = two_mode_squeezed_vacuum(r, 0.0).cov
    assert np.allclose(cov[:2, :2], np.cosh(r) * np.eye(2))
    assert np.allclose(cov[2:, 2:], np.cosh(r) * np.eye(2))
    assert np.allclose(cov[:2, 2:], np.diag([-np.sinh(r), np.sinh(r)]))


@pytest.mark.parametrize("r", [0.0, 0.5, 1.5, 3.0])
def test_tmsv_partial_traces_are_thermal(r):
    state = two_mode_squeezed_vacuum(r, 0.4)
    for mode in (0, 1):
        reduced = partial_trace(state, [mode])
        assert np.max(np.abs(reduced.cov - np.cosh(r) * np.eye(2))) < 1e-12
        assert np.array_equal(reduced.mean, np.zeros(2))


def test_tensor_of_vacua():
    assert np.array_equal(tensor(vacuum(1), vacuum(1)).cov, vacuum(2).cov)


def test_tensor_thermal_vacuum():
    state = tensor(thermal(2.0), vacuum(1))
    assert np.array_equal(state.cov, np.diag([2.0, 2.0, 1.0, 1.0]))


def test_tensor_then_partial_trace_recovers_factors():
    a = squeezed_vacuum(0.6, 0.3)
    b = thermal(1.7)
    joint = tensor(a, b)
    assert np.array_equal(partial_trace(joint, [0]).cov, a.cov)
    assert np.array_equal(partial_trace(joint, [1]).cov, b.cov)


def test_tensor_ordering_mismatch():
    a = vacuum(1)
    b = as_ordering(vacuum(1), Ordering.BLOCKWISE)
    with pytest.raises(OrderingError):
        tensor(a, b)


def test_partial_trace_keep_all_is_identity():
    state = two_mode_squeezed_vacuum(1.0)
    kept = partial_trace(state, [0, 1])
    assert np.array_equal(kept.cov, state.cov)


def test_partial_trace_bad_indices():
    state = vacuum(2)
    with pytest.raises(IndexError):
        partial_trace(state, [])
    with pytest.raises(IndexError):
        partial_trace(state, [2])


def test_partial_trace_blockwise():
    state = as_ordering(two_mode_squeezed_vacuum(0.8), Ordering.BLOCKWISE)
    reduced = partial_trace(state, [1])
    assert np.allclose(reduced.cov, np.cosh(0.8) * np.eye(2), atol=1e-12)


@pytest.mark.parametrize(
    "make_state",
    [
        lambda: vacuum(2),
        lambda: thermal(3.0),
        lambda: coherent(1 - 2j),
        lambda: squeezed_vacuum(1.2, 0.7),
        lambda: two_mode_squeezed_vacuum(1.4, 2.0),
    ],
)
def test_constructors_produce_physical_states(make_state):
    state = make_state()
    assert np.array_equal(state.cov, state.cov.T)
    assert physicality_check(state).ok


@pytest.mark.parametrize(
    "make_state",
    [
        lambda: vacuum(2),
        lambda: coherent(0.5 + 0.5j),
        lambda: squeezed_vacuum(1.0, 0.2),
        lambda: two_mode_squeezed_vacuum(1.0, 0.2),
    ],
)
def test_pure_constructors_have_unit_symplectic_spectrum(make_state):
    state = make_state()
    assert np.max(np.abs(state.symplectic_spectrum() - 1.0)) < 1e-9
    report = purity(state)
    assert abs(report.purity - 1.0) < 1e-9 and report.is_pure


def test_physicality_check_detects_sub_vacuum():
    state = GaussianState(n_modes=1, mean=np.zeros(2), cov=0.5 * np.eye(2))
    # oracle: eigenvalues of sigma Omega^-1 are +/- 0.5j
    omega_inv = np.array([[0.0, 1.0], [-1.0, 0.0]])
    eigs = np.linalg.eigvals(state.cov @ omega_inv)
    assert sorted(np.abs(eigs.imag)) == pytest.approx([0.5, 0.5])
    report = physicality_check(state)
    assert not report.ok
    assert report.min_symplectic_eigenvalue == pytest.approx(0.5)
    assert report.min_eigenvalue < -1e-3


def test_physicality_check_squeezed_is_pure():
    report = physicality_check(squeezed_vacuum(1.0))
    assert report.ok
    assert report.min_symplectic_eigenvalue == pytest.approx(1.0, abs=1e-10)


def test_asymmetric_covariance_rejected():
    cov = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError):
        GaussianState(n_modes=1, mean=np.zeros(2), cov=cov)


def test_small_asymmetry_symmetrized():
    cov = np.eye(2)
    cov[0, 1] = 1e-12
    state = GaussianState(n_modes=1, mean=np.zeros(2), cov=cov)
    assert state.cov[0, 1] == state.cov[1, 0]


def test_wigner_params_vacuum():
    params = gaussian_wigner_params(vacuum(1))
    assert params.normalization == pytest.approx(1.0 / np.pi)
    assert np.allclose(params.cov_inv, np.eye(2))


def test_wigner_params_thermal():
    params = gaussian_wigner_params(thermal(2.0))
    assert params.normalization == pytest.approx(1.0 / (2.0 * np.pi))


def test_wigner_params_squeezed_normalization():
    params = gaussian_wigner_params(squeezed_vacuum(1.3, 0.4))
    assert params.normalization == pytest.approx(1.0 / np.pi)


def test_squeezed_vacuum_large_r_constructs():
    r = 10.0
    cov = squeezed_vacuum(r, 0.0).cov
    assert np.array_equal(cov, np.diag([np.exp(-2 * r), np.exp(2 * r)]))


@pytest.mark.filterwarnings("ignore::gaussphase.ConditioningWarning")
def test_squeezed_vacuum_large_r_is_pure():
    state = squeezed_vacuum(8.0, 0.0)
    assert abs(purity(state).purity - 1.0) <= PURITY_TOL
    assert von_neumann_entropy(state).total == pytest.approx(0.0, abs=1e-12)


def test_non_positive_definite_covariance_rejected():
    with pytest.raises(UnphysicalStateError):
        GaussianState(n_modes=1, mean=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_partial_trace_output_symmetric_and_read_only():
    state = tensor(two_mode_squeezed_vacuum(0.7, 0.4), thermal(1.5))
    reduced = partial_trace(state, [2, 0])
    assert np.array_equal(reduced.cov, reduced.cov.T)
    for array in (reduced.mean, reduced.cov):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
