import json

import numpy as np
import pytest
from conftest import to_blockwise

from gaussphase import (
    DimensionError,
    GaussianChannel,
    GaussianState,
    apply_channel,
    check_symplectic,
    generate_channel,
    make_symplectic_form,
    squeeze_hamiltonian,
    symplectic_spectrum,
    two_mode_squeeze_hamiltonian,
    williamson_decompose,
)
from gaussphase.cli import load_state, main, state_from_dict

BLOCK = np.array([[0.0, -1.0], [1.0, 0.0]])


def test_single_mode_pairwise_form():
    form = make_symplectic_form(1)
    assert np.array_equal(form, BLOCK)
    assert np.array_equal(form.T, -BLOCK)


def test_two_mode_pairwise_is_direct_sum():
    form = make_symplectic_form(2)
    expected = np.zeros((4, 4))
    expected[:2, :2] = BLOCK
    expected[2:, 2:] = BLOCK
    assert np.array_equal(form, expected)


def blockwise_omega(n_modes):
    eye = np.eye(n_modes)
    return np.block([[np.zeros_like(eye), -eye], [eye, np.zeros_like(eye)]])


def test_single_mode_orderings_coincide():
    pair = make_symplectic_form(1)
    assert np.array_equal(to_blockwise(pair), pair)
    assert np.array_equal(pair, blockwise_omega(1))


def test_zero_modes_rejected():
    with pytest.raises(DimensionError):
        make_symplectic_form(0)


@pytest.mark.parametrize("n_modes", [1, 2, 5])
def test_form_is_a_read_only_array(n_modes):
    omega = make_symplectic_form(n_modes)
    assert type(omega) is np.ndarray
    assert omega.shape == (2 * n_modes, 2 * n_modes)
    assert not omega.flags.writeable
    with pytest.raises(ValueError):
        omega[0, 0] = 1.0


@pytest.mark.parametrize(
    "hamiltonian, thermal_nu",
    [
        (squeeze_hamiltonian(0.7, 0.3), [1.8]),
        (two_mode_squeeze_hamiltonian(0.9, 1.1), [1.3, 2.4]),
    ],
    ids=["one-mode", "two-mode"],
)
def test_passed_form_gives_the_same_bits_as_none(hamiltonian, thermal_nu):
    # the calls of the benchmark's few-mode pipeline, with Omega passed
    n = hamiltonian.n_modes
    omega = make_symplectic_form(n)
    channel = generate_channel(hamiltonian, 1.0)
    assert check_symplectic(channel.s, omega) == check_symplectic(channel.s)
    thermal = GaussianState(n, np.zeros(2 * n), np.diag(np.repeat(thermal_nu, 2)))
    mixed = apply_channel(channel, thermal).cov
    assert np.array_equal(symplectic_spectrum(mixed, omega), symplectic_spectrum(mixed))
    with_form, without = williamson_decompose(mixed, omega), williamson_decompose(mixed)
    for field in ("nu", "sigma"):
        assert np.array_equal(getattr(with_form, field), getattr(without, field))
    assert with_form.residual_diag == without.residual_diag
    assert with_form.residual_symplectic == without.residual_symplectic


@pytest.mark.parametrize("n_modes", range(1, 7))
@pytest.mark.parametrize(
    "blockwise", [False, True], ids=["Ordering.PAIRWISE", "Ordering.BLOCKWISE"]
)
def test_form_identities(n_modes, blockwise):
    omega = make_symplectic_form(n_modes)
    omega_inv = omega.T
    if blockwise:
        omega, omega_inv = to_blockwise(omega), to_blockwise(omega_inv)
        assert np.array_equal(omega, blockwise_omega(n_modes))
    assert np.array_equal(omega, -omega.T)
    assert np.allclose(omega @ omega, -np.eye(2 * n_modes), atol=0)
    assert np.array_equal(omega_inv, -omega)
    assert np.allclose(omega_inv @ omega @ omega, omega, atol=0)


def test_check_symplectic_identity():
    ok, residual = check_symplectic(np.eye(2))
    assert ok
    assert residual == 0.0


def test_check_symplectic_squeeze_direct_multiplication():
    r = 0.5
    m = np.diag([np.exp(-r), np.exp(r)])
    form = make_symplectic_form(1)
    # independent oracle: carry out the multiplication by hand
    oracle = m @ form.T @ m.T
    assert np.max(np.abs(oracle - form.T)) < 1e-15
    ok, residual = check_symplectic(m, form)
    assert ok and residual < 1e-15


def test_check_symplectic_rejects_non_symplectic():
    m = np.diag([2.0, 1.0])
    form = make_symplectic_form(1)
    expected_residual = np.max(np.abs(m @ form.T @ m.T - form.T))
    ok, residual = check_symplectic(m, form)
    assert not ok
    assert residual == pytest.approx(expected_residual)
    assert residual == pytest.approx(1.0)  # 2*1 - 1 on the off-diagonal


def test_check_symplectic_dimension_mismatch():
    with pytest.raises(DimensionError):
        check_symplectic(np.eye(4), make_symplectic_form(1))
    with pytest.raises(DimensionError):
        check_symplectic(np.eye(3))


@pytest.mark.parametrize("theta", [0.0, 0.3, 1.0, 2.5])
def test_check_symplectic_tolerance_scales_with_entries(theta):
    # the residual of m Omega^-1 m^T grows like eps times its largest
    # summed term; at r = 10 the terms reach e^20 and the residual about 1e-9
    for r in (1.0, 5.0, 8.0, 9.0, 10.0):
        s = generate_channel(squeeze_hamiltonian(r, theta), 1.0).s
        assert check_symplectic(s).ok
    assert check_symplectic(generate_channel(two_mode_squeeze_hamiltonian(15.0, theta), 1.0).s).ok
    assert not check_symplectic(np.diag([2.0, 1.0])).ok
    assert not check_symplectic(np.diag([1e4, 1e4])).ok
    # large entries that never meet in one term earn no looser bound
    assert not check_symplectic(np.diag([1e5, 5e-6])).ok
    assert not check_symplectic(np.diag([1e4, 1.0001e-4])).ok


def test_channel_rejects_area_changing_matrix():
    with pytest.raises(ValueError, match="not symplectic"):
        GaussianChannel(np.diag([1e5, 5e-6]), np.zeros(2))


# Blockwise ("qqpp") vectors and matrices exist only in files; the CLI
# loader converts them to pairwise order.


def load_blockwise(n_modes, mean, cov):
    return state_from_dict({"n_modes": n_modes, "ordering": "qqpp", "mean": mean, "cov": cov})


def test_reorder_vector_blockwise_to_pairwise():
    state = load_blockwise(2, [1.0, 2.0, 3.0, 4.0], np.eye(4).tolist())  # (q1, q2, p1, p2)
    assert np.array_equal(state.mean, [1.0, 3.0, 2.0, 4.0])  # (q1, p1, q2, p2)


def test_reorder_two_mode_squeezed_covariance(tmp_path):
    # blockwise (q1, q2, p1, p2) covariance of the two-mode squeezed vacuum
    r, theta = 0.8, 0.6
    ch, cs, sn = np.cosh(r), np.cos(theta) * np.sinh(r), np.sin(theta) * np.sinh(r)
    blockwise = [
        [ch, -cs, 0.0, -sn],
        [-cs, ch, -sn, 0.0],
        [0.0, -sn, ch, cs],
        [-sn, 0.0, cs, ch],
    ]
    block_path = tmp_path / "block.json"
    block_path.write_text(
        json.dumps({"n_modes": 2, "ordering": "qqpp", "mean": [0.0] * 4, "cov": blockwise})
    )
    made_path = tmp_path / "made.json"
    argv = ["state", "make", "tmsv", "--r", "0.8", "--theta", "0.6", "--out", str(made_path)]
    assert main(argv) == 0
    loaded, made = load_state(str(block_path)), load_state(str(made_path))
    assert np.array_equal(loaded.cov, made.cov)
    assert np.array_equal(loaded.mean, made.mean)


@pytest.mark.parametrize("n_modes", [1, 2, 3, 5])
def test_reorder_identity_invariant(n_modes):
    eye = np.eye(2 * n_modes)
    state = load_blockwise(n_modes, [0.0] * (2 * n_modes), eye.tolist())
    assert np.array_equal(state.cov, eye)


@pytest.mark.parametrize("n_modes", [1, 2, 4])
def test_reorder_round_trip_is_bitwise_exact(n_modes):
    # pairwise -> blockwise file -> pairwise state restores every bit
    rng = np.random.default_rng(7)
    a = rng.integers(-50, 50, size=(2 * n_modes, 2 * n_modes)).astype(float)
    cov = a @ a.T + np.eye(2 * n_modes)
    mean = rng.integers(-50, 50, size=2 * n_modes).astype(float)
    state = load_blockwise(n_modes, to_blockwise(mean).tolist(), to_blockwise(cov).tolist())
    assert np.array_equal(state.cov, cov)
    assert np.array_equal(state.mean, mean)


def test_reorder_odd_dimension_rejected():
    with pytest.raises(DimensionError):
        load_blockwise(1, [0.0, 0.0, 0.0], np.eye(2).tolist())
