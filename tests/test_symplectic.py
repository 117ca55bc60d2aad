import numpy as np
import pytest

from gaussphase import (
    DimensionError,
    Ordering,
    check_symplectic,
    make_symplectic_form,
    reorder,
)

BLOCK = np.array([[0.0, -1.0], [1.0, 0.0]])


def test_single_mode_pairwise_form():
    form = make_symplectic_form(1)
    assert np.array_equal(form.omega, BLOCK)
    assert np.array_equal(form.omega_inv, -BLOCK)


def test_two_mode_pairwise_is_direct_sum():
    form = make_symplectic_form(2)
    expected = np.zeros((4, 4))
    expected[:2, :2] = BLOCK
    expected[2:, 2:] = BLOCK
    assert np.array_equal(form.omega, expected)


def blockwise_omega(n_modes):
    eye = np.eye(n_modes)
    return np.block([[np.zeros_like(eye), -eye], [eye, np.zeros_like(eye)]])


def test_single_mode_orderings_coincide():
    pair = make_symplectic_form(1).omega
    assert np.array_equal(reorder(pair, Ordering.PAIRWISE, Ordering.BLOCKWISE), pair)
    assert np.array_equal(pair, blockwise_omega(1))


def test_zero_modes_rejected():
    with pytest.raises(DimensionError):
        make_symplectic_form(0)


@pytest.mark.parametrize("n_modes", range(1, 7))
@pytest.mark.parametrize("ordering", [Ordering.PAIRWISE, Ordering.BLOCKWISE])
def test_form_identities(n_modes, ordering):
    form = make_symplectic_form(n_modes)
    omega = reorder(form.omega, Ordering.PAIRWISE, ordering)
    omega_inv = reorder(form.omega_inv, Ordering.PAIRWISE, ordering)
    if ordering is Ordering.BLOCKWISE:
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
    oracle = m @ form.omega_inv @ m.T
    assert np.max(np.abs(oracle - form.omega_inv)) < 1e-15
    ok, residual = check_symplectic(m, form)
    assert ok and residual < 1e-15


def test_check_symplectic_rejects_non_symplectic():
    m = np.diag([2.0, 1.0])
    form = make_symplectic_form(1)
    expected_residual = np.max(np.abs(m @ form.omega_inv @ m.T - form.omega_inv))
    ok, residual = check_symplectic(m, form)
    assert not ok
    assert residual == pytest.approx(expected_residual)
    assert residual == pytest.approx(1.0)  # 2*1 - 1 on the off-diagonal


def test_check_symplectic_dimension_mismatch():
    with pytest.raises(DimensionError):
        check_symplectic(np.eye(4), make_symplectic_form(1))
    with pytest.raises(DimensionError):
        check_symplectic(np.eye(3))


def test_reorder_vector_blockwise_to_pairwise():
    v = np.array([1.0, 2.0, 3.0, 4.0])  # (q1, q2, p1, p2)
    out = reorder(v, Ordering.BLOCKWISE, Ordering.PAIRWISE)
    assert np.array_equal(out, [1.0, 3.0, 2.0, 4.0])  # (q1, p1, q2, p2)


def test_reorder_two_mode_squeezed_covariance():
    # blockwise (q1, q2, p1, p2) covariance of the two-mode squeezed vacuum
    r, theta = 0.8, 0.6
    ch, cs, sn = np.cosh(r), np.cos(theta) * np.sinh(r), np.sin(theta) * np.sinh(r)
    blockwise = np.array(
        [
            [ch, -cs, 0.0, -sn],
            [-cs, ch, -sn, 0.0],
            [0.0, -sn, ch, cs],
            [-sn, 0.0, cs, ch],
        ]
    )
    pairwise = np.array(
        [
            [ch, 0.0, -cs, -sn],
            [0.0, ch, -sn, cs],
            [-cs, -sn, ch, 0.0],
            [-sn, cs, 0.0, ch],
        ]
    )
    assert np.array_equal(reorder(blockwise, Ordering.BLOCKWISE, Ordering.PAIRWISE), pairwise)


@pytest.mark.parametrize("n_modes", [1, 2, 3, 5])
def test_reorder_identity_invariant(n_modes):
    eye = np.eye(2 * n_modes)
    for src, dst in [(Ordering.BLOCKWISE, Ordering.PAIRWISE), (Ordering.PAIRWISE, Ordering.BLOCKWISE)]:
        assert np.array_equal(reorder(eye, src, dst), eye)


@pytest.mark.parametrize("n_modes", [1, 2, 4])
def test_reorder_round_trip_is_bitwise_exact(n_modes):
    rng = np.random.default_rng(7)
    m = rng.integers(-50, 50, size=(2 * n_modes, 2 * n_modes)).astype(float)
    back = reorder(
        reorder(m, Ordering.PAIRWISE, Ordering.BLOCKWISE),
        Ordering.BLOCKWISE,
        Ordering.PAIRWISE,
    )
    assert np.array_equal(back, m)
    v = rng.integers(-50, 50, size=2 * n_modes).astype(float)
    back_v = reorder(
        reorder(v, Ordering.BLOCKWISE, Ordering.PAIRWISE),
        Ordering.PAIRWISE,
        Ordering.BLOCKWISE,
    )
    assert np.array_equal(back_v, v)


def test_reorder_odd_dimension_rejected():
    with pytest.raises(DimensionError):
        reorder(np.zeros(3), Ordering.PAIRWISE, Ordering.BLOCKWISE)
