"""The package's matrix exponential, symplectic._expm, against closed forms
and against scipy.linalg.expm, which implements the same Al-Mohy & Higham
scaling-and-squaring Pade method.

scipy is the oracle only here, in the tests; the library never imports it.
Squeeze generators are checked against their closed form instead of scipy,
because scipy's own result is off that closed form by up to 1.5e-12
(relative, r = 8.39, theta = pi), while _expm stays below 1e-14.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from gaussphase import (
    check_symplectic,
    generate_channel,
    make_symplectic_form,
    squeeze_hamiltonian,
    two_mode_squeeze_hamiltonian,
)
from gaussphase.fock import ladder
from gaussphase.symplectic import _expm

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def rel_dev(a, ref):
    return np.max(np.abs(a - ref)) / np.max(np.abs(ref))


def test_zero_generator_is_exact_identity():
    for n in (1, 2, 5, 64):
        assert np.array_equal(_expm(np.zeros((n, n))), np.eye(n))
    assert np.array_equal(_expm(np.zeros((3, 3), dtype=complex)), np.eye(3))


def test_nilpotent_augmented_generator_keeps_exact_identity_block():
    # exp([[0, t], [0, 0]]) = [[1, t], [0, 1]]: the S block of a pure
    # displacement stays exactly the identity, also when it is squared
    dim = 4
    for t in (0.5, 1.0, 2.0, 37.0, 1e3):
        aug = np.zeros((2 * dim, 2 * dim))
        aug[:dim, dim:] = t * np.eye(dim)
        e = _expm(aug)
        assert np.array_equal(e[:dim, :dim], np.eye(dim))
        assert np.array_equal(e[dim:, dim:], np.eye(dim))
        assert np.array_equal(e[dim:, :dim], np.zeros((dim, dim)))
        assert np.allclose(e[:dim, dim:], t * np.eye(dim), rtol=1e-15, atol=0)


def test_rotation_generator_matches_cos_sin():
    omega_inv = make_symplectic_form(3).T
    for t in (0.1, 1.0, 2.0, 40.0):
        expected = np.cos(t) * np.eye(6) + np.sin(t) * omega_inv
        assert np.max(np.abs(_expm(t * omega_inv) - expected)) < 1e-13 * max(1.0, t)


@PROPERTY
@given(r=st.floats(0.0, 15.0), theta=st.floats(0.0, 2 * np.pi), two_mode=st.booleans())
@example(r=8.394237288135592, theta=np.pi, two_mode=False)
@example(r=15.0, theta=5.759586531581287, two_mode=False)
@example(r=15.0, theta=0.3, two_mode=True)
def test_squeeze_generators_match_closed_form(r, theta, two_mode):
    # M = Omega^-1 Fbar squares to rho^2 times the identity (rho = r for one
    # mode, r/2 for two), so exp(M) = cosh(rho) 1 + sinh(rho)/rho M
    h = (two_mode_squeeze_hamiltonian if two_mode else squeeze_hamiltonian)(r, theta)
    m = make_symplectic_form(h.n_modes).T @ h.f_bar
    rho = r / 2 if two_mode else r
    eye = np.eye(len(m))
    expected = np.cosh(rho) * eye + (np.sinh(rho) / rho * m if rho > 0 else 0.0)
    assert rel_dev(_expm(m), expected) <= 1e-13


@PROPERTY
@given(
    n=st.integers(1, 512),
    scale=st.floats(0.0, 12.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=512, scale=12.0, seed=1)
@example(n=2, scale=12.7, seed=7)
def test_random_real_generators_match_scipy(n, scale, seed):
    # Entries N(0, scale^2 / n), so that the 2-norm is about 2 scale for
    # every n.  Both methods are backward stable, so their forward errors
    # grow with the conditioning of exp, which is at least ||A||; scipy's
    # result was up to 4e-12 off a 50-digit exponential at ||A|| ~ 13 on
    # 2x2 inputs, where _expm was within 1e-14.
    a = np.random.default_rng(seed).standard_normal((n, n)) * (scale / np.sqrt(n))
    norm = np.abs(a).sum(axis=0).max()
    assert rel_dev(_expm(a), expm(a)) <= 1e-12 * max(1.0, norm)


@PROPERTY
@given(
    re=st.floats(-4.0, 4.0),
    im=st.floats(-4.0, 4.0),
    dim=st.integers(2, 130),
)
@example(re=2.0, im=1.0, dim=120)
@example(re=4.0, im=0.0, dim=122)
def test_complex_displacement_generators_match_scipy(re, im, dim):
    eta = complex(re, im)
    a, adag, _ = ladder(dim)
    g = eta * adag - np.conj(eta) * a
    assert rel_dev(_expm(g), expm(g)) <= 1e-12


@PROPERTY
@given(r=st.floats(0.0, 10.0))
@example(r=10.0)
def test_squeeze_channels_pass_symplectic_check(r):
    s = generate_channel(squeeze_hamiltonian(r, 0.3), 1.0).s
    assert check_symplectic(s).ok
