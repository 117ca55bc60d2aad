import math
import warnings

import numpy as np
import pytest
from conftest import from_blockwise

from gaussphase import (
    DimensionError,
    GaussianChannel,
    GaussianState,
    LadderHamiltonian,
    QuadraticHamiltonian,
    UnphysicalStateError,
    apply_channel,
    check_symplectic,
    evolve_ode,
    generate_channel,
    ladder_to_quadrature,
    make_symplectic_form,
    physicality_check,
    purity,
    rotation_hamiltonian,
    squeeze_hamiltonian,
    squeezed_vacuum,
    two_mode_squeeze_hamiltonian,
    two_mode_squeezed_vacuum,
    vacuum,
)
from gaussphase.symplectic import _expm, _flushed


def tms_f_bar_pairwise(r, theta):
    """Two-mode squeeze quadrature form, assembled independently in the
    blockwise ordering and reshuffled."""
    s, c = np.sin(theta), np.cos(theta)
    blockwise = (r / 2.0) * np.array(
        [
            [0.0, s, 0.0, -c],
            [s, 0.0, -c, 0.0],
            [0.0, -c, 0.0, -s],
            [-c, 0.0, -s, 0.0],
        ]
    )
    return from_blockwise(blockwise)


class TestLadderToQuadrature:
    def test_single_mode_squeeze_generator(self):
        r, theta = 0.9, 0.7
        ham = squeeze_hamiltonian(r, theta)
        expected = r * np.array(
            [
                [np.sin(theta), -np.cos(theta)],
                [-np.cos(theta), -np.sin(theta)],
            ]
        )
        assert np.allclose(ham.f_bar, expected, atol=1e-14)

    @pytest.mark.parametrize("theta", [0.0, 0.5, np.pi / 2])
    def test_two_mode_squeeze_generator(self, theta):
        r = 1.1
        ham = two_mode_squeeze_hamiltonian(r, theta)
        assert np.allclose(ham.f_bar, tms_f_bar_pairwise(r, theta), atol=1e-14)

    def test_free_oscillator(self):
        # omega a^dag a = omega (q^2 + p^2)/2 up to a constant, so Fbar = omega * I
        omega = 1.7
        ham = ladder_to_quadrature(
            LadderHamiltonian(n_modes=2, w=omega * np.eye(2), g=np.zeros((2, 2)))
        )
        assert np.allclose(ham.f_bar, omega * np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pairwise_fill_matches_blockwise_assembly(self, n):
        # reference: the blockwise matrix [[A, X], [X^dag, B]] reordered to pairwise
        rng = np.random.default_rng(n)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        w = a + a.conj().T
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        g = g + g.T
        gdag = g.conj().T
        x = 1j * (w - g + gdag)
        blockwise = np.block([[w + g + gdag, x], [x.conj().T, w - g - gdag]])
        hermitian = 0.5 * (blockwise + blockwise.conj().T)
        expected = from_blockwise(hermitian.real)
        ham = ladder_to_quadrature(LadderHamiltonian(n_modes=n, w=w, g=g))
        assert np.array_equal(ham.f_bar, expected)

    def test_non_hermitian_w_rejected(self):
        w = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            LadderHamiltonian(n_modes=2, w=w, g=np.zeros((2, 2)))


class TestQuadraticHamiltonian:
    @pytest.mark.parametrize(
        "f_bar, alpha",
        [
            ([[1.0, float("nan")], [float("nan"), 1.0]], None),
            ([[float("inf"), 0.0], [0.0, 1.0]], None),
            (np.eye(2), [float("nan"), 0.0]),
            (np.eye(2), [0.0, float("inf")]),
        ],
        ids=["f-nan", "f-inf", "alpha-nan", "alpha-inf"],
    )
    def test_non_finite_entries_rejected(self, f_bar, alpha):
        with pytest.raises(ValueError, match="non-finite"):
            QuadraticHamiltonian(n_modes=1, f_bar=f_bar, alpha=alpha)


class TestGenerateChannel:
    def test_zero_hamiltonian_is_identity(self):
        ham = QuadraticHamiltonian(n_modes=1, f_bar=np.zeros((2, 2)))
        ch = generate_channel(ham, 1.0)
        assert np.allclose(ch.s, np.eye(2))
        assert np.allclose(ch.d, np.zeros(2))

    def test_squeeze_symplectic_matrix_theta_zero(self):
        r = 0.8
        ch = generate_channel(squeeze_hamiltonian(r, 0.0), 1.0)
        expected = np.diag([np.cosh(r) - np.sinh(r), np.cosh(r) + np.sinh(r)])
        assert np.max(np.abs(ch.s - expected)) < 1e-12

    def test_squeeze_symplectic_matrix_general_theta(self):
        r, theta = 0.8, 1.1
        ch = generate_channel(squeeze_hamiltonian(r, theta), 1.0)
        ct, st = np.cos(theta) * np.sinh(r), np.sin(theta) * np.sinh(r)
        expected = np.array(
            [[np.cosh(r) - ct, -st], [-st, np.cosh(r) + ct]]
        )
        assert np.max(np.abs(ch.s - expected)) < 1e-12

    def test_pure_displacement(self):
        # Fbar = 0: Phi(0) = identity, so d = t * Omega^-1 alpha.
        alpha = np.array([0.4, -1.3])
        ham = QuadraticHamiltonian(n_modes=1, f_bar=np.zeros((2, 2)), alpha=alpha)
        ch = generate_channel(ham, 1.0)
        omega_inv = make_symplectic_form(1).T
        # oracle: truncated series sum_m M^m/(m+1)! with M = 0
        assert np.allclose(ch.d, omega_inv @ alpha, atol=1e-14)
        assert np.allclose(ch.s, np.eye(2))
        ch2 = generate_channel(ham, 2.5)
        assert np.allclose(ch2.d, 2.5 * omega_inv @ alpha, atol=1e-14)

    def test_displacement_series_oracle_nonzero_f(self):
        # independent oracle: d = t * sum_m (M t)^m / (m+1)! Omega^-1 alpha
        rng = np.random.default_rng(3)
        f = rng.normal(size=(4, 4))
        f = 0.5 * (f + f.T)
        alpha = rng.normal(size=4)
        t = 0.7
        ham = QuadraticHamiltonian(n_modes=2, f_bar=f, alpha=alpha)
        omega_inv = make_symplectic_form(2).T
        m = omega_inv @ f
        phi = np.zeros((4, 4))
        term = np.eye(4)
        for k in range(40):
            phi += term / math.factorial(k + 1)
            term = term @ (m * t)
        oracle = t * phi @ omega_inv @ alpha
        ch = generate_channel(ham, t)
        assert np.max(np.abs(ch.d - oracle)) < 1e-12

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6, 1e9, 1e12, 1e100, 1e300])
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_s_does_not_depend_on_alpha(self, n, scale):
        # alpha sits in the last column of the one augmented exponential;
        # S = exp(M t) must not move with it, and d stays linear in alpha
        rng = np.random.default_rng(n)
        f = rng.normal(size=(2 * n, 2 * n))
        f = 0.5 * (f + f.T)
        alpha = rng.normal(size=2 * n)
        s0 = generate_channel(QuadraticHamiltonian(n_modes=n, f_bar=f), 0.7).s
        d1 = generate_channel(QuadraticHamiltonian(n_modes=n, f_bar=f, alpha=alpha), 0.7).d
        ch = generate_channel(QuadraticHamiltonian(n_modes=n, f_bar=f, alpha=scale * alpha), 0.7)
        assert np.max(np.abs(ch.s - s0)) <= 1e-14 * np.max(np.abs(s0))
        assert np.max(np.abs(ch.d - scale * d1)) <= 1e-14 * scale * np.max(np.abs(d1))

    def test_zero_alpha_gives_positive_zero_d(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3):
            for _ in range(20):
                f = rng.normal(size=(2 * n, 2 * n))
                d = generate_channel(QuadraticHamiltonian(n_modes=n, f_bar=f + f.T), 0.5).d
                assert np.array_equal(d, np.zeros(2 * n)) and not np.signbit(d).any()

    @pytest.mark.parametrize(
        "ham, t",
        [
            (squeeze_hamiltonian(1.0), 1e6),
            (QuadraticHamiltonian(n_modes=1, f_bar=1e300 * np.eye(2)), 1.0),
            (QuadraticHamiltonian(n_modes=1, f_bar=np.diag([1.0, -1.0]), alpha=[1.0, 0.0]), 1e6),
        ],
        ids=["squeeze-t1e6", "f1e300", "augmented-t1e6"],
    )
    def test_overflow_refused_without_warning(self, ham, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                generate_channel(ham, t)

    def test_channel_keeps_its_symplectic_residual(self):
        ch = generate_channel(squeeze_hamiltonian(3.0, 0.7), 1.0)
        assert ch.residual == check_symplectic(ch.s).residual
        assert GaussianChannel(np.eye(2), np.zeros(2)).residual == 0.0


class TestApplyChannel:
    def test_squeeze_channel_on_vacuum(self):
        r = 1.0
        ch = generate_channel(squeeze_hamiltonian(r, 0.0), 1.0)
        out = apply_channel(ch, vacuum(1))
        assert np.max(np.abs(out.cov - np.diag([np.exp(-2 * r), np.exp(2 * r)]))) < 1e-12

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("theta", [0.0, 0.8])
    def test_two_mode_squeeze_channel_matches_constructor(self, r, theta):
        ch = generate_channel(two_mode_squeeze_hamiltonian(r, theta), 1.0)
        out = apply_channel(ch, vacuum(2))
        assert np.max(np.abs(out.cov - two_mode_squeezed_vacuum(r, theta).cov)) < 1e-12

    def test_identity_channel(self):
        state = squeezed_vacuum(0.7, 0.2)
        ch = GaussianChannel(s=np.eye(2), d=np.zeros(2))
        out = apply_channel(ch, state)
        assert np.array_equal(out.cov, state.cov)
        assert np.array_equal(out.mean, state.mean)

    def test_channel_preserves_physicality_and_purity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = rng.uniform(-1, 1, size=(4, 4))
            f = 0.5 * (f + f.T)
            ch = generate_channel(QuadraticHamiltonian(n_modes=2, f_bar=f), 1.0)
            state = apply_channel(ch, two_mode_squeezed_vacuum(0.9, 0.3))
            assert physicality_check(state).ok
            assert abs(purity(state).purity - 1.0) < 1e-8

    def test_output_symmetric_and_read_only(self):
        rng = np.random.default_rng(3)
        f = rng.uniform(-1, 1, size=(6, 6))
        ch = generate_channel(QuadraticHamiltonian(n_modes=3, f_bar=0.5 * (f + f.T)), 1.0)
        out = apply_channel(ch, vacuum(3))
        assert np.array_equal(out.cov, out.cov.T)
        for array in (out.mean, out.cov):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_purity_rejects_non_positive_definite_output(self):
        # every q variance is 1e-300: positive definite as built, but a
        # passive channel mixes the q quadratures with each other and with
        # p, the 1e-300 is lost to rounding, and the output covariance is
        # indefinite in floats
        n = 8
        state = GaussianState(
            n_modes=n, mean=np.zeros(2 * n), cov=np.diag(np.tile([1e-300, 1.0], n))
        )
        hopping = np.eye(n, k=1) + np.eye(n, k=-1)
        ham = QuadraticHamiltonian(n_modes=n, f_bar=np.kron(hopping, np.eye(2)))
        out = apply_channel(generate_channel(ham, 0.7), state)
        with pytest.raises(UnphysicalStateError):
            purity(out)


def chain_f_bar(rng, n):
    """Pairwise-ordered F for H = sum p^2/2 + sum w_i^2 q_i^2/2
    + sum k_i (q_i - q_{i+1})^2/2 (the benchmark's harmonic chain)."""
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


def n_subnormal(a):
    mag = np.abs(a)
    return int(np.count_nonzero((mag > 0) & (mag < np.finfo(float).tiny)))


class TestSubnormalFlush:
    def test_chain_channel_products_have_no_subnormals(self):
        # the channel of a local Hamiltonian decays faster than exponentially
        # away from the diagonal; at 128 modes its far entries are subnormal
        n, t = 128, 0.5
        ham = QuadraticHamiltonian(n_modes=n, f_bar=chain_f_bar(np.random.default_rng(0), n))
        s_raw = _expm(make_symplectic_form(n).T @ ham.f_bar * t)
        assert n_subnormal(s_raw) > 0
        ch = generate_channel(ham, t)
        assert n_subnormal(ch.s) == 0
        assert np.max(np.abs(ch.s - s_raw)) <= 1e-15 * np.max(np.abs(s_raw))
        nu = np.linspace(1.5, 4.0, n)
        thermal_product = GaussianState(n_modes=n, mean=np.zeros(2 * n), cov=np.diag(np.repeat(nu, 2)))
        for state in (vacuum(n), thermal_product):
            cov_raw = s_raw @ state.cov @ s_raw.T
            assert n_subnormal(cov_raw) > 0
            cov = apply_channel(ch, state).cov
            assert n_subnormal(cov) == 0
            assert np.array_equal(cov, cov.T)
            assert np.max(np.abs(cov - cov_raw)) <= 1e-15 * np.max(np.abs(cov_raw))

    def test_zero_matrix_unchanged(self):
        zero = np.zeros((4, 4))
        assert np.array_equal(_flushed(zero), zero)

    def test_matrix_without_small_entries_is_bit_identical(self):
        m = np.random.default_rng(5).normal(size=(6, 6))
        m[0, 1] = -0.0
        m[2, 3] = 2.0**-500 * np.max(np.abs(m))  # at the threshold: kept
        out = _flushed(m)
        assert out is not m
        assert np.array_equal(out.view(np.int64), m.view(np.int64))

    def test_entries_below_threshold_become_zero(self):
        m = np.array([[-1.0, 2.0**-500, 2.0**-501], [-(2.0**-500), -(2.0**-501), 1e-300]])
        out = _flushed(m)
        assert np.array_equal(out, [[-1.0, 2.0**-500, 0.0], [-(2.0**-500), 0.0, 0.0]])


class TestSymplecticInvariants:
    def test_random_generators_are_symplectic(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = rng.integers(1, 5)
            f = rng.uniform(-1, 1, size=(2 * n, 2 * n))
            f = 0.5 * (f + f.T)
            ch = generate_channel(QuadraticHamiltonian(n_modes=int(n), f_bar=f), 1.0)
            ok, residual = check_symplectic(ch.s)
            assert ok, f"residual {residual}"

    def test_channel_composition(self):
        ham = two_mode_squeeze_hamiltonian(0.8, 0.5)
        t1, t2 = 0.6, 1.1
        s_total = generate_channel(ham, t1 + t2).s
        s_composed = generate_channel(ham, t2).s @ generate_channel(ham, t1).s
        assert np.max(np.abs(s_total - s_composed)) < 1e-9


class TestEvolveOde:
    # a constant Hamiltonian is generate_channel itself, so these hold
    # evolve_ode to closed forms; tests/test_propagation.py holds both to
    # the Fock-space oracle
    def test_zero_hamiltonian_leaves_state_unchanged(self):
        ham = QuadraticHamiltonian(n_modes=1, f_bar=np.zeros((2, 2)))
        state = squeezed_vacuum(0.5, 0.1)
        out = evolve_ode(ham, state, t=1.0, dt=0.01)
        assert np.max(np.abs(out.cov - state.cov)) < 1e-12

    @pytest.mark.parametrize("theta", [0.0, 1.1])
    def test_squeeze_matches_closed_form(self, theta):
        # cosh 2r - cos(theta) sinh 2r and its partners, at r = 1
        r = 1.0
        out = evolve_ode(squeeze_hamiltonian(r, theta), vacuum(1), t=1.0, dt=1e-3)
        c2, s2 = np.cosh(2 * r), np.sinh(2 * r)
        closed = np.array(
            [
                [c2 - np.cos(theta) * s2, -np.sin(theta) * s2],
                [-np.sin(theta) * s2, c2 + np.cos(theta) * s2],
            ]
        )
        assert np.max(np.abs(out.cov - closed)) < 1e-12 * c2

    def test_rotation_period(self):
        state = squeezed_vacuum(0.8, 0.0)
        out = evolve_ode(rotation_hamiltonian(1), state, t=2 * np.pi, dt=1e-3)
        assert np.max(np.abs(out.cov - state.cov)) < 1e-12

    def test_rotation_matrix_oracle(self):
        # exp(Omega^-1 t) is a rotation by angle t
        t = 0.9
        ch = generate_channel(rotation_hamiltonian(1), t)
        rot = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
        assert np.max(np.abs(ch.s - rot)) < 1e-12

    def test_time_dependent_hamiltonian(self):
        # ramping squeeze: integral of r(t) from 0 to 1 equals 0.5.  The
        # generators commute, and two Gauss points integrate the linear
        # ramp exactly, so even steps of 1/4 are exact.
        def ham(t):
            return squeeze_hamiltonian(t, 0.0)

        out = evolve_ode(ham, vacuum(1), t=1.0, dt=0.25)
        expected = squeezed_vacuum(0.5, 0.0)
        assert np.max(np.abs(out.cov - expected.cov)) < 1e-12

    def test_mode_count_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            evolve_ode(squeeze_hamiltonian(0.3), vacuum(2), t=1.0, dt=0.1)
        # a callable is checked on its first evaluation
        with pytest.raises(DimensionError):
            evolve_ode(lambda t: squeeze_hamiltonian(0.3 * t), vacuum(2), t=1.0, dt=0.1)

    def test_displacement_via_ode(self):
        # H = q + p/2: dq/dt = dH/dp = 1/2 and dp/dt = -dH/dq = -1
        alpha = np.array([1.0, 0.5])
        ham = QuadraticHamiltonian(n_modes=1, f_bar=np.zeros((2, 2)), alpha=alpha)
        out = evolve_ode(ham, vacuum(1), t=1.0, dt=1e-3)
        assert np.max(np.abs(out.mean - [0.5, -1.0])) < 1e-15
