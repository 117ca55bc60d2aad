import numpy as np
import pytest

from gaussphase import (
    ConditioningWarning,
    GaussianState,
    NoGroundStateError,
    NotPositiveDefiniteError,
    QuadraticHamiltonian,
    apply_channel,
    check_symplectic,
    entanglement_entropy,
    generate_channel,
    make_symplectic_form,
    normal_mode_ground_state,
    physicality_check,
    purity,
    squeezed_vacuum,
    symplectic_spectrum,
    thermal,
    tensor,
    vacuum,
    von_neumann_entropy,
    williamson_decompose,
)


def coupled_oscillator_f(lam, m=1.0, omega=1.0):
    """Pairwise (q1, p1, q2, p2) Hamiltonian matrix of two coupled oscillators."""
    return np.array(
        [
            [m * omega**2 + 2 * lam, 0.0, -2 * lam, 0.0],
            [0.0, 1.0 / m, 0.0, 0.0],
            [-2 * lam, 0.0, m * omega**2 + 2 * lam, 0.0],
            [0.0, 0.0, 0.0, 1.0 / m],
        ]
    )


def random_spd(rng, dim, eps=0.1):
    a = rng.normal(size=(dim, dim))
    return a.T @ a + eps * np.eye(dim)


class TestSymplecticSpectrum:
    def test_identity(self):
        assert np.allclose(symplectic_spectrum(np.eye(6)), np.ones(3))

    @pytest.mark.parametrize("lam", [0.1, 0.75, 2.0])
    def test_coupled_oscillator_frequencies(self, lam):
        nu = symplectic_spectrum(coupled_oscillator_f(lam))
        assert np.allclose(nu, sorted([1.0, np.sqrt(1.0 + 4.0 * lam)]), atol=1e-10)

    @pytest.mark.parametrize("lam", [0.3, 0.75, 1.5])
    def test_reduced_ground_state_eigenvalue(self, lam):
        alpha = np.sqrt(1.0 + 4.0 * lam)
        reduced_cov = np.diag([(alpha + 1) / (2 * alpha), (alpha + 1) / 2.0])
        nu = symplectic_spectrum(reduced_cov)
        assert nu[0] == pytest.approx((1 + alpha) / (2 * np.sqrt(alpha)), abs=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            symplectic_spectrum(np.diag([1.0, -1.0]))

    def test_invariance_under_symplectic_conjugation(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            f = random_spd(rng, 2 * n)
            gen = rng.uniform(-1, 1, size=(2 * n, 2 * n))
            gen = 0.5 * (gen + gen.T)
            s = generate_channel(QuadraticHamiltonian(n_modes=n, f_bar=gen), 1.0).s
            nu = symplectic_spectrum(f)
            nu_conj = symplectic_spectrum(s @ f @ s.T)
            assert np.max(np.abs(nu - nu_conj)) < 1e-9


# squeezed_vacuum(300)'s covariance diag(e^-600, e^600) has a Cholesky factor,
# but eigh rounds its small eigenvalue to 0
SQUEEZED_300 = squeezed_vacuum(300.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: SQUEEZED_300.symplectic_spectrum(),
        lambda: physicality_check(SQUEEZED_300),
        lambda: von_neumann_entropy(SQUEEZED_300),
        lambda: entanglement_entropy(tensor(vacuum(1), SQUEEZED_300), [1]),
    ],
    ids=["symplectic_spectrum", "physicality_check", "von_neumann_entropy", "entanglement_entropy"],
)
def test_state_refusal_names_the_covariance_matrix(call):
    with pytest.raises(NotPositiveDefiniteError, match="^covariance matrix must be positive"):
        call()


def test_state_warning_names_the_covariance_matrix():
    with pytest.warns(ConditioningWarning, match="^covariance matrix is nearly singular"):
        squeezed_vacuum(14.0).symplectic_spectrum()


class TestWilliamsonDecompose:
    def test_identity(self):
        dec = williamson_decompose(np.eye(4))
        assert np.allclose(dec.nu, [1.0, 1.0])
        assert np.allclose(dec.sigma @ np.eye(4) @ dec.sigma.T, np.eye(4), atol=1e-12)

    def test_diagonal_thermal_pair(self):
        state = tensor(thermal(2.5), thermal(1.3))
        dec = williamson_decompose(state.cov)
        assert np.allclose(dec.nu, [1.3, 2.5], atol=1e-12)
        assert check_symplectic(dec.sigma).ok
        diag_form = np.diag(np.repeat(dec.nu, 2))
        assert np.max(np.abs(dec.sigma @ state.cov @ dec.sigma.T - diag_form)) < 1e-10

    @pytest.mark.parametrize("scale", [1.0, 2.5])
    def test_degenerate_scaled_identity(self, scale):
        f = scale * np.eye(6)
        dec = williamson_decompose(f)
        assert np.allclose(dec.nu, scale * np.ones(3), atol=1e-12)
        assert check_symplectic(dec.sigma).ok
        diag_form = np.diag(np.repeat(dec.nu, 2))
        assert np.max(np.abs(dec.sigma @ f @ dec.sigma.T - diag_form)) < 1e-10
        assert not np.iscomplexobj(dec.sigma)

    @pytest.mark.parametrize("dim", [4, 6])
    def test_random_round_trips(self, dim):
        rng = np.random.default_rng(dim)
        form = make_symplectic_form(dim // 2)
        for _ in range(100):
            f = random_spd(rng, dim)
            dec = williamson_decompose(f, form)
            assert dec.residual_diag < 1e-8
            assert dec.residual_symplectic < 1e-9
            assert np.all(dec.nu > 0)
            assert np.all(np.diff(dec.nu) >= 0)

    def test_residuals_reported(self):
        dec = williamson_decompose(np.diag([2.0, 2.0, 3.0, 3.0]))
        assert dec.residual_diag < 1e-12
        assert dec.residual_symplectic < 1e-12

    @pytest.mark.parametrize("nu", [1e308, np.finfo(float).max])
    def test_largest_eigenvalues_decompose(self, nu):
        # sqrt(2 nu) is representable although 2 nu is not
        dec = williamson_decompose(thermal(nu).cov)
        assert dec.nu[0] == pytest.approx(nu, rel=1e-15)
        assert dec.residual_symplectic <= 4.5e-16


class TestNormalModeGroundState:
    def test_decoupled_is_vacuum(self):
        ham = QuadraticHamiltonian(n_modes=2, f_bar=coupled_oscillator_f(0.0))
        ground = normal_mode_ground_state(ham)
        assert np.max(np.abs(ground.cov - np.eye(4))) < 1e-12

    def test_matches_displayed_covariance(self):
        # lambda = 3/4 so alpha = 2; compare against the closed-form entries
        ham = QuadraticHamiltonian(n_modes=2, f_bar=coupled_oscillator_f(0.75))
        ground = normal_mode_ground_state(ham)
        a = 2.0
        expected = np.array(
            [
                [(a + 1) / (2 * a), 0.0, (a - 1) / (2 * a), 0.0],
                [0.0, (a + 1) / 2, 0.0, -(a - 1) / 2],
                [(a - 1) / (2 * a), 0.0, (a + 1) / (2 * a), 0.0],
                [0.0, -(a - 1) / 2, 0.0, (a + 1) / 2],
            ]
        )
        assert np.max(np.abs(ground.cov - expected)) < 1e-10

    @pytest.mark.parametrize("lam", [0.0, 0.4, 2.0])
    def test_ground_state_is_pure(self, lam):
        ham = QuadraticHamiltonian(n_modes=2, f_bar=coupled_oscillator_f(lam))
        ground = normal_mode_ground_state(ham)
        assert abs(purity(ground).purity - 1.0) < 1e-9

    def test_indefinite_hamiltonian_rejected(self):
        ham = QuadraticHamiltonian(n_modes=1, f_bar=np.diag([1.0, -0.5]))
        with pytest.raises(NoGroundStateError):
            normal_mode_ground_state(ham)

    def test_sparse_fock_oracle_agrees(self):
        # independent route: diagonalize the actual two-mode Hamiltonian in a
        # truncated Fock basis and compare quadrature covariances
        from scipy.sparse import identity as sp_eye
        from scipy.sparse import kron as sp_kron
        from scipy.sparse.linalg import eigsh

        from gaussphase import fock

        lam, dim = 0.75, 40
        q1, p1 = fock.quadratures(dim)
        from scipy.sparse import csr_matrix

        q = csr_matrix(q1)
        p = csr_matrix(p1)
        eye = sp_eye(dim, format="csr")
        q_a, q_b = sp_kron(q, eye), sp_kron(eye, q)
        p_a, p_b = sp_kron(p, eye), sp_kron(eye, p)
        h = 0.5 * (p_a @ p_a + p_b @ p_b + q_a @ q_a + q_b @ q_b)
        delta = q_a - q_b
        h = h + lam * (delta @ delta)
        _, vec = eigsh(h.tocsc(), k=1, which="SA")
        ground_fock = fock.FockState(amplitudes=vec[:, 0], dim=dim, n_modes=2)
        _, cov_fock = fock.covariance_from_fock(ground_fock)

        ham = QuadraticHamiltonian(n_modes=2, f_bar=coupled_oscillator_f(lam))
        ground = normal_mode_ground_state(ham)
        assert np.max(np.abs(ground.cov - cov_fock)) < 1e-8


def test_int_input_accepted():
    dec = williamson_decompose(np.diag([3, 3, 5, 5]).astype(float))
    assert np.allclose(dec.nu, [3.0, 5.0])


def harmonic_chain_f(rng, n):
    """Pairwise F of a harmonic chain with random on-site frequencies and
    nearest-neighbour springs, positive definite by construction."""
    k = np.diag(rng.uniform(0.8, 1.2, n) ** 2)
    for i, spring in enumerate(rng.uniform(0.2, 1.0, n - 1)):
        k[i : i + 2, i : i + 2] += spring * np.array([[1.0, -1.0], [-1.0, 1.0]])
    f = np.zeros((2 * n, 2 * n))
    f[0::2, 0::2] = k
    f[1::2, 1::2] = np.eye(n)
    return f


def reference_spectrum(f):
    """Symplectic spectrum from the non-symmetric eigenvalues +/- i nu of
    F Omega^-1, paired by sorting their moduli."""
    form = make_symplectic_form(f.shape[0] // 2)
    moduli = np.sort(np.abs(np.linalg.eigvals(f @ form.T).imag))
    return moduli[0::2]


class TestHermitianRoute:
    def test_chain_channel_on_thermal_product(self):
        rng = np.random.default_rng(64)
        n = 64
        nu_thermal = rng.uniform(1.5, 4.0, n)
        thermal_product = GaussianState(
            n_modes=n, mean=np.zeros(2 * n), cov=np.diag(np.repeat(nu_thermal, 2))
        )
        ham = QuadraticHamiltonian(n_modes=n, f_bar=harmonic_chain_f(rng, n))
        f = apply_channel(generate_channel(ham, 1.3), thermal_product).cov
        tol = 1e-8 * max(1.0, float(np.max(np.abs(f))))
        expected = np.sort(nu_thermal)
        spectrum = symplectic_spectrum(f)
        dec = williamson_decompose(f)
        assert np.max(np.abs(spectrum - expected)) < tol
        assert np.max(np.abs(dec.nu - expected)) < tol
        assert np.max(np.abs(spectrum - reference_spectrum(f))) < tol
        assert np.max(np.abs(dec.nu - reference_spectrum(f))) < tol
        assert dec.residual_diag < 1e-8
        assert dec.residual_symplectic < 1e-9

    def test_degenerate_non_diagonal(self):
        rng = np.random.default_rng(25)
        gen = rng.uniform(-0.5, 0.5, size=(6, 6))
        s = generate_channel(QuadraticHamiltonian(n_modes=3, f_bar=0.5 * (gen + gen.T)), 1.0).s
        f = s @ (2.5 * np.eye(6)) @ s.T
        f = 0.5 * (f + f.T)
        assert np.max(np.abs(f - np.diag(np.diag(f)))) > 0.1
        dec = williamson_decompose(f)
        assert np.allclose(dec.nu, 2.5, atol=1e-10)
        assert dec.residual_diag < 1e-8
        assert dec.residual_symplectic < 1e-9
