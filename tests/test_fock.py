import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import eval_genlaguerre, gammaln, xlogy

from gaussphase import (
    DimensionError,
    SelfCheckError,
    TruncationError,
    centered_grid,
    eval_fock,
    fock,
    squeezed_vacuum,
    thermal,
    two_mode_squeezed_vacuum,
    vacuum,
    von_neumann_entropy,
)


class TestLadder:
    def test_annihilation_pattern(self):
        a, adag, num = fock.ladder(3)
        expected = np.array([[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]])
        assert np.allclose(a, expected)
        assert np.allclose(adag, expected.T)

    def test_commutator_truncation_artifact(self):
        dim = 12
        a, adag, _ = fock.ladder(dim)
        comm = a @ adag - adag @ a
        dev = comm - np.eye(dim)
        assert abs(dev[dim - 1, dim - 1] + dim) < 1e-12  # last entry is -(dim)
        dev[dim - 1, dim - 1] = 0.0
        assert np.max(np.abs(dev)) < 1e-12

    def test_number_eigenvalues(self):
        _, _, num = fock.ladder(7)
        assert np.allclose(np.diag(num).real, np.arange(7))

    def test_small_dim_rejected(self):
        with pytest.raises(DimensionError):
            fock.ladder(1)


class TestCoherent:
    def test_alpha_zero_is_ground(self):
        st = fock.coherent_vector(0.0, 10)
        assert st.amplitudes[0] == 1.0
        assert np.max(np.abs(st.amplitudes[1:])) == 0.0

    def test_eigenstate_of_annihilation(self):
        alpha = 0.8 - 0.3j
        st = fock.coherent_vector(alpha, 60)
        a, _, _ = fock.ladder(60)
        residual = a @ st.amplitudes - alpha * st.amplitudes
        assert np.linalg.norm(residual[:50]) < 1e-10

    def test_overlap_closed_form(self):
        # <alpha|beta> = exp((-|beta|^2 - |alpha|^2 + 2 beta alpha*) / 2)
        rng = np.random.default_rng(9)
        for _ in range(20):
            re = rng.uniform(-np.sqrt(2), np.sqrt(2), size=4)
            alpha = re[0] + 1j * re[1]
            beta = re[2] + 1j * re[3]
            sa = fock.coherent_vector(alpha, 60)
            sb = fock.coherent_vector(beta, 60)
            inner = np.vdot(sa.amplitudes, sb.amplitudes)
            expected = np.exp(
                (-abs(beta) ** 2 - abs(alpha) ** 2 + 2.0 * beta * np.conj(alpha)) / 2.0
            )
            assert abs(inner - expected) < 1e-10

    def test_mean_occupation_is_poissonian(self):
        alpha = 1.3 + 0.4j
        st = fock.coherent_vector(alpha, 60)
        # oracle: direct sum of Poisson weights
        n = np.arange(60)
        poisson_mean = float(np.sum(n * np.abs(st.amplitudes) ** 2))
        assert fock.number_expectation(st) == pytest.approx(poisson_mean, abs=1e-12)
        assert fock.number_expectation(st) == pytest.approx(abs(alpha) ** 2, abs=1e-10)

    def test_heavy_tail_rejected(self):
        with pytest.raises(TruncationError):
            fock.coherent_vector(3.0, 12)


class TestDisplacement:
    def test_zero_displacement_is_identity(self):
        d = fock.displacement_matrix(0.0, 15)
        assert np.max(np.abs(d - np.eye(15))) < 1e-12

    def test_displaces_vacuum_to_coherent(self):
        eta = 0.9 + 0.2j
        d = fock.displacement_matrix(eta, 50)
        vac = np.zeros(50)
        vac[0] = 1.0
        expected = fock.coherent_vector(eta, 50).amplitudes
        assert np.max(np.abs(d @ vac - expected)) < 1e-10

    def test_displacement_property_on_ladder(self):
        # D^dag(alpha) a D(alpha) = a + alpha on the low block
        alpha = 0.6 - 0.5j
        dim = 40
        d = fock.displacement_matrix(alpha, dim)
        a, _, _ = fock.ladder(dim)
        lhs = d.conj().T @ a @ d
        low = dim // 2
        dev = lhs[:low, :low] - (a + alpha * np.eye(dim))[:low, :low]
        assert np.max(np.abs(dev)) < 1e-9

    def test_inverse_composition(self):
        eta = 0.45 + 0.8j
        dim = 40
        prod = fock.displacement_matrix(eta, dim) @ fock.displacement_matrix(-eta, dim)
        low = dim // 2
        assert np.max(np.abs(prod[:low, :low] - np.eye(dim)[:low, :low])) < 1e-9

    @pytest.mark.parametrize("dim", [12, 16, 20])
    def test_self_check_accepts_exact_closed_form_at_small_dim(self, dim):
        # here the exponential of the generator truncated at dim deviates
        # from the exact closed form by 1.3e-5, 1.4e-7 and 1.1e-9
        eta = 0.9 + 0.3j
        d = fock.displacement_matrix(eta, dim)
        expected = [
            np.exp(-abs(eta) ** 2 / 2) * eta**n / math.sqrt(math.factorial(n))
            for n in range(dim)
        ]
        assert np.max(np.abs(d[:, 0] - expected)) < 1e-14

    def test_self_check_rejects_inaccurate_closed_form(self, monkeypatch):
        # a reference that disagrees by 1e-6 stands in for a closed form
        # that is off by as much
        exact_expm = fock._expm
        monkeypatch.setattr(fock, "_expm", lambda m: exact_expm(m) + 1e-6)
        with pytest.raises(SelfCheckError):
            fock.displacement_matrix(0.9 + 0.3j, 20)

    def test_closed_form_exact_at_large_eta_and_dim(self):
        # oracle: the finite sum over ladder monomials evaluated exactly.
        # For real integer eta and n >= m, with l = n - m,
        # <n|D|m> = e^{-eta^2/2} T / sqrt(n! m!),
        # T = sum_k (-1)^k eta^(2k + l) n!/(k + l)! C(m, k), an integer;
        # the n < m triangle is (-1)^l <m|D|n>.  The alternating sum in
        # floating point was off by 0.23 here.
        eta, dim = 4, 80
        d = fock.displacement_matrix(float(eta), dim)
        fact = [math.factorial(k) for k in range(dim)]
        expected = np.empty((dim, dim))
        for n in range(dim):
            for m in range(n + 1):
                ell = n - m
                t = sum(
                    (-1) ** k * eta ** (2 * k + ell) * (fact[n] // fact[k + ell]) * math.comb(m, k)
                    for k in range(m + 1)
                )
                mag = math.sqrt(float(Fraction(t * t, fact[n] * fact[m])))
                expected[n, m] = math.copysign(mag, t) * math.exp(-(eta**2) / 2)
                expected[m, n] = (-1) ** ell * expected[n, m]
        assert np.max(np.abs(d - expected)) < 1e-13

    def test_diagonal_elements_laguerre_pattern(self):
        # oracle: direct series summation of the closed-form sum at n = m,
        # <n|D(eta)|n> = e^{-|eta|^2/2} sum_k (-1)^k n!/(k!^2 (n-k)!) |eta|^{2k}
        import math

        eta = 0.7
        d = fock.displacement_matrix(eta, 20)
        for n in range(6):
            series = sum(
                (-1.0) ** k
                * math.factorial(n)
                / (math.factorial(k) ** 2 * math.factorial(n - k))
                * abs(eta) ** (2 * k)
                for k in range(n + 1)
            )
            expected = np.exp(-abs(eta) ** 2 / 2.0) * series
            assert d[n, n].real == pytest.approx(float(expected), abs=1e-10)
            assert abs(d[n, n].imag) < 1e-12


class TestSqueezedVacuum:
    def test_r_zero_is_ground(self):
        st = fock.squeezed_vacuum_vector(0.0, 0.0, 20)
        assert st.amplitudes[0] == 1.0

    def test_odd_amplitudes_exactly_zero(self):
        st = fock.squeezed_vacuum_vector(1.0, 0.7, 120)
        assert np.max(np.abs(st.amplitudes[1::2])) == 0.0

    @pytest.mark.parametrize("r", [0.3, 0.8, 1.2])
    def test_mean_energy_is_sinh_squared(self, r):
        st = fock.squeezed_vacuum_vector(r, 0.5, 160)
        assert fock.number_expectation(st) == pytest.approx(np.sinh(r) ** 2, abs=1e-9)

    @pytest.mark.parametrize("r,dim", [(0.3, 60), (0.8, 120), (1.2, 160), (1.5, 300)])
    def test_covariance_twin(self, r, dim):
        # dims chosen so the tail stays below the constructor's bound
        theta = 0.9
        st = fock.squeezed_vacuum_vector(r, theta, dim)
        mean, cov = fock.covariance_from_fock(st)
        assert np.max(np.abs(mean)) < 1e-10
        assert np.max(np.abs(cov - squeezed_vacuum(r, theta).cov)) < 1e-8

    def test_heavy_tail_rejected(self):
        with pytest.raises(TruncationError):
            fock.squeezed_vacuum_vector(1.5, 0.0, 120)


class TestTmsv:
    def test_r_zero_is_double_ground(self):
        st = fock.tmsv_vector(0.0, 0.0, 10)
        amp = st.amplitudes.reshape(10, 10)
        assert amp[0, 0] == 1.0
        assert np.max(np.abs(amp)) == abs(amp[0, 0])

    def test_reduced_density_is_geometric(self):
        r = 0.9
        dim = 60
        st = fock.tmsv_vector(r, 0.3, dim)
        rho = fock.reduced_density(st, keep=0)
        expected = np.diag(np.tanh(r) ** (2 * np.arange(dim)) / np.cosh(r) ** 2)
        expected /= np.trace(expected).real
        assert np.max(np.abs(rho.matrix - expected)) < 1e-12

    def test_schmidt_diagonal(self):
        st = fock.tmsv_vector(0.7, 1.1, 40)
        amp = st.amplitudes.reshape(40, 40)
        off = amp - np.diag(np.diag(amp))
        assert np.max(np.abs(off)) == 0.0

    @pytest.mark.parametrize("r,dim", [(0.4, 40), (0.8, 60), (1.2, 100), (1.5, 170)])
    def test_reduced_entropy_matches_gaussian_thermal(self, r, dim):
        # ladder-convention tmsv_vector(r) reduces to a thermal state with
        # nu = cosh(2r) (equivalently nbar = sinh^2 r)
        rho = fock.reduced_density(fock.tmsv_vector(r, 0.0, dim))
        gauss = von_neumann_entropy(thermal(np.cosh(2.0 * r))).total
        assert abs(fock.fock_entropy(rho) - gauss) < 1e-7

    @pytest.mark.parametrize("r", [0.4, 1.0, 1.6])
    def test_covariance_twin_with_parameter_doubling(self, r):
        # covariance-level TMSV(r) <-> ladder-convention tmsv_vector(r/2)
        st = fock.tmsv_vector(r / 2.0, 0.6, 80)
        mean, cov = fock.covariance_from_fock(st)
        assert np.max(np.abs(mean)) < 1e-10
        assert np.max(np.abs(cov - two_mode_squeezed_vacuum(r, 0.6).cov)) < 1e-8

    def test_heavy_tail_rejected(self):
        with pytest.raises(TruncationError):
            fock.tmsv_vector(1.5, 0.0, 80)


class TestCovarianceFromFock:
    def test_ground_state(self):
        st = fock.FockState(amplitudes=np.eye(20)[0], dim=20)
        mean, cov = fock.covariance_from_fock(st)
        assert np.allclose(mean, 0.0)
        assert np.allclose(cov, np.eye(2), atol=1e-12)

    def test_thermal_density_nbar_half(self):
        rho = fock.thermal_density(0.5, 200)
        mean, cov = fock.covariance_from_fock(rho)
        assert np.allclose(mean, 0.0, atol=1e-12)
        assert np.max(np.abs(cov - 2.0 * np.eye(2))) < 1e-10

    @pytest.mark.parametrize(
        "make",
        [
            lambda: fock.squeezed_vacuum_vector(0.6, 1.1, 60),
            lambda: fock.coherent_vector(0.8 - 0.5j, 40),
            lambda: fock.FockState(amplitudes=np.exp(1j * np.arange(12)) / np.sqrt(12), dim=12),
        ],
    )
    def test_pure_state_matches_its_density(self, make):
        # the one moment kernel pairs X_i psi with X_j psi for the state and
        # X_i with X_j rho for its density matrix
        st = make()
        mean, cov = fock.covariance_from_fock(st)
        v = st.amplitudes
        mean_rho, cov_rho = fock.covariance_from_fock(
            fock.FockDensity(matrix=np.outer(v, v.conj()), dim=st.dim)
        )
        assert np.array_equal(cov, cov.T)
        assert np.max(np.abs(mean - mean_rho)) < 1e-12
        assert np.max(np.abs(cov - cov_rho)) < 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_wigner_grid_second_moments(self, n):
        # cross-check: grid moments of the Fock Wigner function against the
        # operator expectations
        grid = centered_grid(6.0 + 2.0 * n, 401)
        w = eval_fock(n, grid)
        q, p = grid.q, grid.p
        wq2 = np.trapezoid(np.trapezoid(w.values * q[:, None] ** 2, p, axis=1), q)
        wp2 = np.trapezoid(np.trapezoid(w.values * p[None, :] ** 2, p, axis=1), q)
        wqp = np.trapezoid(
            np.trapezoid(w.values * q[:, None] * p[None, :], p, axis=1), q
        )
        st = fock.FockState(amplitudes=np.eye(30)[n], dim=30)
        _, cov = fock.covariance_from_fock(st)
        assert abs(2.0 * wq2 - cov[0, 0]) < 1e-4
        assert abs(2.0 * wp2 - cov[1, 1]) < 1e-4
        assert abs(2.0 * wqp - cov[0, 1]) < 1e-4


def dense_moments(rho, dim, n_modes):
    """Reference moments from the density matrix on the full n_modes-mode
    space, with each single-mode operator embedded by np.kron (the first
    mode is the slow index): the mean, the covariance in pairwise order
    and the total occupation."""
    q, p = fock.quadratures(dim)
    _, _, num = fock.ladder(dim)
    eye = np.eye(dim)

    def embed(op, mode):
        return op if n_modes == 1 else np.kron(op, eye) if mode == 0 else np.kron(eye, op)

    def expect(op):
        return np.trace(rho @ op).real

    xs = [embed(op, mode) for mode in range(n_modes) for op in (q, p)]
    mean = np.array([expect(x) for x in xs])
    sym = np.array([[expect(xi @ xj + xj @ xi) for xj in xs] for xi in xs])
    n_total = sum(expect(embed(num, mode)) for mode in range(n_modes))
    return mean, sym - 2.0 * np.outer(mean, mean), n_total


def complex_arrays(shape):
    parts = arrays(np.float64, (2,) + shape, elements=st.floats(-1.0, 1.0))
    return parts.map(lambda a: a[0] + 1j * a[1])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), dim=st.integers(2, 8))
def test_two_mode_moments_match_dense_reference(data, dim):
    # a generic amplitude matrix: unlike the TMSV, it is not diagonal and
    # has all four means nonzero, so acting on the wrong axis, or with op
    # in place of op.T on the second mode, changes the result
    psi = data.draw(complex_arrays((dim, dim)))
    norm = np.linalg.norm(psi)
    assume(norm > 0.1)
    psi = psi / norm
    assume(np.max(np.abs(psi - np.diag(np.diag(psi)))) > 1e-2)
    v = psi.reshape(-1)
    mean_ref, cov_ref, n_ref = dense_moments(np.outer(v, v.conj()), dim, 2)
    assume(np.min(np.abs(mean_ref)) > 1e-3)
    st2 = fock.FockState(amplitudes=v, dim=dim, n_modes=2)
    mean, cov = fock.covariance_from_fock(st2)
    assert np.max(np.abs(mean - mean_ref)) < 1e-12
    assert np.max(np.abs(cov - cov_ref)) < 1e-12
    assert abs(fock.number_expectation(st2) - n_ref) < 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data(), dim=st.integers(2, 8), rank=st.integers(1, 8))
def test_density_moments_match_dense_reference(data, dim, rank):
    g = data.draw(complex_arrays((dim, rank)))
    rho = g @ g.conj().T
    trace = np.trace(rho).real
    assume(trace > 1e-2)
    rho = fock.FockDensity(matrix=rho / trace, dim=dim)
    mean_ref, cov_ref, n_ref = dense_moments(rho.matrix, dim, 1)
    mean, cov = fock.covariance_from_fock(rho)
    assert np.max(np.abs(mean - mean_ref)) < 1e-12
    assert np.max(np.abs(cov - cov_ref)) < 1e-12
    assert abs(fock.number_expectation(rho) - n_ref) < 1e-12


def test_three_mode_state_refused():
    st3 = fock.FockState(amplitudes=np.eye(8)[0], dim=2, n_modes=3)
    with pytest.raises(DimensionError):
        fock.covariance_from_fock(st3)


@pytest.mark.parametrize(
    "build, args, error",
    [
        (fock.coherent_vector, (np.nan, 10), ValueError),
        (fock.displacement_matrix, (np.nan, 10), ValueError),
        (fock.displacement_matrix, (np.inf * 1j, 10), ValueError),
        (fock.squeezed_vacuum_vector, (np.nan, 0.0, 10), ValueError),
        (fock.squeezed_vacuum_vector, (0.3, np.nan, 40), ValueError),
        (fock.tmsv_vector, (np.nan, 0.0, 10), ValueError),
        (fock.tmsv_vector, (0.3, np.nan, 40), ValueError),
        (fock.thermal_density, (np.nan, 10), ValueError),
        (fock.thermal_density, (0.5, 0), DimensionError),
        (fock.thermal_density, (0.5, 1), DimensionError),
        (fock.FockState, ([1.0, np.nan], 2), ValueError),
    ],
)
def test_builders_reject_bad_input(build, args, error):
    # a NaN parameter passes every tail check (NaN > tol is False), so it
    # is refused on entry instead of yielding an all-NaN state
    with pytest.raises(error, match="non-finite" if error is ValueError else "dim"):
        build(*args)


class TestFockEntropy:
    def test_pure_state_entropy_zero(self):
        rho = fock.density_from_state(fock.coherent_vector(0.7, 40))
        assert fock.fock_entropy(rho) < 1e-12

    def test_geometric_entropy_closed_form(self):
        nbar = 0.5
        rho = fock.thermal_density(nbar, 200)
        expected = (1 + nbar) * np.log(1 + nbar) - nbar * np.log(nbar)
        assert fock.fock_entropy(rho) == pytest.approx(expected, abs=1e-10)

    def test_maximally_mixed(self):
        d = 8
        rho = fock.FockDensity(matrix=np.eye(d) / d, dim=d)
        assert fock.fock_entropy(rho) == pytest.approx(np.log(d), abs=1e-12)


# The special functions behind the closed forms are plain numpy; scipy.special
# is their oracle here.


def test_log_factorials_match_gammaln():
    k = np.arange(241)
    np.testing.assert_allclose(fock._log_factorials(241), gammaln(k + 1.0), rtol=2e-15, atol=0)


def test_laguerre_ratios_are_exact_at_zero():
    assert np.array_equal(fock._laguerre_ratios(121, 0.0), np.ones((121, 121)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(x=st.floats(0.0, 30.0))
@example(x=1e-3)
@example(x=30.0)
def test_laguerre_matches_eval_genlaguerre(x):
    # Compared in units of a displacement-matrix element,
    # sqrt(k!/(k+a)!) x^(a/2) e^(-x/2) L_k^(a)(x), which is at most 1 in
    # magnitude; relative to L itself the comparison is meaningless near
    # its zeros.  scipy's own error in these units reaches 2.6e-14 at x = 30.
    n = 121
    k, a = np.arange(n)[:, None], np.arange(n)[None, :]
    binom = np.array([[float(math.comb(i + j, i)) for j in range(n)] for i in range(n)])
    ours = binom * fock._laguerre_ratios(n, x)
    ref = eval_genlaguerre(k, a, x)
    weight = np.exp(0.5 * (gammaln(k + 1.0) - gammaln(k + a + 1.0)) + xlogy(0.5 * a, x) - 0.5 * x)
    assert np.max(weight * np.abs(ours - ref)) <= 1e-13


def scipy_displacement(eta, dim):
    """The Laguerre closed form of :func:`fock.displacement_matrix` built
    from scipy.special, as the library computed it before it dropped scipy."""
    n, m = np.arange(dim)[:, None], np.arange(dim)[None, :]
    lo, ell = np.minimum(n, m), np.abs(n - m)
    x = abs(eta) ** 2
    log_mag = xlogy(ell, abs(eta)) - 0.5 * x + 0.5 * (gammaln(lo + 1.0) - gammaln(lo + ell + 1.0))
    phase = np.where(n < m, (-1.0) ** ell, 1.0) * np.exp(1j * (n - m) * np.angle(eta))
    return np.exp(log_mag) * eval_genlaguerre(lo, ell, x) * phase


@pytest.mark.parametrize("eta, dim", [(0.9 + 0.3j, 24), (4.0, 80), (2 + 1j, 100)])
def test_displacement_matches_scipy_closed_form(eta, dim):
    dev = np.max(np.abs(fock.displacement_matrix(eta, dim) - scipy_displacement(eta, dim)))
    assert dev <= 1e-13
