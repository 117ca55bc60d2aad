"""Values the library derives from admitted inputs: states, channels and
Wigner grids built by ``symplectic._trusted``.

Each skips its class's constructor and runs only the checks its inputs
have not passed: a channel tests that S and d are finite and that S is
symplectic, with Omega applied as a permutation and never built; a grid
warns about its boundary and then takes ``wigner._bounded``.  The results hold the same
bits as the public constructor's.

An admitted matrix on the spectral path, a state's covariance or a
Hamiltonian's Fbar, reaches Williamson's factorization without the
admission of the public ``williamson`` functions."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaussphase import (
    GaussianChannel,
    GaussianState,
    GridAdequacyWarning,
    QuadraticHamiltonian,
    SampledWavefunction,
    WignerGrid,
    apply_channel,
    centered_grid,
    coherent,
    dynamics,
    entanglement_entropy,
    eval_fock,
    eval_gaussian,
    evolve_ode,
    generate_channel,
    normal_mode_ground_state,
    oscillator_eigenfunction,
    partial_trace,
    physicality_check,
    squeeze_hamiltonian,
    squeezed_vacuum,
    states,
    symplectic,
    tensor,
    thermal,
    two_mode_squeezed_vacuum,
    vacuum,
    von_neumann_entropy,
    wigner_from_wavefunction,
    williamson,
)
from gaussphase.cli import main, state_to_dict
from gaussphase.wigner import _bounded


def _ramp(t):
    return squeeze_hamiltonian(0.3 * t)


# inputs made by public constructors, before any test replaces them
TMSV = two_mode_squeezed_vacuum(0.5)
SQUEEZED = squeezed_vacuum(0.7, 0.3)
CHANNEL = generate_channel(squeeze_hamiltonian(0.4, 0.2), 1.0)
GRID = centered_grid(6.0, 41)
PSI = SampledWavefunction(-7.0, 7.0, oscillator_eigenfunction(2, np.linspace(-7.0, 7.0, 561)))

# site -> (class of the derived value, its builder)
DERIVED = {
    "vacuum": (GaussianState, lambda: vacuum(2)),
    "thermal": (GaussianState, lambda: thermal(2.0)),
    "coherent": (GaussianState, lambda: coherent([1.0, 2j])),
    "tensor": (GaussianState, lambda: tensor(TMSV, SQUEEZED)),
    "partial_trace": (GaussianState, lambda: partial_trace(TMSV, [1])),
    "apply_channel": (GaussianState, lambda: apply_channel(CHANNEL, SQUEEZED)),
    "generate_channel": (GaussianChannel, lambda: generate_channel(squeeze_hamiltonian(0.3), 2.0)),
    # through a channel of Magnus steps, which is derived too
    "evolve_ode": (GaussianState, lambda: evolve_ode(_ramp, SQUEEZED, 1.0, 0.5)),
    "eval_gaussian": (WignerGrid, lambda: eval_gaussian(vacuum(1), GRID)),
    "eval_fock": (WignerGrid, lambda: eval_fock(3, GRID)),
    "wigner_from_wavefunction": (WignerGrid, lambda: wigner_from_wavefunction(PSI, GRID)),
}


@pytest.mark.parametrize("site", DERIVED)
def test_derived_value_skips_the_public_constructor(monkeypatch, site):
    cls, build = DERIVED[site]

    def refuse(self):
        raise AssertionError(f"{type(self).__name__} admitted a derived value again")

    for value_class in (GaussianState, GaussianChannel, WignerGrid):
        monkeypatch.setattr(value_class, "__post_init__", refuse)
    value = build()
    assert isinstance(value, cls)
    stored = [v for v in vars(value).values() if isinstance(v, np.ndarray)]
    assert stored and not any(a.flags.writeable for a in stored)


# site -> a call that factors an admitted covariance or Fbar, given a state file
SPECTRAL = {
    "GaussianState.symplectic_spectrum": lambda _: TMSV.symplectic_spectrum(),
    "physicality_check": lambda _: physicality_check(SQUEEZED),
    "von_neumann_entropy": lambda _: von_neumann_entropy(partial_trace(TMSV, [0])),
    "entanglement_entropy": lambda _: entanglement_entropy(TMSV, [1]),
    "normal_mode_ground_state": lambda _: normal_mode_ground_state(
        QuadraticHamiltonian(2, np.diag([1.0, 2.0, 3.0, 4.0]))
    ),
    "cli-williamson": lambda path: main(["williamson", path]),
    "cli-coupled-example": lambda _: main(["coupled-example", "--lambda", "0.5"]),
}


@pytest.mark.parametrize("site", SPECTRAL)
def test_admitted_matrix_is_factored_without_admission(monkeypatch, tmp_path, capsys, site):
    path = tmp_path / "tmsv.json"
    path.write_text(json.dumps(state_to_dict(TMSV)))

    def refuse(*args):
        raise AssertionError("an admitted matrix was admitted again")

    monkeypatch.setattr(williamson, "_checked", refuse)
    monkeypatch.setattr(williamson, "_symmetrized", refuse)
    result = SPECTRAL[site](str(path))
    if site.startswith("cli-"):
        assert result == 0, capsys.readouterr().err


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 3),
    data=st.data(),
    scale=st.sampled_from([1e-300, 1.0, 1e300]),
    noise=st.sampled_from([0.0, 1e-13]),
)
def test_factored_state_has_the_bits_of_a_public_call(n, data, scale, noise):
    # a noise below the symmetry tolerance makes the admitted entries h + h^T
    # rather than 2h; only then can an entry below 2^-1021 halve inexactly
    a = data.draw(arrays(float, (2 * n, 2 * n), elements=st.floats(-1.0, 1.0)))
    cov = scale * (a @ a.T + np.eye(2 * n) + noise * np.triu(a))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", williamson.ConditioningWarning)
        try:
            state = GaussianState(n, np.zeros(2 * n), cov)
            spectrum = state.symplectic_spectrum()
        except ValueError:  # not positive definite in floats: nothing to compare
            return
        again = symplectic._symmetrized(state.cov, "covariance matrix")
        if noise and ((np.abs(state.cov) < 2.0**-1021) & (state.cov != 0)).any():
            assert np.abs(again - state.cov).max() <= 2.0**-1074
            return
        assert _same_bits(again, state.cov)
        assert _same_bits(spectrum, williamson.symplectic_spectrum(state.cov))
        dec = williamson._decomposition(state.cov, "cov")
        public = williamson.williamson_decompose(state.cov)
    assert all(_same_bits(getattr(dec, k), getattr(public, k)) for k in vars(public))


@pytest.fixture
def omega_builds(monkeypatch):
    """The mode counts of the symplectic forms built, in every module that builds one."""
    calls = []
    build = symplectic.make_symplectic_form

    def counted(n_modes):
        calls.append(n_modes)
        return build(n_modes)

    for module in (symplectic, dynamics, states, williamson):
        monkeypatch.setattr(module, "make_symplectic_form", counted, raising=False)
    return calls


OMEGA1 = symplectic.make_symplectic_form(1)

# site -> a call that multiplies by Omega, or checks against it
OMEGA_FREE = {
    "generate_channel": lambda: generate_channel(squeeze_hamiltonian(0.3), 1.0),
    # a callable Hamiltonian, over 1, 4 and 100 Magnus steps
    "evolve_ode-dt=1.0": lambda: evolve_ode(_ramp, SQUEEZED, 1.0, 1.0),
    "evolve_ode-dt=0.25": lambda: evolve_ode(_ramp, SQUEEZED, 1.0, 0.25),
    "evolve_ode-dt=0.01": lambda: evolve_ode(_ramp, SQUEEZED, 1.0, 0.01),
    "apply_channel": lambda: apply_channel(CHANNEL, SQUEEZED),
    "GaussianChannel": lambda: GaussianChannel(CHANNEL.s, CHANNEL.d),
    "GaussianState.symplectic_spectrum": lambda: TMSV.symplectic_spectrum(),
    "williamson_decompose": lambda: williamson.williamson_decompose(TMSV.cov),
}


@pytest.mark.parametrize("site", OMEGA_FREE)
def test_builds_no_omega(omega_builds, site):
    OMEGA_FREE[site]()
    assert omega_builds == []


def test_a_passed_form_is_compared_with_one_built_omega(omega_builds):
    assert symplectic.check_symplectic(CHANNEL.s, OMEGA1).ok
    assert omega_builds == [1]


def _broken_expm(kind):
    expm = symplectic._expm

    def broken(a):
        e = expm(a)
        if kind == "inf-s":
            e[0, 0] = np.inf
        elif kind == "nan-s":
            e[0, 1] = np.nan
        elif kind == "nan-d":
            e[0, -1] = np.nan
        else:  # a finite S that is not symplectic
            e[0, 0] *= 2.0
        return e

    return broken


ROUTES = {
    "generate_channel": lambda: generate_channel(squeeze_hamiltonian(0.3), 1.0),
    # one Magnus step: the propagator is the exponential times the identity
    "evolve_ode": lambda: evolve_ode(_ramp, vacuum(1), 1.0, 1.0),
}


@pytest.mark.parametrize(
    "kind, route, message",
    [
        ("inf-s", "generate_channel", "^s has non-finite entries$"),
        ("nan-s", "generate_channel", "^s has non-finite entries$"),
        ("nan-d", "generate_channel", "^d has non-finite entries$"),
        ("non-symplectic", "generate_channel", "^s is not symplectic"),
        # inf times the propagator's zeros is an invalid operation, refused there
        ("inf-s", "evolve_ode", "^the propagator up to t = 1.0 gives non-finite values"),
        # NaN times the propagator's zeros spreads along its row, into S
        ("nan-s", "evolve_ode", "^s has non-finite entries$"),
        ("nan-d", "evolve_ode", "^s has non-finite entries$"),
        ("non-symplectic", "evolve_ode", "^s is not symplectic"),
    ],
)
def test_derived_channel_refuses_a_broken_exponential(monkeypatch, kind, route, message):
    # the solve inside _expm can return inf or NaN without a floating-point error
    monkeypatch.setattr(dynamics, "_expm", _broken_expm(kind))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            ROUTES[route]()


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 4),
    data=st.data(),
    # mostly channels that do not overflow, but any finite t
    t=st.floats(-30.0, 30.0) | st.floats(allow_nan=False, allow_infinity=False),
)
def test_derived_channel_has_the_bits_of_an_admitted_one(n, data, t):
    entries = st.floats(-2.0, 2.0)
    f = data.draw(arrays(float, (2 * n, 2 * n), elements=entries))
    alpha = data.draw(arrays(float, (2 * n,), elements=entries))
    h = QuadraticHamiltonian(n, f + f.T, alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            channel = generate_channel(h, t)
        except ValueError:  # overflow or a residual beyond tolerance: nothing to compare
            return
    admitted = GaussianChannel(channel.s, channel.d)
    assert _same_bits(channel.s, admitted.s) and _same_bits(channel.d, admitted.d)
    assert _same_bits(channel.residual, admitted.residual)
    assert not channel.s.flags.writeable and not channel.d.flags.writeable


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    r=st.floats(0.0, 2.0),
    theta=st.floats(0.0, 6.3),
    mean=arrays(float, (2,), elements=st.floats(-3.0, 3.0)),
    level=st.integers(0, 12),
    half_width=st.floats(1.0, 6.5),
    n=st.integers(2, 30),
    hbar=st.floats(0.25, 4.0),
)
def test_evaluated_grid_has_the_bits_of_an_admitted_one(r, theta, mean, level, half_width, n, hbar):
    state = GaussianState(1, mean, squeezed_vacuum(r, theta).cov)
    grid = centered_grid(half_width, n, hbar)
    psi_grid = centered_grid(half_width, n)  # inside the window of PSI
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", GridAdequacyWarning)
        grids = [
            eval_gaussian(state, grid),
            eval_fock(level, grid),
            wigner_from_wavefunction(PSI, psi_grid),
        ]
    for w in grids:
        assert _same_bits(w.values, WignerGrid(w.grid, w.values).values)
        assert not w.values.flags.writeable


def test_leaking_grid_over_the_bound_warns_before_it_refuses():
    # an admitted covariance below the vacuum's peaks at 2 / pi, above 1 / pi,
    # and a grid of half-width 1 cuts it off at 0.14 of its peak
    state = GaussianState(1, np.zeros(2), 0.5 * np.eye(2))
    with pytest.warns(GridAdequacyWarning, match="boundary"):
        with pytest.raises(ValueError, match="exceeds the bound"):
            eval_gaussian(state, centered_grid(1.0, 5))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_bounded_refuses_non_finite_values(value):
    values = np.zeros((3, 3))
    values[1, 2] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^values has non-finite entries$"):
            _bounded(values, centered_grid(1.0, 3))
