"""Admission of every input the library takes: a wrong shape raises
DimensionError, a NaN or infinite entry raises DomainError naming the
non-finite entries, and neither emits a RuntimeWarning on the way.  Finite
arguments of any magnitude either give finite results or a typed refusal."""

import warnings

import numpy as np
import pytest

from gaussphase import (
    ConditioningWarning,
    DimensionError,
    DomainError,
    GaussPhaseError,
    GaussianChannel,
    GaussianState,
    GridAdequacyWarning,
    LadderHamiltonian,
    ModeIndexError,
    QuadraticHamiltonian,
    SampledWavefunction,
    WignerGrid,
    apply_channel,
    centered_grid,
    check_symplectic,
    coherent,
    entanglement_entropy,
    entropy_from_spectrum,
    eval_fock,
    eval_gaussian,
    evolve_ode,
    fock,
    generate_channel,
    make_symplectic_form,
    oscillator_eigenfunction,
    rotation_hamiltonian,
    squeeze_hamiltonian,
    squeezed_vacuum,
    symplectic_spectrum,
    thermal,
    tmsv_temperature,
    two_mode_squeezed_vacuum,
    vacuum,
    williamson_decompose,
)

E2, Z1, Z2 = np.eye(2), np.zeros((1, 1), dtype=complex), np.zeros(2)

# site -> (builder of one argument, a valid argument, a wrong-shaped one)
ARRAY_SITES = {
    "state-mean": (lambda x: GaussianState(1, x, E2), Z2, np.zeros(3)),
    "state-cov": (lambda x: GaussianState(1, Z2, x), E2, np.eye(3)),
    "hamiltonian-f_bar": (lambda x: QuadraticHamiltonian(1, x), E2, np.eye(4)),
    "hamiltonian-alpha": (lambda x: QuadraticHamiltonian(1, E2, x), Z2, np.zeros((2, 1))),
    "ladder-w": (lambda x: LadderHamiltonian(1, x, Z1), Z1, np.zeros((2, 2))),
    "ladder-g": (lambda x: LadderHamiltonian(1, Z1, x), Z1, np.zeros(1)),
    "channel-s": (lambda x: GaussianChannel(x, Z2), E2, np.eye(3)),
    "channel-d": (lambda x: GaussianChannel(E2, x), Z2, np.zeros(4)),
    "wigner-values": (
        lambda x: WignerGrid(centered_grid(1.0, 3), x),
        np.zeros((3, 3)),
        np.zeros((3, 4)),
    ),
    "fock-amplitudes": (lambda x: fock.FockState(x, 2), [1.0, 0.0], [1.0, 0.0, 0.0]),
    "fock-density": (lambda x: fock.FockDensity(x, 2), np.diag([1.0, 0.0]), np.eye(3) / 3),
    "check_symplectic": (check_symplectic, E2, np.eye(2, 3)),
    "check_symplectic-form": (
        lambda x: check_symplectic(x, make_symplectic_form(2)),
        np.eye(4),
        E2,
    ),
    "symplectic_spectrum": (symplectic_spectrum, E2, np.eye(3)),
    "williamson_decompose": (williamson_decompose, E2, np.ones((2, 2, 2))),
    # a 2-d psi used to be flattened into 10 samples
    "wavefunction-psi": (
        lambda x: SampledWavefunction(0.0, 1.0, x),
        np.ones(5),
        np.ones((5, 2)),
    ),
    "coherent-alpha": (coherent, [0.5, 1j], [[0.5, 1j]]),
    # a NaN, or a spectrum of any other shape, used to give a total of 0.0
    "entropy_from_spectrum": (entropy_from_spectrum, [1.0, 2.5], [[1.0, 2.5]]),
}

# the value objects, whose stored arrays are read-only
VALUE_OBJECTS = (
    GaussianState,
    QuadraticHamiltonian,
    LadderHamiltonian,
    GaussianChannel,
    WignerGrid,
    SampledWavefunction,
    fock.FockState,
    fock.FockDensity,
)


def _ramp(t):
    return squeeze_hamiltonian(0.3 * t)


# site -> (builder of one scalar, a valid scalar)
SCALAR_SITES = {
    "thermal-nu": (thermal, 1.5),
    "squeezed-r": (squeezed_vacuum, 0.5),
    "tmsv-r": (two_mode_squeezed_vacuum, 0.5),
    "channel-t": (lambda t: generate_channel(rotation_hamiltonian(1), t), 0.5),
    "evolve_ode-t": (lambda t: evolve_ode(squeeze_hamiltonian(0.3), vacuum(1), t, 0.1), 0.5),
    "evolve_ode-dt": (lambda dt: evolve_ode(squeeze_hamiltonian(0.3), vacuum(1), 1.0, dt), 0.1),
    "evolve_ode-callable-t": (lambda t: evolve_ode(_ramp, vacuum(1), t, 0.1), 0.5),
    "evolve_ode-callable-dt": (lambda dt: evolve_ode(_ramp, vacuum(1), 1.0, dt), 0.1),
}


def _first_entry(a, value):
    """Copy of ``a`` with its first entry set to ``value``."""
    a = np.array(a, dtype=complex if np.iscomplexobj(a) else float)
    a.flat[0] = value
    return a


def _cases():
    for site, (build, good, wrong) in ARRAY_SITES.items():
        yield pytest.param(build, good, None, None, id=f"{site}-valid")
        yield pytest.param(build, wrong, DimensionError, "shape", id=f"{site}-shape")
        for value in (np.nan, np.inf):
            bad = _first_entry(good, value)
            yield pytest.param(build, bad, DomainError, "non-finite", id=f"{site}-{value}")
    for site, (build, good) in SCALAR_SITES.items():
        yield pytest.param(build, good, None, None, id=f"{site}-valid")
        for value in (np.nan, np.inf):
            yield pytest.param(build, value, DomainError, "non-finite", id=f"{site}-{value}")
    # partial_trace refuses a repeated mode before entanglement_entropy reads it
    yield pytest.param(
        lambda keep: entanglement_entropy(two_mode_squeezed_vacuum(1.0), keep),
        [0, 0],
        ModeIndexError,
        "duplicate",
        id="entanglement-duplicate",
    )


@pytest.mark.parametrize("build, arg, error, match", _cases())
def test_admission(build, arg, error, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:
            build(arg)
            return
        with pytest.raises(error, match=match) as excinfo:
            build(arg)
    # a shape fault is a DimensionError, a non-finite entry a DomainError
    assert (excinfo.type is DimensionError) == (error is DimensionError)


def _stored_arrays(result):
    """The arrays a site returns: an array result, or a record's array fields."""
    if isinstance(result, np.ndarray):
        return [result]
    return [v for v in getattr(result, "__dict__", {}).values() if isinstance(v, np.ndarray)]


@pytest.mark.parametrize("as_view", [False, True], ids=["array", "view"])
@pytest.mark.parametrize("site", ARRAY_SITES)
def test_caller_array_is_neither_frozen_nor_aliased(site, as_view):
    build, good, _ = ARRAY_SITES[site]
    owner = given = np.array(good)
    if as_view:  # every other entry of a larger array
        owner = np.zeros(given.shape + (2,), dtype=given.dtype)
        owner[..., 0] = given
        given = owner[..., 0]
    result = build(given)
    assert given.flags.writeable and owner.flags.writeable
    stored = _stored_arrays(result)
    assert not any(np.may_share_memory(a, owner) for a in stored)
    if isinstance(result, VALUE_OBJECTS):
        assert stored and not any(a.flags.writeable for a in stored)


def _grid_axes(half_width):
    grid = centered_grid(half_width, 5)
    return np.array([*grid.q, *grid.p, grid.dq, grid.dp])


# site -> builder of one finite scalar, returning the arrays it computed
MAGNITUDE_SITES = {
    "squeezed-r": lambda r: squeezed_vacuum(r, 0.3).cov,
    "tmsv-r": lambda r: two_mode_squeezed_vacuum(r, 0.3).cov,
    "thermal-nu": lambda nu: thermal(nu).cov,
    "coherent-alpha": lambda alpha: coherent(alpha).mean,
    "grid-half_width": _grid_axes,
    "eval_fock-half_width": lambda w: eval_fock(2, centered_grid(w, 5)).values,
    "eval_fock-hbar": lambda hbar: eval_fock(1, centered_grid(5.0, 5, hbar=hbar)).values,
    "eval_gaussian-half_width": lambda w: eval_gaussian(vacuum(1), centered_grid(w, 5)).values,
    "eval_gaussian-hbar": lambda hbar: eval_gaussian(
        vacuum(1), centered_grid(5.0, 5, hbar=hbar)
    ).values,
    "eval_gaussian-alpha": lambda alpha: eval_gaussian(coherent(alpha), centered_grid(5.0, 5)).values,
    "oscillator_eigenfunction-x": lambda x: oscillator_eigenfunction(3, np.array([x])),
    "wavefunction-window": lambda x: SampledWavefunction(-x, x, np.ones(5)).psi,
    "wavefunction-amplitude": lambda a: SampledWavefunction(-1.0, 1.0, a * np.ones(5)).psi,
    "channel-r": lambda r: generate_channel(squeeze_hamiltonian(r), 1.0).s,
    "channel-t": lambda t: generate_channel(squeeze_hamiltonian(1.0), t).s,
    "apply_channel-nu": lambda nu: apply_channel(
        generate_channel(squeeze_hamiltonian(1.0), 1.0), thermal(nu)
    ).cov,
    "evolve_ode-nu": lambda nu: evolve_ode(rotation_hamiltonian(1), thermal(nu), 1.0, 0.5).cov,
    # a constant Hamiltonian only: a callable at t / dt ~ 1e300 would take as many steps
    "evolve_ode-t": lambda t: evolve_ode(squeeze_hamiltonian(1.0), vacuum(1), t, 0.1).cov,
    "check_symplectic-scale": lambda a: [check_symplectic(a * np.eye(2)).residual],
    "williamson-nu": lambda nu: williamson_decompose(nu * np.eye(2)).sigma,
    "entropy-nu": lambda nu: entropy_from_spectrum([nu]).per_mode,
    "displacement-eta": lambda eta: fock.displacement_matrix(eta, 10),
    "tmsv_temperature-r": lambda r: [tmsv_temperature(r).partition_function],
    "tmsv_temperature-omega": lambda omega: [tmsv_temperature(1.0, omega).temperature],
}
# 1e308 is finite, but a grid spanning [-1e308, 1e308] is not; 5^2 / 1e-308
# (a grid coordinate squared over hbar) is not either; sqrt(2) * 1.5e308, a
# coherent state's mean, overflows
MAGNITUDES = [10.0**e for e in (1, -1, 10, -10, 100, -100, 300, -300)] + [1e308, 1e-308, 1.5e308]


@pytest.mark.parametrize("value", [s * m for m in MAGNITUDES for s in (1, -1)])
@pytest.mark.parametrize("site", MAGNITUDE_SITES)
def test_magnitude_gives_finite_values_or_typed_refusal(site, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the intended warnings: a narrow grid, a nearly singular matrix
        warnings.simplefilter("ignore", GridAdequacyWarning)
        warnings.simplefilter("ignore", ConditioningWarning)
        try:
            result = MAGNITUDE_SITES[site](value)
        except (GaussPhaseError, ValueError):
            return
    assert np.isfinite(result).all()


@pytest.mark.parametrize(
    "site, value",
    [
        ("entropy-nu", 1e308),
        ("thermal-nu", 1e308),
        ("wavefunction-amplitude", 1e300),
        ("wavefunction-amplitude", 1e-300),
    ],
)
def test_representable_extreme_result_is_not_refused(site, value):
    # the sweep above also accepts a typed refusal; these results are
    # representable, so they must be returned (h(1e308) is about 709.5, and
    # a constant psi of any amplitude normalizes to 1/sqrt(2) on [-1, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(MAGNITUDE_SITES[site](value)).all()


def test_overflowing_step_count_is_refused():
    # t / dt overflows to inf; the constant form forms no step count, and
    # its channel at t = 1e300 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            evolve_ode(squeeze_hamiltonian(0.3), vacuum(1), 1e300, 1e-300)


class _Stepped(Exception):
    """Raised by a Hamiltonian callable when evolve_ode takes its first step."""


def _first_step(t):
    raise _Stepped


@pytest.mark.parametrize(
    "t, dt, refused",
    [(1e300, 1e-7, True), (2.0**53 + 2.0, 1.0, True), (2.0**53, 1.0, False)],
    ids=["1e307-steps", "2^53+2-steps", "2^53-steps"],
)
def test_impossible_step_count_is_refused_before_any_step(t, dt, refused):
    # a finite t / dt above 2^53 asks for more steps than k * step can count
    # exactly; it is refused at once, where the loop would run for ever
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError if refused else _Stepped, match="2\\^53" if refused else None):
            evolve_ode(_first_step, vacuum(1), t, dt)
