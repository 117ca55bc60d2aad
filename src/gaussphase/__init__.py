"""Gaussian quantum mechanics in phase space.

Covariance-matrix representation of Gaussian states, symplectic dynamics
under quadratic Hamiltonians, Williamson diagonalization, entropies, and
Wigner functions on grids, cross-checked by a truncated Fock-space oracle.

Names load on first use (PEP 562): ``import gaussphase`` loads neither
numpy nor any submodule, and ``gaussphase.X`` or ``from gaussphase import X``
imports the one submodule that defines X.
"""

__version__ = "0.1.0"

# submodule -> the public names the package re-exports from it, space separated
_EXPORTS = {
    "dynamics": """GaussianChannel LadderHamiltonian QuadraticHamiltonian apply_channel
        evolve_ode generate_channel ladder_to_quadrature normal_mode_ground_state
        rotation_hamiltonian squeeze_hamiltonian two_mode_squeeze_hamiltonian""",
    "entropy": """EntropyResult entanglement_entropy entropy_from_spectrum tmsv_temperature
        von_neumann_entropy""",
    "errors": """ConditioningWarning DimensionError DomainError GaussPhaseError
        GridAdequacyWarning InputError ModeIndexError NoGroundStateError
        NotPositiveDefiniteError NotPureError ParameterError TruncationError
        UnphysicalStateError""",
    "fock": "",
    "states": """GaussianState PhysicalityReport PurityReport coherent partial_trace
        physicality_check purity squeezed_vacuum tensor thermal two_mode_squeezed_vacuum
        vacuum""",
    "symplectic": "check_symplectic make_symplectic_form",
    "wigner": """PhaseSpaceGrid SampledWavefunction WignerGrid centered_grid eval_fock
        eval_gaussian marginal_p marginal_q normalization oscillator_eigenfunction overlap
        purity_and_bounds wigner_from_wavefunction""",
    "williamson": "WilliamsonDecomposition symplectic_spectrum williamson_decompose",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in [module, *names.split()]}

# without __version__, which a star import does not bind
__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's path, which -X importtime logs; it binds the submodule here
    __import__(f"{__name__}.{module}")
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
