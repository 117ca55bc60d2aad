"""Gaussian quantum mechanics in phase space.

Covariance-matrix representation of Gaussian states, symplectic dynamics
under quadratic Hamiltonians, Williamson diagonalization, entropies, and
Wigner functions on grids, cross-checked by a truncated Fock-space oracle.
"""

from . import fock
from .dynamics import (
    GaussianChannel,
    LadderHamiltonian,
    QuadraticHamiltonian,
    apply_channel,
    evolve_ode,
    generate_channel,
    ladder_to_quadrature,
    normal_mode_ground_state,
    rotation_hamiltonian,
    squeeze_hamiltonian,
    two_mode_squeeze_hamiltonian,
)
from .entropy import (
    EntropyResult,
    entanglement_entropy,
    entropy_from_spectrum,
    tmsv_temperature,
    von_neumann_entropy,
)
from .errors import (
    ConditioningWarning,
    DimensionError,
    GaussPhaseError,
    GridAdequacyWarning,
    NoGroundStateError,
    NotPositiveDefiniteError,
    NotPureError,
    SelfCheckError,
    TruncationError,
    UnphysicalStateError,
)
from .states import (
    GaussianState,
    PhysicalityReport,
    PurityReport,
    coherent,
    partial_trace,
    physicality_check,
    purity,
    squeezed_vacuum,
    tensor,
    thermal,
    two_mode_squeezed_vacuum,
    vacuum,
)
from .symplectic import check_symplectic, make_symplectic_form
from .wigner import (
    PhaseSpaceGrid,
    SampledWavefunction,
    WignerGrid,
    centered_grid,
    eval_fock,
    eval_gaussian,
    marginal_p,
    marginal_q,
    normalization,
    oscillator_eigenfunction,
    overlap,
    purity_and_bounds,
    wigner_from_wavefunction,
)
from .williamson import (
    WilliamsonDecomposition,
    symplectic_spectrum,
    williamson_decompose,
)

__version__ = "0.1.0"

