"""Property-based checks that pin the truncated-Fock oracle across its
parameter range: the displacement closed form against the matrix
exponential of the generator, the covariance of every vector builder
against the covariance-level state, the reduced two-mode squeezed
vacuum's entropy against h(cosh r), and ``lost_mass`` against the exact
tail mass where that has a closed form.

Dimensions are chosen by the builders' own tail tolerances: each case
starts from the smallest dim the builder accepts, where the truncation is
as coarse as the library allows, plus a drawn number of extra levels.

The covariance and entropy tolerances are set by the mass the cutoff
misses.  ``lost_mass`` alone does not bound the error when the tail is
steep: the truncated quadratures drop q|dim-1>'s |dim> component, and q^2
links levels dim-2 and dim-1 to the lost ones, so a coherent state at
|alpha| = 0.04 and dim 4 loses 2.3e-13 of its mass while its covariance is
off by 4.5e-9.  The bound therefore counts the mass from level dim-2 on,
``lost_mass`` being its part beyond the cutoff: with that edge mass e and
scale s = 1 + max|sigma| + |mean|^2, the deviation stays below
2 dim (e + dim eps) s.  The worst of 600 random cases reached 0.59 of
dim (e + dim eps) s.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc

from fock_oracle import EPS, assert_moments_match, edge_mass
from gaussphase import (
    GaussianState,
    TruncationError,
    coherent,
    fock,
    squeezed_vacuum,
    two_mode_squeezed_vacuum,
)
from gaussphase.symplectic import _expm

ANGLES = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
EXTRA_LEVELS = st.integers(0, 24)


def smallest_dim(build):
    """The smallest dim >= 2 at which ``build(dim)`` raises no TruncationError."""
    dim = 2
    while True:
        try:
            build(dim)
            return dim
        except TruncationError:
            dim += 1


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(dim=st.integers(2, 100), fraction=st.floats(0.0, 1.0, exclude_max=True), arg=ANGLES)
@example(dim=2, fraction=0.99, arg=0.0)
@example(dim=12, fraction=0.9, arg=0.32)
@example(dim=100, fraction=0.9999, arg=2.5)
def test_displacement_closed_form_matches_padded_exponential(dim, fraction, arg):
    # Over the whole range |eta|^2 < dim/4 and on the low block n, m < dim/2:
    # exp(eta a^dag - eta* a) on a basis padded beyond the spread of
    # D(eta)|n> by 10 + 2|eta|^2 levels is exact there to about 1e-14,
    # while the generator truncated at dim itself is off by up to 1e-5.
    x = fraction * dim / 4.0
    eta = math.sqrt(x) * complex(math.cos(arg), math.sin(arg))
    a, adag, _ = fock.ladder(dim + 10 + int(2.0 * x))
    reference = _expm(eta * adag - np.conj(eta) * a)
    low = dim // 2
    dev = np.max(np.abs(fock.displacement_matrix(eta, dim)[:low, :low] - reference[:low, :low]))
    assert dev <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mag=st.floats(0.0, 4.0), arg=ANGLES, extra=EXTRA_LEVELS)
@example(mag=0.04, arg=1.0, extra=0)
def test_coherent_vector_is_the_coherent_state(mag, arg, extra):
    alpha = mag * complex(math.cos(arg), math.sin(arg))
    dim = smallest_dim(lambda d: fock.coherent_vector(alpha, d)) + extra
    state = fock.coherent_vector(alpha, dim)
    # the Poisson mass beyond the cutoff, P(N >= dim) for N ~ Poisson(|alpha|^2)
    assert abs(state.lost_mass - gammainc(dim, mag * mag)) <= dim * EPS
    assert_moments_match(state, coherent(alpha))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(r=st.floats(0.0, 1.5), theta=ANGLES, extra=EXTRA_LEVELS)
@example(r=0.8, theta=0.9, extra=0)
def test_squeezed_vacuum_vector_is_the_squeezed_vacuum(r, theta, extra):
    dim = smallest_dim(lambda d: fock.squeezed_vacuum_vector(r, theta, d)) + extra
    state = fock.squeezed_vacuum_vector(r, theta, dim)
    assert state.lost_mass <= fock.SQUEEZED_TAIL_TOL
    assert_moments_match(state, squeezed_vacuum(r, theta))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(r=st.floats(0.0, 3.0), theta=ANGLES, extra=EXTRA_LEVELS)
@example(r=3.0, theta=0.6, extra=0)
@example(r=5.452002434556727e-07, theta=0.0, extra=1)
def test_tmsv_vector_at_half_r_is_the_two_mode_squeezed_vacuum(r, theta, extra):
    # the ladder-convention tmsv_vector(r/2) has the covariance-level
    # two_mode_squeezed_vacuum(r)'s moments, and each mode alone is thermal
    # with nu = cosh r
    dim = smallest_dim(lambda d: fock.tmsv_vector(r / 2.0, theta, d)) + extra
    state = fock.tmsv_vector(r / 2.0, theta, dim)
    # the geometric mass beyond the cutoff, tanh(r/2)^(2 dim)
    assert abs(state.lost_mass - np.tanh(r / 2.0) ** (2 * dim)) <= dim * EPS
    assert_moments_match(state, two_mode_squeezed_vacuum(r, theta))
    # h(cosh r) from the occupation nbar = (cosh r - 1)/2 = sinh^2(r/2),
    # which does not cancel at small r, where von_neumann_entropy rounds
    # nu within 1e-12 of 1 to a pure state
    nbar = math.sinh(r / 2.0) ** 2
    expected = (1.0 + nbar) * math.log1p(nbar) - (nbar * math.log(nbar) if nbar > 0 else 0.0)
    entropy = fock.fock_entropy(fock.reduced_density(state))
    assert abs(entropy - expected) <= 2.0 * dim * (edge_mass(state) + dim * EPS)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(r=st.floats(0.0, 1.0), theta=ANGLES, mag=st.floats(0.0, 2.0), arg=ANGLES)
@example(r=0.6, theta=1.1, mag=1.5, arg=2.0)
def test_displaced_squeezed_vector_is_the_displaced_squeezed_state(r, theta, mag, arg):
    # D(eta) S|0> keeps the squeezed covariance and moves the mean to
    # sqrt(2) (Re eta, Im eta).  The levels are grown in steps of 4 until
    # the displaced vector keeps all but SQUEEZED_TAIL_TOL of its mass.
    eta = mag * complex(math.cos(arg), math.sin(arg))
    dim = smallest_dim(lambda d: fock.squeezed_vacuum_vector(r, theta, d))
    while True:
        squeezed = fock.squeezed_vacuum_vector(r, theta, dim)
        moved = fock.displacement_matrix(eta, dim) @ squeezed.amplitudes
        lost = 1.0 - (1.0 - squeezed.lost_mass) * float(np.vdot(moved, moved).real)
        if lost <= fock.SQUEEZED_TAIL_TOL:
            break
        dim += 4
    state = fock.FockState(amplitudes=moved, dim=dim, lost_mass=max(lost, 0.0))
    mean = math.sqrt(2.0) * np.array([eta.real, eta.imag])
    displaced = GaussianState(n_modes=1, mean=mean, cov=squeezed_vacuum(r, theta).cov)
    assert_moments_match(state, displaced)
