"""Propagation against references that share none of its code.

The channel of a constant quadratic Hamiltonian (``generate_channel``) is
compared with the Fock-space oracle of ``tests/fock_oracle.py``: the
truncated Hamiltonian's unitary, from its eigendecomposition, applied to
the vacuum of one or two modes and to a one-mode thermal state.  The
Magnus propagation of a time-dependent Hamiltonian (``evolve_ode`` with a
callable) is pinned by the purity of the evolved vacuum, by its order of
convergence, and, for a piecewise-constant H(t), by the oracle evolved
piece by piece.  Nothing here imports scipy.

The drawn Hamiltonians keep the evolved states clear of the truncation:
every case asserts that its bound (``fock_oracle.moment_tolerance``) is at
most ``ORACLE_BOUND``, far below the order-one deviation of a wrong sign
or a wrong symplectic form.
"""

import bisect
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fock_oracle import (
    EPS,
    assert_moments_match,
    evolved,
    moment_deviation,
    moment_tolerance,
    vacuum_vector,
)
from gaussphase import (
    LadderHamiltonian,
    QuadraticHamiltonian,
    apply_channel,
    evolve_ode,
    fock,
    generate_channel,
    ladder_to_quadrature,
    purity,
    thermal,
    vacuum,
)

# levels per mode count, and the bound on the entries of Fbar, alpha and G
# that keeps the evolved states clear of them up to t = 1: in 300 random
# draws the truncation bound reached 5.9e-12 at one mode and 1.5e-7 at
# two, and the two-mode corner G = 0.125 everywhere reaches 1.1e-6
DIM = {1: 60, 2: 16}
ENTRY = {1: 0.3, 2: 0.15}
ORACLE_BOUND = 1e-5
SETTINGS = settings(deadline=None, derandomize=True, database=None)


def symmetric(n, bound):
    """Real symmetric 2n x 2n matrices with entries in [-bound, bound]."""
    return arrays(float, (2 * n, 2 * n), elements=st.floats(-bound, bound)).map(
        lambda x: 0.5 * (x + x.T)
    )


def vectors(n, bound):
    return arrays(float, 2 * n, elements=st.floats(-bound, bound))


@st.composite
def hamiltonians(draw, n):
    """(source, alpha, quadratic form): a QuadraticHamiltonian, or a
    LadderHamiltonian with a beam-splitter W and a squeezing G, plus the
    linear term alpha and the QuadraticHamiltonian the library takes."""
    bound = ENTRY[n]
    alpha = draw(vectors(n, bound))
    if draw(st.booleans()):
        ham = QuadraticHamiltonian(n_modes=n, f_bar=draw(symmetric(n, bound)), alpha=alpha)
        return ham, alpha, ham
    w = draw(arrays(complex, (n, n), elements=st.complex_numbers(max_magnitude=0.5)))
    g = draw(arrays(complex, (n, n), elements=st.complex_numbers(max_magnitude=bound)))
    source = LadderHamiltonian(n_modes=n, w=0.5 * (w + w.conj().T), g=0.5 * (g + g.T))
    ham = QuadraticHamiltonian(n_modes=n, f_bar=ladder_to_quadrature(source).f_bar, alpha=alpha)
    return source, alpha, ham


@st.composite
def oracle_cases(draw):
    n = draw(st.sampled_from([1, 2]))
    return (*draw(hamiltonians(n)), draw(st.floats(0.0, 1.0)))


def assert_oracle_agrees(fock_state, gaussian):
    """Within the truncation bound, which the drawn ranges keep small."""
    assert moment_tolerance(fock_state, gaussian) <= ORACLE_BOUND
    assert_moments_match(fock_state, gaussian)


CORNER = QuadraticHamiltonian(n_modes=1, f_bar=[[0.3, -0.3], [-0.3, -0.3]], alpha=[0.3, -0.3])


@settings(SETTINGS, max_examples=40)
@given(case=oracle_cases(), nbar=st.floats(0.0, 0.3))
@example(case=(CORNER, CORNER.alpha, CORNER, 1.0), nbar=0.3)
def test_channel_matches_fock_oracle(case, nbar):
    source, alpha, ham, t = case
    n, dim = ham.n_modes, DIM[ham.n_modes]
    channel = generate_channel(ham, t)
    expected = apply_channel(channel, vacuum(n))
    narrow = evolved(vacuum_vector(n, dim), source, alpha, t)
    assert_oracle_agrees(narrow, expected)
    if n == 1:
        # 20 more levels move the oracle by less than the bound it is held to
        wider = evolved(vacuum_vector(1, dim + 20), source, alpha, t)
        assert moment_deviation(wider, expected) <= moment_tolerance(narrow, expected)
        mixed = evolved(fock.thermal_density(nbar, dim), source, alpha, t)
        assert_oracle_agrees(mixed, apply_channel(channel, thermal(2.0 * nbar + 1.0)))


def test_truncation_sets_the_deviation_and_the_oracle_tells_t_from_minus_t():
    # two-mode squeezing, a beam splitter and a displacement at 4 levels:
    # the deviation from the channel sits within the bound, and it is the
    # truncation's, since 20 more levels shrink it a thousandfold; the
    # time-reversed channel misses by order one
    source = LadderHamiltonian(
        n_modes=2, w=[[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.1]], g=[[0.05, 0.1j], [0.1j, 0.0]]
    )
    alpha = np.array([0.2, -0.1, 0.0, 0.15])
    ham = QuadraticHamiltonian(n_modes=2, f_bar=ladder_to_quadrature(source).f_bar, alpha=alpha)
    t = 0.8
    expected = apply_channel(generate_channel(ham, t), vacuum(2))
    narrow = evolved(vacuum_vector(2, 4), source, alpha, t)
    wider = evolved(vacuum_vector(2, 24), source, alpha, t)
    assert_moments_match(narrow, expected)
    assert moment_deviation(wider, expected) <= 1e-3 * moment_deviation(narrow, expected)
    reversed_ = apply_channel(generate_channel(ham, -t), vacuum(2))
    assert moment_deviation(wider, reversed_) > 0.1


@st.composite
def driven(draw):
    """H(t) = F0 + sin(w t) F1 with alpha(t) = a0 + cos(w t) a1, on one or
    two modes, entries in [-0.5, 0.5] and w in [0.5, 2]."""
    n = draw(st.sampled_from([1, 2]))
    f0, f1 = draw(symmetric(n, 0.5)), draw(symmetric(n, 0.5))
    a0, a1 = draw(vectors(n, 0.5)), draw(vectors(n, 0.5))
    w = draw(st.floats(0.5, 2.0))

    def h(t):
        return QuadraticHamiltonian(
            n_modes=n, f_bar=f0 + math.sin(w * t) * f1, alpha=a0 + math.cos(w * t) * a1
        )

    return n, h


def deviation(a, b):
    return max(np.max(np.abs(a.mean - b.mean)), np.max(np.abs(a.cov - b.cov)))


@settings(SETTINGS, max_examples=25)
@given(case=driven(), t=st.floats(0.5, 5.0))
def test_magnus_keeps_the_vacuum_pure_at_fourth_order(case, t):
    # steps of at most 0.25 are in the asymptotic range: each halving cuts
    # the error against a dt/8 reference by 16 (a second-order step: 4).
    # Purity is held to 1e-12, or to kappa(sigma) eps where the rounding of
    # a squeezed sigma alone moves it further.
    n, h = case
    dt = t / math.ceil(t / 0.25)
    coarse, fine, reference = (evolve_ode(h, vacuum(n), t, dt / k) for k in (1, 2, 8))
    for out in (coarse, fine, reference):
        assert abs(purity(out).purity - 1.0) <= max(1e-12, np.linalg.cond(out.cov) * EPS)
    scale = 1.0 + np.max(np.abs(reference.cov)) + np.max(np.abs(reference.mean))
    if deviation(coarse, reference) > 1e-9 * scale:  # above rounding
        assert deviation(coarse, reference) >= 10.0 * deviation(fine, reference)


@settings(SETTINGS, max_examples=15)
@given(
    n=st.sampled_from([1, 2]),
    data=st.data(),
    lengths=st.lists(st.integers(1, 3), min_size=2, max_size=3),
)
def test_piecewise_constant_hamiltonian_matches_the_oracle_piece_by_piece(n, data, lengths):
    # the breaks fall on step edges, so every step sees one piece, at both
    # Gauss points, and is that piece's exact exponential
    dt = 0.125
    pieces = [data.draw(hamiltonians(n)) for _ in lengths]
    ends = np.cumsum(lengths).tolist()

    def h(t):
        return pieces[bisect.bisect_right(ends, int(t / dt))][2]

    out = evolve_ode(h, vacuum(n), dt * ends[-1], dt)
    state = vacuum_vector(n, DIM[n])
    for (source, alpha, _), steps in zip(pieces, lengths):
        state = evolved(state, source, alpha, dt * steps)
    assert_oracle_agrees(state, out)


@settings(SETTINGS, max_examples=25)
@given(
    n=st.sampled_from([1, 2]),
    data=st.data(),
    t=st.floats(0.0, 5.0),
    dt=st.floats(1e-3, 10.0),
    nu=st.floats(1.0, 3.0),
)
def test_constant_hamiltonian_is_generate_channel_bit_for_bit(n, data, t, dt, nu):
    ham = data.draw(hamiltonians(n))[2]
    state = thermal(nu) if n == 1 else vacuum(2)
    out = evolve_ode(ham, state, t, dt)
    expected = apply_channel(generate_channel(ham, t), state)
    assert np.array_equal(out.mean, expected.mean) and np.array_equal(out.cov, expected.cov)
