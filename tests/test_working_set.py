"""Working-set pins of the large-n spectral path.

Each call on a 128-mode harmonic chain is measured by its tracemalloc
peak, as a multiple of one covariance matrix (``F.nbytes``, 512 KiB at
n = 128): the matrices it holds at once, its result included.  Omega is
never built, and each dense temporary is dropped before the next LAPACK
call, so Williamson's complex eigh(iY) runs beside F, F^(-1/2) and iY
alone.  tracemalloc sees only the arrays numpy allocates.  numpy's
LAPACK wrappers malloc their copy of the matrix and their workspaces,
which are not traced, so a process's resident peak is higher than these
figures.
"""

import tracemalloc

import numpy as np
import pytest

from gaussphase import (
    GaussianState,
    QuadraticHamiltonian,
    apply_channel,
    generate_channel,
    williamson_decompose,
)

N_MODES = 128


def _chain(n):
    """Pairwise Fbar of H = sum p^2/2 + sum q_i^2/2 + sum (q_i - q_{i+1})^2/4."""
    k = 2.0 * np.eye(n) - 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))
    k[0, 0] = k[-1, -1] = 1.5
    f = np.zeros((2 * n, 2 * n))
    f[0::2, 0::2] = k
    f[1::2, 1::2] = np.eye(n)
    return f


@pytest.fixture(scope="module")
def chain():
    """(Hamiltonian, its channel at t = 1.3, a thermal state, the channel output)."""
    n = N_MODES
    ham = QuadraticHamiltonian(n, _chain(n))
    channel = generate_channel(ham, 1.3)
    nu = np.linspace(1.5, 4.0, n)
    thermal = GaussianState(n, np.zeros(2 * n), np.diag(np.repeat(nu, 2)))
    return ham, channel, thermal, apply_channel(channel, thermal)


def _peak(call, unit):
    """The tracemalloc peak of ``call()`` above what was traced before it,
    in multiples of ``unit`` bytes; its result is alive when it is read."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()  # noqa: F841 -- kept alive until the peak is read
        return (tracemalloc.get_traced_memory()[1] - before) / unit
    finally:
        if not tracing:
            tracemalloc.stop()


# call -> (the call on the chain, the most covariances it may hold at once)
LIMITS = {
    "williamson_decompose": (lambda ham, ch, th, out: williamson_decompose(out.cov), 7.0),
    "GaussianState.symplectic_spectrum": (lambda ham, ch, th, out: out.symplectic_spectrum(), 4.0),
    "generate_channel": (lambda ham, ch, th, out: generate_channel(ham, 1.3), 12.5),
    "apply_channel": (lambda ham, ch, th, out: apply_channel(ch, th), 3.0),
}


@pytest.mark.parametrize("site", LIMITS)
def test_large_n_call_holds_few_covariances(chain, site):
    call, limit = LIMITS[site]
    unit = chain[3].cov.nbytes
    peak = _peak(lambda: call(*chain), unit)
    assert peak <= limit, f"{site} held {peak:.2f} covariances at once"
