"""Fock-space oracle helpers: propagation by a truncated Hamiltonian, and
the bound within which a truncated state's moments must equal a Gaussian
state's.

A quadratic Hamiltonian becomes a truncated operator on one or two modes
(``np.kron`` joins the two modes' matrices, mode 0 being the slow index as
in :class:`gaussphase.fock.FockState`):

- a :class:`QuadraticHamiltonian` as H = 1/2 X^T Fbar X + alpha^T X from
  the quadrature matrices of :func:`gaussphase.fock.quadratures`;
- a :class:`LadderHamiltonian` as H = adag^T W a + adag^T G adag +
  a^T G^dag a + alpha^T X from the ladder matrices, so that the oracle
  does not go through :func:`gaussphase.ladder_to_quadrature`.

A state evolves under exp(-i H t) = V exp(-i E t) V^dag from the
eigendecomposition H = V E V^dag.  Neither the symplectic form, nor the
generator of a channel, nor a matrix exponential enters, so a convention
error in those (Omega against Omega^-1, the sign of t, the d column, the
ladder conversion) cannot cancel against the oracle.

The truncated dynamics are exact only while the state stays clear of the
cutoff, and the truncated quadratures are exact only below it; the bound
of :func:`assert_moments_match` is set by the mass on the top two levels
(see ``tests/test_fock_properties.py``).
"""

import numpy as np

from gaussphase import LadderHamiltonian, fock

EPS = np.finfo(float).eps


def _term(factors, n_modes, dim):
    """The product of single-mode matrices, given as (mode, matrix) pairs in
    operator order, on ``n_modes`` modes: one Kronecker product per term."""
    per_mode = [np.eye(dim)] * n_modes
    for mode, op in factors:
        per_mode[mode] = per_mode[mode] @ op
    return per_mode[0] if n_modes == 1 else np.kron(per_mode[0], per_mode[1])


def fock_hamiltonian(h, alpha, dim):
    """The truncated matrix of ``h``'s quadratic form plus alpha^T X, with
    alpha in pairwise order (q1, p1, q2, p2)."""
    n = h.n_modes
    q, p = fock.quadratures(dim)
    xs = [(mode, op) for mode in range(n) for op in (q, p)]
    out = sum(a_j * _term([x_j], n, dim) for a_j, x_j in zip(alpha, xs))
    if isinstance(h, LadderHamiltonian):
        a, adag, _ = fock.ladder(dim)
        for j in range(n):
            for k in range(n):
                out = out + h.w[j, k] * _term([(j, adag), (k, a)], n, dim)
                out = out + h.g[j, k] * _term([(j, adag), (k, adag)], n, dim)
                out = out + np.conj(h.g[k, j]) * _term([(j, a), (k, a)], n, dim)
    else:
        for j in range(2 * n):
            for k in range(2 * n):
                out = out + 0.5 * h.f_bar[j, k] * _term([xs[j], xs[k]], n, dim)
    return out


def vacuum_vector(n_modes, dim):
    """|0> of one or two modes on a dim-level truncation."""
    psi = np.zeros(dim**n_modes)
    psi[0] = 1.0
    return fock.FockState(amplitudes=psi, dim=dim, n_modes=n_modes)


def evolved(obj, h, alpha, t):
    """``obj``, a FockState or a one-mode FockDensity, after a time ``t``
    under ``h`` plus alpha^T X."""
    energies, vecs = np.linalg.eigh(fock_hamiltonian(h, alpha, obj.dim))
    u = (vecs * np.exp(-1j * t * energies)) @ vecs.conj().T
    if isinstance(obj, fock.FockDensity):
        return fock.FockDensity(matrix=u @ obj.matrix @ u.conj().T, dim=obj.dim)
    return fock.FockState(
        amplitudes=u @ obj.amplitudes, dim=obj.dim, n_modes=obj.n_modes, lost_mass=obj.lost_mass
    )


def edge_mass(obj):
    """Mass on and beyond level dim - 2 of any mode: for a FockState the
    cutoff's lost mass plus the stored mass there, which is normalized to
    the kept part; for a FockDensity its populations there."""
    if isinstance(obj, fock.FockDensity):
        return float(np.diag(obj.matrix).real[-2:].sum())
    prob = np.abs(obj.amplitudes.reshape((obj.dim,) * obj.n_modes)) ** 2
    top = np.indices(prob.shape).max(axis=0) >= obj.dim - 2
    return obj.lost_mass + (1.0 - obj.lost_mass) * float(prob[top].sum())


def moment_deviation(obj, gaussian):
    """Largest deviation of the oracle's mean and covariance of ``obj``
    from ``gaussian``'s."""
    mean, cov = fock.covariance_from_fock(obj)
    return max(np.max(np.abs(mean - gaussian.mean)), np.max(np.abs(cov - gaussian.cov)))


def moment_tolerance(obj, gaussian):
    """2 dim (e + dim eps) s, with the edge mass e of ``obj`` and the scale
    s = 1 + max|sigma| + max|mean|^2 of ``gaussian``."""
    scale = 1.0 + np.max(np.abs(gaussian.cov)) + np.max(np.abs(gaussian.mean)) ** 2
    return 2.0 * obj.dim * (edge_mass(obj) + obj.dim * EPS) * scale


def assert_moments_match(obj, gaussian):
    """The oracle's moments of ``obj`` equal ``gaussian``'s within
    :func:`moment_tolerance`."""
    dev, tol = moment_deviation(obj, gaussian), moment_tolerance(obj, gaussian)
    assert dev <= tol, f"deviation {dev:.3e} above the truncation bound {tol:.3e}"
