"""A 50-digit reference for a covariance matrix, for the tests only.

:func:`reference` takes a covariance matrix sigma in pairwise order
(vacuum covariance = identity) exactly: each float entry is the binary
number it stores, and an mpmath number passes as it is.  From there it
works at :data:`DIGITS` significant digits and returns

- the symplectic spectrum, the moduli nu_k of the eigenvalues +/- i nu_k of
  Omega sigma, ascending.  With sigma = L L^T (Cholesky), Omega sigma is
  similar to the real antisymmetric K = L^T Omega L, so the nu_k are the
  positive eigenvalues of the Hermitian matrix iK;
- det sigma = prod(diag L)^2, and the purity 1 / sqrt(det sigma);
- the 2-norm condition number of sigma, lambda_max / lambda_min;
- the von Neumann entropy in nats, the sum of
  h(nu) = ((nu+1)/2) log((nu+1)/2) - ((nu-1)/2) log((nu-1)/2) over the
  spectrum.  This difference form is evaluated with about log10(nu)
  extra digits, which absorb its cancellation.  A nu <= 1 (a rounded pure
  state can have one just below 1) contributes h(1) = 0, the x log x limit.

It shares no code with the package, and no module of the package imports it.
"""

from typing import NamedTuple

import mpmath

DIGITS = 50


class Reference(NamedTuple):
    nu: list  # of mpf, ascending
    det: mpmath.mpf
    purity: mpmath.mpf
    cond: mpmath.mpf
    entropy: mpmath.mpf


def reference(sigma) -> Reference:
    """The reference values of the covariance matrix ``sigma`` (nested
    rows of floats or mpmath numbers, or a float ndarray)."""
    with mpmath.workdps(DIGITS):
        s = mpmath.matrix([[mpmath.mpf(x) for x in row] for row in sigma])
        n = s.rows // 2
        omega = mpmath.zeros(2 * n)
        for k in range(n):
            omega[2 * k, 2 * k + 1], omega[2 * k + 1, 2 * k] = 1, -1
        low = mpmath.cholesky(s)
        eig = mpmath.eighe(mpmath.mpc(0, 1) * (low.T * omega * low), eigvals_only=True)
        nu = [mpmath.re(v) for v in eig[n:]]
        root_det = mpmath.fprod(low[i, i] for i in range(2 * n))
        lam = mpmath.eigsy(s, eigvals_only=True)
        return Reference(
            nu=nu,
            det=root_det**2,
            purity=1 / root_det,
            cond=lam[2 * n - 1] / lam[0],
            entropy=mpmath.fsum(_h(v) for v in nu if v > 1),
        )


def _h(nu):
    """The entropy of one symplectic eigenvalue nu > 1, in nats.  Both
    terms are about nu log(nu) / 2, so the difference loses log10(nu) digits."""
    with mpmath.extradps(int(mpmath.log10(nu)) + 10):
        up, down = (nu + 1) / 2, (nu - 1) / 2
        return up * mpmath.log(up) - down * mpmath.log(down)
