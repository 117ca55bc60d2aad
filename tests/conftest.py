"""Shared test helpers.

The blockwise quadrature order (q1, ..., qn, p1, ..., pn) exists only in
files tagged "qqpp".  Tests build blockwise references with the helpers
below, written independently of the CLI's own conversion: they list the
pairwise position of each blockwise entry and gather or scatter with it.
"""

import numpy as np


def _blockwise_positions(n_modes):
    """Pairwise position of each blockwise entry: q_k sits at 2k, p_k at 2k + 1."""
    return [2 * k for k in range(n_modes)] + [2 * k + 1 for k in range(n_modes)]


def to_blockwise(a):
    """A pairwise vector or matrix (rows and columns) in blockwise order."""
    a = np.asarray(a)
    pos = _blockwise_positions(a.shape[0] // 2)
    return a[pos] if a.ndim == 1 else a[np.ix_(pos, pos)]


def from_blockwise(a):
    """A blockwise vector or matrix (rows and columns) in pairwise order."""
    a = np.asarray(a)
    pos = _blockwise_positions(a.shape[0] // 2)
    out = np.empty_like(a)
    if a.ndim == 1:
        out[pos] = a
    else:
        out[np.ix_(pos, pos)] = a
    return out
