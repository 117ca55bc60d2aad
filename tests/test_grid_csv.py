"""The grid CSV's number kernel against Python's own "%.17g".

``_gridcsv.g17_words`` writes the "%.17g" text of each double from a
double-double product and leaves to ``%`` only the values whose rounding
that product cannot settle.  The properties draw every kind of float64
(NaN, infinities, signed zeros, subnormals), alone and as whole arrays,
with every warning an error, because ``cli.main`` would print one as a
``warning:`` line.  The examples pin the values where the rounding or the
layout changes: exact decimal ties, powers of ten and their neighbours
(1e-14 and 1e+153 are doubles below the power that round up to it), the
ends of the double range and both sides of every binary exponent the
kernel scales by.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaussphase import _gridcsv, coherent, eval_fock, eval_gaussian, squeezed_vacuum
from gaussphase.wigner import PhaseSpaceGrid

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-307, 309)])
NEAR_POWERS_OF_TEN = np.concatenate(
    [POWERS_OF_TEN, np.nextafter(POWERS_OF_TEN, 0.0), np.nextafter(POWERS_OF_TEN, np.inf)]
)
POWERS_OF_TWO = np.ldexp(1.0, np.arange(-1074, 1024))
# the first double of each binade and the last of the one below: np.frexp's
# exponent, and with it the scale the kernel multiplies by, changes between them
BINADE_EDGES = np.concatenate([POWERS_OF_TWO, np.nextafter(POWERS_OF_TWO, 0.0)])
# y = x * 10**(16 - k) is exactly half an integer: "%.17g" rounds half to even
EXACT_TIES = [1000000000000000.25, 1000000000000000.75, 123456789012345.625, -1000000000000000.25]
# doubles from 2**59 on are multiples of 128, so none ends in 50 and none is
# a tie; 2**59 + 50 rounds to 2**59
LARGE_INTEGERS = [float(2**59 + 50), float(10**18 + 50), 2.0**59 + 128, 9007199254740993.0]
SUBNORMAL_MULTIPLES = [2.0**-1074 * m for m in (1, 3, 7, 12345, 2**52 - 1)]
EXTREMES = [5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


def formatted(x) -> list[str]:
    """The kernel's text for each value of x, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return [t.decode("ascii") for t in _gridcsv.g17_bytes(np.asarray(x, dtype=float))]


def expected(x) -> list[str]:
    return ["%.17g" % v for v in np.asarray(x, dtype=float).tolist()]


@PROPERTY
@given(st.floats(allow_subnormal=True))
@example(math.nextafter(1e23, 0.0))
@example(1e-14)
@example(1e153)
@example(0.0)
@example(-0.0)
@example(math.nan)
@example(-math.inf)
def test_single_value_is_percent_17g(v):
    assert formatted([v]) == expected([v])


@PROPERTY
@given(arrays(np.float64, st.integers(0, 200), elements=st.floats(allow_subnormal=True)))
@example(np.array(EXACT_TIES + LARGE_INTEGERS + SUBNORMAL_MULTIPLES + EXTREMES))
@example(NEAR_POWERS_OF_TEN)
@example(BINADE_EDGES)
@example(-BINADE_EDGES)
def test_array_is_percent_17g(x):
    assert formatted(x) == expected(x)


def test_exact_ties_go_through_percent():
    out = np.empty((len(EXACT_TIES), 4), np.uint64)
    assert _gridcsv.g17_words(np.array(EXACT_TIES), out) == len(EXACT_TIES)
    assert formatted(EXACT_TIES)[:2] == ["1000000000000000.2", "1000000000000000.8"]


def test_decimal_scale_of_every_binary_exponent():
    """k0, the power-of-ten threshold and the double-double scale are exact
    for every exponent np.frexp returns, and the scale's larger part splits
    into two 26-bit halves, as Dekker's product needs."""
    _gridcsv._fill_decimal_scales(range(_gridcsv._N_EXPONENTS))
    built, threshold, k0, hi_big, hi_small, lo = _gridcsv._decimal_scales()
    assert built.all()
    for i in range(_gridcsv._N_EXPONENTS):
        e = i - _gridcsv._E_OFFSET
        k = int(k0[i])
        assert Fraction(10) ** k <= Fraction(2) ** (e - 1) < Fraction(10) ** (k + 1)
        power = Fraction(10) ** (k + 1)
        if power < Fraction(2) ** e:
            assert Fraction(threshold[i]) >= power > Fraction(np.nextafter(threshold[i], 0.0))
        else:
            assert threshold[i] == np.inf
        for up in (0, 1):
            slot = 2 * i + up
            scale = Fraction(10) ** (16 - k - up) * Fraction(2) ** e
            approx = Fraction(hi_big[slot]) + Fraction(hi_small[slot]) + Fraction(lo[slot])
            assert abs(approx - scale) <= scale * Fraction(2) ** -104
            for half in (hi_big[slot], hi_small[slot]):
                mantissa = Fraction(half).numerator or 1
                assert abs(mantissa // (mantissa & -mantissa)).bit_length() <= 26


BENCHMARK_GRID = PhaseSpaceGrid(q_min=-8, q_max=8, p_min=-8, p_max=8, n_q=501, n_p=501)
WIDE_GRID = PhaseSpaceGrid(q_min=-40, q_max=40, p_min=-40, p_max=40, n_q=501, n_p=501)


@pytest.mark.parametrize(
    "make",
    [
        *(lambda n=n: eval_fock(n, BENCHMARK_GRID) for n in range(9)),
        lambda: eval_gaussian(coherent(-0.9616 - 0.4601j), BENCHMARK_GRID),
        lambda: eval_gaussian(coherent(1.5 + 1.5j), BENCHMARK_GRID),
        lambda: eval_gaussian(squeezed_vacuum(0.8, 2.5), BENCHMARK_GRID),
        lambda: eval_fock(0, WIDE_GRID),
    ],
    ids=[*(f"fock{n}" for n in range(9)), "coherent-seed", "coherent-corner", "squeezed", "fock0-40"],
)
@pytest.mark.filterwarnings("ignore::gaussphase.GridAdequacyWarning")
def test_fallback_rate_on_exported_grids(make):
    """The grid-export sources (Fock, coherent and state-file grids on the
    benchmark's 501 x 501 grid over +-8) and the +-40 vacuum grid, 64 % zeros
    and 6 % below 1e-270: fewer than 0.1 % of the values, and of the axis
    values, go through "%" one by one."""
    w = make()
    for x in (w.values.ravel(), np.concatenate([w.grid.q, w.grid.p])):
        assert _gridcsv.g17_words(x, np.empty((x.size, 4), np.uint64)) < 1e-3 * x.size
