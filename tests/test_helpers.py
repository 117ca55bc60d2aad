"""Contracts of the helpers that every library call runs: the finite and
symmetry checks, store-and-freeze, the overflow guard, the 2-D trapezoidal
rule and the shared table of Pade degree tests.  Each is pinned against
the plain numpy expression it replaces, bit for bit where it returns
numbers."""

import math
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from gaussphase import PhaseSpaceGrid
from gaussphase.symplectic import (
    _ELL_C,
    SYMMETRY_TOL,
    _ell_table,
    _finite,
    _frozen,
    _refusing_overflow,
    _symmetrized,
)
from gaussphase.wigner import _integrate2d

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


# ------------------------------------------------------------------ _finite

SCALARS = st.one_of(
    ANY_FLOAT,
    ANY_FLOAT.map(np.float64),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
    st.floats(width=16, allow_nan=True, allow_infinity=True).map(np.float16),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.complex_numbers(allow_nan=True, allow_infinity=True).map(np.complex128),
    st.complex_numbers(width=64, allow_nan=True, allow_infinity=True).map(np.complex64),
    st.integers(-(2**63), 2**63 - 1),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.booleans(),
)


@st.composite
def arrays_with_non_finite(draw):
    """A finite array of any float or complex type with NaN or +-inf at
    drawn positions (possibly none)."""
    dtype = draw(st.sampled_from([np.float64, np.float32, np.complex128, np.complex64]))
    a = draw(arrays(dtype, array_shapes(min_dims=0, max_dims=3, max_side=4),
                    elements=st.floats(-1e6, 1e6, width=32)))
    flat = a.reshape(-1)
    for _ in range(draw(st.integers(0, 2)) if flat.size else 0):
        i = draw(st.integers(0, flat.size - 1))
        bad = draw(NON_FINITE)
        if np.iscomplexobj(flat) and draw(st.booleans()):
            flat[i] = complex(0.0, bad)
        else:
            flat[i] = bad
    return a


@PROPERTY
@given(st.one_of(SCALARS, arrays_with_non_finite()))
@example(np.array([1.0, math.nan]))
@example(complex(math.inf, 0.0))
@example(np.float32(math.inf))
def test_finite_refuses_exactly_what_isfinite_refuses(x):
    if np.isfinite(x).all():
        _finite(x, "x")
    else:
        with pytest.raises(ValueError, match="^x has non-finite entries$"):
            _finite(x, "x")


# -------------------------------------------------------------- _symmetrized

@st.composite
def near_symmetric(draw):
    """A real or complex matrix whose asymmetry lies within a factor of two
    of SYMMETRY_TOL * max(1, max|m|), on either side."""
    n = draw(st.integers(1, 5))
    scale = 10.0 ** draw(st.integers(-3, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.uniform(-scale, scale, (n, n))
    if draw(st.booleans()):
        m = m + 1j * rng.uniform(-scale, scale, (n, n))
    m = 0.5 * (m + m.conj().T)  # Hermitian, then a drawn skew part
    skew = rng.uniform(-1.0, 1.0, (n, n)).astype(m.dtype)
    if np.iscomplexobj(m):
        skew = skew + 1j * rng.uniform(-1.0, 1.0, (n, n))
    skew = skew - skew.conj().T
    peak = np.abs(skew).max()
    if peak == 0.0:  # n = 1 and real: nothing to skew
        return m
    factor = draw(st.floats(0.5, 2.0))
    bound = SYMMETRY_TOL * max(1.0, np.abs(m).max())
    return m + skew * (factor * bound / peak)


@PROPERTY
@given(near_symmetric())
def test_symmetrized_decides_by_the_tolerance_and_returns_the_mean(m):
    asym = np.abs(m - m.conj().T).max()
    expected = 0.5 * m + 0.5 * m.conj().T
    if asym > SYMMETRY_TOL * max(1.0, np.abs(m).max()):
        with pytest.raises(ValueError, match="^m asymmetry .* exceeds tolerance$"):
            _symmetrized(m, "m")
    else:
        out = _symmetrized(m, "m")
        assert out.dtype == m.dtype and out.tobytes() == expected.tobytes()


def test_symmetrized_boundary_cases_are_decided_both_ways():
    # below 1 the absolute bound SYMMETRY_TOL decides, above it the relative one
    for big in (0.5, 1e6):
        bound = SYMMETRY_TOL * max(1.0, big)
        for asym, refused in ((0.5 * bound, False), (bound, False), (2.0 * bound, True)):
            m = np.array([[big, asym], [0.0, big]])
            if refused:
                with pytest.raises(ValueError):
                    _symmetrized(m, "m")
            else:
                _symmetrized(m, "m")


# ------------------------------------------------------- _refusing_overflow

def _numpy_overflow():
    return np.float64(1e308) * 10.0


def _numpy_invalid():
    return np.float64(math.inf) - np.float64(math.inf)


def _math_overflow():
    return math.exp(1000.0)


REFUSED = {"numpy-overflow": _numpy_overflow, "numpy-invalid": _numpy_invalid,
           "math-overflow": _math_overflow}
PASSED = [KeyError("k"), ZeroDivisionError("z"), TypeError("t"), ValueError("v")]

OUTER_STATES = st.fixed_dictionaries({
    key: st.sampled_from(["ignore", "warn", "raise", "print"])
    for key in ("divide", "over", "under", "invalid")
})


@PROPERTY
@given(st.integers(1, 3), st.sampled_from(sorted(REFUSED)), OUTER_STATES, st.text(max_size=8))
def test_overflow_guard_refuses_with_one_message(depth, kind, outer, what):
    with np.errstate(**outer):
        before = np.geterr()
        with pytest.raises(ValueError) as excinfo:
            with ExitStack() as stack:
                for level in range(depth):
                    stack.enter_context(_refusing_overflow(f"{what}-{level}"))
                REFUSED[kind]()
        assert np.geterr() == before
    err = excinfo.value
    # the innermost guard names the block, and the outer ones pass its ValueError on
    assert str(err) == f"{what}-{depth - 1} gives non-finite values (float overflow)"
    assert err.__cause__ is None and err.__suppress_context__


@pytest.mark.parametrize("kind", sorted(REFUSED))
def test_overflow_guard_as_a_with_statement(kind):
    with pytest.raises(ValueError, match=r"^x gives non-finite values \(float overflow\)$") as excinfo:
        with _refusing_overflow("x"):
            REFUSED[kind]()
    assert excinfo.value.__cause__ is None and excinfo.value.__suppress_context__


@pytest.mark.parametrize("exc", PASSED, ids=lambda e: type(e).__name__)
def test_overflow_guard_passes_other_exceptions_unchanged(exc):
    before = np.geterr()
    with pytest.raises(type(exc)) as excinfo:
        with _refusing_overflow("x"):
            with _refusing_overflow("y"):
                raise exc
    assert excinfo.value is exc
    assert np.geterr() == before


def test_overflow_guard_nests_and_restores_the_state():
    with np.errstate(all="ignore"):
        with _refusing_overflow("outer"):
            with _refusing_overflow("inner"):
                assert np.geterr()["over"] == "raise" and np.geterr()["invalid"] == "raise"
            assert np.geterr()["over"] == "raise"
            with pytest.raises(ValueError, match="^inner "):
                with _refusing_overflow("inner"):
                    _numpy_overflow()
            assert np.geterr()["over"] == "raise"
        assert np.geterr() == {"divide": "ignore", "over": "ignore", "under": "ignore", "invalid": "ignore"}
        assert _numpy_overflow() == math.inf  # ignored again outside the guard


# ------------------------------------------------------------------- _frozen

@dataclass(frozen=True)
class Box:
    value: object

    def __post_init__(self):
        _frozen(self, value=np.asarray(self.value, dtype=float))


class Holder:
    """An array-like whose conversion returns the buffer it keeps."""

    def __init__(self, buf):
        self.buf = buf

    def __array__(self, dtype=None, copy=None):
        return self.buf


@PROPERTY
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=5),
              elements=st.floats(-1e6, 1e6)),
       st.sampled_from(["array", "view", "memoryview", "holder", "list", "int-array"]))
def test_frozen_never_freezes_or_aliases_the_callers_memory(values, kind):
    owner = given = values.copy()
    if kind == "view":  # every other entry of a larger array
        owner = np.zeros(values.shape + (2,))
        owner[..., 0] = values
        given = owner[..., 0]
    elif kind == "memoryview":
        owner = bytearray(values.tobytes())
        given = memoryview(owner).cast("d", values.shape)
    elif kind == "holder":
        given = Holder(owner)
    elif kind == "list":
        given = values.tolist()
    elif kind == "int-array":
        owner = given = np.round(values).astype(np.int64)
    stored = Box(given).value
    assert not stored.flags.writeable
    assert np.array_equal(stored, np.round(values) if kind == "int-array" else values)
    assert not np.may_share_memory(stored, np.asarray(owner))
    if isinstance(owner, np.ndarray):
        assert owner.flags.writeable


# -------------------------------------------------------------- _integrate2d

@PROPERTY
@given(st.integers(2, 200), st.integers(2, 200),
       st.floats(-50.0, 50.0), st.floats(1e-3, 100.0), st.floats(-50.0, 50.0), st.floats(1e-3, 100.0),
       st.integers(0, 2**32 - 1))
def test_integrate2d_is_nested_trapezoid_bit_for_bit(n_q, n_p, q0, q_span, p0, p_span, seed):
    grid = PhaseSpaceGrid(q_min=q0, q_max=q0 + q_span, p_min=p0, p_max=p0 + p_span,
                          n_q=n_q, n_p=n_p)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_q, n_p)) * 10.0 ** rng.uniform(-5, 5, (n_q, 1))
    expected = float(np.trapezoid(np.trapezoid(values, grid.p, axis=1), grid.q))
    assert _integrate2d(values, grid).hex() == expected.hex()


# ------------------------------------------------------------- shared ell table

def _ell_from_scratch(a, m):
    """ell(m) of Al-Mohy & Higham's Algorithm 5.1, from |a|^(2m+1) alone."""
    abs_a = np.abs(a)
    v = abs_a.sum(axis=0)
    for _ in range(2 * m):
        v = v @ abs_a
    alpha = _ELL_C[m] * float(v.max()) / float(abs_a.sum(axis=0).max())
    return 0 if alpha == 0.0 else max(math.ceil(math.log2(alpha) / (2 * m)), 0)


@PROPERTY
@given(st.integers(1, 9), st.integers(-12, 4), st.booleans(), st.booleans(),
       st.permutations([3, 5, 7, 9, 13]), st.integers(0, 2**32 - 1))
def test_shared_ell_table_gives_ell_for_every_degree(n, exponent, is_complex, triangular, order, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * 10.0**exponent
    if is_complex:
        a = a + 1j * rng.standard_normal((n, n)) * 10.0**exponent
    if triangular:  # strongly nonnormal: ell is often positive
        a = np.triu(a) * 30.0
    ell = _ell_table(a)
    for m in order:  # any order: the table is extended on demand
        assert ell(m) == _ell_from_scratch(a, m)
