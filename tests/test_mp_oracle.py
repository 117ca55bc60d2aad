"""The 50-digit reference of ``tests/mp_oracle.py``, and the forward error
of the float spectrum, purity and entropy measured against it.

The reference is pinned against closed forms to a relative 1e-30: a
thermal state has nu, a two-mode squeezed vacuum has nu = 1 and its
reduced mode nu = cosh r, and every squeezed pure state has nu = 1.  Its
entropy is pinned to an absolute 1e-30 against h(nu) in the form
log(1 + b) + b log(1 + 1/b), b = (nu - 1)/2.

The property draws covariance matrices sigma = S D S^T at n <= 2 modes
and measures the relative forward error of
:func:`~gaussphase.williamson.symplectic_spectrum`, the admitted state's
:meth:`~gaussphase.states.GaussianState.symplectic_spectrum`, the nu of
:func:`~gaussphase.williamson.williamson_decompose` and
:func:`~gaussphase.states.purity` against the reference of the float
sigma itself, so the rounding of sigma's entries is not counted as the
algorithm's error.  Each error is recorded with ``hypothesis.target`` as a
multiple of kappa(sigma) eps, with kappa the 2-norm condition number of
sigma, and must stay within :data:`BOUND` of it over the range of
:func:`covariances`: symplectic eigenvalues from 1 to 1 + e^5, a one-mode
squeezer up to r = 8 (kappa = e^(4r)), a two-mode squeezer up to r = 15
(kappa up to e^(2r) nu_max / nu_min) and two one-mode squeezers up to
r = 4 mixed by a beam splitter.  The absolute error of
:func:`~gaussphase.entropy.von_neumann_entropy` is measured in units of
kappa eps times the entropy's sensitivity sum nu h'(nu) (see
:func:`_entropy_sensitivity`), within the same bound.  Where a pure
state's float spectrum, within its bound, falls below 1 - PHYSICALITY_TOL,
the entropy must refuse it with UnphysicalStateError.
"""

import ast
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st
from mp_oracle import DIGITS, reference

from gaussphase import UnphysicalStateError, entropy, states, williamson

SRC = Path(__file__).resolve().parents[1] / "src" / "gaussphase"
EPS = np.finfo(float).eps
# forward error / (kappa eps).  The largest seen over the drawn range, in
# 4 x 9000 random draws, is 10.7 for either spectrum, 12.6 for the
# decomposition's nu and 9.6 for the entropy (5.4 for the purity in
# 9000); the draws that came near it were close to the vacuum (kappa near
# 1), where a few units in the last place dominate.  A two-mode squeezed
# vacuum up to r = 15 stays below 0.5
BOUND = 16.0


def _close(value, exact, rel=mpmath.mpf("1e-30")):
    return abs(value - exact) <= rel * abs(exact)


def _close_entropy(value, exact):
    """Within an absolute 1e-30: a pure state's entropy is 0 only up to the
    rounding of its 50-digit spectrum."""
    return abs(value - exact) <= mpmath.mpf("1e-30")


def _rotated(sigma, theta, mode=0):
    """R sigma R^T for the rotation R of one mode by theta, a local symplectic map."""
    r = mpmath.eye(sigma.rows)
    c, s = mpmath.cos(theta), mpmath.sin(theta)
    r[2 * mode, 2 * mode], r[2 * mode, 2 * mode + 1] = c, -s
    r[2 * mode + 1, 2 * mode], r[2 * mode + 1, 2 * mode + 1] = s, c
    return r * sigma * r.T


def _h(nu):
    """h(nu) = log(1 + b) + b log(1 + 1/b), b = (nu - 1)/2: the form
    without cancellation, not the reference's difference form."""
    b = (mpmath.mpf(nu) - 1) / 2
    return mpmath.log1p(b) + b * mpmath.log1p(1 / b) if b else mpmath.mpf(0)


@pytest.mark.parametrize("nu", [1.0, 2.5, 1e10, 1e300])
def test_thermal_state(nu):
    ref = reference([[nu, 0.0], [0.0, nu]])
    with mpmath.workdps(DIGITS):
        assert _close(ref.nu[0], nu) and _close(ref.det, mpmath.mpf(nu) ** 2)
        assert _close(ref.purity, 1 / mpmath.mpf(nu)) and _close_entropy(ref.entropy, _h(nu))
        two = reference(np.diag([3.0, 3.0, nu, nu]))
        assert all(map(_close, two.nu, sorted([3, nu])))
        assert _close_entropy(two.entropy, _h(3) + _h(nu))


@pytest.mark.parametrize("r", [0.5, 4.0, 8.0, 15.0])
def test_two_mode_squeezed_vacuum(r):
    with mpmath.workdps(DIGITS):
        ch, sh = mpmath.cosh(r), mpmath.sinh(r)
        tmsv = mpmath.matrix([[ch, 0, sh, 0], [0, ch, 0, -sh], [sh, 0, ch, 0], [0, -sh, 0, ch]])
        sigma = _rotated(_rotated(tmsv, 0.3), -1.1, mode=1)
        ref = reference(sigma.tolist())
        assert all(_close(nu, 1) for nu in ref.nu)
        assert _close(ref.det, 1) and _close(ref.purity, 1) and _close_entropy(ref.entropy, 0)
        reduced = reference([[sigma[i, j] for j in range(2)] for i in range(2)])
        assert _close(reduced.nu[0], ch) and _close(reduced.purity, 1 / ch)
        assert _close_entropy(reduced.entropy, _h(ch))


@pytest.mark.parametrize("r", [0.5, 4.0, 8.0])
@pytest.mark.parametrize("nu", [1, 7])
def test_squeezed_state(r, nu):
    with mpmath.workdps(DIGITS):
        squeezed = mpmath.diag([nu * mpmath.exp(-2 * r), nu * mpmath.exp(2 * r)])
        ref = reference(_rotated(squeezed, 0.3).tolist())
        assert _close(ref.nu[0], nu) and _close(ref.purity, mpmath.mpf(1) / nu)
        assert _close(ref.cond, mpmath.exp(4 * r))


def test_a_float_entry_is_taken_exactly():
    ref = reference([[2.0, 0.1], [0.1, 3.0]])
    with mpmath.workdps(DIGITS):
        assert _close(ref.nu[0], mpmath.sqrt(6 - mpmath.mpf(0.1) ** 2))
        assert not _close(ref.nu[0], mpmath.sqrt(6 - mpmath.mpf("0.1") ** 2), rel=mpmath.mpf("1e-20"))


def test_no_package_module_imports_the_reference():
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                assert not [m for m in names if m.split(".")[0] in ("mpmath", "mp_oracle")], path.name


def _rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def _squeezer(r):
    return np.diag([math.exp(-r), math.exp(r)])


angles = st.floats(0.0, 2 * math.pi)
# a symplectic eigenvalue: pure, or mixed up to 1 + e^5
nus = st.just(1.0) | st.floats(-5.0, 5.0).map(lambda x: 1.0 + math.exp(x))


@st.composite
def covariances(draw):
    """A float covariance matrix sigma = S D S^T at one or two modes: a
    rotated squeezed thermal mode (r <= 8, covariance entries up to
    e^(2r) at nu = 1), a rotated two-mode squeezed thermal pair (r <= 15,
    entries cosh r at nu = 1) or two squeezed thermal modes (r <= 4 each)
    mixed by a beam splitter."""
    kind = draw(st.sampled_from(["one", "tmsv", "two"]))
    if kind == "one":
        s = _rotation(draw(angles)) @ _squeezer(draw(st.floats(0.0, 8.0)))
        d = [draw(nus)] * 2
    else:
        s = np.zeros((4, 4))
        s[:2, :2], s[2:, 2:] = _rotation(draw(angles)), _rotation(draw(angles))
        if kind == "tmsv":
            r = draw(st.floats(0.0, 15.0))
            ch, sh = math.cosh(r / 2), math.sinh(r / 2)
            s = s @ np.array([[ch, 0, sh, 0], [0, ch, 0, -sh], [sh, 0, ch, 0], [0, -sh, 0, ch]])
        else:
            t = draw(st.floats(0.0, math.pi / 2))
            c, sn = math.cos(t), math.sin(t)
            beam_splitter = np.array([[c, 0, sn, 0], [0, c, 0, sn], [-sn, 0, c, 0], [0, -sn, 0, c]])
            local = np.zeros((4, 4))
            local[:2, :2] = _squeezer(draw(st.floats(0.0, 4.0)))
            local[2:, 2:] = _squeezer(draw(st.floats(0.0, 4.0)))
            s = s @ beam_splitter @ local
        d = [draw(nus)] * 2 + [draw(nus)] * 2
    sigma = s @ np.diag(d) @ s.T
    return (sigma + sigma.T) / 2


def _entropy_sensitivity(nu, scale):
    """sum nu h'(nu) over the reference spectrum, h'(nu) = log((nu+1)/(nu-1)) / 2:
    the first-order change of the entropy per unit relative change of every
    nu.  Each nu is taken no closer to 1 than ``scale``, where h' diverges but
    h(1 + d) <= d (1 + log(2/d)) / 2 does not."""
    return mpmath.fsum(
        v / 2 * mpmath.log((v + 1) / (v - 1)) for v in (max(v, 1 + scale) for v in nu)
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(sigma=covariances())
# the top of the range at kappa = 1, where the entropy's own rounding is not hidden by kappa
@example(sigma=np.diag([1.0 + math.exp(5.0)] * 2))
def test_forward_error_is_within_the_conditioning_bound(sigma):
    n = len(sigma) // 2
    ref = reference(sigma)
    state = states.GaussianState(n_modes=n, mean=np.zeros(2 * n), cov=sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", williamson.ConditioningWarning)
        spectra = {
            "symplectic_spectrum": williamson.symplectic_spectrum(sigma),
            "GaussianState.symplectic_spectrum": state.symplectic_spectrum(),
            "williamson_decompose": williamson.williamson_decompose(sigma).nu,
        }
        total = None
        if spectra["GaussianState.symplectic_spectrum"][0] < 1.0 - states.PHYSICALITY_TOL:
            # a spectrum within its bound but below 1 - PHYSICALITY_TOL: a refusal, not a number
            with pytest.raises(UnphysicalStateError):
                entropy.von_neumann_entropy(state)
        else:
            total = entropy.von_neumann_entropy(state).total
    purity = states.purity(state).purity
    with mpmath.workdps(DIGITS):
        scale = ref.cond * EPS
        errors = {
            name: max(abs(a - b) / b for a, b in zip(map(mpmath.mpf, nu), ref.nu)) / scale
            for name, nu in spectra.items()
        }
        errors["purity"] = abs(mpmath.mpf(purity) - ref.purity) / ref.purity / scale
        if total is not None:
            errors["von_neumann_entropy"] = abs(mpmath.mpf(total) - ref.entropy) / (
                scale * _entropy_sensitivity(ref.nu, scale)
            )
    for name, error in errors.items():
        target(float(error), label=f"{name} error / (kappa eps)")
    assert all(error <= BOUND for error in errors.values()), errors
