"""The library runs on numpy alone, never imports scipy, and loads only
what runs.

numpy and scipy each ship their own OpenBLAS, and two thread pools that
compete for the same cores slow small matrix products several-fold, so
no library call or CLI command may load a scipy module.  Without a bytecode
cache every module is compiled on each start, so ``import gaussphase``
loads no submodule and each CLI command loads only the modules it runs.
Each check runs a fresh interpreter, because modules imported by other
tests in this process (the tests use scipy as an oracle) would hide an
import.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaussphase import (
    apply_channel,
    generate_channel,
    two_mode_squeeze_hamiltonian,
    two_mode_squeezed_vacuum,
    vacuum,
)
from gaussphase.cli import state_from_dict, state_to_dict

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY_MODULES = "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')"
# any `import scipy...` raises ImportError after this
BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None\n"
GAUSSPHASE_MODULES = "sorted(m for m in sys.modules if m.startswith('gaussphase.'))"

# the public names of the package: 55 classes and functions and 8 submodules
PUBLIC_NAMES = """
ConditioningWarning DimensionError EntropyResult GaussPhaseError GaussianChannel GaussianState
GridAdequacyWarning LadderHamiltonian NoGroundStateError NotPositiveDefiniteError NotPureError
PhaseSpaceGrid PhysicalityReport PurityReport QuadraticHamiltonian SampledWavefunction
TruncationError UnphysicalStateError WignerGrid WilliamsonDecomposition
apply_channel centered_grid check_symplectic coherent dynamics entanglement_entropy entropy
entropy_from_spectrum errors eval_fock eval_gaussian evolve_ode fock generate_channel
ladder_to_quadrature make_symplectic_form marginal_p marginal_q normal_mode_ground_state
normalization oscillator_eigenfunction overlap partial_trace physicality_check purity
purity_and_bounds rotation_hamiltonian squeeze_hamiltonian squeezed_vacuum states symplectic
symplectic_spectrum tensor thermal tmsv_temperature two_mode_squeeze_hamiltonian
two_mode_squeezed_vacuum vacuum von_neumann_entropy wigner wigner_from_wavefunction williamson
williamson_decompose
""".split()

CHANNEL_CALLS = """
import numpy as np
import gaussphase as g
g.generate_channel(g.squeeze_hamiltonian(0.5, 0.3), 1.0)
g.generate_channel(g.QuadraticHamiltonian(n_modes=1, f_bar=np.eye(2), alpha=[0.1, -0.2]), 0.7)
"""

FOCK_CALLS = """
from gaussphase import fock
coh = fock.coherent_vector(0.5 - 0.2j, 24)
sq = fock.squeezed_vacuum_vector(0.4, 0.3, 40)
tm = fock.tmsv_vector(0.3, 0.1, 20)
th = fock.thermal_density(0.7, 40)
fock.displacement_matrix(0.6 + 0.1j, 24)
fock.covariance_from_fock(coh)
fock.covariance_from_fock(tm)
fock.covariance_from_fock(th)
fock.number_expectation(fock.density_from_state(sq))
fock.fock_entropy(fock.reduced_density(tm, 0))
fock.quadratures(4)
"""


def python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result


@pytest.mark.parametrize("module", ["gaussphase", "gaussphase.cli"])
def test_import_does_not_load_scipy(module):
    out = python("-c", f"import sys, {module}; print({SCIPY_MODULES})").stdout
    assert out.strip() == "[]"


def test_cli_command_does_not_load_scipy():
    # -X importtime logs every module the run imports to stderr
    result = python("-X", "importtime", "-m", "gaussphase.cli", "state", "make", "vacuum")
    assert json.loads(result.stdout)["n_modes"] == 1
    imported = re.findall(r"^import time:.*\|\s*(\S+)$", result.stderr, re.MULTILINE)
    assert "gaussphase.states" in imported
    assert [m for m in imported if m.partition(".")[0] == "scipy"] == []


@pytest.mark.parametrize("calls", [CHANNEL_CALLS, FOCK_CALLS], ids=["channel", "fock"])
def test_library_calls_load_no_scipy(calls):
    out = python("-c", calls + f"import sys; print({SCIPY_MODULES})").stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("calls", [CHANNEL_CALLS, FOCK_CALLS], ids=["channel", "fock"])
def test_library_calls_work_with_scipy_blocked(calls):
    python("-c", BLOCK_SCIPY + calls)


def test_evolve_loads_no_scipy(tmp_path):
    path = tmp_path / "vac.json"
    python("-m", "gaussphase.cli", "state", "make", "vacuum", "--out", str(path))
    argv = ["evolve", str(path), "--builtin", "squeeze", "--r", "1", "--theta", "0.3", "--time", "1"]
    result = python("-X", "importtime", "-m", "gaussphase.cli", *argv)
    assert json.loads(result.stdout)["n_modes"] == 1
    imported = re.findall(r"^import time:.*\|\s*(\S+)$", result.stderr, re.MULTILINE)
    assert "gaussphase.dynamics" in imported
    assert [m for m in imported if m.partition(".")[0] == "scipy"] == []
    blocked = python("-c", BLOCK_SCIPY + f"from gaussphase.cli import main; sys.exit(main({argv!r}))")
    assert blocked.stdout == result.stdout


def test_fock_reachable_after_bare_import():
    code = (
        "import gaussphase; f = gaussphase.fock.coherent_vector; "
        "from gaussphase import fock; assert f is fock.coherent_vector; print(f.__name__)"
    )
    assert python("-c", code).stdout.strip() == "coherent_vector"


def test_evolve_builtin_tms_succeeds(tmp_path):
    path = tmp_path / "vac2.json"
    python("-m", "gaussphase.cli", "state", "make", "vacuum", "--modes", "2", "--out", str(path))
    out = python(
        "-m", "gaussphase.cli", "evolve", str(path), "--builtin", "tms", "--r", "1", "--time", "1"
    ).stdout
    expected = apply_channel(
        generate_channel(two_mode_squeeze_hamiltonian(1.0, 0.0), 1.0), vacuum(2)
    )
    assert np.array_equal(state_from_dict(json.loads(out)).cov, expected.cov)


def test_bare_import_loads_no_numpy_and_no_submodule():
    code = f"import sys, gaussphase; print('numpy' in sys.modules); print({GAUSSPHASE_MODULES})"
    has_numpy, loaded = python("-c", code).stdout.splitlines()
    assert has_numpy == "False"
    # errors imports nothing, so it is the one submodule that may load here
    assert loaded in ("[]", "['gaussphase.errors']")


def test_public_names_and_star_import_are_unchanged():
    code = (
        "import json, gaussphase; ns = {}; exec('from gaussphase import *', ns); "
        "print(json.dumps([[n for n in dir(gaussphase) if not n.startswith('_')], "
        "sorted(n for n in ns if n != '__builtins__')]))"
    )
    listed, star = json.loads(python("-c", code).stdout)
    assert sorted(listed) == sorted(PUBLIC_NAMES)
    assert star == sorted(PUBLIC_NAMES)


def test_each_name_is_its_modules_object():
    # one interpreter for all names: the first lookup of each goes through the
    # package's __getattr__, the second must return the object it cached
    code = f"""
import importlib, json, types, gaussphase
bad, n_objects = [], 0
for name in {PUBLIC_NAMES!r}:
    obj = getattr(gaussphase, name)
    if isinstance(obj, types.ModuleType):
        home = importlib.import_module("gaussphase." + name)
    else:
        home, n_objects = getattr(importlib.import_module(obj.__module__), name), n_objects + 1
    if obj is not home or getattr(gaussphase, name) is not obj:
        bad.append(name)
print(json.dumps([bad, n_objects]))
"""
    bad, n_objects = json.loads(python("-c", code).stdout)
    assert bad == []
    assert (n_objects, len(PUBLIC_NAMES) - n_objects) == (55, 8)


def test_unknown_name_raises_attribute_error():
    code = """
import gaussphase
try:
    gaussphase.no_such_name
except AttributeError as exc:
    print(exc)
try:
    from gaussphase import no_such_name
except ImportError as exc:
    print(type(exc).__name__)
"""
    out = python("-c", code).stdout.splitlines()
    assert out == ["module 'gaussphase' has no attribute 'no_such_name'", "ImportError"]


# every command parses a state file or builds a state: states, williamson,
# symplectic and errors, besides the cli itself
STATE_MODULES = ["cli", "errors", "states", "symplectic", "williamson"]


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["state", "make", "tmsv", "--r", "0.5"], []),
        (["williamson", "{state}"], []),
        (["evolve", "{state}", "--builtin", "tms", "--r", "0.3", "--time", "1"], ["dynamics"]),
        (["entropy", "{state}", "--subsystem", "0"], ["entropy"]),
        (["wigner", "--fock", "2", "--nq", "5", "--np", "5"], ["wigner", "_gridcsv"]),
        (["wigner", "--coherent", "1+1i", "--nq", "5", "--np", "5", "--summary"], ["wigner", "_gridcsv"]),
        (["coupled-example", "--lambda", "0.5"], ["dynamics", "entropy"]),
    ],
    ids=["state-make", "williamson", "evolve", "entropy", "wigner-fock", "wigner-coherent", "coupled"],
)
def test_cli_command_loads_only_what_it_runs(tmp_path, argv, extra):
    state = tmp_path / "tmsv.json"
    state.write_text(json.dumps(state_to_dict(two_mode_squeezed_vacuum(0.5))))
    argv = [arg.format(state=state) for arg in argv] + ["--out", str(tmp_path / "out")]
    code = f"import sys; from gaussphase import cli; assert cli.main({argv!r}) == 0; print({GAUSSPHASE_MODULES})"
    loaded = python("-c", code).stdout.splitlines()[-1]
    assert loaded == repr(sorted(f"gaussphase.{m}" for m in STATE_MODULES + extra))
