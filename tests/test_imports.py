"""The library runs on numpy alone and never imports scipy.

numpy and scipy each ship their own OpenBLAS, and two thread pools that
compete for the same cores slow small matrix products several-fold, so
no library call or CLI command may load a scipy module.  Each check runs a
fresh interpreter, because modules imported by other tests in this process
(the tests use scipy as an oracle) would hide an import.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gaussphase import apply_channel, generate_channel, two_mode_squeeze_hamiltonian, vacuum
from gaussphase.cli import state_from_dict

SRC = Path(__file__).resolve().parents[1] / "src"
SCIPY_MODULES = "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')"
# any `import scipy...` raises ImportError after this
BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None\n"

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
    assert "gaussphase.dynamics" in imported
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
