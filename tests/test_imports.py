"""scipy is imported only by the code that needs it.

Each check runs a fresh interpreter, because modules imported by other
tests in this process would hide an eager import.
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
