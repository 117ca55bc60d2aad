"""Subprocess workloads: ``cli-session`` and ``grid-export``.

Each operation runs one ``python -m gaussphase.cli`` command in a fresh
interpreter.  The correctness gate is byte-exact: the command must exit 0
and its stdout, plus the ``--out`` file when there is one, must hash to the
digest that an untimed in-process call of ``gaussphase.cli.main`` on the
same arguments produced.  Every input file is written before timing starts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from gaussphase import cli
from library_workloads import squeezed_cov

CLI_WIGNER_POINTS = 61
GRID_EXPORT_POINTS = 501
GRID_EXPORT_POINTS_SMOKE = 41
GRID_EXPORT_HALF = "8"  # wide enough for every source, and fixed so a seed does not change the cost


@dataclass
class CliCall:
    argv: list[str]
    out: str | None = None  # the --out file, part of the digest
    digest: str = ""


def output_digest(stdout: bytes, out: str | None) -> str:
    h = hashlib.sha256(stdout)
    if out is not None:
        h.update(b"\0")
        with open(out, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def remove_output(call: CliCall) -> None:
    if call.out is not None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(call.out)


def record_digest(call: CliCall) -> None:
    """Runs the command in process, untimed, and stores its output digest.

    A reference call that fails leaves the digest empty, so every timed run
    of that command counts as a failure."""
    remove_output(call)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(call.argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    if code == 0:
        call.digest = output_digest(stdout.getvalue().encode("utf-8"), call.out)


def _num(x: float) -> str:
    return f"{x:.6f}"


def _complex(z: complex) -> str:
    return f"{z.real:.4f}{z.imag:+.4f}i"


def _write_state(path: str, cov: np.ndarray) -> str:
    n_modes = cov.shape[0] // 2
    data = {
        "n_modes": n_modes,
        "ordering": "qpqp",
        "mean": [0.0] * (2 * n_modes),
        "cov": cov.tolist(),
        "metadata": {"source": "perfbench"},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _two_mode_squeezer(r: float) -> np.ndarray:
    """Symplectic S with S S^T the covariance of the two-mode squeezed
    vacuum (theta = 0); S diag(nu) S^T is its thermalized copy."""
    c, s = math.cosh(r / 2), math.sinh(r / 2)
    z = np.diag([1.0, -1.0])
    return np.block([[c * np.eye(2), -s * z], [-s * z, c * np.eye(2)]])


def cli_session_calls(rng: np.random.Generator, work: str) -> list[CliCall]:
    """One cycle: every state kind, both evolve forms, williamson, entropy,
    coupled-example and two 61 x 61 wigner summaries."""

    def path(name: str) -> str:
        return os.path.join(work, name)

    r_tmsv, theta_tmsv = rng.uniform(0.2, 1.5), rng.uniform(0.0, math.pi)
    squeezer = _two_mode_squeezer(rng.uniform(0.2, 1.5))
    mixed = squeezer @ np.diag(np.repeat(rng.uniform(1.2, 3.0, 2), 2)) @ squeezer.T
    a = rng.normal(size=(4, 4))
    ham = {"n_modes": 2, "f_bar": (a @ a.T / 4 + np.eye(4)).tolist(), "alpha": rng.normal(size=4).tolist()}
    with open(path("ham2.json"), "w", encoding="utf-8") as fh:
        json.dump(ham, fh)
    vac2 = _write_state(path("vac2.json"), np.eye(4))
    thermal2 = _write_state(path("thermal2.json"), np.diag(np.repeat(rng.uniform(1.0, 3.0, 2), 2)))
    tmsv = _write_state(path("tmsv.json"), _two_mode_squeezer(r_tmsv) @ _two_mode_squeezer(r_tmsv).T)
    mixed2 = _write_state(path("mixed2.json"), mixed)
    squeezed1 = _write_state(
        path("squeezed1.json"), squeezed_cov(rng.uniform(0.1, 0.8), rng.uniform(0.0, math.pi))
    )
    grid = ["--qrange=-6:6", "--prange=-6:6", "--nq", str(CLI_WIGNER_POINTS), "--np", str(CLI_WIGNER_POINTS)]
    argvs = [
        ["state", "make", "vacuum", "--modes", str(rng.integers(1, 4))],
        ["state", "make", "thermal", "--nu", _num(rng.uniform(1.0, 5.0))],
        ["state", "make", "coherent", "--alpha=" + _complex(complex(*rng.uniform(-2, 2, 2)))],
        ["state", "make", "squeezed", "--r", _num(rng.uniform(0.1, 1.5)), "--theta", _num(rng.uniform(0, math.pi))],
        ["state", "make", "tmsv", "--r", _num(r_tmsv), "--theta", _num(theta_tmsv)],
        ["evolve", vac2, "--builtin", "tms", "--r", _num(rng.uniform(0.2, 1.5)), "--time", _num(rng.uniform(0.5, 2.0))],
        ["evolve", thermal2, "--hamiltonian", path("ham2.json"), "--time", _num(rng.uniform(0.5, 2.0))],
        ["williamson", mixed2],
        ["entropy", tmsv, "--subsystem", "0", "--base", str(rng.choice(["e", "2"]))],
        ["coupled-example", "--lambda", _num(rng.uniform(0.1, 2.0))],
        ["wigner", "--fock", str(rng.integers(0, 6)), *grid, "--summary"],
        ["wigner", squeezed1, *grid, "--summary"],
    ]
    return [CliCall(argv) for argv in argvs]


def grid_export_calls(rng: np.random.Generator, work: str, smoke: bool) -> list[CliCall]:
    """One cycle: a Fock, a coherent and a state-file grid written to CSV."""
    points = str(GRID_EXPORT_POINTS_SMOKE if smoke else GRID_EXPORT_POINTS)
    out = os.path.join(work, "grid.csv")
    state = _write_state(
        os.path.join(work, "squeezed1.json"),
        squeezed_cov(rng.uniform(0.1, 0.8), rng.uniform(0.0, math.pi)),
    )
    sources = [
        ["--fock", str(rng.integers(0, 9))],
        ["--coherent=" + _complex(complex(*rng.uniform(-1.5, 1.5, 2)))],
        [state],
    ]
    ranges = [f"--qrange=-{GRID_EXPORT_HALF}:{GRID_EXPORT_HALF}", f"--prange=-{GRID_EXPORT_HALF}:{GRID_EXPORT_HALF}"]
    return [
        CliCall(["wigner", *source, *ranges, "--nq", points, "--np", points, "--out", out], out=out)
        for source in sources
    ]
