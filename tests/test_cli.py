import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import to_blockwise

from gaussphase import (
    apply_channel,
    generate_channel,
    squeezed_vacuum,
    tensor,
    thermal,
    two_mode_squeeze_hamiltonian,
    two_mode_squeezed_vacuum,
)
from gaussphase import _gridcsv, states, wigner
from gaussphase.cli import grid_to_csv, main, state_from_dict, state_to_dict
from gaussphase.wigner import PhaseSpaceGrid, WignerGrid, eval_fock, eval_gaussian


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_state(path):
    with open(path) as fh:
        return state_from_dict(json.load(fh))


class TestStateMake:
    def test_tmsv(self, capsys):
        code, out, _ = run(capsys, "state", "make", "tmsv", "--r", "1", "--theta", "0")
        assert code == 0
        state = state_from_dict(json.loads(out))
        assert np.max(np.abs(state.cov - two_mode_squeezed_vacuum(1.0, 0.0).cov)) < 1e-15

    def test_vacuum_two_modes(self, capsys):
        code, out, _ = run(capsys, "state", "make", "vacuum", "--modes", "2")
        assert code == 0
        assert np.array_equal(state_from_dict(json.loads(out)).cov, np.eye(4))

    def test_coherent_complex_parse(self, capsys):
        code, out, _ = run(capsys, "state", "make", "coherent", "--alpha", "1+1i")
        assert code == 0
        state = state_from_dict(json.loads(out))
        assert np.allclose(state.mean, [np.sqrt(2), np.sqrt(2)])

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "state", "make", "squeezed", "--r", "0.7", "--theta", "0.3")
        _, out2, _ = run(capsys, "state", "make", "squeezed", "--r", "0.7", "--theta", "0.3")
        assert out1 == out2

    def test_round_trip_lossless(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        run(capsys, "state", "make", "tmsv", "--r", "1.234567890123", "--out", str(path))
        state = read_state(path)
        rewritten = json.dumps(state_to_dict(state))
        assert np.array_equal(
            state_from_dict(json.loads(rewritten)).cov, state.cov
        )


class TestEvolve:
    @pytest.fixture
    def vac_file(self, tmp_path, capsys):
        path = tmp_path / "vac.json"
        run(capsys, "state", "make", "vacuum", "--out", str(path))
        return str(path)

    def test_squeeze_on_vacuum(self, vac_file, capsys):
        code, out, _ = run(
            capsys, "evolve", vac_file, "--builtin", "squeeze", "--r", "1", "--time", "1"
        )
        assert code == 0
        state = state_from_dict(json.loads(out))
        assert np.max(np.abs(state.cov - np.diag([np.exp(-2), np.exp(2)]))) < 1e-10

    def test_zero_hamiltonian_file(self, vac_file, tmp_path, capsys):
        hpath = tmp_path / "h.json"
        hpath.write_text(json.dumps({"f_bar": [[0.0, 0.0], [0.0, 0.0]]}))
        code, out, _ = run(capsys, "evolve", vac_file, "--hamiltonian", str(hpath), "--time", "2")
        assert code == 0
        state = state_from_dict(json.loads(out))
        assert np.array_equal(state.cov, np.eye(2))

    def test_linear_hamiltonian_displaces(self, vac_file, tmp_path, capsys):
        hpath = tmp_path / "disp.json"
        hpath.write_text(
            json.dumps({"f_bar": [[0.0, 0.0], [0.0, 0.0]], "alpha": [0.0, -1.0]})
        )
        code, out, _ = run(capsys, "evolve", vac_file, "--hamiltonian", str(hpath), "--time", "1")
        assert code == 0
        state = state_from_dict(json.loads(out))
        # d = Omega^-1 alpha = (-1.0 applied through [[0,1],[-1,0]]) = (-1, 0)
        assert np.allclose(state.mean, [-1.0, 0.0])
        assert np.array_equal(state.cov, np.eye(2))

    def test_tms_matches_tmsv_constructor(self, tmp_path, capsys):
        vac2 = tmp_path / "vac2.json"
        run(capsys, "state", "make", "vacuum", "--modes", "2", "--out", str(vac2))
        code, out, _ = run(
            capsys,
            "evolve",
            str(vac2),
            "--builtin",
            "tms",
            "--r",
            "0.8",
            "--theta",
            "0.5",
            "--time",
            "1",
        )
        assert code == 0
        state = state_from_dict(json.loads(out))
        assert np.max(np.abs(state.cov - two_mode_squeezed_vacuum(0.8, 0.5).cov)) < 1e-10

    @pytest.mark.parametrize("theta", ["0", "0.3", "1"])
    def test_strong_squeeze_accepted(self, vac_file, capsys, theta):
        argv = ["evolve", vac_file, "--builtin", "squeeze", "--r", "10", "--theta", theta]
        code, out, err = run(capsys, *argv, "--time", "1")
        assert code == 0, err
        # the closed form, not squeezed_vacuum: at r = 10 its e^-20
        # eigenvalue is below the resolution of the e^20 entries
        c, s, t = np.cosh(20.0), np.sinh(20.0), float(theta)
        expected = np.array(
            [[c - np.cos(t) * s, -np.sin(t) * s], [-np.sin(t) * s, c + np.cos(t) * s]]
        )
        cov = np.asarray(json.loads(out)["cov"])
        assert np.max(np.abs(cov - expected)) <= 1e-9 * c


def blockwise_file(data, *keys):
    """Copy of a pairwise file dict with ``keys`` permuted and tagged "qqpp"."""
    out = dict(data, ordering="qqpp")
    for key in keys:
        out[key] = to_blockwise(data[key]).tolist()
    return out


class TestBlockwiseFiles:
    """ "qqpp" files are converted to pairwise order on load."""

    @pytest.fixture
    def twins(self, tmp_path):
        # a squeezed and a thermal mode, entangled and displaced
        channel = generate_channel(two_mode_squeeze_hamiltonian(0.9, 0.3), 1.0)
        state = apply_channel(channel, tensor(squeezed_vacuum(0.6, 0.4), thermal(1.7)))
        data = dict(state_to_dict(state), mean=[0.1, -0.4, 0.7, 0.2])
        paths = []
        for name, content in [("pair.json", data), ("block.json", blockwise_file(data, "mean", "cov"))]:
            path = tmp_path / name
            path.write_text(json.dumps(content))
            paths.append(str(path))
        return paths

    def test_williamson(self, twins, capsys):
        results = []
        for path in twins:
            code, out, _ = run(capsys, "williamson", path)
            assert code == 0
            results.append(json.loads(out))
        pair, block = results
        assert block["residuals"]["symplectic"] < 1e-9
        assert block["nu"] == pair["nu"]

    def test_evolve_builtin_tms_writes_same_bytes(self, twins, tmp_path, capsys):
        outputs = []
        for i, path in enumerate(twins):
            out_path = tmp_path / f"out{i}.json"
            argv = ["evolve", path, "--builtin", "tms", "--r", "0.7", "--time", "1"]
            code, _, _ = run(capsys, *argv, "--out", str(out_path))
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["ordering"] == "qpqp"

    def test_hamiltonian_file_evolves_like_pairwise_twin(self, twins, tmp_path, capsys):
        a = np.arange(16.0).reshape(4, 4) / 10
        ham = {"f_bar": (a @ a.T + np.eye(4)).tolist(), "alpha": [0.3, -0.1, 0.5, 0.2]}
        outputs = []
        for name, content in [("hp.json", ham), ("hb.json", blockwise_file(ham, "f_bar", "alpha"))]:
            hpath = tmp_path / name
            hpath.write_text(json.dumps(content))
            argv = ["evolve", twins[0], "--hamiltonian", str(hpath), "--time", "0.6"]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            outputs.append(json.loads(out))
        assert outputs[0]["cov"] == outputs[1]["cov"]
        assert outputs[0]["mean"] == outputs[1]["mean"]


class TestWilliamsonCmd:
    def make_state(self, tmp_path, capsys, *argv):
        path = tmp_path / "s.json"
        run(capsys, "state", "make", *argv, "--out", str(path))
        return str(path)

    def test_vacuum(self, tmp_path, capsys):
        path = self.make_state(tmp_path, capsys, "vacuum")
        code, out, _ = run(capsys, "williamson", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["nu"] == pytest.approx([1.0])
        assert data["residuals"]["symplectic"] < 1e-9

    def test_tmsv_is_pure(self, tmp_path, capsys):
        path = self.make_state(tmp_path, capsys, "tmsv", "--r", "1")
        _, out, _ = run(capsys, "williamson", str(path))
        assert json.loads(out)["nu"] == pytest.approx([1.0, 1.0], abs=1e-9)

    def test_thermal(self, tmp_path, capsys):
        path = self.make_state(tmp_path, capsys, "thermal", "--nu", "2")
        _, out, _ = run(capsys, "williamson", str(path))
        assert json.loads(out)["nu"] == pytest.approx([2.0], abs=1e-12)

    def test_nearly_singular_state_warns(self, tmp_path, capsys):
        path = self.make_state(tmp_path, capsys, "squeezed", "--r", "14")
        code, out, err = run(capsys, "williamson", path)
        assert code == 0
        assert json.loads(out)["nu"] == pytest.approx([1.0], abs=1e-6)
        assert err.startswith("warning: covariance matrix is nearly singular")
        assert all(line.startswith("warning: ") for line in err.splitlines())


class TestEntropyCmd:
    def test_vacuum_zero(self, tmp_path, capsys):
        path = tmp_path / "v.json"
        run(capsys, "state", "make", "vacuum", "--out", str(path))
        _, out, _ = run(capsys, "entropy", str(path))
        assert json.loads(out)["total"] == 0.0

    @pytest.mark.parametrize(
        "nu, expected, tol",
        [("2", 0.95477, 1e-5), ("1e17", math.log(1e17 / 2) + 1, 1e-9)],  # h(nu) = log(nu/2) + 1 + O(1/nu^2)
        ids=["nu-2", "nu-1e17"],
    )
    def test_thermal_value(self, tmp_path, capsys, nu, expected, tol):
        path = tmp_path / "t.json"
        run(capsys, "state", "make", "thermal", "--nu", nu, "--out", str(path))
        _, out, _ = run(capsys, "entropy", str(path))
        assert json.loads(out)["total"] == pytest.approx(expected, abs=tol)

    def test_tmsv_subsystem(self, tmp_path, capsys):
        path = tmp_path / "tm.json"
        run(capsys, "state", "make", "tmsv", "--r", "1", "--out", str(path))
        _, out, _ = run(capsys, "entropy", str(path), "--subsystem", "0")
        data = json.loads(out)
        assert data["kind"] == "entanglement"
        nu = np.cosh(1.0)
        expected = ((nu + 1) / 2) * np.log((nu + 1) / 2) - ((nu - 1) / 2) * np.log((nu - 1) / 2)
        assert data["total"] == pytest.approx(expected, abs=1e-9)

    def test_base_two(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        run(capsys, "state", "make", "thermal", "--nu", "2", "--out", str(path))
        _, out_e, _ = run(capsys, "entropy", str(path))
        _, out_2, _ = run(capsys, "entropy", str(path), "--base", "2")
        assert json.loads(out_2)["total"] == pytest.approx(
            json.loads(out_e)["total"] / np.log(2.0)
        )


class TestWignerCmd:
    def test_fock_summary_reports_negativity(self, tmp_path, capsys):
        out_path = tmp_path / "g.csv"
        code, out, _ = run(
            capsys,
            "wigner",
            "--fock",
            "1",
            "--qrange=-6:6",
            "--prange=-6:6",
            "--nq",
            "101",
            "--np",
            "101",
            "--summary",
            "--out",
            str(out_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["min_value"] < -0.3
        assert summary["negativity_volume"] > 0.1

    def test_vacuum_state_normalization(self, tmp_path, capsys):
        spath = tmp_path / "v.json"
        run(capsys, "state", "make", "vacuum", "--out", str(spath))
        gpath = tmp_path / "g.csv"
        code, out, _ = run(
            capsys,
            "wigner",
            str(spath),
            "--qrange=-6:6",
            "--prange=-6:6",
            "--nq",
            "201",
            "--np",
            "201",
            "--summary",
            "--out",
            str(gpath),
        )
        assert code == 0
        assert json.loads(out)["normalization"] == pytest.approx(1.0, abs=1e-6)

    def test_grid_file_format(self, tmp_path, capsys):
        gpath = tmp_path / "g.csv"
        run(
            capsys,
            "wigner",
            "--coherent",
            "1+0i",
            "--qrange=-6:6",
            "--prange=-6:6",
            "--nq",
            "41",
            "--np",
            "41",
            "--out",
            str(gpath),
        )
        lines = gpath.read_text().strip().splitlines()
        preamble = [ln for ln in lines if ln.startswith("#")]
        assert any(ln.startswith("# hbar=") for ln in preamble)
        header_idx = lines.index("q,p,w")
        rows = lines[header_idx + 1 :]
        assert len(rows) == 41 * 41
        # peak near q = sqrt(2)
        data = np.array([[float(tok) for tok in row.split(",")] for row in rows])
        peak = data[np.argmax(data[:, 2])]
        assert abs(peak[0] - np.sqrt(2.0)) < 0.2
        assert peak[1] == pytest.approx(0.0, abs=0.2)

    def test_byte_identical_runs(self, tmp_path, capsys):
        paths = []
        for name in ("a.csv", "b.csv"):
            p = tmp_path / name
            run(
                capsys,
                "wigner",
                "--fock",
                "2",
                "--qrange=-7:7",
                "--prange=-7:7",
                "--nq",
                "31",
                "--np",
                "31",
                "--out",
                str(p),
            )
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]


def reference_csv(w, descriptor):
    """The grid CSV formatted element by element, one f-string per line."""
    g = w.grid
    lines = [
        f"# state={descriptor}",
        f"# q_min={g.q_min:.17g}",
        f"# q_max={g.q_max:.17g}",
        f"# p_min={g.p_min:.17g}",
        f"# p_max={g.p_max:.17g}",
        f"# n_q={g.n_q}",
        f"# n_p={g.n_p}",
        f"# hbar={g.hbar:.17g}",
        "q,p,w",
    ]
    for q, row in zip(g.q.tolist(), w.values.tolist()):
        lines += [f"{q:.17g},{p:.17g},{v:.17g}" for p, v in zip(g.p.tolist(), row)]
    return "\n".join(lines)


@pytest.mark.parametrize(
    "source, half, n",
    [("fock:3", 6, 201), ("fock:0", 40, 501), ("squeezed", 8, 301)],
    ids=["fock-3", "fock-0-wide", "squeezed-state"],
)
def test_exported_grid_matches_per_element_formatting(tmp_path, capsys, source, half, n):
    # the wide vacuum grid holds values at every decimal exponent from -1 to -324, and 0
    grid = PhaseSpaceGrid(q_min=-half, q_max=half, p_min=-half, p_max=half, n_q=n, n_p=n)
    if source == "squeezed":
        state_path = str(tmp_path / "sq6.json")
        run(capsys, "state", "make", "squeezed", "--r", "0.6", "--theta", "0.4", "--out", state_path)
        w, descriptor, args = eval_gaussian(read_state(state_path), grid), f"state:{state_path}", [state_path]
    else:
        level = source.split(":")[1]
        w, descriptor, args = eval_fock(int(level), grid), source, ["--fock", level]
    out = tmp_path / "w.csv"
    ranges = [f"--qrange={-half}:{half}", f"--prange={-half}:{half}", "--nq", str(n), "--np", str(n)]
    assert run(capsys, "wigner", *args, *ranges, "--out", str(out))[0] == 0
    assert out.read_text(encoding="utf-8") == reference_csv(w, descriptor) + "\n"


def layout_values():
    """Values for every layout of "%.17g": fixed notation for exponents -4
    to 16 and scientific notation beyond, with two- and three-digit
    exponents; 1 to 17 significant digits; both signs, -0.0, subnormals and
    values with a point among the integer digits."""
    digits = "12345678901234567"
    values = [float(f"{digits[0]}.{digits[1:]}e{k}") for k in range(-7, 20)]
    values += [float(digits[:n]) for n in range(1, 18)]  # 1 to 17 digits
    values += [2.0**-j for j in range(1, 60)]  # 0.5 ... 1.7347234759768071e-18
    values += [123.25, 1000.5, 12345678.125, 1e15 + 0.5, 1e22, 1e-100, 1.5e300, 5e-324, 2.0**-1074 * 7]
    values += [1 / 3, 0.1, np.nextafter(0.2, 1.0), 2.2250738585072e-308, 0.0]
    return np.array(values + [-v for v in values])


def test_layout_values_cover_every_layout():
    values = layout_values()
    texts = ["%.17g" % v for v in values]
    fixed = {math.floor(math.log10(abs(v))) for v, t in zip(values, texts) if v and "e" not in t}
    exponents = {t.split("e")[1] for t in texts if "e" in t}
    digit_counts = {len(t.lstrip("-").split("e")[0].replace(".", "").lstrip("0")) for t in texts}
    assert fixed == set(range(-4, 17))
    assert {"-05", "+17", "-100", "+300", "-324"} <= exponents
    assert digit_counts >= set(range(1, 18))
    assert {"-0", "0", "-123.25", "1000.5"} <= set(texts)


@pytest.mark.parametrize(
    "n_q, n_p",
    [(5, 7), (37, 3), (2, 2), (_gridcsv.BLOCK_LINES // 5 + 1, 5), (2, _gridcsv.BLOCK_LINES + 1)],
)
def test_grid_to_csv_matches_per_element_formatting(n_q, n_p):
    # subnormal and 17-digit bounds, and every layout of "%.17g" cycled over
    # shapes whose last block of rows, or of columns, is partial; hbar = 1e-309
    # puts the bound 1/(pi hbar) on |W| above every double
    grid = PhaseSpaceGrid(
        q_min=-3e-310, q_max=1 / 3, p_min=-0.1, p_max=2.0**-1074 * 7, n_q=n_q, n_p=n_p, hbar=1e-309
    )
    values = np.resize(layout_values(), (n_q, n_p))
    values[-1, -1] = np.random.default_rng(5).uniform(-0.3, 0.3)  # a full mantissa
    w = WignerGrid(grid=grid, values=values)
    csv = grid_to_csv(w, "pinned")
    assert csv == reference_csv(w, "pinned").encode()
    if n_q * n_p > layout_values().size:
        assert b",-0\n" in csv and b"e-324\n" in csv and b"e-310," in csv


# every character at which str.splitlines breaks a line, as the preamble writes it
LINE_BREAKS = {
    "\n": "\\n",
    "\r": "\\r",
    "\v": "\\x0b",
    "\f": "\\x0c",
    "\x1c": "\\x1c",
    "\x1d": "\\x1d",
    "\x1e": "\\x1e",
    "\x85": "\\x85",
    "\u2028": "\\u2028",
    "\u2029": "\\u2029",
}


@pytest.mark.parametrize("line_break", LINE_BREAKS)
def test_line_break_in_state_path_stays_in_preamble(tmp_path, capsys, line_break):
    state_path = tmp_path / f"a{line_break}b.json"
    run(capsys, "state", "make", "vacuum", "--out", str(state_path))
    out = tmp_path / "w.csv"
    assert run(capsys, "wigner", str(state_path), "--nq", "3", "--np", "3", "--out", str(out))[0] == 0
    lines = out.read_bytes().decode().splitlines()
    assert lines[0] == f"# state=state:{tmp_path}/a{LINE_BREAKS[line_break]}b.json"
    assert lines[1].startswith("# q_min=") and lines[8] == "q,p,w" and len(lines) == 9 + 9


@pytest.mark.parametrize(
    "amplitude", ["1+0.5i\n", "\r1-0.5i", "\n1+0i\r\n", *(f"1+0.5i{c}" for c in LINE_BREAKS if c not in "\n\r")]
)
def test_line_break_in_coherent_amplitude_stays_in_preamble(tmp_path, capsys, amplitude):
    out = tmp_path / "w.csv"
    assert run(capsys, "wigner", "--coherent", amplitude, "--nq", "3", "--np", "3", "--out", str(out))[0] == 0
    lines = out.read_bytes().decode().splitlines()
    escaped = "".join(LINE_BREAKS.get(c, c) for c in amplitude)
    assert lines[0] == f"# state=coherent:{escaped}"
    assert "\r" not in lines[0] and lines[8] == "q,p,w" and len(lines) == 9 + 9


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
def test_stdout_csv_is_utf8_whatever_the_locale(tmp_path, monkeypatch, encoding):
    # stdout once took the locale's encoding: ascii ended in a UnicodeEncodeError
    # traceback, and latin-1 wrote the preamble's "é" as the one byte 0xE9
    monkeypatch.chdir(tmp_path)
    argv = ["wigner", "é.json", "--nq", "3", "--np", "3"]
    assert main(["state", "make", "vacuum", "--out", "é.json"]) == 0
    assert main([*argv, "--out", "w.csv"]) == 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONIOENCODING=encoding)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-m", "gaussphase.cli", *argv], capture_output=True, env=env, timeout=120
    )
    assert (child.returncode, child.stderr) == (0, b"")
    assert child.stdout == Path("w.csv").read_bytes()
    assert child.stdout.startswith("# state=state:é.json\n".encode())


def test_undecodable_file_name_is_escaped_in_preamble(tmp_path, monkeypatch, capsysbinary):
    # a file name byte that is not UTF-8 reaches argv as a lone surrogate, which
    # --out once refused with a UnicodeEncodeError traceback
    monkeypatch.chdir(tmp_path)
    argv = ["wigner", "\udce9.json", "--nq", "3", "--np", "3"]
    assert main(["state", "make", "vacuum", "--out", "\udce9.json"]) == 0
    assert main([*argv, "--out", "w.csv"]) == 0
    assert main(argv) == 0
    out = capsysbinary.readouterr().out
    assert out == Path("w.csv").read_bytes()
    assert out.startswith(b"# state=state:\\udce9.json\n")


def test_grid_output_longer_than_write_slice_is_whole(capsysbinary, tmp_path):
    # 161 x 161 rows make about 1.4 MB of CSV, whole on stdout and in the --out file
    argv = ["wigner", "--fock", "1", "--nq", "161", "--np", "161"]
    assert main(argv) == 0
    out = capsysbinary.readouterr().out
    grid = PhaseSpaceGrid(q_min=-6, q_max=6, p_min=-6, p_max=6, n_q=161, n_p=161)
    expected = grid_to_csv(eval_fock(1, grid), "fock:1") + b"\n"
    assert len(expected) > 1 << 20
    assert out == expected
    path = tmp_path / "w.csv"
    assert main([*argv, "--out", str(path)]) == 0
    assert path.read_bytes() == expected


def test_grid_export_holds_its_csv_once(tmp_path):
    # the blocks, their join and the encoded text once lay side by side: 2.1x the file
    path = tmp_path / "w.csv"
    argv = ["wigner", "--fock", "3", "--nq", "501", "--np", "501", "--out", str(path)]
    assert main(argv) == 0  # imports the modules and builds the decimal scales first
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * path.stat().st_size


class TestCoupledExample:
    def test_decoupled(self, capsys):
        code, out, _ = run(capsys, "coupled-example", "--lambda", "0")
        assert code == 0
        data = json.loads(out)
        assert data["alpha"] == 1.0
        assert data["nu_reduced"] == pytest.approx(1.0, abs=1e-9)
        assert data["entanglement_entropy"] == pytest.approx(0.0, abs=1e-9)

    def test_lambda_three_quarters(self, capsys):
        code, out, _ = run(capsys, "coupled-example", "--lambda", "0.75")
        assert code == 0
        data = json.loads(out)
        assert data["alpha"] == pytest.approx(2.0)
        assert data["nu_reduced"] == pytest.approx(3.0 / (2.0 * np.sqrt(2.0)), abs=1e-9)
        assert data["symplectic_spectrum_of_hamiltonian"] == pytest.approx([1.0, 2.0], abs=1e-9)

    def test_entropy_increases_with_coupling(self, capsys):
        values = []
        for lam in ("0.1", "0.5", "1.0", "2.0"):
            _, out, _ = run(capsys, "coupled-example", "--lambda", lam)
            values.append(json.loads(out)["entanglement_entropy"])
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_explicit_units(self, capsys):
        code, out, _ = run(
            capsys, "coupled-example", "--m", "2.0", "--omega", "1.5", "--lambda", "1.0"
        )
        assert code == 0
        data = json.loads(out)
        expected_alpha = np.sqrt(1.0 + 4.0 * 1.0 / (2.0 * 1.5**2))
        assert data["alpha"] == pytest.approx(expected_alpha)
        assert data["normal_frequencies"][1] == pytest.approx(1.5 * expected_alpha)
        # reduced nu is dimensionless and unit independent at hbar = 1
        assert data["nu_reduced"] == pytest.approx(
            (1 + expected_alpha) / (2 * np.sqrt(expected_alpha)), abs=1e-9
        )

    @pytest.mark.parametrize("m, omega", [("1e200", "1e100"), ("1", "1e200")])
    def test_extreme_units_are_accepted(self, capsys, m, omega):
        # m omega^2 overflows, but kappa = lambda / (m omega^2) underflows to 0
        # and every output is representable: two decoupled vacua
        code, out, err = run(capsys, "coupled-example", "--lambda", "1", "--m", m, "--omega", omega)
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["entanglement_entropy"] == 0.0
        assert data["symplectic_spectrum_of_hamiltonian"] == pytest.approx([float(omega)] * 2, rel=1e-12)
        # the scaling x = q sqrt(m omega), y = p / sqrt(m omega) gives the vacuum back
        root = np.sqrt(float(m)) * np.sqrt(float(omega))
        d = np.array([root, 1 / root, root, 1 / root])
        scaled = np.asarray(data["ground_state_cov"]) * d[:, None] * d
        assert np.allclose(scaled, np.eye(4), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "module, builder, message, argv",
    [
        (states, "vacuum", "", ["state", "make", "vacuum", "--modes", "100000"]),
        (
            wigner,
            "eval_fock",
            "Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type float64",
            ["wigner", "--fock", "0", "--nq", "100000", "--np", "100000"],
        ),
    ],
    ids=["state-make", "wigner"],
)
def test_request_too_large_for_memory_is_refused(tmp_path, capsys, monkeypatch, module, builder, message, argv):
    # the builder raises in place of a real allocation of this size, which
    # may succeed lazily where memory is overcommitted and exhaust it later
    def allocate(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(module, builder, allocate)
    out_path = tmp_path / "o.out"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert (code, out, err) == (2, "", f"error: {message or 'out of memory'}\n")
    assert not out_path.exists()
