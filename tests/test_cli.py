import json
import math

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
    vacuum,
)
from gaussphase import _gridcsv
from gaussphase.cli import grid_to_csv, main, state_from_dict, state_to_dict
from gaussphase.wigner import PhaseSpaceGrid, WignerGrid, eval_fock


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

    def test_unphysical_thermal_exit_code(self, capsys):
        code, _, err = run(capsys, "state", "make", "thermal", "--nu", "0.5")
        assert code == 3
        assert "nu" in err

    def test_missing_parameter_exit_code(self, capsys):
        code, _, _ = run(capsys, "state", "make", "thermal")
        assert code == 2

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

    def test_verbose_reports_residual(self, vac_file, capsys):
        code, _, err = run(
            capsys, "evolve", vac_file, "--builtin", "rotate", "--time", "1", "--verbose"
        )
        assert code == 0
        assert "symplectic residual" in err

    def test_dimension_mismatch_exit_code(self, vac_file, capsys):
        code, _, _ = run(
            capsys, "evolve", vac_file, "--builtin", "tms", "--time", "1"
        )
        assert code == 2

    @pytest.mark.parametrize("time", ["1", "1e6"])
    def test_dimension_mismatch_refused_before_exponentiating(
        self, vac_file, tmp_path, capsys, time
    ):
        """At --time 1e6 the two-mode channel overflows, so only a mode check
        made before exponentiating reports the mismatch; --verbose prints no
        residual for a channel that is never built."""
        out_path = tmp_path / "o.json"
        argv = ["evolve", vac_file, "--builtin", "tms", "--r", "1", "--time", time]
        code, out, err = run(capsys, *argv, "--verbose", "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err == "error: channel acts on 2 modes, state has 1\n"
        assert not out_path.exists()

    def test_unreadable_file_exit_code(self, capsys):
        code, _, _ = run(capsys, "evolve", "/nonexistent.json", "--builtin", "rotate", "--time", "1")
        assert code == 2


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


class TestMalformedFiles:
    """Malformed state and Hamiltonian files exit 2 and write no output.

    A cov of shape (1, 4) at one mode has 4 n^2 entries, so only a shape
    check, not a reshape, refuses it."""

    Z2, E2, E4 = [0.0, 0.0], np.eye(2).tolist(), np.eye(4).tolist()

    @pytest.mark.parametrize(
        "content",
        [
            {"n_modes": 1, "ordering": "xyz", "mean": Z2, "cov": E2},
            {"n_modes": 1, "ordering": None, "mean": Z2, "cov": E2},
            {"n_modes": 1, "ordering": "qqpp", "mean": Z2, "cov": E4},
            {"n_modes": 1, "ordering": "qqpp", "mean": [0.0] * 4, "cov": E2},
            {"n_modes": 2, "ordering": "qqpp", "mean": Z2, "cov": E4},
            {"n_modes": 1, "ordering": "qqpp", "mean": Z2, "cov": np.eye(2, 3).tolist()},
            {"n_modes": 1, "ordering": "qqpp", "mean": Z2, "cov": [[1.0, 0.0, 0.0, 1.0]]},
            {"n_modes": 1, "ordering": "qqpp", "mean": [[0.0], [0.0]], "cov": E2},
        ],
        ids=["tag-xyz", "tag-null", "cov4-n1", "mean4-n1", "mean2-n2", "cov2x3", "cov1x4", "mean2d"],
    )
    def test_state_file(self, tmp_path, capsys, content):
        path, out_path = tmp_path / "s.json", tmp_path / "o.json"
        path.write_text(json.dumps(content))
        code, out, err = run(capsys, "williamson", str(path), "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: invalid state file")
        assert not out_path.exists()

    @pytest.mark.parametrize("tag", ["qpqp", "qqpp"])
    def test_two_dimensional_mean_refused_for_both_tags(self, tmp_path, capsys, tag):
        path, out_path = tmp_path / "s.json", tmp_path / "o.json"
        path.write_text(json.dumps({"n_modes": 1, "ordering": tag, "mean": [[0.0], [0.0]], "cov": self.E2}))
        code, out, err = run(capsys, "williamson", str(path), "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "(2, 1)" in err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "content",
        [
            {"ordering": "qqpp", "f_bar": np.eye(3).tolist()},
            {"n_modes": 1, "ordering": "qqpp", "f_bar": E4},
            {"ordering": "qqpp", "f_bar": E2, "alpha": [0.0, 0.0, 0.0]},
            {"ordering": "abc", "f_bar": E2},
        ],
        ids=["f3x3", "f4x4-n1", "alpha3", "tag-abc"],
    )
    def test_hamiltonian_file(self, tmp_path, capsys, content):
        state_path, out_path = tmp_path / "v.json", tmp_path / "o.json"
        assert run(capsys, "state", "make", "vacuum", "--out", str(state_path))[0] == 0
        path = tmp_path / "h.json"
        path.write_text(json.dumps(content))
        argv = ["evolve", str(state_path), "--hamiltonian", str(path), "--time", "1"]
        code, out, err = run(capsys, *argv, "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot read hamiltonian file")
        assert not out_path.exists()


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
        assert err.startswith("warning: f is nearly singular")
        assert all(line.startswith("warning: ") for line in err.splitlines())

    def test_non_positive_definite_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "n_modes": 1,
                    "ordering": "qpqp",
                    "mean": [0.0, 0.0],
                    "cov": [[1.0, 2.0], [2.0, 1.0]],
                    "metadata": {},
                }
            )
        )
        code, _, _ = run(capsys, "williamson", str(path))
        assert code == 3


class TestEntropyCmd:
    def test_vacuum_zero(self, tmp_path, capsys):
        path = tmp_path / "v.json"
        run(capsys, "state", "make", "vacuum", "--out", str(path))
        _, out, _ = run(capsys, "entropy", str(path))
        assert json.loads(out)["total"] == 0.0

    def test_thermal_value(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        run(capsys, "state", "make", "thermal", "--nu", "2", "--out", str(path))
        _, out, _ = run(capsys, "entropy", str(path))
        assert json.loads(out)["total"] == pytest.approx(0.95477, abs=1e-5)

    def test_tmsv_subsystem(self, tmp_path, capsys):
        path = tmp_path / "tm.json"
        run(capsys, "state", "make", "tmsv", "--r", "1", "--out", str(path))
        _, out, _ = run(capsys, "entropy", str(path), "--subsystem", "0")
        data = json.loads(out)
        assert data["kind"] == "entanglement"
        nu = np.cosh(1.0)
        expected = ((nu + 1) / 2) * np.log((nu + 1) / 2) - ((nu - 1) / 2) * np.log((nu - 1) / 2)
        assert data["total"] == pytest.approx(expected, abs=1e-9)

    def test_mixed_subsystem_exit_code(self, tmp_path, capsys):
        path = tmp_path / "mix.json"
        run(capsys, "state", "make", "thermal", "--nu", "3", "--out", str(path))
        # overwrite with a 2-mode mixed state file
        cov = np.diag([3.0, 3.0, 3.0, 3.0])
        path.write_text(
            json.dumps(
                {
                    "n_modes": 2,
                    "ordering": "qpqp",
                    "mean": [0.0] * 4,
                    "cov": cov.tolist(),
                    "metadata": {},
                }
            )
        )
        code, _, _ = run(capsys, "entropy", str(path), "--subsystem", "0")
        assert code == 4

    def test_duplicate_subsystem_exit_code(self, tmp_path, capsys):
        path = tmp_path / "tm.json"
        run(capsys, "state", "make", "tmsv", "--r", "1", "--out", str(path))
        code, out, err = run(capsys, "entropy", str(path), "--subsystem", "0,0")
        assert code == 2
        assert out == ""
        assert "duplicate" in err

    @pytest.mark.parametrize("subsystem", ["--subsystem=a", "--subsystem=", "--subsystem=0,"])
    def test_unparsable_subsystem_exit_code(self, tmp_path, capsys, subsystem):
        path = tmp_path / "tm.json"
        run(capsys, "state", "make", "tmsv", "--r", "1", "--out", str(path))
        code, out, err = run(capsys, "entropy", str(path), subsystem)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

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

    def test_conflicting_sources_rejected(self, capsys):
        code, _, _ = run(capsys, "wigner", "--fock", "1", "--coherent", "1+0i")
        assert code == 2

    @pytest.mark.parametrize(
        "flag",
        [
            "--nq=1",
            "--np=1",
            "--hbar=0",
            "--qrange=3:1",
            "--hbar=nan",
            "--hbar=inf",
            "--qrange=nan:1",
            "--qrange=-1e308:1e308",  # finite bounds, overflowing span
        ],
    )
    def test_bad_grid_argument_exit_code(self, tmp_path, capsys, flag):
        out_path = tmp_path / "w.csv"
        code, out, err = run(capsys, "wigner", "--fock", "0", flag, "--out", str(out_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert not out_path.exists()

    def test_narrow_grid_warns_but_succeeds(self, tmp_path, capsys):
        gpath = tmp_path / "g.csv"
        code, _, err = run(
            capsys,
            "wigner",
            "--fock",
            "3",
            "--qrange=-3:3",
            "--prange=-3:3",
            "--nq",
            "31",
            "--np",
            "31",
            "--out",
            str(gpath),
        )
        assert code == 0
        assert "warning:" in err


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
    for i in range(g.n_q):
        for j in range(g.n_p):
            lines.append(f"{g.q[i]:.17g},{g.p[j]:.17g},{w.values[i, j]:.17g}")
    return "\n".join(lines)


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
    text = grid_to_csv(w, "pinned")
    assert text == reference_csv(w, "pinned")
    if n_q * n_p > layout_values().size:
        assert ",-0\n" in text and "e-324\n" in text and "e-310," in text


@pytest.mark.parametrize("line_break", ["\n", "\r"])
def test_line_break_in_state_path_stays_in_preamble(tmp_path, capsys, line_break):
    state_path = tmp_path / f"a{line_break}b.json"
    run(capsys, "state", "make", "vacuum", "--out", str(state_path))
    out = tmp_path / "w.csv"
    assert run(capsys, "wigner", str(state_path), "--nq", "3", "--np", "3", "--out", str(out))[0] == 0
    lines = out.read_bytes().decode().split("\n")
    escaped = "\\n" if line_break == "\n" else "\\r"
    assert lines[0] == f"# state=state:{tmp_path}/a{escaped}b.json"
    assert lines[1].startswith("# q_min=") and lines[8] == "q,p,w" and len(lines) == 9 + 9 + 1


@pytest.mark.parametrize("amplitude", ["1+0.5i\n", "\r1-0.5i", "\n1+0i\r\n"])
def test_line_break_in_coherent_amplitude_stays_in_preamble(tmp_path, capsys, amplitude):
    out = tmp_path / "w.csv"
    assert run(capsys, "wigner", "--coherent", amplitude, "--nq", "3", "--np", "3", "--out", str(out))[0] == 0
    lines = out.read_bytes().decode().split("\n")
    escaped = amplitude.replace("\n", "\\n").replace("\r", "\\r")
    assert lines[0] == f"# state=coherent:{escaped}"
    assert "\r" not in lines[0] and lines[8] == "q,p,w" and len(lines) == 9 + 9 + 1


def test_grid_output_longer_than_write_slice_is_whole(capsys, tmp_path):
    # 161 x 161 rows make about 1.4 MB of CSV, more than one 1 MiB write slice
    argv = ["wigner", "--fock", "1", "--nq", "161", "--np", "161"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    grid = PhaseSpaceGrid(q_min=-6, q_max=6, p_min=-6, p_max=6, n_q=161, n_p=161)
    expected = grid_to_csv(eval_fock(1, grid), "fock:1") + "\n"
    assert len(expected) > 1 << 20
    assert out == expected
    path = tmp_path / "w.csv"
    assert run(capsys, *argv, "--out", str(path))[0] == 0
    assert path.read_text(encoding="utf-8") == expected


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

    def test_unstable_exit_code(self, capsys):
        code, _, _ = run(capsys, "coupled-example", "--lambda=-0.3")
        assert code == 3

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

    @pytest.mark.parametrize(
        "option, value",
        [("--m", v) for v in ("0", "-1", "nan", "inf")]
        + [("--omega", v) for v in ("0", "nan", "inf")]
        + [("--lambda", v) for v in ("nan", "inf")],
    )
    def test_non_finite_or_non_positive_parameter_is_a_usage_error(self, capsys, option, value):
        code, out, err = run(capsys, "coupled-example", "--lambda", "1", f"{option}={value}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "warning: " not in err

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

    def test_overflowing_frequency_is_refused(self, capsys):
        # the ground state's p variance m omega = 1e400 overflows: a typed
        # refusal, not a traceback
        code, out, err = run(
            capsys, "coupled-example", "--lambda", "1", "--m", "1e200", "--omega", "1e200"
        )
        assert code == 3
        assert out == ""
        assert "float overflow" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["state", "make", "vacuum"],
        ["coupled-example", "--lambda", "0.5"],
        ["wigner", "--fock", "1", "--nq", "11", "--np", "11", "--summary"],
    ],
    ids=["state", "coupled-example", "wigner"],
)
def test_unwritable_out_exit_code(tmp_path, capsys, argv):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "x.out"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["williamson", "entropy"])
@pytest.mark.parametrize(
    "entry, value",
    [("cov", float("nan")), ("cov", float("inf")), ("mean", float("nan"))],
    ids=["cov-nan", "cov-inf", "mean-nan"],
)
def test_non_finite_state_file_exit_code(tmp_path, capsys, command, entry, value):
    data = state_to_dict(squeezed_vacuum(0.5))
    if entry == "cov":
        data["cov"][0][1] = data["cov"][1][0] = value
    else:
        data["mean"][1] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))  # written with the JSON extensions NaN / Infinity
    out_path = tmp_path / "result.json"
    code, out, err = run(capsys, command, str(path), "--out", str(out_path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")
    assert not out_path.exists()


@pytest.mark.parametrize("kind, r", [("squeezed", "400"), ("tmsv", "800")])
def test_overflowing_squeezing_refused_without_warning(tmp_path, capsys, kind, r):
    out_path = tmp_path / "s.json"
    code, out, err = run(capsys, "state", "make", kind, "--r", r, "--out", str(out_path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "warning: " not in err
    assert not out_path.exists()


def test_squeezed_state_without_cholesky_factor_refused(tmp_path, capsys):
    # squeezed_vacuum(15, 0.3)'s float covariance has no Cholesky factor, so
    # no file is written that `wigner` would refuse and `entropy` misjudge
    out_path = tmp_path / "s15.json"
    code, out, err = run(
        capsys, "state", "make", "squeezed", "--r", "15", "--theta", "0.3", "--out", str(out_path)
    )
    assert code == 3
    assert out == ""
    assert err == "error: covariance matrix is not positive definite\n"
    assert not out_path.exists()


@pytest.mark.parametrize(
    "source",
    [
        ["--fock", "2", "--qrange=-1e300:1e300", "--prange=-1e300:1e300"],
        ["--coherent", "1e300"],
    ],
    ids=["fock-wide-grid", "coherent-far-mean"],
)
def test_overflowing_wigner_refused_without_warning(tmp_path, capsys, source):
    # |q|^2 overflows on the grid, or (q - mean)^2 through the mean
    out_path = tmp_path / "w.csv"
    code, out, err = run(
        capsys, "wigner", *source, "--nq", "3", "--np", "3", "--out", str(out_path)
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "warning: " not in err
    assert not out_path.exists()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["state", "make", "unknown-kind"])
    assert excinfo.value.code == 2
