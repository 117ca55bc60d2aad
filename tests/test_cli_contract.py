"""The CLI's contract, as a property over command lines drawn from the parser.

Each command line is built from ``build_parser()``'s own actions: a
subcommand, then any of its options and positionals.  A number comes from
a pool that reaches the edges of the float range (signed zeros,
subnormals, 1e308, the largest double, 1e400, NaN, infinities) and
includes non-numeric text; a file is a physical state at an extreme
scale, a Hamiltonian or a malformed file.  Sizes stay small: ``--modes`` is
at most 4 and ``--nq`` and ``--np`` at most 41.  The one allocation that
grows with a request, the text of a grid's CSV, may also be drawn to fail
with ``MemoryError``.

Whatever the draw, :func:`gaussphase.cli.main` exits 0, 2, 3 or 4 and no
exception escapes it.  A refusal prints exactly one ``error:`` line, as its
last stderr line, writes nothing to stdout and creates no ``--out`` file.
No stderr line is a numpy floating-point warning (``... encountered in
...``): finite input gives finite output or a typed refusal.

Every malformed file, read as a state and as a Hamiltonian, is refused
with exactly one ``error:`` line, which names the file.

Two tests pin what the exit codes rest on: no module of the package raises
a builtin ``ValueError`` or ``IndexError`` itself, and :func:`main` maps
each error class to its exit code, while such a builtin exception from a
bug escapes it rather than reading as a refusal.
"""

import argparse
import ast
import contextlib
import io
import json
import math
import os
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussphase import cli, errors, states
from gaussphase.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src" / "gaussphase"

# the edges of the float range, and text that is not a number
NUMBERS = [
    "0", "-0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e-308", "1e308", "-1e308",
    "1.7976931348623157e308", "-1.7976931348623157e308", "1e400", "-1e400", "nan", "inf", "-inf",
    "x", "",
]
INTEGERS = ["-1", "0", "1", "2", "3", "4", "41", "201", "100000", "1.5", "x"]
# the largest value an integer option may take, so that no draw allocates much
CAPS = {"modes": 4, "nq": 41, "np": 41}
INDICES = ["-1", "0", "1", "2", "5", "x", ""]


def _state(cov, mean=None, ordering="qpqp"):
    n = len(cov) // 2
    return {"n_modes": n, "ordering": ordering, "mean": mean or [0.0] * (2 * n), "cov": cov}


def _diag(*entries):
    return [[e if i == j else 0.0 for j, e in enumerate(entries)] for i in range(len(entries))]


def _tmsv(r):
    ch, sh = math.cosh(r), math.sinh(r)
    return [[ch, 0.0, -sh, 0.0], [0.0, ch, 0.0, sh], [-sh, 0.0, ch, 0.0], [0.0, sh, 0.0, ch]]


BIG = 1.7976931348623157e308
BLOCKWISE = (0, 2, 1, 3)
# physical states at extreme scales
STATES = {
    "vacuum.json": _state(_diag(1.0, 1.0)),
    "vacuum2.json": _state(_diag(1.0, 1.0, 1.0, 1.0)),
    "hot.json": _state(_diag(1e300, 1e300)),
    "hottest.json": _state(_diag(BIG, BIG)),
    "squeezed.json": _state(_diag(1e-300, 1e300)),
    "far.json": _state(_diag(1.0, 1.0), mean=[BIG, -BIG]),
    "subnormal.json": _state([[1.0, 5e-324], [5e-324, 1.0]]),
    "tmsv12.json": _state(_tmsv(12.0)),
    "tmsv12_qqpp.json": _state(
        [[_tmsv(12.0)[i][j] for j in BLOCKWISE] for i in BLOCKWISE], ordering="qqpp"
    ),
    "hot2.json": _state(_diag(1e300, 1e300, 1.0, 1.0)),
}
HAMILTONIANS = {
    "h1.json": {"f_bar": _diag(1.0, 1.0)},
    "h2.json": {"n_modes": 2, "f_bar": _tmsv(0.5), "alpha": [0.5, 0.0, -0.25, 1.0]},
    "hbig.json": {"f_bar": _diag(BIG, BIG)},
    "hzero.json": {"f_bar": _diag(0.0, 0.0)},
    "hindefinite.json": {"f_bar": [[1.0, 2.0], [2.0, 1.0]]},
}
# name -> the file's text; None: the file does not exist
MALFORMED = {
    "truncated.json": "{",
    "list.json": "[]",
    "null.json": "null",
    "empty.json": "{}",
    "n_text.json": '{"n_modes": "x", "mean": [0, 0], "cov": [[1, 0], [0, 1]]}',
    "n_inf.json": '{"n_modes": 1e400, "mean": [0, 0], "cov": [[1, 0], [0, 1]]}',
    "n_huge_qqpp.json": '{"n_modes": 1e15, "ordering": "qqpp", "mean": [0, 0], "cov": [[1, 0], [0, 1]]}',
    "tag_list.json": '{"n_modes": 1, "ordering": ["qpqp"], "mean": [0, 0], "cov": [[1, 0], [0, 1]]}',
    "tag_number.json": '{"n_modes": 1, "ordering": 7, "mean": [0, 0], "cov": [[1, 0], [0, 1]]}',
    "cov_text.json": '{"n_modes": 1, "mean": [0, 0], "cov": [["a", 0], [0, 1]]}',
    "cov_ragged.json": '{"n_modes": 1, "mean": [0, 0], "cov": [[1, 0], [0]]}',
    "cov_nan.json": '{"n_modes": 1, "mean": [0, 0], "cov": [[NaN, 0], [0, 1]]}',
    "cov_asym.json": '{"n_modes": 1, "mean": [0, 0], "cov": [[1, 1], [0, 1]]}',
    "h_scalar.json": '{"f_bar": 1}',
    "h_text.json": '{"f_bar": "x"}',
    "h_asym.json": '{"f_bar": [[1, 1], [0, 1]]}',
    "utf16.json": b"\xff\xfe{",
    # beyond the JSON decoder's recursion limit and CPython's limit on an integer's digits
    "deep.json": "[" * 100000,
    "bigint.json": '{"n_modes": ' + "1" * 5000 + ', "mean": [0, 0], "cov": [[1, 0], [0, 1]]}',
    "missing.json": None,
}
FILES = {name: json.dumps(content) for name, content in {**STATES, **HAMILTONIANS}.items()} | MALFORMED


def _either(ordinary, edges):
    """A value from ``ordinary`` or from ``edges``, each half of the time."""
    return st.sampled_from(ordinary) | st.sampled_from(edges)


def _dest_values(action: argparse.Action):
    """The strategy for one value of ``action``, chosen by its type and name."""
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    number = _either(["0.3", "1", "2", "-0.5"], NUMBERS)
    if action.type is float:
        return number
    if action.type is int:
        cap = CAPS.get(action.dest, math.inf)
        return _either(["2", "3"], [v for v in INTEGERS if not v.lstrip("-").isdigit() or int(v) <= cap])
    if action.dest == "state":
        return _either(sorted(STATES), sorted(FILES))
    if action.dest == "hamiltonian":
        return _either(sorted(HAMILTONIANS), sorted(FILES))
    if action.dest == "out":
        return st.sampled_from(["out.txt", "missing_dir/out.txt"])
    if action.dest in ("qrange", "prange"):
        edges = st.builds("{}:{}".format, st.sampled_from(NUMBERS), st.sampled_from(NUMBERS))
        return st.sampled_from(["-3:3", "-1e3:1e3", "0:0.5"]) | edges | st.just("1")
    if action.dest == "subsystem":
        return st.lists(st.sampled_from(INDICES), min_size=1, max_size=3).map(",".join)
    # complex amplitudes, --alpha and --coherent
    amplitude = st.builds("{}+{}i".format, number, number) | number
    return st.lists(amplitude, min_size=1, max_size=3).map(",".join)


def _commands(parser: argparse.ArgumentParser, words=()):
    """(command words, its parser) for every leaf subcommand.  A positional
    with choices, the kind of ``state make``, adds its choice to the words,
    so that each kind is drawn as often as a subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    kinds = [a for a in parser._actions if not a.option_strings and a.choices and not subs]
    if kinds:
        for kind in kinds[0].choices:
            yield (*words, kind), parser
    elif not subs:
        yield words, parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _commands(sub, (*words, name))


COMMANDS = sorted(_commands(build_parser()), key=lambda c: c[0])


# arguments of which a command takes exactly one, which the parser does not
# say: one is drawn, and each of the others is added one time in ten
ONE_OF = {("wigner",): ("state", "fock", "coherent"), ("evolve",): ("hamiltonian", "builtin")}


@st.composite
def command_lines(draw):
    words, parser = draw(st.sampled_from(COMMANDS))
    group = ONE_OF.get(words, ())
    chosen = draw(st.sampled_from(group)) if group else None
    argv = list(words)
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction) or (action.choices and not action.option_strings):
            continue  # help, and a positional with choices, already among the words
        if action.dest in group:
            include = action.dest == chosen or draw(st.integers(0, 9)) == 0
        else:  # a required argument is left out one time in ten, to reach argparse's refusal
            include = draw(st.integers(0, 9)) > 0 if action.required else draw(st.booleans())
        if not include:
            continue
        if not action.option_strings:
            argv.append(draw(_dest_values(action)))
        elif action.nargs == 0:
            argv.append(action.option_strings[-1])
        else:  # one word, so that a value such as -1e308 is not read as an option
            argv.append(f"{action.option_strings[-1]}={draw(_dest_values(action))}")
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    here = tmp_path_factory.mktemp("contract")
    for name, text in FILES.items():
        if isinstance(text, bytes):
            (here / name).write_bytes(text)
        elif text is not None:
            (here / name).write_text(text, encoding="utf-8")
    return here


ERROR_LINE = re.compile(r"(gaussphase[\w -]*: )?error: ")


def _run(argv, csv_fails):
    out, err = io.StringIO(), io.StringIO()
    failing = mock.patch.object(cli, "grid_to_csv", side_effect=MemoryError())
    with failing if csv_fails else contextlib.nullcontext():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's refusals
                code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(argv=command_lines(), csv_fails=st.integers(0, 9).map(lambda k: k == 0))
def test_cli_contract(workdir, argv, csv_fails):
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code, stdout, stderr = _run(argv, csv_fails)
        wrote = os.path.exists("out.txt")
        if wrote:
            os.remove("out.txt")
    finally:
        os.chdir(cwd)
    lines = stderr.splitlines()
    assert code in (0, 2, 3, 4)
    assert not [line for line in lines if "encountered in" in line]
    if code != 0:
        assert [line for line in lines if ERROR_LINE.match(line)] == lines[-1:]
        assert stdout == "" and not wrote


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_a_malformed_file_is_refused_in_one_line_that_names_it(workdir, monkeypatch, name):
    monkeypatch.chdir(workdir)
    for argv in (["williamson", name], ["evolve", "vacuum.json", "--hamiltonian", name, "--time", "1"]):
        code, stdout, stderr = _run(argv, csv_fails=False)
        refusals = [line for line in stderr.splitlines() if ERROR_LINE.match(line)]
        assert code in (2, 3) and stdout == ""
        assert len(refusals) == 1 and name in refusals[0], (argv, stderr)


def _builtin_raises(path: Path):
    """(line, name) of every ``raise ValueError(...)`` or ``raise IndexError(...)``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "IndexError"):
                yield node.lineno, exc.id


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_builtin_value_or_index_error_is_raised(path):
    assert list(_builtin_raises(path)) == []


# an error's class alone decides the exit code; None: the exception escapes main
EXIT_CODES = [
    (errors.ParameterError("p"), 2),
    (errors.DimensionError("d"), 2),
    (errors.ModeIndexError("m"), 2),
    (cli.FileFormatError("f"), 2),
    (OSError("o"), 2),
    (MemoryError("m"), 2),
    (errors.DomainError("d"), 3),
    (errors.UnphysicalStateError("u"), 3),
    (errors.NoGroundStateError("g"), 3),
    (np.linalg.LinAlgError("l"), 3),
    (errors.NotPureError("n"), 4),
    # a numpy or Python ValueError or IndexError that no refusal raised is a
    # bug: main does not print it as a refusal, and the traceback reaches the caller
    (ValueError("operands could not be broadcast together"), None),
    (IndexError("index 2 is out of bounds for axis 0 with size 2"), None),
    (KeyError("k"), None),
]


@pytest.mark.parametrize("exc, code", EXIT_CODES, ids=[type(exc).__name__ for exc, _ in EXIT_CODES])
def test_exit_code_follows_the_error_class(monkeypatch, capsys, exc, code):
    def library_call(*args, **kwargs):
        raise exc

    monkeypatch.setattr(states, "thermal", library_call)
    argv = ["state", "make", "thermal", "--nu", "2"]
    if code is None:
        with pytest.raises(type(exc)) as excinfo:
            main(argv)
        assert excinfo.value is exc and capsys.readouterr().err == ""
    else:
        assert main(argv) == code
        assert capsys.readouterr() == ("", f"error: {exc}\n")
