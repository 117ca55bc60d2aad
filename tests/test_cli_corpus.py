"""Every row of the CLI corpus (``tests/cli_corpus.py``), run in process and
checked by ``cli_corpus.check``; a row that exits 0 for every option of
the parser and for every command line of README's "Command line" block;
and the same output from both file orderings."""

import argparse
from pathlib import Path

import pytest
from cli_corpus import CORPUS, check, row_id, run_corpus

from gaussphase.cli import build_parser


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return run_corpus(str(tmp_path_factory.mktemp("corpus")))


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=[row_id(row) for row in CORPUS])
def test_row(results, index):
    problems = check(CORPUS[index], results[index])
    assert not problems, problems


def _options(parser, command=()):
    """(command words, long option string) for every option of ``parser``
    and of its subcommands."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _options(sub, (*command, name))
        elif action.option_strings:
            yield command, max(action.option_strings, key=len)


def test_every_option_has_a_row_that_exits_0():
    options = set(_options(build_parser()))
    commands = {command for command, _ in options}
    covered = set()
    for row in CORPUS:
        if row.code == 0:
            words = row.argv.split() + ([] if row.out is None else ["--out"])
            command = max((c for c in commands if tuple(words[: len(c)]) == c), key=len)
            covered |= {(command, w.split("=")[0]) for w in words if w.startswith("--")}
    assert not options - covered, sorted(options - covered)


def _readme_command_lines():
    """The words of each ``gaussphase`` line of README's "Command line"
    block, without the command name and any trailing comment."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].split()[1:] for line in block.splitlines() if line.startswith("gaussphase ")]


def test_every_readme_command_line_is_a_row_that_exits_0():
    rows = {(row.argv, row.out) for row in CORPUS if row.code == 0}
    lines = _readme_command_lines()
    missing = []
    for words in lines:
        out = None
        if "--out" in words:
            i = words.index("--out")
            words, out = words[:i] + words[i + 2 :], words[i + 1]
        if (" ".join(words), out) not in rows:
            missing.append(" ".join(words))
    assert lines and not missing, missing


def _stdout(results, argv):
    (result,) = [r for row, r in zip(CORPUS, results) if row.argv == argv and row.out is None]
    return result.stdout


@pytest.mark.parametrize(
    "rows",
    [
        ["williamson m2.json", "williamson m2_qqpp.json"],
        ["williamson m3.json", "williamson m3_qqpp.json"],
        [
            "evolve m2.json --hamiltonian hq.json --time 0.7",
            "evolve m2_qqpp.json --hamiltonian hq.json --time 0.7",
        ],
        [
            "evolve m2.json --builtin tms --r 0.5 --time 1",
            "evolve m2_qqpp.json --builtin tms --r 0.5 --time 1",
        ],
        ["evolve m3.json --builtin rotate --time 1", "evolve m3_qqpp.json --builtin rotate --time 1"],
    ],
    ids=["williamson", "williamson-3-modes", "evolve-state", "evolve-builtin", "evolve-3-modes"],
)
def test_orderings_give_the_same_output(results, rows):
    first, second = (_stdout(results, argv) for argv in rows)
    assert first and first == second


def test_hamiltonian_orderings_differ_only_in_the_recorded_path(results):
    qpqp = _stdout(results, "evolve m2.json --hamiltonian hq.json --time 0.7")
    qqpp = _stdout(results, "evolve m2.json --hamiltonian hq_qqpp.json --time 0.7")
    assert qpqp.replace('"hq.json"', '"hq_qqpp.json"') == qqpp
