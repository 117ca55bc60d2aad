"""Every row of the CLI corpus (``tests/cli_corpus.py``): its exit code, one
``error:`` line and no output file on a refusal, and a ``warning:`` line
only where the row expects one."""

import pytest
from cli_corpus import CORPUS, run_corpus


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    return run_corpus(str(tmp_path_factory.mktemp("corpus")))


def _row_id(row):
    return row.argv if row.out is None else f"{row.argv} --out {row.out}"


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=[_row_id(row) for row in CORPUS])
def test_row(results, index):
    row, result = CORPUS[index], results[index]
    assert result.code == row.code, result.stderr
    lines = result.stderr.splitlines()
    errors = [line for line in lines if line.startswith("error: ")]
    warnings = [line for line in lines if line.startswith("warning: ")]
    if row.code == 0:
        assert not errors
        assert (result.out is not None) == (row.out is not None)
        assert result.stdout or result.out
    else:
        assert len(errors) == 1 and result.out is None and result.stdout == ""
    assert bool(warnings) == row.warns, lines
    assert all(line.startswith(("error: ", "warning: ", "symplectic residual: ")) for line in lines)


def _stdout(results, argv):
    (result,) = [r for row, r in zip(CORPUS, results) if row.argv == argv and row.out is None]
    return result.stdout


@pytest.mark.parametrize(
    "rows",
    [
        ["williamson m2.json", "williamson m2_qqpp.json"],
        [
            "evolve m2.json --hamiltonian hq.json --time 0.7",
            "evolve m2_qqpp.json --hamiltonian hq.json --time 0.7",
        ],
    ],
    ids=["williamson", "evolve-state"],
)
def test_orderings_give_the_same_output(results, rows):
    first, second = (_stdout(results, argv) for argv in rows)
    assert first and first == second


def test_hamiltonian_orderings_differ_only_in_the_recorded_path(results):
    qpqp = _stdout(results, "evolve m2.json --hamiltonian hq.json --time 0.7")
    qqpp = _stdout(results, "evolve m2.json --hamiltonian hq_qqpp.json --time 0.7")
    assert qpqp.replace('"hq.json"', '"hq_qqpp.json"') == qqpp
