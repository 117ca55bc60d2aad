"""A checked-in corpus of ``gaussphase`` command lines.

Each row of :data:`CORPUS` gives the arguments of one command, the exit
code it must return, the file it writes with ``--out`` (None: it writes to
stdout) and whether it must print a ``warning:`` line.  The rows cover
every subcommand, both file orderings (``"qpqp"`` and ``"qqpp"``), the exit
codes 0, 2, 3 and 4, and every command of the CI console-script step.

:func:`run_corpus` runs the rows in order, in process through
:func:`gaussphase.cli.main`, in one directory: :data:`INPUTS` are written
there first, and later rows read the files earlier rows wrote.
``tests/test_cli_corpus.py`` checks every row.

    PYTHONPATH=src python tests/cli_corpus.py --digests

prints one SHA-256 per row over its exit code, stdout, stderr and output
file.  Compare the digests of two commits on the same machine to show that
a change keeps the CLI's bytes.  No digest is checked in: outputs that pass
through ``eigh`` may differ in their last bits between LAPACK builds.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import tempfile
from typing import NamedTuple

from gaussphase.cli import main


class Row(NamedTuple):
    argv: str  # split on whitespace; no argument holds a space
    code: int
    out: str | None = None
    warns: bool = False


class Result(NamedTuple):
    code: int
    stdout: str
    stderr: str
    out: bytes | None  # the --out file's bytes, None if it was not written


def _blockwise(a):
    """A pairwise vector or matrix (nested lists) in blockwise order."""
    pos = [*range(0, len(a), 2), *range(1, len(a), 2)]
    if isinstance(a[0], list):
        return [[a[i][j] for j in pos] for i in pos]
    return [a[i] for i in pos]


def _inputs() -> dict:
    ch, sh = 1.2 * math.cosh(0.5), 1.2 * math.sinh(0.5)
    # a mixed, displaced two-mode squeezed state with q-p correlations
    mean = [0.1, -0.2, 0.3, 0.4]
    cov = [[ch, 0.1, -sh, 0.0], [0.1, ch, 0.0, sh], [-sh, 0.0, ch, 0.05], [0.0, sh, 0.05, ch]]
    f_bar = [
        [2.0, 0.3, 0.1, 0.0], [0.3, 1.0, 0.2, 0.0], [0.1, 0.2, 1.5, -0.4], [0.0, 0.0, -0.4, 1.0]
    ]
    alpha = [0.5, 0.0, -0.25, 1.0]
    eye2 = [[1.0, 0.0], [0.0, 1.0]]
    return {
        "m2.json": {"n_modes": 2, "ordering": "qpqp", "mean": mean, "cov": cov},
        "m2_qqpp.json": {
            "n_modes": 2, "ordering": "qqpp", "mean": _blockwise(mean), "cov": _blockwise(cov)
        },
        "hq.json": {"n_modes": 2, "f_bar": f_bar, "alpha": alpha},
        "hq_qqpp.json": {
            "n_modes": 2, "ordering": "qqpp", "f_bar": _blockwise(f_bar), "alpha": _blockwise(alpha)
        },
        # the Hamiltonian of the CI console-script step
        "h3.json": {
            "n_modes": 3, "f_bar": [[1 / (1 + i + j) + (i == j) for j in range(6)] for i in range(6)]
        },
        "indefinite.json": {"n_modes": 1, "mean": [0, 0], "cov": [[1, 2], [2, 1]]},
        "n17.json": {"n_modes": 1.7, "mean": [0.0, 0.0], "cov": eye2},
        "ntrue.json": {"n_modes": True, "mean": [0.0, 0.0], "cov": eye2},
        "h15.json": {"n_modes": 1.5, "f_bar": eye2},
        "hscalar.json": {"f_bar": 2.0},
    }


INPUTS = _inputs()

CORPUS = [
    # state make
    Row("state make vacuum", 0),
    Row("state make vacuum", 0, "v.json"),
    Row("state make vacuum --modes 2", 0, "v2.json"),
    Row("state make thermal --nu 2", 0, "th.json"),
    Row("state make thermal --nu 1e17", 0, "th17.json"),
    Row("state make coherent --alpha 1+0.5i,-2+1i,0.3-2i", 0, "c.json"),
    Row("state make coherent --alpha 0.5-0.25i", 0, "c1.json"),
    Row("state make squeezed --r 0.6 --theta 0.4", 0, "sq6.json"),
    Row("state make squeezed --r 14", 0, "sq14.json"),
    Row("state make tmsv --r 1", 0, "t.json"),
    Row("state make tmsv --r 0.5 --theta 0.3", 0),
    Row("state make squeezed --r 400", 3, "s.json"),
    Row("state make tmsv --r 800", 3, "t8.json"),
    Row("state make squeezed --r 15 --theta 0.3", 3, "s15.json"),
    Row("state make thermal --nu 0.5", 3, "th05.json"),
    Row("state make coherent --alpha 1.5e308", 3, "cb.json"),
    Row("state make coherent --alpha=-1.5e308", 3, "cbm.json"),
    Row("state make thermal", 2, "thx.json"),
    Row("state make thermal --nu inf", 2, "ni.json"),
    Row("state make squeezed --r nan", 2, "sn.json"),
    Row("state make coherent --alpha=nan", 2, "an.json"),
    Row("state make vacuum --modes 0", 2, "v0.json"),
    Row("state make vacuum", 2, "missing_dir/v.json"),
    # evolve
    Row("evolve c.json --hamiltonian h3.json --time 0.3", 0, "c3.json"),
    Row("evolve c3.json --builtin rotate --time 1", 0),
    Row("evolve t.json --builtin tms --r 0.5 --time 1", 0),
    Row("evolve v.json --builtin squeeze --r 10 --theta 0.3 --time 1", 0),
    Row("evolve v.json --builtin squeeze --r 0.5 --time 1 --verbose", 0),
    Row("evolve m2.json --hamiltonian hq.json --time 0.7", 0),
    Row("evolve m2_qqpp.json --hamiltonian hq.json --time 0.7", 0),
    Row("evolve m2.json --hamiltonian hq_qqpp.json --time 0.7", 0),
    Row("evolve v.json --builtin squeeze --r 1 --time 1e6", 3, "o.json"),
    Row("evolve v.json --builtin rotate --time 1e7", 3, "o7.json"),
    Row("evolve v.json --builtin tms --r 1 --time 1e6", 2, "om.json"),
    Row("evolve v.json --builtin rotate --time nan", 2, "tn.json"),
    Row("evolve v.json --builtin squeeze --time inf", 2, "ti.json"),
    Row("evolve v.json --builtin squeeze --r nan --time 1", 2, "rn.json"),
    Row("evolve v.json --hamiltonian h15.json --time 1", 2, "e15.json"),
    Row("evolve v.json --hamiltonian hscalar.json --time 1", 2, "esc.json"),
    Row("evolve v.json --time 1", 2, "enone.json"),
    # williamson
    Row("williamson t.json", 0),
    Row("williamson c3.json", 0),
    Row("williamson m2.json", 0),
    Row("williamson m2_qqpp.json", 0),
    Row("williamson sq14.json", 0, warns=True),
    Row("williamson indefinite.json", 3),
    Row("williamson n17.json", 2, "w17.json"),
    Row("williamson ntrue.json", 2, "wtrue.json"),
    Row("williamson no_such_file.json", 2),
    # entropy
    Row("entropy t.json --subsystem 0", 0),
    Row("entropy t.json --subsystem 1 --base 2", 0),
    Row("entropy th17.json", 0),
    Row("entropy m2.json --base 2", 0),
    Row("entropy th.json --subsystem 0", 4, "eth.json"),
    Row("entropy indefinite.json", 3),
    Row("entropy t.json --subsystem 0,0", 2),
    Row("entropy t.json --subsystem a", 2),
    # wigner
    Row("wigner --fock 3 --nq 201 --np 201", 0, "f3.csv"),
    Row("wigner --fock 0 --qrange=-40:40 --prange=-40:40 --nq 501 --np 501", 0, "f40.csv"),
    Row("wigner sq6.json --qrange=-8:8 --prange=-8:8 --nq 301 --np 301", 0, "sq6.csv"),
    Row("wigner c1.json --nq 41 --np 41 --summary", 0, "wc1.csv"),
    Row("wigner --coherent 1-1i --qrange=-12:12 --prange=-12:12 --nq 25 --np 25 --hbar 2", 0),
    Row("wigner --fock 2 --qrange=-1:1 --nq 5 --np 5", 0, warns=True),
    Row("wigner --fock 0 --nq 1", 2, "w.csv"),
    Row("wigner --fock 0 --qrange=-1e308:1e308 --nq 3 --np 3", 2, "w8.csv"),
    Row("wigner --fock 2 --qrange=-1e300:1e300 --prange=-1e300:1e300 --nq 3 --np 3", 3, "wf.csv"),
    Row("wigner --coherent 1e300 --nq 3 --np 3", 3, "wc.csv"),
    Row("wigner --coherent 1.5e308 --nq 3 --np 3", 3, "wcb.csv"),
    Row("wigner --coherent=nan --nq 3 --np 3", 2, "wn.csv"),
    Row("wigner --fock 0 --hbar nan --nq 3 --np 3", 2, "hn.csv"),
    Row("wigner indefinite.json --nq 3 --np 3", 3),
    Row("wigner t.json --nq 3 --np 3", 2),
    Row("wigner --fock 1 --coherent 1", 2),
    # coupled-example
    Row("coupled-example --lambda 0.5", 0),
    Row("coupled-example --lambda 0.2 --m 2 --omega 0.5 --base 2", 0),
    Row("coupled-example --lambda 1 --m 1e200 --omega 1e100", 0),
    Row("coupled-example --lambda -1", 3, "cneg.json"),
    Row("coupled-example --lambda 1 --m -1", 2, "cmneg.json"),
    Row("coupled-example --lambda 1 --m nan", 2, "cm.json"),
    Row("coupled-example --lambda 1 --omega inf", 2, "co.json"),
    Row("coupled-example --lambda nan", 2, "ln.json"),
]


def run_row(row: Row) -> Result:
    """Runs one row through :func:`gaussphase.cli.main` in the current directory."""
    argv = row.argv.split() + ([] if row.out is None else ["--out", row.out])
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out = None
    if row.out is not None and os.path.exists(row.out):
        with open(row.out, "rb") as fh:
            out = fh.read()
    return Result(code, stdout.getvalue(), stderr.getvalue(), out)


def run_corpus(directory: str) -> list[Result]:
    """Writes :data:`INPUTS` into ``directory`` and runs every row there, in order."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for name, content in INPUTS.items():
            with open(name, "w", encoding="utf-8") as fh:
                json.dump(content, fh)
        return [run_row(row) for row in CORPUS]
    finally:
        os.chdir(cwd)


def digest(result: Result) -> str:
    """SHA-256 over a row's exit code, stdout, stderr and output file."""
    h = hashlib.sha256()
    for part in (str(result.code), result.stdout, result.stderr):
        h.update(part.encode() + b"\0")
    h.update(b"-" if result.out is None else result.out)
    return h.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--digests", action="store_true", help="print one SHA-256 per row")
    if parser.parse_args().digests:
        with tempfile.TemporaryDirectory() as tmp:
            for row, result in zip(CORPUS, run_corpus(tmp)):
                out = "" if row.out is None else f" --out {row.out}"
                print(f"{digest(result)}  {row.argv}{out}")
    else:
        parser.print_help()
