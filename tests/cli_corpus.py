"""The one table of ``gaussphase`` command lines.

Each row of :data:`CORPUS` gives the arguments of one command, the exit
code it must return, the file it writes with ``--out`` (None: it writes to
stdout) and its whole stderr, one entry per line, in order.  An entry is
the exact text of its line, or a pattern where the line prints a number
computed through LAPACK or BLAS, whose last digits may differ between
builds, or argparse's list of choices and the JSON decoder's messages,
whose wording differs between Python versions.  The rows cover every subcommand, every option of
``build_parser`` in a row that exits 0, both file orderings (``"qpqp"``
and ``"qqpp"``), the exit codes 0, 2, 3 and 4, argparse's own refusals and
``--help``.

:func:`run_corpus` runs the rows in order in one directory: :data:`INPUTS`
are written there first, and later rows read the files earlier rows wrote.
:func:`check` tests one row's result.  ``tests/test_cli_corpus.py`` runs
every row in process through :func:`gaussphase.cli.main` and checks it.

    PYTHONPATH=src python tests/cli_corpus.py --console gaussphase

runs every row in process and through the console script (CMD is split
with :func:`shlex.split`, so ``"python -m gaussphase.cli"`` works too),
checks both and fails, naming the row, where their exit code, stdout,
stderr or ``--out`` bytes differ.

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
import re
import shlex
import subprocess
import sys
import tempfile
from typing import NamedTuple, Sequence
from unittest import mock

from gaussphase.cli import main


class Row(NamedTuple):
    argv: str  # split on whitespace; no argument holds a space
    code: int
    out: str | None = None
    stderr: tuple[str | re.Pattern, ...] = ()


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
    # a mixed three-mode state, every entry correlated: 1.5 I plus a matrix of norm < 0.5
    mean3 = [0.5, -0.1, 0.2, 0.0, -0.3, 0.7]
    cov3 = [[1.5 * (i == j) + 0.1 / (1 + i + j) for j in range(6)] for i in range(6)]
    f_bar = [
        [2.0, 0.3, 0.1, 0.0], [0.3, 1.0, 0.2, 0.0], [0.1, 0.2, 1.5, -0.4], [0.0, 0.0, -0.4, 1.0]
    ]
    alpha = [0.5, 0.0, -0.25, 1.0]
    z2, eye2, eye4 = [0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]], [[float(i == j) for j in range(4)] for i in range(4)]

    def state(ordering="qpqp", n_modes=1, mean=z2, cov=eye2):
        return {"n_modes": n_modes, "ordering": ordering, "mean": mean, "cov": cov}

    return {
        "m2.json": state(n_modes=2, mean=mean, cov=cov),
        "m2_qqpp.json": state("qqpp", 2, _blockwise(mean), _blockwise(cov)),
        "m3.json": state(n_modes=3, mean=mean3, cov=cov3),
        "m3_qqpp.json": state("qqpp", 3, _blockwise(mean3), _blockwise(cov3)),
        "hq.json": {"n_modes": 2, "f_bar": f_bar, "alpha": alpha},
        "hq_qqpp.json": {
            "n_modes": 2, "ordering": "qqpp", "f_bar": _blockwise(f_bar), "alpha": _blockwise(alpha)
        },
        "h3.json": {
            "n_modes": 3, "f_bar": [[1 / (1 + i + j) + (i == j) for j in range(6)] for i in range(6)]
        },
        "indefinite.json": {"n_modes": 1, "mean": [0, 0], "cov": [[1, 2], [2, 1]]},
        # malformed state files; a cov of shape (1, 4) at one mode has 4 n^2
        # entries, so only a shape check, not a reshape, refuses it
        "n17.json": {"n_modes": 1.7, "mean": z2, "cov": eye2},
        "ntrue.json": {"n_modes": True, "mean": z2, "cov": eye2},
        "ninf.json": state(n_modes=math.inf),
        "tag_xyz.json": state("xyz"),
        "tag_null.json": state(None),
        "cov4.json": state("qqpp", cov=eye4),
        "mean4.json": state("qqpp", mean=[0.0] * 4),
        "mean2_n2.json": state("qqpp", 2, cov=eye4),
        "cov2x3.json": state("qqpp", cov=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        "cov1x4.json": state("qqpp", cov=[[1.0, 0.0, 0.0, 1.0]]),
        "mean2d.json": state(mean=[[0.0], [0.0]]),
        "mean2d_qqpp.json": state("qqpp", mean=[[0.0], [0.0]]),
        # non-finite entries, written as the JSON extensions NaN and Infinity
        "cov_nan.json": state(cov=[[1.0, math.nan], [math.nan, 1.0]]),
        "cov_inf.json": state(cov=[[1.0, math.inf], [math.inf, 1.0]]),
        "mean_nan.json": state(mean=[0.0, math.nan]),
        # a file that is not UTF-8 text, written as its raw bytes
        "utf16.json": b"\xff\xfe{",
        # JSON that CPython's decoder refuses: nesting beyond its recursion
        # limit, and an integer beyond its limit on digits
        "deep.json": b"[" * 100000,
        "bigint.json": b'{"n_modes": ' + b"1" * 5000 + b', "mean": [0, 0], "cov": [[1, 0], [0, 1]]}',
        # malformed Hamiltonian files
        "h15.json": {"n_modes": 1.5, "f_bar": eye2},
        "hfalse.json": {"n_modes": False, "f_bar": eye2},
        "hscalar.json": {"f_bar": 2.0},
        "h3x3.json": {"ordering": "qqpp", "f_bar": [[float(i == j) for j in range(3)] for i in range(3)]},
        "h4_n1.json": {"n_modes": 1, "ordering": "qqpp", "f_bar": eye4},
        "halpha3.json": {"ordering": "qqpp", "f_bar": eye2, "alpha": [0.0, 0.0, 0.0]},
        "htag.json": {"ordering": "abc", "f_bar": eye2},
        "hasym.json": {"f_bar": [[1.0, 1.0], [0.0, 1.0]]},
        # the files that README's "Command line" block reads and no earlier line of it writes
        "ham.json": {"n_modes": 2, "f_bar": [
            [1.5, 0.0, -0.5, 0.0], [0.0, 1.0, 0.0, 0.0], [-0.5, 0.0, 1.5, 0.0], [0.0, 0.0, 0.0, 1.0]
        ]},
        "tmsv_reduced.json": state(cov=[[math.cosh(1.0), 0.0], [0.0, math.cosh(1.0)]]),
    }


INPUTS = _inputs()

CORPUS = [
    Row("--help", 0),
    # state make
    Row("state --help", 0),
    Row("state make --help", 0),
    Row("state make vacuum", 0),
    Row("state make vacuum", 0, "v.json"),
    Row("state make vacuum --modes 2", 0, "v2.json"),
    Row("state make thermal --nu 2", 0, "th.json"),
    Row("state make thermal --nu 1e17", 0, "th17.json"),
    Row("state make thermal --nu 1e308", 0, "th308.json"),
    Row("state make coherent --alpha 1+0.5i,-2+1i,0.3-2i", 0, "c.json"),
    Row("state make coherent --alpha 0.5-0.25i", 0, "c1.json"),
    Row("state make squeezed --r 0.6 --theta 0.4", 0, "sq6.json"),
    Row("state make squeezed --r 14", 0, "sq14.json"),
    # admitted by its Cholesky factor, but eigh rounds e^-600 beside e^600 to 0
    Row("state make squeezed --r 300", 0, "s300.json"),
    Row("state make tmsv --r 1", 0, "t.json"),
    Row("state make tmsv --r 0.5 --theta 0.3", 0),
    Row("state make squeezed --r 400", 3, "s.json",
        ("error: squeezing r = 400.0 gives non-finite values (float overflow)",)),
    Row("state make squeezed --r 1e308", 3, "s308.json",
        ("error: squeezing r = 1e+308 gives non-finite values (float overflow)",)),
    Row("state make squeezed --r=-1e308", 3, "sm308.json",
        ("error: squeezing r = -1e+308 gives non-finite values (float overflow)",)),
    Row("state make tmsv --r 800", 3, "t8.json",
        ("error: squeezing r = 800.0 gives non-finite values (float overflow)",)),
    # squeezed_vacuum(15, 0.3)'s float covariance has no Cholesky factor
    Row("state make squeezed --r 15 --theta 0.3", 3, "s15.json",
        ("error: covariance matrix is not positive definite",)),
    Row("state make thermal --nu 0.5", 3, "th05.json",
        ("error: thermal state requires nu >= 1, got 0.5",)),
    Row("state make coherent --alpha 1.5e308", 3, "cb.json",
        ("error: the quadrature mean sqrt(2) alpha gives non-finite values (float overflow)",)),
    Row("state make coherent --alpha=-1.5e308", 3, "cbm.json",
        ("error: the quadrature mean sqrt(2) alpha gives non-finite values (float overflow)",)),
    Row("state make thermal", 2, "thx.json", ("error: thermal requires --nu",)),
    Row("state make thermal --nu inf", 2, "ni.json", ("error: --nu must be finite, got inf",)),
    Row("state make thermal --nu nan", 2, "nn.json", ("error: --nu must be finite, got nan",)),
    Row("state make squeezed --r nan", 2, "sn.json", ("error: --r must be finite, got nan",)),
    Row("state make tmsv --r inf", 2, "tinf.json", ("error: --r must be finite, got inf",)),
    Row("state make coherent --alpha=nan", 2, "an.json",
        ("error: --alpha must be finite, got 'nan'",)),
    Row("state make coherent --alpha=1,1e400", 2, "a400.json",
        ("error: --alpha must be finite, got '1e400'",)),
    Row("state make coherent --alpha 1,,2", 2, "a12.json",
        ("error: cannot parse complex number from ''",)),
    Row("state make thermal --nu x", 2, "nx.json", (
        "usage: gaussphase state make [-h] [--modes MODES] [--nu NU] [--alpha ALPHA]",
        "                             [--r R] [--theta THETA] [--out OUT]",
        "                             {vacuum,thermal,coherent,squeezed,tmsv}",
        "gaussphase state make: error: argument --nu: invalid float value: 'x'",
    )),
    Row("state make vacuum --modes 0", 2, "v0.json", ("error: n_modes must be >= 1, got 0",)),
    Row("state make vacuum --modes 4611686018427387904", 2, "vbig.json",
        ("error: 4611686018427387904 modes need a covariance matrix beyond addressable memory",)),
    Row("state make vacuum", 2, "missing_dir/v.json",
        ("error: [Errno 2] No such file or directory: 'missing_dir/v.json'",)),
    Row("state make unknown-kind", 2, None, (
        "usage: gaussphase state make [-h] [--modes MODES] [--nu NU] [--alpha ALPHA]",
        "                             [--r R] [--theta THETA] [--out OUT]",
        "                             {vacuum,thermal,coherent,squeezed,tmsv}",
        re.compile(r"gaussphase state make: error: argument kind: invalid choice: 'unknown-kind' \(choose from .+\)"),
    )),
    # evolve
    Row("evolve --help", 0),
    Row("evolve c.json --hamiltonian h3.json --time 0.3", 0, "c3.json"),
    Row("evolve c3.json --builtin rotate --time 1", 0),
    Row("evolve t.json --builtin tms --r 0.5 --time 1", 0),
    Row("evolve m2.json --builtin tms --r 0.5 --time 1", 0),
    Row("evolve m2_qqpp.json --builtin tms --r 0.5 --time 1", 0),
    Row("evolve m3.json --builtin rotate --time 1", 0),
    Row("evolve m3_qqpp.json --builtin rotate --time 1", 0),
    Row("evolve v.json --builtin squeeze --r 10 --theta 0.3 --time 1", 0),
    Row("evolve v.json --builtin squeeze --r 0.5 --time 1 --verbose", 0, None,
        (re.compile(r"symplectic residual: \d\.\d{3}e[+-]\d\d"),)),
    Row("evolve m2.json --hamiltonian hq.json --time 0.7", 0),
    Row("evolve m2_qqpp.json --hamiltonian hq.json --time 0.7", 0),
    Row("evolve m2.json --hamiltonian hq_qqpp.json --time 0.7", 0),
    Row("evolve v.json --builtin squeeze --r 1 --time 1e6", 3, "o.json",
        ("error: the channel of this Hamiltonian at t = 1000000.0 gives non-finite values (float overflow)",)),
    Row("evolve v.json --builtin rotate --time 1e7", 3, "o7.json",
        (re.compile(r"error: s is not symplectic \(residual \d\.\d{3}e[+-]\d\d\)"),)),
    Row("evolve v.json --builtin tms --r 1 --time 1e6", 2, "om.json",
        ("error: channel acts on 2 modes, state has 1",)),
    # the mode check comes before exponentiating, which overflows at
    # --time 1e6, and --verbose prints no residual for a channel never built
    Row("evolve v.json --builtin tms --r 1 --time 1 --verbose", 2, "omv.json",
        ("error: channel acts on 2 modes, state has 1",)),
    Row("evolve v.json --builtin tms --r 1 --time 1e6 --verbose", 2, "om6v.json",
        ("error: channel acts on 2 modes, state has 1",)),
    Row("evolve v.json --builtin rotate --time nan", 2, "tn.json",
        ("error: --time must be finite, got nan",)),
    Row("evolve v.json --builtin squeeze --time inf", 2, "ti.json",
        ("error: --time must be finite, got inf",)),
    Row("evolve v.json --builtin squeeze --time=-inf", 2, "tmi.json",
        ("error: --time must be finite, got -inf",)),
    Row("evolve v.json --builtin squeeze --r nan --time 1", 2, "rn.json",
        ("error: --r must be finite, got nan",)),
    Row("evolve v.json --builtin squeeze --theta inf --time 1", 2, "thi.json",
        ("error: --theta must be finite, got inf",)),
    Row("evolve v.json --hamiltonian h15.json --time 1", 2, "e15.json",
        ("error: invalid hamiltonian file h15.json: n_modes must be an integer, got 1.5",)),
    Row("evolve v.json --hamiltonian hscalar.json --time 1", 2, "esc.json",
        ("error: invalid hamiltonian file hscalar.json: f_bar must be a matrix, got the scalar 2.0",)),
    Row("evolve v.json --hamiltonian hfalse.json --time 1", 2, "efalse.json",
        ("error: invalid hamiltonian file hfalse.json: n_modes must be an integer, got False",)),
    Row("evolve v.json --hamiltonian h3x3.json --time 1", 2, "e3x3.json",
        ("error: invalid hamiltonian file h3x3.json: f_bar must have shape (2, 2), got (3, 3)",)),
    Row("evolve v.json --hamiltonian h4_n1.json --time 1", 2, "e4.json",
        ("error: invalid hamiltonian file h4_n1.json: f_bar must have shape (2, 2), got (4, 4)",)),
    Row("evolve v.json --hamiltonian halpha3.json --time 1", 2, "ea3.json",
        ("error: invalid hamiltonian file halpha3.json: alpha must have shape (2,), got (3,)",)),
    Row("evolve v.json --hamiltonian htag.json --time 1", 2, "etag.json",
        ("""error: invalid hamiltonian file htag.json: unknown ordering 'abc' (expected "qpqp" or "qqpp")""",)),
    Row("evolve v.json --hamiltonian hasym.json --time 1", 3, "easym.json",
        ("error: invalid hamiltonian file hasym.json: f_bar asymmetry 1.000e+00 exceeds tolerance",)),
    Row("evolve v.json --hamiltonian deep.json --time 1", 2, "edeep.json",
        (re.compile(r"error: cannot read hamiltonian file deep\.json: maximum recursion depth exceeded.*"),)),
    Row("evolve v.json --hamiltonian bigint.json --time 1", 2, "ebig.json",
        (re.compile(r"error: cannot read hamiltonian file bigint\.json: .*integer string conversion.*"),)),
    Row("evolve v.json --time 1", 2, "enone.json",
        ("error: provide exactly one of --hamiltonian or --builtin",)),
    Row("evolve no_such_file.json --builtin rotate --time 1", 2, None,
        ("error: cannot read state file no_such_file.json: [Errno 2] No such file or directory: 'no_such_file.json'",)),
    Row("evolve v.json --builtin rotate", 2, "enotime.json", (
        "usage: gaussphase evolve [-h] [--hamiltonian HAMILTONIAN]",
        "                         [--builtin {squeeze,tms,rotate}] [--r R]",
        "                         [--theta THETA] --time TIME [--verbose] [--out OUT]",
        "                         state",
        "gaussphase evolve: error: the following arguments are required: --time",
    )),
    # williamson
    Row("williamson --help", 0),
    Row("williamson t.json", 0),
    Row("williamson c3.json", 0),
    Row("williamson m2.json", 0),
    Row("williamson m2.json", 0, "wm2.json"),
    Row("williamson m2_qqpp.json", 0),
    Row("williamson m3.json", 0),
    Row("williamson m3_qqpp.json", 0),
    Row("williamson utf16.json", 2, None,
        ("error: cannot read state file utf16.json: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",)),
    Row("williamson deep.json", 2, None,
        (re.compile(r"error: cannot read state file deep\.json: maximum recursion depth exceeded.*"),)),
    Row("williamson bigint.json", 2, None,
        (re.compile(r"error: cannot read state file bigint\.json: .*integer string conversion.*"),)),
    Row("williamson th308.json", 0),
    Row("williamson sq14.json", 0, None, (re.compile(
        r"warning: covariance matrix is nearly singular \(eigenvalue ratio \d\.\d{3}e[+-]\d\d\)"
    ),)),
    Row("williamson s300.json", 3, None, (re.compile(
        r"error: covariance matrix must be positive definite \(min eigenvalue -?\d\.\d{3}e[+-]\d\d\)"
    ),)),
    Row("williamson indefinite.json", 3, None,
        ("error: invalid state file indefinite.json: covariance matrix is not positive definite",)),
    Row("williamson cov_nan.json", 3, "wcn.json",
        ("error: invalid state file cov_nan.json: covariance matrix has non-finite entries",)),
    Row("williamson cov_inf.json", 3, "wci.json",
        ("error: invalid state file cov_inf.json: covariance matrix has non-finite entries",)),
    Row("williamson mean_nan.json", 3, "wmn.json",
        ("error: invalid state file mean_nan.json: mean has non-finite entries",)),
    Row("williamson n17.json", 2, "w17.json",
        ("error: invalid state file n17.json: n_modes must be an integer, got 1.7",)),
    Row("williamson ntrue.json", 2, "wtrue.json",
        ("error: invalid state file ntrue.json: n_modes must be an integer, got True",)),
    Row("williamson ninf.json", 2, "winf.json",
        ("error: invalid state file ninf.json: n_modes must be an integer, got inf",)),
    Row("williamson tag_xyz.json", 2, "wxyz.json",
        ("""error: invalid state file tag_xyz.json: unknown ordering 'xyz' (expected "qpqp" or "qqpp")""",)),
    Row("williamson tag_null.json", 2, "wnull.json",
        ("""error: invalid state file tag_null.json: unknown ordering None (expected "qpqp" or "qqpp")""",)),
    Row("williamson cov4.json", 2, "wc4.json",
        ("error: invalid state file cov4.json: covariance matrix must have shape (2, 2), got (4, 4)",)),
    Row("williamson mean4.json", 2, "wm4.json",
        ("error: invalid state file mean4.json: mean must have shape (2,), got (4,)",)),
    Row("williamson mean2_n2.json", 2, "wm2n2.json",
        ("error: invalid state file mean2_n2.json: mean must have shape (4,), got (2,)",)),
    Row("williamson cov2x3.json", 2, "wc23.json",
        ("error: invalid state file cov2x3.json: covariance matrix must have shape (2, 2), got (2, 3)",)),
    Row("williamson cov1x4.json", 2, "wc14.json",
        ("error: invalid state file cov1x4.json: covariance matrix must have shape (2, 2), got (1, 4)",)),
    Row("williamson mean2d.json", 2, "wm2d.json",
        ("error: invalid state file mean2d.json: mean must have shape (2,), got (2, 1)",)),
    Row("williamson mean2d_qqpp.json", 2, "wm2dq.json",
        ("error: invalid state file mean2d_qqpp.json: mean must have shape (2,), got (2, 1)",)),
    Row("williamson no_such_file.json", 2, None,
        ("error: cannot read state file no_such_file.json: [Errno 2] No such file or directory: 'no_such_file.json'",)),
    Row("williamson", 2, None, (
        "usage: gaussphase williamson [-h] [--out OUT] state",
        "gaussphase williamson: error: the following arguments are required: state",
    )),
    # entropy
    Row("entropy --help", 0),
    Row("entropy t.json --subsystem 0", 0),
    Row("entropy t.json --subsystem 0", 0, "et.json"),
    Row("entropy t.json --subsystem 1 --base 2", 0),
    Row("entropy th17.json", 0),
    Row("entropy m2.json --base 2", 0),
    Row("entropy th.json --subsystem 0", 4, "eth.json",
        (re.compile(r"error: global state is mixed \(purity \d\.\d{9}\); entanglement entropy is undefined"),)),
    Row("entropy m2.json --subsystem 0", 4, "em2.json",
        (re.compile(r"error: global state is mixed \(purity \d\.\d{9}\); entanglement entropy is undefined"),)),
    Row("entropy s300.json", 3, None, (re.compile(
        r"error: covariance matrix must be positive definite \(min eigenvalue -?\d\.\d{3}e[+-]\d\d\)"
    ),)),
    Row("entropy indefinite.json", 3, None,
        ("error: invalid state file indefinite.json: covariance matrix is not positive definite",)),
    Row("entropy cov_nan.json", 3, "ecn.json",
        ("error: invalid state file cov_nan.json: covariance matrix has non-finite entries",)),
    Row("entropy cov_inf.json", 3, "eci.json",
        ("error: invalid state file cov_inf.json: covariance matrix has non-finite entries",)),
    Row("entropy mean_nan.json", 3, "emn.json",
        ("error: invalid state file mean_nan.json: mean has non-finite entries",)),
    Row("entropy t.json --subsystem 0,0", 2, None,
        ("error: keep contains duplicate mode indices",)),
    Row("entropy t.json --subsystem a", 2, None, ("error: cannot parse mode indices 'a'",)),
    Row("entropy t.json --subsystem=", 2, None, ("error: cannot parse mode indices ''",)),
    Row("entropy t.json --subsystem=0,", 2, None, ("error: cannot parse mode indices '0,'",)),
    # wigner
    Row("wigner --help", 0),
    Row("entropy t.json --subsystem 5", 2, None,
        ("error: mode indices [5] out of range for 2 modes",)),
    Row("entropy t.json --subsystem 0,1", 2, None,
        ("error: partition must be a proper subset of the modes",)),
    Row("wigner --fock 3 --nq 201 --np 201", 0, "f3.csv"),
    Row("wigner --fock 0 --qrange=-40:40 --prange=-40:40 --nq 501 --np 501", 0, "f40.csv"),
    Row("wigner sq6.json --qrange=-8:8 --prange=-8:8 --nq 301 --np 301", 0, "sq6.csv"),
    Row("wigner c1.json --nq 41 --np 41 --summary", 0, "wc1.csv"),
    Row("wigner --coherent 1-1i --qrange=-12:12 --prange=-12:12 --nq 25 --np 25 --hbar 2", 0),
    # about 1.4 MB of CSV on stdout's buffer, then the summary's JSON after it
    Row("wigner --fock 1 --nq 161 --np 161 --summary", 0),
    Row("wigner --fock 2 --qrange=-1:1 --nq 5 --np 5", 0, None,
        ("warning: grid boundary carries 3.68e-01 of the peak Wigner value; widen the grid for accurate integrals",)),
    Row("wigner --fock 3 --qrange=-3:3 --prange=-3:3 --nq 31 --np 31", 0, "f3n.csv",
        ("warning: grid boundary carries 6.65e-02 of the peak Wigner value; widen the grid for accurate integrals",)),
    Row("wigner --fock 0 --nq 1", 2, "w.csv", ("error: need at least 2 points per axis",)),
    Row("wigner --fock 0 --np=1", 2, "wnp.csv", ("error: need at least 2 points per axis",)),
    Row("wigner --fock 0 --hbar=0", 2, "wh0.csv", ("error: hbar must be positive",)),
    Row("wigner --fock 0 --qrange=3:1", 2, "wq31.csv",
        ("error: grid bounds must satisfy q_max > q_min and p_max > p_min",)),
    Row("wigner --fock 0 --qrange=1 --nq 3 --np 3", 2, "wq1.csv",
        ("error: range '1' must look like MIN:MAX",)),
    Row("wigner --fock 0 --hbar=-1 --nq 3 --np 3", 2, "whm.csv",
        ("error: hbar must be positive",)),
    Row("wigner --fock 0 --nq x", 2, "wnx.csv", (
        "usage: gaussphase wigner [-h] [--fock FOCK] [--coherent COHERENT]",
        "                         [--qrange QRANGE] [--prange PRANGE] [--nq NQ]",
        "                         [--np NP] [--hbar HBAR] [--summary] [--out OUT]",
        "                         [state]",
        "gaussphase wigner: error: argument --nq: invalid int value: 'x'",
    )),
    Row("wigner --fock 0 --nq 4611686018427387904 --np 3", 2, "wbig.csv",
        ("error: a 4611686018427387904 x 3 grid is beyond addressable memory",)),
    Row("wigner --fock 0 --qrange=-1e308:1e308 --nq 3 --np 3", 2, "w8.csv",
        ("error: grid span q_max - q_min or p_max - p_min gives non-finite values (float overflow)",)),
    Row("wigner --fock 2 --qrange=-1e300:1e300 --prange=-1e300:1e300 --nq 3 --np 3", 3, "wf.csv",
        ("error: the Fock Wigner function on this grid gives non-finite values (float overflow)",)),
    Row("wigner --coherent 1e300 --nq 3 --np 3", 3, "wc.csv",
        ("error: the Gaussian Wigner function on this grid gives non-finite values (float overflow)",)),
    Row("wigner --coherent 1.5e308 --nq 3 --np 3", 3, "wcb.csv",
        ("error: the quadrature mean sqrt(2) alpha gives non-finite values (float overflow)",)),
    Row("wigner --coherent=nan --nq 3 --np 3", 2, "wn.csv",
        ("error: --coherent must be finite, got 'nan'",)),
    Row("wigner --fock 0 --hbar nan --nq 3 --np 3", 2, "hn.csv",
        ("error: --hbar must be finite, got nan",)),
    Row("wigner --fock 0 --hbar=inf", 2, "hi.csv", ("error: --hbar must be finite, got inf",)),
    Row("wigner --fock 0 --qrange=nan:1 --nq 3 --np 3", 2, "wqn.csv",
        ("error: --qrange must be finite, got 'nan:1'",)),
    Row("wigner --fock 0 --prange=-1:inf --nq 3 --np 3", 2, "wpi.csv",
        ("error: --prange must be finite, got '-1:inf'",)),
    Row("wigner --fock 1 --nq 11 --np 11 --summary", 2, "missing_dir/w.csv",
        ("error: [Errno 2] No such file or directory: 'missing_dir/w.csv'",)),
    Row("wigner indefinite.json --nq 3 --np 3", 3, None,
        ("error: invalid state file indefinite.json: covariance matrix is not positive definite",)),
    Row("wigner t.json --nq 3 --np 3", 2, None,
        ("error: grid evaluation supports single-mode states only",)),
    Row("wigner --fock 1 --coherent 1", 2, None,
        ("error: provide exactly one of STATE, --fock or --coherent",)),
    Row("wigner --fock -1 --nq 3 --np 3", 2, "wfm.csv",
        ("error: n must be a non-negative integer",)),
    Row("wigner --fock 100000 --nq 3 --np 3", 2, "wfb.csv",
        ("error: n = 100000 exceeds the stable range (n <= 200)",)),
    # coupled-example
    Row("coupled-example --help", 0),
    Row("coupled-example --lambda 0.5", 0),
    Row("coupled-example --lambda 0.5", 0, "cpl.json"),
    Row("coupled-example --lambda 0.2 --m 2 --omega 0.5 --base 2", 0),
    Row("coupled-example --lambda 1 --m 1e200 --omega 1e100", 0),
    Row("coupled-example --lambda -1", 3, "cneg.json",
        ("error: coupling lambda=-1.0 destabilizes the system (1 + 4 lambda/(m omega^2) <= 0)",)),
    Row("coupled-example --lambda=-0.3", 3, "cneg3.json",
        ("error: coupling lambda=-0.3 destabilizes the system (1 + 4 lambda/(m omega^2) <= 0)",)),
    # the ground state's p variance m omega = 1e400 overflows
    Row("coupled-example --lambda 1 --m 1e200 --omega 1e200", 3, "cover.json",
        ("error: the spectrum or ground state in units of m and omega gives non-finite values (float overflow)",)),
    # lambda / (m omega^2) = 1e300 puts 1 + 4e300 beside 1 in one F
    Row("coupled-example --lambda 1 --m 1e-300", 3, "cm300.json", (re.compile(
        r"error: f_bar must be positive definite \(min eigenvalue -?\d\.\d{3}e[+-]\d\d\)"
    ),)),
    # the spectrum and the ground state factor the one F, which warns once
    Row("coupled-example --lambda 1 --m 1e-13", 0, None,
        (re.compile(r"warning: f_bar is nearly singular \(eigenvalue ratio \d\.\d{3}e-\d\d\)"),)),
    # lambda / (m omega^2) = 1e600 overflows before F is built
    Row("coupled-example --lambda 1e300 --m 1e-300", 3, "ckap.json",
        ("error: the coupling lambda / (m omega^2) gives non-finite values (float overflow)",)),
    Row("coupled-example --lambda=-1e300 --m 1e-300", 3, "ckapneg.json",
        ("error: coupling lambda=-1e+300 destabilizes the system (1 + 4 lambda/(m omega^2) <= 0)",)),
    Row("coupled-example --lambda 1 --m -1", 2, "cmneg.json",
        ("error: m and omega must be positive",)),
    Row("coupled-example --lambda 1 --m=0", 2, "cm0.json",
        ("error: m and omega must be positive",)),
    Row("coupled-example --lambda 1 --omega=0", 2, "co0.json",
        ("error: m and omega must be positive",)),
    Row("coupled-example --lambda 1 --m nan", 2, "cm.json",
        ("error: --m must be finite, got nan",)),
    Row("coupled-example --lambda 1 --m=inf", 2, "cmi.json",
        ("error: --m must be finite, got inf",)),
    Row("coupled-example --lambda 1 --omega inf", 2, "co.json",
        ("error: --omega must be finite, got inf",)),
    Row("coupled-example --lambda 1 --omega=nan", 2, "con.json",
        ("error: --omega must be finite, got nan",)),
    Row("coupled-example --lambda nan", 2, "ln.json", ("error: --lambda must be finite, got nan",)),
    Row("coupled-example --lambda=inf", 2, "li.json", ("error: --lambda must be finite, got inf",)),
    Row("coupled-example --lambda 0.5", 2, "missing_dir/c.json",
        ("error: [Errno 2] No such file or directory: 'missing_dir/c.json'",)),
    Row("coupled-example", 2, "cnone.json", (
        "usage: gaussphase coupled-example [-h] [--m M] [--omega OMEGA] --lambda LAM",
        "                                  [--base {e,2}] [--out OUT]",
        "gaussphase coupled-example: error: the following arguments are required: --lambda",
    )),
    # README's "Command line" block, line by line and in its order
    Row("state make tmsv --r 1 --theta 0", 0, "tmsv.json"),
    Row("state make vacuum --modes 2", 0, "vac2.json"),
    Row("evolve vac2.json --builtin tms --r 1 --time 1 --verbose", 0, None,
        (re.compile(r"symplectic residual: \d\.\d{3}e[+-]\d\d"),)),
    Row("evolve vac2.json --hamiltonian ham.json --time 0.5", 0),
    Row("williamson tmsv.json", 0),
    Row("entropy tmsv.json --subsystem 0 --base e", 0),
    Row("wigner --fock 1 --qrange=-6:6 --prange=-6:6 --nq 301 --np 301 --summary", 0, "w.csv"),
    Row("wigner tmsv_reduced.json --summary", 0),
    Row("coupled-example --m 1 --omega 1 --lambda 0.75", 0),
]


def row_id(row: Row) -> str:
    return row.argv if row.out is None else f"{row.argv} --out {row.out}"


def run_row(row: Row, console: list[str] | None = None) -> Result:
    """Runs one row in the current directory: in process through
    :func:`gaussphase.cli.main`, or as the command ``console`` + argv."""
    argv = row.argv.split() + ([] if row.out is None else ["--out", row.out])
    if console is None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's refusals and --help
                code = exc.code
        stdout, stderr = out.getvalue(), err.getvalue()
    else:
        proc = subprocess.run(console + argv, capture_output=True, check=False)
        code, stdout, stderr = proc.returncode, proc.stdout.decode(), proc.stderr.decode()
    written = None
    if row.out is not None and os.path.exists(row.out):
        with open(row.out, "rb") as fh:
            written = fh.read()
    return Result(code, stdout, stderr, written)


def run_corpus(
    directory: str, console: list[str] | None = None, rows: Sequence[Row] = CORPUS
) -> list[Result]:
    """Writes :data:`INPUTS` into ``directory`` (as JSON, or bytes as they
    are) and runs ``rows`` there, in order (see :func:`run_row`).  COLUMNS
    is fixed so that argparse wraps its usage lines alike in process and in
    a child, on any terminal.  Each entry of PYTHONPATH is made absolute
    against the directory the run starts in, so that a child started in
    ``directory`` finds what ``PYTHONPATH=src`` names."""
    env = {"COLUMNS": "80"}
    if os.environ.get("PYTHONPATH"):
        entries = os.environ["PYTHONPATH"].split(os.pathsep)
        env["PYTHONPATH"] = os.pathsep.join(map(os.path.abspath, entries))
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for name, content in INPUTS.items():
            if isinstance(content, bytes):
                with open(name, "wb") as fh:
                    fh.write(content)
            else:
                with open(name, "w", encoding="utf-8") as fh:
                    json.dump(content, fh)
        with mock.patch.dict(os.environ, env):
            return [run_row(row, console) for row in rows]
    finally:
        os.chdir(cwd)


def _matches(expected: str | re.Pattern, line: str) -> bool:
    return expected.fullmatch(line) is not None if isinstance(expected, re.Pattern) else expected == line


def check(row: Row, result: Result) -> list[str]:
    """What in ``result`` departs from ``row``; empty when nothing does.

    The exit code and every stderr line must be the row's.  A command that
    exits 0 prints to stdout or writes the row's ``--out`` file; a refusal
    prints nothing to stdout and writes no ``--out`` file."""
    problems = []
    if result.code != row.code:
        problems.append(f"exit code {result.code}, expected {row.code}")
    lines = result.stderr.splitlines()
    if len(lines) != len(row.stderr) or not all(map(_matches, row.stderr, lines)):
        problems.append(f"stderr {lines}, expected {list(row.stderr)}")
    if row.code == 0:
        if row.out is not None and result.out is None:
            problems.append(f"no {row.out} written")
        if not (result.stdout or result.out):
            problems.append("no output")
    elif result.stdout or result.out is not None:
        problems.append("a refusal wrote output")
    return problems


def digest(result: Result) -> str:
    """SHA-256 over a row's exit code, stdout, stderr and output file."""
    h = hashlib.sha256()
    for part in (str(result.code), result.stdout, result.stderr):
        h.update(part.encode() + b"\0")
    h.update(b"-" if result.out is None else result.out)
    return h.hexdigest()


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--digests", action="store_true", help="print one SHA-256 per row")
    mode.add_argument(
        "--console", metavar="CMD", help="run every row in process and through CMD, and compare"
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as here, tempfile.TemporaryDirectory() as there:
        results = run_corpus(here)
        if args.digests:
            for row, result in zip(CORPUS, results):
                print(f"{digest(result)}  {row_id(row)}")
            return 0
        console = run_corpus(there, shlex.split(args.console))
    failed = 0
    for row, mine, theirs in zip(CORPUS, results, console):
        problems = [f"in process: {p}" for p in check(row, mine)]
        problems += [f"through {args.console}: {p}" for p in check(row, theirs)]
        problems += [f"{f} differs" for f, a, b in zip(Result._fields, mine, theirs) if a != b]
        for problem in problems:
            print(f"FAIL {row_id(row)}: {problem}")
        failed += bool(problems)
    print(f"{len(CORPUS) - failed} of {len(CORPUS)} rows pass in process and through {args.console}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(_main())
