"""Batch command-line front end.

Subcommands: ``state make``, ``evolve``, ``williamson``, ``entropy``,
``wigner``, ``coupled-example``.  Structured results are JSON; Wigner
grids are CSV with ``# key=value`` preamble lines.  All numeric output is
locale independent and reproducible byte for byte.

Each ``cmd_*`` returns a JSON document, or for ``wigner`` the CSV as UTF-8
bytes and an optional summary.  :func:`main` writes that output as UTF-8
bytes, whatever the locale, to the ``--out`` file or to stdout, where a
``--summary`` follows the CSV; it prints warnings as
``warning: <message>`` and maps an error's class to an exit code: 0
success; 2 for an :class:`~gaussphase.errors.InputError` (a malformed
option, file, shape, parameter or mode index), an ``OSError`` and a
``MemoryError``; 3 for any other ``GaussPhaseError`` (an unphysical state
or a number that cannot be computed) and numpy's ``LinAlgError``; 4 for
``NotPureError`` (entanglement entropy of a mixed state).  Any other
exception is a bug: it escapes with its traceback and exit code 1.  The one
other writer is ``evolve --verbose``: :func:`cmd_evolve` prints the
channel's ``symplectic residual:`` line to stderr itself, once the channel
is built.  A NaN or infinite number given to an option is a usage error,
refused with one line naming the option before any work.

Conventions: dimensionless quadratures with vacuum covariance = identity
(hbar = kB = 1); ``coupled-example`` additionally accepts explicit m and
omega for its dimensionful Hamiltonian.  State and Hamiltonian files are
read with either ordering tag, ``"qpqp"`` (the default) or ``"qqpp"``, and
converted to the pairwise order used in memory; states are written as
``"qpqp"``.  One reader, :func:`_read`, admits either kind of file by its
value's constructor alone, and each refusal of a file is one line naming
it, exiting with the code of its error's class.

Each subcommand imports the modules it runs, so a command loads only its
own part of the package; ``fock``, the test oracle, never loads.
"""

from __future__ import annotations

import argparse
import cmath
import io
import json
import sys
import warnings
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    ConditioningWarning, DimensionError, DomainError, GaussPhaseError, InputError, NoGroundStateError,
    NotPureError, ParameterError,
)
from .symplectic import _refusing_overflow, make_symplectic_form

if TYPE_CHECKING:
    from . import dynamics, states, wigner

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_PRECONDITION = 4


class FileFormatError(InputError):
    """Input file could not be parsed into the expected structure."""


def _parse_complex(text: str, flag: str) -> complex:
    """The complex number ``text`` given to the option ``flag``; it must be finite."""
    try:
        value = complex(text.strip().replace("i", "j"))
    except ValueError as exc:
        raise FileFormatError(f"cannot parse complex number from {text!r}") from exc
    if not cmath.isfinite(value):
        raise FileFormatError(f"{flag} must be finite, got {text!r}")
    return value


class _Finite(argparse.Action):
    """Stores a float option, refusing a NaN or infinite value with a
    FileFormatError that names the option (exit 2, one error line)."""

    def __call__(self, parser, namespace, value, option_string=None):
        if not cmath.isfinite(value):
            raise FileFormatError(f"{option_string} must be finite, got {value}")
        setattr(namespace, self.dest, value)


def _to_pairwise(tag: str, n_modes: int, *arrays: np.ndarray | None) -> list:
    """Brings vectors and matrices read from a file tagged ``tag`` into
    pairwise order.  A ``"qqpp"`` array of shape (2n,) or (2n, 2n) is
    permuted: pairwise entry 2k is blockwise entry k (q_k) and 2k + 1 is
    n + k (p_k).  None and an array of any other shape pass unchanged, and
    the value's constructor refuses such an array as it does a pairwise one.

    Raises:
        ParameterError: for a tag other than ``"qpqp"`` and ``"qqpp"``.
    """
    if tag not in ("qpqp", "qqpp"):  # a tuple: an unhashable tag is unknown too
        raise ParameterError(f'unknown ordering {tag!r} (expected "qpqp" or "qqpp")')
    dim, pairwise = 2 * n_modes, list(arrays)
    for k, a in enumerate(arrays):  # dim sizes the index only once it is an array's size
        if tag == "qqpp" and a is not None and a.shape in ((dim,), (dim, dim)):
            idx = np.arange(dim).reshape(2, -1).T.ravel()
            pairwise[k] = a[idx] if a.ndim == 1 else a[np.ix_(idx, idx)]
    return pairwise


def _mode_count(value) -> int:
    """The mode count ``n_modes`` read from a file: an integer, or a float
    or string that int() reads exactly; ParameterError for a bool or a fraction."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ParameterError(f"n_modes must be an integer, got {value!r}")
    return int(value)


def state_to_dict(state: states.GaussianState, metadata: dict | None = None) -> dict:
    return {
        "n_modes": state.n_modes,
        "ordering": "qpqp",
        "mean": (state.mean + 0.0).tolist(),
        "cov": (state.cov + 0.0).tolist(),
        "metadata": metadata or {},
    }


def state_from_dict(data: dict) -> states.GaussianState:
    """The state a state file's JSON document describes (see :func:`_read`)."""
    from . import states

    n_modes = _mode_count(data["n_modes"])
    mean, cov = (np.asarray(data[key], dtype=float) for key in ("mean", "cov"))
    mean, cov = _to_pairwise(data.get("ordering", "qpqp"), n_modes, mean, cov)
    return states.GaussianState(n_modes=n_modes, mean=mean, cov=cov)


def _hamiltonian_from_dict(data: dict) -> dynamics.QuadraticHamiltonian:
    from . import dynamics

    f_bar = np.asarray(data["f_bar"], dtype=float)
    alpha = np.asarray(data["alpha"], dtype=float) if "alpha" in data else None
    if f_bar.ndim == 0:  # before its size gives the default n_modes
        raise DimensionError(f"f_bar must be a matrix, got the scalar {f_bar}")
    n_modes = _mode_count(data.get("n_modes", f_bar.shape[0] // 2))
    f_bar, alpha = _to_pairwise(data.get("ordering", "qpqp"), n_modes, f_bar, alpha)
    return dynamics.QuadraticHamiltonian(n_modes=n_modes, f_bar=f_bar, alpha=alpha)


def _read(path: str, what: str, build):
    """``build`` of the JSON document in the ``what`` file ``path``, refused as
    ``cannot read <what> file <path>: ...`` or ``invalid <what> file <path>: ...``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8, not JSON, or too many digits
        raise FileFormatError(f"cannot read {what} file {path}: {exc}") from exc
    try:
        return build(data)
    except GaussPhaseError as exc:  # keeps its class, so its exit code
        exc.args = (f"invalid {what} file {path}: {exc}",)
        raise
    except (KeyError, TypeError, ValueError) as exc:  # a document of another structure
        raise FileFormatError(f"invalid {what} file {path}: {exc}") from exc


def load_state(path: str) -> states.GaussianState:
    """The state in the state file ``path``; see :func:`_read`."""
    return _read(path, "state", state_from_dict)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def cmd_state_make(args) -> dict:
    from . import states

    kind = args.kind
    metadata: dict = {"kind": kind}
    if kind == "vacuum":
        state = states.vacuum(args.modes)
        metadata["modes"] = args.modes
    elif kind == "thermal":
        if args.nu is None:
            raise FileFormatError("thermal requires --nu")
        state = states.thermal(args.nu)
        metadata["nu"] = args.nu
    elif kind == "coherent":
        if args.alpha is None:
            raise FileFormatError("coherent requires --alpha")
        alphas = [_parse_complex(tok, "--alpha") for tok in args.alpha.split(",")]
        state = states.coherent(alphas)
        metadata["alpha"] = [str(a) for a in alphas]
    elif kind == "squeezed":
        if args.r is None:
            raise FileFormatError("squeezed requires --r")
        state = states.squeezed_vacuum(args.r, args.theta)
        metadata.update(r=args.r, theta=args.theta)
    elif kind == "tmsv":
        if args.r is None:
            raise FileFormatError("tmsv requires --r")
        state = states.two_mode_squeezed_vacuum(args.r, args.theta)
        metadata.update(r=args.r, theta=args.theta)
    else:  # pragma: no cover - argparse restricts choices
        raise FileFormatError(f"unknown state kind {kind!r}")
    return state_to_dict(state, metadata)


def cmd_evolve(args) -> dict:
    from . import dynamics

    state = load_state(args.state)
    if (args.hamiltonian is None) == (args.builtin is None):
        raise FileFormatError("provide exactly one of --hamiltonian or --builtin")
    if args.hamiltonian is not None:
        ham = _read(args.hamiltonian, "hamiltonian", _hamiltonian_from_dict)
    elif args.builtin == "squeeze":
        ham = dynamics.squeeze_hamiltonian(args.r, args.theta)
    elif args.builtin == "tms":
        ham = dynamics.two_mode_squeeze_hamiltonian(args.r, args.theta)
    else:  # rotate
        ham = dynamics.rotation_hamiltonian(state.n_modes)
    if ham.n_modes != state.n_modes:  # before exponentiating, which may overflow first
        raise DimensionError(f"channel acts on {ham.n_modes} modes, state has {state.n_modes}")
    channel = dynamics.generate_channel(ham, args.time)
    if args.verbose:
        print(f"symplectic residual: {channel.residual:.3e}", file=sys.stderr)
    evolved = dynamics.apply_channel(channel, state)
    metadata = {"evolved_by": args.builtin or args.hamiltonian, "time": args.time}
    return state_to_dict(evolved, metadata)


def cmd_williamson(args) -> dict:
    from . import williamson

    state = load_state(args.state)
    omega = make_symplectic_form(state.n_modes)
    dec = williamson._decomposition(state.cov, omega, "covariance matrix")  # admitted by load_state
    return {
        "nu": dec.nu.tolist(),
        "sigma": dec.sigma.tolist(),
        "residuals": {
            "diagonalization": dec.residual_diag,
            "symplectic": dec.residual_symplectic,
        },
    }


def cmd_entropy(args) -> dict:
    from . import entropy

    state = load_state(args.state)
    if args.subsystem is not None:
        try:
            modes = [int(tok) for tok in args.subsystem.split(",")]
        except ValueError as exc:
            raise FileFormatError(f"cannot parse mode indices {args.subsystem!r}") from exc
        result = entropy.entanglement_entropy(state, modes, args.base)
        kind = "entanglement"
    else:
        result = entropy.von_neumann_entropy(state, args.base)
        kind = "von_neumann"
    return {
        "kind": kind,
        "log_base": result.log_base,
        "total": result.total,
        "per_mode": result.per_mode.tolist(),
    }


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    """The finite bounds MIN:MAX given to the option ``flag``."""
    seps = [c for c in (":", ",") if c in text]
    if not seps:
        raise FileFormatError(f"range {text!r} must look like MIN:MAX")
    lo, hi = text.split(seps[0], 1)
    try:
        bounds = float(lo), float(hi)
    except ValueError as exc:
        raise FileFormatError(f"cannot parse range {text!r}") from exc
    if not all(map(cmath.isfinite, bounds)):
        raise FileFormatError(f"{flag} must be finite, got {text!r}")
    return bounds


def grid_to_csv(w: wigner.WignerGrid, descriptor: str) -> bytes:
    """The grid as UTF-8 CSV bytes: ``# key=value`` preamble lines,
    ``q,p,w``, then one ``q,p,w`` line per grid point, q in the outer loop.

    Every number is exactly Python's ``"%.17g"`` of the stored double.
    The grid's lines are formatted by :mod:`gaussphase._gridcsv`, a few
    grid rows at a time: the 17 digits come from a double-double product
    with an exactly built power-of-ten scale, and only a value whose
    rounding that product cannot settle (an exact decimal tie, or one
    within 2**-40 of a tie) or a non-finite value goes through ``%`` on its
    own.  Each block is appended to one buffer as it is formatted, so the
    CSV (15 MB at 501 x 501) is held once.  Every character at which
    ``str.splitlines`` breaks a line is written escaped in ``descriptor``
    (``\\n``, ``\\r``, ``\\x0b``, ..., ``\\u2029``), so that it stays on
    its preamble line, and so is a lone surrogate (``\\udce9``, a file name
    byte that is not UTF-8), so that the bytes are UTF-8.
    """
    from . import _gridcsv

    g = w.grid
    breaks = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # every one str.splitlines splits at
    descriptor = descriptor.translate({ord(c): c.encode("unicode_escape").decode() for c in breaks})
    preamble = [
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
    csv = io.BytesIO()
    csv.write("\n".join(preamble).encode("utf-8", "backslashreplace"))
    for block in _gridcsv.csv_lines(g.q, g.p, w.values):
        csv.write(block)
    return csv.getvalue()


def cmd_wigner(args) -> tuple[bytes, dict | None]:
    from . import states, wigner

    sources = [args.state is not None, args.fock is not None, args.coherent is not None]
    if sum(sources) != 1:
        raise FileFormatError("provide exactly one of STATE, --fock or --coherent")
    q_min, q_max = _parse_range(args.qrange, "--qrange")
    p_min, p_max = _parse_range(args.prange, "--prange")
    grid = wigner.PhaseSpaceGrid(
        q_min=q_min,
        q_max=q_max,
        p_min=p_min,
        p_max=p_max,
        n_q=args.nq,
        n_p=args.np,
        hbar=args.hbar,
    )
    if args.fock is not None:
        w = wigner.eval_fock(args.fock, grid)
        descriptor = f"fock:{args.fock}"
    elif args.coherent is not None:
        alpha = _parse_complex(args.coherent, "--coherent")
        w = wigner.eval_gaussian(states.coherent(alpha), grid)
        descriptor = f"coherent:{args.coherent}"
    else:
        state = load_state(args.state)
        w = wigner.eval_gaussian(state, grid)
        descriptor = f"state:{args.state}"
    summary = None
    if args.summary:
        bounds = wigner.purity_and_bounds(w)
        summary = {
            "normalization": wigner.normalization(w),
            "purity_integral": bounds.purity_integral,
            "max_abs": bounds.max_abs,
            "min_value": bounds.min_value,
            "negativity_volume": bounds.negativity_volume,
        }
    return grid_to_csv(w, descriptor), summary


def cmd_coupled_example(args) -> dict:
    from . import dynamics, entropy, states, williamson

    m, omega, lam = args.m, args.omega, args.lam  # finite: see _Finite
    if not (m > 0 and omega > 0):
        raise FileFormatError("m and omega must be positive")
    kappa = lam / m / omega / omega  # lambda / (m omega^2), which never forms m omega^2
    stiffness = 1.0 + 4.0 * kappa
    if stiffness <= 0:
        raise NoGroundStateError(
            f"coupling lambda={lam} destabilizes the system (1 + 4 lambda/(m omega^2) <= 0)"
        )
    if not cmath.isfinite(stiffness):  # a float division overflows to inf without raising
        raise DomainError("the coupling lambda / (m omega^2) gives non-finite values (float overflow)")
    alpha = float(np.sqrt(stiffness))
    # F / omega, pairwise, in the units x = q sqrt(m omega), y = p / sqrt(m omega).
    # That scaling D is symplectic and local: F's spectrum is omega times this one's,
    # the entropies are the scaled ground state's, and its q, p covariance is D^-1 sigma' D^-1.
    f = np.array(
        [
            [1.0 + 2 * kappa, 0.0, -2 * kappa, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [-2 * kappa, 0.0, 1.0 + 2 * kappa, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    ham = dynamics.QuadraticHamiltonian(n_modes=2, f_bar=f)
    spectrum = williamson._spectrum(ham.f_bar, make_symplectic_form(2), "f_bar")
    with warnings.catch_warnings():  # the spectrum has judged this f_bar and warned once
        warnings.simplefilter("ignore", ConditioningWarning)
        ground = dynamics.normal_mode_ground_state(ham)
    reduced = states.partial_trace(ground, [0])
    nu_reduced = float(reduced.symplectic_spectrum()[0])
    s_e = entropy.entanglement_entropy(ground, [0], args.base)
    with _refusing_overflow("the spectrum or ground state in units of m and omega"):
        spectrum = omega * spectrum
        root = np.sqrt(m) * np.sqrt(omega)
        d_inv = np.array([1.0 / root, root, 1.0 / root, root])
        cov = ground.cov * d_inv[:, None] * d_inv
    return {
        "m": m,
        "omega": omega,
        "lambda": lam,
        "alpha": alpha,
        "normal_frequencies": [omega, omega * alpha],
        "symplectic_spectrum_of_hamiltonian": spectrum.tolist(),
        "ground_state_cov": cov.tolist(),
        "nu_reduced": nu_reduced,
        "nu_reduced_formula": float((1.0 + alpha) / (2.0 * np.sqrt(alpha))),
        "entanglement_entropy": s_e.total,
        "log_base": s_e.log_base,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussphase",
        description="Gaussian quantum mechanics in phase space.",
        epilog=(
            "Covariance convention: dimensionless quadratures, vacuum covariance = "
            "identity. Squeezing conventions follow the generator normalization in "
            "which the two-mode squeeze channel at unit time produces the r-parameter "
            "two-mode squeezed vacuum covariance; see README for the factor-of-two "
            "relation to the Fock-ladder convention."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="create and serialize Gaussian states")
    state_sub = p_state.add_subparsers(dest="state_command", required=True)
    p_make = state_sub.add_parser("make", help="construct a canonical state")
    p_make.add_argument("kind", choices=["vacuum", "thermal", "coherent", "squeezed", "tmsv"])
    p_make.add_argument("--modes", type=int, default=1, help="mode count (vacuum)")
    p_make.add_argument("--nu", type=float, action=_Finite, help="thermal symplectic eigenvalue (>= 1)")
    p_make.add_argument("--alpha", help="complex amplitude(s), e.g. '1+0.5i' or '1,2i'")
    p_make.add_argument("--r", type=float, action=_Finite, help="squeezing magnitude")
    p_make.add_argument("--theta", type=float, action=_Finite, default=0.0, help="squeezing phase")
    p_make.add_argument("--out", help="output path (default: stdout)")
    p_make.set_defaults(func=cmd_state_make)

    p_evolve = sub.add_parser("evolve", help="apply a quadratic-Hamiltonian channel")
    p_evolve.add_argument("state", help="input StateFile (JSON)")
    p_evolve.add_argument("--hamiltonian", help="JSON file with f_bar (and optional alpha)")
    p_evolve.add_argument("--builtin", choices=["squeeze", "tms", "rotate"])
    p_evolve.add_argument("--r", type=float, action=_Finite, default=1.0)
    p_evolve.add_argument("--theta", type=float, action=_Finite, default=0.0)
    p_evolve.add_argument("--time", type=float, action=_Finite, required=True)
    p_evolve.add_argument("--verbose", action="store_true")
    p_evolve.add_argument("--out")
    p_evolve.set_defaults(func=cmd_evolve)

    p_will = sub.add_parser("williamson", help="symplectic diagonalization of a state")
    p_will.add_argument("state")
    p_will.add_argument("--out")
    p_will.set_defaults(func=cmd_williamson)

    p_ent = sub.add_parser("entropy", help="von Neumann / entanglement entropy")
    p_ent.add_argument("state")
    p_ent.add_argument("--subsystem", help="comma-separated mode indices of the partition")
    p_ent.add_argument("--base", choices=["e", "2"], default="e")
    p_ent.add_argument("--out")
    p_ent.set_defaults(func=cmd_entropy)

    p_wig = sub.add_parser("wigner", help="sample a Wigner function to CSV")
    p_wig.add_argument("state", nargs="?", help="StateFile (single mode)")
    p_wig.add_argument("--fock", type=int, help="Fock level n")
    p_wig.add_argument("--coherent", help="complex amplitude, e.g. '1+0i'")
    p_wig.add_argument("--qrange", default="-6:6")
    p_wig.add_argument("--prange", default="-6:6")
    p_wig.add_argument("--nq", type=int, default=201)
    p_wig.add_argument("--np", type=int, default=201)
    p_wig.add_argument("--hbar", type=float, action=_Finite, default=1.0)
    p_wig.add_argument("--summary", action="store_true")
    p_wig.add_argument("--out")
    p_wig.set_defaults(func=cmd_wigner)

    p_cpl = sub.add_parser(
        "coupled-example", help="two coupled oscillators: spectrum, ground state, entropy"
    )
    p_cpl.add_argument("--m", type=float, action=_Finite, default=1.0)
    p_cpl.add_argument("--omega", type=float, action=_Finite, default=1.0)
    p_cpl.add_argument("--lambda", dest="lam", type=float, action=_Finite, required=True)
    p_cpl.add_argument("--base", choices=["e", "2"], default="e")
    p_cpl.add_argument("--out")
    p_cpl.set_defaults(func=cmd_coupled_example)

    return parser


def _write(data: bytes, path: str | None) -> None:
    """Writes the UTF-8 bytes ``data`` and a newline to the file ``path``,
    or to stdout when it is None.

    Stdout gets the bytes on its binary buffer, once the text written to it
    before is flushed, so that the output is UTF-8 whatever the locale; a
    stream with no buffer (an ``io.StringIO`` under ``redirect_stdout``)
    gets them decoded.  A file or a buffer gets ``data`` itself, never a
    copy: it is a whole grid's CSV, 15 MB at 501 x 501."""
    if path is not None:
        with open(path, "wb") as fh:
            fh.write(data)
            fh.write(b"\n")
        return
    stdout = sys.stdout
    if hasattr(stdout, "buffer"):
        stdout.flush()
        stdout.buffer.write(data)
        stdout.buffer.write(b"\n")
    else:
        stdout.write(data.decode("utf-8"))
        stdout.write("\n")


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = args.func(args)
            finally:
                for item in caught:
                    print(f"warning: {item.message}", file=sys.stderr)
        data, summary = result if isinstance(result, tuple) else (_json_dump(result).encode(), None)
        _write(data, args.out)
        if summary is not None:
            _write(_json_dump(summary).encode(), None)
    except NotPureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # an environment limit, like an unwritable --out
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except (GaussPhaseError, np.linalg.LinAlgError) as exc:  # LinAlgError: a refused factorization
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
