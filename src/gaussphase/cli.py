"""Batch command-line front end.

Subcommands: ``state make``, ``evolve``, ``williamson``, ``entropy``,
``wigner``, ``coupled-example``.  Structured results are JSON; Wigner
grids are CSV with ``# key=value`` preamble lines.  All numeric output is
locale independent and reproducible byte for byte.

Each ``cmd_*`` returns a JSON document, or for ``wigner`` the CSV text and
optional summary.  Only :func:`main` writes output, prints warnings as
``warning: <message>`` and maps errors to exit codes: 0 success, 2 usage,
parse or output-file errors, 3 unphysical states or numeric-domain
failures, 4 violated semantic preconditions (e.g. entanglement entropy of
a mixed state).

Conventions: dimensionless quadratures with vacuum covariance = identity
(hbar = kB = 1); ``coupled-example`` additionally accepts explicit m and
omega for its dimensionful Hamiltonian.  State and Hamiltonian files are
read with either ordering tag, ``"qpqp"`` (the default) or ``"qqpp"``, and
converted to the pairwise order used in memory; states are written as
``"qpqp"``.

Each subcommand imports the modules it runs, so a command loads only its
own part of the package; ``fock``, the test oracle, never loads.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DimensionError, NoGroundStateError, NotPureError, UnphysicalStateError
from .symplectic import _refusing_overflow

if TYPE_CHECKING:
    from . import dynamics, states, wigner

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_PRECONDITION = 4

_BLOCKWISE_TAGS = {"qpqp": False, "qqpp": True}


class FileFormatError(Exception):
    """Input file could not be parsed into the expected structure."""


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError as exc:
        raise FileFormatError(f"cannot parse complex number from {text!r}") from exc


def _to_pairwise(tag: str, n_modes: int, *arrays: np.ndarray | None) -> list:
    """Brings vectors and matrices read from a file tagged ``tag`` into
    pairwise order (None passes through).

    A ``"qqpp"`` array must have shape (2n,) or (2n, 2n); pairwise entry
    2k is blockwise entry k (q_k) and 2k + 1 is n + k (p_k).

    Raises:
        KeyError: for an unknown tag.
        DimensionError: for a blockwise array of any other shape.
    """
    if not _BLOCKWISE_TAGS[tag]:
        return list(arrays)
    dim = 2 * n_modes
    idx = np.arange(dim).reshape(2, -1).T.ravel()
    out = []
    for a in arrays:
        if a is not None:
            if a.shape not in ((dim,), (dim, dim)):
                raise DimensionError(f"shape {a.shape} does not match {n_modes} modes")
            a = a[idx] if a.ndim == 1 else a[np.ix_(idx, idx)]
        out.append(a)
    return out


def state_to_dict(state: states.GaussianState, metadata: dict | None = None) -> dict:
    return {
        "n_modes": state.n_modes,
        "ordering": "qpqp",
        "mean": (state.mean + 0.0).tolist(),
        "cov": (state.cov + 0.0).tolist(),
        "metadata": metadata or {},
    }


def state_from_dict(data: dict) -> states.GaussianState:
    from . import states

    try:
        n_modes = int(data["n_modes"])
        mean = np.asarray(data["mean"], dtype=float)
        cov = np.asarray(data["cov"], dtype=float)
        mean, cov = _to_pairwise(data.get("ordering", "qpqp"), n_modes, mean, cov)
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"invalid state file: {exc}") from exc
    return states.GaussianState(n_modes=n_modes, mean=mean, cov=cov)


def load_state(path: str) -> states.GaussianState:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot read state file {path}: {exc}") from exc
    return state_from_dict(data)


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
        alphas = [_parse_complex(tok) for tok in args.alpha.split(",")]
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


def _load_hamiltonian(path: str) -> dynamics.QuadraticHamiltonian:
    from . import dynamics

    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        f_bar = np.asarray(data["f_bar"], dtype=float)
        alpha = np.asarray(data["alpha"], dtype=float) if "alpha" in data else None
        n_modes = int(data.get("n_modes", f_bar.shape[0] // 2))
        f_bar, alpha = _to_pairwise(data.get("ordering", "qpqp"), n_modes, f_bar, alpha)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"cannot read hamiltonian file {path}: {exc}") from exc
    return dynamics.QuadraticHamiltonian(n_modes=n_modes, f_bar=f_bar, alpha=alpha)


def cmd_evolve(args) -> dict:
    from . import dynamics

    state = load_state(args.state)
    if (args.hamiltonian is None) == (args.builtin is None):
        raise FileFormatError("provide exactly one of --hamiltonian or --builtin")
    if args.hamiltonian is not None:
        ham = _load_hamiltonian(args.hamiltonian)
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
    dec = williamson.williamson_decompose(state.cov)
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


def _parse_range(text: str) -> tuple[float, float]:
    seps = [c for c in (":", ",") if c in text]
    if not seps:
        raise FileFormatError(f"range {text!r} must look like MIN:MAX")
    lo, hi = text.split(seps[0], 1)
    try:
        return float(lo), float(hi)
    except ValueError as exc:
        raise FileFormatError(f"cannot parse range {text!r}") from exc


def grid_to_csv(w: wigner.WignerGrid, descriptor: str) -> str:
    """The grid as CSV text: ``# key=value`` preamble lines, ``q,p,w``,
    then one ``q,p,w`` line per grid point, q in the outer loop.

    Every number is exactly Python's ``"%.17g"`` of the stored double.
    The grid's lines are formatted by :mod:`gaussphase._gridcsv`, a few
    grid rows at a time: the 17 digits come from a double-double product
    with an exactly built power-of-ten scale, and only a value whose
    rounding that product cannot settle (an exact decimal tie, or one
    within 2**-40 of a tie) or a non-finite value goes through ``%`` on its
    own.  Line breaks in ``descriptor`` are written as ``\\n`` and
    ``\\r``, so that it stays on its preamble line.
    """
    from . import _gridcsv

    g = w.grid
    descriptor = descriptor.replace("\n", "\\n").replace("\r", "\\r")
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
    return "".join(["\n".join(preamble), *_gridcsv.csv_lines(g.q, g.p, w.values)])


def cmd_wigner(args) -> tuple[str, dict | None]:
    from . import states, wigner

    sources = [args.state is not None, args.fock is not None, args.coherent is not None]
    if sum(sources) != 1:
        raise FileFormatError("provide exactly one of STATE, --fock or --coherent")
    q_min, q_max = _parse_range(args.qrange)
    p_min, p_max = _parse_range(args.prange)
    try:
        grid = wigner.PhaseSpaceGrid(
            q_min=q_min,
            q_max=q_max,
            p_min=p_min,
            p_max=p_max,
            n_q=args.nq,
            n_p=args.np,
            hbar=args.hbar,
        )
    except ValueError as exc:  # the grid comes from command-line arguments alone
        raise FileFormatError(str(exc)) from exc
    if args.fock is not None:
        w = wigner.eval_fock(args.fock, grid)
        descriptor = f"fock:{args.fock}"
    elif args.coherent is not None:
        alpha = _parse_complex(args.coherent)
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

    m, omega, lam = args.m, args.omega, args.lam
    # a NaN fails every comparison, so it is refused here too
    if not (0 < m < np.inf and 0 < omega < np.inf):
        raise FileFormatError("m and omega must be positive and finite")
    if not np.isfinite(lam):
        raise FileFormatError("lambda must be finite")
    kappa = lam / m / omega / omega  # lambda / (m omega^2), which never forms m omega^2
    stiffness = 1.0 + 4.0 * kappa
    if stiffness <= 0:
        raise NoGroundStateError(
            f"coupling lambda={lam} destabilizes the system (1 + 4 lambda/(m omega^2) <= 0)"
        )
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
    spectrum = williamson.symplectic_spectrum(f)
    ham = dynamics.QuadraticHamiltonian(n_modes=2, f_bar=f)
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
    p_make.add_argument("--nu", type=float, help="thermal symplectic eigenvalue (>= 1)")
    p_make.add_argument("--alpha", help="complex amplitude(s), e.g. '1+0.5i' or '1,2i'")
    p_make.add_argument("--r", type=float, help="squeezing magnitude")
    p_make.add_argument("--theta", type=float, default=0.0, help="squeezing phase")
    p_make.add_argument("--out", help="output path (default: stdout)")
    p_make.set_defaults(func=cmd_state_make)

    p_evolve = sub.add_parser("evolve", help="apply a quadratic-Hamiltonian channel")
    p_evolve.add_argument("state", help="input StateFile (JSON)")
    p_evolve.add_argument("--hamiltonian", help="JSON file with f_bar (and optional alpha)")
    p_evolve.add_argument("--builtin", choices=["squeeze", "tms", "rotate"])
    p_evolve.add_argument("--r", type=float, default=1.0)
    p_evolve.add_argument("--theta", type=float, default=0.0)
    p_evolve.add_argument("--time", type=float, required=True)
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
    p_wig.add_argument("--hbar", type=float, default=1.0)
    p_wig.add_argument("--summary", action="store_true")
    p_wig.add_argument("--out")
    p_wig.set_defaults(func=cmd_wigner)

    p_cpl = sub.add_parser(
        "coupled-example", help="two coupled oscillators: spectrum, ground state, entropy"
    )
    p_cpl.add_argument("--m", type=float, default=1.0)
    p_cpl.add_argument("--omega", type=float, default=1.0)
    p_cpl.add_argument("--lambda", dest="lam", type=float, required=True)
    p_cpl.add_argument("--base", choices=["e", "2"], default="e")
    p_cpl.add_argument("--out")
    p_cpl.set_defaults(func=cmd_coupled_example)

    return parser


_WRITE_CHUNK = 1 << 20  # characters


def _write_line(fh, text: str) -> None:
    """Writes text and a newline, text in slices of _WRITE_CHUNK characters.

    A 501 x 501 grid's CSV is about 15 MB; text + "\n", or encoding it in one
    write, would hold two more full-size copies beside it.  Where those land
    (heap or their own mapping) depends on the sizes of earlier calls in the
    process, so the peak memory of a process that exports several grids
    would vary by a whole copy with the order of those sizes."""
    for start in range(0, len(text), _WRITE_CHUNK):
        fh.write(text[start : start + _WRITE_CHUNK])
    fh.write("\n")


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = args.func(args)
            finally:
                for item in caught:
                    print(f"warning: {item.message}", file=sys.stderr)
        text, summary = result if isinstance(result, tuple) else (_json_dump(result), None)
        if args.out is None:
            _write_line(sys.stdout, text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                _write_line(fh, text)
        if summary is not None:
            sys.stdout.write(_json_dump(summary) + "\n")
    except NotPureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (FileFormatError, DimensionError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (UnphysicalStateError, NoGroundStateError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
