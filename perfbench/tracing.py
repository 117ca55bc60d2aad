"""Span recording around the public functions of the gaussphase modules.

Tracing wraps module attributes from outside the program: a call made
through ``module.function`` (or a call inside the module to one of its own
functions) is recorded, while a name bound elsewhere with
``from .x import y`` keeps pointing at the unwrapped function and is not.
``GaussianState`` is a class, so its span wraps the class's ``__init__``
(which runs the validating ``__post_init__``); that records every
construction, wherever the class was imported.

Spans are kept in memory as ``[name, start, end, parent, op]`` lists and
written out by the caller when the run ends.  This module imports only
standard-library modules that ``gaussphase.cli`` already imports, so
loading it in a traced CLI child adds nothing to the import profile.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import re
import time

# span name -> (module, attribute path) pairs wrapped under that name
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.main": (("gaussphase.cli", "main"),),
    "cli.load_state": (("gaussphase.cli", "load_state"),),
    "cli.grid_to_csv": (("gaussphase.cli", "grid_to_csv"),),
    "states.GaussianState": (("gaussphase.states", "GaussianState.__init__"),),
    "states.partial_trace": (("gaussphase.states", "partial_trace"),),
    "states.purity": (("gaussphase.states", "purity"),),
    "symplectic.make_symplectic_form": (("gaussphase.symplectic", "make_symplectic_form"),),
    "symplectic.check_symplectic": (("gaussphase.symplectic", "check_symplectic"),),
    "dynamics.generate_channel": (("gaussphase.dynamics", "generate_channel"),),
    "dynamics.apply_channel": (("gaussphase.dynamics", "apply_channel"),),
    "williamson.symplectic_spectrum": (("gaussphase.williamson", "symplectic_spectrum"),),
    "williamson.williamson_decompose": (("gaussphase.williamson", "williamson_decompose"),),
    "entropy.entanglement_entropy": (("gaussphase.entropy", "entanglement_entropy"),),
    "wigner.eval_fock": (("gaussphase.wigner", "eval_fock"),),
    "wigner.eval_gaussian": (("gaussphase.wigner", "eval_gaussian"),),
    "wigner.wigner_from_wavefunction": (("gaussphase.wigner", "wigner_from_wavefunction"),),
    "wigner.purity_and_bounds": (("gaussphase.wigner", "purity_and_bounds"),),
    "fock.displacement_matrix": (("gaussphase.fock", "displacement_matrix"),),
    "fock.covariance_from_fock": (("gaussphase.fock", "covariance_from_fock"),),
    "fock.vector_builders": (
        ("gaussphase.fock", "coherent_vector"),
        ("gaussphase.fock", "squeezed_vacuum_vector"),
        ("gaussphase.fock", "tmsv_vector"),
    ),
    "fock.fock_entropy": (("gaussphase.fock", "fock_entropy"),),
}

# root span the benchmark opens around each operation; its self time is the
# part of an operation that no listed layer covers
OP_SPAN = "op"

# spans whose string result length is also summed, as "<name>.bytes"
SIZED_SPANS = ("cli.grid_to_csv",)


class Tracer:
    """Records nested spans of wrapped calls for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.sizes: dict[str, int] = {}
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark operation."""
        self.op_id = op_id
        index = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        sized = name in SIZED_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if sized:
                self.sizes[name] = self.sizes.get(name, 0) + len(result)
            return result

        return traced

    def install(self) -> None:
        """Replaces every attribute named in SPANS by a recording wrapper."""
        for name, targets in SPANS.items():
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def aggregate(spans: list[list]) -> dict[str, dict[str, float]]:
    """Call count and total self time (seconds) per span name.

    A span's self time is its duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
    return totals


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(stderr: str, skip: tuple[str, ...] = ()) -> dict[str, float]:
    """Import costs in ms from ``python -X importtime`` output.

    ``total`` sums the cumulative time of every top-level import, which
    covers all module loading from interpreter start on.  The per-package
    figures sum self times, so they do not depend on which module happened
    to import a package first.  Top-level entries named in ``skip`` (the
    tracer itself) are left out.
    """
    total = numpy = scipy = gaussphase = 0
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match is None:
            continue
        self_us, cumulative_us, indent, module = match.groups()
        root = module.split(".")[0]
        if len(indent) == 1:
            if module in skip:
                continue
            total += int(cumulative_us)
        if root == "numpy":
            numpy += int(self_us)
        elif root == "scipy":
            scipy += int(self_us)
        elif root == "gaussphase":
            gaussphase += int(self_us)
    return {
        "total_ms": total / 1e3,
        "numpy_ms": numpy / 1e3,
        "scipy_ms": scipy / 1e3,
        "gaussphase_self_ms": gaussphase / 1e3,
    }
