"""Layer-by-layer tracing from outside the program.

The traced run replaces public functions of each matrel module, and the
numpy and scipy kernels beneath them, with wrappers that record a span
per call: name, start, end, parent span and the operation it belongs to.
Nothing under ``src/`` changes.  A function imported by name into
another module (``relations.evaluate``, ``approx.residual``,
``cli.check_all``...) is replaced there too, so every call site is seen.

Spans stay in memory until the run ends.  A layer's self time is its
span's duration minus the durations of its direct child spans; calls
never overlap, because the benchmark runs one operation at a time in one
thread.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import math
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np
import scipy.linalg

from matrel import approx, cli, matcalc, ncpoly, relations, verify

# Relation kinds the workloads check; each gets its own residual layer.
RESIDUAL_KINDS = ("Unitary", "Positive", "NormBound", "PolyZero",
                  "PolyPositive", "OperatorOrder", "BlockPositive",
                  "RealPartBound", "ExpRealNormBound")

# Span names reported as per-layer metrics, bottom layer last.
LAYERS = (
    "cli.main",
    "relations.parse_relations",
    "relations.parse_assignment",
    "relations.check_all",
    *(f"relations.residual.{kind}" for kind in RESIDUAL_KINDS),
    "approx.residual_curves",
    "approx.loewner_step",
    "approx.quasicentral_approximation",
    "verify.run_reproduction",
    "verify.exp_norm_experiment",
    "verify.heinz_experiment",
    "verify.monotone_experiment",
    "verify.commutator_sqrt_search",
    "verify.commutator_ratio",
    "verify.positivity_transfer_check",
    "ncpoly.evaluate",
    "numpy.matrix_power",
    "matcalc.op_norm",
    "matcalc.fractional_power",
    "matcalc.hermitian_calculus",
    "matcalc.matrix_exp",
    "lapack.norm2",
    "lapack.svd",
    "lapack.eigh",
    "lapack.eigvalsh",
    "lapack.expm",
)

# Counts kept beside the spans, with their units.  ``lapack.n3_sum`` is
# computed, not measured: the sum of n^3 over every kernel call on n x n
# matrices.
N3_SUM = "lapack.n3_sum"
DEGENERATE = "verify.commutator_ratio.degenerate"
COUNTS = {N3_SUM: "n3_computed", DEGENERATE: "count"}


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("q")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.ops = array("q")
        self.counts: dict[int, dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str) -> int:
        idx = len(self.starts)
        self.name_ids.append(self._id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, amount: int) -> None:
        self.counts[self.op][key] += amount

    def wrap(self, fn, name, after=None):
        """A wrapper recording one span per call of ``fn``.

        ``name`` is a span name, or a function of the call's arguments
        giving one (None to pass the call through unrecorded).
        ``after(args, result)`` may add counts once the call returns.
        """
        name_of = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name_of(args, kwargs)
            if label is None:
                return fn(*args, **kwargs)
            idx = self._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def patch(self, owner, attr: str, name, after=None) -> None:
        """Replace ``owner.attr`` and every matrel module attribute bound to
        the same function object."""
        original = getattr(owner, attr)
        wrapper = self.wrap(original, name, after)
        sites = [owner] + [mod for key, mod in sys.modules.items()
                           if key == "matrel" or key.startswith("matrel.")]
        for site in sites:
            for key, value in list(vars(site).items()):
                if value is original:
                    self._patches.append((site, key, original))
                    setattr(site, key, wrapper)

    def install(self) -> None:
        def n3(args, result):
            self.count(N3_SUM, _n3(args[0]))

        def norm2(args, kwargs):
            ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
            return "lapack.norm2" if ord_ == 2 and np.ndim(args[0]) == 2 else None

        def degenerate(args, result):
            if result is None:
                self.count(DEGENERATE, 1)

        self.patch(cli, "main", "cli.main")
        for fn in ("parse_relations", "parse_assignment", "check_all"):
            self.patch(relations, fn, f"relations.{fn}")
        self.patch(relations, "residual",
                   lambda args, kwargs: f"relations.residual.{type(args[0]).__name__}")
        for fn in ("residual_curves", "loewner_step",
                   "quasicentral_approximation"):
            self.patch(approx, fn, f"approx.{fn}")
        for fn in ("run_reproduction", "exp_norm_experiment", "heinz_experiment",
                   "monotone_experiment", "commutator_sqrt_search",
                   "positivity_transfer_check"):
            self.patch(verify, fn, f"verify.{fn}")
        self.patch(verify, "commutator_ratio", "verify.commutator_ratio",
                   degenerate)
        self.patch(ncpoly, "evaluate", "ncpoly.evaluate")
        self.patch(np.linalg, "matrix_power", "numpy.matrix_power")
        for fn in ("op_norm", "fractional_power", "hermitian_calculus",
                   "matrix_exp"):
            self.patch(matcalc, fn, f"matcalc.{fn}")
        # np.linalg.norm's own svd call stays inside numpy, out of reach
        # of the svd wrapper, so the two kernel layers never overlap.
        self.patch(np.linalg, "norm", norm2, n3)
        for fn in ("svd", "eigh", "eigvalsh"):
            self.patch(np.linalg, fn, f"lapack.{fn}", n3)
        self.patch(scipy.linalg, "expm", "lapack.expm", n3)

    def uninstall(self) -> None:
        for site, key, original in reversed(self._patches):
            setattr(site, key, original)
        self._patches.clear()

    def layer_table(self) -> dict[int, dict[str, list[int]]]:
        """Per operation, per span name: [calls, self time in ns]."""
        child = [0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        table: dict[int, dict[str, list[int]]] = defaultdict(
            lambda: defaultdict(lambda: [0, 0]))
        for i, nid in enumerate(self.name_ids):
            entry = table[self.ops[i]][self.names[nid]]
            entry[0] += 1
            entry[1] += self.ends[i] - self.starts[i] - child[i]
        return table

    def write(self, path: Path) -> None:
        """Gzipped JSON lines: a header, then one line per span,
        [op, name index, parent span index or -1, start ns, end ns]."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["op", "name", "parent",
                                            "start_ns", "end_ns"]}) + "\n")
            for row in zip(self.ops, self.name_ids, self.parents,
                           self.starts, self.ends):
                fh.write(json.dumps(row) + "\n")


def _n3(a) -> int:
    """n^3 for an n x n matrix, summed over a stacked batch."""
    shape = np.shape(a)
    return math.prod(shape[:-2]) * shape[-1] ** 3

