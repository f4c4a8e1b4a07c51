"""The three benchmark workloads: seeded inputs, one operation each, and
the output digest that every operation is checked against.

Each workload is closed-loop: one caller, one operation at a time, in
this process, through the public entry points ``matrel.cli.main`` (and,
behind ``matrel reproduce``, ``matrel.verify.run_reproduction``).  The
program receives only the files written here.

* ``check-torus``: ``matrel check`` on the clock-shift pair plus a
  positive ``p`` at d = 256.  The large-matrix path: file parsing,
  polynomial evaluation and d x d spectral calls.
* ``approx-torus``: ``matrel approx`` on the clock-shift pair at d = 256
  along eight ranks, once sharp (loewner) and once with a ramp cutoff
  (quasicentral).  Residuals run on zero-padded d x d matrices, which
  is what corner restriction would cut.
* ``reproduce-suite``: the ``matrel reproduce`` suite at a reduced
  commutator budget.  Thousands of spectral calls on matrices of size 6
  or smaller, so per-call overhead dominates, not flops.

Seeds: an input set is picked by ``seed % SEED_SLOTS`` so that every seed
has stored reference digests.  Slot 0, the default seed, runs the
reproduction suite with exactly ``matrel.verify.REPRODUCTION_SEEDS``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from matrel import cli, verify

SEED_SLOTS = 64


@dataclass(frozen=True)
class Size:
    """Problem sizes; ``FULL`` is measured, ``TINY`` is the smoke test."""

    dim: int
    ranks: tuple[int, ...]
    budget: int


FULL = Size(dim=256, ranks=tuple(range(32, 257, 32)), budget=2000)
TINY = Size(dim=8, ranks=tuple(range(1, 9)), budget=50)
SIZES = {"full": FULL, "tiny": TINY}


@dataclass
class Outcome:
    """What one operation produced: a digest of its output, the units of
    work it did, the seconds spent inside ``matrel.cli.main``, any problem
    found while checking it, and the accepted steps of the hill climbs."""

    digest: str
    work: int
    seconds: float
    problem: str | None = None
    climb_accepted: int = 0


# ---------------------------------------------------------------------------
# Inputs

def _rng(slot: int, role: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=slot,
                                                        spawn_key=(role,)))


def clock_shift(dim: int, slot: int) -> tuple[np.ndarray, np.ndarray]:
    """The clock u and the cyclic shift v, with v conjugated by a seeded
    diagonal unitary.  Since u is diagonal, v u = w u v still holds with
    w = exp(2 pi i / dim), and every norm of the pair is unchanged."""
    omega = np.exp(2j * np.pi / dim)
    u = np.diag(omega ** np.arange(dim))
    shift = np.eye(dim, k=1, dtype=complex)
    shift[dim - 1, 0] = 1.0
    phases = np.exp(2j * np.pi * _rng(slot, 0).random(dim))
    v = (phases[:, None] * shift) * np.conj(phases)[None, :]
    return u, v


def torus_positive(u: np.ndarray, slot: int) -> np.ndarray:
    """p = 1.5 + re(u) + 0.1 h / |h|_F with h a seeded Hermitian matrix,
    so the spectrum of p lies in [0.4, 2.6]."""
    dim = u.shape[0]
    rng = _rng(slot, 1)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2
    h *= 0.1 / math.sqrt(math.fsum((np.abs(h) ** 2).ravel()))
    return 1.5 * np.eye(dim) + (u + u.conj().T) / 2 + h


def assignment_text(mats: dict[str, np.ndarray]) -> str:
    """The plain-text assignment format, written here so the input bytes
    do not depend on the program's own formatter."""
    dim = next(iter(mats.values())).shape[0]
    lines = [f"dim {dim} vars {len(mats)}"]
    for name, m in mats.items():
        lines.append(name)
        for row in m:
            lines.append(" ".join(
                f"{z.real!r}{'-' if z.imag < 0 else '+'}{abs(z.imag)!r}i"
                for z in row.tolist()))
    return "\n".join(lines) + "\n"


def _gap(dim: int, k: int = 1) -> float:
    """||u^k v - v u^k|| for the clock-shift pair: |1 - w^k|."""
    return 2.0 * math.sin(math.pi * k / dim)


def _literal(z: complex) -> str:
    return f"({z.real!r}{'-' if z.imag < 0 else '+'}{abs(z.imag)!r}i)"


# Every relation kind the file syntax reaches, each expected to hold
# (True) or to fail (False) by a wide margin; the side conditions of the
# three declarations come first in the verdict table.
def check_relations(dim: int, slot: int) -> tuple[str, tuple[bool, ...]]:
    r = _rng(slot, 2).random(2).tolist()
    omega = complex(math.cos(2 * math.pi / dim), math.sin(2 * math.pi / dim))
    rels = [
        (f"norm(u v - v u) <= {_gap(dim) * (1.5 + r[0])!r}", True),
        (f"norm(u v - v u) <= {_gap(dim) * (0.5 - 0.2 * r[1])!r}", False),
        ("norm(p) < 3.0", True),
        ("norm(p^(1/2) u p^(1/2)) <= 3.0", True),
        (f"v u - {_literal(omega)} u v = 0", True),
        ("u v - v u = 0", False),
        ("p^(1/2) u - u p^(1/2) = 0", False),
        ("u* p u >= 0", True),
        ("p^(1/2) u* p u p^(1/2) >= 0", True),
        ("v + v* >= 0", False),
        ("u* u <= 3.0 p", True),
        ("p <= u* u", False),
        ("blockpos(p^(1/2), p, 2.0 u* u)", True),
        ("blockpos(u, 0.5 u* u, 0.5 v* v)", False),
        ("re(u) <= 1.5", True),
        ("re(v) <= 0.5", False),
        ("normexp_re(u) <= 3.0", True),
        ("normexp_re(p) <= 2.0", False),
    ]
    text = ("var u unitary;\nvar v unitary;\nvar p positive;\n"
            + "".join(f"rel {rel};\n" for rel, _ in rels))
    return text, (True, True, True) + tuple(ok for _, ok in rels)


def approx_relations(dim: int, slot: int) -> str:
    """Unitary side conditions and two homogeneous norm bounds, of degree
    two and three, that the clock-shift pair satisfies."""
    r = _rng(slot, 2).random(2).tolist()
    return ("var u unitary;\nvar v unitary;\n"
            f"rel norm(u v - v u) <= {_gap(dim) * (1.5 + r[0])!r};\n"
            f"rel norm(u^2 v - v u^2) <= {_gap(dim, 2) * (1.5 + r[1])!r};\n")


def reproduction_seeds(slot: int) -> dict[str, int]:
    """Slot 0 is exactly the shipped table; slot k shifts every seed."""
    return {name: seed + 1000 * slot
            for name, seed in verify.REPRODUCTION_SEEDS.items()}


# ---------------------------------------------------------------------------
# Workloads

def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()


def _call_cli(argv: list[str]) -> tuple[int, str, str, float]:
    """Exit code, stdout, stderr and wall seconds of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


class Workload:
    """One workload: writes its inputs into ``workdir`` on construction,
    then ``op()`` runs one operation and returns its :class:`Outcome`."""

    name = ""
    work_unit = ""

    def __init__(self, size: Size, slot: int, workdir: Path):
        self.size = size
        self.slot = slot
        self.workdir = workdir
        self.inputs: dict[str, str] = {}

    def write_inputs(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for fname, text in self.inputs.items():
            (self.workdir / fname).write_text(text)

    def input_digest(self) -> str:
        return _digest(*(f"{k}\n{v}" for k, v in sorted(self.inputs.items())))

    def path(self, fname: str) -> str:
        return str(self.workdir / fname)


class CheckTorus(Workload):
    name = "check-torus"
    work_unit = "relations"

    def __init__(self, size: Size, slot: int, workdir: Path):
        super().__init__(size, slot, workdir)
        u, v = clock_shift(size.dim, slot)
        p = torus_positive(u, slot)
        rel_text, self.expected = check_relations(size.dim, slot)
        self.inputs = {"torus.rel": rel_text,
                       "torus.mat": assignment_text({"u": u, "v": v, "p": p})}
        self.write_inputs()

    def op(self) -> Outcome:
        code, out, err, seconds = _call_cli(
            ["check", self.path("torus.rel"), self.path("torus.mat")])
        # A header, one row per relation ending in "ok margin residual",
        # and a summary line.
        rows = out.splitlines()[1:-1]
        got = tuple(row.split()[-3] == "yes" for row in rows)
        problem = None
        if code != 1 or err:
            problem = f"exit code {code} (expected 1), stderr {err!r}"
        elif got != self.expected:
            problem = f"verdicts {got} differ from expected {self.expected}"
        return Outcome(_digest(str(code), out, err), len(rows), seconds,
                       problem)


class ApproxTorus(Workload):
    name = "approx-torus"
    work_unit = "ranks"
    procedures = (("loewner", "sharp"), ("quasicentral", "ramp:8"))

    def __init__(self, size: Size, slot: int, workdir: Path):
        super().__init__(size, slot, workdir)
        u, v = clock_shift(size.dim, slot)
        self.inputs = {"torus.rel": approx_relations(size.dim, slot),
                       "torus.mat": assignment_text({"u": u, "v": v})}
        self.write_inputs()

    def op(self) -> Outcome:
        schedule = ",".join(str(r) for r in self.size.ranks)
        parts = []
        problem = None
        seconds = 0.0
        for procedure, cutoff in self.procedures:
            out_path = self.path(f"{procedure}.csv")
            Path(out_path).unlink(missing_ok=True)
            code, out, err, took = _call_cli(
                ["approx", self.path("torus.rel"), self.path("torus.mat"),
                 "--procedure", procedure, "--schedule", schedule,
                 "--cutoff", cutoff, "--out", out_path])
            seconds += took
            rows = Path(out_path).read_text()
            parts += [procedure, str(code), out.replace(out_path, "<out>"),
                      err, rows]
            count = len(list(csv.DictReader(io.StringIO(rows))))
            # Two unitary side conditions and two norm bounds per rank.
            if code != 0 or err or count != 4 * len(self.size.ranks):
                problem = (f"{procedure}: exit code {code}, {count} rows, "
                           f"stderr {err!r}")
        work = len(self.procedures) * len(self.size.ranks)
        return Outcome(_digest(*parts), work, seconds, problem)


class ReproduceSuite(Workload):
    name = "reproduce-suite"
    work_unit = "ratio_evals"
    report_count = 13

    def __init__(self, size: Size, slot: int, workdir: Path):
        super().__init__(size, slot, workdir)
        self.seeds = reproduction_seeds(slot)
        self.inputs = {"seeds.json": json.dumps(self.seeds, sort_keys=True)}
        self.write_inputs()

    def op(self) -> Outcome:
        out_path = self.path("reports.jsonl")
        Path(out_path).unlink(missing_ok=True)
        shipped = verify.REPRODUCTION_SEEDS
        verify.REPRODUCTION_SEEDS = self.seeds
        try:
            code, _, err, seconds = _call_cli(
                ["reproduce", "--budget", str(self.size.budget),
                 "--out", out_path])
        finally:
            verify.REPRODUCTION_SEEDS = shipped
        reports = [json.loads(line)
                   for line in Path(out_path).read_text().splitlines()]
        for rep in reports:
            del rep["runtime_ms"]
        lines = [json.dumps(rep, sort_keys=True) for rep in reports]
        climbs = [rep for rep in reports if rep["id"].startswith("commutator")]
        evals = sum(rep["samples"] for rep in climbs)
        accepted = sum(len(rep["stats"]["trace"]) for rep in climbs)
        problem = None
        if code != 0 or err or len(reports) != self.report_count:
            problem = (f"exit code {code}, {len(reports)} reports, "
                       f"stderr {err!r}")
        elif not all(rep["passed"] for rep in reports):
            problem = "a report with a threshold failed"
        return Outcome(_digest(str(code), *lines), evals, seconds, problem,
                       accepted)


WORKLOADS = {w.name: w for w in (CheckTorus, ApproxTorus, ReproduceSuite)}
