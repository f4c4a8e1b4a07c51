"""Randomized experiments probing operator-norm inequalities.

Every experiment draws from a seeded :class:`Ensemble` and produces an
:class:`ExperimentReport` with the worst observed violation and enough
seed bookkeeping to regenerate the worst sample directly.  Sample i of
an ensemble with master seed s uses the numpy stream derived from
``SeedSequence(entropy=s, spawn_key=(i, role))``, so any single sample
can be replayed from (s, i) without rerunning the loop.  Reports
serialize to JSON lines; reruns are byte-identical except for the
honest wall-clock ``runtime_ms`` field.  The ensemble experiments
evaluate consecutive samples in stacked chunks, one LAPACK call per
step per chunk; each sample still comes from its own stream, and the
reports equal those of evaluating one sample at a time.

The experiments:

* ``exp_norm_experiment``: ||exp(a)|| against ||exp(re a)|| on general
  matrices; the first never exceeds the second.
* ``heinz_experiment``: the two-sided interpolation bound
  ||a^nu x b^(1-nu) + a^(1-nu) x b^nu|| <= ||a x + x b|| for positive
  a, b, over a grid of nu, with equality at the endpoints.
* ``monotone_experiment``: whether t -> t^power preserves the
  semidefinite order on order pairs; true for powers in (0, 1], and
  refuted by explicit 2x2 pairs for the square.
* ``commutator_sqrt_search``: hill-climbing search for the largest
  ratio ||a b^(1/2) - b^(1/2) a|| / ||ab - ba||^(1/2) over contraction
  pairs; the interesting question is whether it can pass 1.
* ``positivity_transfer_check``: random kind-respecting assignments
  against a relation file whose relations should hold identically.

Exploratory experiments (the search, the square) carry no threshold and
always count as passed; the others fail when the worst violation
exceeds their threshold.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import matcalc
from .matcalc import DEFAULT_POLICY, TolerancePolicy
from .relations import (
    Assignment,
    check_all,
    parse_relations,
    side_relations,
)
from .approx import _index, model


def stream(seed: int, index: int, role: int = 0) -> np.random.Generator:
    """The generator for one (sample, role) slot of a master seed."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index, role)))


def ginibre(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g / math.sqrt(2.0)


def hermitian_sample(rng: np.random.Generator, dim: int) -> np.ndarray:
    return matcalc.real_part(ginibre(rng, dim))


def positive_sample(rng: np.random.Generator, dim: int) -> np.ndarray:
    c = ginibre(rng, dim)
    return matcalc.adjoint(c) @ c


def contraction_sample(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = ginibre(rng, dim)
    norm = matcalc.op_norm(g)
    return g / norm if norm > 0 else g


def unitary_sample(rng: np.random.Generator, dim: int) -> np.ndarray:
    # QR with the phase fix that makes the distribution Haar.
    q, r = np.linalg.qr(ginibre(rng, dim))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def order_pair_sample(rng: np.random.Generator, dim: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """A pair x <= y of positive matrices with y - x positive."""
    x = positive_sample(rng, dim)
    c = ginibre(rng, dim)
    return x, x + matcalc.adjoint(c) @ c


_SAMPLERS = {
    "general": ginibre,
    "hermitian": hermitian_sample,
    "positive": positive_sample,
    "contraction": contraction_sample,
    "unitary": unitary_sample,
    "order-pair": order_pair_sample,
}


@dataclass(frozen=True)
class Ensemble:
    """A seeded family of ``count`` random samples of size ``dim``; each
    experiment names the kind it draws."""

    dim: int
    seed: int
    count: int

    def __post_init__(self) -> None:
        for name, what, low in (("dim", "ensemble dimension", 1),
                                ("seed", "ensemble seed", 0),
                                ("count", "ensemble count", 1)):
            object.__setattr__(self, name,
                               _index(getattr(self, name), what, low))

    def draw(self, index: int, role: int = 0, *, kind: str):
        """Sample ``index`` in stream ``role``; ``kind`` names a sampler."""
        if kind not in _SAMPLERS:
            raise ValueError(f"unknown ensemble kind {kind!r}")
        return _SAMPLERS[kind](stream(self.seed, index, role), self.dim)


@dataclass
class ExperimentReport:
    """Result of one experiment run.

    ``max_violation`` is the worst signed violation seen (negative means
    the inequality held with room); ``worst_seed`` identifies the sample
    achieving it, replayable via :func:`stream`.  ``threshold`` is None
    for exploratory experiments; otherwise the run passes when the worst
    violation stays at or under it.
    """

    id: str
    params: dict
    samples: int
    max_violation: float
    worst_seed: dict
    runtime_ms: float
    threshold: float | None = None
    stats: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.threshold is None or self.max_violation <= self.threshold

    def to_json(self) -> str:
        return json.dumps({**asdict(self), "passed": self.passed},
                          sort_keys=True)


def write_reports(path, reports: Iterable[ExperimentReport]) -> None:
    """Write reports as JSON lines."""
    from pathlib import Path
    with Path(path).open("w") as fh:
        for rep in reports:
            fh.write(rep.to_json() + "\n")


def _worst(violations: Iterable[float]) -> tuple[float, int]:
    """The largest violation and the first index reaching it (-inf and 0
    when there is none); NaN never wins."""
    worst, worst_index = -math.inf, 0
    for i, violation in enumerate(violations):
        if violation > worst:
            worst, worst_index = violation, i
    return worst, worst_index


def _ensemble_report(id: str, e: Ensemble, start: float,
                     worst: tuple[float, int], threshold: float | None,
                     stats: dict | None = None, **params) -> ExperimentReport:
    """The report of a run over ``e`` whose worst sample is ``worst``."""
    violation, index = worst
    return ExperimentReport(
        id=id,
        params={"dim": e.dim, "seed": e.seed, "count": e.count, **params},
        samples=e.count,
        max_violation=violation,
        worst_seed={"seed": e.seed, "index": index},
        runtime_ms=(time.perf_counter() - start) * 1e3,
        threshold=threshold,
        stats=stats or {},
    )


# Samples per stacked kernel call in expnorm, heinz and monotone.  At
# the reproduction suite's sizes (d <= 6) per-call overhead dominates, so
# one call per chunk replaces one per sample; above d = 32 a chunk holds
# fewer samples, so that no stacked matrix has more entries than 64 of
# size 32 (1 MB).
_SAMPLE_BATCH = 64
_SAMPLE_ENTRIES = _SAMPLE_BATCH * 32 * 32


def _chunks(e: Ensemble) -> Iterator[range]:
    """The sample indices of ``e`` in order, in consecutive chunks."""
    size = max(1, min(_SAMPLE_BATCH, _SAMPLE_ENTRIES // e.dim ** 2))
    for lo in range(0, e.count, size):
        yield range(lo, min(lo + size, e.count))


def _stack(e: Ensemble, chunk: range, role: int, kind: str) -> np.ndarray:
    """The samples of ``chunk`` in stream ``role``, stacked (K, n, n)."""
    return np.stack([e.draw(i, role, kind=kind) for i in chunk])


# ---------------------------------------------------------------------------
# Exponential norm

EXP_NORM_THRESHOLD = 1e-9


def exp_norm_experiment(e: Ensemble) -> ExperimentReport:
    """Test ||exp(a)|| <= ||exp(re a)|| on general samples.

    The violation of sample a is (||exp(a)|| - ||exp(re a)||) / scale
    with scale = max(1, both exponential norms), so the threshold is
    relative.
    """
    start = time.perf_counter()
    violations: list[float] = []
    for chunk in _chunks(e):
        a = _stack(e, chunk, 0, "general")
        na = matcalc.op_norms(matcalc.matrix_exp(a)).tolist()
        w, v = matcalc.spectrum(a)
        nh = matcalc.op_norms(matcalc.from_spectrum(v, np.exp(w))).tolist()
        violations += [(p - q) / max(1.0, p, q) for p, q in zip(na, nh)]
    return _ensemble_report(f"expnorm-d{e.dim}", e, start, _worst(violations),
                            EXP_NORM_THRESHOLD)


# ---------------------------------------------------------------------------
# Heinz interpolation

HEINZ_THRESHOLD = 1e-8
HEINZ_DEFAULT_GRID = tuple(round(0.1 * k, 1) for k in range(11))


def heinz_experiment(e: Ensemble, nus: Sequence[float] = HEINZ_DEFAULT_GRID,
                     ) -> ExperimentReport:
    """Test the interpolation bound over a grid of exponents.

    Each sample draws positive a (role 0), positive b (role 1) and
    general x (role 2).  Violations are relative to
    scale = max(1, ||a x + x b||).  Endpoint exponents reproduce the
    bound itself up to rounding; the per-sample endpoint gap is recorded
    in the stats.
    """
    if not nus:
        raise ValueError("the heinz experiment needs at least one exponent")
    for nu in nus:
        if not 0 <= nu <= 1:
            raise ValueError(f"a heinz exponent must lie in [0, 1], got {nu!r}")
    start = time.perf_counter()
    flat: list[float] = []
    for chunk in _chunks(e):
        a = _stack(e, chunk, 0, "positive")
        b = _stack(e, chunk, 1, "positive")
        x = _stack(e, chunk, 2, "general")
        wa, va = matcalc.spectrum(a)
        wb, vb = matcalc.spectrum(b)
        wa = np.clip(wa, 0.0, None)
        wb = np.clip(wb, 0.0, None)
        bounds = matcalc.op_norms(a @ x + x @ b).tolist()

        def mixed(nu: float) -> np.ndarray:
            return (matcalc.from_spectrum(va, wa ** nu) @ x
                    @ matcalc.from_spectrum(vb, wb ** (1.0 - nu))
                    + matcalc.from_spectrum(va, wa ** (1.0 - nu)) @ x
                    @ matcalc.from_spectrum(vb, wb ** nu))

        # One row per exponent; the report reads them sample by sample.
        norms = [matcalc.op_norms(mixed(nu)).tolist() for nu in nus]
        for k, bound in enumerate(bounds):
            scale = max(1.0, bound)
            flat += [(row[k] - bound) / scale for row in norms]

    cells = [(i, nu) for i in range(e.count) for nu in nus]
    worst, k = _worst(flat)
    index, worst_nu = cells[k]
    endpoint_gap = max([0.0] + [abs(v) for (_, nu), v in zip(cells, flat)
                                if nu in (0.0, 1.0)])
    return _ensemble_report(
        f"heinz-d{e.dim}", e, start, (worst, index), HEINZ_THRESHOLD,
        stats={"worst_nu": worst_nu, "endpoint_gap": endpoint_gap,
               "grid": [float(nu) for nu in nus]},
        nus=list(nus))


# ---------------------------------------------------------------------------
# Operator monotonicity

MONOTONE_THRESHOLD = 1e-8


def monotone_experiment(power: float, e: Ensemble) -> ExperimentReport:
    """Test whether t -> t^power preserves the order on order pairs.

    The violation of a pair (x, y) is -min_eig(y^power - x^power),
    relative to scale = max(1, ||y^power||).  Powers in (0, 1] should
    never violate; the square should, and its report carries no
    threshold.
    """
    if not 0 < power < math.inf:
        raise ValueError(f"the power must be positive and finite, got {power!r}")
    start = time.perf_counter()
    violations: list[float] = []
    for chunk in _chunks(e):
        pairs = [e.draw(i, kind="order-pair") for i in chunk]
        fx = _psd_power(np.stack([x for x, _ in pairs]), power)
        fy = _psd_power(np.stack([y for _, y in pairs]), power)
        lows = matcalc.spectrum_values(fy - fx)[:, 0].tolist()
        norms = matcalc.op_norms(fy).tolist()
        violations += [-low / max(1.0, norm)
                       for low, norm in zip(lows, norms)]
    return _ensemble_report(
        f"monotone-p{power:g}-d{e.dim}", e, start, _worst(violations),
        MONOTONE_THRESHOLD if 0 < power <= 1 else None, power=power)


def _psd_power(m: np.ndarray, t: float) -> np.ndarray:
    """m^t through the clipped spectrum, of each matrix in a stack; ``t``
    stays a scalar, so that ``** 0.5`` is numpy's exact square root."""
    w, v = matcalc.spectrum(m)
    return matcalc.from_spectrum(v, np.clip(w, 0.0, None) ** t)


# ---------------------------------------------------------------------------
# Commutator square-root ratio search

COMMUTATOR_DEGENERATE = 1e-12
_CLIMB_SCALES = (0.5, 0.2, 0.08, 0.03, 0.01)
_CLIMB_MIN_GAIN = 1e-13
# Ratio evaluations per stacked kernel call: the climb's speculative
# batch and the stream mode's chunk.  The five budget-2000 searches of
# the reproduction suite took a median 0.60, 0.52, 0.54, 0.54 and 0.90 s
# with 4, 8, 12, 16 and 32 (2-vCPU Xeon, one OpenBLAS thread); larger
# batches waste more work past each accepted step.
_CLIMB_BATCH = 8


def commutator_ratio(a: np.ndarray, b: np.ndarray) -> float | None:
    """||a b^(1/2) - b^(1/2) a|| / ||ab - ba||^(1/2), or None when the
    commutator is degenerate (norm below 1e-12)."""
    a = matcalc.as_matrix(a)
    b = matcalc.as_matrix(b)
    return _ratios(a[None], b[None])[0]


def _ratios(a: np.ndarray, b: np.ndarray) -> list[float | None]:
    """:func:`commutator_ratio` row by row over (K, n, n) stacks of a
    and b, with one LAPACK call per step for all rows."""
    den = matcalc.op_norms(a @ b - b @ a)
    s = _psd_power(b, 0.5)
    num = matcalc.op_norms(a @ s - s @ a)
    return [x / math.sqrt(d) if d >= COMMUTATOR_DEGENERATE else None
            for x, d in zip(num.tolist(), den.tolist())]


def _pair_ratios(g: np.ndarray, c: np.ndarray) -> list[float | None]:
    """Ratios of the normalized pairs a = g/||g||, b = c*c/||c*c|| over
    (K, n, n) stacks of (g, c); None where ||g|| or ||c*c|| is 0 (that
    matrix stays 0, so the pair commutes) or the commutator is
    degenerate."""
    ng = matcalc.op_norms(g)
    b = matcalc.adjoint(c) @ c
    nb = matcalc.op_norms(b)
    return _ratios(g / np.where(ng == 0, 1.0, ng)[:, None, None],
                   b / np.where(nb == 0, 1.0, nb)[:, None, None])


def commutator_sqrt_search(dim: int, seed: int, budget: int,
                           pair_stream: Iterable | None = None
                           ) -> ExperimentReport:
    """Search for the largest commutator square-root ratio.

    Pairs are parameterized by (g, c): a = g/||g|| is a contraction and
    b = c*c/||c*c|| a positive contraction.  The search restarts from
    seeded random parameter pairs and hill-climbs coordinate-wise with
    shrinking steps; every ratio evaluation, including degenerate skips,
    consumes budget.  The running maximum is recorded after each
    improvement, so the trace is monotone by construction, and the best
    parameters are stored in the stats for direct replay.

    A sweep tries each move (entry of g or c, step +-s or +-is) in a
    fixed order and keeps a move that gains.  The climb evaluates the
    next moves of a sweep in stacked batches, each candidate built as if
    every earlier one in the batch was rejected (added, then subtracted
    again, so rounding drift is replayed exactly).  The first gaining
    candidate is kept and the rest discarded, and the budget is charged
    only up to it, so the report equals that of trying one move at a
    time.

    ``pair_stream`` replaces the random search with externally supplied
    (g, c) pairs, evaluated in order until the budget runs out.
    """
    dim = _index(dim, "the search dimension", 1)
    seed = _index(seed, "the seed", 0)
    budget = _index(budget, "the budget", 1)
    start = time.perf_counter()
    evals = 0
    best = -math.inf
    best_restart = 0
    best_pair = None
    trace: list[tuple[int, float]] = []

    def consider(value, g, c, restart) -> None:
        nonlocal best, best_restart, best_pair
        if value is not None and value > best:
            best = value
            best_restart = restart
            best_pair = (g.copy(), c.copy())
            trace.append((evals, best))

    restarts = 0
    if pair_stream is not None:
        pairs = ((np.asarray(g, dtype=complex), np.asarray(c, dtype=complex))
                 for g, c in itertools.islice(pair_stream, budget))
        # Chunks of consecutive pairs with equal shapes, no speculation.
        for _, run in itertools.groupby(
                pairs, key=lambda pair: (pair[0].shape, pair[1].shape)):
            while chunk := list(itertools.islice(run, _CLIMB_BATCH)):
                values = _pair_ratios(np.stack([g for g, _ in chunk]),
                                      np.stack([c for _, c in chunk]))
                for (g, c), value in zip(chunk, values):
                    evals += 1
                    consider(value, g, c, evals - 1)  # the pair's stream index
    else:
        while evals < budget:
            rng = stream(seed, restarts, 0)
            pair = np.stack([ginibre(rng, dim), ginibre(rng, dim)])
            evals += 1
            current = _pair_ratios(pair[:1], pair[1:])[0]
            consider(current, pair[0], pair[1], restarts)
            if current is None:
                current = -math.inf
            for scale in _CLIMB_SCALES:
                moves = [(t, i, j, delta)
                         for t in (0, 1) for i in range(dim) for j in range(dim)
                         for delta in (scale, -scale, 1j * scale, -1j * scale)]
                improved = True
                while improved and evals < budget:
                    improved = False
                    done = 0
                    while done < len(moves) and evals < budget:
                        batch = moves[done:done + min(_CLIMB_BATCH,
                                                      budget - evals)]
                        work = pair.copy()
                        cands = np.empty((len(batch),) + pair.shape, complex)
                        for k, (t, i, j, delta) in enumerate(batch):
                            work[t, i, j] += delta
                            cands[k] = work
                            work[t, i, j] -= delta
                        values = _pair_ratios(cands[:, 0], cands[:, 1])
                        hit = next((k for k, value in enumerate(values)
                                    if value is not None
                                    and value > current + _CLIMB_MIN_GAIN),
                                   None)
                        taken = len(batch) if hit is None else hit + 1
                        evals += taken
                        done += taken
                        if hit is None:
                            pair = work
                        else:
                            pair, current = cands[hit], values[hit]
                            consider(current, pair[0], pair[1], restarts)
                            improved = True
            restarts += 1

    stats: dict = {
        "mode": "climb" if pair_stream is None else "stream",
        "restarts": restarts,
        "trace": [[int(k), float(v)] for k, v in trace],
    }
    if best_pair is not None:
        for name, m in zip("gc", best_pair):
            stats[f"best_{name}"] = m.real.tolist()
            stats[f"best_{name}_imag"] = m.imag.tolist()
    return ExperimentReport(
        id=f"commutator-d{dim}",
        params={"dim": dim, "seed": seed, "budget": budget},
        samples=evals,
        max_violation=best,
        worst_seed={"seed": seed, "index": best_restart},
        runtime_ms=(time.perf_counter() - start) * 1e3,
        threshold=None,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# Positivity transfer

POSITIVITY_THRESHOLD = 1e-8

DEFAULT_POSITIVITY_RELATIONS = """\
var x positive;
var y positive;
var z general;
rel x^(1/2) y x^(1/2) >= 0;
rel z* x z >= 0;
rel x^(1/2) (x + y) x^(1/2) >= 0;
"""


def positivity_transfer_check(relations_text: str, dims: Sequence[int],
                              seed: int, count: int,
                              policy: TolerancePolicy = DEFAULT_POLICY
                              ) -> ExperimentReport:
    """Check a relation file against random kind-respecting assignments.

    Each sample draws every declared variable according to its kind
    (general variables get general samples) and records the aggregate
    residual of the explicit relations.  For relations that hold
    identically, the worst residual stays at rounding level; a
    polynomial that can evaluate non-Hermitian or indefinite shows up as
    a genuine violation.  A file without explicit relations is a
    ValueError, since only they can fail.
    """
    count = _index(count, "the count", 1)
    seed = _index(seed, "the seed", 0)
    if not dims:
        raise ValueError("the positivity check needs at least one dimension")
    dims = [_index(dim, "every dimension", 1) for dim in dims]
    start = time.perf_counter()
    variables, rels = parse_relations(relations_text)
    # The side relations of the kinds hold for every sample by construction.
    if len(rels) == len(side_relations(variables.values())):
        raise ValueError("the positivity check needs at least one explicit "
                         "relation")

    def violation(dim: int, i: int) -> float:
        a = Assignment({name: _SAMPLERS[var.kind](stream(seed, i, role), dim)
                        for role, (name, var) in enumerate(variables.items())})
        return check_all(rels, a, policy).residual / max(1.0, a.max_norm())

    cells = [(dim, i) for dim in dims for i in range(count)]
    worst, k = _worst(violation(dim, i) for dim, i in cells)
    worst_dim, worst_index = cells[k]
    return ExperimentReport(
        id="positivity",
        params={"dims": list(dims), "seed": seed, "count": count},
        samples=len(cells),
        max_violation=worst,
        worst_seed={"seed": seed, "index": worst_index, "dim": worst_dim},
        runtime_ms=(time.perf_counter() - start) * 1e3,
        threshold=POSITIVITY_THRESHOLD,
    )


# ---------------------------------------------------------------------------
# Clock and shift

def clock_shift_pair(dim: int) -> Assignment:
    """The clock and modular shift unitaries as an assignment (u, v)."""
    return Assignment({"u": model("clock", dim),
                       "v": model("shiftmod", dim)})


def soft_torus_relations(epsilon: float) -> str:
    """Relation-file text for two unitaries with a small commutator."""
    from .ncpoly import format_number
    return (
        "var u unitary;\n"
        "var v unitary;\n"
        f"rel norm(u v - v u) <= {format_number(epsilon)};\n")


# ---------------------------------------------------------------------------
# Reproduction suite

REPRODUCTION_SEEDS = {
    "expnorm": 101,
    "heinz": 202,
    "monotone_sqrt": 303,
    "monotone_square": 404,
    "commutator": 505,
    "positivity": 606,
}


# The names ``matrel experiment`` takes, in the order it lists them.
EXPERIMENT_NAMES = ("expnorm", "heinz", "monotone-sqrt", "monotone-square",
                    "commutator", "positivity")
COMMUTATOR_BUDGET = 20000
POSITIVITY_DIMS = (2, 3, 4, 5, 6)


def run_experiment(name: str, seed: int, dim: int | None = None,
                   count: int | None = None, budget: int | None = None,
                   relations_text: str | None = None,
                   policy: TolerancePolicy = DEFAULT_POLICY
                   ) -> ExperimentReport:
    """Run the experiment ``name`` (one of :data:`EXPERIMENT_NAMES`).

    An unset ``dim``, ``count`` or ``budget`` takes the experiment's
    default.  Only the commutator search reads ``budget``, and it has no
    ``count``; positivity alone reads ``relations_text`` (default
    :data:`DEFAULT_POSITIVITY_RELATIONS`) and ``policy``, and runs every
    dimension of :data:`POSITIVITY_DIMS` unless given one.
    """
    def given(value, default):
        return default if value is None else value

    if name == "expnorm":
        return exp_norm_experiment(
            Ensemble(given(dim, 6), seed, given(count, 1000)))
    if name == "heinz":
        return heinz_experiment(Ensemble(given(dim, 4), seed, given(count, 125)))
    if name == "monotone-sqrt":
        return monotone_experiment(
            0.5, Ensemble(given(dim, 4), seed, given(count, 1000)))
    if name == "monotone-square":
        return monotone_experiment(
            2.0, Ensemble(given(dim, 2), seed, given(count, 200)))
    if name == "commutator":
        return commutator_sqrt_search(given(dim, 4), seed,
                                      given(budget, COMMUTATOR_BUDGET))
    if name == "positivity":
        return positivity_transfer_check(
            given(relations_text, DEFAULT_POSITIVITY_RELATIONS),
            dims=list(POSITIVITY_DIMS) if dim is None else [dim],
            seed=seed, count=given(count, 40), policy=policy)
    raise ValueError(f"unknown experiment {name!r}")


def run_reproduction(commutator_budget: int = COMMUTATOR_BUDGET
                     ) -> list[ExperimentReport]:
    """Run the whole inequality suite with fixed default seeds."""
    plan = [("expnorm", None), *(("heinz", dim) for dim in (3, 4, 5, 6)),
            ("monotone-sqrt", None), ("monotone-square", None),
            *(("commutator", dim) for dim in (2, 3, 4, 5, 6)),
            ("positivity", None)]
    return [run_experiment(name, REPRODUCTION_SEEDS[name.replace("-", "_")],
                           dim, budget=commutator_budget)
            for name, dim in plan]
