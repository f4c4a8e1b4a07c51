"""Finite-rank approximation procedures for matrix assignments.

Two procedures, both driven by a schedule of increasing ranks:

* the compression step replaces every matrix by p a p, with p the sharp
  projection onto the first ``rank`` coordinates;
* the quasi-central step conjugates by a smoothed diagonal cutoff u and
  then rescales the whole assignment by one scalar alpha chosen so that
  the norms of a family of homogeneous polynomials do not grow.

Sharp compression preserves semidefinite order constraints exactly but
can inflate polynomial norms (a truncated product is not the product of
truncations); the smoothed cutoff commutes well with banded operators,
and the homogeneous rescaling turns its small commutation defect into a
guarantee: for every tracked polynomial, the rescaled step's norm never
exceeds the original's.

Convergence to the original is measured in the *-strong sense: a probe
is a finite family of unit vectors, and the residual is the worst
difference on the probe, applied to the operators and their adjoints.

Model operators (shifts, diagonal and multiplication operators, clock
and modular shift matrices) provide the structured assignments these
procedures are interesting on.  Truncation-convergent kinds (everything
except ``shiftmod``, whose cyclic corner escapes every proper
truncation) have probe residuals that vanish once the rank clears the
probe's support bandwidth.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import matcalc
from .matcalc import DEFAULT_POLICY, TolerancePolicy
from .ncpoly import evaluate, homogeneity
from .relations import Assignment, NormBound, Relation, describe, residual


@dataclass(frozen=True)
class Cutoff:
    """Diagonal cutoff profile: sharp or a linear ramp of a given width.

    The weight of coordinate i at rank r is clip((r - i) / (width + 1),
    0, 1); sharp means width 0, an exact coordinate projection.
    """

    shape: str = "sharp"
    width: int = 0

    def __post_init__(self) -> None:
        if self.shape not in ("sharp", "ramp"):
            raise ValueError(f"unknown cutoff shape {self.shape!r}")
        if self.shape == "sharp" and self.width != 0:
            raise ValueError("a sharp cutoff has width 0")
        if self.shape == "ramp" and self.width < 1:
            raise ValueError("a ramp cutoff needs width >= 1")

    @classmethod
    def parse(cls, text: str) -> "Cutoff":
        """Parse "sharp" or "ramp:WIDTH"."""
        if text == "sharp":
            return cls()
        if text.startswith("ramp:"):
            try:
                return cls("ramp", int(text[5:]))
            except ValueError:
                pass
        raise ValueError(f"bad cutoff {text!r}; use sharp or ramp:WIDTH")

    def weights(self, dim: int, rank: int) -> np.ndarray:
        i = np.arange(dim, dtype=float)
        return np.clip((rank - i) / (self.width + 1), 0.0, 1.0)

    def __str__(self) -> str:
        return "sharp" if self.shape == "sharp" else f"ramp:{self.width}"


SHARP = Cutoff()


@dataclass(frozen=True)
class CompressionSchedule:
    """Strictly increasing ranks plus the cutoff profile to use.

    Ranks may exceed the assignment dimension; weights saturate at 1, so
    a rank of dim + width makes the ramped cutoff exactly the identity.
    """

    ranks: tuple[int, ...]
    cutoff: Cutoff = SHARP

    def __post_init__(self) -> None:
        if not self.ranks:
            raise ValueError("a schedule needs at least one rank")
        if any(r < 1 for r in self.ranks):
            raise ValueError("ranks must be at least 1")
        if any(b <= a for a, b in zip(self.ranks, self.ranks[1:])):
            raise ValueError("ranks must be strictly increasing")
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))

    @classmethod
    def parse(cls, ranks_text: str, cutoff_text: str = "sharp"
              ) -> "CompressionSchedule":
        """Parse a comma-separated rank list and a cutoff description."""
        try:
            ranks = tuple(int(r) for r in ranks_text.split(","))
        except ValueError:
            raise ValueError(f"bad schedule {ranks_text!r}; use e.g. 8,16,32")
        return cls(ranks, Cutoff.parse(cutoff_text))


def cutoff_step(a: Assignment, cutoff: Cutoff, rank: int
                ) -> tuple[Assignment, dict[str, float]]:
    """The one cutoff step of both procedures: every m becomes u m u, u
    the cutoff diagonal at ``rank``, and each variable gets its
    quasi-centrality defect ||u m - m u||.  Sharp makes u the rank
    projection, so the cut is the zero-padded corner."""
    w = cutoff.weights(a.dim, rank)
    cut = Assignment({name: (w[:, None] * m) * w[None, :]
                      for name, m in a.items()})
    defects = {name: matcalc.op_norm(w[:, None] * m - m * w[None, :])
               for name, m in a.items()}
    return cut, defects


def loewner_step(a: Assignment, rank: int) -> Assignment:
    """Compress every matrix by the sharp rank projection.

    Ranks beyond the dimension act as the identity.  Order relations
    survive this step: p (y - x) p is positive whenever y - x is.
    """
    return cutoff_step(a, SHARP, rank)[0]


@dataclass(frozen=True)
class QuasicentralStep:
    """One rank of the quasi-central procedure.

    ``defects`` maps variable names to ||u m - m u||, the quasi-centrality
    defect of the cutoff at this rank; ``bound_norms`` maps tracked
    relation labels to the polynomial norm after rescaling.
    """

    rank: int
    assignment: Assignment
    alpha: float
    defects: dict[str, float]
    bound_norms: dict[str, float]


def _tracked_bounds(relations: Sequence[Relation]) -> list[NormBound]:
    bounds = [r for r in relations if isinstance(r, NormBound)]
    if not bounds:
        raise ValueError(
            "the quasi-central procedure tracks norm-bound relations, "
            "and none were given")
    for b in bounds:
        if homogeneity(b.poly) is None:
            raise ValueError(
                f"norm-bound polynomial {describe(b)!r} is not homogeneous")
    return bounds


def quasicentral_approximation(
        a: Assignment, relations: Sequence[Relation],
        schedule: CompressionSchedule,
        policy: TolerancePolicy = DEFAULT_POLICY) -> list[QuasicentralStep]:
    """Run the smoothed-cutoff procedure with homogeneous rescaling.

    Every relation must be a :class:`NormBound` with a homogeneous
    polynomial.  At each rank, with u the cutoff diagonal and
    x_u = u x u, the step is y = alpha x_u where

        alpha = min over bounds of min(1, (||p(x)|| / ||p(x_u)||)^(1/d)),

    d the homogeneity degree (and factor 1 where ||p(x_u)|| = 0).  Then
    ||p(y)|| = alpha^d ||p(x_u)|| never exceeds ||p(x)||, so a satisfied
    norm bound stays satisfied at every rank.
    """
    return _steps(a, _tracked_bounds(relations), schedule, policy)


def _steps(a: Assignment, bounds: Sequence[NormBound],
           schedule: CompressionSchedule,
           policy: TolerancePolicy) -> list[QuasicentralStep]:
    """One cutoff step per rank, rescaled so that no tracked bound's norm
    grows; with no bounds to track, alpha stays 1."""
    originals = [matcalc.op_norm(evaluate(b.poly, a, policy)) for b in bounds]
    steps = []
    for rank in schedule.ranks:
        cut_a, defects = cutoff_step(a, schedule.cutoff, rank)
        alpha = 1.0
        cut_norms = []
        for b, orig in zip(bounds, originals):
            norm_u = matcalc.op_norm(evaluate(b.poly, cut_a, policy))
            cut_norms.append(norm_u)
            if norm_u == 0.0:
                continue
            degree = float(homogeneity(b.poly))
            alpha = min(alpha, min(1.0, (orig / norm_u) ** (1.0 / degree)))
        scaled = Assignment({name: alpha * m for name, m in cut_a.items()})
        bound_norms = {
            describe(b): (alpha ** float(homogeneity(b.poly))) * n
            for b, n in zip(bounds, cut_norms)}
        steps.append(QuasicentralStep(rank, scaled, alpha, defects, bound_norms))
    return steps


class StarStrongProbe:
    """A finite family of unit vectors measuring *-strong closeness."""

    def __init__(self, vectors):
        vecs = []
        dim = None
        for v in vectors:
            arr = np.asarray(v, dtype=complex).reshape(-1)
            if dim is None:
                dim = arr.size
            elif arr.size != dim:
                raise ValueError("probe vectors must share one dimension")
            norm = float(np.linalg.norm(arr))
            if abs(norm - 1.0) > 1e-12:
                raise ValueError(f"probe vectors must be unit, got norm {norm}")
            arr = arr.copy()
            arr.setflags(write=False)
            vecs.append(arr)
        if not vecs:
            raise ValueError("a probe needs at least one vector")
        self.vectors = tuple(vecs)
        self.dim = dim

    @classmethod
    def coordinates(cls, dim: int, indices) -> "StarStrongProbe":
        vecs = []
        for i in indices:
            e = np.zeros(dim)
            e[i] = 1.0
            vecs.append(e)
        return cls(vecs)

    @classmethod
    def random(cls, dim: int, count: int, seed: int,
               support: int | None = None) -> "StarStrongProbe":
        """Random unit vectors, optionally supported on the first
        ``support`` coordinates."""
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        k = dim if support is None else support
        vecs = []
        for _ in range(count):
            v = np.zeros(dim, dtype=complex)
            raw = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            v[:k] = raw / np.linalg.norm(raw)
            vecs.append(v)
        return cls(vecs)


def star_strong_residual(approximant: Assignment, original: Assignment,
                         probe: StarStrongProbe) -> float:
    """Worst probe-vector defect of b against a, counting adjoints too.

    max over variables v and probe vectors xi of
    max(||(b_v - a_v) xi||, ||(b_v - a_v)* xi||).
    """
    if set(approximant.names()) != set(original.names()):
        raise ValueError("assignments have different variable sets")
    if approximant.dim != original.dim or probe.dim != original.dim:
        raise ValueError("probe and assignments must share one dimension")
    worst = 0.0
    for name in original.names():
        diff = approximant[name] - original[name]
        diff_star = matcalc.adjoint(diff)
        for xi in probe.vectors:
            worst = max(worst,
                        float(np.linalg.norm(diff @ xi)),
                        float(np.linalg.norm(diff_star @ xi)))
    return worst


# ---------------------------------------------------------------------------
# Model operators

MODEL_KINDS = ("unilateral_shift", "diagonal", "multiplication", "clock",
               "shiftmod")


def _van_der_corput(i: int) -> float:
    """Base-2 van der Corput point; a dimension-free sampling sequence."""
    x = 0.0
    denom = 1.0
    while i:
        denom *= 2.0
        x += (i & 1) / denom
        i >>= 1
    return x


def model(kind: str, dim: int,
          rule: Callable[[float], complex] | None = None) -> np.ndarray:
    """Instantiate a model operator at the given dimension.

    Kinds: ``unilateral_shift`` (ones on the subdiagonal),
    ``diagonal`` (rule(i) on the diagonal), ``multiplication`` (rule
    sampled on the base-2 van der Corput sequence, so instances at
    different dimensions nest), ``clock`` (diagonal roots of unity) and
    ``shiftmod`` (the cyclic shift, whose corner entry makes the clock
    commutation exact).
    """
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    needs_rule = kind in ("diagonal", "multiplication")
    if needs_rule and rule is None:
        raise ValueError(f"model {kind!r} needs a rule")
    if not needs_rule and rule is not None:
        raise ValueError(f"model {kind!r} takes no rule")
    if dim < 1:
        raise ValueError("model dimension must be at least 1")
    if kind == "unilateral_shift":
        return np.eye(dim, k=-1, dtype=complex)
    if kind == "diagonal":
        return np.diag([complex(rule(i)) for i in range(dim)])
    if kind == "multiplication":
        return np.diag([complex(rule(_van_der_corput(i)))
                        for i in range(dim)])
    if kind == "clock":
        omega = np.exp(2j * np.pi / dim)
        return np.diag(omega ** np.arange(dim))
    shift = np.eye(dim, k=1, dtype=complex)
    shift[dim - 1, 0] = 1.0
    return shift


def clock_shift_norm_gap(dim: int) -> float:
    """||uv - vu|| for the clock and modular shift pair: 2 sin(pi / dim)."""
    return 2.0 * math.sin(math.pi / dim)


# ---------------------------------------------------------------------------
# Residual curves

def residual_curves(a: Assignment, relations: Sequence[Relation],
                    schedule: CompressionSchedule, procedure: str,
                    policy: TolerancePolicy = DEFAULT_POLICY) -> list[dict]:
    """Residuals of every relation along a schedule, as flat rows.

    ``procedure`` is "loewner" (the sharp cutoff with alpha fixed at 1;
    the schedule's cutoff must be sharp) or "quasicentral" (the
    schedule's cutoff with rescaling; the norm-bound members of
    ``relations`` drive the rescaling, while every relation is checked).
    Rows have keys rank, relation, residual, alpha, defect.
    """
    if not relations:
        raise ValueError(
            "no relations to track: residual curves need at least one")
    if procedure == "loewner":
        if schedule.cutoff != SHARP:
            raise ValueError("the loewner procedure uses the sharp cutoff, "
                             f"not {schedule.cutoff}")
        bounds = []
    elif procedure == "quasicentral":
        bounds = _tracked_bounds(relations)
    else:
        raise ValueError(f"unknown procedure {procedure!r}")
    rows = []
    for step in _steps(a, bounds, schedule, policy):
        defect = max(step.defects.values())
        for rel in relations:
            rows.append({
                "rank": step.rank,
                "relation": describe(rel),
                "residual": residual(rel, step.assignment, policy).residual,
                "alpha": step.alpha,
                "defect": defect,
            })
    return rows


def write_residual_csv(path, rows: Sequence[dict]) -> None:
    """Write residual-curve rows as CSV with a fixed column order."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["rank", "relation", "residual", "alpha", "defect"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
