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

A cut matrix is the direct sum a (+) 0_j of a leading block and a zero
block, and every relation gives it the same verdict for all j >= 1 (see
:func:`_cut`), so the residual curves keep one zero row and column of
each cut.

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
import operator
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import matcalc
from .matcalc import DEFAULT_POLICY, TolerancePolicy
from .ncpoly import Assignment, homogeneity
from .relations import NormBound, Relation, describe, residual_value


def _index(value, what: str, low: int | None) -> int:
    """``value`` as an ``int`` if it is an integer of at least ``low`` (any
    integer when ``low`` is None), else a ValueError naming ``what`` and
    the value.  ``int`` would truncate 1.5, and ``operator.index`` alone
    would take True for 1."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if low is not None and value < low:
        raise ValueError(f"{what} must be at least {low}, got {value}")
    return value


@dataclass(frozen=True)
class Cutoff:
    """Diagonal cutoff profile: a linear ramp of a given width.

    The weight of coordinate i at rank r is clip((r - i) / (width + 1),
    0, 1); width 0 is the sharp cutoff, an exact coordinate projection.
    The width must fit in a float.
    """

    width: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "width",
                           _index(self.width, "a cutoff width", 0))
        if self.width > sys.float_info.max:
            raise ValueError("a cutoff width must be at most "
                             f"{sys.float_info.max:g}")

    @classmethod
    def parse(cls, text: str) -> "Cutoff":
        """Parse "sharp" (width 0) or "ramp:WIDTH" with WIDTH >= 1."""
        if text == "sharp":
            return cls()
        if text.startswith("ramp:"):
            try:
                width = _digits(text[5:])
            except ValueError:
                width = 0
            if width >= 1:
                return cls(width)
        raise ValueError(f"bad cutoff {text!r}; use sharp or ramp:WIDTH")

    def weights(self, dim: int, rank: int) -> np.ndarray:
        """The weights of coordinates 0 to dim - 1.  Every weight is
        already 1 at rank dim + width, so a larger rank is capped there
        before it meets a float."""
        rank = min(rank, dim + self.width)
        i = np.arange(dim, dtype=float)
        return np.clip((rank - i) / (self.width + 1), 0.0, 1.0)

    def __str__(self) -> str:
        return f"ramp:{self.width}" if self.width else "sharp"


SHARP = Cutoff()


def _digits(text: str) -> int:
    """The number written as plain ASCII digits.  ``int`` also takes a
    sign, underscores, surrounding spaces and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a run of ASCII digits: {text!r}")
    return int(text)


@dataclass(frozen=True)
class CompressionSchedule:
    """Strictly increasing ranks plus the cutoff profile to use.

    Ranks may exceed the assignment dimension; weights saturate at 1, so
    a rank of dim + width makes the ramped cutoff exactly the identity.
    """

    ranks: tuple[int, ...]
    cutoff: Cutoff = SHARP

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranks",
                           tuple(_index(r, "a rank", 1) for r in self.ranks))
        if not self.ranks:
            raise ValueError("a schedule needs at least one rank")
        if any(b <= a for a, b in zip(self.ranks, self.ranks[1:])):
            raise ValueError("ranks must be strictly increasing")

    @classmethod
    def parse(cls, ranks_text: str, cutoff_text: str = "sharp"
              ) -> "CompressionSchedule":
        """Parse a comma-separated rank list and a cutoff description."""
        try:
            ranks = tuple(_digits(r.strip()) for r in ranks_text.split(","))
        except ValueError:
            raise ValueError(f"bad schedule {ranks_text!r}; use e.g. 8,16,32")
        return cls(ranks, Cutoff.parse(cutoff_text))


def _cut(a: Assignment, cutoff: Cutoff, rank: int) -> Assignment:
    """The one cutoff step of both procedures, on its leading corner:
    every m becomes u m u, u the cutoff diagonal at ``rank``.  Both
    profiles weigh coordinate i above 0 exactly when i < rank, so u m u
    is a (+) 0_j, a its leading rank x rank block and j = dim - rank.
    This returns the leading k x k block of each matrix, k = min(dim,
    rank + 1).  One zero row and column stand for all j: every margin
    reads a norm or an extreme eigenvalue of f(a (+) 0_j) = f(a) (+)
    f(0) 1_j, where f is a polynomial without constant term (f(0) = 0),
    u -> u* u - 1 (f(0) = -1) or exp of the real part (f(0) = 1), and the
    slack reads the norms of a, so every verdict is the same for all
    j >= 1."""
    k = min(a.dim, rank + 1)
    w = cutoff.weights(k, rank)
    return Assignment({name: (w[:, None] * m[:k, :k]) * w[None, :]
                       for name, m in a.items()})


def _defects(a: Assignment, cutoff: Cutoff, rank: int) -> dict[str, float]:
    """The quasi-centrality defect ||u m - m u|| of every matrix, u the
    cutoff diagonal at ``rank``, at full dimension.  The defect of a
    matrix that commutes with u exactly, such as a diagonal one, is 0
    without an SVD."""
    w = cutoff.weights(a.dim, rank)
    defects = {}
    for name, m in a.items():
        gap = w[:, None] * m - m * w[None, :]
        defects[name] = matcalc.op_norm(gap) if gap.any() else 0.0
    return defects


def _padded(a: Assignment, dim: int) -> Assignment:
    """The assignment of the matrices each followed by zero rows and
    columns up to ``dim``."""
    return Assignment({name: np.pad(m, (0, dim - len(m)))
                       for name, m in a.items()})


def loewner_step(a: Assignment, rank: int) -> Assignment:
    """Compress every matrix by the sharp rank projection.

    Ranks beyond the dimension act as the identity, and rank 0 gives
    zeros.  Order relations survive this step: p (y - x) p is positive
    whenever y - x is.  No defect is measured.
    """
    return _padded(_cut(a, SHARP, _index(rank, "a rank", 0)), a.dim)


@dataclass(frozen=True)
class QuasicentralStep:
    """One rank of the quasi-central procedure.

    ``defects`` maps variable names to ||u m - m u||, the quasi-centrality
    defect of the cutoff at this rank; ``bound_norms`` maps tracked
    relation labels to the polynomial norm after rescaling.
    ``assignment`` is the rescaled corner in :func:`_steps`, and
    :func:`quasicentral_approximation` zero-pads it to the full dimension.
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

    The :class:`NormBound` members of ``relations`` drive the rescaling,
    and other relations are passed over; there must be at least one, and
    each needs a homogeneous polynomial.  At each rank, with u the
    cutoff diagonal and x_u = u x u, the step is y = alpha x_u where

        alpha = min over bounds of min(1, (||p(x)|| / ||p(x_u)||)^(1/d)),

    d the homogeneity degree (and factor 1 where ||p(x_u)|| = 0).  Then
    ||p(y)|| = alpha^d ||p(x_u)|| never exceeds ||p(x)||, so a satisfied
    norm bound stays satisfied at every rank.
    """
    return [replace(step, assignment=_padded(step.assignment, a.dim))
            for step in _steps(a, _tracked_bounds(relations), schedule,
                               policy)]


def _steps(a: Assignment, bounds: Sequence[NormBound],
           schedule: CompressionSchedule,
           policy: TolerancePolicy) -> list[QuasicentralStep]:
    """One cutoff step per rank, rescaled so that no tracked bound's norm
    grows; with no bounds to track, alpha stays 1.  Unlike the steps of
    :func:`quasicentral_approximation`, each holds only the corner that
    :func:`_cut` returns.  A polynomial has no constant term, so its norm
    on the corner is its norm on the full step."""
    originals = [_tracked_norm(b, a, policy) for b in bounds]
    degrees = [float(homogeneity(b.poly)) for b in bounds]
    steps = []
    for rank in schedule.ranks:
        cut_a = _cut(a, schedule.cutoff, rank)
        defects = _defects(a, schedule.cutoff, rank)
        norms = [_tracked_norm(b, cut_a, policy) for b in bounds]
        alpha = min([1.0] + [(orig / n) ** (1.0 / d) for orig, n, d
                             in zip(originals, norms, degrees) if n != 0.0])
        scaled = Assignment({name: alpha * m for name, m in cut_a.items()})
        bound_norms = {describe(b): (alpha ** d) * n
                       for b, n, d in zip(bounds, norms, degrees)}
        steps.append(QuasicentralStep(rank, scaled, alpha, defects, bound_norms))
    return steps


def _tracked_norm(b: NormBound, a: Assignment,
                  policy: TolerancePolicy) -> float:
    """||p(a)|| for a tracked bound.  An evaluation that overflows or
    takes a fractional power of a matrix that is not positive leaves no
    norm to rescale by, so it is a ValueError naming the bound."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return a.poly_norm(b.poly, policy)
    except (matcalc.NonFiniteError, matcalc.NotHermitianError,
            matcalc.NegativeSpectrumError) as err:
        raise ValueError(f"cannot track {describe(b)}: {err}") from None


class StarStrongProbe:
    """A finite family of unit vectors measuring *-strong closeness,
    kept as the rows of one read-only (K, d) array."""

    def __init__(self, vectors):
        rows = []
        for v in vectors:
            arr = np.asarray(v, dtype=complex).reshape(-1)
            if rows and arr.size != rows[0].size:
                raise ValueError("probe vectors must share one dimension")
            norm = float(np.linalg.norm(arr))
            if abs(norm - 1.0) > 1e-12:
                raise ValueError(f"probe vectors must be unit, got norm {norm}")
            rows.append(arr)
        if not rows:
            raise ValueError("a probe needs at least one vector")
        self.vectors = np.array(rows)
        self.vectors.setflags(write=False)
        self.dim = rows[0].size

    @classmethod
    def coordinates(cls, dim: int, indices) -> "StarStrongProbe":
        dim = _index(dim, "a probe dimension", 1)
        indices = [_index(i, "a coordinate index", None) for i in indices]
        for i in indices:
            if not 0 <= i < dim:
                raise ValueError(f"coordinate index {i} is outside [0, {dim})")
        return cls(np.eye(dim)[indices])

    @classmethod
    def random(cls, dim: int, count: int, seed: int,
               support: int | None = None) -> "StarStrongProbe":
        """Random unit vectors, optionally supported on the first
        ``support`` coordinates."""
        dim = _index(dim, "a probe dimension", 1)
        count = _index(count, "the count", 1)
        seed = _index(seed, "the seed", 0)
        k = dim if support is None else _index(support, "the support", None)
        if not 1 <= k <= dim:
            raise ValueError(f"support {k} is outside [1, {dim}]")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        vecs = np.zeros((count, dim), dtype=complex)
        for v in vecs:
            raw = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            v[:k] = raw / np.linalg.norm(raw)
        return cls(vecs)


def star_strong_residual(approximant: Assignment, original: Assignment,
                         probe: StarStrongProbe) -> float:
    """Worst probe-vector defect of b against a, counting adjoints too.

    max over variables v and probe vectors xi of
    max(||(b_v - a_v) xi||, ||(b_v - a_v)* xi||): the column norms of
    (b_v - a_v) P^T and the row norms of conj(P) (b_v - a_v), P = vectors.
    """
    if set(approximant.names()) != set(original.names()):
        raise ValueError("assignments have different variable sets")
    if approximant.dim != original.dim or probe.dim != original.dim:
        raise ValueError("probe and assignments must share one dimension")
    p = probe.vectors
    worst = 0.0
    for name in original.names():
        diff = approximant[name] - original[name]
        worst = max(worst,
                    float(np.linalg.norm(diff @ p.T, axis=0).max()),
                    float(np.linalg.norm(p.conj() @ diff, axis=1).max()))
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
    dim = _index(dim, "model dimension", 1)
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
    return 2.0 * math.sin(math.pi / _index(dim, "model dimension", 1))


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

    Each residual is computed on the step's leading corner (see
    :func:`_cut`) and agrees with the residual of the
    full-dimension step to rounding.  It is
    :func:`~matrel.relations.residual_value`, so a row that a cheap
    bound shows satisfied takes no SVD.
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
                "residual": residual_value(rel, step.assignment, policy),
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
