"""Residuals on the leading corner of a cut assignment.

``residual_curves`` checks each cut step on its leading k x k block, k =
min(dim, rank + 1): below full rank the block keeps one of the cut's
zero rows and columns, which stands for all dim - rank of them.  The
oracle here is the full-dimension cut u m u, built from the cutoff's
weights alone, so it shares no code with the corner it checks: for
every relation kind, both give the same verdict, and residuals and
margins agree to rounding.
"""

import numpy as np
import pytest

from matrel import approx, matcalc
from matrel.approx import (
    SHARP,
    CompressionSchedule,
    Cutoff,
    quasicentral_approximation,
    residual_curves,
)
from matrel.matcalc import TolerancePolicy, op_norm
from matrel.relations import (
    Assignment,
    ExpRealNormBound,
    Positive,
    Range01,
    RealPartBound,
    SelfAdjoint,
    Unitary,
    describe,
    parse_relations,
    residual,
)

POLICY = TolerancePolicy(tol_eq=1e-9, tol_psd=1e-9)
DIM = 10

# Every relation kind: the side relations of the declarations, the file
# syntax's kinds, and the programmatic SelfAdjoint and Range01.
ORACLE_TEXT = """\
var x;
var h hermitian;
var p positive;
var q unitary;
var c contraction;
var n hermitian;
rel x h - h x = 0;
rel x* x >= 0;
rel h >= 0;
rel p^(1/2) h p^(1/2) >= 0;
rel norm(x c - c x) <= 3.0;
rel norm(h p) < 100.0;
rel norm(x) <= 1.0;
rel n <= p;
rel h <= p;
rel blockpos(0.01 c, p, p);
rel blockpos(x, h, h);
rel re(n) <= 0.5;
rel re(x) <= 2.0;
rel normexp_re(n) <= 1.5;
rel normexp_re(h) <= 2.0;
"""


def _complex(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _oracle_assignment(seed, dim=DIM):
    """Dense random complex inputs.  p is positive definite and n negative
    definite, so every cut below full rank moves their extreme
    eigenvalues to 0; q is unitary, so a cut q has unitarity defect
    below 1 on its nonzero block and exactly 1 with a zero row."""
    rng = np.random.default_rng(seed)
    x = _complex(rng, dim)
    g = _complex(rng, dim)
    h = (g + g.conj().T) / 2
    g = _complex(rng, dim)
    p = g @ g.conj().T + np.eye(dim)
    p /= op_norm(p)
    q, _ = np.linalg.qr(_complex(rng, dim))
    g = _complex(rng, dim)
    c = 0.9 * g / op_norm(g)
    n = -(p + 0.1 * np.eye(dim))
    return Assignment({"x": x, "h": h, "p": p, "q": q, "c": c, "n": n})


def _oracle_relations():
    _, rels = parse_relations(ORACLE_TEXT)
    return rels + [SelfAdjoint("x"), Range01("p"), Range01("h")]


def _close(got, want):
    if want in (np.inf, -np.inf):
        return got == want
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _full_cut(a, cutoff, rank):
    """u m u for every m at full dimension, u the cutoff diagonal."""
    w = cutoff.weights(a.dim, rank)
    return Assignment({name: (w[:, None] * m) * w[None, :]
                       for name, m in a.items()})


def _full_defects(a, cutoff, rank):
    """||u m - m u|| for every m, each by its own SVD."""
    w = cutoff.weights(a.dim, rank)
    return {name: op_norm(w[:, None] * m - m * w[None, :])
            for name, m in a.items()}


def _corner(cut, k):
    return Assignment({name: m[:k, :k] for name, m in cut.items()})


def test_oracle_covers_every_relation_kind():
    kinds = {type(rel).__name__ for rel in _oracle_relations()}
    assert kinds == {"PolyZero", "PolyPositive", "NormBound", "OperatorOrder",
                     "SelfAdjoint", "Positive", "Range01", "Unitary",
                     "Contraction", "BlockPositive", "RealPartBound",
                     "ExpRealNormBound"}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("cutoff", [SHARP, Cutoff(1), Cutoff(3)],
                         ids=str)
@pytest.mark.parametrize("rank", [1, DIM - 1, DIM, DIM + 2])
def test_corner_residual_matches_the_zero_padded_assignment(seed, cutoff,
                                                            rank):
    a = _oracle_assignment(seed)
    cut = _full_cut(a, cutoff, rank)
    corner = approx._cut(a, cutoff, rank)
    assert corner.dim == min(DIM, rank + 1)
    for rel in _oracle_relations():
        want = residual(rel, cut, POLICY)
        got = residual(rel, corner, POLICY)
        label = (describe(rel), rank)
        assert got.satisfied == want.satisfied, label
        assert _close(got.margin, want.margin), (label, got, want)
        assert _close(got.residual, want.residual), (label, got, want)


def test_the_zero_row_bites_on_the_oracle_inputs():
    """Dropping the corner's zero row changes these verdicts' margins, so
    the oracle above would see a corner cut at k = rank.  Rank DIM - 1
    already keeps all of DIM, so the cut here is at DIM - 2."""
    a = _oracle_assignment(0)
    rank = DIM - 2
    cut = _full_cut(a, SHARP, rank)
    rels = (Unitary("q"), Positive("p"), Range01("p"),
            RealPartBound("n", 0.5), ExpRealNormBound("n", 1.5))
    for rel in rels:
        bare = residual(rel, _corner(cut, rank), POLICY)
        kept = residual(rel, _corner(cut, rank + 1), POLICY)
        assert abs(bare.margin - kept.margin) > 1e-3, describe(rel)


@pytest.mark.parametrize("procedure, cutoff",
                         [("loewner", SHARP), ("quasicentral", SHARP),
                          ("quasicentral", Cutoff(2)),
                          ("quasicentral", Cutoff(4))], ids=str)
def test_residual_curves_match_the_full_dimension_steps(procedure, cutoff):
    a = _oracle_assignment(5)
    rels = _oracle_relations()
    schedule = CompressionSchedule((1, 4, DIM - 1, DIM, DIM + 5), cutoff)
    rows = residual_curves(a, rels, schedule, procedure, POLICY)
    if procedure == "loewner":
        steps = [(rank, _full_cut(a, cutoff, rank), 1.0,
                  _full_defects(a, cutoff, rank))
                 for rank in schedule.ranks]
    else:
        steps = [(s.rank, s.assignment, s.alpha, s.defects)
                 for s in quasicentral_approximation(a, rels, schedule,
                                                     POLICY)]
    expected = [(rank, describe(rel), residual(rel, full, POLICY).residual,
                 alpha, max(defects.values()))
                for rank, full, alpha, defects in steps for rel in rels]
    assert len(rows) == len(expected)
    for row, (rank, label, res, alpha, defect) in zip(rows, expected):
        assert (row["rank"], row["relation"], row["alpha"], row["defect"]) \
            == (rank, label, alpha, defect)
        assert _close(row["residual"], res), (row, res)


def test_a_defect_that_vanishes_exactly_takes_no_svd(monkeypatch):
    rng = np.random.default_rng(7)
    diag = np.diag(_complex(rng, 6)[0])
    dense = _complex(rng, 6)
    a = Assignment({"d": diag, "m": dense})
    calls = []
    real_op_norm = matcalc.op_norm

    def counting(m):
        calls.append(m.shape)
        return real_op_norm(m)

    monkeypatch.setattr(matcalc, "op_norm", counting)
    for cutoff in (SHARP, Cutoff(2)):
        for rank in (1, 3, 6, 9):
            calls.clear()
            defects = approx._defects(a, cutoff, rank)
            w = cutoff.weights(6, rank)
            assert defects["d"] == 0.0
            assert defects["m"] == real_op_norm(
                w[:, None] * dense - dense * w[None, :])
            # only the dense matrix's defect needs an SVD, and none is
            # needed once the cutoff is the identity
            assert len(calls) == (0 if w.min() == 1.0 else 1)
