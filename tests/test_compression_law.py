"""Loewner's law on the corners that ``residual_curves`` checks.

A compression keeps a satisfied order, positivity, contraction or
real-part bound satisfied at every rank of both procedures, and where it
cuts, the kernel it adds shows in the margin.  The corner path gets that
kernel from the one zero row and column its corners keep below full
rank.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from matrel import approx, matcalc
from matrel.approx import SHARP, CompressionSchedule, Cutoff, residual_curves
from matrel.matcalc import TolerancePolicy, op_norm
from matrel.ncpoly import evaluate
from matrel.relations import (
    Assignment,
    Contraction,
    OperatorOrder,
    Positive,
    RealPartBound,
    describe,
    parse_relations,
    residual,
)

POLICY = TolerancePolicy(tol_eq=1e-9, tol_psd=1e-9)


def _complex(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


LAW_TEXT = """\
var x hermitian;
var y hermitian;
var p positive;
var c contraction;
var m;
rel x <= y;
rel norm(x y - y x) <= 1000.0;
"""


@st.composite
def law_cases(draw):
    dim = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    shift = draw(st.floats(0.0, 4.0))
    room = draw(st.floats(0.01, 2.0))
    width = draw(st.integers(0, 4))
    ranks = sorted(draw(st.sets(st.integers(1, dim + 5), min_size=1,
                                max_size=6)))
    return dim, seed, shift, room, width, tuple(ranks)


def _law_assignment(dim, seed, shift):
    """x <= y with a definite gap, p positive definite, c a contraction,
    and m shifted by -shift, so that for a large shift re(m) is negative
    definite and a cut that pads raises its top eigenvalue to 0."""
    rng = np.random.default_rng(seed)
    g = _complex(rng, dim)
    x = (g + g.conj().T) / 2
    g = _complex(rng, dim)
    y = x + g @ g.conj().T + 0.05 * np.eye(dim)
    g = _complex(rng, dim)
    p = g @ g.conj().T + 0.05 * np.eye(dim)
    g = _complex(rng, dim)
    c = g / (op_norm(g) * 1.25)
    m = _complex(rng, dim) - shift * np.eye(dim)
    return Assignment({"x": x, "y": y, "p": p, "c": c, "m": m})


@settings(max_examples=80, deadline=None)
@given(law_cases())
def test_compression_keeps_order_positivity_and_bounds(case):
    """At every rank of both procedures, a satisfied x <= y, p >= 0,
    ||c|| <= 1 or re(m) <= beta stays satisfied.

    With L the original margin minus its slack (the smallest eigenvalue
    of y - x or p, 1 - ||c||, or beta - max eig re(m)), u a cutoff with
    0 <= u <= 1 and alpha <= 1, the law u g u >= min(L, 0) gives each
    margin the floor min(L, cap): cap is 0 for order and positivity, beta
    for the real part, and none for the norm.  The margin includes the
    cut's slack, which covers rounding.  A cut that pads adds a kernel,
    so the margin is then at most cap plus that slack.
    """
    dim, seed, shift, room, width, ranks = case
    a = _law_assignment(dim, seed, shift)
    beta = abs(float(matcalc.max_eigenvalue(matcalc.real_part(a["m"])))) \
        + room
    _, rels = parse_relations(LAW_TEXT + f"rel re(m) <= {beta!r};\n")
    caps = {OperatorOrder: 0.0, Positive: 0.0, Contraction: np.inf,
            RealPartBound: beta}
    caps = {rel: caps[type(rel)] for rel in rels if type(rel) in caps}
    assert len(caps) == 4
    # The policy's two tolerances are equal, so one slack serves all four.
    slack = POLICY.slack(a.max_norm())[1]
    floors = {}
    for rel, cap in caps.items():
        v = residual(rel, a, POLICY)
        assert v.satisfied, describe(rel)
        floors[rel] = min(v.margin - slack, cap)
    bounds = approx._tracked_bounds(rels)
    for procedure, cutoff, tracked in (("loewner", SHARP, []),
                                       ("quasicentral", Cutoff(width),
                                        bounds)):
        schedule = CompressionSchedule(ranks, cutoff)
        rows = residual_curves(a, rels, schedule, procedure, POLICY)
        watched = {describe(rel) for rel in caps}
        assert all(row["residual"] == 0.0 for row in rows
                   if row["relation"] in watched)
        for step in approx._steps(a, tracked, schedule, POLICY):
            slack = POLICY.slack(step.assignment.max_norm())[1]
            for rel, cap in caps.items():
                v = residual(rel, step.assignment, POLICY)
                label = (procedure, step.rank, describe(rel))
                assert v.satisfied, label
                assert v.margin >= floors[rel], (label, v, floors[rel])
                if step.rank < dim:
                    assert v.margin <= cap + slack, (label, v)


@st.composite
def homogeneous_bounds(draw):
    """Relation text for one or two norm bounds on general x and y, each
    polynomial homogeneous of degree 1 to 3.  The first is a sum of words
    each minus its rotation by one letter, which vanishes on commuting
    normal matrices: on the nearly commuting pairs below, a cut breaks
    that cancellation and the rescale engages.  The second, if any, may
    be any sum of words."""
    letters = st.sampled_from(("x", "y", "x*", "y*"))
    coeffs = st.sampled_from(("0.5", "2.0", "1i", "(0.3-0.7i)"))
    lines = []
    for cancelling in (True, False)[:draw(st.integers(1, 2))]:
        degree = draw(st.integers(2 if cancelling else 1, 3))
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            word = draw(st.lists(letters, min_size=degree, max_size=degree))
            sign, other = draw(st.sampled_from((("+", "-"), ("-", "+"))))
            coeff = draw(coeffs)
            terms.append(f" {sign} {coeff} {' '.join(word)}")
            if cancelling:
                turned = word[1:] + word[:1]
                terms.append(f" {other} {coeff} {' '.join(turned)}")
        poly = "".join(terms).removeprefix(" + ")
        lines.append(f"rel norm({poly}) <= 100.0;\n")
    return "var x;\nvar y;\n" + "".join(lines)


def _nearly_commuting(rng, dim, eps):
    """Two normal matrices diagonal in one random basis, each plus eps
    times a Ginibre matrix."""
    q, _ = np.linalg.qr(_complex(rng, dim))
    return {name: q @ np.diag(_complex(rng, dim)[0]) @ q.conj().T
            + eps * _complex(rng, dim) for name in ("x", "y")}


@settings(max_examples=200, deadline=None)
@given(homogeneous_bounds(), st.integers(2, 6), st.integers(0, 2**32 - 1),
       st.sampled_from((1e-2, 1e-1, 1.0)), st.integers(0, 4), st.data())
def test_quasicentral_never_raises_any_tracked_norm(text, dim, seed, eps,
                                                    width, data):
    """At every rank, 0 < alpha <= 1 and no tracked ||p(step)|| exceeds
    ||p(a)||.  Where the rescale engages, alpha is the largest factor
    that does this, so one tracked bound is met with equality; an alpha
    without its 1/d root would undershoot that."""
    ranks = sorted(data.draw(st.sets(st.integers(1, dim + 1), min_size=1,
                                     max_size=6)))
    _, rels = parse_relations(text)
    assume(all(rel.poly.monomials for rel in rels))
    a = Assignment(_nearly_commuting(np.random.default_rng(seed), dim, eps))
    polys = [rel.poly for rel in approx._tracked_bounds(rels)]
    originals = [op_norm(evaluate(p, a, POLICY)) for p in polys]
    steps = approx.quasicentral_approximation(
        a, rels, CompressionSchedule(tuple(ranks), Cutoff(width)), POLICY)
    assert [step.rank for step in steps] == ranks
    for step in steps:
        assert 0.0 < step.alpha <= 1.0
        ratios = [op_norm(evaluate(p, step.assignment, POLICY)) / orig
                  for p, orig in zip(polys, originals)]
        assert max(ratios) <= 1.0 + 1e-12, (step.rank, ratios)
        if step.alpha < 1.0:
            assert max(ratios) >= 1.0 - 1e-9, (step.rank, step.alpha, ratios)
