"""The one-table evaluator against the identity-seeded loop it replaced: on
every polynomial and assignment both give matrices with equal bytes, or
both raise the same error with the same message."""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from matrel import matcalc, relations
from matrel.ncpoly import NcPolynomial, PolyError, Variable, evaluate
from matrel.relations import (
    Assignment,
    NormBound,
    PolyPositive,
    PolyZero,
    residual,
)


# The evaluator as it stood before each monomial became one reduction
# over a table of factor powers, kept as the reference.  Its own checks of
# the matrices gave way to the Assignment prologue that evaluate has, so
# both validate a plain dict the same way.
def _identity_seeded_evaluate(p, assignment, policy=matcalc.DEFAULT_POLICY):
    if not isinstance(assignment, Assignment):
        assignment = Assignment(assignment)
    occurring = []
    for mono in p.monomials:
        for name, _, _ in mono.word:
            if name not in occurring:
                occurring.append(name)
    mats = {name: assignment[name] for name in occurring}
    dim = assignment.dim
    acc = np.zeros((dim, dim), dtype=complex)
    fractional = {}
    for mono in p.monomials:
        term = np.eye(dim, dtype=complex)
        for factor in mono.word:
            name, star, exp = factor
            base = matcalc.adjoint(mats[name]) if star else mats[name]
            if exp.denominator == 1:
                powered = np.linalg.matrix_power(base, int(exp))
            else:
                if factor not in fractional:
                    fractional[factor] = matcalc.fractional_power(
                        base, exp, policy)
                powered = fractional[factor]
            term = term @ powered
        acc += mono.coeff * term
    return acc


VARIABLES = (Variable("x", "general"), Variable("h", "hermitian"),
             Variable("p", "positive"))

_INTEGER_EXPONENTS = [Fraction(1), Fraction(2), Fraction(3)]


@st.composite
def _factors(draw):
    name = draw(st.sampled_from(["x", "h", "p"]))
    exponents = _INTEGER_EXPONENTS + (
        [Fraction(1, 2), Fraction(3, 2)] if name == "p" else [])
    return name, draw(st.booleans()), draw(st.sampled_from(exponents))


_COEFFS = st.sampled_from([1.0, -1.0, 2.5, -0.5, 1j, -2j, 1.5 - 2.0j, -1 + 1j])


@st.composite
def _polys(draw):
    # One in eight is the zero polynomial; terms that cancel give it too.
    if draw(st.integers(0, 7)) == 0:
        return NcPolynomial.zero(VARIABLES)
    terms = draw(st.lists(
        st.tuples(_COEFFS, st.lists(_factors(), min_size=1, max_size=4)),
        min_size=1, max_size=4))
    return NcPolynomial.from_terms(VARIABLES, terms)


_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False))


@st.composite
def _assignments(draw):
    d = draw(st.integers(1, 5))
    # Diagonal and triangular matrices make exact zeros in products, where
    # the sign of a zero can show.
    shape = draw(st.sampled_from(
        [lambda m: m, np.triu, lambda m: np.diag(np.diag(m))]))

    def matrix():
        parts = draw(st.lists(_ENTRIES, min_size=2 * d * d, max_size=2 * d * d))
        flat = np.array(parts[:d * d]) + 1j * np.array(parts[d * d:])
        return shape(flat.reshape(d, d))

    mats = {"x": matrix(), "h": matrix(), "p": matrix()}
    mats["h"] = (mats["h"] + mats["h"].conj().T) / 2
    mats["p"] = mats["p"] @ mats["p"].conj().T
    # Mostly all three, sometimes too few for the polynomial or none.
    for name in draw(st.sampled_from([()] * 6 + [("p",), ("x", "h"),
                                                 ("x", "h", "p")])):
        del mats[name]
    chosen = mats
    if chosen and draw(st.booleans()):
        return Assignment(chosen)
    return chosen


def _outcome(evaluator, p, a):
    try:
        out = evaluator(p, a)
    except (PolyError, matcalc.MatrixError) as err:
        return type(err), str(err)
    return out.shape, out.dtype, out.tobytes()


@settings(max_examples=200, deadline=None)
@given(_polys(), _assignments())
def test_evaluate_matches_identity_seeded_loop(p, a):
    assert _outcome(evaluate, p, a) == _outcome(_identity_seeded_evaluate, p, a)


def test_overflowing_power_gets_the_same_verdict(monkeypatch):
    vs = {v.name: v for v in VARIABLES}
    x = NcPolynomial.from_terms(vs, [(1.0, [("x", False, 4000)])])
    hx = NcPolynomial.from_terms(
        vs, [(1.0, [("h", False, 1), ("x", False, 4000)]),
             (-1.0, [("x", True, 1)])])
    a = Assignment({"x": np.array([[0.0, 2.0], [2.0, 0.0]]),
                    "h": np.array([[1.0, 0.5], [0.5, -1.0]]),
                    "p": np.eye(2)})
    assert matcalc.op_norm(a["x"]) == 2.0
    rels = [NormBound(x, 1.0), PolyZero(x), PolyPositive(x), PolyZero(hx)]
    verdicts = [residual(rel, a) for rel in rels]
    monkeypatch.setattr(relations, "evaluate", _identity_seeded_evaluate)
    assert [residual(rel, a) for rel in rels] == verdicts
    assert all(not v.satisfied and v.margin == -np.inf for v in verdicts)
