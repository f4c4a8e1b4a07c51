"""The unitarity defect is one norm, ||u*u - 1||: for a square u = W S V*,
u*u - 1 = V (S^2 - 1) V* and uu* - 1 = W (S^2 - 1) W*, so it equals the
two-sided max(||u*u - 1||, ||uu* - 1||) the residual used to take.  The
property keeps the two-sided form as its reference, on normal and
non-normal matrices and on a (+) 0_j.  A matrix with a zero column and
norm bounded below sqrt(2), such as every cut corner of a contraction,
has defect exactly 1, read without an SVD."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from matrel.matcalc import (
    TolerancePolicy,
    adjoint,
    direct_sum,
    op_norm,
    op_norm_bound,
    unitary_defect,
)
from matrel.relations import Assignment, Unitary, residual

POLICY = TolerancePolicy(tol_eq=1e-9, tol_psd=1e-9)


@st.composite
def squares(draw):
    """A square matrix of dimension 1 to 5: unitary, near unitary, general,
    upper triangular or a scaled nilpotent shift, sometimes followed by a
    zero block."""
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    scale = draw(st.floats(0.1, 3.0))
    m = draw(st.sampled_from([
        q, q + 1e-6 * scale * g, scale * g, scale * np.triu(g),
        scale * (np.eye(dim, k=1) + np.eye(dim))]))
    zeros = draw(st.integers(0, 3))
    return direct_sum([m, np.zeros((zeros, zeros))]) if zeros else m


def _two_sided_margin(m):
    eye = np.eye(len(m))
    defect = max(op_norm(adjoint(m) @ m - eye), op_norm(m @ adjoint(m) - eye))
    return POLICY.slack(op_norm(m))[0] - defect


@settings(max_examples=200, deadline=None)
@given(squares())
def test_unitary_margin_is_the_two_sided_defect(m):
    got = residual(Unitary("u"), Assignment({"u": m}), POLICY).margin
    want = _two_sided_margin(m)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (got, want)


@st.composite
def cut_contractions(draw):
    """A random square matrix with a zero column, scaled so that its norm
    bound lies below sqrt(2)."""
    dim = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    g[:, draw(st.integers(0, dim - 1))] = 0.0
    bound = op_norm_bound(g)
    return g * (draw(st.floats(0.0, 1.41)) / bound) if bound else g


def _svd_calls(monkeypatch) -> list:
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    return calls


@settings(max_examples=200, deadline=None)
@given(cut_contractions())
def test_a_cut_contraction_has_defect_exactly_one(m):
    assert op_norm_bound(m) < math.sqrt(2)
    assert unitary_defect(m) == 1.0
    assert abs(op_norm(adjoint(m) @ m - np.eye(len(m))) - 1.0) <= 1e-14
    got = residual(Unitary("u"), Assignment({"u": m}), POLICY).margin
    assert got == POLICY.slack(op_norm(m))[0] - 1.0


def test_a_zero_column_above_the_bound_takes_the_svd(monkeypatch):
    m = np.diag([1.5, 0.0])
    calls = _svd_calls(monkeypatch)
    assert unitary_defect(m) == 1.25
    assert len(calls) == 1


def test_a_unitary_takes_the_svd(monkeypatch):
    g = np.random.default_rng(3).standard_normal((4, 4))
    q, _ = np.linalg.qr(g + 1j * g[::-1])
    want = op_norm(adjoint(q) @ q - np.eye(4))
    calls = _svd_calls(monkeypatch)
    assert unitary_defect(q) == want
    assert len(calls) == 1
