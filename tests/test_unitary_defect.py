"""The unitarity defect is one norm, ||u*u - 1||: for a square u = W S V*,
u*u - 1 = V (S^2 - 1) V* and uu* - 1 = W (S^2 - 1) W*, so it equals the
two-sided max(||u*u - 1||, ||uu* - 1||) the residual used to take.  The
property keeps the two-sided form as its reference, on normal and
non-normal matrices and on a (+) 0_j."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from matrel.matcalc import TolerancePolicy, adjoint, direct_sum, op_norm
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
