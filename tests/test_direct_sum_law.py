"""The direct-sum law behind the paper's transfer from matrices to
operators: checked on a direct sum of assignments, every relation's
margin is the worst of the members' margins.

For a zero member this is the fact the compression procedures rest on:
a cut padded with zeros, a (+) 0_j, gets the same margin for every
j >= 1, so one zero row and column stand for all of them.

Members have norm at most 1, so that they and their direct sum share one
tolerance slack, and every polynomial checked for positivity evaluates
self-adjoint within that slack, so that no member's margin comes from
the self-adjointness fallback while another's comes from its spectrum.
"""

import numpy as np
import pytest
import scipy.linalg

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from matrel.matcalc import TolerancePolicy, direct_sum, op_norm
from matrel.relations import (
    Assignment,
    Range01,
    SelfAdjoint,
    describe,
    parse_relations,
    product_rep,
    residual,
)

POLICY = TolerancePolicy(tol_eq=1e-9, tol_psd=1e-9)

# Every relation kind, with self-adjoint polynomials wherever the margin
# is a spectrum's.
LAW_TEXT = """\
var x;
var h hermitian;
var p positive;
var q unitary;
var c contraction;
rel x h - h x = 0;
rel x* x >= 0;
rel p^(1/2) h p^(1/2) >= 0;
rel norm(x c - c x) <= 0.5;
rel norm(h p) < 0.3;
rel h <= p;
rel blockpos(x, c* c, p);
rel re(x) <= 0.2;
rel normexp_re(h) <= 1.5;
"""


def _relations():
    _, rels = parse_relations(LAW_TEXT)
    return rels + [SelfAdjoint("x"), Range01("p"), Range01("h")]


def test_the_law_covers_every_relation_kind():
    kinds = {type(rel).__name__ for rel in _relations()}
    assert kinds == {"PolyZero", "PolyPositive", "NormBound", "OperatorOrder",
                     "SelfAdjoint", "Positive", "Range01", "Unitary",
                     "Contraction", "BlockPositive", "RealPartBound",
                     "ExpRealNormBound"}


def _complex(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


@st.composite
def members(draw):
    """One assignment of dimension 1 to 4 whose matrices have norm at
    most 1; the scales spread the members' margins apart."""
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sx, sh, sp = (draw(st.floats(0.05, 1.0)) for _ in range(3))
    g = _complex(rng, dim)
    x = sx * g / op_norm(g)
    g = _complex(rng, dim)
    h = g + g.conj().T
    h = sh * h / op_norm(h)
    g = _complex(rng, dim)
    p = g @ g.conj().T + 0.05 * np.eye(dim)
    p = sp * p / op_norm(p)
    q, _ = np.linalg.qr(_complex(rng, dim))
    g = _complex(rng, dim)
    c = 0.9 * g / op_norm(g)
    return Assignment({"x": x, "h": h, "p": p, "q": q, "c": c})


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _zeros(a, j):
    return Assignment({name: np.zeros((j, j)) for name in a.names()})


@settings(max_examples=60, deadline=None)
@given(st.lists(members(), min_size=2, max_size=3))
def test_direct_sum_margin_is_the_members_minimum(parts):
    whole = product_rep(parts)
    for rel in _relations():
        want = min(residual(rel, a, POLICY).margin for a in parts)
        got = residual(rel, whole, POLICY).margin
        assert _close(got, want), (describe(rel), got, want)


@settings(max_examples=60, deadline=None)
@given(members())
def test_zero_padding_gives_one_margin_for_every_width(a):
    padded = [product_rep([a, _zeros(a, j)]) for j in range(1, 5)]
    for rel in _relations():
        one, *more = (residual(rel, b, POLICY).margin for b in padded)
        for j, margin in enumerate(more, start=2):
            assert _close(margin, one), (describe(rel), j, margin, one)


@st.composite
def blocks(draw):
    """One to four square blocks of size 1 to 4, each of integer, real
    or complex dtype."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 4))
        kind = draw(st.sampled_from((int, float, complex)))
        if kind is int:
            cells = st.integers(-10**6, 10**6)
        else:
            cells = st.floats(-1e6, 1e6, allow_subnormal=True)
        flat = draw(st.lists(cells, min_size=n * n, max_size=n * n))
        block = np.array(flat, dtype=int if kind is int else float)
        if kind is complex:
            imag = draw(st.lists(cells, min_size=n * n, max_size=n * n))
            block = block + 1j * np.array(imag)
        out.append(block.reshape(n, n))
    return out


@settings(max_examples=100, deadline=None)
@given(blocks())
def test_direct_sum_is_scipy_block_diag_bit_for_bit(parts):
    got = direct_sum(parts)
    want = scipy.linalg.block_diag(*parts).astype(complex)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
