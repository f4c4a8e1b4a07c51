"""Products join canonical words at the seam.

A product of two canonical polynomials joins each pair of words where
they meet: only the last factor of the left word and the first of the
right one can merge.  Generated words, with starred factors, starred
factors of self-adjoint variables (whose star folds away) and fractional
exponents, are each canonicalized apart and joined; the result is the
canonical form of the whole word, and a product of polynomials is the
polynomial of every product of raw words.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from matrel.ncpoly import NcPolynomial, Variable, _canonical_word, _join

VARIABLES = (Variable("x"), Variable("u", "unitary"),
             Variable("h", "hermitian"), Variable("p", "positive"))
KINDS = {v.name: v.kind for v in VARIABLES}


@st.composite
def factors(draw, name=None):
    """A raw factor: any star flag, and an exponent that is fractional
    only on a self-adjoint variable."""
    name = name or draw(st.sampled_from(sorted(KINDS)))
    if KINDS[name] in ("hermitian", "positive"):
        exp = Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    else:
        exp = draw(st.integers(1, 3))
    return name, draw(st.booleans()), exp


@st.composite
def word_pairs(draw):
    """Two raw words; the right one often starts with the variable the
    left one ends with, so that their canonical forms meet at a seam."""
    left = draw(st.lists(factors(), max_size=5))
    right = draw(st.lists(factors(), max_size=5))
    if left and draw(st.booleans()):
        right.insert(0, draw(factors(left[-1][0])))
    return left, right


@settings(max_examples=500, deadline=None)
@given(word_pairs())
def test_a_joined_word_is_the_canonical_whole_word(pair):
    left, right = pair
    joined = _join(_canonical_word(left, KINDS), _canonical_word(right, KINDS))
    assert joined == _canonical_word(left + right, KINDS)


@st.composite
def polynomials(draw):
    """Raw (coefficient, word) terms of one to three nonempty words.  Sums
    and products of these coefficients are exact, so merging like terms
    before or after multiplying gives the same bits."""
    return draw(st.lists(
        st.tuples(st.sampled_from([1.0, -2.0, 0.5j, 1.5 - 1j]),
                  st.lists(factors(), min_size=1, max_size=4)),
        min_size=1, max_size=3))


@settings(max_examples=300, deadline=None)
@given(polynomials(), polynomials())
def test_a_product_is_the_polynomial_of_the_raw_products(p_terms, q_terms):
    p = NcPolynomial.from_terms(VARIABLES, p_terms)
    q = NcPolynomial.from_terms(VARIABLES, q_terms)
    whole = NcPolynomial.from_terms(
        VARIABLES, [(a * b, u + v) for a, u in p_terms for b, v in q_terms])
    assert p * q == whole
