"""Verdicts that the tolerance rule gets wrong today, pinned as strict xfails.

Every relation is checked at tol * max(1, largest norm in the
assignment).  That slack is an absolute 1e-9 below norm 1, ignores the
degree of the relation, and widens with any variable of the assignment,
mentioned or not.  The paper's transfer argument needs a relation
checked the same way at every scale, so each test asserts the verdict a
scale-covariant slack gives; ROADMAP item 2 is that rule.  With
``xfail_strict`` a case that starts passing fails the run, so the change
that fixes one also removes its mark.
"""

import numpy as np
import pytest

from matrel.matcalc import TolerancePolicy, op_norm
from matrel.relations import Assignment, check_all, parse_relations

POLICY = TolerancePolicy(tol_eq=1e-9, tol_psd=1e-9)


def _verdict(text: str, **mats):
    _, rels = parse_relations(text)
    return check_all(rels, Assignment(mats), POLICY)


def _small_pair(t: float) -> dict[str, np.ndarray]:
    """x = t diag(1, -1) and y = t [[0, 1], [1, 0]]: far from 0, from
    positive and from commuting, relative to their size."""
    return {"x": t * np.diag([1.0, -1.0]),
            "y": t * np.array([[0.0, 1.0], [1.0, 0.0]])}


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: the slack ignores degree; ||x^5|| = 1e15 but the "
    "slack is 1e-6, so rounding fails it with margin -0.174"))
def test_high_degree_identity_holds_at_large_scale():
    # y = x^2 makes x^5 - y^2 x vanish in exact arithmetic
    rng = np.random.default_rng(0)
    g = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    h = (g + g.conj().T) / 2
    x = 1000.0 * h / op_norm(h)
    assert _verdict("var x; var y; rel x^5 - y^2 x = 0;",
                    x=x, y=x @ x).satisfied


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: below norm 1 the slack is an absolute 1e-9, so "
    "t = 1e-12 passes with margin 9.99e-10"))
@pytest.mark.parametrize("rel", ["x = 0", "x >= 0"])
def test_tiny_nonzero_matrix_fails(rel):
    assert not _verdict(f"var x; var y; rel {rel};",
                        **_small_pair(1e-12)).satisfied


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: below norm 1 the slack is an absolute 1e-9, so "
    "||xy - yx|| = 2e-14 passes with margin 1e-9"))
def test_tiny_noncommuting_pair_fails():
    assert not _verdict("var x; var y; rel x y - y x = 0;",
                        **_small_pair(1e-7)).satisfied


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: the slack reads y, which the relation does not "
    "mention, so x = 1e-6 diag(1, -1) passes with margin 9e-6"))
def test_bystander_variable_does_not_widen_the_slack():
    assert not _verdict("var x; var y; rel x = 0;",
                        x=1e-6 * np.diag([1.0, -1.0]),
                        y=1e4 * np.eye(2)).satisfied
