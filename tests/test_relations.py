import warnings

import numpy as np
import pytest

from matrel import matcalc
from matrel.matcalc import TolerancePolicy
from matrel.ncpoly import ParseError, PolyError, Variable, parse_poly
from matrel.relations import (
    Assignment,
    BlockPositive,
    Contraction,
    ExpRealNormBound,
    NormBound,
    OperatorOrder,
    PolyPositive,
    Positive,
    Range01,
    RealPartBound,
    SelfAdjoint,
    Unitary,
    check_all,
    describe,
    essential_dim,
    format_assignment,
    format_relations,
    parse_assignment,
    parse_relations,
    product_rep,
    residual,
)

POLICY = TolerancePolicy(tol_eq=1e-9, tol_psd=1e-9)

IDEM = "var x;\nrel x^2 - x = 0;\n"

TORUS = (
    "var u unitary;\n"
    "var v unitary;\n"
    "rel norm(u v - v u) <= 1.5;\n"
)


def _single(name, mat):
    return Assignment({name: mat})


def test_parse_injects_kind_relations_in_order():
    variables, rels = parse_relations(TORUS)
    assert list(variables) == ["u", "v"]
    assert rels[0] == Unitary("u")
    assert rels[1] == Unitary("v")
    assert isinstance(rels[2], NormBound)
    assert rels[2].bound == 1.5 and not rels[2].strict


def test_relation_file_round_trip():
    for text in (IDEM, TORUS,
                 "var x positive;\nvar y hermitian;\nrel x <= y;\n",
                 "var a;\nrel blockpos(a, a* a, a a*);\n",
                 "var a;\nrel re(a) <= 2.0;\nrel normexp_re(a) <= 1.0;\n",
                 "var a;\nrel norm(a) < 1.0;\n"):
        variables, rels = parse_relations(text)
        printed = format_relations(variables, rels)
        assert printed == text
        v2, r2 = parse_relations(printed)
        assert v2 == variables and r2 == rels


@pytest.mark.parametrize(
    "text",
    [
        "rel x = 0;",                        # no declarations
        "var x;\nrel x = 0;\nvar y;",        # declaration after relations
        "var x;\nvar x;",                    # duplicate
        "var rel;",                          # reserved word
        "var x funky;",                      # unknown kind
        "var x;\nrel x = 0",                 # missing semicolon
        "var x;\nrel norm(x) < 0.0;",        # strict bound must be positive
        "var x;\nrel normexp_re(x) <= 0.5;"  # bound below the identity norm
        ,
        "var x;\nrel re(x) <= 0.0;",
        "var x;\nrel x >= y;",               # order needs poly <= poly
        "var x;\nrel norm(x) = 0;",
        # non-finite literals, bounds and coefficients
        "var x;\nrel norm(x) <= 1e309;",
        "var x;\nrel re(x) <= 1e309;",
        "var x;\nrel 1e309 x = 0;",
        "var x;\nrel 1e308 x + 1e308 x = 0;",
        "var x;\nrel 10 (1e308 x) = 0;",
        "var x;\nrel (1e200 x)^2 = 0;",
    ],
)
def test_rejected_relation_files(text):
    with pytest.raises(ParseError):
        parse_relations(text)


def test_formatter_refuses_kindless_side_relations():
    x = Variable("x", "general")
    with pytest.raises(ValueError):
        format_relations({"x": x}, [SelfAdjoint("x")])


def test_residual_poly_zero_hand_value():
    _, rels = parse_relations(IDEM)
    v = residual(rels[0], _single("x", [[0.5]]), POLICY)
    # норм of p(x) is 0.25, slack is 1e-9 at scale 1
    assert not v.satisfied
    assert abs(v.residual - (0.25 - 1e-9)) < 1e-15
    assert v.margin == -v.residual


def test_residual_norm_bound_and_strictness():
    x = Variable("x", "general")
    p = parse_poly("x", {"x": x})
    loose = NormBound(p, 0.25)
    strict = NormBound(p, 0.25, strict=True)
    at_bound = _single("x", [[0.25]])
    below = _single("x", [[0.125]])
    assert residual(loose, at_bound, POLICY).satisfied
    v = residual(strict, at_bound, POLICY)
    assert not v.satisfied and v.margin == 0.0 and v.residual == 0.0
    assert residual(strict, below, POLICY).satisfied
    with pytest.raises(ValueError):
        NormBound(p, 0.0, strict=True)
    with pytest.raises(ValueError):
        NormBound(p, -1.0)


def test_residual_operator_order():
    x = Variable("x", "hermitian")
    y = Variable("y", "hermitian")
    vs = {"x": x, "y": y}
    rel = OperatorOrder(parse_poly("x", vs), parse_poly("y", vs))
    a = Assignment({"x": np.diag([0.0, 1.0]), "y": np.diag([1.0, 1.0])})
    assert residual(rel, a, POLICY).satisfied
    b = Assignment({"x": np.diag([1.0, 1.0]), "y": np.diag([0.0, 1.0])})
    v = residual(rel, b, POLICY)
    assert not v.satisfied and abs(v.residual - (1.0 - 1e-9)) < 1e-12


def test_residual_side_conditions():
    herm = residual(SelfAdjoint("x"), _single("x", [[0, 1], [0, 0]]), POLICY)
    assert not herm.satisfied and abs(herm.residual - 1.0) < 1e-8
    pos = residual(Positive("x"), _single("x", np.diag([1.0, -1.0])), POLICY)
    assert not pos.satisfied and abs(pos.residual - 1.0) < 1e-8
    assert residual(Positive("x"), _single("x", np.diag([1.0, 0.0])), POLICY).satisfied
    assert residual(Range01("x"), _single("x", np.diag([0.5, 1.0])), POLICY).satisfied
    hi = residual(Range01("x"), _single("x", np.diag([1.5])), POLICY)
    assert not hi.satisfied and abs(hi.residual - 0.5) < 1e-8
    two = residual(Contraction("x"), _single("x", 2 * np.eye(2)), POLICY)
    assert not two.satisfied and abs(two.residual - 1.0) < 1e-8


def test_residual_unitary():
    w = np.exp(2j * np.pi / 3)
    clock = np.diag([1.0, w, w * w])
    assert residual(Unitary("u"), _single("u", clock), POLICY).satisfied
    v = residual(Unitary("u"), _single("u", 2 * np.eye(2)), POLICY)
    assert not v.satisfied and abs(v.residual - 3.0) < 1e-7


def test_residual_block_positive():
    a = Variable("a", "general")
    pa = parse_poly("a", {"a": a})
    const_like = BlockPositive(pa, parse_poly("a* a", {"a": a}),
                               parse_poly("a a*", {"a": a}))
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert residual(const_like, _single("a", m), POLICY).satisfied
    bad = BlockPositive(pa, parse_poly("0", {"a": a}), parse_poly("0", {"a": a}))
    v = residual(bad, _single("a", np.eye(2)), POLICY)
    assert not v.satisfied and abs(v.residual - 1.0) < 1e-8


def test_residual_real_part_and_exp_bounds():
    m = np.array([[2.0, 5.0], [0.0, 2.0]])
    ok = residual(RealPartBound("a", 6.0), _single("a", m), POLICY)
    assert ok.satisfied
    v = residual(RealPartBound("a", 1.0), _single("a", m), POLICY)
    assert not v.satisfied and abs(v.margin - (1.0 - 4.5 + 1e-9 * 5.385164807134504)) < 1e-9
    assert residual(ExpRealNormBound("a", 1.0), _single("a", np.zeros((2, 2))), POLICY).satisfied
    big = residual(ExpRealNormBound("a", 2.0), _single("a", np.diag([2.0])), POLICY)
    assert not big.satisfied and abs(big.residual - (np.exp(2.0) - 2.0)) < 1e-6


def test_non_hermitian_value_fails_positivity_with_detail():
    x = Variable("x", "general")
    rel = PolyPositive(parse_poly("x", {"x": x}))
    v = residual(rel, _single("x", [[0.0, 1.0], [0.0, 0.0]]), POLICY)
    assert not v.satisfied
    assert "self-adjoint" in v.detail


def test_non_hermitian_value_fails_positivity_when_tol_eq_is_below_tol_psd():
    # The defect 1e-6 lies between the equality slack 1e-9 and the
    # positivity slack 1e-3: the matrix is not self-adjoint, so every
    # eigenvalue relation on it fails by its defect beyond tol_eq.
    policy = TolerancePolicy(tol_eq=1e-9, tol_psd=1e-3)
    m = np.array([[1.0, 1e-6], [0.0, 1.0]])
    a = _single("x", m)
    vs = {"x": Variable("x", "general")}
    x = parse_poly("x", vs)
    eq_slack = 1e-9 * max(1.0, a.max_norm())
    defect = matcalc.hermitian_defect(m)
    for rel in (Positive("x"), Range01("x"), PolyPositive(x),
                OperatorOrder(x - x, x), BlockPositive(x, x, x)):
        v = residual(rel, a, policy)
        assert not v.satisfied, rel
        assert v.margin == eq_slack - defect < 0
        assert v.detail == f"not self-adjoint, defect {defect:.3e}"


def _skew_rank_one(t, direction):
    """A Hermitian matrix of norm below 1 plus a skew part whose defect
    ||m - m*|| is t, of rank one along ``direction``."""
    h = np.diag([0.2, 0.4, 0.6, 0.8]).astype(complex)
    return h + 0.5j * t * np.outer(direction, direction.conj())


@pytest.mark.parametrize("factor", [0.25, 0.5, 0.51, 0.99, 1.01, 4.0])
def test_defect_shortcut_gives_the_svd_verdict(monkeypatch, factor):
    # The slack is tol_eq, since the assignment's norm is below 1.  Along
    # a basis vector the row-sum bound equals the defect, so the SVD is
    # skipped up to half the slack; along a spread vector it is not.
    rng = np.random.default_rng(11)
    spread = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    vs = {"x": Variable("x", "general")}
    x = parse_poly("x", vs)
    rels = (Positive("x"), Range01("x"), PolyPositive(x),
            OperatorOrder(x - x, x), BlockPositive(x, x, x))
    svd_calls = []
    defect = matcalc.hermitian_defect
    monkeypatch.setattr(matcalc, "hermitian_defect",
                        lambda m: svd_calls.append(1) or defect(m))
    def outcomes(a):
        try:
            power = matcalc.fractional_power(a["x"], 0.5, POLICY).tobytes()
        except matcalc.NotHermitianError as err:
            power = str(err)
        return [residual(rel, a, POLICY) for rel in rels], power

    for direction in (np.eye(4)[0], spread / np.linalg.norm(spread)):
        a = _single("x", _skew_rank_one(factor * POLICY.tol_eq, direction))
        assert a.max_norm() <= 1.0
        svd_calls.clear()
        fast, power = outcomes(a)
        skipped = not svd_calls
        with monkeypatch.context() as patch:
            patch.setattr(matcalc, "hermitian_defect_bound", lambda m: np.inf)
            assert outcomes(a) == (fast, power)
        for v in fast:
            assert v.satisfied is (factor < 1)
            assert v.detail.startswith("not self-adjoint") is (factor > 1)
        assert isinstance(power, str) is (factor > 1)
        if direction[0] == 1:
            assert skipped is (factor <= 0.5)


def test_defect_shortcut_does_not_underflow():
    # A Frobenius norm squares the 1e-170 entries of m - m* and reads 0;
    # the defect, 1e-169 or so, is far above tol_eq = 1e-300.
    rng = np.random.default_rng(5)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = np.eye(4) + 1e-170 * g
    assert np.linalg.norm(m - m.conj().T) == 0.0
    policy = TolerancePolicy(tol_eq=1e-300, tol_psd=1e-300)
    defect = matcalc.hermitian_defect(m)
    for rel in (Positive("x"), Range01("x")):
        v = residual(rel, _single("x", m), policy)
        assert not v.satisfied
        assert v.detail == f"not self-adjoint, defect {defect:.3e}"
    with pytest.raises(matcalc.NotHermitianError):
        matcalc.fractional_power(m, 0.5, policy)


def test_overflowing_evaluation_is_a_failing_verdict():
    text = ("var x hermitian;\n"
            "rel norm(x^4000) <= 1;\n"
            "rel x^4000 >= 0;\n"
            "rel normexp_re(x) <= 2;\n"
            "rel x^2 >= 0;\n")
    _, rels = parse_relations(text)
    a = Assignment({"x": np.diag([800.0, 2.0])})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdict = check_all(rels, a, POLICY)
    assert not verdict.satisfied
    assert verdict.margin == -np.inf and verdict.residual == np.inf
    assert [p.satisfied for p in verdict.parts] == [True, False, False, False, True]
    for part in verdict.parts[1:4]:
        assert part.margin == -np.inf and part.residual == np.inf
        assert "overflow" in part.detail



def test_fractional_power_of_a_bad_matrix_is_a_failing_verdict():
    _, rels = parse_relations("var x hermitian;\nrel x^(1/2) >= 0;\n")
    negative = Assignment({"x": np.array([[-1.0]])})
    nilpotent = Assignment({"x": np.array([[0.0, 1.0], [0.0, 0.0]])})
    for a, hermitian, words in ((negative, True, "eigenvalue -1.000e+00"),
                                (nilpotent, False, "not Hermitian")):
        verdict = check_all(rels, a, POLICY)
        assert not verdict.satisfied
        assert verdict.parts[0].satisfied is hermitian
        power = verdict.parts[1]
        assert not power.satisfied
        assert power.margin == -np.inf and power.residual == np.inf
        assert words in power.detail

def test_scale_grows_with_assignment():
    # The same 1e-4 idempotency defect passes once a large bystander
    # variable raises the tolerance scale, and fails at scale one.
    _, rels = parse_relations("var x;\nvar y;\nrel x^2 - x = 0;\n")
    near_proj = np.diag([1.0, 1e-4])
    big = Assignment({"x": near_proj, "y": 1e6 * np.eye(2)})
    assert big.max_norm() == 1e6
    assert POLICY.slack(big.max_norm()) == (1e-9 * 1e6, 1e-9 * 1e6)
    assert residual(rels[0], big, POLICY).satisfied
    small = Assignment({"x": near_proj, "y": np.eye(2)})
    assert POLICY.slack(small.max_norm()) == (1e-9, 1e-9)
    assert not residual(rels[0], small, POLICY).satisfied


def test_check_all_aggregates():
    variables, rels = parse_relations(TORUS)
    w = np.exp(2j * np.pi / 4)
    u = np.diag([w ** k for k in range(4)])
    v = np.eye(4, k=1).astype(complex)
    v[3, 0] = 1.0
    verdict = check_all(rels, Assignment({"u": u, "v": v}), POLICY)
    assert verdict.satisfied
    assert len(verdict.parts) == 3
    assert verdict.margin == min(p.margin for p in verdict.parts)
    assert "3 of 3" in verdict.detail
    verdict2 = check_all(rels, Assignment({"u": u, "v": np.eye(4) * 2}), POLICY)
    assert not verdict2.satisfied
    assert verdict2.residual == max(p.residual for p in verdict2.parts)


@pytest.mark.parametrize("rel", [
    SelfAdjoint("y"), Positive("y"), Range01("y"), Unitary("y"),
    Contraction("y"), RealPartBound("y", 1.0), ExpRealNormBound("y", 2.0),
])
def test_relation_on_unassigned_variable_raises_poly_error(rel):
    with pytest.raises(PolyError) as err:
        residual(rel, _single("x", np.eye(2)), POLICY)
    assert str(err.value) == "no matrix assigned to variable 'y'"


def test_residual_is_clipped_margin():
    rng = np.random.default_rng(31)
    _, rels = parse_relations(IDEM + "rel x >= 0;\nrel norm(x) <= 1.0;\n")
    for _ in range(25):
        m = rng.standard_normal((3, 3))
        a = _single("x", (m + m.T) / 2)
        for rel in rels:
            v = residual(rel, a, POLICY)
            assert v.residual == max(0.0, -v.margin)
            assert v.satisfied == (v.margin >= 0.0)


def test_product_rep_dims_add():
    a = Assignment({"x": np.eye(2)})
    b = Assignment({"x": np.zeros((3, 3))})
    prod = product_rep([a, b])
    assert prod.dim == 5
    assert np.allclose(prod["x"], np.diag([1.0, 1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        product_rep([a, Assignment({"y": np.eye(2)})])
    with pytest.raises(ValueError):
        product_rep([])


def test_essential_dim():
    assert essential_dim(Assignment({"x": np.diag([1.0, 0.0])})) == 1
    assert essential_dim(Assignment({"x": np.zeros((4, 4))})) == 0
    assert essential_dim(Assignment({"x": np.diag([1.0, 1.0, 0.0]),
                                     "y": np.diag([0.0, 2.0, 0.0])})) == 2
    rng = np.random.default_rng(5)
    g = rng.standard_normal((6, 6))
    assert essential_dim(Assignment({"x": g})) == 6


def test_assignment_validation():
    with pytest.raises(ValueError):
        Assignment({})
    with pytest.raises(ValueError):
        Assignment({"x": np.eye(2), "y": np.eye(3)})
    with pytest.raises(matcalc.MatrixError):
        Assignment({"x": np.zeros((0, 0))})
    a = Assignment({"x": np.eye(2) * 0.5})
    assert POLICY.slack(a.max_norm()) == (1e-9, 1e-9) and a.max_norm() == 0.5
    assert "x" in a and list(a) == ["x"]


def test_assignment_file_round_trip():
    rng = np.random.default_rng(17)
    mats = {
        "u": rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)),
        "v": rng.standard_normal((3, 3)),
    }
    a = Assignment(mats)
    text = format_assignment(a)
    back = parse_assignment(text)
    for name in mats:
        assert np.array_equal(back[name], a[name])
    assert format_assignment(back) == text


ASSIGNMENT_FILE_ERRORS = {
    # missing row
    "dim 2 vars 1\nx\n1+0i 0+0i\n":
        "expected 4 nonempty lines for dim 2 and 1 variables, found 3",
    # missing variable
    "dim 2 vars 2\nx\n1+0i 0+0i\n0+0i 1+0i\n":
        "expected 7 nonempty lines for dim 2 and 2 variables, found 4",
    # bad entry
    "dim 1 vars 1\nx\nfoo\n":
        "bad matrix entry 'foo' in 'x'; entries look like 1.0-2.0i",
    # header order
    "vars 1 dim 1\nx\n1+0i\n": "bad assignment header 'vars 1 dim 1'",
    # too many entries
    "dim 1 vars 1\nx\n1+0i 2+0i\n": "row 0 of 'x' has 2 entries, expected 1",
    # no variables
    "dim 2 vars 0\n": "an assignment needs at least one variable",
    # superscript digits, which int() does not read
    "dim \u00b2 vars 1\nx\n1+0i\n": "bad assignment header 'dim \u00b2 vars 1'",
    "dim 1 vars \u00b9\nx\n1+0i\n": "bad assignment header 'dim 1 vars \u00b9'",
}


@pytest.mark.parametrize("text", list(ASSIGNMENT_FILE_ERRORS))
def test_assignment_file_errors(text):
    with pytest.raises(ParseError) as err:
        parse_assignment(text)
    assert str(err.value) == ASSIGNMENT_FILE_ERRORS[text]


def test_describe_short_forms():
    variables, rels = parse_relations(TORUS)
    texts = [describe(r) for r in rels]
    assert texts[0] == "u unitary"
    assert "norm(u v - v u) <= 1.5" in texts[2]
    _, idem = parse_relations(IDEM)
    assert describe(idem[0]) == "x^2 - x = 0"
