from fractions import Fraction

import numpy as np
import pytest

from matrel.ncpoly import (
    MAX_EXPANSION,
    ConstantTermError,
    ExponentError,
    NcPolynomial,
    ParseError,
    PolyError,
    UnknownVariableError,
    Variable,
    evaluate,
    format_poly,
    homogeneity,
    parse_poly,
)

X = Variable("x", "general")
XH = Variable("x", "hermitian")
XP = Variable("x", "positive")
Y = Variable("y", "general")
U = Variable("u", "unitary")
GEN = {"x": X, "y": Y}
HERM = {"x": XH, "y": Y}
POS = {"x": XP, "y": Y}


def test_variable_validation():
    with pytest.raises(PolyError):
        Variable("rel", "general")
    with pytest.raises(PolyError):
        Variable("x", "selfadjoint")
    with pytest.raises(PolyError):
        Variable("2x", "general")
    assert Variable("x", "hermitian").selfadjoint
    assert not Variable("x", "contraction").selfadjoint


@pytest.mark.parametrize(
    "text",
    [
        "x^2 - x",
        "x y - y x",
        "x* x - x x*",
        "-x + y",
        "2.0 x y* - 1.0i y",
        "(2.5-3.0i) x y - x^3",
        "x^(1/2) y x^(1/2)",
        "0",
    ],
)
def test_print_parse_fixed_point(text):
    vars_ = POS if "(1/2)" in text else GEN
    p = parse_poly(text, vars_)
    printed = format_poly(p)
    again = parse_poly(printed, vars_)
    assert format_poly(again) == printed == str(p)
    assert again == p


def test_canonical_ordering_and_merge():
    assert format_poly(parse_poly("-x + x^2", GEN)) == "x^2 - x"
    assert parse_poly("x x", GEN) == parse_poly("x^2", GEN)
    assert parse_poly("x^(1/2) x^(1/2)", POS) == parse_poly("x", POS)
    assert format_poly(parse_poly("x + x^3 + x^2", GEN)) == "x^3 + x^2 + x"
    assert parse_poly("x - x", GEN) == parse_poly("0", GEN)
    assert format_poly(parse_poly("x - x", GEN)) == "0"


def test_adjoint_postfix_binds_to_one_factor():
    # "x*x" reads as (x*)(x), not as a squared adjoint.
    assert parse_poly("x*x", GEN) == parse_poly("x* x", GEN)
    assert parse_poly("x*x*", GEN) == parse_poly("x*^2", GEN)


def test_star_collapses_on_selfadjoint_kinds():
    assert parse_poly("x*", HERM) == parse_poly("x", HERM)
    assert format_poly(parse_poly("x* x", HERM)) == "x^2"


def test_adjoint_reverses_and_conjugates():
    p = parse_poly("x y", GEN)
    assert format_poly(p.adjoint()) == "y* x*"
    q = parse_poly("2.0i x", GEN)
    assert format_poly(q.adjoint()) == "-2.0i x*"
    comm = parse_poly("x y - y x", HERM)
    assert comm.adjoint() == parse_poly("y* x - x y*", HERM)


def test_group_adjoint_and_power():
    p = parse_poly("(x y)*", GEN)
    assert p == parse_poly("y* x*", GEN)
    q = parse_poly("(x + y)^2", GEN)
    assert q == parse_poly("x^2 + x y + y x + y^2", GEN)


def test_double_star_cancels():
    assert parse_poly("x**", GEN) == parse_poly("x", GEN)


@pytest.mark.parametrize(
    "text,err",
    [
        ("1 + x", ConstantTermError),
        ("7.5", ConstantTermError),
        ("x + z", UnknownVariableError),
        ("x^0", ParseError),
        ("x^(1/2)", ParseError),  # fractional power needs a self-adjoint kind
        ("x^2^3", ParseError),
        ("x^(1/0)", ParseError),
        ("(x + y)^(1/2)", ParseError),
        ("i", ParseError),
        ("x +", ParseError),
        ("2 *", ParseError),
        ("", ParseError),
        # numbers and coefficients must stay finite
        ("1e309 x", ParseError),
        ("1e-400 x", ParseError),
        ("0.0001e-397 x", ParseError),
        ("1e308 x + 1e308 x", PolyError),
        ("10 (1e308 x)", PolyError),
        ("(1e200 x)^2", PolyError),
    ],
)
def test_rejected_inputs(text, err):
    with pytest.raises(err):
        parse_poly(text, GEN)


def test_number_literals_out_of_range():
    from matrel.ncpoly import tokenize
    for text in ("1e309", "1e-400", "0.0001e-397", "000.10E-999"):
        with pytest.raises(ParseError, match=f"number '{text}' is out of range"):
            tokenize(text)
    # zero written any way is zero, and the smallest subnormal is not zero
    for text, value in (("0e5", 0.0), ("0.0e-400", 0.0), ("00.", 0.0),
                        ("5e-324", 5e-324)):
        assert tokenize(text)[0].value == value


def test_underflowing_coefficient_drops_its_monomial():
    p = parse_poly("1e-200 (1e-200 x)", GEN)
    assert p == parse_poly("0", GEN) and format_poly(p) == "0"


@pytest.mark.parametrize("make, err, message", [
    (lambda: NcPolynomial.from_terms([X], [(1.0, (("x", False, Fraction(0)),))]),
     ExponentError, "exponent 0 of 'x' must be positive"),
    (lambda: NcPolynomial.from_terms(
        [X], [(1.0, (("x", False, Fraction(1, 2)),))]),
     ExponentError, "fractional exponent 1/2 needs a self-adjoint variable, "
                    "and 'x' is general"),
    (lambda: NcPolynomial.from_terms([X], [(1.0, ())]),
     ConstantTermError, "polynomials have no constant term"),
    (lambda: NcPolynomial.from_terms([X, XH], [(1.0, [("x", False, 1)])]),
     PolyError, "duplicate variable names in ['x', 'x']"),
    (lambda: NcPolynomial.from_terms([X], [(1.0, [("y", False, 1)])]),
     PolyError, "word uses undeclared variable 'y'"),
    (lambda: parse_poly("x", GEN) + parse_poly("x", {"x": X}),
     PolyError, "polynomials are over different variable sets"),
    (lambda: parse_poly("x )", GEN),
     ParseError, "trailing input ')' (at offset 2)"),
], ids=["zero-exponent", "fractional-general", "constant", "duplicate-names",
        "undeclared", "different-sets", "trailing-input"])
def test_construction_rejects_bad_input(make, err, message):
    with pytest.raises(err) as info:
        make()
    assert str(info.value) == message


def test_parse_error_carries_offset():
    with pytest.raises(ParseError) as info:
        parse_poly("x + $", GEN)
    assert info.value.pos == 4
    assert "offset" in str(info.value)


@pytest.mark.parametrize(
    "text", ["x^0", "x^(0/3)", "(x)^0", "(x x)^(0/2)", "y (x + y)^0"])
def test_zero_exponent_is_a_parse_error_at_its_caret(text):
    # a group's exponent is checked where a variable's is, before any power
    at = text.index("^")
    with pytest.raises(ParseError) as info:
        parse_poly(text, GEN)
    assert info.value.pos == at
    assert str(info.value) == f"exponent 0 must be positive (at offset {at})"


def test_zero_literal_only_constant_allowed():
    assert parse_poly("0", GEN).monomials == ()
    with pytest.raises(ConstantTermError):
        parse_poly("x + 1", GEN)
    # explicit zero coefficient just drops the term
    assert parse_poly("0 x + y", GEN) == parse_poly("y", GEN)


def test_scientific_notation_coefficients():
    p = parse_poly("1e-10 x", GEN)
    assert abs(p.monomials[0].coeff - 1e-10) < 1e-24
    assert parse_poly(format_poly(p), GEN) == p


def test_complex_coefficients_round_trip():
    p = parse_poly("(1.5-2.0i) x y", GEN)
    assert p.monomials[0].coeff == 1.5 - 2.0j
    assert parse_poly(format_poly(p), GEN) == p
    q = parse_poly("2i x", GEN)
    assert q.monomials[0].coeff == 2.0j


def test_arithmetic_on_polynomials():
    p = parse_poly("x^2 - x", GEN)
    q = parse_poly("x y", GEN)
    assert (p + q) - q == p
    assert p * q == parse_poly("x^2 x y - x x y", GEN)
    assert 2.0 * p == parse_poly("2.0 x^2 - 2.0 x", GEN)
    assert p ** 2 == p * p
    with pytest.raises(PolyError):
        p ** 0


def test_products_past_the_expansion_bound_are_refused_unbuilt(monkeypatch):
    x, xy, s = (parse_poly(t, GEN) for t in ("x", "x y", "x + y"))
    # within the bound: 1000 factors, and 7 2^6 2 = 896
    assert x ** MAX_EXPANSION == parse_poly(f"x^{MAX_EXPANSION}", GEN)
    s7 = s ** 7
    assert len(s7.monomials) == 2 ** 7

    def build(*args):
        raise AssertionError("a refused product was built")
    # every polynomial with terms is collected here
    monkeypatch.setattr(NcPolynomial, "_collect", build)
    for refused in (lambda: x ** (MAX_EXPANSION + 1), lambda: x ** 10 ** 20,
                    lambda: xy ** 501, lambda: s ** 8, lambda: s ** 10 ** 20,
                    lambda: s7 * s, lambda: s * s7,
                    lambda: NcPolynomial.zero(GEN) ** 10 ** 20):
        with pytest.raises(PolyError, match="^a product expands to more "
                                            "than 1000 factors$"):
            refused()


def test_homogeneity():
    assert homogeneity(parse_poly("x y + y x", GEN)) == Fraction(2)
    assert homogeneity(parse_poly("x^(1/3) y x^(2/3)", POS)) == Fraction(2)
    assert homogeneity(parse_poly("x^2 - x", GEN)) is None
    with pytest.raises(PolyError):
        homogeneity(parse_poly("0", GEN))


def test_evaluate_commutator():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = evaluate(parse_poly("x y - y x", GEN), {"x": a, "y": b})
    assert np.allclose(out, [[0.0, 1.0], [0.0, 0.0]])


def test_evaluate_scalar_point():
    out = evaluate(parse_poly("x^2 - x", GEN), {"x": np.array([[0.5]])})
    assert np.allclose(out, [[-0.25]])


def test_evaluate_fractional_power():
    out = evaluate(parse_poly("x^(1/2)", POS), {"x": np.diag([4.0, 9.0])})
    assert np.allclose(out, np.diag([2.0, 3.0]), atol=1e-12)


def test_evaluate_takes_each_fractional_factor_once_per_call(monkeypatch):
    from matrel import matcalc

    calls = []
    power = matcalc.fractional_power
    monkeypatch.setattr(
        matcalc, "fractional_power",
        lambda m, exp, policy, decomposition:
        calls.append(exp) or power(m, exp, policy, decomposition))
    p = parse_poly("x^(1/2) y x^(1/2) + x^(1/2) + x^(3/2)", POS)
    a = {"x": np.diag([4.0, 9.0]), "y": np.array([[0.0, 1.0], [1.0, 0.0]])}
    out = evaluate(p, a)
    assert sorted(calls) == [Fraction(1, 2), Fraction(3, 2)]
    evaluate(p, a)
    assert len(calls) == 4  # each plain dict is a new Assignment
    root = np.diag([2.0, 3.0])
    assert np.allclose(out, root @ a["y"] @ root + root + root ** 3)


def _counted_powers(monkeypatch):
    """Patch matcalc.fractional_power to record each call and each result
    it returns."""
    from matrel import matcalc

    calls, results = [], []
    power = matcalc.fractional_power

    def counting(m, exp, policy, decomposition):
        calls.append(exp)
        results.append(power(m, exp, policy, decomposition))
        return results[-1]

    monkeypatch.setattr(matcalc, "fractional_power", counting)
    return calls, results


def test_assignment_takes_each_fractional_power_once(monkeypatch):
    from matrel.matcalc import TolerancePolicy
    from matrel.ncpoly import Assignment

    calls, results = _counted_powers(monkeypatch)
    mats = {"x": np.diag([4.0, 9.0]), "y": np.array([[0.0, 1.0], [1.0, 0.0]])}
    a = Assignment(mats)
    p = parse_poly("x^(1/2) y", POS)
    q = parse_poly("y x^(1/2) + x^2", POS)
    out_p, out_q = evaluate(p, a), evaluate(q, a)
    assert len(calls) == 1
    assert not results[0].flags.writeable
    # the policy decides the Hermitian check and the clamp, so it is part
    # of the key
    evaluate(p, a, TolerancePolicy(tol_eq=1e-6, tol_psd=1e-6))
    assert len(calls) == 2
    assert not results[1].flags.writeable
    assert evaluate(q, a).tobytes() == out_q.tobytes()
    assert len(calls) == 2
    fresh = Assignment(mats)
    assert evaluate(p, fresh).tobytes() == out_p.tobytes()
    assert evaluate(q, fresh).tobytes() == out_q.tobytes()
    assert len(calls) == 3


def test_a_fractional_power_that_raises_is_not_kept(monkeypatch):
    from matrel.matcalc import NegativeSpectrumError
    from matrel.ncpoly import Assignment

    calls, results = _counted_powers(monkeypatch)
    a = Assignment({"x": np.diag([4.0, -1.0])})
    p = parse_poly("x^(1/2)", POS)
    for n in (1, 2):
        with pytest.raises(NegativeSpectrumError):
            evaluate(p, a)
        assert len(calls) == n and results == []


def test_evaluate_star_uses_adjoint():
    m = np.array([[0.0, 2.0], [0.0, 0.0]])
    out = evaluate(parse_poly("x* x", GEN), {"x": m})
    assert np.allclose(out, m.conj().T @ m)


def test_evaluate_zero_poly():
    out = evaluate(parse_poly("0", GEN), {"x": np.eye(3)})
    assert out.shape == (3, 3) and not out.any()


def test_evaluate_input_validation():
    from matrel.matcalc import MatrixError

    p = parse_poly("x y", GEN)
    with pytest.raises(PolyError):
        evaluate(p, {"x": np.eye(2)})
    with pytest.raises(MatrixError):
        evaluate(p, {"x": np.eye(2), "y": np.eye(3)})
    with pytest.raises(PolyError):
        evaluate(parse_poly("0", GEN), {})
    # unused declared variables do not need an assignment
    out = evaluate(parse_poly("x^2", GEN), {"x": np.array([[2.0]])})
    assert np.allclose(out, [[4.0]])


def test_evaluate_validates_a_plain_dict_as_an_assignment():
    from matrel import relations
    from matrel.matcalc import MatrixError, NonFiniteError
    from matrel.ncpoly import Assignment

    assert relations.Assignment is Assignment
    x2 = parse_poly("x^2", GEN)
    with pytest.raises(PolyError,
                       match="^an assignment needs at least one variable$"):
        evaluate(parse_poly("0", GEN), {})
    # every matrix is checked, the unused ones too
    with pytest.raises(MatrixError,
                       match="^assignment mixes dimensions 2 and 3$"):
        evaluate(x2, {"x": np.eye(2), "y": np.eye(3)})
    with pytest.raises(MatrixError, match="^'y' is 0x0; assignment "):
        evaluate(x2, {"x": np.eye(2), "y": np.zeros((0, 0))})
    with pytest.raises(NonFiniteError, match="^matrix has non-finite"):
        evaluate(x2, {"x": np.eye(2), "y": np.full((2, 2), np.nan)})
    # an Assignment is used as it is given
    a = Assignment({"x": 2 * np.eye(2), "y": np.eye(2)})
    assert np.array_equal(evaluate(x2, a), 4 * np.eye(2))


def test_seeded_random_round_trips():
    rng = np.random.default_rng(2026)
    vars_ = {"x": XH, "y": Y, "u": U}
    names = list(vars_)
    coeffs = [1.0, -1.0, 2.5, 0.5j, 1.5 - 2.0j, 3.0]
    for _ in range(60):
        terms = []
        for _ in range(rng.integers(1, 4)):
            word = []
            for _ in range(rng.integers(1, 4)):
                name = names[rng.integers(len(names))]
                star = bool(rng.integers(2))
                if name == "x" and rng.integers(3) == 0:
                    exp = Fraction(int(rng.integers(1, 4)), 2)
                else:
                    exp = Fraction(int(rng.integers(1, 4)))
                word.append((name, star, exp))
            terms.append((coeffs[rng.integers(len(coeffs))], tuple(word)))
        from matrel.ncpoly import NcPolynomial

        p = NcPolynomial.from_terms(vars_.values(), terms)
        text = format_poly(p)
        assert parse_poly(text, vars_) == p
        assert format_poly(parse_poly(text, vars_)) == text
