"""Finite assignments whose norms or Hermitian parts overflow a double.

Every entry of an assignment is finite, but an operator norm can still
overflow (2e308 for the all-1e308 matrix), and so can the sum m + m* of
the Hermitian part.  Neither may turn into a slack of inf or a margin of
NaN: a relation either gets a finite margin or fails with margin -inf.
"""

import math

import numpy as np
import pytest

from matrel import matcalc
from matrel.cli import main
from matrel.ncpoly import Assignment, Variable, parse_poly
from matrel.relations import (
    BlockPositive,
    Contraction,
    ExpRealNormBound,
    NormBound,
    OperatorOrder,
    PolyPositive,
    PolyZero,
    Positive,
    Range01,
    RealPartBound,
    SelfAdjoint,
    Unitary,
    residual,
)

# Finite entries, operator norm 2e308.
OVERFLOWING = "x\n1e308+0i 1e308+0i\n1e308+0i 1e308+0i\n"
# Positive, norm 1e308, but x + x* overflows.
BIG_DIAGONAL = "x\n1e308+0i 0+0i\n0+0i 1e308+0i\n"
# Hermitian, every part finite, but |1.5e308+1.5e308i| overflows; LAPACK
# reads such an entry as NaN.
COMPLEX_MODULUS = ("x\n0+0i 1.5e308+1.5e308i\n"
                   "1.5e308-1.5e308i 0+0i\n")


def _check(tmp_path, capsys, relations: str, matrices: str, nvars: int):
    rel = tmp_path / "a.rel"
    mat = tmp_path / "a.mat"
    rel.write_text(relations)
    mat.write_text(f"dim 2 vars {nvars}\n{matrices}")
    status = main(["check", str(rel), str(mat)])
    return status, capsys.readouterr().out


def _rows(out: str) -> dict[str, list[str]]:
    """The verdict table: relation text -> [ok, margin, residual]."""
    rows = {}
    for line in out.splitlines()[1:-1]:
        *rel, ok, margin, res = line.split()
        rows[" ".join(rel)] = [ok, margin, res]
    return rows


def test_an_overflowing_norm_fails_the_relations_of_a_bystander(
        tmp_path, capsys):
    status, out = _check(
        tmp_path, capsys,
        "var x;\nvar y;\nrel y = 0;\nrel norm(y) <= 0.5;\nrel y <= 0.5 y;\n",
        OVERFLOWING + "y\n1+0i 0+0i\n0+0i 1+0i\n", 2)
    assert status == 1
    assert "nan" not in out
    assert not any(line.startswith("satisfied") for line in out.splitlines())
    assert all(row == ["NO", "-inf", "inf"] for row in _rows(out).values())


def test_an_overflowing_norm_fails_its_own_relations(tmp_path, capsys):
    status, out = _check(
        tmp_path, capsys,
        "var x;\nrel x = 0;\nrel norm(x) <= 1;\nrel x >= 0;\n"
        "rel re(x) <= 1;\n", OVERFLOWING, 1)
    assert status == 1
    assert "nan" not in out
    rows = _rows(out)
    assert len(rows) == 4
    assert all(row == ["NO", "-inf", "inf"] for row in rows.values())


def test_approx_of_an_overflowing_norm_leaves_a_residual_at_full_rank(
        tmp_path, capsys):
    rel = tmp_path / "a.rel"
    mat = tmp_path / "a.mat"
    rel.write_text("var x;\nrel norm(x) <= 1;\n")
    mat.write_text("dim 2 vars 1\n" + OVERFLOWING)
    assert main(["approx", str(rel), str(mat), "--procedure", "loewner",
                 "--schedule", "1,2,3"]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    residuals = {int(line.split()[0]): float(line.split()[1])
                 for line in out.splitlines()[1:-1]}
    assert residuals[2] > 0 and residuals[3] > 0
    assert out.splitlines()[-1] == "final rank 3: worst residual inf"


def test_an_overflowing_complex_modulus_fails_every_relation(
        tmp_path, capsys):
    status, out = _check(
        tmp_path, capsys,
        "var x hermitian;\nvar y;\nrel x = 0;\nrel norm(x) <= 1;\n"
        "rel x >= 0;\nrel re(x) <= 1;\nrel y = 0;\n",
        COMPLEX_MODULUS + "y\n1+0i 0+0i\n0+0i 1+0i\n", 2)
    assert status == 1
    assert "nan" not in out
    rows = _rows(out)
    assert len(rows) == 6  # x hermitian too
    assert all(row == ["NO", "-inf", "inf"] for row in rows.values())
    rel = tmp_path / "a.rel"
    rel.write_text("var x hermitian;\nrel norm(x) <= 1;\n")
    (tmp_path / "a.mat").write_text("dim 2 vars 1\n" + COMPLEX_MODULUS)
    assert main(["approx", str(rel), str(tmp_path / "a.mat"),
                 "--procedure", "loewner", "--schedule", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    assert out.splitlines()[-1] == "final rank 2: worst residual inf"


def test_an_overflowing_modulus_in_a_product_fails_its_relations(
        tmp_path, capsys):
    # x y has finite entries 1.5e308(1 +- i), which LAPACK's eigvalsh
    # reads as NaN; the eigenvalues of a quarter of it overflow to -inf
    status, out = _check(
        tmp_path, capsys,
        "var x hermitian;\nvar y hermitian;\nrel x y >= 0;\nrel x y <= x;\n",
        "x\n1.5e154+0i 0+0i\n0+0i 1.5e154+0i\n"
        "y\n0+0i 1e154+1e154i\n1e154-1e154i 0+0i\n", 2)
    assert status == 1
    assert "nan" not in out
    rows = _rows(out)
    assert rows["x y >= 0"] == rows["x y <= x"] == ["NO", "-inf", "inf"]
    assert out.splitlines()[-1].endswith("worst margin -inf)")


def test_the_detail_says_what_overflowed():
    xy = (Variable("x"), Variable("y"))
    bystander = Assignment({"x": np.full((2, 2), 1e308), "y": np.eye(2)})
    verdict = residual(PolyZero(parse_poly("y", xy)), bystander)
    assert verdict.detail == "an operator norm of the assignment overflowed"
    verdict = residual(NormBound(parse_poly("x^4000", xy[:1]), 1.0),
                       Assignment({"x": np.diag([800.0, 2.0])}))
    assert verdict.margin == -math.inf
    assert verdict.detail == "evaluation overflowed to non-finite entries"


def test_a_hermitian_part_near_the_largest_double(tmp_path, capsys):
    status, out = _check(
        tmp_path, capsys,
        "var x;\nrel x >= 0;\nrel re(x) <= 1;\nrel blockpos(x, x, x);\n",
        BIG_DIAGONAL, 1)
    assert status == 1  # re(x) <= 1 fails; nothing is a usage error
    assert "nan" not in out
    assert _rows(out) == {
        "x >= 0": ["yes", "1.000000e+308", "0.000000e+00"],
        "re(x) <= 1.0": ["NO", "-1.000000e+308", "1.000000e+308"],
        "blockpos(x, x, x)": ["yes", "1.000000e+299", "0.000000e+00"],
    }


def test_real_part_halves_before_it_adds():
    m = np.array([[1e308, 1e308], [-1e308, 1e308j]])
    out = matcalc.real_part(m)
    assert np.all(np.isfinite(out))
    assert out.tolist() == [[1e308, 0], [0, 0]]


def test_a_scale_that_overflows_raises_and_is_not_kept(monkeypatch):
    a = Assignment({"x": np.full((2, 2), 1e308), "y": np.eye(2)})
    calls = []
    norm = matcalc.op_norm
    monkeypatch.setattr(matcalc, "op_norm",
                        lambda m: calls.append(1) or norm(m))
    for _ in range(2):
        with pytest.raises(matcalc.NonFiniteError):
            a.scale()
    # the norm of x is kept, and only the scale is asked again
    assert len(calls) == 1


_X = (Variable("x"),)
_P = parse_poly("x", _X)
RELATIONS = [
    PolyZero(_P),
    PolyPositive(_P),
    NormBound(_P, 1.0),
    NormBound(_P, 1.0, strict=True),
    OperatorOrder(_P, parse_poly("2 x", _X)),
    SelfAdjoint("x"),
    Positive("x"),
    Range01("x"),
    Unitary("x"),
    Contraction("x"),
    BlockPositive(_P, _P, _P),
    RealPartBound("x", 1.0),
    ExpRealNormBound("x", 1.0),
]

SHAPES = {
    "ones": np.ones((2, 2)),
    "diagonal": np.eye(2),
    "hermitian": np.array([[1.0, 1j], [-1j, -1.0]]),
    "nilpotent": np.array([[0.0, 1.0], [0.0, 0.0]]),
    # at t = 1e308 a finite entry whose modulus overflows
    "complex": np.array([[0.0, 1.5 + 1.5j], [1.5 - 1.5j, 0.0]]),
}


def _kind(rel) -> str:
    return type(rel).__name__ + ("Strict" if getattr(rel, "strict", False)
                                 else "")


@pytest.mark.parametrize("rel", RELATIONS, ids=_kind)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("t", [1e-300, 1.0, 1e300, 1e308])
def test_every_margin_is_a_number_and_a_pass_is_finite(rel, shape, t):
    verdict = residual(rel, Assignment({"x": t * SHAPES[shape]}))
    assert not math.isnan(verdict.margin)
    assert verdict.margin != math.inf
    if verdict.satisfied:
        assert math.isfinite(verdict.margin)
