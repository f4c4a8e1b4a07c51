import csv

import numpy as np
import pytest

from matrel.matcalc import TolerancePolicy, op_norm
from matrel.ncpoly import evaluate
from matrel.relations import (
    Assignment,
    Range01,
    RealPartBound,
    describe,
    parse_relations,
    residual,
)
from matrel.approx import (
    SHARP,
    CompressionSchedule,
    Cutoff,
    StarStrongProbe,
    clock_shift_norm_gap,
    cutoff_step,
    loewner_step,
    model,
    quasicentral_approximation,
    residual_curves,
    star_strong_residual,
    write_residual_csv,
)

POLICY = TolerancePolicy(tol_eq=1e-9, tol_psd=1e-9)


def test_cutoff_weights_sharp():
    w = SHARP.weights(6, 4)
    assert np.array_equal(w, [1.0, 1.0, 1.0, 1.0, 0.0, 0.0])


def test_cutoff_weights_ramp():
    w = Cutoff(2).weights(6, 4)
    assert np.allclose(w, [1.0, 1.0, 2.0 / 3.0, 1.0 / 3.0, 0.0, 0.0])
    # width zero is the sharp projection again
    assert np.array_equal(Cutoff(1).weights(4, 2), [1.0, 0.5, 0.0, 0.0])


def test_cutoff_parse_and_str():
    assert Cutoff.parse("sharp") == SHARP
    assert Cutoff.parse("ramp:4") == Cutoff(4)
    assert Cutoff.parse(str(Cutoff(2))) == Cutoff(2)
    assert str(SHARP) == "sharp" and Cutoff(0) == SHARP
    for bad in ("ramp", "ramp:0", "box:3", "sharp:1"):
        with pytest.raises(ValueError):
            Cutoff.parse(bad)
    with pytest.raises(ValueError):
        Cutoff(-1)


def test_schedule_validation():
    s = CompressionSchedule.parse("8,16,32", "sharp")
    assert s.ranks == (8, 16, 32) and s.cutoff == SHARP
    with pytest.raises(ValueError):
        CompressionSchedule((4, 4), SHARP)
    with pytest.raises(ValueError):
        CompressionSchedule((), SHARP)
    with pytest.raises(ValueError):
        CompressionSchedule((0, 2), SHARP)


def test_loewner_step_is_cornerwise():
    rng = np.random.default_rng(3)
    a = Assignment({"x": rng.standard_normal((5, 5))})
    out = loewner_step(a, 3)
    assert np.array_equal(out["x"][:3, :3], a["x"][:3, :3])
    assert not out["x"][3:, :].any() and not out["x"][:, 3:].any()
    # ranks past the dimension saturate
    assert np.array_equal(loewner_step(a, 99)["x"], a["x"])


def _corner_copy(a, rank):
    """The zero-padded corner, copied entry by entry."""
    r = min(rank, a.dim)
    out = {}
    for name, m in a.items():
        c = np.zeros_like(m)
        c[:r, :r] = m[:r, :r]
        out[name] = c
    return Assignment(out)


def test_sharp_step_is_the_zero_padded_corner():
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    small = Assignment({"x": m})
    assert np.array_equal(loewner_step(small, 1)["x"],
                          [[1.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(loewner_step(small, 0)["x"], np.zeros((2, 2)))
    assert np.array_equal(loewner_step(small, 2)["x"], m)

    rng = np.random.default_rng(17)
    dim = 10
    a = Assignment({name: rng.standard_normal((dim, dim))
                    + 1j * rng.standard_normal((dim, dim))
                    for name in ("x", "y")})
    for rank in (1, 4, 9, 10, 15):
        cut, defects = cutoff_step(a, SHARP, rank)
        corner = _corner_copy(a, rank)
        for name in a:
            assert np.array_equal(cut[name], corner[name])
        assert set(defects) == {"x", "y"}

    _, rels = parse_relations(
        "var x;\nvar y;\nrel norm(x y - y x) <= 1.0;\nrel x* x <= y* y;\n"
        "rel x* x >= 0;\nrel blockpos(x, x* x, y y*);\nrel re(x) <= 2.0;\n"
        "rel normexp_re(y) <= 3.0;\n")
    schedule = CompressionSchedule((1, 4, 9, 10, 15), SHARP)
    rows = residual_curves(a, rels, schedule, "loewner", POLICY)
    expected = []
    for rank in schedule.ranks:
        w = SHARP.weights(dim, rank)
        defect = max(op_norm(w[:, None] * m - m * w[None, :])
                     for _, m in a.items())
        corner = _corner_copy(a, rank)
        for rel in rels:
            verdict = residual(rel, corner, POLICY)
            expected.append({"rank": rank, "relation": describe(rel),
                             "residual": verdict.residual,
                             "alpha": 1.0, "defect": defect})
    assert rows == expected


def test_loewner_step_preserves_order_relations():
    rng = np.random.default_rng(23)
    vs, rels = parse_relations(
        "var x hermitian;\nvar y hermitian;\nvar c contraction;\n"
        "var p positive;\nrel x <= y;\n")
    rels = rels + [Range01("p")]
    for trial in range(10):
        h = rng.standard_normal((8, 8))
        x = (h + h.T) / 2
        g = rng.standard_normal((8, 8))
        y = x + g @ g.T
        c = g / op_norm(g)
        q = rng.standard_normal((8, 8))
        p = q @ q.T
        p = p / op_norm(p)
        a = Assignment({"x": x, "y": y, "c": c, "p": p})
        for rel in rels:
            assert residual(rel, a, POLICY).satisfied, rel
        for rank in (1, 3, 5, 8):
            cut = loewner_step(a, rank)
            for rel in rels:
                assert residual(rel, cut, POLICY).satisfied, (trial, rank, rel)


def test_loewner_step_preserves_real_part_bound():
    rng = np.random.default_rng(29)
    for _ in range(10):
        m = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        beta = np.linalg.eigvalsh((m + m.conj().T) / 2).max() + 0.25
        rel = RealPartBound("a", beta)
        a = Assignment({"a": m})
        assert residual(rel, a, POLICY).satisfied
        for rank in (2, 4, 7):
            assert residual(rel, loewner_step(a, rank), POLICY).satisfied


def test_star_strong_probe_validation():
    with pytest.raises(ValueError):
        StarStrongProbe((np.ones(3),))
    e0 = np.zeros(3)
    e0[0] = 1.0
    StarStrongProbe((e0,))
    with pytest.raises(ValueError):
        StarStrongProbe((e0, np.array([1.0, 0.0])))
    with pytest.raises(ValueError):
        StarStrongProbe(())


def test_star_strong_probe_constructors():
    p = StarStrongProbe.coordinates(6, (0, 2))
    assert len(p.vectors) == 2 and p.vectors[1][2] == 1.0
    q = StarStrongProbe.random(10, 4, seed=9, support=5)
    for v in q.vectors:
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert not v[5:].any()
    same = StarStrongProbe.random(10, 4, seed=9, support=5)
    for a, b in zip(q.vectors, same.vectors):
        assert np.array_equal(a, b)


def test_star_strong_residual_matrix_unit():
    d = np.zeros((3, 3))
    d[1, 1] = 1.0
    orig = Assignment({"x": d})
    trunc = Assignment({"x": np.zeros((3, 3))})
    hit = StarStrongProbe.coordinates(3, (1,))
    miss = StarStrongProbe.coordinates(3, (0,))
    assert star_strong_residual(trunc, orig, hit) == 1.0
    assert star_strong_residual(trunc, orig, miss) == 0.0
    assert star_strong_residual(orig, orig, hit) == 0.0


def test_banded_models_vanish_under_wide_enough_truncation():
    dim = 64
    probe = StarStrongProbe.coordinates(dim, range(16))
    kinds = {
        "shift": model("unilateral_shift", dim),
        "diagonal": model("diagonal", dim, rule=lambda i: 1.0 / (1.0 + i)),
        "multiplication": model("multiplication", dim, rule=lambda t: t),
    }
    a = Assignment(kinds)
    for rank in (17, 20, 40, 64):
        cut = loewner_step(a, rank)
        assert star_strong_residual(cut, a, probe) == 0.0
    # one row short and the shift leaks
    short = loewner_step(a, 16)
    assert star_strong_residual(short, a, probe) > 0.4


def test_star_strong_residual_monotone_in_rank():
    dim = 32
    rng = np.random.default_rng(41)
    vec = np.zeros(dim)
    vec[:10] = rng.standard_normal(10)
    vec /= np.linalg.norm(vec)
    probe = StarStrongProbe((vec,))
    a = Assignment({"s": model("unilateral_shift", dim)})
    values = [star_strong_residual(loewner_step(a, r), a, probe)
              for r in range(1, dim + 1)]
    for lo, hi in zip(values[1:], values):
        assert lo <= hi + 1e-12
    assert values[-1] == 0.0


def test_cyclic_shift_corner_survives_every_proper_truncation():
    dim = 64
    wrap = model("shiftmod", dim)
    a = Assignment({"v": wrap})
    probe = StarStrongProbe.coordinates(dim, (0,))
    for rank in (17, 32, 63):
        cut = loewner_step(a, rank)
        # the corner entry maps e_0 to e_{dim-1}, which every proper
        # truncation drops, so the defect stays exactly one
        assert abs(star_strong_residual(cut, a, probe) - 1.0) < 1e-12
    assert star_strong_residual(loewner_step(a, dim), a, probe) == 0.0


def test_model_nesting_is_consistent():
    for kind, rule in (("unilateral_shift", None),
                       ("diagonal", lambda i: float(i % 3)),
                       ("multiplication", lambda t: 2.0 * t - 1.0)):
        small = model(kind, 32, rule=rule)
        large = model(kind, 64, rule=rule)
        assert np.array_equal(large[:32, :32], small)


def test_model_validation():
    with pytest.raises(ValueError):
        model("hamster", 4)
    with pytest.raises(ValueError):
        model("diagonal", 4)  # diagonal needs a rule
    with pytest.raises(ValueError):
        model("unilateral_shift", 0)


def test_clock_shift_commutator_norm():
    for dim in (2, 4, 8, 16, 32):
        u = model("clock", dim)
        v = model("shiftmod", dim)
        gap = op_norm(u @ v - v @ u)
        assert abs(gap - clock_shift_norm_gap(dim)) < 1e-12
        assert abs(clock_shift_norm_gap(dim) - 2 * np.sin(np.pi / dim)) < 1e-15


def test_quasicentral_never_raises_tracked_norms():
    dim = 32
    vs, rels = parse_relations(
        "var u unitary;\nvar v unitary;\nrel norm(u v - v u) <= 0.5;\n")
    a = Assignment({"u": model("clock", dim), "v": model("shiftmod", dim)})
    schedule = CompressionSchedule((8, 16, 24, 32, 36), Cutoff(4))
    steps = quasicentral_approximation(a, rels, schedule, POLICY)
    assert [s.rank for s in steps] == [8, 16, 24, 32, 36]
    p = rels[-1].poly
    orig = op_norm(evaluate(p, a))
    for step in steps:
        assert 0.0 < step.alpha <= 1.0
        assert op_norm(evaluate(p, step.assignment)) <= orig + 1e-12
        assert step.bound_norms
        assert set(step.defects) == {"u", "v"}
    # once the ramp clears the dimension nothing is cut and no rescale is needed
    assert steps[-1].alpha == 1.0
    assert np.array_equal(steps[-1].assignment["u"], a["u"])


def test_quasicentral_rescale_kicks_in():
    # Truncation can raise a product norm by breaking a cancellation
    # between two paths, and then the homogeneous rescale must engage.
    # Here x y routes through indices 0 and 3 with opposite signs, the
    # rank-2 cut keeps only the index-0 path, and the product jumps
    # from norm 0.1 to norm 1.
    x = np.zeros((4, 4))
    x[0, 0] = 1.0
    x[0, 3] = 1.0
    y = np.zeros((4, 4))
    y[0, 0] = 1.0
    y[3, 0] = -1.0
    y[3, 1] = 0.1
    _, rels = parse_relations("var x;\nvar y;\nrel norm(x y) <= 0.1;\n")
    a = Assignment({"x": x, "y": y})
    p = rels[-1].poly
    assert abs(op_norm(evaluate(p, a)) - 0.1) < 1e-12
    steps = quasicentral_approximation(
        a, rels, CompressionSchedule((2,), SHARP), POLICY)
    assert abs(steps[0].alpha - np.sqrt(0.1)) < 1e-12
    assert op_norm(evaluate(p, steps[0].assignment)) <= 0.1 + 1e-12


def test_quasicentral_requires_homogeneous_norm_bounds():
    _, rels = parse_relations("var x;\nrel x^2 - x = 0;\n")
    a = Assignment({"x": np.diag([1.0, 0.0, 1.0])})
    with pytest.raises(ValueError):
        quasicentral_approximation(a, rels, CompressionSchedule((2,), SHARP), POLICY)
    _, mixed = parse_relations("var x;\nrel norm(x^2 - x) <= 0.25;\n")
    with pytest.raises(ValueError):
        quasicentral_approximation(a, mixed, CompressionSchedule((2,), SHARP), POLICY)


def test_residual_curves_and_csv(tmp_path):
    dim = 16
    _, rels = parse_relations(
        "var u unitary;\nvar v unitary;\nrel norm(u v - v u) <= 0.5;\n")
    a = Assignment({"u": model("clock", dim), "v": model("shiftmod", dim)})
    schedule = CompressionSchedule((4, 8, 16), Cutoff(2))
    rows = residual_curves(a, rels, schedule, "quasicentral", POLICY)
    assert {r["rank"] for r in rows} == {4, 8, 16}
    assert all(r["residual"] >= 0.0 for r in rows)
    sharp_rows = residual_curves(a, rels, CompressionSchedule((4, 8), SHARP),
                                 "loewner", POLICY)
    assert all(r["alpha"] == 1.0 for r in sharp_rows)
    with pytest.raises(ValueError):
        residual_curves(a, rels, schedule, "newton", POLICY)
    with pytest.raises(ValueError):  # loewner is the sharp cutoff
        residual_curves(a, rels, schedule, "loewner", POLICY)
    out = tmp_path / "curves.csv"
    write_residual_csv(out, rows)
    with open(out, newline="") as fh:
        rows_back = list(csv.DictReader(fh))
    assert len(rows_back) == len(rows)
    assert rows_back[0]["rank"] == "4"
    assert set(rows_back[0]) == {"rank", "relation", "residual", "alpha", "defect"}
