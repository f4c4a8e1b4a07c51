import csv
import re

import numpy as np
import pytest

from matrel import matcalc
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


def test_cutoff_weights_past_full_rank_are_the_uncapped_ones():
    """Weights cap the rank at dim + width, where they are all 1 already;
    below the cap they are the formula's, bit for bit."""
    for width in range(9):
        cutoff = Cutoff(width)
        for dim in (1, 2, 5, 10):
            i = np.arange(dim, dtype=float)
            for rank in range(dim + width + 4):
                want = np.clip((rank - i) / (width + 1), 0.0, 1.0)
                assert np.array_equal(cutoff.weights(dim, rank), want)
    # a rank no float holds gives the identity, not an OverflowError
    assert np.array_equal(Cutoff(8).weights(256, 10 ** 400), np.ones(256))


def test_a_cutoff_width_must_fit_in_a_float():
    huge = "9" * 401
    for bad in (int(huge), 10 ** 309):
        with pytest.raises(ValueError, match="width must be at most"):
            Cutoff(bad)
    with pytest.raises(ValueError, match="width must be at most"):
        Cutoff.parse("ramp:" + huge)
    wide = Cutoff(10 ** 308)
    assert wide.weights(3, 10 ** 400).tolist() == [1.0, 1.0, 1.0]
    assert (wide.weights(3, 2) < 1e-300).all()


def test_cutoff_parse_and_str():
    assert Cutoff.parse("sharp") == SHARP
    assert Cutoff.parse("ramp:4") == Cutoff(4)
    assert Cutoff.parse(str(Cutoff(2))) == Cutoff(2)
    assert str(SHARP) == "sharp" and Cutoff(0) == SHARP
    assert Cutoff.parse("ramp:08") == Cutoff(8)
    # widths are plain ASCII digits, which int() alone does not enforce
    for bad in ("ramp", "ramp:0", "box:3", "sharp:1", "ramp:1_0", "ramp:+8",
                "ramp: 8", "ramp:8 ", "ramp:\u0663", "ramp:\uff18",
                "ramp:-1", "ramp:"):
        with pytest.raises(ValueError, match="bad cutoff"):
            Cutoff.parse(bad)
    with pytest.raises(ValueError,
                       match="^a cutoff width must be at least 0, got -1$"):
        Cutoff(-1)
    # a width from Python must be an integer; Cutoff(1.5) would print as
    # ramp:1.5, which parse refuses
    for bad in (1.5, 2.0, "2", True):
        with pytest.raises(ValueError, match="width must be an integer"):
            Cutoff(bad)
    assert Cutoff(np.int64(3)) == Cutoff(3)
    assert type(Cutoff(np.int64(3)).width) is int


def test_schedule_validation():
    s = CompressionSchedule.parse("8,16,32", "sharp")
    assert s.ranks == (8, 16, 32) and s.cutoff == SHARP
    # whitespace around a comma stays legal
    assert CompressionSchedule.parse(" 8 , 16,\t32 ").ranks == (8, 16, 32)
    # ranks are plain ASCII digits, which int() alone does not enforce
    for bad in ("8,1_6", "8,+16", "8,\u0661\u0666", "8,\uff11\uff16", "8,-16",
                "8,,16", "", "8,16.0", "8,1 6"):
        with pytest.raises(ValueError, match="bad schedule"):
            CompressionSchedule.parse(bad)
    with pytest.raises(ValueError):
        CompressionSchedule((4, 4), SHARP)
    with pytest.raises(ValueError):
        CompressionSchedule((), SHARP)
    with pytest.raises(ValueError, match="^a rank must be at least 1, got 0$"):
        CompressionSchedule((0, 2), SHARP)
    # ranks from Python must be integers: 1.5 and 1.7 would both truncate
    # to 1, a schedule that is not strictly increasing
    for bad in ((1.5, 1.7), (2, 4.0), (0.5,), ("8",), (True, 2)):
        with pytest.raises(ValueError, match="rank must be an integer"):
            CompressionSchedule(bad, SHARP)
    s = CompressionSchedule(np.array([2, 5]))
    assert s.ranks == (2, 5) and all(type(r) is int for r in s.ranks)


def test_loewner_step_is_cornerwise():
    rng = np.random.default_rng(3)
    a = Assignment({"x": rng.standard_normal((5, 5))})
    out = loewner_step(a, 3)
    assert np.array_equal(out["x"][:3, :3], a["x"][:3, :3])
    assert not out["x"][3:, :].any() and not out["x"][:, 3:].any()
    # ranks past the dimension saturate
    assert np.array_equal(loewner_step(a, 99)["x"], a["x"])


def test_loewner_step_takes_no_svd(monkeypatch):
    rng = np.random.default_rng(5)
    a = Assignment({"x": rng.standard_normal((6, 6))
                    + 1j * rng.standard_normal((6, 6)),
                    "y": rng.standard_normal((6, 6))})
    calls = []
    monkeypatch.setattr(matcalc, "op_norm",
                        lambda m: calls.append(m.shape))
    for rank in range(8):
        loewner_step(a, rank)
    assert calls == []


def test_loewner_step_takes_only_integer_ranks():
    a = Assignment({"x": np.ones((3, 3))})
    # 2.5 would give weights 1, 1, 0.5, which is no projection
    for bad in (2.5, True, "2"):
        with pytest.raises(ValueError, match="^a rank must be an integer"):
            loewner_step(a, bad)
    with pytest.raises(ValueError, match="^a rank must be at least 0, got -1$"):
        loewner_step(a, -1)
    assert np.array_equal(loewner_step(a, np.int64(3))["x"], a["x"])
    assert np.array_equal(loewner_step(a, np.int64(2))["x"],
                          loewner_step(a, 2)["x"])
    zero = loewner_step(a, 0)["x"]
    assert zero.shape == (3, 3) and not zero.any()


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
        cut = loewner_step(a, rank)
        corner = _corner_copy(a, rank)
        for name in a:
            assert np.array_equal(cut[name], corner[name])

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
    # The curves evaluate each relation on the nonzero corner, which
    # agrees with the zero-padded matrices to rounding.
    assert len(rows) == len(expected)
    for got, want in zip(rows, expected):
        res, close = got.pop("residual"), want.pop("residual")
        assert abs(res - close) <= 1e-12 * max(1.0, close)
        assert got == want


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


def test_star_strong_probe_rejects_out_of_range_inputs():
    for bad in (-1, 4):
        with pytest.raises(ValueError, match=f"index {bad} is outside"):
            StarStrongProbe.coordinates(4, [0, bad])
    for bad in (0, 5, 9):
        with pytest.raises(ValueError, match=f"support {bad} is outside"):
            StarStrongProbe.random(4, 2, 0, support=bad)
    assert len(StarStrongProbe.coordinates(4, [0, 3]).vectors) == 2
    assert StarStrongProbe.random(4, 2, 0, support=4).dim == 4


def test_star_strong_probe_sizes_and_indices_are_integers():
    for call, what, bad in (
            (lambda: StarStrongProbe.coordinates(4, [1.5]),
             "a coordinate index", "1.5"),
            (lambda: StarStrongProbe.coordinates(4, [0, True]),
             "a coordinate index", "True"),
            (lambda: StarStrongProbe.coordinates(2.5, [0]),
             "a probe dimension", "2.5"),
            (lambda: StarStrongProbe.random(2.5, 2, 0),
             "a probe dimension", "2.5"),
            (lambda: StarStrongProbe.random(4, 2.5, 0), "the count", "2.5"),
            (lambda: StarStrongProbe.random(4, 2, 0.0), "the seed", "0.0"),
            (lambda: StarStrongProbe.random(4, 2, 0, support=2.5),
             "the support", "2.5"),
            (lambda: StarStrongProbe.random(4, 2, 0, support=True),
             "the support", "True")):
        with pytest.raises(ValueError,
                           match=f"^{what} must be an integer, got {bad}$"):
            call()
    for call, what, bad in (
            (lambda: StarStrongProbe.random(4, 2, -1), "the seed", "0, got -1"),
            (lambda: StarStrongProbe.random(4, 0, 1), "the count", "1, got 0"),
            (lambda: StarStrongProbe.coordinates(0, []),
             "a probe dimension", "1, got 0")):
        with pytest.raises(ValueError, match=f"^{what} must be at least {bad}$"):
            call()
    same = StarStrongProbe.random(np.int64(6), np.int64(2), np.int64(3),
                                  support=np.int64(4))
    for u, v in zip(same.vectors,
                    StarStrongProbe.random(6, 2, 3, support=4).vectors):
        assert np.array_equal(u, v)
    assert StarStrongProbe.coordinates(3, [np.int64(2)]).vectors[0][2] == 1.0


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
    # the two assignments and the probe must agree on names and dimension
    other = Assignment({"y": np.zeros((3, 3))})
    with pytest.raises(ValueError, match="^assignments have different "
                                         "variable sets$"):
        star_strong_residual(other, orig, hit)
    for b, probe in ((Assignment({"x": np.zeros((2, 2))}), hit),
                     (trunc, StarStrongProbe.coordinates(2, (1,)))):
        with pytest.raises(ValueError, match="^probe and assignments must "
                                             "share one dimension$"):
            star_strong_residual(b, orig, probe)


# The probe and residual as they stood before the vectors became the
# rows of one array, kept as the reference: a random probe drew its
# vectors one at a time, and the residual took two mat-vecs per vector.
def _per_vector_random(dim, count, seed, support):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    vecs = []
    for _ in range(count):
        v = np.zeros(dim, dtype=complex)
        raw = rng.standard_normal(support) + 1j * rng.standard_normal(support)
        v[:support] = raw / np.linalg.norm(raw)
        vecs.append(v)
    return vecs


def _per_vector_residual(approximant, original, vectors):
    worst = 0.0
    for name in original.names():
        diff = approximant[name] - original[name]
        diff_star = matcalc.adjoint(diff)
        for xi in vectors:
            worst = max(worst,
                        float(np.linalg.norm(diff @ xi)),
                        float(np.linalg.norm(diff_star @ xi)))
    return worst


def test_star_strong_probe_is_one_read_only_array():
    probe = StarStrongProbe.random(5, 3, seed=2, support=4)
    assert probe.vectors.shape == (3, 5) and len(probe.vectors) == 3
    assert not probe.vectors.flags.writeable
    with pytest.raises(ValueError):
        probe.vectors[0, 0] = 1.0
    # the caller's array is copied, not kept
    rows = np.eye(4)[[1, 3]]
    coords = StarStrongProbe(rows)
    rows[0, 1] = 0.0
    assert coords.vectors[0, 1] == 1.0
    assert np.array_equal(coords.vectors,
                          StarStrongProbe.coordinates(4, (1, 3)).vectors)


@pytest.mark.parametrize("seed", range(40))
def test_star_strong_residual_matches_per_vector_loop(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 9))
    names = ["x", "y", "z"][:int(rng.integers(1, 4))]

    def draw():
        shape = (dim, dim)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    original = Assignment({n: draw() for n in names})
    rank = int(rng.integers(1, dim + 1))
    approximants = (Assignment({n: draw() for n in names}),
                    loewner_step(original, rank), original)
    support = int(rng.integers(1, dim + 1))
    count = int(rng.integers(1, 6))
    vectors = _per_vector_random(dim, count, seed, support)
    random_probe = StarStrongProbe.random(dim, count, seed, support=support)
    assert np.array_equal(random_probe.vectors, np.array(vectors))
    indices = list(rng.choice(dim, size=int(rng.integers(1, dim + 1)),
                              replace=False))
    probes = ((random_probe, vectors),
              (StarStrongProbe.coordinates(dim, indices),
               list(np.eye(dim)[indices])))
    for approximant in approximants:
        for probe, vecs in probes:
            got = star_strong_residual(approximant, original, probe)
            want = _per_vector_residual(approximant, original, vecs)
            if want == 0.0:
                assert got == 0.0
            else:
                assert abs(got - want) <= 1e-12 * want, (got, want)


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
    with pytest.raises(ValueError, match="^model 'clock' takes no rule$"):
        model("clock", 4, rule=abs)
    # no float, bool or string is a dimension, though numpy takes some
    for dim in (2.5, True, 0, "3"):
        with pytest.raises(ValueError, match="model dimension"):
            model("clock", dim)
    assert np.array_equal(model("clock", np.int64(4)), model("clock", 4))


def test_clock_shift_commutator_norm():
    for dim in (2, 4, 8, 16, 32):
        u = model("clock", dim)
        v = model("shiftmod", dim)
        gap = op_norm(u @ v - v @ u)
        assert abs(gap - clock_shift_norm_gap(dim)) < 1e-12
        assert abs(clock_shift_norm_gap(dim) - 2 * np.sin(np.pi / dim)) < 1e-15


@pytest.mark.parametrize("dim, message", [
    (0, "model dimension must be at least 1, got 0"),
    (2.5, "model dimension must be an integer, got 2.5"),
    (True, "model dimension must be an integer, got True"),
])
def test_clock_shift_norm_gap_takes_what_model_takes(dim, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        clock_shift_norm_gap(dim)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        model("clock", dim)


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
