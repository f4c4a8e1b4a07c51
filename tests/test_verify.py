import json
import math
import re
import time
from typing import Iterable

import numpy as np
import pytest

from matrel import matcalc, verify
from matrel.matcalc import min_eigenvalue, op_norm
from matrel.relations import check_all, parse_relations
from matrel.verify import (
    COMMUTATOR_DEGENERATE,
    DEFAULT_POSITIVITY_RELATIONS,
    _CLIMB_BATCH,
    _CLIMB_MIN_GAIN,
    _CLIMB_SCALES,
    Ensemble,
    ExperimentReport,
    clock_shift_pair,
    commutator_ratio,
    commutator_sqrt_search,
    exp_norm_experiment,
    ginibre,
    heinz_experiment,
    monotone_experiment,
    positivity_transfer_check,
    run_experiment,
    run_reproduction,
    soft_torus_relations,
    stream,
    write_reports,
)


def _strip_runtime(report):
    data = json.loads(report.to_json())
    data.pop("runtime_ms")
    return data


def test_stream_is_keyed_by_seed_index_role():
    a = stream(5, 0, 0).standard_normal(4)
    b = stream(5, 0, 0).standard_normal(4)
    c = stream(5, 1, 0).standard_normal(4)
    d = stream(5, 0, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_ensemble_kinds_have_declared_shape():
    for kind, check in (
        ("hermitian", lambda m: np.allclose(m, m.conj().T)),
        ("positive", lambda m: min_eigenvalue(m) >= -1e-10),
        ("contraction", lambda m: op_norm(m) <= 1.0 + 1e-12),
        ("unitary", lambda m: np.allclose(m @ m.conj().T, np.eye(5), atol=1e-10)),
    ):
        e = Ensemble(5, seed=7, count=4)
        for i in range(e.count):
            m = e.draw(i, kind=kind)
            assert m.shape == (5, 5)
            assert check(m), kind


def test_order_pair_ensemble():
    e = Ensemble(4, seed=9, count=6)
    for i in range(e.count):
        x, y = e.draw(i, kind="order-pair")
        assert min_eigenvalue(y - x) >= -1e-10
        assert np.allclose(x, x.conj().T)


def test_ensemble_draw_is_replayable():
    e = Ensemble(4, seed=11, count=3)
    m0 = e.draw(2, kind="general")
    m1 = e.draw(2, kind="general")
    assert np.array_equal(m0, m1)
    with pytest.raises(ValueError):
        Ensemble(4, seed=1, count=1).draw(0, kind="squirrel")


def test_exp_norm_experiment_passes_and_is_deterministic():
    e = Ensemble(5, seed=42, count=50)
    rep = exp_norm_experiment(e)
    again = exp_norm_experiment(e)
    assert rep.passed
    assert rep.max_violation <= 1e-9
    assert rep.samples == 50
    assert _strip_runtime(rep) == _strip_runtime(again)
    assert rep.worst_seed["seed"] == 42


def test_heinz_experiment_endpoints_exact():
    e = Ensemble(4, seed=8, count=25)
    rep = heinz_experiment(e)
    assert rep.passed
    assert rep.max_violation <= 1e-8
    assert rep.stats["endpoint_gap"] <= 1e-10
    assert len(rep.stats["grid"]) == 11
    assert rep.stats["grid"][0] == 0.0 and rep.stats["grid"][-1] == 1.0


def test_monotone_experiment_split_by_power():
    e = Ensemble(3, seed=13, count=120)
    half = monotone_experiment(0.5, e)
    assert half.passed and half.max_violation <= 1e-8
    full = monotone_experiment(1.0, e)
    assert full.passed
    square = monotone_experiment(2.0, Ensemble(2, seed=14, count=150))
    assert square.threshold is None  # exploratory, squaring is not monotone
    assert square.max_violation > 1e-3


def test_squaring_refutation_pair():
    x = np.array([[1.0, 1.0], [1.0, 1.0]])
    y = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert min_eigenvalue(y - x) >= -1e-15
    gap = min_eigenvalue(y @ y - x @ x)
    assert abs(gap - (3.0 - np.sqrt(13.0)) / 2.0) < 1e-12
    assert gap < -0.3


def test_commutator_ratio_basics():
    a = np.array([[0.0, -1.0], [-1.0, 0.0]])
    b = np.diag([1.0, 0.0])
    # b is a projection so its square root is itself and the ratio is
    # exactly the square root of the commutator norm, which is one here
    assert abs(commutator_ratio(a, b) - 1.0) < 1e-12
    assert commutator_ratio(a, np.eye(2)) is None


def test_commutator_ratio_scale_invariance():
    rng = np.random.default_rng(77)
    for _ in range(10):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        c = rng.standard_normal((3, 3))
        a = (g + g.conj().T) / 2
        b = c @ c.T + 1e-3 * np.eye(3)
        r = commutator_ratio(a, b)
        for s in (0.25, 2.0, 7.3):
            assert abs(commutator_ratio(a, s * b) - r) < 1e-10 * max(1.0, r)


def test_search_is_deterministic_and_monotone():
    rep1 = commutator_sqrt_search(2, seed=505, budget=600)
    rep2 = commutator_sqrt_search(2, seed=505, budget=600)
    assert _strip_runtime(rep1) == _strip_runtime(rep2)
    assert rep1.samples == 600
    trace = rep1.stats["trace"]
    best = 0.0
    for evals, value in trace:
        assert value >= best
        best = value
    assert rep1.max_violation == best
    assert rep1.threshold is None


def test_search_best_pair_replays():
    rep = commutator_sqrt_search(3, seed=9090, budget=400)
    st = rep.stats
    g = np.array(st["best_g"]) + 1j * np.array(st["best_g_imag"])
    c = np.array(st["best_c"]) + 1j * np.array(st["best_c_imag"])
    a = g / op_norm(g)
    b = c.conj().T @ c
    b = b / op_norm(b)
    assert abs(commutator_ratio(a, b) - rep.max_violation) < 1e-12


def test_search_pair_stream_mode():
    pairs = [
        (np.array([[0.0, -1.0], [-1.0, 0.0]]), np.array([[-1.0, 0.0], [-1.0, 0.0]])),
        (np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([[1.0, 1.0], [0.0, 0.0]])),
    ]
    rep = commutator_sqrt_search(2, seed=0, budget=10, pair_stream=iter(pairs))
    assert rep.stats["mode"] == "stream"
    assert rep.samples == 2
    assert abs(rep.max_violation - 1.0) < 1e-12


def test_positivity_transfer_default_relations_pass():
    rep = positivity_transfer_check(DEFAULT_POSITIVITY_RELATIONS,
                                    dims=(2, 3), seed=606, count=20)
    assert rep.passed
    assert rep.max_violation <= 1e-8
    assert rep.samples == 40  # count draws per dimension


def test_positivity_transfer_catches_false_claims():
    bad = "var x;\nvar y;\nrel x y >= 0;\n"
    rep = positivity_transfer_check(bad, dims=(3,), seed=1, count=10)
    assert not rep.passed
    assert rep.max_violation > 1e-8
    assert "dim" in rep.worst_seed


def test_positivity_checks_only_the_explicit_relations(monkeypatch):
    # the kinds' side relations (x and y positive) hold by construction
    checked = []
    check = verify.check_all
    monkeypatch.setattr(verify, "check_all",
                        lambda rels, a, policy: checked.append(len(rels))
                        or check(rels, a, policy))
    positivity_transfer_check(DEFAULT_POSITIVITY_RELATIONS, dims=(2, 3),
                              seed=606, count=4)
    assert checked == [3] * 8


@pytest.mark.parametrize("dims, count, words", [
    ((2, 3), 0, "count must be at least 1"),
    ((2,), -1, "count must be at least 1"),
    ((), 5, "at least one dimension"),
    ((2, 0), 5, "every dimension must be at least 1"),
])
def test_positivity_transfer_rejects_empty_runs(dims, count, words):
    with pytest.raises(ValueError, match=words):
        positivity_transfer_check(DEFAULT_POSITIVITY_RELATIONS, dims=dims,
                                  seed=606, count=count)


@pytest.mark.parametrize("text", [
    "var x;\n",
    "var x positive;\nvar y hermitian;\nvar u unitary;\nvar c contraction;\n",
])
def test_positivity_transfer_rejects_files_without_explicit_relations(text):
    with pytest.raises(ValueError, match="at least one explicit relation"):
        positivity_transfer_check(text, dims=(2,), seed=1, count=3)


@pytest.mark.parametrize("seed", [-1, -2**63])
def test_negative_seeds_are_rejected_up_front(seed):
    named = f"at least 0, got {seed}"
    with pytest.raises(ValueError, match=named):
        Ensemble(3, seed, 2)
    with pytest.raises(ValueError, match=named):
        commutator_sqrt_search(2, seed=seed, budget=5)
    with pytest.raises(ValueError, match=named):
        commutator_sqrt_search(2, seed=seed, budget=5,
                               pair_stream=iter(()))
    with pytest.raises(ValueError, match=named):
        positivity_transfer_check(DEFAULT_POSITIVITY_RELATIONS, dims=(2,),
                                  seed=seed, count=3)
    # seed 0 is the smallest legal seed
    assert Ensemble(3, 0, 2).seed == 0


def _positivity(dims=(2,), seed=1, count=3):
    return positivity_transfer_check(DEFAULT_POSITIVITY_RELATIONS, dims=dims,
                                     seed=seed, count=count)


@pytest.mark.parametrize("make, message", [
    (lambda: Ensemble(2.5, 0, 2),
     "ensemble dimension must be an integer, got 2.5"),
    (lambda: Ensemble(-1, 0, 2),
     "ensemble dimension must be at least 1, got -1"),
    (lambda: Ensemble(2, True, 2),
     "ensemble seed must be an integer, got True"),
    (lambda: Ensemble(2, 0, "3"),
     "ensemble count must be an integer, got '3'"),
    (lambda: commutator_sqrt_search(0, 0, 10),
     "the search dimension must be at least 1, got 0"),
    (lambda: commutator_sqrt_search(-1, 0, 10),
     "the search dimension must be at least 1, got -1"),
    (lambda: commutator_sqrt_search(2.0, 0, 10),
     "the search dimension must be an integer, got 2.0"),
    (lambda: commutator_sqrt_search(2, 0, 1.5),
     "the budget must be an integer, got 1.5"),
    (lambda: commutator_sqrt_search(2, True, 5, pair_stream=iter(())),
     "the seed must be an integer, got True"),
    (lambda: _positivity(dims=(2, 2.5)),
     "every dimension must be an integer, got 2.5"),
    (lambda: _positivity(seed=1.0), "the seed must be an integer, got 1.0"),
    (lambda: _positivity(count=True),
     "the count must be an integer, got True"),
])
def test_sizes_and_seeds_must_be_integers_in_range(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_sizes_from_numpy_are_kept_as_int():
    e = Ensemble(np.int64(2), np.int32(3), np.uint8(4))
    assert (e.dim, e.seed, e.count) == (2, 3, 4)
    assert all(type(v) is int for v in (e.dim, e.seed, e.count))
    rep = commutator_sqrt_search(np.int64(2), np.int64(0), np.int64(5))
    assert json.loads(rep.to_json())["params"] == {
        "dim": 2, "seed": 0, "budget": 5}


@pytest.mark.parametrize("run, message", [
    (lambda e: monotone_experiment(math.inf, e),
     "the power must be positive and finite, got inf"),
    (lambda e: monotone_experiment(math.nan, e),
     "the power must be positive and finite, got nan"),
    (lambda e: monotone_experiment(0.0, e),
     "the power must be positive and finite, got 0.0"),
])
def test_exponents_outside_their_domain_are_rejected(run, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(Ensemble(2, seed=3, count=2))


@pytest.mark.parametrize("name, sizes, words", [
    ("expnorm", {"count": 0}, "ensemble count must be at least 1, got 0"),
    ("expnorm", {"dim": 0}, "ensemble dimension must be at least 1, got 0"),
    ("heinz", {"count": 0}, "ensemble count must be at least 1, got 0"),
    ("monotone-sqrt", {"dim": 0}, "ensemble dimension must be at least 1"),
    ("monotone-square", {"count": 0}, "ensemble count must be at least 1"),
    ("commutator", {"dim": 0}, "search dimension must be at least 1, got 0"),
    ("commutator", {"budget": 0}, "budget must be at least 1, got 0"),
    ("positivity", {"dim": 0, "count": 1},
     "every dimension must be at least 1, got 0"),
    ("positivity", {"count": 0}, "count must be at least 1, got 0"),
    ("nope", {}, "^unknown experiment 'nope'$"),
])
def test_run_experiment_passes_an_explicit_zero_on(name, sizes, words):
    # 0 is not "unset": it reaches the experiment's own check
    with pytest.raises(ValueError, match=words):
        run_experiment(name, 0, **sizes)


def test_clock_shift_pair_against_soft_torus_file():
    for dim in (2, 4, 8, 16):
        eps = 2.0 * np.sin(np.pi / dim)
        pair = clock_shift_pair(dim)
        _, loose = parse_relations(soft_torus_relations(eps + 1e-10))
        assert check_all(loose, pair).satisfied
        _, tight = parse_relations(soft_torus_relations(eps - 1e-3))
        assert not check_all(tight, pair).satisfied


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, -0.5])
def test_soft_torus_relations_rejects_a_bound_it_cannot_write(eps):
    message = f"a commutator bound must be finite and nonnegative, got {eps!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        soft_torus_relations(eps)


def test_soft_torus_relations_writes_negative_zero_as_zero():
    _, rels = parse_relations(soft_torus_relations(-0.0))
    assert rels[-1].bound == 0.0


def test_report_json_and_file_output(tmp_path):
    rep = ExperimentReport(id="demo", params={"dim": 2}, samples=3,
                           max_violation=0.5, worst_seed={"seed": 1},
                           runtime_ms=1.25, threshold=1.0)
    data = json.loads(rep.to_json())
    assert data["id"] == "demo" and data["passed"] is True
    failing = ExperimentReport(id="demo2", params={}, samples=1,
                               max_violation=2.0, worst_seed={},
                               runtime_ms=0.5, threshold=1.0)
    assert not failing.passed
    out = tmp_path / "reports.jsonl"
    write_reports(out, [rep, failing])
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["passed"] is False



def test_reproduction_checks_its_budget_before_the_first_report(
        monkeypatch):
    calls = []
    monkeypatch.setattr(verify, "run_experiment",
                        lambda *args, **kwargs: calls.append(args))
    for bad, message in ((0, "at least 1, got 0"), (2.5, "an integer"),
                         (True, "an integer")):
        with pytest.raises(ValueError, match=f"^the budget must be {message}"):
            run_reproduction(commutator_budget=bad)
    assert calls == []
    run_reproduction(commutator_budget=np.int64(3))
    assert len(calls) == 13


def test_reproduction_suite_plan():
    reports = run_reproduction(commutator_budget=1)
    grid = [round(0.1 * k, 1) for k in range(11)]
    expected = [
        ("expnorm-d6", {"dim": 6, "seed": 101, "count": 1000}),
        *((f"heinz-d{d}", {"dim": d, "seed": 202, "count": 125, "nus": grid})
          for d in (3, 4, 5, 6)),
        ("monotone-p0.5-d4", {"dim": 4, "seed": 303, "count": 1000,
                              "power": 0.5}),
        ("monotone-p2-d2", {"dim": 2, "seed": 404, "count": 200,
                            "power": 2.0}),
        *((f"commutator-d{d}", {"dim": d, "seed": 505, "budget": 1})
          for d in (2, 3, 4, 5, 6)),
        ("positivity", {"dims": [2, 3, 4, 5, 6], "seed": 606, "count": 40}),
    ]
    assert [(r.id, r.params) for r in reports] == expected
    assert all(r.passed for r in reports)

# ---------------------------------------------------------------------------
# The batched commutator search against the one-at-a-time search it
# replaced.  Everything below the marker is that search, verbatim apart
# from the names, and serves as the oracle.

def _seq_psd_power(m: np.ndarray, t: float) -> np.ndarray:
    w, v = matcalc.spectrum(m)
    return matcalc.from_spectrum(v, np.clip(w, 0.0, None) ** t)


def _seq_ratio(a: np.ndarray, b: np.ndarray) -> float | None:
    """||a b^(1/2) - b^(1/2) a|| / ||ab - ba||^(1/2), or None when the
    commutator is degenerate (norm below 1e-12)."""
    a = matcalc.as_matrix(a)
    b = matcalc.as_matrix(b)
    den = matcalc.op_norm(a @ b - b @ a)
    if den < COMMUTATOR_DEGENERATE:
        return None
    s = _seq_psd_power(b, 0.5)
    return matcalc.op_norm(a @ s - s @ a) / math.sqrt(den)


def _seq_normalized_pair(g: np.ndarray, c: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray] | None:
    ng = matcalc.op_norm(g)
    if ng == 0:
        return None
    b0 = matcalc.adjoint(c) @ c
    nb = matcalc.op_norm(b0)
    if nb == 0:
        return None
    return g / ng, b0 / nb


def _sequential_search(dim: int, seed: int, budget: int,
                       pair_stream: Iterable | None = None
                       ) -> ExperimentReport:
    """The climb as it was before batching: one candidate per ratio
    evaluation."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    start = time.perf_counter()
    evals = 0
    best = -math.inf
    best_restart = 0
    best_pair = None
    trace: list[tuple[int, float]] = []

    def consider(value, g, c, restart) -> bool:
        nonlocal best, best_restart, best_pair
        if value is not None and value > best:
            best = value
            best_restart = restart
            best_pair = (g.copy(), c.copy())
            trace.append((evals, best))
            return True
        return False

    def ratio_of(g, c):
        nonlocal evals
        evals += 1
        pair = _seq_normalized_pair(g, c)
        if pair is None:
            return None
        return _seq_ratio(*pair)

    if pair_stream is not None:
        for idx, (g, c) in enumerate(pair_stream):
            if evals >= budget:
                break
            value = ratio_of(np.asarray(g, dtype=complex),
                             np.asarray(c, dtype=complex))
            consider(value, np.asarray(g, dtype=complex),
                     np.asarray(c, dtype=complex), idx)
        mode = "stream"
        restarts = 0
    else:
        restarts = 0
        while evals < budget:
            rng = stream(seed, restarts, 0)
            g = ginibre(rng, dim)
            c = ginibre(rng, dim)
            current = ratio_of(g, c)
            consider(current, g, c, restarts)
            if current is None:
                current = -math.inf
            for scale in _CLIMB_SCALES:
                if evals >= budget:
                    break
                improved = True
                while improved and evals < budget:
                    improved = False
                    for target in (g, c):
                        for i in range(dim):
                            for j in range(dim):
                                for delta in (scale, -scale, 1j * scale,
                                              -1j * scale):
                                    if evals >= budget:
                                        break
                                    target[i, j] += delta
                                    value = ratio_of(g, c)
                                    if (value is not None
                                            and value > current + _CLIMB_MIN_GAIN):
                                        current = value
                                        consider(value, g, c, restarts)
                                        improved = True
                                    else:
                                        target[i, j] -= delta
            restarts += 1
        mode = "climb"

    stats: dict = {
        "mode": mode,
        "restarts": restarts,
        "trace": [[int(k), float(v)] for k, v in trace],
    }
    if best_pair is not None:
        g, c = best_pair
        stats["best_g"] = [[float(z.real) for z in row] for row in g]
        stats["best_g_imag"] = [[float(z.imag) for z in row] for row in g]
        stats["best_c"] = [[float(z.real) for z in row] for row in c]
        stats["best_c_imag"] = [[float(z.imag) for z in row] for row in c]
    return ExperimentReport(
        id=f"commutator-d{dim}",
        params={"dim": dim, "seed": seed, "budget": budget},
        samples=evals,
        max_violation=best,
        worst_seed={"seed": seed, "index": best_restart},
        runtime_ms=(time.perf_counter() - start) * 1e3,
        threshold=None,
        stats=stats,
    )


@pytest.mark.parametrize("dim", range(1, 7))
def test_batched_climb_matches_sequential_climb(dim):
    # dim 1 pairs always commute, so every evaluation is degenerate
    k = _CLIMB_BATCH
    mid_sweep = 1 + 12 * dim * dim + 3
    g_half = 1 + 4 * dim * dim  # the first evaluation and g half-sweep
    edges = (g_half - 1, g_half, g_half + 1, 1 + 8 * dim * dim)
    for seed in (505, 17):
        for budget in (1, 2, k - 1, k, k + 1, mid_sweep, 300, *edges):
            got = commutator_sqrt_search(dim, seed, budget)
            want = _sequential_search(dim, seed, budget)
            assert _strip_runtime(got) == _strip_runtime(want), (seed, budget)


@pytest.mark.parametrize("dim", [2, 3])
def test_a_g_half_sweep_takes_one_root_of_the_current_c(monkeypatch, dim):
    roots = []
    power = verify._psd_power
    monkeypatch.setattr(verify, "_psd_power",
                        lambda m, t: roots.append(m.copy()) or power(m, t))
    # the restart's first evaluation, then its first g half-sweep
    commutator_sqrt_search(dim, 505, 1 + 4 * dim * dim)
    rng = stream(505, 0, 0)
    ginibre(rng, dim)
    c = ginibre(rng, dim)
    b = matcalc.adjoint(c) @ c
    b = b / op_norm(b)
    assert [len(m) for m in roots] == [1, 1]
    for m in roots:
        np.testing.assert_array_equal(m[0], b)


def test_batched_stream_matches_sequential_stream():
    rng = np.random.default_rng(3)
    pairs = [(ginibre(rng, 3), ginibre(rng, 3))
             for _ in range(2 * _CLIMB_BATCH + 3)]
    diag_g = np.diag([1.0, 2.0, 3.0])
    diag_c = np.diag([1.0, 0.5, 2.0])
    # first, so that a budget of 1 reports it: 0 < ||ab - ba|| < 1e-12
    pairs[0] = (diag_g + 1e-14 * np.eye(3, k=1), diag_c)
    pairs[2] = (np.zeros((3, 3)), pairs[2][1])            # ||g|| = 0
    pairs[5] = (diag_g, diag_c)                           # ab = ba exactly
    pairs[_CLIMB_BATCH + 1] = (pairs[_CLIMB_BATCH + 1][0],
                               np.zeros((3, 3)))          # ||c*c|| = 0
    pairs[-4] = (ginibre(rng, 2), ginibre(rng, 2))        # another shape
    for budget in (1, _CLIMB_BATCH, _CLIMB_BATCH + 1, len(pairs), 100):
        got = commutator_sqrt_search(3, 0, budget, pair_stream=iter(pairs))
        want = _sequential_search(3, 0, budget, pair_stream=iter(pairs))
        assert _strip_runtime(got) == _strip_runtime(want), budget
        assert got.samples == min(budget, len(pairs))


def test_batched_stream_keeps_the_finiteness_check():
    bad = np.eye(2)
    bad[0, 1] = np.inf
    pairs = [(np.eye(2), np.eye(2)), (bad, np.eye(2))]
    with pytest.raises(matcalc.MatrixError):
        commutator_sqrt_search(2, 0, 5, pair_stream=iter(pairs))
    # a budget that stops before the bad pair never looks at it
    rep = commutator_sqrt_search(2, 0, 1, pair_stream=iter(pairs))
    assert rep.samples == 1

