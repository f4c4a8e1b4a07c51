"""The stacked expnorm, heinz and monotone experiments against the
one-sample-at-a-time loops they replaced.

Reports must agree in every byte but ``runtime_ms``, and each chunk of
samples must cost one kernel call per step: one exponential, one
eigendecomposition per stacked operand, one norm per norm taken, and for
heinz one clip per operand rather than one per power.
"""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from matrel import matcalc, verify
from matrel.verify import (
    EXP_NORM_THRESHOLD,
    HEINZ_THRESHOLD,
    MONOTONE_THRESHOLD,
    _SAMPLE_BATCH,
    Ensemble,
    ExperimentReport,
    _ensemble_report,
    _worst,
    exp_norm_experiment,
    heinz_experiment,
    monotone_experiment,
)

DIMS = range(1, 9)
COUNTS = (1, _SAMPLE_BATCH - 1, _SAMPLE_BATCH, _SAMPLE_BATCH + 1,
          2 * _SAMPLE_BATCH + 2)
# A heinz report shows the exponent farthest from 1/2, where the bound is
# least tight; the grid of 1/2 alone makes the square-root path show.
# Each grid stands in for verify.HEINZ_GRID while heinz runs.
GRIDS = ((0.0, 0.5, 1 / 3, 1.0), (0.5,))
POWERS = (0.3, 0.5, 2.0)


def _strip_runtime(report):
    data = json.loads(report.to_json())
    data.pop("runtime_ms")
    return data


# ---------------------------------------------------------------------------
# The per-sample experiments, verbatim apart from the names; the oracle.

def _seq_exp_norm(e: Ensemble) -> ExperimentReport:
    start = time.perf_counter()

    def violation(i: int) -> float:
        a = e.draw(i, kind="general")
        na = matcalc.op_norm(matcalc.matrix_exp(a))
        w, v = matcalc.spectrum(a)
        nh = matcalc.op_norm(matcalc.from_spectrum(v, np.exp(w)))
        return (na - nh) / max(1.0, na, nh)

    return _ensemble_report(f"expnorm-d{e.dim}", e, start,
                            _worst(map(violation, range(e.count))),
                            EXP_NORM_THRESHOLD)


def _seq_heinz(e: Ensemble, nus) -> ExperimentReport:
    start = time.perf_counter()

    def violations(i: int) -> list[float]:
        a = e.draw(i, role=0, kind="positive")
        b = e.draw(i, role=1, kind="positive")
        x = e.draw(i, role=2, kind="general")
        wa, va = matcalc.spectrum(a)
        wb, vb = matcalc.spectrum(b)
        wa = np.clip(wa, 0.0, None)
        wb = np.clip(wb, 0.0, None)
        bound = matcalc.op_norm(a @ x + x @ b)
        scale = max(1.0, bound)

        def mixed(nu: float) -> np.ndarray:
            return (matcalc.from_spectrum(va, wa ** nu) @ x
                    @ matcalc.from_spectrum(vb, wb ** (1.0 - nu))
                    + matcalc.from_spectrum(va, wa ** (1.0 - nu)) @ x
                    @ matcalc.from_spectrum(vb, wb ** nu))

        return [(matcalc.op_norm(mixed(nu)) - bound) / scale for nu in nus]

    cells = [(i, nu) for i in range(e.count) for nu in nus]
    flat = [v for i in range(e.count) for v in violations(i)]
    worst, k = _worst(flat)
    index, worst_nu = cells[k]
    endpoint_gap = max([0.0] + [abs(v) for (_, nu), v in zip(cells, flat)
                                if nu in (0.0, 1.0)])
    return _ensemble_report(
        f"heinz-d{e.dim}", e, start, (worst, index), HEINZ_THRESHOLD,
        stats={"worst_nu": worst_nu, "endpoint_gap": endpoint_gap,
               "grid": [float(nu) for nu in nus]},
        nus=list(nus))


def _seq_monotone(power: float, e: Ensemble) -> ExperimentReport:
    start = time.perf_counter()

    def violation(i: int) -> float:
        x, y = e.draw(i, kind="order-pair")
        fx = _seq_psd_power(x, power)
        fy = _seq_psd_power(y, power)
        low = float(matcalc.spectrum_values(fy - fx)[0])
        return -low / max(1.0, matcalc.op_norm(fy))

    return _ensemble_report(
        f"monotone-p{power:g}-d{e.dim}", e, start,
        _worst(map(violation, range(e.count))),
        MONOTONE_THRESHOLD if 0 < power <= 1 else None, power=power)


def _seq_psd_power(m: np.ndarray, t: float) -> np.ndarray:
    w, v = matcalc.spectrum(m)
    return matcalc.from_spectrum(v, np.clip(w, 0.0, None) ** t)


# ---------------------------------------------------------------------------

KERNELS = ("matrix_exp", "spectrum", "spectrum_values", "op_norms")


def _counted(monkeypatch, run):
    """The result of ``run()`` and its calls of each kernel and of np.clip."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        for name in KERNELS:
            patch.setattr(matcalc, name, counting(name, getattr(matcalc, name)))
        patch.setattr(np, "clip", counting("clip", np.clip))
        result = run()
    return result, calls


def _check(monkeypatch, stacked, sequential, chunks, per_chunk):
    got, calls = _counted(monkeypatch, stacked)
    assert _strip_runtime(got) == _strip_runtime(sequential())
    assert calls == Counter({name: chunks * n for name, n in per_chunk.items()})


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("dim", DIMS)
def test_stacked_experiments_match_per_sample_loops(monkeypatch, dim, count):
    e = Ensemble(dim, seed=1000 * dim + count, count=count)
    chunks = math.ceil(count / _SAMPLE_BATCH)
    _check(monkeypatch, lambda: exp_norm_experiment(e), lambda: _seq_exp_norm(e),
           chunks, {"matrix_exp": 1, "spectrum": 1, "op_norms": 2})
    for nus in GRIDS:
        monkeypatch.setattr(verify, "HEINZ_GRID", nus)
        _check(monkeypatch, lambda: heinz_experiment(e),
               lambda: _seq_heinz(e, nus), chunks,
               {"spectrum": 2, "clip": 2, "op_norms": 1 + len(nus)})
    for power in POWERS:
        _check(monkeypatch, lambda: monotone_experiment(power, e),
               lambda: _seq_monotone(power, e), chunks,
               {"spectrum": 2, "clip": 2, "spectrum_values": 1, "op_norms": 1})


def test_large_dimensions_take_smaller_chunks(monkeypatch):
    # 60 samples of size 33 stay under 64 samples of size 32 in entries
    e = Ensemble(33, seed=9, count=65)
    _check(monkeypatch, lambda: exp_norm_experiment(e), lambda: _seq_exp_norm(e),
           2, {"matrix_exp": 1, "spectrum": 1, "op_norms": 2})
    _check(monkeypatch, lambda: monotone_experiment(0.5, e),
           lambda: _seq_monotone(0.5, e), 2,
           {"spectrum": 2, "clip": 2, "spectrum_values": 1, "op_norms": 1})


def test_stacked_matrix_exp_matches_each_row():
    rng = np.random.default_rng(4)
    for n in (1, 2, 5):
        stack = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
        stack[1] = np.diag(np.diag(stack[1]))      # scipy's diagonal branch
        stack[2] = np.triu(stack[2])               # and its triangular one
        got = matcalc.matrix_exp(stack)
        assert all(np.array_equal(got[k], matcalc.matrix_exp(stack[k]))
                   for k in range(3))
    bad = np.zeros((2, 3, 3))
    bad[1, 0, 0] = np.nan
    with pytest.raises(matcalc.NonFiniteError):
        matcalc.matrix_exp(bad)
    with pytest.raises(matcalc.MatrixError, match="stack of square matrices"):
        matcalc.matrix_exp(np.zeros((2, 3, 4)))
