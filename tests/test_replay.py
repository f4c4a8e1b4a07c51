"""Replay of any (seed, index): the worst sample a report names,
recomputed from its streams alone, gives exactly ``max_violation``, and
no sample of the run exceeds it or reaches it earlier."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from matrel import matcalc
from matrel.relations import Assignment, check_all, parse_relations
from matrel.verify import (
    DEFAULT_POSITIVITY_RELATIONS,
    Ensemble,
    exp_norm_experiment,
    ginibre,
    heinz_experiment,
    hermitian_sample,
    monotone_experiment,
    order_pair_sample,
    positive_sample,
    positivity_transfer_check,
    stream,
)

SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.integers(1, 4)
COUNTS = st.integers(1, 4)
SMALL = settings(max_examples=25, deadline=None, database=None)


def _check_worst(values, at, report):
    """``values`` are every sample's violation in run order and ``at`` the
    position of the sample the report names."""
    assert values[at] == report.max_violation
    assert max(values) <= report.max_violation
    assert all(v < report.max_violation for v in values[:at])


def _psd_power(m, t):
    w, v = matcalc.spectrum(m)
    return matcalc.from_spectrum(v, np.clip(w, 0.0, None) ** t)


def _expnorm(seed, dim, i):
    a = ginibre(stream(seed, i, 0), dim)
    na = matcalc.op_norm(matcalc.matrix_exp(a))
    w, v = matcalc.spectrum(a)
    nh = matcalc.op_norm(matcalc.from_spectrum(v, np.exp(w)))
    return (na - nh) / max(1.0, na, nh)


def _heinz(seed, dim, i, nu):
    a = positive_sample(stream(seed, i, 0), dim)
    b = positive_sample(stream(seed, i, 1), dim)
    x = ginibre(stream(seed, i, 2), dim)
    bound = matcalc.op_norm(a @ x + x @ b)
    mixed = (_psd_power(a, nu) @ x @ _psd_power(b, 1.0 - nu)
             + _psd_power(a, 1.0 - nu) @ x @ _psd_power(b, nu))
    return (matcalc.op_norm(mixed) - bound) / max(1.0, bound)


def _monotone(seed, dim, i, power):
    x, y = order_pair_sample(stream(seed, i, 0), dim)
    fx, fy = _psd_power(x, power), _psd_power(y, power)
    low = float(matcalc.spectrum_values(fy - fx)[0])
    return -low / max(1.0, matcalc.op_norm(fy))


@SMALL
@given(SEEDS, DIMS, COUNTS)
def test_expnorm_worst_sample_replays(seed, dim, count):
    rep = exp_norm_experiment(Ensemble(dim, seed, count))
    values = [_expnorm(seed, dim, i) for i in range(count)]
    _check_worst(values, rep.worst_seed["index"], rep)


@SMALL
@given(SEEDS, DIMS, COUNTS,
       st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.7, 1.0]), min_size=1,
                max_size=4))
def test_heinz_worst_sample_replays(seed, dim, count, nus):
    rep = heinz_experiment(Ensemble(dim, seed, count), nus)
    cells = [(i, nu) for i in range(count) for nu in nus]
    values = [_heinz(seed, dim, i, nu) for i, nu in cells]
    at = cells.index((rep.worst_seed["index"], rep.stats["worst_nu"]))
    _check_worst(values, at, rep)


@SMALL
@given(SEEDS, DIMS, COUNTS, st.sampled_from([0.5, 2.0]))
def test_monotone_worst_sample_replays(seed, dim, count, power):
    rep = monotone_experiment(power, Ensemble(dim, seed, count))
    values = [_monotone(seed, dim, i, power) for i in range(count)]
    _check_worst(values, rep.worst_seed["index"], rep)


_SAMPLE = {"general": ginibre, "hermitian": hermitian_sample,
           "positive": positive_sample}


@SMALL
@given(SEEDS, st.lists(DIMS, min_size=1, max_size=3), COUNTS,
       st.sampled_from([DEFAULT_POSITIVITY_RELATIONS,
                        "var x;\nvar y;\nrel x y >= 0;\n",
                        "var x hermitian;\nrel x^2 >= 0;\nrel x >= 0;\n"]))
def test_positivity_worst_sample_replays(seed, dims, count, text):
    rep = positivity_transfer_check(text, dims, seed, count)
    variables, rels = parse_relations(text)

    def violation(dim, i):
        a = Assignment({
            name: _SAMPLE[var.kind](stream(seed, i, role), dim)
            for role, (name, var) in enumerate(variables.items())})
        return check_all(rels, a).residual / max(1.0, a.max_norm())

    cells = [(dim, i) for dim in dims for i in range(count)]
    values = [violation(dim, i) for dim, i in cells]
    at = cells.index((rep.worst_seed["dim"], rep.worst_seed["index"]))
    _check_worst(values, at, rep)
