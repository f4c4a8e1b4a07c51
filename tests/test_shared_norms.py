"""What an Assignment computes once, and the SVDs a bound makes needless.

Counts of ``np.linalg.svd`` and ``np.linalg.eigh`` calls, each under the
innermost labelled call running when it is made, pin the work: no
unitarity SVD on a cut corner, no scale SVD when every norm is bounded
below 1, one evaluation of a polynomial that three relations measure,
one decomposition of a variable shared by a fractional power and an
exponential.  Every margin is also compared, with ``==``, with one
computed here from plain norms and evaluations, so none of the saved
work changes a bit of the output.  The one Hermitian gate,
``hermitian_excess``, is checked against the defect it may skip.
"""

from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from matrel import approx, matcalc, ncpoly, relations
from matrel.approx import CompressionSchedule, Cutoff, model, residual_curves
from matrel.matcalc import (
    NotHermitianError,
    TolerancePolicy,
    adjoint,
    fractional_power,
    from_spectrum,
    hermitian_defect,
    hermitian_excess,
    op_norm,
    spectrum,
    spectrum_values,
)
from matrel.ncpoly import Assignment, evaluate, format_poly
from matrel.relations import (
    BlockPositive,
    ExpRealNormBound,
    NormBound,
    OperatorOrder,
    PolyPositive,
    PolyZero,
    Positive,
    RealPartBound,
    Unitary,
    check_all,
    parse_relations,
)

POLICY = TolerancePolicy(tol_eq=1e-9, tol_psd=1e-9)


class _Spectral:
    """Counts svd and eigh calls by label, and the polynomials evaluated."""

    def __init__(self, monkeypatch):
        self.mp = monkeypatch
        self.calls: Counter = Counter()
        self.evaluated: Counter = Counter()
        self.eigh_inputs: list[np.ndarray] = []
        self.labels = ["other"]
        for kind in ("svd", "eigh"):
            monkeypatch.setattr(np.linalg, kind,
                                self._kernel(kind, getattr(np.linalg, kind)))
        plain = ncpoly.evaluate

        def counted(p, a, policy=POLICY):
            self.evaluated[format_poly(p)] += 1
            return plain(p, a, policy)
        for site in (ncpoly, relations):
            monkeypatch.setattr(site, "evaluate", counted)

    def _kernel(self, kind, fn):
        def wrapper(m, *args, **kwargs):
            self.calls[kind, self.labels[-1]] += 1
            if kind == "eigh":
                self.eigh_inputs.append(np.array(m))
            return fn(m, *args, **kwargs)
        return wrapper

    def label(self, owner, attr, name_of):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            self.labels.append(name_of(*args))
            try:
                return fn(*args, **kwargs)
            finally:
                self.labels.pop()
        self.mp.setattr(owner, attr, wrapper)

    def svds(self, label) -> int:
        return self.calls["svd", label]


def _plain_margin(rel, mats, policy=POLICY) -> float:
    """The margin of ``rel`` from plain norms: every evaluation starts from
    the matrices, and the slack reads max(1, largest norm)."""
    eq, psd = policy.slack(max(1.0, max(op_norm(m) for m in mats.values())))

    def ev(p):
        return evaluate(p, mats, policy)

    def eig(m, low_of=lambda w: w[0]):
        defect = hermitian_defect(m)
        if defect > eq:
            return eq - defect
        return float(low_of(spectrum_values(m))) + psd

    match rel:
        case PolyZero(poly=p):
            return eq - op_norm(ev(p))
        case NormBound(poly=p, bound=c, strict=strict):
            norm = op_norm(ev(p))
            return c - norm if strict else c + eq - norm
        case Unitary(var=v):
            m = mats[v]
            return eq - op_norm(adjoint(m) @ m - np.eye(len(m)))
        case Positive(var=v):
            return eig(mats[v])
        case PolyPositive(poly=p):
            return eig(ev(p))
        case OperatorOrder(lesser=p, greater=q):
            return eig(ev(q - p))
        case BlockPositive(x=px, y=py, z=pz):
            return eig(matcalc.block2(ev(px), ev(py), ev(pz)))
        case RealPartBound(var=v, bound=beta):
            return beta - float(spectrum_values(mats[v])[-1]) + psd
        case ExpRealNormBound(var=v, bound=beta):
            w, vecs = spectrum(mats[v])
            return beta + eq - op_norm(from_spectrum(vecs, np.exp(w)))
    raise TypeError(rel)


TORUS = ("var u unitary;\nvar v unitary;\n"
         "rel norm(u v - v u) <= 0.5;\n"
         "rel norm(u^2 v - v u^2) <= 1.0;\n")


@pytest.mark.parametrize("procedure, cutoff", [("loewner", "sharp"),
                                               ("quasicentral", "ramp:2")])
def test_cut_corners_take_no_unitary_or_scale_svd(monkeypatch, procedure,
                                                  cutoff):
    dim = 16
    a = Assignment({"u": model("clock", dim), "v": model("shiftmod", dim)})
    _, rels = parse_relations(TORUS)
    schedule = CompressionSchedule((4, 8, 12, 15, 16), Cutoff.parse(cutoff))
    spectral = _Spectral(monkeypatch)
    # A step's corner has dimension min(dim, rank + 1).
    spectral.label(approx, "residual",
                   lambda rel, step, policy: (type(rel).__name__, step.dim))
    spectral.label(Assignment, "scale", lambda a: "scale")
    rows = residual_curves(a, rels, schedule, procedure, POLICY)
    monkeypatch.undo()

    for k in (5, 9, 13):
        assert spectral.svds(("Unitary", k)) == 0
    # ranks 15 and 16 both have a 16 x 16 corner; only rank 16's has no
    # zero column, and only it takes an SVD per variable
    assert spectral.svds(("Unitary", dim)) == 2
    if procedure == "quasicentral":
        # alpha < 1 at every rank, and each bound is alpha
        assert spectral.svds("scale") == 0
    bounds = [] if procedure == "loewner" else approx._tracked_bounds(rels)
    steps = approx._steps(a, bounds, schedule, POLICY)
    for step, at in zip(steps, range(0, len(rows), len(rels))):
        mats = dict(step.assignment.items())
        for rel, row in zip(rels, rows[at:at + len(rels)]):
            assert row["rank"] == step.rank
            assert row["residual"] == max(0.0, -_plain_margin(rel, mats))


def _torus(dim: int) -> dict[str, np.ndarray]:
    """The clock u, the cyclic shift v and p = 1.5 + re(u) + 0.1 h/|h|_F,
    h a seeded Hermitian matrix, so p's spectrum lies in [0.4, 2.6]."""
    u, v = model("clock", dim), model("shiftmod", dim)
    rng = np.random.default_rng(7)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + adjoint(g)) / 2
    p = 1.5 * np.eye(dim) + (u + adjoint(u)) / 2 + 0.1 * h / np.linalg.norm(h)
    return {"u": u, "v": v, "p": p}


# The relation kinds and polynomials of the benchmark's check-torus set.
CHECK_TORUS = """var u unitary;
var v unitary;
var p positive;
rel norm(u v - v u) <= 1.2;
rel norm(u v - v u) <= 0.3;
rel norm(p) < 3.0;
rel norm(p^(1/2) u p^(1/2)) <= 3.0;
rel v u - (0.7071067811865476+0.7071067811865476i) u v = 0;
rel u v - v u = 0;
rel p^(1/2) u - u p^(1/2) = 0;
rel u* p u >= 0;
rel p^(1/2) u* p u p^(1/2) >= 0;
rel v + v* >= 0;
rel u* u <= 3.0 p;
rel p <= u* u;
rel blockpos(p^(1/2), p, 2.0 u* u);
rel blockpos(u, 0.5 u* u, 0.5 v* v);
rel re(u) <= 1.5;
rel re(v) <= 0.5;
rel normexp_re(u) <= 3.0;
rel normexp_re(p) <= 2.0;
"""


def test_check_all_measures_each_norm_and_spectrum_once(monkeypatch):
    mats = _torus(8)
    _, rels = parse_relations(CHECK_TORUS)
    a = Assignment(mats)
    spectral = _Spectral(monkeypatch)
    spectral.label(Assignment, "scale", lambda a: "scale")
    verdict = check_all(rels, a, POLICY)
    monkeypatch.undo()

    assert spectral.evaluated["u v - v u"] == 1
    # only ||p|| reaches the scale: ||u|| and ||v|| are bounded by 1
    assert spectral.svds("scale") == 1
    p_part = (mats["p"] + adjoint(mats["p"])) / 2
    assert sum(np.array_equal(m, p_part) for m in spectral.eigh_inputs) == 1
    assert spectral.calls["eigh", "other"] == 2  # p and re(u)
    assert [v.margin for v in verdict.parts] == [
        _plain_margin(rel, mats) for rel in rels]
    assert 0 < sum(v.satisfied for v in verdict.parts) < len(rels)


# Norms a little below, at and a little above 1, some inside the bound's
# margin and some outside it.
NEAR_ONE = (1 - 1e-5, 1 - 1e-7, 1 - 2**-52, 1.0, 1 + 2**-52, 1 + 1e-7,
            1 + 1e-5)


@st.composite
def scaled_matrices(draw):
    """One to four same-size matrices: Ginibre matrices times 10^k for k in
    [-12, 12], matrices of norm near 1 (diagonal ones, whose bound is
    their norm, and general ones), zero matrices, and exact and adjoint
    copies of an earlier matrix."""
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats: list[np.ndarray] = []
    for _ in range(draw(st.integers(1, 4))):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        kind = draw(st.sampled_from(
            ["scaled", "near one", "diagonal", "zero", "copy", "adjoint"]))
        if kind == "scaled":
            m = g * 10.0 ** draw(st.integers(-12, 12))
        elif kind == "near one":
            m = g * (draw(st.sampled_from(NEAR_ONE)) / op_norm(g))
        elif kind == "diagonal":
            d = rng.uniform(0.0, 1.0, dim) * np.exp(2j * np.pi * rng.random(dim))
            d[0] = draw(st.sampled_from(NEAR_ONE))
            m = np.diag(d)
        elif kind == "zero" or not mats:
            m = np.zeros((dim, dim))
        else:
            m = mats[-1] if kind == "copy" else adjoint(mats[-1])
        mats.append(m)
    return {f"x{i}": m for i, m in enumerate(mats)}


@settings(max_examples=300, deadline=None)
@given(scaled_matrices())
def test_scale_is_one_or_the_largest_norm_bit_for_bit(mats):
    norms = [op_norm(m) for m in mats.values()]
    a = Assignment(mats)
    assert a.scale() == max(1.0, max(norms))
    assert a.max_norm() == max(norms)


def test_a_polynomial_norm_is_kept_per_policy():
    # -1e-7 is inside the loose clamp and below the strict one
    a = Assignment({"x": np.diag([4.0, -1e-7])})
    _, rels = parse_relations("var x hermitian;\nrel norm(x^(1/2)) <= 3;\n")
    loose = TolerancePolicy(tol_eq=1e-6, tol_psd=1e-6)
    assert relations.residual(rels[-1], a, loose).satisfied
    assert a.poly_norm(rels[-1].poly, loose) == 2.0
    strict = relations.residual(rels[-1], a, POLICY)
    assert not strict.satisfied and strict.margin == -np.inf


def _near_hermitian(draw, rng, dim, h, slack):
    """h plus a skew-Hermitian part whose defect is 0.3 to 3 times slack."""
    k = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    skew = (k - adjoint(k)) / 2
    return h + skew * (draw(st.floats(0.3, 3.0)) * slack
                       / hermitian_defect(skew))


@st.composite
def gated_matrices(draw):
    """A matrix of dimension 1 to 5, Hermitian, near Hermitian or general,
    and a slack from 1e-12 to 1."""
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slack = 10.0 ** draw(st.floats(-12.0, 0.0))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + adjoint(g)) / 2
    kind = draw(st.sampled_from(["hermitian", "near", "general"]))
    if kind == "near":
        return _near_hermitian(draw, rng, dim, h, slack), slack
    return (h if kind == "hermitian" else g), slack


@settings(max_examples=300, deadline=None)
@given(gated_matrices())
def test_hermitian_excess_is_the_defect_beyond_the_slack(case):
    m, slack = case
    d = hermitian_defect(m)
    assert hermitian_excess(m, slack) == (d if d > slack else 0.0)


@st.composite
def rooted_matrices(draw):
    """A positive definite matrix of norm 1e-6 to 1e6 near Hermitian at
    its own slack, or Hermitian, and a policy whose tol_eq is drawn."""
    dim = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    p = g @ adjoint(g) + np.eye(dim)
    p *= 10.0 ** draw(st.floats(-6.0, 6.0)) / op_norm(p)
    policy = TolerancePolicy(tol_eq=10.0 ** draw(st.floats(-12.0, -2.0)),
                             tol_psd=1e-2)
    if draw(st.booleans()):
        return p, policy
    slack = policy.slack(op_norm(p))[0]
    return _near_hermitian(draw, rng, dim, p, slack), policy


@settings(max_examples=300, deadline=None)
@given(rooted_matrices())
def test_fractional_power_refuses_exactly_beyond_its_slack(case):
    m, policy = case
    if hermitian_defect(m) > policy.slack(op_norm(m))[0]:
        with pytest.raises(NotHermitianError):
            fractional_power(m, 0.5, policy)
    else:
        fractional_power(m, 0.5, policy)
