"""What an Assignment computes once, and the SVDs a bound makes needless.

Counts of ``np.linalg.svd`` and ``np.linalg.eigh`` calls, each under the
innermost labelled call running when it is made, pin the work: no
unitarity or norm-bound SVD on a cut corner, no scale SVD when every
norm is bounded below 1, one evaluation of a polynomial that three
relations measure, one decomposition of a variable shared by a
fractional power and an exponential.  Every margin is also compared,
with ``==``, with one computed here from plain norms and evaluations, so
none of the saved work changes a bit of the output.  The one Hermitian
gate, ``hermitian_excess``, is checked against the defect it may skip,
and ``residual_value`` against the residual it may skip.
"""

import math

from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

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
    check_all,
    describe,
    parse_relations,
    residual,
    residual_value,
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
    spectral.label(approx, "residual_value",
                   lambda rel, step, policy: (type(rel).__name__, step.dim))
    spectral.label(Assignment, "scale", lambda a: "scale")
    rows = residual_curves(a, rels, schedule, procedure, POLICY)
    monkeypatch.undo()

    for k in (5, 9, 13):
        assert spectral.svds(("Unitary", k)) == 0
    # every norm bound holds on every cut, and its bound shows it
    for k in (5, 9, 13, dim):
        assert spectral.svds(("NormBound", k)) == 0
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


def _halve_the_slack(monkeypatch):
    """Make every slack half of what today's rule grants, as a rule with
    no floor at norm 1 may: a shortcut that re-derives the slack from
    tol_eq then disagrees with the policy."""
    full = TolerancePolicy.slack
    monkeypatch.setattr(TolerancePolicy, "slack",
                        lambda self, norm: tuple(t / 2 for t in full(self, norm)))


X = ncpoly.parse_poly("x", {"x": ncpoly.Variable("x")})


@pytest.mark.parametrize("rel", [PolyZero(X), NormBound(X, 0.0),
                                 NormBound(X, 1.0)], ids=describe)
def test_residual_value_reads_the_slack_of_the_policy(monkeypatch, rel):
    # ||x|| is 0.75 tol_eq past c: inside tol_eq, outside the halved slack
    c = rel.bound if isinstance(rel, NormBound) else 0.0
    mats = {"x": np.diag([c + 0.75e-9, 0.0])}
    _halve_the_slack(monkeypatch)
    want = residual(rel, Assignment(mats), POLICY).residual
    assert want > 0
    assert repr(residual_value(rel, Assignment(mats), POLICY)) == repr(want)


def test_the_hermitian_gate_reads_the_slack_of_the_policy(monkeypatch):
    # positive, of norm about 1, with ||m - m*|| = 0.75 tol_eq
    m = np.array([[1.0, 0.375e-9], [-0.375e-9, 0.5]])
    assert hermitian_defect(m) == 0.75e-9
    fractional_power(m, 0.5, POLICY)
    _halve_the_slack(monkeypatch)
    with pytest.raises(NotHermitianError):
        fractional_power(m, 0.5, POLICY)


def test_a_norm_bound_settles_at_the_slack_of_its_scale(monkeypatch):
    # ||x|| = c = 4, whose bound clears c + tol_eq by less than
    # BOUND_MARGIN but the slack at the bystander's norm 1e4 by more
    a = Assignment({"x": np.diag([4.0, 0.0]), "y": np.diag([1e4, 0.0])})
    spectral = _Spectral(monkeypatch)
    spectral.label(relations, "residual_value",
                   lambda rel, a, policy: type(rel).__name__)
    spectral.label(Assignment, "scale", lambda a: "scale")
    assert relations.residual_value(NormBound(X, 4.0), a, POLICY) == 0.0
    monkeypatch.undo()
    assert spectral.svds("NormBound") == 0
    assert spectral.svds("scale") == 1


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


# x is general and y positive, so y's fractional powers meet a matrix
# that is not Hermitian when y is drawn general.
RESIDUAL_VARIABLES = {"x": ncpoly.Variable("x"),
                      "y": ncpoly.Variable("y", "positive")}
RESIDUAL_POLYS = ("x", "x y - y x", "x* x", "x^3", "y^2 - y",
                  "y^(1/2) x y^(1/2)", "0")


# Factors near 1: inside BOUND_MARGIN, and beyond it both ways.
NEAR_THRESHOLD = (0.5, 1 - 1e-5, 1 - 1e-7, 1 - 2**-52, 1.0, 1 + 2**-52,
                  1 + 1e-7, 1 + 1e-5, 2.0)


@st.composite
def relation_cases(draw):
    """A policy, a relation of any kind and an assignment of x and y at
    dimension 1 to 4: Ginibre, Hermitian or positive matrices times 2^k
    for k in [-60, 60], or with entries that overflow an evaluation or a
    norm.  A norm bound's c is 0 (1 if strict), a power of two, inf, or
    the norm of p(a) times a factor near 1.  Half the norm bounds and
    zero relations with a finite c are on x alone, a diagonal matrix,
    whose bound is its norm, of norm the slack (p(a) = 0) or c or c plus
    the slack (norm bounds) times a factor near 1: there a bound and a
    norm meet each threshold the relation could be held to.  There y is
    kept, dropped, or made a bystander of norm 2^k for k in [1, 60], and
    the slack is the one at the scale x and the bystander set."""
    policy = draw(st.sampled_from(
        [POLICY, TolerancePolicy(tol_eq=1e-2, tol_psd=1e-2)]))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = {}
    for name in ("x", "y"):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        form = draw(st.sampled_from(["general", "hermitian", "positive"]))
        m = {"general": g, "hermitian": (g + adjoint(g)) / 2,
             "positive": g @ adjoint(g)}[form]
        size = draw(st.sampled_from(["scaled", "scaled", "huge", "overflow"]))
        if size == "scaled":
            m = m * 2.0 ** draw(st.integers(-60, 60))
        elif size == "huge":  # x^3 and y^2 overflow
            m = m * 1e120
        else:  # finite entries, and from d = 2 a norm that overflows
            m = m / np.abs(m).max() * 1.7e308
        mats[name] = m
    p, q, r = (ncpoly.parse_poly(draw(st.sampled_from(RESIDUAL_POLYS)),
                                 RESIDUAL_VARIABLES) for _ in range(3))
    kind = draw(st.sampled_from([
        "zero", "bound", "strict"] * 3 + [
        "positive", "order", "block", "self", "pos", "range", "unitary",
        "contraction", "re", "exp"]))
    factor = draw(st.sampled_from(NEAR_THRESHOLD))
    form = draw(st.sampled_from(["zero", "power", "norm", "norm", "inf"]))
    c = {"zero": 0.0 if kind != "strict" else 1.0,
         "inf": math.inf}.get(form, 2.0 ** draw(st.integers(-60, 60)))
    if (kind in ("zero", "bound", "strict") and c < math.inf
            and draw(st.booleans())):
        p = ncpoly.parse_poly("x", RESIDUAL_VARIABLES)
        y = draw(st.sampled_from(["kept", "dropped", "bystander", "bystander"]))
        size = 2.0 ** draw(st.integers(1, 60)) if y == "bystander" else 1.0
        if y == "dropped":
            del mats["y"]
        elif y == "bystander":
            mats["y"] = size * np.eye(dim)
        # c is 0 for p(a) = 0; ||x|| = c / (1 - tol_eq) is c plus the
        # slack at norm ||x||
        c = 0.0 if kind == "zero" else c
        slack = policy.slack(max(size, c / (1 - policy.tol_eq)))[0]
        t = (slack if kind == "zero"
             else draw(st.sampled_from([c, c + slack])))
        d = rng.uniform(0.0, 1.0, dim) * np.exp(2j * np.pi * rng.random(dim))
        d[0] = np.exp(2j * np.pi * rng.random())
        mats["x"] = np.diag(d) * (t * factor)
    elif kind in ("bound", "strict") and form == "norm":
        try:
            with np.errstate(all="ignore"):
                norm = op_norm(evaluate(p, mats)) * factor
        except matcalc.MatrixError:
            norm = math.inf
        if 0.0 < norm < math.inf:
            c = norm
    if kind in ("bound", "strict"):
        return policy, mats, NormBound(p, c, strict=kind == "strict")
    var = draw(st.sampled_from(["x", "y"]))
    return policy, mats, {
        "zero": PolyZero(p), "positive": PolyPositive(p),
        "order": OperatorOrder(p, q), "block": BlockPositive(p, q, r),
        "self": SelfAdjoint(var), "pos": Positive(var), "range": Range01(var),
        "unitary": Unitary(var), "contraction": Contraction(var),
        "re": RealPartBound(var, 2.0 ** draw(st.integers(-60, 60))),
        "exp": ExpRealNormBound(var, 2.0 ** draw(st.integers(0, 60))),
    }[kind]


@settings(max_examples=500, deadline=None)
@given(relation_cases())
# p(a) = inf, whose bound inf is not below an infinite c
@example((POLICY, {"x": np.array([[1e120]])},
          NormBound(ncpoly.parse_poly("x^3", RESIDUAL_VARIABLES), math.inf)))
def test_residual_value_is_the_residual_bit_for_bit(case):
    policy, mats, rel = case
    # each on a fresh assignment, so neither reads what the other kept
    value = residual_value(rel, Assignment(mats), policy)
    assert repr(value) == repr(residual(rel, Assignment(mats), policy).residual)
