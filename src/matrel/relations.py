"""Relation sets over matrix variables, checked with quantified residuals.

A relation constrains an assignment of matrices to variables.  Checking
never answers with a bare boolean: every check produces a
:class:`Verdict` carrying a signed margin (distance to the boundary of
the constraint, positive inside) and a residual (how badly the
constraint fails, zero when satisfied).  Margins include the slack
:meth:`~matrel.matcalc.TolerancePolicy.slack` grants at the largest
operator norm in the assignment, except for strict norm bounds, which
get no slack at all.

Relation files look like::

    var x hermitian;
    rel x^2 - x = 0;
    rel norm(x^2 - x) <= 0.125;

Declarations come first, relations second, every statement ends with a
semicolon.  Declaring a variable with a non-general kind injects the
matching side relation (``hermitian`` -> SelfAdjoint and so on) ahead of
the explicit relations; the printer recognizes those and folds them back
into the declaration, so parse -> print -> parse is a fixed point.

Assignments have their own plain-text format::

    dim 2 vars 1
    x
    1.0+0.0i 0.0+0.0i
    0.0+0.0i 0.0+0.0i

Some relation kinds (SelfAdjoint and friends, Range01) exist only
programmatically; the file syntax reaches them through variable kinds or
not at all, and the printer raises when asked to spell one explicitly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import matcalc
from .matcalc import DEFAULT_POLICY, TolerancePolicy
from .ncpoly import (
    KINDS,
    NcPolynomial,
    ParseError,
    PolyError,
    TokenStream,
    Variable,
    _IDENT_RE,
    _NUM_RE,
    _describe,
    evaluate,
    format_number,
    format_poly,
    parse_expr,
    tokenize,
)


class Relation:
    """Marker base class; concrete relations are frozen dataclasses."""


@dataclass(frozen=True)
class PolyZero(Relation):
    """p(a) = 0 within tolerance."""

    poly: NcPolynomial


@dataclass(frozen=True)
class PolyPositive(Relation):
    """p(a) is positive semidefinite within tolerance."""

    poly: NcPolynomial


@dataclass(frozen=True)
class NormBound(Relation):
    """||p(a)|| <= bound, or strictly < bound with no tolerance slack."""

    poly: NcPolynomial
    bound: float
    strict: bool = False

    def __post_init__(self) -> None:
        if self.strict:
            if not self.bound > 0:
                raise ValueError("a strict norm bound must be positive")
        elif self.bound < 0:
            raise ValueError("a norm bound must be nonnegative")


@dataclass(frozen=True)
class OperatorOrder(Relation):
    """lesser(a) <= greater(a) in the positive semidefinite order."""

    lesser: NcPolynomial
    greater: NcPolynomial


@dataclass(frozen=True)
class SelfAdjoint(Relation):
    var: str


@dataclass(frozen=True)
class Positive(Relation):
    var: str


@dataclass(frozen=True)
class Range01(Relation):
    """0 <= a[var] <= 1: a positive contraction.  Programmatic only."""

    var: str


@dataclass(frozen=True)
class Unitary(Relation):
    var: str


@dataclass(frozen=True)
class Contraction(Relation):
    var: str


@dataclass(frozen=True)
class BlockPositive(Relation):
    """The block [[y(a), x(a)*], [x(a), z(a)]] is positive semidefinite."""

    x: NcPolynomial
    y: NcPolynomial
    z: NcPolynomial


@dataclass(frozen=True)
class RealPartBound(Relation):
    """(a[var] + a[var]*) / 2 <= bound in the semidefinite order."""

    var: str
    bound: float

    def __post_init__(self) -> None:
        if not self.bound > 0:
            raise ValueError("a real-part bound must be positive")


@dataclass(frozen=True)
class ExpRealNormBound(Relation):
    """||exp((a[var] + a[var]*) / 2)|| <= bound."""

    var: str
    bound: float

    def __post_init__(self) -> None:
        if not self.bound >= 1:
            raise ValueError(
                "an exp-real norm bound below 1 is unsatisfiable at 0")


# Side relation injected by declaring a variable with the given kind.
_KIND_RELATIONS = {
    "hermitian": SelfAdjoint,
    "positive": Positive,
    "unitary": Unitary,
    "contraction": Contraction,
}


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one relation (or a whole set).

    ``margin`` is positive when the relation holds with room to spare and
    negative when it fails; ``residual = max(0, -margin)``.  For a set,
    ``margin`` is the minimum over members and ``parts`` holds the
    member verdicts in order.
    """

    satisfied: bool
    margin: float
    residual: float
    detail: str = ""
    parts: tuple["Verdict", ...] = ()


class Assignment:
    """An immutable map from variable names to same-dimension matrices."""

    def __init__(self, matrices: Mapping[str, object]):
        store: dict[str, np.ndarray] = {}
        dim = None
        for name, raw in matrices.items():
            m = matcalc.as_matrix(raw).copy()
            m.setflags(write=False)
            if m.shape[0] == 0:
                raise matcalc.MatrixError(
                    f"{name!r} is 0x0; assignment matrices are at least 1x1")
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise matcalc.MatrixError(
                    f"assignment mixes dimensions {dim} and {m.shape[0]}")
            store[str(name)] = m
        if dim is None:
            raise ValueError("an assignment needs at least one variable")
        self._store = store
        self.dim = dim
        self._max_norm: float | None = None

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._store[name]
        except KeyError:
            raise PolyError(f"no matrix assigned to variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._store

    def __iter__(self):
        return iter(self._store)

    def names(self) -> tuple[str, ...]:
        return tuple(self._store)

    def items(self):
        return self._store.items()

    def max_norm(self) -> float:
        if self._max_norm is None:
            self._max_norm = max(matcalc.op_norm(m) for m in self._store.values())
        return self._max_norm

    def __repr__(self) -> str:
        return f"Assignment(dim={self.dim}, vars={list(self._store)})"


def residual(rel: Relation, a: Assignment,
             policy: TolerancePolicy = DEFAULT_POLICY) -> Verdict:
    """Check one relation against an assignment.

    Relations whose margin is an eigenvalue bound need a Hermitian
    matrix; when the evaluated matrix is not Hermitian within tolerance,
    the margin is the equality slack minus the Hermitian defect instead,
    so the verdict degrades to a quantified failure rather than an
    exception.  An
    evaluation that overflows (``x^4000``, ``exp`` of a large real part)
    fails with margin -inf and residual inf: the assignment is finite,
    so a non-finite entry can only come from the evaluation.  So does a
    fractional power of a matrix that is not Hermitian or not positive,
    with the error's text as the detail.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _residual(rel, a, policy)
    except matcalc.NonFiniteError:
        return Verdict(False, -math.inf, math.inf,
                       "evaluation overflowed to non-finite entries")
    except (matcalc.NotHermitianError, matcalc.NegativeSpectrumError) as err:
        return Verdict(False, -math.inf, math.inf, str(err))


def _residual(rel: Relation, a: Assignment, policy: TolerancePolicy
              ) -> Verdict:
    eq_slack, psd_slack = policy.slack(a.max_norm())

    def eig_margin(m: np.ndarray, what: str, low_of=lambda w: w[0]
                   ) -> tuple[float, str]:
        """Margin and detail of ``low_of(spectrum) >= 0``.  A matrix that
        is not self-adjoint fails by its defect beyond the equality slack;
        the SVD that measures it is skipped when its bound is in slack.
        A NaN bound (m overflowed) is not, and the SVD path raises."""
        if not matcalc.hermitian_defect_bound(m) <= eq_slack / 2:
            defect = matcalc.hermitian_defect(m)
            if defect > eq_slack:
                return (eq_slack - defect,
                        f"not self-adjoint, defect {defect:.3e}")
        low = float(low_of(matcalc.spectrum_values(m)))
        return low + psd_slack, f"{what} {low:.6e}"

    match rel:
        case PolyZero(poly=p):
            norm = matcalc.op_norm(evaluate(p, a, policy))
            margin = eq_slack - norm
            detail = f"||p(a)|| = {norm:.6e}"
        case PolyPositive(poly=p):
            margin, detail = eig_margin(evaluate(p, a, policy),
                                        "min eigenvalue")
        case NormBound(poly=p, bound=c, strict=strict):
            norm = matcalc.op_norm(evaluate(p, a, policy))
            margin = c - norm if strict else c + eq_slack - norm
            detail = f"||p(a)|| = {norm:.6e} vs bound {c:g}"
            satisfied = margin > 0 if strict else margin >= 0
            return Verdict(satisfied, margin, max(0.0, -margin), detail)
        case OperatorOrder(lesser=p, greater=q):
            margin, detail = eig_margin(evaluate(q - p, a, policy),
                                        "min eigenvalue of gap")
        case SelfAdjoint(var=v):
            defect = matcalc.hermitian_defect(a[v])
            margin = eq_slack - defect
            detail = f"||m - m*|| = {defect:.6e}"
        case Positive(var=v):
            margin, detail = eig_margin(a[v], "min eigenvalue")
        case Range01(var=v):
            margin, detail = eig_margin(a[v], "distance into [0, 1]:",
                                        lambda w: min(w[0], 1.0 - w[-1]))
        case Unitary(var=v):
            m0 = a[v]
            eye = np.eye(a.dim)
            defect = max(
                matcalc.op_norm(matcalc.adjoint(m0) @ m0 - eye),
                matcalc.op_norm(m0 @ matcalc.adjoint(m0) - eye))
            margin = eq_slack - defect
            detail = f"unitarity defect {defect:.6e}"
        case Contraction(var=v):
            norm = matcalc.op_norm(a[v])
            margin = 1.0 + eq_slack - norm
            detail = f"||m|| = {norm:.6e}"
        case BlockPositive(x=px, y=py, z=pz):
            block = matcalc.block2(
                evaluate(px, a, policy), evaluate(py, a, policy),
                evaluate(pz, a, policy))
            margin, detail = eig_margin(block, "min block eigenvalue")
        case RealPartBound(var=v, bound=beta):
            high = float(matcalc.spectrum_values(a[v])[-1])
            margin = beta - high + psd_slack
            detail = f"max eigenvalue of real part {high:.6e} vs {beta:g}"
        case ExpRealNormBound(var=v, bound=beta):
            w, vecs = matcalc.spectrum(a[v])
            norm = matcalc.op_norm(matcalc.from_spectrum(vecs, np.exp(w)))
            margin = beta + eq_slack - norm
            detail = f"||exp(re m)|| = {norm:.6e} vs {beta:g}"
        case _:
            raise TypeError(f"unknown relation {rel!r}")
    return Verdict(margin >= 0, margin, max(0.0, -margin), detail)


def check_all(relations: Sequence[Relation], a: Assignment,
              policy: TolerancePolicy = DEFAULT_POLICY) -> Verdict:
    """Check every relation; the aggregate margin is the worst one."""
    parts = tuple(residual(rel, a, policy) for rel in relations)
    if not parts:
        return Verdict(True, float("inf"), 0.0, "no relations")
    margin = min(v.margin for v in parts)
    satisfied = all(v.satisfied for v in parts)
    good = sum(v.satisfied for v in parts)
    return Verdict(satisfied, margin, max(v.residual for v in parts),
                   f"{good} of {len(parts)} relations satisfied", parts)


def product_rep(assignments: Sequence[Assignment]) -> Assignment:
    """Direct sum of assignments over a common variable set."""
    if not assignments:
        raise ValueError("product_rep needs at least one assignment")
    names = set(assignments[0].names())
    for a in assignments[1:]:
        if set(a.names()) != names:
            raise ValueError("assignments have different variable sets")
    order = assignments[0].names()
    return Assignment({
        name: matcalc.direct_sum([a[name] for a in assignments])
        for name in order})


def essential_dim(a: Assignment, policy: TolerancePolicy = DEFAULT_POLICY
                  ) -> int:
    """Dimension of the joint essential subspace of the assignment.

    This is the rank of the stacked columns of every matrix and its
    adjoint: the smallest coordinate subspace supporting all of them and
    their adjoints.  Singular values at or below the equality slack at
    the assignment's largest norm do not count.
    """
    stacked = np.hstack([
        np.concatenate([a[name], matcalc.adjoint(a[name])], axis=1)
        for name in a.names()])
    sing = np.linalg.svd(stacked, compute_uv=False)
    return int(np.sum(sing > policy.slack(a.max_norm())[0]))


# ---------------------------------------------------------------------------
# Relation files

def parse_relations(text: str) -> tuple[dict[str, Variable], list[Relation]]:
    """Parse declarations and relations from relation-file text.

    Returns the declared variables (in order) and the relation list,
    with kind side relations injected ahead of the explicit ones.
    """
    stream = TokenStream(tokenize(text))
    variables: dict[str, Variable] = {}

    while stream.peek().kind == "ident" and stream.peek().value == "var":
        stream.next()
        name_tok = stream.take_ident()
        kind = "general"
        if stream.peek().kind == "ident":
            kind_tok = stream.next()
            if kind_tok.value not in KINDS:
                raise ParseError(
                    f"unknown variable kind {kind_tok.value!r}", kind_tok.pos)
            kind = kind_tok.value
        try:
            var = Variable(name_tok.value, kind)
        except PolyError as err:
            raise ParseError(str(err), name_tok.pos) from None
        if var.name in variables:
            raise ParseError(
                f"variable {var.name!r} declared twice", name_tok.pos)
        variables[var.name] = var
        stream.take_op(";")

    if not variables:
        tok = stream.peek()
        raise ParseError("a relation file starts with declarations", tok.pos)
    varset = tuple(variables.values())

    relations: list[Relation] = [
        _KIND_RELATIONS[v.kind](v.name)
        for v in variables.values() if v.kind in _KIND_RELATIONS]

    while stream.peek().kind == "ident" and stream.peek().value == "rel":
        rel_tok = stream.next()
        try:
            relations.append(_parse_relation(stream, variables, varset))
        except ValueError as err:
            if isinstance(err, ParseError):
                raise
            raise ParseError(str(err), rel_tok.pos) from None
        stream.take_op(";")

    tail = stream.peek()
    if tail.kind != "end":
        raise ParseError(
            f"expected 'rel' or end of file, found {tail.value!r}", tail.pos)
    return variables, relations


def _parse_relation(stream: TokenStream, variables: dict[str, Variable],
                    varset: tuple[Variable, ...]) -> Relation:
    tok = stream.peek()
    if tok.kind == "ident" and tok.value == "norm":
        stream.next()
        stream.take_op("(")
        p = parse_expr(stream, varset)
        stream.take_op(")")
        op = stream.take_op("<=", "<")
        bound = _take_number(stream)
        return NormBound(p, bound, strict=(op.value == "<"))
    if tok.kind == "ident" and tok.value == "blockpos":
        stream.next()
        stream.take_op("(")
        px = parse_expr(stream, varset)
        stream.take_op(",")
        py = parse_expr(stream, varset)
        stream.take_op(",")
        pz = parse_expr(stream, varset)
        stream.take_op(")")
        return BlockPositive(px, py, pz)
    if tok.kind == "ident" and tok.value in ("re", "normexp_re"):
        stream.next()
        stream.take_op("(")
        name_tok = stream.take_ident()
        if name_tok.value not in variables:
            raise ParseError(
                f"unknown variable {name_tok.value!r}", name_tok.pos)
        stream.take_op(")")
        stream.take_op("<=")
        bound = _take_number(stream)
        if tok.value == "re":
            return RealPartBound(name_tok.value, bound)
        return ExpRealNormBound(name_tok.value, bound)
    p = parse_expr(stream, varset)
    if stream.at_op("=", ">="):
        op = stream.next().value
        zero = stream.peek()
        if zero.kind != "num" or zero.value != 0:
            raise ParseError(f"the right side of '{op}' must be 0", zero.pos)
        stream.next()
        return PolyZero(p) if op == "=" else PolyPositive(p)
    if stream.at_op("<="):
        stream.next()
        q = parse_expr(stream, varset)
        return OperatorOrder(p, q)
    bad = stream.peek()
    raise ParseError(
        f"expected '=', '>=' or '<=', found {_describe(bad)}", bad.pos)


def _take_number(stream: TokenStream) -> float:
    tok = stream.peek()
    if tok.kind != "num":
        raise ParseError(f"expected a number, found {_describe(tok)}", tok.pos)
    stream.next()
    return float(tok.value)


def describe(rel: Relation) -> str:
    """Short text for tables and report rows."""
    match rel:
        case PolyZero(poly=p):
            return f"{format_poly(p)} = 0"
        case PolyPositive(poly=p):
            return f"{format_poly(p)} >= 0"
        case NormBound(poly=p, bound=c, strict=s):
            return f"norm({format_poly(p)}) {'<' if s else '<='} {format_number(c)}"
        case OperatorOrder(lesser=p, greater=q):
            return f"{format_poly(p)} <= {format_poly(q)}"
        case SelfAdjoint(var=v):
            return f"{v} hermitian"
        case Positive(var=v):
            return f"{v} positive"
        case Range01(var=v):
            return f"{v} in [0, 1]"
        case Unitary(var=v):
            return f"{v} unitary"
        case Contraction(var=v):
            return f"{v} contraction"
        case BlockPositive(x=px, y=py, z=pz):
            return (f"blockpos({format_poly(px)}, {format_poly(py)}, "
                    f"{format_poly(pz)})")
        case RealPartBound(var=v, bound=b):
            return f"re({v}) <= {format_number(b)}"
        case ExpRealNormBound(var=v, bound=b):
            return f"normexp_re({v}) <= {format_number(b)}"
    raise TypeError(f"unknown relation {rel!r}")


def format_relations(variables: Mapping[str, Variable] | Iterable[Variable],
                     relations: Sequence[Relation]) -> str:
    """Canonical relation-file text; parsing it back gives the same
    variables and relations, and printing those gives the same text.

    Side relations implied by variable kinds are folded into the
    declarations.  Relations with no file syntax (explicit SelfAdjoint
    and friends, Range01) raise ValueError.
    """
    if isinstance(variables, Mapping):
        ordered = list(variables.values())
    else:
        ordered = list(variables)
    lines = []
    for v in ordered:
        kind = "" if v.kind == "general" else f" {v.kind}"
        lines.append(f"var {v.name}{kind};")
    pending = [
        _KIND_RELATIONS[v.kind](v.name)
        for v in ordered if v.kind in _KIND_RELATIONS]
    for rel in relations:
        if rel in pending:
            pending.remove(rel)
            continue
        lines.append(f"rel {_format_relation(rel)};")
    return "\n".join(lines) + "\n"


def _format_relation(rel: Relation) -> str:
    if isinstance(rel, (*_KIND_RELATIONS.values(), Range01)):
        raise ValueError(
            f"{type(rel).__name__} has no explicit file syntax; "
            "declare the variable with the matching kind instead")
    return describe(rel)


def load_relations(path) -> tuple[dict[str, Variable], list[Relation]]:
    return parse_relations(Path(path).read_text())


# ---------------------------------------------------------------------------
# Assignment files

# A matrix entry: two decimals of the polynomial lexer, the second signed.
_ENTRY_RE = re.compile(
    rf"([+-]?{_NUM_RE.pattern})([+-]{_NUM_RE.pattern})i\Z")


def parse_assignment(text: str) -> Assignment:
    """Parse the plain-text assignment format (see the module docstring)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty assignment file")
    header = lines[0].split()
    if (len(header) != 4 or header[0] != "dim" or header[2] != "vars"
            or not header[1].isdecimal() or not header[3].isdecimal()):
        raise ParseError(f"bad assignment header {lines[0]!r}")
    dim, count = int(header[1]), int(header[3])
    if dim < 1:
        raise ParseError("assignment dimension must be at least 1")
    if count < 1:
        raise ParseError("an assignment needs at least one variable")
    expected = 1 + count * (dim + 1)
    if len(lines) != expected:
        raise ParseError(
            f"expected {expected} nonempty lines for dim {dim} and "
            f"{count} variables, found {len(lines)}")
    mats: dict[str, np.ndarray] = {}
    at = 1
    for _ in range(count):
        name = lines[at]
        if not _IDENT_RE.match(name):
            raise ParseError(f"bad variable name line {name!r}")
        if name in mats:
            raise ParseError(f"variable {name!r} appears twice")
        at += 1
        mats[name] = _parse_matrix(lines[at:at + dim], name)
        at += dim
    return Assignment(mats)


# The characters of a row whose entries all have the form of _ENTRY_RE
# and are written in ASCII.
_ROW_CHARS_RE = re.compile(r"[0-9.eE+\-i ]*\Z")


def _parse_matrix(rows: list[str], name: str) -> np.ndarray:
    """The matrix of ``name`` from its ``dim`` row lines.

    A row of plain ASCII entries goes through ``complex`` in one pass.
    Any other row is parsed entry by entry, which raises the first error
    in it and accepts what ``_ENTRY_RE`` accepts, such as non-ASCII
    digits.  A row the fast path takes parses to the same values entry
    by entry, so no row it takes hides an error.
    """
    dim = len(rows)
    m = np.empty((dim, dim), dtype=complex)
    for r, line in enumerate(rows):
        entries = _fast_row(line, dim)
        if entries is None:
            cells = line.split()
            if len(cells) != dim:
                raise ParseError(
                    f"row {r} of {name!r} has {len(cells)} entries, "
                    f"expected {dim}")
            entries = [_parse_entry(c, name) for c in cells]
        m[r] = entries
    return m


def _fast_row(line: str, dim: int) -> list[complex] | None:
    """The entries of a row when it has ``dim`` cells, each of the form of
    _ENTRY_RE in ASCII, else None.

    With ``i`` read as ``j``, ``complex`` reads every such cell.  Of the
    other cells made of these characters it reads only those with no
    real part (``2j``), no imaginary part (``2``) or no imaginary digits
    (``1+j``).  The last have ``+i`` or ``-i``.  The first two have no
    sign between the parts, that is, no sign that neither starts the
    cell nor follows an ``e``, while ``complex`` rejects a cell with two
    such signs; so a row with exactly ``dim`` of them has one in each
    cell, and one ``i`` at the end of each.
    """
    if (not _ROW_CHARS_RE.match(line)
            or "+i" in line or "-i" in line):
        return None
    signs = line.count("+") + line.count("-")
    leading = (line.count(" +") + line.count(" -")
               + line.startswith(("+", "-")))
    exponent = line.count("e+") + line.count("e-")
    if "E" in line:
        exponent += line.count("E+") + line.count("E-")
    if signs - leading - exponent != dim:
        return None
    cells = line.replace("i", "j").split()
    if len(cells) != dim:
        return None
    try:
        return list(map(complex, cells))
    except ValueError:
        return None


def _parse_entry(cell: str, name: str) -> complex:
    m = _ENTRY_RE.match(cell)
    if not m:
        raise ParseError(
            f"bad matrix entry {cell!r} in {name!r}; entries look like 1.0-2.0i")
    return complex(float(m.group(1)), float(m.group(2)))


def format_assignment(a: Assignment) -> str:
    """Render an assignment in the plain-text format."""
    lines = [f"dim {a.dim} vars {len(a.names())}"]
    for name in a.names():
        lines.append(name)
        for row in a[name]:
            lines.append(" ".join(_format_entry(z) for z in row))
    return "\n".join(lines) + "\n"


def _format_entry(z: complex) -> str:
    z = complex(z)
    sign = "-" if z.imag < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def load_assignment(path) -> Assignment:
    return parse_assignment(Path(path).read_text())
