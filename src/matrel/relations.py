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
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import matcalc
from .matcalc import DEFAULT_POLICY, TolerancePolicy
from .ncpoly import (
    KINDS,
    Assignment,
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
        elif not self.bound >= 0:
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

# Relations on one variable's real part, spelled ``word(x) <= bound``.
_PART_RELATIONS = {"re": RealPartBound, "normexp_re": ExpRealNormBound}

# The file word of each relation class in the two tables above.
_WORDS = {cls: word for table in (_KIND_RELATIONS, _PART_RELATIONS)
          for word, cls in table.items()}


def side_relations(variables: Iterable[Variable]) -> list[Relation]:
    """The relations the variables' kinds imply, in declaration order;
    :func:`parse_relations` puts them ahead of a file's explicit ones."""
    return [_KIND_RELATIONS[v.kind](v.name)
            for v in variables if v.kind in _KIND_RELATIONS]


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one relation (or a whole set).

    ``margin`` is positive when the relation holds with room to spare and
    negative when it fails.  For a set, ``margin`` is the minimum over
    members and ``parts`` holds the member verdicts in order.
    """

    satisfied: bool
    margin: float
    detail: str = ""
    parts: tuple["Verdict", ...] = ()

    @property
    def residual(self) -> float:
        """How badly the relation fails: max(0, -margin)."""
        return max(0.0, -self.margin)


def residual(rel: Relation, a: Assignment,
             policy: TolerancePolicy = DEFAULT_POLICY) -> Verdict:
    """Check one relation against an assignment.

    Relations whose margin is an eigenvalue bound need a Hermitian
    matrix; when the evaluated matrix is not Hermitian within tolerance,
    the margin is the equality slack minus the Hermitian defect instead,
    so the verdict degrades to a quantified failure rather than an
    exception.  An assignment with an operator norm that overflows leaves
    no slack, and fails every relation with margin -inf and residual inf.
    So does an evaluation that overflows (``x^4000``, ``exp`` of a large
    real part), and the detail says which of the two it was.  So does a
    fractional power of a matrix that is not Hermitian or not positive,
    with the error's text as the detail.  A margin that is NaN fails the
    same way, with detail "margin is not a number": max(0, -NaN) is 0,
    so without that no residual could tell it from a satisfied one.
    """
    detail = "an operator norm of the assignment overflowed"
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            a.scale()
            detail = "evaluation overflowed to non-finite entries"
            verdict = _residual(rel, a, policy)
    except matcalc.NonFiniteError:
        return Verdict(False, -math.inf, detail)
    except matcalc.MEASUREMENT_ERRORS as err:
        return Verdict(False, -math.inf, str(err))
    if math.isnan(verdict.margin):
        return Verdict(False, -math.inf, "margin is not a number")
    return verdict


def residual_value(rel: Relation, a: Assignment,
                   policy: TolerancePolicy = DEFAULT_POLICY) -> float:
    """``residual(rel, a, policy).residual``, bit for bit.

    A satisfied relation's residual is 0.0 whatever its margin, so a
    :class:`PolyZero` or :class:`NormBound` reads 0.0 with no SVD when the
    finite :func:`~matrel.matcalc.op_norm_bound` of p(a), widened by
    :data:`~matrel.matcalc.BOUND_MARGIN`, is at most the threshold that
    :func:`residual` holds ||p(a)|| to.  Every other case is residual's."""
    if isinstance(rel, (PolyZero, NormBound)):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                threshold = _norm_threshold(rel, policy.slack(a.scale())[0])
                bound = matcalc.op_norm_bound(evaluate(rel.poly, a, policy))
            if (math.isfinite(bound)
                    and bound * (1.0 + matcalc.BOUND_MARGIN) <= threshold):
                return 0.0
        except matcalc.MEASUREMENT_ERRORS:
            pass
    return residual(rel, a, policy).residual


def _norm_threshold(rel: PolyZero | NormBound, eq_slack: float) -> float:
    """The most ||p(a)|| may be with ``rel`` satisfied: the equality slack
    for p(a) = 0, c plus it for ||p(a)|| <= c, and c for a strict bound."""
    match rel:
        case PolyZero():
            return eq_slack
        case NormBound(bound=c, strict=strict):
            return c if strict else c + eq_slack


def _residual(rel: Relation, a: Assignment, policy: TolerancePolicy
              ) -> Verdict:
    eq_slack, psd_slack = policy.slack(a.scale())
    strict = False  # the NormBound arm binds its own

    def eig_margin(m: np.ndarray, what: str, low_of=lambda w: w[0]
                   ) -> tuple[float, str]:
        """Margin and detail of ``low_of(spectrum) >= 0``.  A matrix that
        is not self-adjoint fails by its defect beyond the equality
        slack."""
        defect = matcalc.hermitian_excess(m, eq_slack)
        if defect:
            return eq_slack - defect, f"not self-adjoint, defect {defect:.3e}"
        low = float(low_of(matcalc.spectrum_values(m)))
        return low + psd_slack, f"{what} {low:.6e}"

    match rel:
        case PolyZero(poly=p):
            norm = a.poly_norm(p, policy)
            margin = _norm_threshold(rel, eq_slack) - norm
            detail = f"||p(a)|| = {norm:.6e}"
        case PolyPositive(poly=p):
            margin, detail = eig_margin(evaluate(p, a, policy),
                                        "min eigenvalue")
        case NormBound(poly=p, bound=c, strict=strict):
            norm = a.poly_norm(p, policy)
            margin = _norm_threshold(rel, eq_slack) - norm
            detail = f"||p(a)|| = {norm:.6e} vs bound {c:g}"
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
            defect = matcalc.unitary_defect(a[v])
            margin = eq_slack - defect
            detail = f"unitarity defect {defect:.6e}"
        case Contraction(var=v):
            norm = a.op_norm(v)
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
            w, vecs = a.spectrum(v)
            norm = matcalc.op_norm(matcalc.from_spectrum(vecs, np.exp(w)))
            margin = beta + eq_slack - norm
            detail = f"||exp(re m)|| = {norm:.6e} vs {beta:g}"
        case _:
            raise TypeError(f"unknown relation {rel!r}")
    return Verdict(margin > 0 if strict else margin >= 0, margin, detail)


def check_all(relations: Sequence[Relation], a: Assignment,
              policy: TolerancePolicy = DEFAULT_POLICY) -> Verdict:
    """Check every relation; the aggregate margin is the worst one."""
    parts = tuple(residual(rel, a, policy) for rel in relations)
    if not parts:
        return Verdict(True, float("inf"), "no relations")
    good = sum(v.satisfied for v in parts)
    return Verdict(good == len(parts), min(v.margin for v in parts),
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
    relations = side_relations(variables.values())

    while stream.peek().kind == "ident" and stream.peek().value == "rel":
        rel_tok = stream.next()
        try:
            relations.append(_parse_relation(stream, variables))
        except ValueError as err:
            if isinstance(err, ParseError):
                raise
            raise ParseError(str(err), rel_tok.pos) from None
        stream.take_op(";")

    tail = stream.peek()
    if tail.kind != "end":
        raise ParseError(
            f"expected 'rel' or end of file, found {_describe(tail)}", tail.pos)
    return variables, relations


def _parse_relation(stream: TokenStream, variables: dict[str, Variable]
                    ) -> Relation:
    varset = tuple(variables.values())
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
    if tok.kind == "ident" and tok.value in _PART_RELATIONS:
        stream.next()
        stream.take_op("(")
        name_tok = stream.take_ident()
        if name_tok.value not in variables:
            raise ParseError(
                f"unknown variable {name_tok.value!r}", name_tok.pos)
        stream.take_op(")")
        stream.take_op("<=")
        return _PART_RELATIONS[tok.value](name_tok.value, _take_number(stream))
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
        case SelfAdjoint() | Positive() | Unitary() | Contraction():
            return f"{rel.var} {_WORDS[type(rel)]}"
        case Range01(var=v):
            return f"{v} in [0, 1]"
        case BlockPositive(x=px, y=py, z=pz):
            return (f"blockpos({format_poly(px)}, {format_poly(py)}, "
                    f"{format_poly(pz)})")
        case RealPartBound(var=v, bound=b) | ExpRealNormBound(var=v, bound=b):
            return f"{_WORDS[type(rel)]}({v}) <= {format_number(b)}"
    raise TypeError(f"unknown relation {rel!r}")


def format_relations(variables: Mapping[str, Variable],
                     relations: Sequence[Relation]) -> str:
    """Canonical relation-file text; parsing it back gives the same
    variables and relations, and printing those gives the same text.

    Side relations implied by variable kinds are folded into the
    declarations.  Relations with no file syntax (explicit SelfAdjoint
    and friends, Range01, a bound that is not finite) raise ValueError.
    """
    lines = []
    for v in variables.values():
        kind = "" if v.kind == "general" else f" {v.kind}"
        lines.append(f"var {v.name}{kind};")
    pending = side_relations(variables.values())
    for rel in relations:
        if rel in pending:
            pending.remove(rel)
            continue
        if isinstance(rel, (*_KIND_RELATIONS.values(), Range01)):
            raise ValueError(
                f"{type(rel).__name__} has no explicit file syntax; "
                "declare the variable with the matching kind instead")
        if (isinstance(rel, (NormBound, *_PART_RELATIONS.values()))
                and not math.isfinite(rel.bound)):
            raise ValueError(f"{describe(rel)}: a file bound must be finite")
        lines.append(f"rel {describe(rel)};")
    return "\n".join(lines) + "\n"


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
    """Render an assignment in the plain-text format; parsing it back
    gives every entry bit for bit, the sign of each zero included."""
    lines = [f"dim {a.dim} vars {len(a.names())}"]
    for name in a.names():
        lines.append(name)
        for row in a[name]:
            lines.append(" ".join(_format_entry(z) for z in row))
    return "\n".join(lines) + "\n"


def _format_entry(z: complex) -> str:
    z = complex(z)
    sign = "-" if math.copysign(1.0, z.imag) < 0 else "+"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"
