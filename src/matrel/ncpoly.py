"""Noncommutative *-polynomials over a finite set of matrix variables.

A polynomial is a finite sum of monomials.  Each monomial is a complex
coefficient times a word, and each word is a sequence of factors
``(name, star, exponent)``: a variable, an optional adjoint, and a
positive rational exponent.  There is no constant term; the zero
polynomial is the empty sum.

Canonical form, maintained by every constructor and operation:

* adjacent factors with the same variable and the same star flag are
  merged by adding exponents;
* the star flag is cleared on self-adjoint variables (kind ``hermitian``
  or ``positive``), so ``x*`` and ``x`` are the same factor there;
* fractional exponents are only allowed on self-adjoint variables;
* coefficients are finite, and monomials with coefficient zero are
  dropped;
* monomials are ordered by descending total degree, then by word.

Equal polynomials therefore compare equal, and printing is a bijection
onto canonical text: ``parse -> print -> parse`` is a fixed point.

The concrete syntax: juxtaposition multiplies, ``*`` is the adjoint,
``^`` takes an integer or a parenthesized rational exponent, and scalar
literals are decimals, imaginary decimals like ``2i``, or complex
literals like ``(1.5-2i)``.  Example: ``x* x - x x*``.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from . import matcalc

KINDS = ("general", "hermitian", "positive", "unitary", "contraction")

SELFADJOINT_KINDS = ("hermitian", "positive")

# Words with special meaning in the expression or relation syntax; none
# of them may be used as a variable name.  "i" is reserved so that
# imaginary literals such as 1i cannot be shadowed.
RESERVED_NAMES = frozenset(
    {"var", "rel", "norm", "blockpos", "re", "normexp_re", "i"} | set(KINDS))

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class PolyError(ValueError):
    """Base class for polynomial construction and parse failures."""


class ParseError(PolyError):
    """Syntax or semantic error in polynomial or relation text."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at offset {pos})"
        super().__init__(message)


class UnknownVariableError(ParseError):
    pass


class ConstantTermError(ParseError):
    pass


class ExponentError(PolyError):
    """Exponent is not positive, or fractional on a non-self-adjoint variable."""


@dataclass(frozen=True, order=True)
class Variable:
    """A named matrix variable with a kind constraining its values.

    Kinds: general (no constraint), hermitian, positive, unitary,
    contraction.  Self-adjoint kinds make the adjoint a no-op on the
    symbol itself.
    """

    name: str
    kind: str = "general"

    def __post_init__(self) -> None:
        if not _IDENT_RE.match(self.name):
            raise PolyError(f"invalid variable name {self.name!r}")
        if self.name in RESERVED_NAMES:
            raise PolyError(f"variable name {self.name!r} is reserved")
        if self.kind not in KINDS:
            raise PolyError(f"unknown variable kind {self.kind!r}")

    @property
    def selfadjoint(self) -> bool:
        return self.kind in SELFADJOINT_KINDS


# A factor is (variable name, star flag, exponent).
Factor = tuple[str, bool, Fraction]


@dataclass(frozen=True)
class Monomial:
    """One term: a complex coefficient times a word of factors."""

    coeff: complex
    word: tuple[Factor, ...]

    def degree(self) -> Fraction:
        return sum((f[2] for f in self.word), Fraction(0))


def _as_variables(variables) -> tuple[Variable, ...]:
    if isinstance(variables, Mapping):
        variables = variables.values()
    vs = sorted(set(variables))
    names = [v.name for v in vs]
    if len(set(names)) != len(names):
        raise PolyError(f"duplicate variable names in {names}")
    return tuple(vs)


def _canonical_word(word, kinds: Mapping[str, str]) -> tuple[Factor, ...]:
    out: list[list] = []
    for name, star, exp in word:
        if name not in kinds:
            raise PolyError(f"word uses undeclared variable {name!r}")
        exp = exp if isinstance(exp, Fraction) else Fraction(exp)
        if exp <= 0:
            raise ExponentError(f"exponent {exp} of {name!r} must be positive")
        if kinds[name] in SELFADJOINT_KINDS:
            star = False
        elif exp.denominator != 1:
            raise ExponentError(
                f"fractional exponent {exp} needs a self-adjoint variable, "
                f"and {name!r} is {kinds[name]}")
        star = bool(star)
        if out and out[-1][0] == name and out[-1][1] == star:
            out[-1][2] += exp
        else:
            out.append([name, star, exp])
    return tuple((n, s, e) for n, s, e in out)


def _join(u: tuple[Factor, ...], v: tuple[Factor, ...]) -> tuple[Factor, ...]:
    """The canonical word of u v, for canonical words u and v: only u's
    last factor and v's first can merge, so only the seam is looked at."""
    if u and v and u[-1][:2] == v[0][:2]:
        name, star, exp = u[-1]
        return u[:-1] + ((name, star, exp + v[0][2]),) + v[1:]
    return u + v


# The most factors a product of polynomials may expand to before its
# like terms merge.  Without it a short text such as (x + y)^30 or
# (x y)^2000 takes minutes or all memory to expand; at the bound the
# slowest products, such as (x + y)^7, parse in about 10 ms.
MAX_EXPANSION = 1000


def _factors(p: NcPolynomial) -> int:
    return sum(len(m.word) for m in p.monomials)


def _check_expansion(factors: int) -> None:
    if factors > MAX_EXPANSION:
        raise PolyError(f"a product expands to more than {MAX_EXPANSION} "
                        "factors")


@dataclass(frozen=True)
class NcPolynomial:
    """Canonical noncommutative *-polynomial.

    Instances are built through :meth:`from_terms`, :func:`parse_poly`,
    or arithmetic on existing polynomials; the raw constructor trusts
    its arguments to be canonical already.
    """

    variables: tuple[Variable, ...]
    monomials: tuple[Monomial, ...]

    @classmethod
    def from_terms(cls, variables, terms: Iterable[tuple[complex, Iterable]]
                   ) -> "NcPolynomial":
        """Build a polynomial from (coefficient, word) pairs.

        Words are iterables of (name, star, exponent) factors; an empty
        word would be a constant term and is rejected.
        """
        vs = _as_variables(variables)
        kinds = {v.name: v.kind for v in vs}
        canonical = []
        for coeff, word in terms:
            word = _canonical_word(word, kinds)
            if not word:
                raise ConstantTermError("polynomials have no constant term")
            canonical.append((coeff, word))
        return cls._collect(vs, canonical)

    @classmethod
    def _collect(cls, vs: tuple[Variable, ...],
                 terms: list[tuple[complex, tuple[Factor, ...]]]
                 ) -> "NcPolynomial":
        """The polynomial over canonical variables ``vs`` of (coefficient,
        canonical nonempty word) pairs: like terms merged, zeros dropped,
        monomials sorted.  One term has nothing to merge with, so its long
        word is neither hashed nor summed for a sort key."""
        if len(terms) == 1:
            pairs = [(word, 0 + complex(coeff)) for coeff, word in terms]
        else:
            merged: dict[tuple[Factor, ...], complex] = {}
            for coeff, word in terms:
                merged[word] = merged.get(word, 0) + complex(coeff)
            pairs = merged.items()
        for _, c in pairs:
            if not cmath.isfinite(c):
                raise PolyError(f"coefficient {c} is not finite")
        monos = [Monomial(c, w) for w, c in pairs if c != 0]
        if len(monos) > 1:
            monos.sort(key=lambda m: (-m.degree(), m.word))
        return cls(vs, tuple(monos))

    @classmethod
    def zero(cls, variables) -> "NcPolynomial":
        return cls(_as_variables(variables), ())

    def _check_compatible(self, other: "NcPolynomial") -> None:
        if self.variables != other.variables:
            raise PolyError("polynomials are over different variable sets")

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        self._check_compatible(other)
        return NcPolynomial._collect(
            self.variables,
            [(m.coeff, m.word) for m in self.monomials + other.monomials])

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return self + (-other)

    def __neg__(self) -> "NcPolynomial":
        return NcPolynomial(
            self.variables,
            tuple(Monomial(-m.coeff, m.word) for m in self.monomials))

    def __mul__(self, other) -> "NcPolynomial":
        if isinstance(other, NcPolynomial):
            self._check_compatible(other)
            _check_expansion(len(self.monomials) * _factors(other)
                             + len(other.monomials) * _factors(self))
            terms = [(m.coeff * n.coeff, _join(m.word, n.word))
                     for m in self.monomials for n in other.monomials]
            return NcPolynomial._collect(self.variables, terms)
        c = complex(other)
        return NcPolynomial._collect(
            self.variables, [(c * m.coeff, m.word) for m in self.monomials])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "NcPolynomial":
        if not isinstance(n, int) or n < 1:
            raise ExponentError("polynomial powers must be positive integers")
        # p^n expands to n |p|^(n-1) factors for each factor of p.  The
        # loop alone takes n steps, and bounding n first keeps |p|^(n-1)
        # a small integer.
        size = max(_factors(self), 1)
        _check_expansion(n * size)
        _check_expansion(n * len(self.monomials) ** (n - 1) * size)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def adjoint(self) -> "NcPolynomial":
        """Formal adjoint: conjugated coefficients, reversed starred words."""
        terms = []
        for m in self.monomials:
            word = [(name, not star, exp) for name, star, exp in reversed(m.word)]
            terms.append((np.conj(m.coeff), word))
        return NcPolynomial.from_terms(self.variables, terms)

    def __str__(self) -> str:
        return format_poly(self)


def homogeneity(p: NcPolynomial) -> Fraction | None:
    """The common degree of all monomials, or None if degrees differ.

    The zero polynomial has no homogeneity degree.
    """
    if not p.monomials:
        raise PolyError("the zero polynomial has no homogeneity degree")
    degrees = {m.degree() for m in p.monomials}
    if len(degrees) == 1:
        return degrees.pop()
    return None


# ---------------------------------------------------------------------------
# Evaluation

class Assignment:
    """An immutable map from variable names to same-dimension matrices.

    Every matrix is square, finite and at least 1x1, checked once here;
    :func:`evaluate` trusts an assignment it is given.  Since nothing in
    it changes, it keeps what is costly to derive, each the first time it
    is asked for: each variable's operator norm, the slack scale
    max(1, largest norm), the norm of each polynomial it evaluates, each
    variable's Hermitian-part spectrum and each fractional power.  A
    kept result is the same call on the same bits as a fresh one, and
    the scale skips only norms that a bound shows cannot reach it, so
    reading the memo never changes a value.
    """

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
            raise PolyError("an assignment needs at least one variable")
        self._store = store
        self.dim = dim
        self._memo: dict[tuple, object] = {}

    def _keep(self, key: tuple, make):
        """The value kept under ``key``, made by ``make()`` the first time
        it is asked for.  A call that raises keeps nothing, and raises
        again."""
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

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

    def op_norm(self, name: str) -> float:
        """The operator norm of ``name``'s matrix."""
        return self._keep(("norm", name), lambda: matcalc.op_norm(self[name]))

    def max_norm(self) -> float:
        return max(self.op_norm(name) for name in self._store)

    def scale(self) -> float:
        """max(1, :meth:`max_norm`), bit for bit: the one norm that
        :meth:`~matrel.matcalc.TolerancePolicy.slack` is given.  Variables
        are visited by decreasing :func:`~matrel.matcalc.op_norm_bound`,
        and once a bound, with its margin, is at most the running value,
        no norm left can raise it, so none is taken.  A norm that overflows
        scales no slack, and raises :class:`~matrel.matcalc.NonFiniteError`."""
        def make() -> float:
            scale = 1.0
            bounds = sorted(((matcalc.op_norm_bound(m), name)
                             for name, m in self._store.items()), reverse=True)
            for bound, name in bounds:
                if bound * (1.0 + matcalc.BOUND_MARGIN) <= scale:
                    break
                scale = max(scale, self.op_norm(name))
            if math.isinf(scale):
                raise matcalc.NonFiniteError("an operator norm overflowed")
            return scale
        return self._keep(("scale",), make)

    def poly_norm(self, p: NcPolynomial,
                  policy: matcalc.TolerancePolicy = matcalc.DEFAULT_POLICY
                  ) -> float:
        """||p(a)||, kept per policy as :meth:`power` is."""
        return self._keep(("poly_norm", p, policy), lambda: matcalc.op_norm(
            evaluate(p, self, policy)))

    def spectrum(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """:func:`~matrel.matcalc.spectrum` of ``name``'s matrix, read-only."""
        return self._keep(("spectrum", name), lambda: tuple(
            map(_read_only, matcalc.spectrum(self[name]))))

    def power(self, name: str, exponent: Fraction,
              policy: matcalc.TolerancePolicy = matcalc.DEFAULT_POLICY
              ) -> np.ndarray:
        """:func:`~matrel.matcalc.fractional_power` of ``name``'s matrix
        on :meth:`spectrum`, read-only; kept per policy, which decides the
        Hermitian check and the clamp."""
        return self._keep(("power", name, exponent, policy),
                          lambda: _read_only(matcalc.fractional_power(
                              self[name], exponent, policy,
                              functools.partial(self.spectrum, name))))

    def __repr__(self) -> str:
        return f"Assignment(dim={self.dim}, vars={list(self._store)})"


def _read_only(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


def evaluate(p: NcPolynomial, assignment,
             policy: matcalc.TolerancePolicy = matcalc.DEFAULT_POLICY
             ) -> np.ndarray:
    """Evaluate at an :class:`Assignment`; any other mapping from names
    to matrices is converted to one first.

    Every variable that occurs in a monomial of ``p`` must be assigned.
    Fractional powers go through the Hermitian functional calculus and
    require a spectrum that is nonnegative within the positivity
    tolerance.  The zero polynomial evaluates to the zero matrix of the
    assignment's dimension.
    """
    a = (assignment if isinstance(assignment, Assignment)
         else Assignment(assignment))
    # Each distinct factor is powered once per call; the assignment keeps
    # fractional ones, which are self-adjoint and so never starred.
    powers: dict[Factor, np.ndarray] = {}
    for factor in dict.fromkeys(f for mono in p.monomials for f in mono.word):
        name, star, exp = factor
        if exp.denominator != 1:
            powers[factor] = a.power(name, exp, policy)
        else:
            base = matcalc.adjoint(a[name]) if star else a[name]
            powers[factor] = np.linalg.matrix_power(base, int(exp))
    # acc starts at +0, which absorbs the sign of a zero in any product.
    acc = np.zeros((a.dim, a.dim), dtype=complex)
    for mono in p.monomials:
        acc += mono.coeff * functools.reduce(
            np.matmul, [powers[f] for f in mono.word])
    return acc


# ---------------------------------------------------------------------------
# Lexer, shared by the polynomial and relation parsers

@dataclass(frozen=True)
class Token:
    kind: str      # "num", "imag", "ident", "op", "end"
    value: object  # float, float, str, str, None
    pos: int
    text: str      # as written in the source; "" at the end


_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_TOKEN_RE = re.compile(
    rf"(?P<space>\s+)|(?P<imag>{_NUM_RE.pattern}i(?!\w))"
    rf"|(?P<num>{_NUM_RE.pattern})|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|[-+*^()/,;=<>])")


def tokenize(text: str) -> list[Token]:
    """Split text into tokens, ending with an "end" token.

    A number immediately followed by a lone ``i`` is an imaginary
    literal; ``2i`` is imaginary while ``2ix`` is the number 2 followed
    by the identifier ``ix``.  A number that overflows to inf, or a
    nonzero one that underflows to 0.0 (``1e-400``, not ``0e5``), is a
    ParseError.
    """
    tokens: list[Token] = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        kind, value = m.lastgroup, m.group()
        if kind in ("imag", "num"):
            literal = value.removesuffix("i")
            value = float(literal)
            # a nonzero digit before the exponent makes the literal nonzero
            mantissa = literal.upper().partition("E")[0]
            if math.isinf(value) or (value == 0.0 and mantissa.strip("0.")):
                raise ParseError(f"number {literal!r} is out of range", i)
        if kind != "space":
            tokens.append(Token(kind, value, i, m.group()))
        i = m.end()
    tokens.append(Token("end", None, len(text), ""))
    return tokens


class TokenStream:
    """Cursor over a token list with small convenience checks."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "end":
            self.i += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.value in ops

    def take_op(self, *ops: str) -> Token:
        if not self.at_op(*ops):
            tok = self.peek()
            want = " or ".join(repr(o) for o in ops)
            raise ParseError(f"expected {want}, found {_describe(tok)}", tok.pos)
        return self.next()

    def take_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise ParseError(f"expected a name, found {_describe(tok)}", tok.pos)
        return self.next()


def _describe(tok: Token) -> str:
    return "end of input" if tok.kind == "end" else repr(tok.text)


# ---------------------------------------------------------------------------
# Expression parser

def parse_poly(text: str, variables) -> NcPolynomial:
    """Parse a polynomial expression over the given variables.

    Raises :class:`ParseError` (with offset) for syntax errors,
    :class:`UnknownVariableError` for undeclared names, and
    :class:`ConstantTermError` for nonzero scalar-only terms; the literal
    ``0`` denotes the zero polynomial.
    """
    vs = _as_variables(variables)
    stream = TokenStream(tokenize(text))
    p = parse_expr(stream, vs)
    end = stream.peek()
    if end.kind != "end":
        raise ParseError(f"trailing input {_describe(end)}", end.pos)
    return p


def parse_expr(stream: TokenStream, variables: tuple[Variable, ...]
               ) -> NcPolynomial:
    """Parse one expression from the stream, leaving the cursor after it."""
    negate = bool(stream.at_op("-") and stream.next())
    p = _parse_term(stream, variables, negate)
    while stream.at_op("+", "-"):
        op = stream.next().value
        q = _parse_term(stream, variables, op == "-")
        p = p + q
    return p


def _parse_term(stream: TokenStream, variables, negate: bool) -> NcPolynomial:
    start = stream.peek()
    coeff = _parse_scalar(stream)
    factors: list[NcPolynomial] = []
    while stream.peek().kind == "ident" or stream.at_op("("):
        factors.append(_parse_factor(stream, variables))
    if not factors:
        if coeff is None:
            raise ParseError(
                f"expected a term, found {_describe(start)}", start.pos)
        if coeff != 0:
            raise ConstantTermError(
                "constant terms are not allowed", start.pos)
        return NcPolynomial.zero(variables)
    p = factors[0]
    for f in factors[1:]:
        p = p * f
    if coeff is not None:
        p = coeff * p
    return -p if negate else p


def _parse_scalar(stream: TokenStream):
    """Parse an optional scalar literal; None when absent."""
    tok = stream.peek()
    if tok.kind == "num":
        stream.next()
        return complex(tok.value)
    if tok.kind == "imag":
        stream.next()
        return complex(0.0, tok.value)
    if (stream.at_op("(") and stream.peek(1).kind == "num"
            and stream.peek(2).kind == "op" and stream.peek(2).value in "+-"
            and stream.peek(3).kind == "imag"
            and stream.peek(4).kind == "op" and stream.peek(4).value == ")"):
        stream.next()
        real = stream.next().value
        sign = -1.0 if stream.next().value == "-" else 1.0
        imag = stream.next().value
        stream.next()
        return complex(real, sign * imag)
    return None


def _parse_factor(stream: TokenStream, variables) -> NcPolynomial:
    """A variable or a parenthesized expression, with its stars and
    exponent; :func:`_parse_term` calls it only at one of the two."""
    kinds = {v.name: v.kind for v in _as_variables(variables)}
    tok = stream.peek()
    if tok.kind == "ident":
        stream.next()
        name = tok.value
        if name == "i":
            raise ParseError(
                "bare 'i' is not a factor; write imaginary literals like 1i",
                tok.pos)
        if name not in kinds:
            raise UnknownVariableError(f"unknown variable {name!r}", tok.pos)
        star = False
        exp = None
        while stream.at_op("*", "^"):
            op = stream.next()
            if op.value == "*":
                star = not star
            else:
                if exp is not None:
                    # (x^2)^(1/2) is |x|, not x, so exponents never stack.
                    raise ParseError("repeated exponent on one factor", op.pos)
                exp = _parse_rational(stream, op.pos)
        word = [(name, star, exp if exp is not None else Fraction(1))]
        try:
            return NcPolynomial.from_terms(variables, [(1.0, word)])
        except ExponentError as err:
            raise ParseError(str(err), tok.pos) from None
    stream.take_op("(")
    inner = parse_expr(stream, variables)
    stream.take_op(")")
    while stream.at_op("*", "^"):
        op = stream.next()
        if op.value == "*":
            inner = inner.adjoint()
        else:
            e = _parse_rational(stream, op.pos)
            if e.denominator != 1:
                raise ParseError(
                    "fractional exponents apply to single variables only",
                    op.pos)
            inner = inner ** int(e)
    return inner


def _parse_rational(stream: TokenStream, pos: int) -> Fraction:
    """Parse a positive exponent, an integer or a parenthesized integer
    ratio; a zero one is a ParseError at ``pos``, the offset of its ``^``."""
    if stream.at_op("("):
        stream.next()
        num = _parse_integer(stream)
        stream.take_op("/")
        den = _parse_integer(stream)
        stream.take_op(")")
        if den == 0:
            raise ParseError("zero denominator in exponent", stream.peek().pos)
        exp = Fraction(num, den)
    else:
        exp = Fraction(_parse_integer(stream))
    if exp <= 0:
        raise ParseError(f"exponent {exp} must be positive", pos)
    return exp


def _parse_integer(stream: TokenStream) -> int:
    tok = stream.peek()
    if tok.kind != "num" or not tok.value.is_integer():
        raise ParseError(f"expected an integer, found {_describe(tok)}", tok.pos)
    stream.next()
    return int(tok.value)


# ---------------------------------------------------------------------------
# Printer

def format_number(x: float) -> str:
    """Render a nonnegative float so that parsing it back is exact.

    -0.0 is written ``0.0``: the parser reads no sign before a number.
    """
    return repr(float(x) + 0.0)


def _format_coeff(coeff: complex) -> tuple[str, str]:
    """Split a coefficient into a sign and an unsigned body; a unit
    coefficient prints as the empty body."""
    re_, im = coeff.real, coeff.imag
    if im == 0:
        sign = "-" if re_ < 0 else "+"
        mag = abs(re_)
        if mag == 1:
            return sign, ""
        return sign, format_number(mag)
    if re_ == 0:
        sign = "-" if im < 0 else "+"
        return sign, format_number(abs(im)) + "i"
    # Genuinely complex: factor the sign of the real part into the term
    # sign so that the parenthesized literal keeps a plain leading decimal.
    sign = "-" if re_ < 0 else "+"
    c = -coeff if re_ < 0 else coeff
    connector = "-" if c.imag < 0 else "+"
    return sign, (f"({format_number(c.real)}{connector}"
                  f"{format_number(abs(c.imag))}i)")


def _format_factor(factor: Factor) -> str:
    name, star, exp = factor
    out = name + ("*" if star else "")
    if exp != 1:
        if exp.denominator == 1:
            out += f"^{exp.numerator}"
        else:
            out += f"^({exp.numerator}/{exp.denominator})"
    return out


def format_poly(p: NcPolynomial) -> str:
    """Canonical text for a polynomial; parsing it back gives ``p``."""
    if not p.monomials:
        return "0"
    chunks: list[str] = []
    for idx, mono in enumerate(p.monomials):
        sign, body = _format_coeff(mono.coeff)
        word = " ".join(_format_factor(f) for f in mono.word)
        piece = f"{body} {word}".strip() if body else word
        if idx == 0:
            chunks.append(piece if sign == "+" else f"-{piece}")
        else:
            chunks.append(f"{'+' if sign == '+' else '-'} {piece}")
    return " ".join(chunks)
