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
        merged: dict[tuple[Factor, ...], complex] = {}
        for coeff, word in terms:
            word = _canonical_word(word, kinds)
            if not word:
                raise ConstantTermError("polynomials have no constant term")
            merged[word] = merged.get(word, 0) + complex(coeff)
        for c in merged.values():
            if not cmath.isfinite(c):
                raise PolyError(f"coefficient {c} is not finite")
        monos = [Monomial(c, w) for w, c in merged.items() if c != 0]
        monos.sort(key=lambda m: (-m.degree(), m.word))
        return cls(vs, tuple(monos))

    @classmethod
    def zero(cls, variables) -> "NcPolynomial":
        return cls(_as_variables(variables), ())

    def degree(self) -> Fraction:
        """Largest monomial degree.  Undefined for the zero polynomial."""
        if not self.monomials:
            raise PolyError("the zero polynomial has no degree")
        return max(m.degree() for m in self.monomials)

    def _check_compatible(self, other: "NcPolynomial") -> None:
        if self.variables != other.variables:
            raise PolyError("polynomials are over different variable sets")

    def __add__(self, other: "NcPolynomial") -> "NcPolynomial":
        self._check_compatible(other)
        terms = [(m.coeff, m.word) for m in self.monomials + other.monomials]
        return NcPolynomial.from_terms(self.variables, terms)

    def __sub__(self, other: "NcPolynomial") -> "NcPolynomial":
        return self + (-other)

    def __neg__(self) -> "NcPolynomial":
        return NcPolynomial(
            self.variables,
            tuple(Monomial(-m.coeff, m.word) for m in self.monomials))

    def __mul__(self, other) -> "NcPolynomial":
        if isinstance(other, NcPolynomial):
            self._check_compatible(other)
            terms = [(m.coeff * n.coeff, m.word + n.word)
                     for m in self.monomials for n in other.monomials]
            return NcPolynomial.from_terms(self.variables, terms)
        return self._scaled(other)

    def __rmul__(self, scalar) -> "NcPolynomial":
        return self._scaled(scalar)

    def _scaled(self, scalar) -> "NcPolynomial":
        c = complex(scalar)
        return NcPolynomial.from_terms(
            self.variables, [(c * m.coeff, m.word) for m in self.monomials])

    def __pow__(self, n: int) -> "NcPolynomial":
        if not isinstance(n, int) or n < 1:
            raise ExponentError("polynomial powers must be positive integers")
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
        return NcPolynomial.from_terms(self.variables, terms) if terms \
            else NcPolynomial(self.variables, ())

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

def evaluate(p: NcPolynomial, assignment,
             policy: matcalc.TolerancePolicy = matcalc.DEFAULT_POLICY
             ) -> np.ndarray:
    """Evaluate at a mapping from variable names to square matrices.

    Every variable that occurs in a monomial of ``p`` must be assigned,
    and all matrices used must share one dimension.  Fractional powers go
    through the Hermitian functional calculus and require a spectrum that
    is nonnegative within the positivity tolerance.  The zero polynomial
    evaluates to the zero matrix of the first assigned matrix's
    dimension.
    """
    mats: dict[str, np.ndarray] = {}
    dim = None
    for name in dict.fromkeys(f[0] for mono in p.monomials for f in mono.word):
        try:
            m = assignment[name]
        except KeyError:
            raise PolyError(f"no matrix assigned to variable {name!r}") from None
        m = matcalc.as_matrix(m)
        if dim is None:
            dim = m.shape[0]
        elif m.shape[0] != dim:
            raise matcalc.MatrixError(
                f"dimension mismatch: {name!r} is {m.shape[0]}x{m.shape[0]}, "
                f"expected {dim}x{dim}")
        mats[name] = m
    if dim is None:
        first = next(iter(assignment), None)
        if first is None:
            raise PolyError("cannot infer a dimension from an empty assignment")
        dim = matcalc.as_matrix(assignment[first]).shape[0]
    # Each distinct factor is powered once per call, since a fractional
    # one costs a spectral decomposition; nothing is kept across calls.
    powers: dict[Factor, np.ndarray] = {}
    for factor in dict.fromkeys(f for mono in p.monomials for f in mono.word):
        name, star, exp = factor
        base = matcalc.adjoint(mats[name]) if star else mats[name]
        powers[factor] = (
            np.linalg.matrix_power(base, int(exp)) if exp.denominator == 1
            else matcalc.fractional_power(base, exp, policy))
    # acc starts at +0, which absorbs the sign of a zero in any product.
    acc = np.zeros((dim, dim), dtype=complex)
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


_NUM_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_SCAN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TWO_CHAR_OPS = ("<=", ">=")
_ONE_CHAR_OPS = set("+-*^()/,;=<>")


def tokenize(text: str) -> list[Token]:
    """Split text into tokens, ending with an "end" token.

    A number immediately followed by a lone ``i`` is an imaginary
    literal; ``2i`` is imaginary while ``2ix`` is the number 2 followed
    by the identifier ``ix``.  A number that overflows to inf is a
    ParseError.
    """
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        m = _NUM_RE.match(text, i)
        if m:
            value = float(m.group())
            if math.isinf(value):
                raise ParseError(f"number {m.group()!r} is out of range", i)
            end = m.end()
            if end < n and text[end] == "i" and (
                    end + 1 == n or not (text[end + 1].isalnum()
                                         or text[end + 1] == "_")):
                tokens.append(Token("imag", value, i))
                i = end + 1
                continue
            tokens.append(Token("num", value, i))
            i = end
            continue
        m = _IDENT_SCAN_RE.match(text, i)
        if m:
            tokens.append(Token("ident", m.group(), i))
            i = m.end()
            continue
        if text[i:i + 2] in _TWO_CHAR_OPS:
            tokens.append(Token("op", text[i:i + 2], i))
            i += 2
            continue
        if ch in _ONE_CHAR_OPS:
            tokens.append(Token("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token("end", None, n))
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
    if tok.kind == "end":
        return "end of input"
    return repr(str(tok.value) if tok.kind != "op" else tok.value)


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
                exp = _parse_rational(stream)
                if exp <= 0:
                    raise ParseError(f"exponent {exp} must be positive", op.pos)
        word = [(name, star, exp if exp is not None else Fraction(1))]
        try:
            return NcPolynomial.from_terms(variables, [(1.0, word)])
        except ExponentError as err:
            raise ParseError(str(err), tok.pos) from None
    if stream.at_op("("):
        stream.next()
        inner = parse_expr(stream, variables)
        stream.take_op(")")
        while stream.at_op("*", "^"):
            op = stream.next()
            if op.value == "*":
                inner = inner.adjoint()
            else:
                e = _parse_rational(stream)
                if e.denominator != 1:
                    raise ParseError(
                        "fractional exponents apply to single variables only",
                        op.pos)
                inner = inner ** int(e)
        return inner
    raise ParseError(
        f"expected a variable or '(', found {_describe(tok)}", tok.pos)


def _parse_rational(stream: TokenStream) -> Fraction:
    """Parse an exponent: an integer or a parenthesized integer ratio."""
    if stream.at_op("("):
        stream.next()
        num = _parse_integer(stream)
        stream.take_op("/")
        den = _parse_integer(stream)
        stream.take_op(")")
        if den == 0:
            raise ParseError("zero denominator in exponent", stream.peek().pos)
        return Fraction(num, den)
    return Fraction(_parse_integer(stream))


def _parse_integer(stream: TokenStream) -> int:
    tok = stream.peek()
    if tok.kind != "num" or not tok.value.is_integer():
        raise ParseError(f"expected an integer, found {_describe(tok)}", tok.pos)
    stream.next()
    return int(tok.value)


# ---------------------------------------------------------------------------
# Printer

def format_number(x: float) -> str:
    """Render a nonnegative float so that parsing it back is exact."""
    return repr(float(x))


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
