"""The one-pattern lexer against the hand-written scanner it replaced: on
every text both give equal tokens, or both raise a ParseError with the
same message."""

import math
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from matrel.ncpoly import _NUM_RE, ParseError, Token, tokenize

# The scanner as it stood before the lexer became one regex, kept as the
# reference.
_IDENT_SCAN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TWO_CHAR_OPS = ("<=", ">=")
_ONE_CHAR_OPS = set("+-*^()/,;=<>")


def _branch_tokenize(text: str) -> list[Token]:
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
            mantissa = m.group().upper().partition("E")[0]
            if math.isinf(value) or (value == 0.0 and mantissa.strip("0.")):
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


def _outcome(scan, text: str):
    try:
        return scan(text)
    except ParseError as err:
        return str(err)


# ASCII and Unicode digits (Arabic-Indic, fullwidth, a superscript that is
# a digit to isalnum but not to \d), letters inside and outside
# identifiers, Unicode spaces, every operator and characters none accepts.
CHARS = ("0", "1", "5", "9", "٣", "７", "²", ".", "e", "E",
         "i", "x", "_", "á", " ", "\t", "\n", "\u00a0", "\u2003",
         "\u001f", "+", "-", "*", "^", "(", ")", "/", ",", ";", "=", "<",
         ">", "$", "!", "&")
FRAGMENTS = ("2i", "2ix", "2i_", "2iá", "1e400", "1e-400", "0e5",
             "0.0e-400", "1e", "1e+", ".5", "5.", "1.5e3i", "<=", ">=",
             "rel", "norm(", "x^(1/2)")
TEXTS = st.lists(st.sampled_from(CHARS + FRAGMENTS), max_size=12).map("".join)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(TEXTS)
@example("")
@example("2i²")
@example("1e308 x + 2i y - 1e400i")
def test_one_pattern_lexer_matches_branch_scanner(text):
    assert _outcome(tokenize, text) == _outcome(_branch_tokenize, text)


@pytest.mark.parametrize("text", [
    "2i", "2ix", "2i x", "2i_", "2iá", "1e5i", "1ei", "1e400i", "0e5i",
    "٣i", ". 5", "a <= b", "xá", "=<>=",
])
def test_each_shape_scans_as_before(text):
    assert _outcome(tokenize, text) == _outcome(_branch_tokenize, text)
