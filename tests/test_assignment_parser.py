"""The row-at-a-time assignment parser against the per-entry parser it
replaced: on every text both give matrices with equal bytes, or both
raise the same error with the same message."""

import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from matrel import matcalc
from matrel.ncpoly import _IDENT_RE, ParseError
from matrel.relations import Assignment, parse_assignment

# The per-entry parser as it stood before rows went through ``complex``,
# kept as the reference.
_ENTRY_RE = re.compile(
    r"([+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"([+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)i\Z")


def _per_entry_parse_assignment(text: str) -> Assignment:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty assignment file")
    header = lines[0].split()
    if (len(header) != 4 or header[0] != "dim" or header[2] != "vars"
            or not header[1].isdigit() or not header[3].isdigit()):
        raise ParseError(f"bad assignment header {lines[0]!r}")
    dim, count = int(header[1]), int(header[3])
    if dim < 1:
        raise ParseError("assignment dimension must be at least 1")
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
        rows = []
        for r in range(dim):
            cells = lines[at].split()
            if len(cells) != dim:
                raise ParseError(
                    f"row {r} of {name!r} has {len(cells)} entries, "
                    f"expected {dim}")
            rows.append([_parse_entry(c, name) for c in cells])
            at += 1
        mats[name] = np.array(rows, dtype=complex)
    return Assignment(mats)


def _parse_entry(cell: str, name: str) -> complex:
    m = _ENTRY_RE.match(cell)
    if not m:
        raise ParseError(
            f"bad matrix entry {cell!r} in {name!r}; entries look like 1.0-2.0i")
    return complex(float(m.group(1)), float(m.group(2)))


def _outcome(parse, text: str):
    try:
        a = parse(text)
    except (ParseError, matcalc.MatrixError) as err:
        return type(err).__name__, str(err)
    return [(name, a[name].tobytes()) for name in a.names()]


def _assert_parsers_agree(text: str) -> None:
    assert (_outcome(parse_assignment, text)
            == _outcome(_per_entry_parse_assignment, text))


# Entries the format accepts, in every shape its grammar allows.
VALID = ["1+0i", "-1.5-2.25i", "+1-2i", "1.e5+2.i", ".5-.5i", "1E-3+2e+4i",
         "-0+0i", "0-0.0i", "007+08i", "1e-320+5e-324i", "1e999+0i"]
# Entries it rejects, most of which ``complex`` would read with i as j.
MUTATED = ["2i", "+2i", "-2i", "i", "+i", "1+i", "1-i", "1", "-1e5", "1+2j",
           "1+2J", "1_0+2i", "1+2_0i", "nan+0i", "1+nani", "inf+1i",
           "1+infi", "1+2ii", "1++2i", "1+-2i", "1--2i", "1e+-2+3i",
           "1+2i3", "1+2e5", "e5+1i", "1+e5i", ".+1i", "1+.i", "1.2.3+1i",
           "1+2", "1i+2", "(1+2i)", "0x1+2i", "٣+1i", "1+٣i",
           "１+2i", "1+2ı", "1 +2i", "", "+", "-", "e", "ii"]


def _valid_cells():
    floats = st.floats(allow_nan=False, allow_infinity=False)
    formatted = st.tuples(floats, floats).map(
        lambda z: f"{z[0]!r}{'-' if z[1] < 0 else '+'}{abs(z[1])!r}i")
    return st.one_of(formatted, st.sampled_from(VALID))


VALID_CELLS = _valid_cells()
CELLS = st.one_of(VALID_CELLS, VALID_CELLS, VALID_CELLS,
                  st.sampled_from(MUTATED))
SEPARATORS = st.sampled_from([" ", " ", "  ", "\t", "\u00a0", "\u2003"])


@st.composite
def assignment_texts(draw):
    dim = draw(st.integers(1, 4))
    count = draw(st.integers(1, 2))
    lines = [f"dim {dim} vars {count}"]
    for k in range(count):
        lines.append(f"x{k}")
        # Half the matrices are well formed, so the fast path sees them.
        clean = draw(st.booleans())
        for _ in range(dim):
            width = dim if clean else draw(
                st.sampled_from([dim] * 8 + [dim - 1, dim + 1]))
            cells = draw(st.lists(VALID_CELLS if clean else CELLS,
                                  min_size=width, max_size=width))
            row = ""
            for cell in cells:
                row += (draw(SEPARATORS) if row else "") + cell
            lines.append(draw(st.sampled_from(["", " ", "\t"])) + row)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, database=None)
@given(assignment_texts())
def test_row_parser_matches_per_entry_parser(text):
    _assert_parsers_agree(text)


@pytest.mark.parametrize("cell", VALID + MUTATED)
def test_each_entry_shape_parses_as_before(cell):
    # Alone, beside a valid entry, and in the second row.
    _assert_parsers_agree(f"dim 1 vars 1\nx\n{cell}\n")
    _assert_parsers_agree(f"dim 2 vars 1\nx\n1+0i {cell}\n0+0i 1+0i\n")
    _assert_parsers_agree(f"dim 2 vars 1\nx\n1+0i 0+0i\n{cell} 1+0i\n")


@pytest.mark.parametrize("rows", [
    ["2i 1+0i", "1+0i 1+0i 1+0i"],   # bad entry, then a long row
    ["1+0i 1+0i 1+0i", "2i 1+0i"],   # long row, then a bad entry
    ["1+0i 1+i", "1 0+0i"],          # two bad entries in two rows
    ["1+2i+3i 4+0i", "1+0i 1+0i"],   # signs balanced across the row
    ["2i 1+-2i", "1+0i 1+0i"],       # a missing and an extra sign
    ["1+2i3+4i", "1+0i 1+0i"],       # two entries run together
    ["1+0i 2i 0+0i", "0+0i 1+0i"],   # an extra entry with no sign
])
def test_two_faults_in_one_matrix_raise_the_first(rows):
    text = "dim 2 vars 1\nx\n" + "\n".join(rows) + "\n"
    assert _outcome(parse_assignment, text)[0] == "ParseError"
    _assert_parsers_agree(text)


def test_unicode_digits_are_still_accepted():
    text = "dim 1 vars 1\nx\n٣.5-２i\n"
    assert parse_assignment(text)["x"][0, 0] == 3.5 - 2j
    _assert_parsers_agree(text)
