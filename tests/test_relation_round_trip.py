"""Parse -> format -> parse is a fixed point on generated relation files.

The files use every relation kind the file syntax has, kinded
declarations, and coefficients and bounds from the smallest subnormal to
1e308, written in several spellings, so that sums and products of
coefficients overflow or underflow.  Each file is either rejected with
ParseError or printed to a text that parses back to the same variables
and relations, and prints back to itself.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from matrel.ncpoly import ParseError
from matrel.relations import format_relations, parse_relations

NAMES = ("x", "y", "z")
KINDS = ("general", "hermitian", "positive", "unitary", "contraction")
# Each file draws its numbers from one range: any magnitude, or one where
# every product of two numbers underflows, or one where it overflows.
MAGNITUDES = (
    st.one_of(st.floats(min_value=5e-324, max_value=1e308),
              st.integers(-323, 308).map(lambda k: float(f"1e{k}"))),
    st.floats(min_value=5e-324, max_value=1e-162),
    st.floats(min_value=1e155, max_value=1e308),
)
SPELLINGS = (repr, lambda v: f"{v:.17E}", lambda v: f"{v:.3g}")


@st.composite
def numbers(draw, magnitudes):
    return draw(st.sampled_from(SPELLINGS))(draw(magnitudes))


@st.composite
def coefficients(draw, magnitudes):
    form = draw(st.sampled_from(("none", "real", "imag", "complex")))
    if form == "none":
        return ""
    if form == "real":
        return draw(numbers(magnitudes))
    if form == "imag":
        return draw(numbers(magnitudes)) + "i"
    sign = draw(st.sampled_from("+-"))
    return (f"({draw(numbers(magnitudes))}{sign}"
            f"{draw(numbers(magnitudes))}i)")


@st.composite
def variables(draw, kinds):
    name = draw(st.sampled_from(sorted(kinds)))
    suffixes = ["", "*", "^2", "^3"]
    if kinds[name] in ("hermitian", "positive"):
        suffixes += ["^(1/2)", "^(3/2)"]
    return name + draw(st.sampled_from(suffixes))


@st.composite
def expressions(draw, kinds, magnitudes, depth=1):
    if draw(st.integers(0, 19)) == 0:
        return "0"
    terms = []
    # Sums drop zero terms on their own, so most expressions are one term.
    for k in range(draw(st.sampled_from((1, 1, 2)))):
        sign = draw(st.sampled_from(("+", "-") if k else ("", "-")))
        factors = []
        for _ in range(draw(st.integers(1, 2))):
            if depth and draw(st.booleans()):
                # A group, whose coefficients the term's coefficient scales.
                inner = draw(st.one_of(
                    expressions(kinds, magnitudes, depth - 1),
                    st.tuples(coefficients(magnitudes),
                              variables(kinds)).map(" ".join)))
                suffix = draw(st.sampled_from(("", "*", "^2")))
                factors.append(f"({inner}){suffix}")
            else:
                factors.append(draw(variables(kinds)))
        coeff = draw(coefficients(magnitudes))
        terms.append(f"{sign} {coeff} {' '.join(factors)}")
    return " ".join(terms)


@st.composite
def relation_files(draw):
    names = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=3,
                          unique=True))
    kinds = {name: draw(st.sampled_from(KINDS)) for name in names}
    magnitudes = draw(st.sampled_from(MAGNITUDES))
    lines = []
    for name, kind in kinds.items():
        spelled = draw(st.sampled_from(("", " general"))) \
            if kind == "general" else f" {kind}"
        lines.append(f"var {name}{spelled};")
    for _ in range(draw(st.integers(0, 3))):
        p, q, r = (draw(expressions(kinds, magnitudes)) for _ in range(3))
        name = draw(st.sampled_from(names))
        bound = draw(numbers(magnitudes))
        lines.append("rel " + draw(st.sampled_from((
            f"{p} = 0", f"{p} >= 0", f"{p} <= {q}",
            f"norm({p}) <= {bound}", f"norm({p}) < {bound}",
            f"blockpos({p}, {q}, {r})",
            f"re({name}) <= {bound}", f"normexp_re({name}) <= {bound}",
        ))) + ";")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None, database=None)
@given(relation_files())
def test_parse_format_parse_is_a_fixed_point(text):
    try:
        parsed = parse_relations(text)
    except ParseError:
        return
    printed = format_relations(*parsed)
    assert parse_relations(printed) == parsed
    assert format_relations(*parse_relations(printed)) == printed
