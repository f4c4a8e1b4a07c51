"""``matrel check``, ``matrel approx --procedure loewner`` and ``matrel
approx --procedure quasicentral --cutoff ramp:1`` on mutated relation
files.  ``check`` and ``loewner`` get assignments whose entries sit at
the ends of the double range.  ``quasicentral`` gets moderate entries
and one more tracked norm bound, kept unmutated, so that most of its
cases reach the rescaled steps instead of an error.  Half of the
``check`` cases instead get samples of each variable's kind and an
unmutated file that every such sample satisfies, and must exit 0 with
``yes`` on every row.

Whatever the input, the command exits 0, 1, 2 or 3 without an escaping
exception, prints no ``nan``, explains a usage or parse error in one
stderr line, never reports a failing relation with residual 0, and
prints no alpha outside [0, 1].

The run draws 80 derandomized cases; set MATREL_FUZZ_EXAMPLES to draw
more, as CI does once.
"""

import contextlib
import io
import os
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from matrel import verify
from matrel.cli import main
from matrel.ncpoly import Assignment
from matrel.relations import format_assignment

VARIABLES = ("x", "y", "u", "p", "c")
# The kinds each variable may take; p^(1/2) needs p self-adjoint.
KINDS = (("hermitian", "positive"), ("", "hermitian", "contraction"),
         ("unitary", "contraction", ""), ("positive", "hermitian"),
         ("contraction", "unitary", ""))
# One relation of every kind the file syntax reaches.
RELATIONS = (
    "rel x y - y x = 0;\n",
    "rel x + p >= 0;\n",
    "rel norm(x y) <= 2;\n",
    "rel norm(c u) < 1.5;\n",
    "rel x <= x + p;\n",
    "rel p^(1/2) x p^(1/2) >= 0;\n",
    "rel blockpos(p, y, p);\n",
    "rel re(y) <= 1;\n",
    "rel normexp_re(x) <= 3;\n",
)
TOKENS = ("", " ", "\n", ";", "(", ")", "^", "^(1/2)", "*", "+", "-", "<",
          "<=", "=", ">=", "0", "1", "2", "1/3", "1e308", "1e-320", "i",
          *VARIABLES, "norm(", "re(", "normexp_re(", "blockpos(", "rel ")
ENTRIES = ("0+0i", "1e308+0i", "-1e308+0i", "1e-320+0i", "1e154+0i",
           "1.5e154+0i", "1e154+1e154i", "1e154-1e154i",
           "1.5e308+1.5e308i", "1.5e308-1.5e308i")
# Entries with |z| <= 2, whose products stay far from overflow.
MODERATE = ("0+0i", "1+0i", "-1+0i", "2+0i", "0+1i", "0-2i", "1+1i",
            "-1-1i", "0.5-1.5i", "1e-320+0i")
# A norm bound the smoothed cutoff always has to track.
TRACKED = "rel norm(x y) <= 2;\n"
# Relations that hold for every sample of these kinds, whatever its seed.
SATISFIED_KINDS = (("hermitian", "positive"), ("", "hermitian", "contraction"),
                   ("unitary", "contraction"), ("positive",),
                   ("contraction", "unitary"))
SATISFIED = ("rel x <= x + p;\n"
             "rel y* p y >= 0;\n"
             "rel norm(c u) < 1.5;\n"
             "rel blockpos(p, p, p);\n"
             "rel re(u) <= 1;\n"
             "rel p^(1/2) p^(1/2) - p = 0;\n")
SAMPLERS = {"": verify.ginibre, "hermitian": verify.hermitian_sample,
            "positive": verify.positive_sample,
            "contraction": verify.contraction_sample,
            "unitary": verify.unitary_sample}


@st.composite
def relation_texts(draw):
    """Declarations of drawn kinds, then some of the relations with up
    to two spans of them replaced by a token."""
    kinds = [draw(st.sampled_from(choices)) for choices in KINDS]
    lines = draw(st.lists(st.sampled_from(RELATIONS), min_size=1,
                          max_size=4, unique=True))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        k = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[k])))
        cut = draw(st.integers(0, 3))
        lines[k] = (lines[k][:at] + draw(st.sampled_from(TOKENS))
                    + lines[k][at + cut:])
    return "".join(f"var {name} {kind};\n"
                   for name, kind in zip(VARIABLES, kinds)) + "".join(lines)


@st.composite
def satisfied_inputs(draw):
    """Declarations of kinds that keep SATISFIED true, then SATISFIED, and
    an assignment of d <= 4 drawn from a seed by verify's samplers."""
    kinds = [draw(st.sampled_from(choices)) for choices in SATISFIED_KINDS]
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = Assignment({name: SAMPLERS[kind](rng, dim)
                    for name, kind in zip(VARIABLES, kinds)})
    text = "".join(f"var {name} {kind};\n"
                   for name, kind in zip(VARIABLES, kinds)) + SATISFIED
    return text, format_assignment(a)


def matrices_of(entries):
    return st.lists(st.lists(st.sampled_from(entries), min_size=4,
                             max_size=4),
                    min_size=len(VARIABLES), max_size=len(VARIABLES))

# x = 1.5e154 1 and y = [[0, 1e154(1+i)], [1e154(1-i), 0]]: x y is
# Hermitian with finite entries whose modulus overflows.
FINITE_PRODUCT = [["1.5e154+0i", "0+0i", "0+0i", "1.5e154+0i"],
                  ["0+0i", "1e154+1e154i", "1e154-1e154i", "0+0i"],
                  *[["0+0i"] * 4] * 3]


# The approx procedures; the smoothed cutoff rescales by the tracked
# norm bounds and fails with one error line when it cannot.
PROCEDURES = (("--procedure", "loewner"),
              ("--procedure", "quasicentral", "--cutoff", "ramp:1"))
EXAMPLES = int(os.environ.get("MATREL_FUZZ_EXAMPLES", "80"))


@st.composite
def cases(draw):
    """A relation text, the assignment text, whether to check, the approx
    procedure and whether every relation must hold.  Half of the check
    cases are satisfied inputs; only the quasi-central arm gets moderate
    entries and the tracked bound."""
    check = draw(st.booleans())
    procedure = draw(st.sampled_from(PROCEDURES))
    if check and draw(st.booleans()):
        return (*draw(satisfied_inputs()), check, procedure, True)
    moderate = not check and procedure == PROCEDURES[1]
    text = draw(relation_texts()) + (TRACKED if moderate else "")
    entries = MODERATE if moderate else ENTRIES
    return (text, _assignment(draw(matrices_of(entries))), check, procedure,
            False)


def _assignment(matrices) -> str:
    text = f"dim 2 vars {len(VARIABLES)}\n"
    for name, (a, b, c, d) in zip(VARIABLES, matrices):
        text += f"{name}\n{a} {b}\n{c} {d}\n"
    return text


@settings(max_examples=EXAMPLES, deadline=None, database=None,
          derandomize=True)
@given(cases())
@example(("var x hermitian;\nvar y hermitian;\nrel x y >= 0;\n"
          "rel x y <= x;\n", _assignment(FINITE_PRODUCT), True,
          PROCEDURES[0], False))
# x y = 0, but not on the smoothed corner at rank 2, so alpha is 0 there.
@example(("var x hermitian;\nvar y;\n" + TRACKED,
          _assignment([["1+0i"] * 4, ["0+0i", "1+0i", "0+0i", "-1+0i"],
                       *[["0+0i"] * 4] * 3]), False, PROCEDURES[1], False))
def test_mutated_inputs_exit_cleanly(tmp_path_factory, case):
    text, assignment, check, procedure, satisfied = case
    work = tmp_path_factory.mktemp("fuzz")
    (work / "a.rel").write_text(text)
    (work / "a.mat").write_text(assignment)
    files = [str(work / "a.rel"), str(work / "a.mat")]
    argv = (["check", *files] if check else
            ["approx", *files, *procedure, "--schedule", "1,2"])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert status in (0, 1, 2, 3)
    assert status == 0 or not satisfied, (status, out, err)
    assert not re.search(r"\bnan\b", out), out
    if status in (2, 3):
        assert len(err.splitlines()) == 1, err
    elif check:
        for line in out.splitlines()[1:-1]:
            *_, ok, _, res = line.split()
            assert ok == "yes" or (not satisfied and float(res) > 0), line
    elif status == 0:
        for line in out.splitlines()[1:-1]:
            assert 0.0 <= float(line.split()[2]) <= 1.0, line
