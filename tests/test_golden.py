"""Golden outputs: the five demos, ``matrel reproduce --budget 200`` and
``check`` / ``approx`` on a d = 8 clock-shift pair, against the files
in ``tests/golden/``, made here and again in a process whose OpenBLAS
is forced onto Haswell kernels.

Text that is not a number compares exactly.  Numbers compare to 1e-9
relative, and a number below 1e-12 in magnitude compares only as
"tiny", since its digits are rounding that another BLAS prints
differently.  A change that moves output on purpose rewrites the file
with ``python tests/golden/regen.py NAME``, which prints the lines that
changed.
"""

import contextlib
import io
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import matrel
from matrel.approx import model
from matrel.cli import main
from matrel.ncpoly import Assignment
from matrel.relations import format_assignment

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
DEMOS = HERE.parent / "demos"

NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)")
RELATIVE = 1e-9
TINY = 1e-12

# Two unitaries with ||u v - v u|| = 2 sin(pi/8) = 0.765; one relation
# of most kinds the file syntax has, some failing.
TORUS_RELATIONS = """\
var u unitary;
var v contraction;
rel norm(u v - v u) <= 0.77;
rel norm(u v) <= 0.9;
rel v u - (0.7071067811865476+0.7071067811865476i) u v = 0;
rel u v - v u = 0;
rel re(u) <= 0.9;
rel u* v* u v + v* u* v u >= 0;
rel v v* <= u u* + v v*;
rel blockpos(u* u, u, v v*);
rel normexp_re(v) <= 3;
rel norm(u + v) < 2;
"""
SCHEDULE = ("--schedule", "2,4,7,8,9")
TORUS_COMMANDS = {
    "torus8-check.txt": ("check",),
    "torus8-loewner.txt": ("approx", "--procedure", "loewner", *SCHEDULE),
    "torus8-quasicentral.txt": ("approx", "--procedure", "quasicentral",
                                "--cutoff", "ramp:2", *SCHEDULE),
}


def _stdout(run) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run()
    return out.getvalue()


def _demo(path: Path):
    return lambda work: _stdout(
        lambda: runpy.run_path(str(path), run_name="__main__"))


def _reproduce(work: Path) -> str:
    out = work / "reports.jsonl"
    _stdout(lambda: main(["reproduce", "--budget", "200", "--out", str(out)]))
    lines = []
    for line in out.read_text().splitlines():
        record = json.loads(line)
        del record["runtime_ms"]
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


def _torus(command: tuple[str, ...]):
    def produce(work: Path) -> str:
        pair = Assignment({"u": model("clock", 8), "v": model("shiftmod", 8)})
        (work / "torus8.rel").write_text(TORUS_RELATIONS)
        (work / "torus8.mat").write_text(format_assignment(pair))
        files = [str(work / "torus8.rel"), str(work / "torus8.mat")]
        return _stdout(lambda: main([command[0], *files, *command[1:]]))
    return produce


# Golden file name -> a function of a temporary directory giving its text.
PRODUCERS = {
    **{f"demo-{path.stem}.txt": _demo(path)
       for path in sorted(DEMOS.glob("*.py"))},
    "reproduce-budget200.jsonl": _reproduce,
    **{name: _torus(command) for name, command in TORUS_COMMANDS.items()},
}


def _same_number(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if abs(x) < TINY or abs(y) < TINY:
        return abs(x) < TINY and abs(y) < TINY
    return abs(x - y) <= RELATIVE * max(abs(x), abs(y))


def mismatches(expected: str, actual: str) -> list[str]:
    """The lines of ``actual`` that differ from ``expected`` under the
    rules in the module docstring, as 'line N: expected | actual'."""
    want, got = expected.splitlines(), actual.splitlines()
    out = []
    for n, (a, b) in enumerate(zip(want, got), 1):
        ta, tb = NUMBER.split(a), NUMBER.split(b)
        # split puts the numbers at the odd positions
        if len(ta) != len(tb) or any(
                x != y if i % 2 == 0 else not _same_number(x, y)
                for i, (x, y) in enumerate(zip(ta, tb))):
            out.append(f"line {n}: {a!r} | {b!r}")
    if len(want) != len(got):
        out.append(f"{len(want)} lines expected, {len(got)} printed")
    return out


@pytest.mark.parametrize("name", PRODUCERS)
def test_output_matches_its_golden_file(name, tmp_path):
    actual = PRODUCERS[name](tmp_path)
    assert mismatches((GOLDEN / name).read_text(), actual) == []


# numpy's OpenBLAS, when built with DYNAMIC_ARCH, picks its kernels for
# the CPU at run time, and OPENBLAS_CORETYPE forces a choice.  Hosted
# AMD runners pick Zen, which runs Haswell's kernels.
KERNEL = "Haswell"
PRODUCE_ALL = """\
import sys
import tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from test_golden import PRODUCERS
for name, produce in PRODUCERS.items():
    with tempfile.TemporaryDirectory() as work:
        (Path(sys.argv[2]) / name).write_text(produce(Path(work)))
"""


def _kernel_can_be_forced() -> str | None:
    """Why OPENBLAS_CORETYPE cannot force KERNEL here, or None."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS build"
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return "numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH"
    try:
        flags = Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return "no /proc/cpuinfo to show AVX2"
    # Haswell kernels on a CPU without AVX2 crash the process.
    return None if "avx2" in flags else f"{KERNEL} kernels need AVX2"


@pytest.fixture(scope="module")
def forced_kernel_outputs(tmp_path_factory) -> Path:
    """Every producer's output, made in one fresh process whose OpenBLAS
    runs KERNEL's kernels."""
    reason = _kernel_can_be_forced()
    if reason:
        pytest.skip(reason)
    out = tmp_path_factory.mktemp(KERNEL)
    src = str(Path(matrel.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "OPENBLAS_CORETYPE": KERNEL,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    subprocess.run([sys.executable, "-c", PRODUCE_ALL, str(HERE), str(out)],
                   env=env, check=True, timeout=300)
    return out


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=(
        "the heinz reports' worst sample is the argmax of rounding noise, "
        "which the BLAS kernel decides (ROADMAP item 14)")))
    if name == "reproduce-budget200.jsonl" else name
    for name in PRODUCERS])
def test_output_matches_its_golden_file_under_another_kernel(
        name, forced_kernel_outputs):
    actual = (forced_kernel_outputs / name).read_text()
    assert mismatches((GOLDEN / name).read_text(), actual) == []


@pytest.mark.parametrize("expected, actual, same", [
    ("margin 1.000000e-09 ok", "margin 1.000000e-09 ok", True),
    ("margin 1.000000e-09 ok", "margin 1.000001e-09 ok", False),
    ("x 1.0000000000001", "x 1.0000000000002", True),
    ("violation +1.433e-15", "violation -2.1e-16", True),
    ("violation +1.433e-15", "violation +1.433e-11", False),
    ('"worst_seed": {"index": 12}', '"worst_seed": {"index": 13}', False),
    ("x 1 yes", "x 1 NO", False),
    ("a\nb", "a", False),
])
def test_comparison_rules(expected, actual, same):
    assert (mismatches(expected, actual) == []) is same
