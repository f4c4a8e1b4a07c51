import csv
import json
import time

import numpy as np
import pytest

from matrel import cli, verify
from matrel.cli import build_parser, main
from matrel.relations import Assignment, format_assignment
from matrel.approx import model
from matrel.verify import Ensemble

IDEM = "var x;\nrel x^2 - x = 0;\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _mat_file(tmp_path, name, mats):
    return _write(tmp_path, name, format_assignment(Assignment(mats)))


def _torus_files(tmp_path, dim=16, bound=0.5):
    rel = _write(tmp_path, "torus.rel",
                 "var u unitary;\nvar v unitary;\n"
                 f"rel norm(u v - v u) <= {bound};\n")
    mat = _mat_file(tmp_path, "torus.mat",
                    {"u": model("clock", dim), "v": model("shiftmod", dim)})
    return rel, mat


def test_check_satisfied_exits_zero(tmp_path, capsys):
    rel, mat = _torus_files(tmp_path)
    assert main(["check", rel, mat]) == 0
    out = capsys.readouterr().out
    assert "satisfied" in out
    assert "norm(u v - v u)" in out


def test_check_unsatisfied_exits_one(tmp_path, capsys):
    rel = _write(tmp_path, "idem.rel", IDEM)
    mat = _mat_file(tmp_path, "half.mat", {"x": np.array([[0.5]])})
    assert main(["check", rel, mat]) == 1
    out = capsys.readouterr().out
    assert "unsatisfied" in out
    assert "2.5" in out  # residual 2.5e-01


def test_check_missing_file_exits_three(tmp_path, capsys):
    rel = _write(tmp_path, "idem.rel", IDEM)
    assert main(["check", rel, str(tmp_path / "nope.mat")]) == 3
    assert main(["check", str(tmp_path / "nope.rel"), rel]) == 3


HALF = "dim 1 vars 1\nx\n0.5+0i\n"


# Malformed files, each of which exits 3 with one line: its message.
MALFORMED = {
    "kind-rel": ("var x\nrel x = 0;\n", HALF,
                 "unknown variable kind 'rel' (at offset 6)"),
    # an exponent that overflows to inf is a malformed file, not a crash
    "inf-exponent": ("var x;\nrel norm(x^1e400) <= 1;\n", HALF,
                     "number '1e400' is out of range (at offset 18)"),
    "inf-ratio": ("var x;\nrel norm(x^(1e400/2)) <= 1;\n", HALF,
                  "number '1e400' is out of range (at offset 19)"),
    "float-ratio": ("var x;\nrel x^(1.5/2) = 0;\n", HALF,
                    "expected an integer, found '1.5' (at offset 14)"),
    # numbers are quoted as written, not as the float they parse to
    "number-name": ("var 1x;\n", HALF,
                    "expected a name, found '1' (at offset 4)"),
    "imag-name": ("var 2i;\n", HALF,
                  "expected a name, found '2i' (at offset 4)"),
    "two-bounds": ("var x;\nrel norm(x) <= 1 2;\n", HALF,
                   "expected ';', found '2' (at offset 24)"),
    "no-relation": ("var x;\nrel x;\n", HALF,
                    "expected '=', '>=' or '<=', found ';' (at offset 12)"),
    "name-bound": ("var x;\nrel norm(x) <= y;\n", HALF,
                   "expected a number, found 'y' (at offset 22)"),
    "undeclared-re": ("var x;\nrel re(y) <= 1;\n", HALF,
                      "unknown variable 'y' (at offset 14)"),
    "empty-mat": (IDEM, "", "empty assignment file"),
    "dim-0": (IDEM, "dim 0 vars 1\n",
              "assignment dimension must be at least 1"),
    "vars-0": (IDEM, "dim 2 vars 0\n",
               "an assignment needs at least one variable"),
    # a superscript digit is not a decimal digit
    "superscript": (IDEM, "dim \u00b2 vars 1\nx\n1+0i\n",
                    "bad assignment header 'dim \u00b2 vars 1'"),
    "bad-name-line": (IDEM, "dim 1 vars 1\n1x\n1+0i\n",
                      "bad variable name line '1x'"),
    "name-twice": (IDEM, "dim 1 vars 2\nx\n1+0i\nx\n1+0i\n",
                   "variable 'x' appears twice"),
    # products past the expansion bound, refused before they are built
    **{name: (f"var x;\nvar y;\nrel {expression} = 0;\n", HALF,
              "a product expands to more than 1000 factors (at offset 14)")
       for name, expression in {"huge-power": "(x)^99999999999999999999",
                                "long-word": "(x y)^2000",
                                "sum-power": "(x + y)^12",
                                "sum-chain": "(x + y) " * 30}.items()},
}


@pytest.mark.parametrize("rel_text, mat_text, message", MALFORMED.values(),
                         ids=MALFORMED)
def test_check_malformed_input_exits_three(tmp_path, capsys, rel_text,
                                           mat_text, message):
    rel = _write(tmp_path, "bad.rel", rel_text)
    mat = _write(tmp_path, "bad.mat", mat_text)
    start = time.perf_counter()
    assert main(["check", rel, mat]) == 3
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err == f"parse error: {message}\n"


@pytest.mark.parametrize("command", ["check", "approx"])
@pytest.mark.parametrize("text", [
    "var x;\nvar y hermitian;\n",
    "var x;\nvar y positive;\n",
    "var x;\nvar y unitary;\n",
    "var x;\nvar y contraction;\n",
    "var x;\nvar y;\nrel re(y) <= 1;\n",
    "var x;\nvar y;\nrel normexp_re(y) <= 2;\n",
    "var x;\nvar y;\nrel norm(y) <= 1;\n",
])
def test_relation_on_unassigned_variable_exits_two(tmp_path, capsys, text,
                                                    command):
    rel = _write(tmp_path, "y.rel", text)
    mat = _mat_file(tmp_path, "x.mat", {"x": np.eye(2)})
    extra = ["--procedure", "loewner", "--schedule", "1,2"]
    assert main([command, rel, mat] + (extra if command == "approx" else [])) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: no matrix assigned to variable 'y'\n"


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["check"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["experiment", "expnorm"])  # --seed is required
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def test_bad_option_values_exit_two(tmp_path, capsys):
    rel, mat = _torus_files(tmp_path)
    assert main(["check", "--tol-eq", "0.5", rel, mat]) == 2
    assert main(["experiment", "expnorm", "--seed", "1", "--dim", "0"]) == 2
    assert main(["experiment", "expnorm", "--seed", "1", "--dim", "1000"]) == 2
    assert main(["approx", rel, mat, "--procedure", "loewner",
                 "--schedule", "8,4"]) == 2
    # loewner is the sharp cutoff; a ramp would be silently ignored
    assert main(["approx", rel, mat, "--procedure", "loewner",
                 "--schedule", "4,8", "--cutoff", "ramp:2"]) == 2
    # ranks and widths are plain ASCII digits
    capsys.readouterr()
    for schedule in ("8,1_6", "4,+8", "4,\u0668"):
        assert main(["approx", rel, mat, "--procedure", "loewner",
                     "--schedule", schedule]) == 2
        assert capsys.readouterr().err.startswith("error: bad schedule")
    for cutoff in ("ramp:1_0", "ramp:+8", "ramp: 8", "ramp:\u0663"):
        assert main(["approx", rel, mat, "--procedure", "quasicentral",
                     "--schedule", "4,8", "--cutoff", cutoff]) == 2
        assert capsys.readouterr().err.startswith("error: bad cutoff")
    # a file with declarations only leaves no residual to track
    bare = _write(tmp_path, "bare.rel", "var x;\n")
    one = _mat_file(tmp_path, "one.mat", {"x": np.eye(2)})
    capsys.readouterr()
    assert main(["approx", bare, one, "--procedure", "loewner",
                 "--schedule", "1,2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: no relations to track: residual curves need at least one\n")
    # sizes below 1 are usage errors
    for argv, flag in (
            (["experiment", "expnorm", "--seed", "1", "--count", "0"], "--count"),
            (["experiment", "commutator", "--seed", "1", "--budget", "0"],
             "--budget"),
            (["reproduce", "--budget", "0"], "--budget")):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {flag} must be at least 1\n"
    # a negative seed is refused before numpy sees it
    for name in verify.EXPERIMENT_NAMES:
        assert main(["experiment", name, "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: --seed must be at least 0\n"
    # only positivity reads a relation file
    assert main(["experiment", "expnorm", rel, "--seed", "1"]) == 2
    with pytest.raises(SystemExit) as info:
        main(["experiment", "positivity", rel, rel, "--seed", "1"])
    assert info.value.code == 2


def test_unused_tolerance_flags_are_usage_errors(tmp_path, capsys):
    for flag in ("--tol-eq", "--tol-psd"):
        for name in ("expnorm", "heinz", "monotone-sqrt", "monotone-square",
                     "commutator"):
            assert main(["experiment", name, "--seed", "1", "--count", "2",
                         flag, "1e-6"]) == 2
            assert flag in capsys.readouterr().err
        with pytest.raises(SystemExit) as info:
            main(["reproduce", "--budget", "1", flag, "0.5"])
        assert info.value.code == 2
    # positivity builds a tolerance policy and uses them
    assert main(["experiment", "positivity", "--seed", "1", "--dim", "2",
                 "--count", "2", "--tol-eq", "1e-6", "--tol-psd", "1e-6"]) == 0



def test_flags_an_experiment_does_not_read_are_usage_errors(capsys):
    for name in ("expnorm", "heinz", "monotone-sqrt", "monotone-square",
                 "positivity"):
        assert main(["experiment", name, "--seed", "1", "--dim", "2",
                     "--count", "2", "--budget", "7"]) == 2
        assert "--budget" in capsys.readouterr().err
    for count in ("5", "999"):
        assert main(["experiment", "commutator", "--seed", "1", "--dim", "2",
                     "--budget", "50", "--count", count]) == 2
        assert "--count" in capsys.readouterr().err

def test_underflowing_literal_exits_three(tmp_path, capsys):
    mat = _mat_file(tmp_path, "one.mat", {"x": np.eye(2)})
    for text in ("rel 1e-400 x = 0;", "rel norm(x) < 1e-400;"):
        rel = _write(tmp_path, "tiny.rel", f"var x;\n{text}\n")
        assert main(["check", rel, mat]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            "parse error: number '1e-400' is out of range")
    # zero written with an exponent is still zero
    rel = _write(tmp_path, "zero.rel", "var x;\nrel norm(0e5 x + x) <= 1;\n")
    assert main(["check", rel, mat]) == 0


def test_unwritable_out_paths_exit_two(tmp_path, capsys, monkeypatch):
    rel, mat = _torus_files(tmp_path, dim=4)
    missing = str(tmp_path / "no" / "such" / "dir" / "out.txt")
    runs = (["approx", rel, mat, "--procedure", "loewner", "--schedule", "2,4"],
            ["experiment", "expnorm", "--seed", "1", "--count", "2"],
            ["reproduce", "--budget", "1"])
    for argv in runs:
        for out, why in ((missing, "no directory"),
                         (str(tmp_path), "is a directory")):
            assert main(argv + ["--out", out]) == 2
            stdout, err = capsys.readouterr()
            # refused before the run, so nothing is printed
            assert stdout == "" and err.startswith("cannot write output: ")
            assert why in err and err.count("\n") == 1
    # a failure that only writing shows comes after the run, with its reason
    def refuse(path, items):
        raise PermissionError(13, "Permission denied", path)
    monkeypatch.setattr(cli, "write_reports", refuse)
    monkeypatch.setattr(cli, "write_residual_csv", refuse)
    for argv in runs:
        assert main(argv + ["--out", str(tmp_path / "out.txt")]) == 2
        assert capsys.readouterr().err.startswith(
            "cannot write output: [Errno 13] Permission denied")


def test_positivity_without_explicit_relations_exits_two(tmp_path, capsys):
    for text in ("var x;\n", "var x positive;\nvar u unitary;\n"):
        decl = _write(tmp_path, "decl.rel", text)
        assert main(["experiment", "positivity", decl, "--seed", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: the positivity check needs at least one explicit "
            "relation\n")


def test_check_overflow_is_a_failing_verdict(tmp_path, capsys):
    rel = _write(tmp_path, "big.rel",
                 "var x hermitian;\nrel norm(x^4000) <= 1;\n")
    mat = _mat_file(tmp_path, "two.mat", {"x": np.array([[2.0]])})
    assert main(["check", rel, mat]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "-inf" in captured.out and "unsatisfied" in captured.out


def test_check_non_self_adjoint_positivity_fails_under_a_loose_tol_psd(
        tmp_path, capsys):
    rel = _write(tmp_path, "pos.rel", "var x;\nrel x >= 0;\n")
    mat = _mat_file(tmp_path, "x.mat", {"x": np.array([[1.0, 1e-6],
                                                       [0.0, 1.0]])})
    assert main(["check", "--tol-eq", "1e-9", "--tol-psd", "1e-3",
                 rel, mat]) == 1
    out = capsys.readouterr().out
    # The margin is tol_eq - ||x - x*|| = 1e-9 - 1e-6.
    assert "NO  -9.990000e-07" in out and "unsatisfied" in out



def test_fractional_power_of_a_bad_matrix_fails_check_and_experiment(
        tmp_path, capsys):
    rel = _write(tmp_path, "root.rel", "var x hermitian;\nrel x^(1/2) >= 0;\n")
    for name, m in (("negative.mat", np.array([[-1.0]])),
                    ("nilpotent.mat", np.array([[0.0, 1.0], [0.0, 0.0]]))):
        assert main(["check", rel, _mat_file(tmp_path, name, {"x": m})]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "-inf" in captured.out and "unsatisfied" in captured.out
    assert main(["experiment", "positivity", rel, "--seed", "1", "--dim", "3",
                 "--count", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and "FAIL positivity" in captured.out

@pytest.mark.parametrize("text, mats, reason", [
    ("var y;\nrel norm(y y) <= 1;\n",
     {"y": np.array([[1e200, 1e200], [0.0, 1e200]])},
     "norm(y^2) <= 1.0: matrix has non-finite entries"),
    ("var x hermitian;\nrel norm(x^(1/2)) <= 1;\n",
     {"x": np.diag([-1.0, 1.0])},
     "norm(x^(1/2)) <= 1.0: fractional power of a matrix with eigenvalue "
     "-1.000e+00"),
], ids=["overflow", "negative-root"])
def test_a_tracked_bound_that_cannot_be_measured_exits_two(
        tmp_path, capsys, text, mats, reason):
    rel = _write(tmp_path, "bound.rel", text)
    mat = _mat_file(tmp_path, "bound.mat", mats)
    argv = ["approx", rel, mat, "--schedule", "1,2"]
    assert main(argv + ["--procedure", "quasicentral",
                        "--cutoff", "ramp:1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot track {reason}")
    assert err.count("\n") == 1
    # check and loewner measure no tracked norm: a failing verdict, and
    # residual rows of inf
    assert main(["check", rel, mat]) == 1
    assert main(argv + ["--procedure", "loewner"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "final rank 2: worst residual inf" in out


def test_approx_takes_a_rank_or_width_no_float_holds(tmp_path, capsys):
    # ||uv - vu|| = 2 sin(pi/8) is within the bound, so full rank holds
    rel, mat = _torus_files(tmp_path, dim=8, bound=1.0)
    huge = "9" * 401
    for procedure, cutoff in (("loewner", "sharp"), ("quasicentral", "ramp:4")):
        assert main(["approx", rel, mat, "--procedure", procedure,
                     "--cutoff", cutoff, "--schedule", f"4,{huge}"]) == 0
        out = capsys.readouterr().out
        # the rank is printed as given, and the cut is the identity
        assert f"final rank {huge}: worst residual 0.000000e+00" in out
    assert main(["approx", rel, mat, "--procedure", "quasicentral",
                 "--cutoff", f"ramp:{huge}", "--schedule", "4,8"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: a cutoff width must be at most")


def test_approx_table_and_csv(tmp_path, capsys):
    rel, mat = _torus_files(tmp_path)
    out = tmp_path / "curves.csv"
    code = main(["approx", rel, mat, "--procedure", "quasicentral",
                 "--schedule", "4,8,16", "--cutoff", "ramp:2",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text().splitlines()
    assert text[0] == "rank,relation,residual,alpha,defect"
    assert len(text) > 3
    code = main(["approx", rel, mat, "--procedure", "loewner",
                 "--schedule", "4,8"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "final rank 8" in stdout
    # a cut corner below d = 8 has a zero column, so its unitarity defect
    # is exactly 1 and its residual 1 - 1e-9, one double on every host
    rel, mat = _torus_files(tmp_path, dim=8, bound=1.0)
    for procedure, cutoff in (("loewner", "sharp"), ("quasicentral", "ramp:2")):
        assert main(["approx", rel, mat, "--procedure", procedure,
                     "--cutoff", cutoff, "--schedule", "2,7,8,9",
                     "--out", str(out)]) == 0
        with out.open() as fh:
            rows = [r for r in csv.DictReader(fh)
                    if r["relation"].endswith(" unitary")
                    and r["rank"] in ("2", "7")]
        assert [r["residual"] for r in rows] == ["0.999999999"] * 4


def test_experiment_writes_jsonl(tmp_path, capsys):
    out = tmp_path / "rep.jsonl"
    code = main(["experiment", "expnorm", "--seed", "42", "--dim", "4",
                 "--count", "20", "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout
    data = json.loads(out.read_text().strip())
    assert data["id"] == "expnorm-d4"
    assert data["samples"] == 20


def _strict_json(text):
    """Parse RFC 8259 JSON, which has no Infinity, -Infinity or NaN."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("args, rel_text, violation", [
    # no ratio at d = 1 is non-degenerate, so nothing beats -inf
    (["commutator", "--seed", "1", "--dim", "1", "--budget", "5"], None,
     "-inf"),
    # ||x^4000|| overflows
    (["positivity", "--seed", "1", "--dim", "2", "--count", "2"],
     "var x positive;\nrel norm(x^4000) <= 1;\n", "inf"),
], ids=["commutator-d1", "positivity-overflow"])
def test_experiment_jsonl_writes_infinite_violation_as_string(
        tmp_path, capsys, args, rel_text, violation):
    out = tmp_path / "rep.jsonl"
    rel = [] if rel_text is None else [_write(tmp_path, "big.rel", rel_text)]
    main(["experiment", args[0], *rel, *args[1:], "--out", str(out)])
    data = _strict_json(out.read_text())
    assert data["max_violation"] == violation
    assert f"max_violation={violation} " in capsys.readouterr().out


def test_report_json_refuses_other_non_finite_values():
    rep = verify.ExperimentReport("x", {}, 1, 0.0, {}, 1.0,
                                  stats={"ratio": float("nan")})
    with pytest.raises(ValueError):
        rep.to_json()
    nan = verify.ExperimentReport("x", {}, 1, float("nan"), {}, 1.0)
    with pytest.raises(ValueError):
        nan.to_json()



# Each experiment name's flags for a small run at seed 5, and the direct
# call that the run must equal.
_DIRECT_CALLS = {
    "expnorm": (["--dim", "3", "--count", "4"],
                lambda: verify.exp_norm_experiment(Ensemble(3, 5, 4))),
    "heinz": (["--dim", "2", "--count", "3"],
              lambda: verify.heinz_experiment(Ensemble(2, 5, 3))),
    "monotone-sqrt": (["--dim", "3", "--count", "4"],
                      lambda: verify.monotone_experiment(
                          0.5, Ensemble(3, 5, 4))),
    "monotone-square": (["--dim", "2", "--count", "6"],
                        lambda: verify.monotone_experiment(
                            2.0, Ensemble(2, 5, 6))),
    "commutator": (["--dim", "2", "--budget", "40"],
                   lambda: verify.commutator_sqrt_search(2, 5, 40)),
    "positivity": (["--dim", "2", "--count", "3"],
                   lambda: verify.positivity_transfer_check(
                       verify.DEFAULT_POSITIVITY_RELATIONS, dims=[2], seed=5,
                       count=3)),
}


@pytest.mark.parametrize("name", list(_DIRECT_CALLS))
def test_experiment_command_matches_direct_call(tmp_path, capsys, name):
    flags, direct = _DIRECT_CALLS[name]
    out = tmp_path / "rep.jsonl"
    assert main(["experiment", name, "--seed", "5", *flags,
                 "--out", str(out)]) == 0
    got = json.loads(out.read_text())
    want = json.loads(direct().to_json())
    got.pop("runtime_ms"), want.pop("runtime_ms")
    assert got == want

def test_experiment_commutator_is_exploratory(capsys):
    code = main(["experiment", "commutator", "--seed", "7", "--dim", "2",
                 "--budget", "300"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "INFO" in stdout


def test_experiment_positivity_accepts_relation_file(tmp_path, capsys):
    bad = _write(tmp_path, "bad.rel", "var x;\nvar y;\nrel x y >= 0;\n")
    code = main(["experiment", "positivity", bad, "--seed", "3", "--dim", "3",
                 "--count", "10"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_experiment_determinism_across_runs(tmp_path):
    args = ["experiment", "heinz", "--seed", "11", "--dim", "3",
            "--count", "10"]
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    da.pop("runtime_ms"), db.pop("runtime_ms")
    assert da == db


def test_parser_help_lists_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for word in ("check", "approx", "experiment", "reproduce"):
        assert word in text


def test_check_never_loads_scipy_linalg(tmp_path):
    # scipy.linalg takes longer to import than a whole check, and only
    # the exponential experiments use it.  A fresh interpreter shows what
    # one command loads.
    import os
    import subprocess
    import sys
    from pathlib import Path

    import matrel

    rel, mat = _torus_files(tmp_path, dim=4, bound=2.0)
    script = (
        "import sys\n"
        "from matrel.cli import main\n"
        "code = main(['check', sys.argv[1], sys.argv[2]])\n"
        "print('#check', code, 'scipy.linalg' in sys.modules)\n"
        "code = main(['experiment', 'expnorm', '--seed', '1', '--dim', '2',\n"
        "             '--count', '3'])\n"
        "print('#expnorm', code, 'scipy.linalg' in sys.modules)\n")
    src = str(Path(matrel.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script, rel, mat],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    tags = [line for line in proc.stdout.splitlines() if line[:1] == "#"]
    assert tags == ["#check 0 False", "#expnorm 0 True"], proc.stdout
