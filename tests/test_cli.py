import json
import warnings

import numpy as np
import pytest

from matrel import verify
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


def test_check_malformed_input_exits_three(tmp_path, capsys):
    rel = _write(tmp_path, "bad.rel", "var x\nrel x = 0;\n")
    mat = _mat_file(tmp_path, "half.mat", {"x": np.array([[0.5]])})
    assert main(["check", rel, mat]) == 3
    err = capsys.readouterr().err
    assert "error" in err.lower()
    # an exponent that overflows to inf is a malformed file, not a crash
    for expo in ("1e400", "(1e400/2)"):
        rel = _write(tmp_path, "huge.rel",
                     f"var x;\nrel norm(x^{expo}) <= 1;\n")
        assert main(["check", rel, mat]) == 3
        err = capsys.readouterr().err
        assert err.startswith("parse error") and err.count("\n") == 1
    # an assignment with no variables is a malformed file
    empty = _write(tmp_path, "empty.mat", "dim 2 vars 0\n")
    assert main(["check", _write(tmp_path, "idem.rel", IDEM), empty]) == 3
    err = capsys.readouterr().err
    assert err == "parse error: an assignment needs at least one variable\n"


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
    # a file with declarations only leaves no residual to track
    bare = _write(tmp_path, "bare.rel", "var x;\n")
    one = _mat_file(tmp_path, "one.mat", {"x": np.eye(2)})
    capsys.readouterr()
    assert main(["approx", bare, one, "--procedure", "loewner",
                 "--schedule", "1,2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == (
        "error: no relations to track: residual curves need at least one\n")
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

def test_check_overflow_is_a_failing_verdict(tmp_path, capsys):
    rel = _write(tmp_path, "big.rel",
                 "var x hermitian;\nrel norm(x^4000) <= 1;\n")
    mat = _mat_file(tmp_path, "two.mat", {"x": np.array([[2.0]])})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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



# Each experiment name's flags for a small run at seed 5, and the direct
# call that the run must equal.
_DIRECT_CALLS = {
    "expnorm": (["--dim", "3", "--count", "4"],
                lambda: verify.exp_norm_experiment(Ensemble("general", 3, 5, 4))),
    "heinz": (["--dim", "2", "--count", "3"],
              lambda: verify.heinz_experiment(Ensemble("general", 2, 5, 3))),
    "monotone-sqrt": (["--dim", "3", "--count", "4"],
                      lambda: verify.monotone_experiment(
                          0.5, Ensemble("order-pair", 3, 5, 4))),
    "monotone-square": (["--dim", "2", "--count", "6"],
                        lambda: verify.monotone_experiment(
                            2.0, Ensemble("order-pair", 2, 5, 6))),
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
