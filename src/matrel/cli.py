"""Command-line front end.

Four subcommands:

* ``check RELFILE MATFILE``: parse a relation file and an assignment,
  print a verdict table, exit 1 when any relation is unsatisfied.
* ``approx RELFILE MATFILE --procedure ... --schedule ...``: run a
  compression procedure and report residual curves (CSV via --out).
* ``experiment NAME``: run one randomized experiment (--seed required)
  and report pass/fail against its threshold.
* ``reproduce``: run the whole fixed-seed inequality suite.

Exit codes: 0 success, 1 an unsatisfied relation or a failed
experiment threshold, 2 usage errors, 3 unreadable or unparsable input
files.  Human-readable tables go to stdout; machine-readable output
(JSON lines, CSV) only ever goes to files named by --out.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import matcalc, verify
from .approx import CompressionSchedule, residual_curves, write_residual_csv
from .matcalc import TolerancePolicy
from .ncpoly import ParseError
from .relations import check_all, describe, load_assignment, load_relations
from .verify import ExperimentReport, write_reports

MAX_DIM = 512


def _require_positive(value: int | None, flag: str) -> None:
    if value is not None and value < 1:
        raise ValueError(f"{flag} must be at least 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matrel",
        description="Check matrix relations, compress assignments, and run "
                    "operator-norm inequality experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tols(p, note=""):
        p.add_argument("--tol-eq", dest="tol_eq", type=float,
                       help=f"relative equality tolerance (default 1e-9){note}")
        p.add_argument("--tol-psd", dest="tol_psd", type=float,
                       help=f"relative positivity tolerance (default 1e-9){note}")

    p_check = sub.add_parser("check", help="check an assignment against a "
                                           "relation file")
    p_check.add_argument("relfile", metavar="RELFILE")
    p_check.add_argument("matfile", metavar="MATFILE")
    add_tols(p_check)
    p_check.set_defaults(run=_cmd_check)

    p_approx = sub.add_parser("approx", help="run a compression procedure "
                                             "and report residual curves")
    p_approx.add_argument("relfile", metavar="RELFILE")
    p_approx.add_argument("matfile", metavar="MATFILE")
    p_approx.add_argument("--procedure", required=True,
                          choices=("loewner", "quasicentral"))
    p_approx.add_argument("--schedule", required=True,
                          help="comma-separated ranks, e.g. 8,16,32")
    p_approx.add_argument("--cutoff", default="sharp",
                          help="sharp or ramp:WIDTH (default sharp); "
                               "loewner takes only sharp")
    p_approx.add_argument("--out", help="write residual curves as CSV")
    add_tols(p_approx)
    p_approx.set_defaults(run=_cmd_approx)

    p_exp = sub.add_parser("experiment", help="run one randomized experiment")
    p_exp.add_argument("name", choices=verify.EXPERIMENT_NAMES)
    p_exp.add_argument("relfile", nargs="?", metavar="RELFILE",
                       help="relation file (positivity only)")
    p_exp.add_argument("--seed", type=int, required=True)
    p_exp.add_argument("--dim", type=int)
    p_exp.add_argument("--count", type=int)
    p_exp.add_argument("--budget", type=int)
    p_exp.add_argument("--out", help="write JSON lines here")
    add_tols(p_exp, "; positivity only")
    p_exp.set_defaults(run=_cmd_experiment)

    p_rep = sub.add_parser("reproduce", help="run the fixed-seed suite")
    p_rep.add_argument("--budget", type=int, default=verify.COMMUTATOR_BUDGET,
                       help="ratio evaluations per search dimension")
    p_rep.add_argument("--out", help="write JSON lines here")
    p_rep.set_defaults(run=_cmd_reproduce)
    return parser


def _print_verdict_table(relations, verdict) -> None:
    width = max([len(describe(r)) for r in relations] + [24])
    print(f"{'relation':<{width}}  {'ok':<3} {'margin':>13} {'residual':>13}")
    for rel, part in zip(relations, verdict.parts):
        ok = "yes" if part.satisfied else "NO"
        print(f"{describe(rel):<{width}}  {ok:<3} {part.margin:>13.6e} "
              f"{part.residual:>13.6e}")


def _tols(args: argparse.Namespace) -> dict:
    """The tolerance flags given on the command line."""
    return {name: getattr(args, name) for name in ("tol_eq", "tol_psd")
            if getattr(args, name) is not None}


def _policy(args: argparse.Namespace) -> TolerancePolicy:
    return TolerancePolicy(**_tols(args))


def _cmd_check(args: argparse.Namespace) -> int:
    _, relations = load_relations(args.relfile)
    assignment = load_assignment(args.matfile)
    verdict = check_all(relations, assignment, _policy(args))
    _print_verdict_table(relations, verdict)
    print(("satisfied" if verdict.satisfied else "unsatisfied")
          + f" ({verdict.detail}, worst margin {verdict.margin:.6e})")
    return 0 if verdict.satisfied else 1


def _cmd_approx(args: argparse.Namespace) -> int:
    _, relations = load_relations(args.relfile)
    assignment = load_assignment(args.matfile)
    schedule = CompressionSchedule.parse(args.schedule, args.cutoff)
    rows = residual_curves(assignment, relations, schedule, args.procedure,
                           _policy(args))
    if args.out:
        write_residual_csv(args.out, rows)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(f"{'rank':>5} {'residual':>13} {'alpha':>9} {'defect':>9}  relation")
        for row in rows:
            print(f"{row['rank']:>5} {row['residual']:>13.6e} "
                  f"{row['alpha']:>9.6f} {row['defect']:>9.3e}  {row['relation']}")
    final = max(r["rank"] for r in rows)
    worst = max(r["residual"] for r in rows if r["rank"] == final)
    print(f"final rank {final}: worst residual {worst:.6e}")
    return 0


def _report(reports: list[ExperimentReport], out: str | None) -> int:
    all_passed = True
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        if rep.threshold is None:
            status = "INFO"
        threshold = "none" if rep.threshold is None else f"{rep.threshold:g}"
        print(f"{status} {rep.id}: max_violation={rep.max_violation:.6e} "
              f"threshold={threshold} samples={rep.samples} "
              f"({rep.runtime_ms:.0f} ms)")
        all_passed = all_passed and rep.passed
    if out:
        write_reports(out, reports)
        print(f"wrote {len(reports)} report(s) to {out}")
    return 0 if all_passed else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    name = args.name
    if args.dim is not None and not 1 <= args.dim <= MAX_DIM:
        raise ValueError(f"--dim must lie in [1, {MAX_DIM}]")
    _require_positive(args.count, "--count")
    _require_positive(args.budget, "--budget")
    for what, given, read in (
            ("relation file", args.relfile is not None, name == "positivity"),
            ("--tol-eq/--tol-psd", bool(_tols(args)), name == "positivity"),
            ("--count", args.count is not None, name != "commutator"),
            ("--budget", args.budget is not None, name == "commutator")):
        if given and not read:
            raise ValueError(f"experiment {name!r} takes no {what}")
    text = None if args.relfile is None else Path(args.relfile).read_text()
    report = verify.run_experiment(name, args.seed, args.dim, args.count,
                                   args.budget, text, _policy(args))
    return _report([report], args.out)


def _cmd_reproduce(args: argparse.Namespace) -> int:
    _require_positive(args.budget, "--budget")
    return _report(verify.run_reproduction(commutator_budget=args.budget),
                   args.out)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ParseError, matcalc.MatrixError) as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"cannot read input: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
