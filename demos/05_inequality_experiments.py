"""Randomized operator-norm inequality experiments, small editions.

The full fixed-seed suite runs via ``matrel reproduce``; this demo runs
reduced sample counts so it finishes in a couple of seconds.

Run as ``python3 demos/05_inequality_experiments.py``.
"""

from matrel import (
    DEFAULT_POSITIVITY_RELATIONS,
    Ensemble,
    commutator_sqrt_search,
    exp_norm_experiment,
    heinz_experiment,
    monotone_experiment,
    positivity_transfer_check,
)


def show(report) -> None:
    if report.threshold is None:
        state = "INFO"
    else:
        state = "PASS" if report.passed else "FAIL"
    print(f"  [{state}] {report.id}: max violation {report.max_violation:+.3e} "
          f"over {report.samples} samples")


def main() -> None:
    print("== inequalities that hold, sampled at random ==")
    show(exp_norm_experiment(Ensemble(6, seed=1, count=200)))
    show(heinz_experiment(Ensemble(4, seed=2, count=50)))
    show(monotone_experiment(0.5, Ensemble(4, seed=3, count=200)))
    show(positivity_transfer_check(DEFAULT_POSITIVITY_RELATIONS,
                                   dims=(2, 4), seed=4, count=25))

    print()
    print("== squaring is the textbook counterexample ==")
    show(monotone_experiment(2.0, Ensemble(2, seed=5, count=100)))
    print("  a positive violation above means an order pair x <= y with")
    print("  x^2 <= y^2 false; compare the sqrt line above, which stays flat")

    print()
    print("== searching for the largest commutator square-root ratio ==")
    rep = commutator_sqrt_search(2, seed=6, budget=4000)
    show(rep)
    print(f"  hill climb: {rep.stats['restarts']} restart(s), running best "
          f"{[round(v, 5) for _, v in rep.stats['trace'][-3:]]}")
    print("  the ratio ||a b^(1/2) - b^(1/2) a|| / ||a b - b a||^(1/2) creeps")
    print("  toward one, the value already reached on a tiny 2x2 lattice")


if __name__ == "__main__":
    main()
