"""Matrix relation checking, finite-rank approximation, and
operator-norm inequality experiments.

The pieces, bottom up:

* :mod:`matrel.ncpoly`: noncommutative *-polynomials with rational
  exponents, their parser, printer, and matrix evaluation;
* :mod:`matrel.matcalc`: operator norms, Hermitian functional calculus,
  and the relative tolerance policy everything else shares;
* :mod:`matrel.relations`: relation sets over matrix variables, checked
  with quantified residuals, plus the relation and assignment file
  formats;
* :mod:`matrel.approx`: compression schedules, the sharp compression
  and quasi-central rescaling procedures, *-strong probes, and model
  operators;
* :mod:`matrel.verify`: seeded ensembles and the inequality experiment
  suite;
* :mod:`matrel.cli`: the ``matrel`` command.
"""

from .matcalc import (
    DEFAULT_POLICY,
    MatrixError,
    NegativeSpectrumError,
    NotHermitianError,
    TolerancePolicy,
    block2,
    direct_sum,
    fractional_power,
    hermitian_calculus,
    matrix_exp,
    max_eigenvalue,
    min_eigenvalue,
    op_norm,
    real_part,
)
from .ncpoly import (
    ConstantTermError,
    ExponentError,
    Monomial,
    NcPolynomial,
    ParseError,
    PolyError,
    UnknownVariableError,
    Variable,
    evaluate,
    format_poly,
    homogeneity,
    parse_poly,
)
from .relations import (
    Assignment,
    BlockPositive,
    Contraction,
    ExpRealNormBound,
    NormBound,
    OperatorOrder,
    PolyPositive,
    PolyZero,
    Positive,
    Range01,
    RealPartBound,
    Relation,
    SelfAdjoint,
    Unitary,
    Verdict,
    check_all,
    describe,
    essential_dim,
    format_assignment,
    format_relations,
    parse_assignment,
    parse_relations,
    product_rep,
    residual,
)
from .approx import (
    SHARP,
    CompressionSchedule,
    Cutoff,
    QuasicentralStep,
    StarStrongProbe,
    clock_shift_norm_gap,
    loewner_step,
    model,
    quasicentral_approximation,
    residual_curves,
    star_strong_residual,
    write_residual_csv,
)
from .verify import (
    DEFAULT_POSITIVITY_RELATIONS,
    REPRODUCTION_SEEDS,
    Ensemble,
    ExperimentReport,
    clock_shift_pair,
    commutator_ratio,
    commutator_sqrt_search,
    exp_norm_experiment,
    heinz_experiment,
    monotone_experiment,
    positivity_transfer_check,
    run_reproduction,
    soft_torus_relations,
    stream,
    write_reports,
)

__version__ = "0.1.0"
