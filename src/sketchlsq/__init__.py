"""Sketch-preconditioned dense least squares.

Solve full-column-rank problems min norm(A x - b) through normal-equation
variants whose triangular preconditioner comes from a randomized
trigonometric sketch and can be computed in reduced precision (binary16 or
binary32) chosen automatically from a cheap condition estimate.  Closed
form perturbation bounds for every variant are evaluated from measured
quantities so empirical errors can be checked against theory.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundInputs,
    bound_hpne,
    bound_ls,
    bound_ne_family,
    bound_notnormal,
    bound_pne,
    eta1,
    measure_bound_inputs,
)
from .dense import (
    ConditionDiagnostics,
    QRFactors,
    cholesky_solve,
    condition_diagnostics,
    householder_qr,
    lu_solve,
    triangular_solve,
)
from .errors import (
    DegenerateResidual,
    DimensionMismatch,
    MissingField,
    NoConvergence,
    NotOrthonormal,
    NotPositiveDefinite,
    NumericallySingular,
    Overflow,
    PoleAtOne,
    RankDeficient,
    SingularTriangular,
    SketchLsqError,
)
from .harness import SweepConfig, rho_grid, run_benchmark, run_sweep
from .precision import (
    BINARY16,
    BINARY32,
    BINARY64,
    PrecisionDecision,
    PrecisionLevel,
    decide_precision,
    estimate_log10_condition,
    qr_in_precision,
    round_to_precision,
    select_precision,
)
from .probgen import (
    LeastSquaresProblem,
    generate_problem,
    load_problem,
    random_orthogonal_columns,
    save_problem,
    triangular_with_condition,
)
from .sketch import (
    EmbeddingParams,
    SketchOperator,
    apply_sketch,
    coherence,
    make_sketch,
    sample_size_lower_bound,
    sketch_from_descriptor,
)
from .solvers import (
    Preconditioner,
    SolveReport,
    algorithm1_pipeline,
    build_preconditioner,
    precondition_matrix,
    solve_hpne,
    solve_normal,
    solve_notnormal,
    solve_pne,
    solve_qr_baseline,
    solve_seminormal,
)
