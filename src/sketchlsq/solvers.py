"""Least-squares solvers built on normal equations and sketch preconditioning.

The preconditioned family works with A_p = A R_s^{-1}, where R_s is the
triangular factor of a randomized sketch of A, computed in a possibly
reduced precision and promoted to binary64.  Preconditioned normal
equations (pne) solve A_p^T A_p y = A_p^T b by Cholesky and recover
x = R_s^{-1} y; half-preconditioned normal equations (hpne) solve the
nonsymmetric system A_p^T A x = A_p^T b by LU with partial pivoting.
Unpreconditioned baselines (QR, normal equations, seminormal equations)
and the two-sided generalization B^T A x = B^T b round out the family.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dense import (
    cholesky_solve,
    condition_diagnostics,
    householder_qr,
    lu_solve,
    qr_r_factor,
    triangular_solve,
    _as_matrix,
)
from .errors import (
    DimensionMismatch,
    NotPositiveDefinite,
    Overflow,
    RankDeficient,
)
from .precision import (
    BINARY64,
    PrecisionDecision,
    PrecisionLevel,
    decide_precision,
    level_from_name,
    next_higher,
    qr_in_precision,
    round_to_precision,
)
from .sketch import DCT2, apply_sketch, make_sketch


@dataclass
class Preconditioner:
    """Promoted triangular preconditioner factor and its diagnostics.

    kappa_ap is None until precondition_matrix runs; sketch_descriptor
    holds the four-field dict that reconstructs the sketch operator.
    """

    r_s: np.ndarray
    computed_in: PrecisionLevel
    kappa_rs: float
    kappa_ap: float | None = None
    sketch_descriptor: dict | None = None


@dataclass
class SolveReport:
    """Everything a solve produced, plus cheap quality measures.

    relative_residual here uses the Frobenius norm of A in the
    denominator (norm_is_frobenius records this); the sweep harness and
    the bound machinery use the spectral norm instead, which they measure
    separately.  relative_error is None when no reference solution was
    supplied.  wall_ms covers the solver call, including preconditioner
    construction when the solver built one itself.
    """

    method: str
    x_hat: np.ndarray
    residual_norm: float
    relative_residual: float
    relative_error: float | None
    wall_ms: float
    preconditioner: Preconditioner | None = None
    bounds: dict = field(default_factory=dict)
    norm_is_frobenius: bool = True
    precision_decision: PrecisionDecision | None = None
    escalated_from: PrecisionLevel | None = None


def _check_system(a, b):
    a = _as_matrix(a)
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError(f"b must be 1-D, got ndim={b.ndim}")
    if not np.isfinite(b).all():
        raise ValueError("b contains non-finite entries")
    if a.shape[0] < a.shape[1]:
        raise DimensionMismatch(f"need rows >= cols, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"b length {b.shape[0]} != rows {a.shape[0]}")
    return a.astype(np.float64), b


def _report(method, a, b, x_hat, t0, x_star=None, preconditioner=None):
    r = a @ x_hat - b
    residual_norm = float(np.linalg.norm(r))
    denom = float(np.linalg.norm(a)) * float(np.linalg.norm(x_hat))
    relative_residual = residual_norm / denom if denom > 0 else math.inf
    relative_error = None
    if x_star is not None:
        x_star = np.asarray(x_star, dtype=np.float64)
        relative_error = float(np.linalg.norm(x_hat - x_star)
                               / np.linalg.norm(x_star))
    return SolveReport(
        method=method,
        x_hat=x_hat,
        residual_norm=residual_norm,
        relative_residual=relative_residual,
        relative_error=relative_error,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        preconditioner=preconditioner,
    )


def solve_qr_baseline(a, b, x_star=None):
    """Reference dense solve: LAPACK thin QR, then back substitution."""
    a, b = _check_system(a, b)
    t0 = time.perf_counter()
    factors = householder_qr(a)
    x = triangular_solve(factors.r, factors.q.T @ b)
    return _report("qr", a, b, x, t0, x_star)


def solve_normal(a, b, x_star=None):
    """Unpreconditioned normal equations a^T a x = a^T b via Cholesky.

    Raises NotPositiveDefinite when the Gram matrix loses definiteness to
    rounding, which happens once the condition number nears 1e8.
    """
    a, b = _check_system(a, b)
    t0 = time.perf_counter()
    x = cholesky_solve(a.T @ a, a.T @ b)
    return _report("ne", a, b, x, t0, x_star)


def solve_seminormal(a, b, x_star=None):
    """Seminormal equations r^T r x = a^T b using only the R factor of a."""
    a, b = _check_system(a, b)
    t0 = time.perf_counter()
    r = qr_r_factor(a)
    y = triangular_solve(r, a.T @ b, transposed=True)
    x = triangular_solve(r, y)
    return _report("sne", a, b, x, t0, x_star)


def solve_notnormal(a, b_matrix, b, x_star=None):
    """Two-sided (not-normal) equations b_matrix^T a x = b_matrix^T b.

    b_matrix must have the same shape as a; taking b_matrix = a recovers
    the normal equations, taking b_matrix = A_p recovers the
    half-preconditioned system.
    """
    a, b = _check_system(a, b)
    b_matrix = _as_matrix(b_matrix, "b_matrix").astype(np.float64)
    if b_matrix.shape != a.shape:
        raise DimensionMismatch(
            f"b_matrix shape {b_matrix.shape} != a shape {a.shape}")
    t0 = time.perf_counter()
    x = lu_solve(b_matrix.T @ a, b_matrix.T @ b)
    return _report("nne", a, b, x, t0, x_star)


def build_preconditioner(a, d_factor=3.0, transform=DCT2, level=BINARY64, seed=0):
    """Sketch a, factor the sketch in the given precision, promote R_s.

    The input is demoted to the working precision before sketching, the
    sketch itself runs in that precision, and the QR of the d x n sketch
    runs with every operation rounded to it.  The returned triangular
    factor is the exact binary64 promotion of the low-precision result.

    Raises
    ------
    Overflow
        If demotion or the low-precision computation leaves range.
    RankDeficient
        If the sketched matrix loses column rank at the working precision
        (including a zero diagonal surviving to the promoted factor).
    """
    a = _as_matrix(a)
    m, n = a.shape
    if m < n:
        raise DimensionMismatch(f"need rows >= cols, got {m} x {n}")
    d = int(math.ceil(d_factor * n))
    if d < n:
        raise ValueError(f"d_factor {d_factor} gives d={d} < n={n}")
    rounded = round_to_precision(a, level)
    if rounded.overflowed:
        raise Overflow(f"input exceeds the {level.name} range")
    op = make_sketch(m, d, transform, seed)
    a_s = apply_sketch(op, rounded.data)
    factors = qr_in_precision(a_s, level)
    r_s = factors.r
    if (np.diagonal(r_s) == 0).any():
        raise RankDeficient("sketched factor has a zero diagonal entry")
    kappa_rs = condition_diagnostics(r_s).two_norm_condition
    return Preconditioner(r_s=r_s, computed_in=level, kappa_rs=kappa_rs,
                          sketch_descriptor=op.descriptor())


def precondition_matrix(a, pre):
    """Form A_p = a @ r_s^{-1} by triangular solves and record kappa(A_p).

    Fills pre.kappa_ap as a side effect.  All arithmetic is binary64
    regardless of the precision the factor was computed in.
    """
    a = _as_matrix(a).astype(np.float64)
    xt = triangular_solve(pre.r_s, a.T, transposed=True)
    a_p = np.ascontiguousarray(xt.T)
    pre.kappa_ap = condition_diagnostics(a_p).two_norm_condition
    return a_p


def solve_pne(a, b, pre, x_star=None, a_p=None):
    """Preconditioned normal equations.

    Solves A_p^T A_p y = A_p^T b by Cholesky (falling back to LU when the
    preconditioned Gram matrix is not numerically definite), then recovers
    x from R_s x = y.  Pass a_p to reuse a previously formed
    preconditioned matrix; otherwise it is formed here.
    """
    a, b = _check_system(a, b)
    t0 = time.perf_counter()
    if a_p is None:
        a_p = precondition_matrix(a, pre)
    g = a_p.T @ a_p
    rhs = a_p.T @ b
    try:
        y = cholesky_solve(g, rhs)
    except NotPositiveDefinite:
        y = lu_solve(g, rhs)
    x = triangular_solve(pre.r_s, y)
    return _report("pne", a, b, x, t0, x_star, preconditioner=pre)


def solve_hpne(a, b, pre, x_star=None, a_p=None):
    """Half-preconditioned normal equations.

    Solves the nonsymmetric n x n system A_p^T A x = A_p^T b by LU with
    partial pivoting; no triangular recovery step is needed since the
    unknowns are already x.
    """
    a, b = _check_system(a, b)
    t0 = time.perf_counter()
    if a_p is None:
        a_p = precondition_matrix(a, pre)
    x = lu_solve(a_p.T @ a, a_p.T @ b)
    return _report("hpne", a, b, x, t0, x_star, preconditioner=pre)


def prepare_preconditioner(a, d_factor=3.0, transform=DCT2, level=BINARY64,
                           seed=0):
    """Build the preconditioner and A_p, escalating precision once on failure.

    A RankDeficient sketch factor (the typical binary16 failure mode on
    ill-conditioned input) triggers exactly one retry at the next wider
    precision; a second failure propagates.

    Returns
    -------
    (pre, a_p, escalated_from) : tuple
        escalated_from is the precision that failed, or None.
    """
    escalated_from = None
    while True:
        try:
            pre = build_preconditioner(a, d_factor, transform, level, seed)
            a_p = precondition_matrix(a, pre)
            return pre, a_p, escalated_from
        except RankDeficient:
            wider = next_higher(level)
            if escalated_from is not None or wider is None:
                raise
            escalated_from = level
            level = wider


def algorithm1_pipeline(a, b, method="pne", precision="auto", d_factor=3.0,
                        transform=DCT2, seed=0, x_star=None):
    """End-to-end sketch-preconditioned solve with automatic precision.

    With precision="auto" the preconditioner precision comes from a cheap
    binary64 condition estimate (estimate_log10_condition): binary16 below
    1e4, binary32 up to 1e8, binary64 beyond (or when the estimate
    overflows).  A fixed precision name ("half", "single", "double" or the
    binary names) skips the estimate.  The final solve is always binary64.

    Parameters
    ----------
    method : one of "pne", "hpne"
    precision : "auto", a precision name, or a PrecisionLevel

    Returns
    -------
    SolveReport
        wall_ms covers the full pipeline: estimate, sketch, factor,
        precondition, solve.
    """
    a, b = _check_system(a, b)
    if method not in ("pne", "hpne"):
        raise ValueError(f"pipeline method must be pne or hpne, got {method!r}")
    t0 = time.perf_counter()
    decision = None
    if isinstance(precision, PrecisionLevel):
        level = precision
    elif precision == "auto":
        decision = decide_precision(a)
        level = decision.selected
    else:
        level = level_from_name(precision)
    pre, a_p, escalated_from = prepare_preconditioner(
        a, d_factor, transform, level, seed)
    if method == "pne":
        report = solve_pne(a, b, pre, x_star=x_star, a_p=a_p)
    else:
        report = solve_hpne(a, b, pre, x_star=x_star, a_p=a_p)
    report.precision_decision = decision
    report.escalated_from = escalated_from
    report.wall_ms = (time.perf_counter() - t0) * 1e3
    return report
