"""Least-squares solvers built on normal equations and sketch preconditioning.

The preconditioned family works with A_p = A R_s^{-1}, where R_s is the
triangular factor of a randomized sketch of A, computed in a possibly
reduced precision and promoted to binary64.  Preconditioned normal
equations (pne) solve A_p^T A_p y = A_p^T b by Cholesky and recover
x = R_s^{-1} y; half-preconditioned normal equations (hpne) solve the
nonsymmetric system A_p^T A x = A_p^T b by LU with partial pivoting.
Unpreconditioned baselines (QR, normal equations, seminormal equations)
and the two-sided generalization B^T A x = B^T b round out the family.
prepare_preconditioner is the one step that chooses the precision and
builds R_s; the Preconditioner it returns records that choice, so a
report of any solve that uses it carries the decision and escalation.

Every function here that takes A also takes a dense.LinearSystem in its
place (a solve then takes that system's own b and x_star); its docstring
states what the system checks, shares and counts in wall_ms.
"""

import math
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .bounds import bound_hpne, bound_pne
from .dense import (
    cholesky_solve,
    lu_solve,
    triangular_solve,
    _as_matrix,
    _as_system,
    LinearSystem,
    _check_diagonal,
    _check_system,
    _matrix_of,
    _tall_matrix,
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
    """Promoted triangular preconditioner factor, and how it was chosen.

    computed_in is the precision the sketch QR ran in; sketch_descriptor
    holds the four-field dict that reconstructs the sketch operator.
    prepare_preconditioner sets decision (decide_precision's result when
    it chose the precision, else None) and escalated_from (the precision
    whose build failed, or None); build_preconditioner leaves both None.
    The condition numbers kappa(R_s) and kappa(A_p) are not part of the
    solve; bounds.measure_problem measures them when a caller asks.
    """

    r_s: np.ndarray
    computed_in: PrecisionLevel
    sketch_descriptor: dict | None = None
    decision: PrecisionDecision | None = None
    escalated_from: PrecisionLevel | None = None


@dataclass
class SolveReport:
    """Everything a solve produced, plus cheap quality measures.

    relative_residual here uses the Frobenius norm of A in the
    denominator; the sweep harness and the bound machinery use the
    spectral norm instead, which they measure separately.
    relative_residual is 0.0 whenever the residual is exactly zero, as
    for b = 0.  relative_error is None when no reference solution was
    supplied.  What wall_ms counts is stated in dense.LinearSystem.
    lu_fallback is True when pne's Cholesky factorization of the
    preconditioned Gram matrix failed and LU solved that system instead.
    precision_decision and escalated_from read the preconditioner's
    record of how it was chosen.
    """

    method: str
    x_hat: np.ndarray
    residual_norm: float
    relative_residual: float
    relative_error: float | None
    wall_ms: float
    preconditioner: Preconditioner | None = None
    lu_fallback: bool = False

    @property
    def precision_decision(self):
        pre = self.preconditioner
        return None if pre is None else pre.decision

    @property
    def escalated_from(self):
        pre = self.preconditioner
        return None if pre is None else pre.escalated_from


def _silent_overflow():
    # A solve that leaves range yields non-finite values, which _report or
    # _finite_system then rejects; numpy's warnings about the same values
    # on stderr would only be noise.
    return np.errstate(over="ignore", invalid="ignore")


def _finite_system(method, g, rhs):
    # an n x n system formed from A overflowed; the kernels would reject it
    # as invalid input (ValueError), but it is a range failure
    if not (np.isfinite(g).all() and np.isfinite(rhs).all()):
        raise Overflow(f"{method} system has non-finite entries")
    return g, rhs


def _report(method, system, x_hat, t0, preconditioner=None, lu_fallback=False):
    if not np.isfinite(x_hat).all():
        raise Overflow(f"{method} solution has non-finite entries")
    # BLAS nrm2 scales as it sums, so these norms stay finite for A, b
    # near the binary64 range
    r = system.a @ x_hat - system.b
    residual_norm = float(linalg.norm(r))
    denom = system.norm_a * float(linalg.norm(x_hat))
    if residual_norm == 0:
        relative_residual = 0.0
    else:
        relative_residual = residual_norm / denom if denom > 0 else math.inf
    relative_error = None
    if system.x_star is not None:
        relative_error = float(np.linalg.norm(x_hat - system.x_star)
                               / np.linalg.norm(system.x_star))
    return SolveReport(
        method=method,
        x_hat=x_hat,
        residual_norm=residual_norm,
        relative_residual=relative_residual,
        relative_error=relative_error,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        preconditioner=preconditioner,
        lu_fallback=lu_fallback,
    )


# A solve's clock starts early by the time that the shared products it
# reads took to form, whoever formed them first; norm_a is _report's.

def solve_qr_baseline(a, b, x_star=None):
    """Reference dense solve: LAPACK thin QR, then back substitution."""
    system = _check_system(a, b, x_star)
    t0 = time.perf_counter() - system.cost("geqrf", "q", "norm_a")
    with _silent_overflow():
        _check_diagonal(system.r, RankDeficient)
        x = triangular_solve(system.r, system.q.T @ system.b)
    return _report("qr", system, x, t0)


def solve_normal(a, b, x_star=None):
    """Unpreconditioned normal equations a^T a x = a^T b via Cholesky.

    Raises NotPositiveDefinite when the Gram matrix loses definiteness to
    rounding, which happens once the condition number nears 1e8.
    """
    system = _check_system(a, b, x_star)
    t0 = time.perf_counter() - system.cost("gram", "atb", "norm_a")
    with _silent_overflow():
        x = cholesky_solve(*_finite_system("ne", system.gram, system.atb))
    return _report("ne", system, x, t0)


def solve_seminormal(a, b, x_star=None):
    """Seminormal equations r^T r x = a^T b using only the R factor of a."""
    system = _check_system(a, b, x_star)
    t0 = time.perf_counter() - system.cost("geqrf", "atb", "norm_a")
    with _silent_overflow():
        r = system.r
        _check_diagonal(r, RankDeficient)
        y = triangular_solve(r, system.atb, transposed=True)
        x = triangular_solve(r, y)
    return _report("sne", system, x, t0)


def solve_notnormal(a, b_matrix, b, x_star=None):
    """Two-sided (not-normal) equations b_matrix^T a x = b_matrix^T b.

    b_matrix must have the same shape as a; taking b_matrix = a recovers
    the normal equations, taking b_matrix = A_p recovers the
    half-preconditioned system.
    """
    system = _check_system(a, b, x_star)
    b_matrix = _as_matrix(b_matrix, "b_matrix").astype(np.float64)
    if b_matrix.shape != system.a.shape:
        raise DimensionMismatch(
            f"b_matrix shape {b_matrix.shape} != a shape {system.a.shape}")
    t0 = time.perf_counter() - system.cost("norm_a")
    with _silent_overflow():
        x = lu_solve(*_finite_system("nne", b_matrix.T @ system.a,
                                     b_matrix.T @ system.b))
    return _report("nne", system, x, t0)


def sketch_rows(d_factor, n):
    """Row count d = ceil(d_factor * n) >= n of the sketch of n columns."""
    size = d_factor * n
    if not math.isfinite(size):
        raise ValueError(f"d_factor must be finite, got {d_factor}")
    d = int(math.ceil(size))
    if d < n:
        raise ValueError(f"d_factor {d_factor} gives d={d} < n={n}")
    return d


def build_preconditioner(a, d_factor=3.0, transform=DCT2, level=BINARY64, seed=0):
    """Sketch a, factor the sketch in the given precision, promote R_s.

    The input is demoted to the working precision before sketching, the
    sketch itself runs in that precision, and the QR of the d x n sketch
    runs with every operation rounded to it.  Only what the solve reads
    is computed: the sketch's d sampled rows and the triangular factor
    (qr_in_precision, which never forms Q).  The returned factor is the
    exact binary64 promotion of the low-precision result.

    Raises
    ------
    Overflow
        If demotion, the sketch or the QR leaves the working range.
    RankDeficient
        If the sketched matrix loses column rank at the working precision.
    """
    a = _matrix_of(a, _tall_matrix)
    m, n = a.shape
    d = sketch_rows(d_factor, n)
    rounded = round_to_precision(a, level)
    op = make_sketch(m, d, transform, seed)
    # the demotion of a finite a is finite, or round_to_precision raised
    a_s = apply_sketch(op, LinearSystem(rounded))
    if not np.isfinite(a_s).all():
        raise Overflow(f"sketch exceeds the {level.name} range")
    return Preconditioner(r_s=qr_in_precision(a_s, level), computed_in=level,
                          sketch_descriptor=op.descriptor())


def precondition_matrix(a, pre):
    """Form A_p = a @ r_s^{-1} by triangular solves.

    pre is left unchanged.  All arithmetic is binary64 regardless of the
    precision the factor was computed in.  A dense.LinearSystem forms it
    once per r_s.
    """
    return _as_system(a).a_p(pre.r_s)


def solve_pne(a, b, pre, x_star=None):
    """Preconditioned normal equations.

    Solves A_p^T A_p y = A_p^T b by Cholesky (falling back to LU when the
    preconditioned Gram matrix is not numerically definite), then recovers
    x from R_s x = y.  A_p is the system's own.
    """
    system = _check_system(a, b, x_star)
    t0 = time.perf_counter() - system.cost("norm_a")
    a_p = precondition_matrix(system, pre)
    with _silent_overflow():
        g, rhs = _finite_system("pne", a_p.T @ a_p, a_p.T @ system.b)
        try:
            y = cholesky_solve(g, rhs)
            lu_fallback = False
        except NotPositiveDefinite:
            y = lu_solve(g, rhs)
            lu_fallback = True
        x = triangular_solve(pre.r_s, y)
    return _report("pne", system, x, t0, preconditioner=pre,
                   lu_fallback=lu_fallback)


def solve_hpne(a, b, pre, x_star=None):
    """Half-preconditioned normal equations.

    Solves the nonsymmetric n x n system A_p^T A x = A_p^T b by LU with
    partial pivoting; no triangular recovery step is needed since the
    unknowns are already x.  A_p is the system's own.
    """
    system = _check_system(a, b, x_star)
    t0 = time.perf_counter() - system.cost("apta", "norm_a")
    a_p = precondition_matrix(system, pre)
    with _silent_overflow():
        x = lu_solve(*_finite_system("hpne", system.apta(pre.r_s),
                                     a_p.T @ system.b))
    return _report("hpne", system, x, t0, preconditioner=pre)


def prepare_preconditioner(a, d_factor=3.0, transform=DCT2,
                           precision="binary64", seed=0):
    """Choose the precision, build the preconditioner and A_p: one step.

    precision is "auto" (decide_precision's binary64 condition estimate
    picks the level: binary16 below 1e4, binary32 up to 1e8, binary64
    beyond or when the estimate overflows) or a precision name ("half",
    "single", "double" or a binary name), which skips the estimate.  A
    RankDeficient sketch factor (the typical binary16 failure mode on
    ill-conditioned input) or an Overflow (demotion, sketch or factor
    leaving the working range, as a binary16 sketch of entries near 4e4
    does) triggers exactly one retry at the next wider precision; a second
    failure propagates.  An array a is checked once, into the system
    whose record keeps A_p (dense.LinearSystem).

    Returns
    -------
    Preconditioner
        Its decision is decide_precision's result for "auto", else None;
        its escalated_from is the precision that failed, or None.
    """
    system = _as_system(a, _tall_matrix)
    decision = decide_precision(system) if precision == "auto" else None
    level = (level_from_name(precision) if decision is None
             else decision.selected)
    escalated_from = None
    while True:
        try:
            pre = build_preconditioner(system, d_factor, transform, level,
                                       seed)
            precondition_matrix(system, pre)
            pre.decision, pre.escalated_from = decision, escalated_from
            return pre
        except (RankDeficient, Overflow):
            wider = next_higher(level)
            if escalated_from is not None or wider is None:
                raise
            escalated_from = level
            level = wider


def algorithm1_pipeline(a, b, method="pne", precision="auto", d_factor=3.0,
                        transform=DCT2, seed=0, x_star=None):
    """End-to-end sketch-preconditioned solve with automatic precision.

    One prepare_preconditioner call chooses the precision (precision is
    "auto" or a precision name, as there), builds the preconditioner and
    A_p, escalating once on failure; the method then solves in binary64,
    and its report reads the decision and escalation from the
    preconditioner.

    Parameters
    ----------
    method : a preconditioned method of METHODS ("pne" or "hpne")
    precision : "auto" or a precision name

    Returns
    -------
    SolveReport
        wall_ms covers the full pipeline: estimate, sketch, factor,
        precondition, solve.
    """
    system = _check_system(a, b, x_star)
    spec = METHODS.get(method)
    if spec is None or not spec.preconditioned:
        raise ValueError(f"pipeline method must be preconditioned, got {method!r}")
    t0 = time.perf_counter()
    report = spec.solve(system, prepare_preconditioner(
        system, d_factor, transform, precision, seed))
    report.wall_ms = (time.perf_counter() - t0) * 1e3
    return report


@dataclass(frozen=True)
class Method:
    """One entry of the method table shared by the pipeline, CLI and sweep.

    solve(system, pre) returns a SolveReport on a dense.LinearSystem, with
    its own b, x_star and A_p; only preconditioned methods read pre.
    bound(inputs, variant), when set, is the method's own error bound,
    filling the sweep's bound_<name>_old/new.
    """

    solve: Callable
    preconditioned: bool = False
    bound: Callable | None = None


# Entries call through this module's names, so a wrapper installed on one
# (a profiler's, say) sees the call.  nne is left out: it needs a matrix B.
METHODS = {
    "qr": Method(lambda s, pre: solve_qr_baseline(s, s.b, s.x_star)),
    "ne": Method(lambda s, pre: solve_normal(s, s.b, s.x_star)),
    "pne": Method(lambda s, pre: solve_pne(s, s.b, pre, x_star=s.x_star),
                  preconditioned=True,
                  bound=lambda inputs, variant: bound_pne(inputs, variant)),
    "hpne": Method(lambda s, pre: solve_hpne(s, s.b, pre, x_star=s.x_star),
                   preconditioned=True,
                   bound=lambda inputs, variant: bound_hpne(inputs, variant)),
    "sne": Method(lambda s, pre: solve_seminormal(s, s.b, s.x_star)),
}
