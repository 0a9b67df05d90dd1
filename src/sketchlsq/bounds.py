"""Closed-form forward-error bounds and their measured inputs.

Each bound_* function evaluates one first-order perturbation bound on the
relative solution error, given condition numbers, residual ratios, and
unit roundoffs collected in a BoundInputs record.  measure_bound_inputs
fills the record from an actual problem/solution pair, using the LAPACK
singular values of condition_diagnostics for every norm and condition
number (never the bound being tested), so the sweep comparisons are honest.
The solvers compute no diagnostics; measure_problem, run after a solve,
is the one place that measures kappa(A), kappa(R_s) and kappa(A_p).

Conventions: u1 is the roundoff of the preconditioner precision, u2 of the
working precision; residual ratios are norm(residual) / (norm(matrix) *
norm(solution)) in the two-norm.  eps_a and eps_b name the
backward-perturbation sizes on A and B; when measuring (rather than
proving) eps_a is set to the working roundoff u2.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg

from .dense import condition_diagnostics
from .errors import MissingField, PoleAtOne
from .precision import BINARY64


@dataclass(frozen=True)
class BoundInputs:
    """Measured quantities a bound evaluation may need; None = not measured."""

    kappa_a: float | None = None
    kappa_rs: float | None = None
    kappa_ap: float | None = None
    kappa_apta: float | None = None
    nu_pne: float | None = None
    nu_hpne: float | None = None
    u1: float | None = None
    u2: float | None = None
    eps_a: float | None = None
    eps_b: float | None = None
    res_ratio_a: float | None = None
    res_ratio_ap: float | None = None

    def updated(self, **kwargs):
        """Copy with some fields replaced (records are frozen)."""
        return replace(self, **kwargs)


def _need(inputs, *names):
    for name in names:
        if getattr(inputs, name) is None:
            raise MissingField(f"bound needs {name!r} but it was not measured")


def eta1(kappa_rs, u1):
    """The amplification factor |k u / (1 - k u)| for triangular recovery.

    Raises
    ------
    PoleAtOne
        If kappa_rs * u1 equals 1 to within 1e-15 relative tolerance.
    """
    x = kappa_rs * u1
    if abs(x - 1.0) <= 1e-15:
        raise PoleAtOne(f"kappa_rs * u1 = {x} is at the pole")
    return abs(x / (1.0 - x))


def bound_ls(inputs):
    """First-order error bound for a backward-stable least-squares solve.

    kappa_a * eps_a * (1 + kappa_a * res_ratio_a).
    """
    _need(inputs, "kappa_a", "eps_a", "res_ratio_a")
    k = inputs.kappa_a
    return k * inputs.eps_a * (1.0 + k * inputs.res_ratio_a)


def bound_ne_family(inputs):
    """Error bound for the normal or seminormal equations.

    kappa_a^2 * eps_a * (res_ratio_a + 1 + eps_a); both variants have
    this first-order form.
    """
    _need(inputs, "kappa_a", "eps_a", "res_ratio_a")
    k = inputs.kappa_a
    return k * k * inputs.eps_a * (inputs.res_ratio_a + 1.0 + inputs.eps_a)


def bound_pne(inputs, variant="new"):
    """Error bound for the preconditioned normal equations.

    variant="old" (residual measured on the preconditioned system):
        kappa_rs * kappa_ap * nu_pne
            * (u2 + kappa_ap * eta1(kappa_rs, u1) * (res_ratio_ap + u2))
    variant="new" (residual measured on the original system):
        kappa_rs * kappa_ap * u2
            * (kappa_ap * kappa_rs * res_ratio_a + 1 + kappa_a * u2)
    """
    if variant == "old":
        _need(inputs, "kappa_rs", "kappa_ap", "nu_pne", "u1", "u2",
              "res_ratio_ap")
        e1 = eta1(inputs.kappa_rs, inputs.u1)
        inner = inputs.u2 + inputs.kappa_ap * e1 * (inputs.res_ratio_ap
                                                    + inputs.u2)
        return inputs.kappa_rs * inputs.kappa_ap * inputs.nu_pne * inner
    if variant == "new":
        _need(inputs, "kappa_rs", "kappa_ap", "kappa_a", "u2", "res_ratio_a")
        inner = (inputs.kappa_ap * inputs.kappa_rs * inputs.res_ratio_a
                 + 1.0 + inputs.kappa_a * inputs.u2)
        return inputs.kappa_rs * inputs.kappa_ap * inputs.u2 * inner
    raise ValueError(f"variant must be old or new, got {variant!r}")


def bound_hpne(inputs, variant="new"):
    """Error bound for the half-preconditioned normal equations.

    variant="old":
        kappa_apta * nu_hpne
            * (eta1(kappa_rs, u1) * res_ratio_a + (1 + eta1) * u2)
    variant="new":
        kappa_apta * nu_hpne * u2
            * (kappa_rs * res_ratio_a + 1 + kappa_a * u2)
    """
    if variant == "old":
        _need(inputs, "kappa_apta", "nu_hpne", "kappa_rs", "u1", "u2",
              "res_ratio_a")
        e1 = eta1(inputs.kappa_rs, inputs.u1)
        inner = e1 * inputs.res_ratio_a + (1.0 + e1) * inputs.u2
        return inputs.kappa_apta * inputs.nu_hpne * inner
    if variant == "new":
        _need(inputs, "kappa_apta", "nu_hpne", "kappa_rs", "kappa_a", "u2",
              "res_ratio_a")
        inner = (inputs.kappa_rs * inputs.res_ratio_a
                 + 1.0 + inputs.kappa_a * inputs.u2)
        return inputs.kappa_apta * inputs.nu_hpne * inputs.u2 * inner
    raise ValueError(f"variant must be old or new, got {variant!r}")


def bound_notnormal(inputs, kappa_bta, nu_b):
    """Error bound for the two-sided system B^T A x = B^T b.

    kappa_bta * nu_b * (eps_b * res_ratio_a + (1 + eps_b) * eps_a), where
    nu_b = norm(B) * norm(A) / norm(B^T A) and kappa_bta conditions the
    product matrix.
    """
    _need(inputs, "eps_a", "eps_b", "res_ratio_a")
    inner = (inputs.eps_b * inputs.res_ratio_a
             + (1.0 + inputs.eps_b) * inputs.eps_a)
    return kappa_bta * nu_b * inner


@dataclass(frozen=True)
class ProblemDiagnostics:
    """Norms and condition numbers that depend only on (a, r_s), not on x_hat.

    Computed once per problem and shared across per-method bound
    measurements in the sweep harness.
    """

    norm_a: float
    kappa_a: float
    norm_rs: float | None = None
    kappa_rs: float | None = None
    norm_ap: float | None = None
    kappa_ap: float | None = None
    norm_apta: float | None = None
    kappa_apta: float | None = None
    a_p: np.ndarray | None = None


def measure_problem(problem, pre=None, a_p=None):
    """Measure the solution-independent diagnostics for bound evaluation."""
    diag_a = condition_diagnostics(problem.a)
    if pre is None:
        return ProblemDiagnostics(norm_a=diag_a.two_norm,
                                  kappa_a=diag_a.two_norm_condition)
    if a_p is None:
        # imported here: solvers imports the bound formulas for its table
        from .solvers import precondition_matrix

        a_p = precondition_matrix(problem.a, pre)
    diag_rs = condition_diagnostics(pre.r_s)
    diag_ap = condition_diagnostics(a_p)
    diag_apta = condition_diagnostics(a_p.T @ problem.a)
    return ProblemDiagnostics(
        norm_a=diag_a.two_norm,
        kappa_a=diag_a.two_norm_condition,
        norm_rs=diag_rs.two_norm,
        kappa_rs=diag_rs.two_norm_condition,
        norm_ap=diag_ap.two_norm,
        kappa_ap=diag_ap.two_norm_condition,
        norm_apta=diag_apta.two_norm,
        kappa_apta=diag_apta.two_norm_condition,
        a_p=a_p,
    )


def measure_bound_inputs(problem, report, pre=None, diagnostics=None):
    """Fill a BoundInputs record from a solved instance.

    Parameters
    ----------
    problem : LeastSquaresProblem
    report : SolveReport
        Supplies x_hat, the solution whose error the bounds cap.
    pre : Preconditioner or None
        When given, the preconditioned quantities (kappa_rs, kappa_ap,
        kappa_apta, nu_pne, nu_hpne, res_ratio_ap) are measured too.
    diagnostics : ProblemDiagnostics or None
        measure_problem's record for (problem, pre), to avoid re-measuring.

    u2 is the binary64 roundoff 2^-52 and u1 the bound-convention
    roundoff of the preconditioner precision (u2 when there is no
    preconditioner).  The backward-perturbation size eps_a is set to u2;
    eps_b stays None for the caller to fill.
    """
    u2 = BINARY64.bound_roundoff
    u1 = pre.computed_in.bound_roundoff if pre is not None else u2
    if diagnostics is None:
        diagnostics = measure_problem(problem, pre)
    x_hat = np.asarray(report.x_hat, dtype=np.float64)
    # BLAS nrm2 scales as it sums, so these norms stay finite for A, b
    # near the binary64 range
    norm_x = float(linalg.norm(x_hat))
    r = problem.a @ x_hat - problem.b
    res_ratio_a = float(linalg.norm(r)) / (diagnostics.norm_a * norm_x)
    inputs = BoundInputs(
        kappa_a=diagnostics.kappa_a,
        u1=u1,
        u2=u2,
        eps_a=u2,
        res_ratio_a=res_ratio_a,
    )
    if pre is None:
        return inputs
    y = pre.r_s @ x_hat
    norm_y = float(linalg.norm(y))
    r_p = diagnostics.a_p @ y - problem.b
    return inputs.updated(
        kappa_rs=diagnostics.kappa_rs,
        kappa_ap=diagnostics.kappa_ap,
        kappa_apta=diagnostics.kappa_apta,
        nu_pne=norm_y / (diagnostics.norm_rs * norm_x),
        nu_hpne=(diagnostics.norm_ap * diagnostics.norm_a
                 / diagnostics.norm_apta),
        res_ratio_ap=float(linalg.norm(r_p)) / (diagnostics.norm_ap * norm_y),
    )
