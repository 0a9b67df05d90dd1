"""Closed-form forward-error bounds and their measured inputs.

Each bound_* function evaluates one first-order perturbation bound on the
relative solution error, given condition numbers, residual ratios, and
unit roundoffs collected in a BoundInputs record.  measure_bound_inputs
fills the record from an actual problem/solution pair, using the LAPACK
singular values of condition_diagnostics for every norm and condition
number (never the bound being tested), so the sweep comparisons are honest.
The solvers compute no diagnostics; measure_problem, which
measure_bound_inputs runs after a solve, returns the SVDs of A, R_s and
A_p that the checked system keeps (dense.LinearSystem, whose docstring
states what it shares and keys by R_s).  A_p's SVD is that of the n x n
matrix R_A R_s^-1, where R_A is the R of the system's one QR of A:
A_p = A R_s^-1 = Q (R_A R_s^-1), so the two have the same singular values
in exact arithmetic, and the m x n A_p is never factored (the identity of
randomized Cholesky QR: Balabanov 2022; Higgins, Szyld, Boman & Yamazaki
2023).

Conventions: u1 is the roundoff of the preconditioner precision, u2 of the
working precision; residual ratios are norm(residual) / (norm(matrix) *
norm(solution)) in the two-norm.  eps_a and eps_b name the
backward-perturbation sizes on A and B; when measuring (rather than
proving) eps_a is set to the working roundoff u2.
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg

from .dense import LinearSystem, _check_system, condition_diagnostics
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


def _system_of(problem):
    # a checked dense.LinearSystem as it is, a LeastSquaresProblem checked
    return problem if isinstance(problem, LinearSystem) else _check_system(
        problem.a, problem.b)


def measure_problem(problem, pre=None):
    """The system's condition diagnostics (diag_a, diag_rs, diag_ap).

    problem is a LeastSquaresProblem, or a checked dense.LinearSystem,
    which keeps them: diag_a, and diag_rs and diag_ap for pre's R_s
    (dense.LinearSystem.diag_rs and diag_ap).  Without a preconditioner,
    (diag_a, None, None).
    """
    system = _system_of(problem)
    if pre is None:
        return system.diagnostics(), None, None
    return (system.diagnostics(), system.diag_rs(pre.r_s),
            system.diag_ap(pre.r_s))


def measure_bound_inputs(problem, report):
    """Fill a BoundInputs record from a solved instance.

    The one diagnosis call of sketchlsq solve and of each sweep row.

    Parameters
    ----------
    problem : LeastSquaresProblem or dense.LinearSystem
        A LeastSquaresProblem is checked into a system once.  A system's
        shared products (A_p, A_p^T A for hpne, the SVDs) are read, not
        formed again.
    report : SolveReport
        Supplies x_hat, the solution whose error the bounds cap, its
        residual norm and its preconditioner; with a preconditioner, the
        preconditioned quantities (kappa_rs, kappa_ap, nu_pne,
        res_ratio_ap) are measured too, and for an hpne report, whose
        bound alone reads them, kappa_apta and nu_hpne.

    u2 is the binary64 roundoff 2^-52 and u1 the bound-convention
    roundoff of the preconditioner precision (u2 when there is no
    preconditioner).  The backward-perturbation size eps_a is set to u2;
    eps_b stays None for the caller to fill.
    """
    system = _system_of(problem)
    pre = report.preconditioner
    u2 = BINARY64.bound_roundoff
    u1 = pre.computed_in.bound_roundoff if pre is not None else u2
    diag_a, diag_rs, diag_ap = measure_problem(system, pre)
    x_hat = np.asarray(report.x_hat, dtype=np.float64)
    # BLAS nrm2 scales as it sums, so these norms stay finite for A, b
    # near the binary64 range
    norm_x = float(linalg.norm(x_hat))
    res_ratio_a = report.residual_norm / (diag_a.two_norm * norm_x)
    inputs = BoundInputs(
        kappa_a=diag_a.two_norm_condition,
        u1=u1,
        u2=u2,
        eps_a=u2,
        res_ratio_a=res_ratio_a,
    )
    if pre is None:
        return inputs
    a_p = system.a_p(pre.r_s)
    y = pre.r_s @ x_hat
    norm_y = float(linalg.norm(y))
    r_p = a_p @ y - system.b
    inputs = replace(
        inputs,
        kappa_rs=diag_rs.two_norm_condition,
        kappa_ap=diag_ap.two_norm_condition,
        nu_pne=norm_y / (diag_rs.two_norm * norm_x),
        res_ratio_ap=float(linalg.norm(r_p)) / (diag_ap.two_norm * norm_y),
    )
    if report.method != "hpne":
        return inputs
    diag_apta = condition_diagnostics(system.apta(pre.r_s))
    return replace(
        inputs,
        kappa_apta=diag_apta.two_norm_condition,
        nu_hpne=diag_ap.two_norm * diag_a.two_norm / diag_apta.two_norm,
    )
