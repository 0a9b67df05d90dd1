"""Differential tests: every solver against LAPACK's numpy.linalg.lstsq.

On seeded planted problems each method's solution must lie within the
error envelope its analysis predicts around the LAPACK solution:
10 x bound_ls for the backward-stable and preconditioned methods (qr,
pne, hpne, and the not-normal equations with B = A_p), bound_ne for the
normal and seminormal equations.  The bounds are written out here rather
than taken from sketchlsq.bounds so the check does not lean on the code
under test.
"""

import itertools

import numpy as np
import pytest

import sketchlsq as sq
from sketchlsq.rng import mix64
from sketchlsq.solvers import prepare_preconditioner

U = 2.0 ** -52


def _envelopes(a, b, x_ref):
    kappa = np.linalg.cond(a)
    res_ratio = (np.linalg.norm(a @ x_ref - b)
                 / (np.linalg.norm(a, 2) * np.linalg.norm(x_ref)))
    bound_ls = kappa * U * (1.0 + kappa * res_ratio)
    bound_ne = kappa * kappa * U * (res_ratio + 1.0 + U)
    return {"qr": 10.0 * bound_ls, "pne": 10.0 * bound_ls,
            "hpne": 10.0 * bound_ls, "nne": 10.0 * bound_ls,
            "ne": bound_ne, "sne": bound_ne}


@pytest.mark.parametrize("kappa, rho", itertools.product(
    (1e2, 1e6), (1e-10, 1e-6, 1e-2)))
def test_methods_agree_with_lapack_lstsq(kappa, rho):
    # auto precision: binary16 preconditioners at kappa 1e2, binary32 at 1e6
    for trial in range(2):
        seed = mix64(471, int(np.log10(kappa)), int(-np.log10(rho)), trial)
        p = sq.generate_problem(1000, 30, kappa, rho, seed)
        x_ref = np.linalg.lstsq(p.a, p.b, rcond=None)[0]
        level = sq.decide_precision(p.a).selected
        pre = prepare_preconditioner(p.a, precision=level.name, seed=seed)
        a_p = sq.precondition_matrix(p.a, pre)
        got = {
            "qr": sq.solve_qr_baseline(p.a, p.b),
            "ne": sq.solve_normal(p.a, p.b),
            "sne": sq.solve_seminormal(p.a, p.b),
            "pne": sq.solve_pne(p.a, p.b, pre),
            "hpne": sq.solve_hpne(p.a, p.b, pre),
            "nne": sq.solve_notnormal(p.a, a_p, p.b),
        }
        envelopes = _envelopes(p.a, p.b, x_ref)
        for method, report in got.items():
            diff = (np.linalg.norm(report.x_hat - x_ref)
                    / np.linalg.norm(x_ref))
            assert diff <= envelopes[method], (
                f"{method} at kappa={kappa:g}, rho={rho:g}: {diff:.3e} "
                f"> {envelopes[method]:.3e}")
