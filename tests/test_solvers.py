"""Tests for the sketch-preconditioned solvers and the full pipeline."""

import numpy as np
import pytest

from sketchlsq import (
    BINARY16,
    BINARY32,
    BINARY64,
    DimensionMismatch,
    NotPositiveDefinite,
    Preconditioner,
    algorithm1_pipeline,
    build_preconditioner,
    generate_problem,
    householder_qr,
    precondition_matrix,
    solve_hpne,
    solve_normal,
    solve_notnormal,
    solve_pne,
    solve_qr_baseline,
    solve_seminormal,
)


def test_qr_baseline_recovers_planted_solution():
    for seed in range(6):
        p = generate_problem(200, 16, 1e2, 1e-8, seed=seed)
        report = solve_qr_baseline(p.a, p.b, x_star=p.x_star)
        assert report.relative_error <= 1e-12
        assert report.residual_norm == pytest.approx(1e-8, abs=1e-12)
        assert report.method == "qr"
        assert report.wall_ms > 0.0


def test_all_methods_agree_on_well_conditioned_input():
    p = generate_problem(300, 20, 10.0, 1e-4, seed=5)
    x_qr = solve_qr_baseline(p.a, p.b).x_hat
    pre = build_preconditioner(p.a, seed=5)
    a_p = precondition_matrix(p.a, pre)
    for x in (
        solve_normal(p.a, p.b).x_hat,
        solve_seminormal(p.a, p.b).x_hat,
        solve_notnormal(p.a, p.a, p.b).x_hat,
        solve_pne(p.a, p.b, pre, a_p=a_p).x_hat,
        solve_hpne(p.a, p.b, pre, a_p=a_p).x_hat,
    ):
        assert np.linalg.norm(x - x_qr) <= 1e-10 * np.linalg.norm(x_qr)


def test_normal_equations_break_when_gram_loses_definiteness():
    # kappa(A^T A) = 1e18 cannot stay positive definite in binary64
    p = generate_problem(400, 30, 1e9, 1e-6, seed=1)
    with pytest.raises(NotPositiveDefinite):
        solve_normal(p.a, p.b)


def test_identity_preconditioner_reduces_pne_to_ne():
    """With R_s = I the preconditioned matrix is A itself and the PNE
    solve runs the exact same arithmetic as the normal equations."""
    p = generate_problem(250, 18, 1e2, 1e-6, seed=7)
    pre = Preconditioner(r_s=np.eye(p.n), computed_in=BINARY64, kappa_rs=1.0)
    a_p = precondition_matrix(p.a, pre)
    assert np.array_equal(a_p, p.a)
    x_pne = solve_pne(p.a, p.b, pre, a_p=a_p).x_hat
    x_ne = solve_normal(p.a, p.b).x_hat
    assert np.array_equal(x_pne, x_ne)


def test_notnormal_reduces_to_hpne_and_ne():
    for seed in range(5):
        p = generate_problem(300, 20, 1e2, 1e-4, seed=seed)
        pre = build_preconditioner(p.a, seed=seed)
        a_p = precondition_matrix(p.a, pre)
        x_h = solve_hpne(p.a, p.b, pre, a_p=a_p).x_hat
        x_bh = solve_notnormal(p.a, a_p, p.b).x_hat
        assert np.linalg.norm(x_bh - x_h) <= 1e-13 * np.linalg.norm(x_h)
        x_n = solve_normal(p.a, p.b).x_hat
        x_bn = solve_notnormal(p.a, p.a, p.b).x_hat
        assert np.linalg.norm(x_bn - x_n) <= 1e-12 * np.linalg.norm(x_n)


def test_notnormal_shape_gate():
    p = generate_problem(100, 8, 10.0, 0.0, seed=0)
    with pytest.raises(DimensionMismatch):
        solve_notnormal(p.a, p.a[:, :4], p.b)


def test_exact_qr_preconditioner_is_idempotent():
    # feeding the true R of A as R_s leaves an orthonormal A_p behind
    for seed in range(4):
        p = generate_problem(300, 24, 1e6, 0.0, seed=seed)
        r = householder_qr(p.a).r
        pre = Preconditioner(r_s=r, computed_in=BINARY64, kappa_rs=1e6)
        precondition_matrix(p.a, pre)
        assert pre.kappa_ap <= 1.0 + 1e-6


def test_preconditioner_quality_at_default_sample_factor():
    for seed in range(6):
        p = generate_problem(1024, 32, 1e6, 0.0, seed=seed)
        pre = build_preconditioner(p.a, seed=seed)
        assert pre.r_s.shape == (32, 32)
        precondition_matrix(p.a, pre)
        assert pre.kappa_ap <= 10.0
        assert pre.kappa_rs == pytest.approx(1e6, rel=0.7)
        assert pre.computed_in is BINARY64
        assert pre.sketch_descriptor is not None


def test_solve_scale_equivariance():
    """Scaling A and b by a power of two leaves every computed solution
    bitwise unchanged: each kernel commutes with exact exponent shifts."""
    p = generate_problem(200, 16, 1e3, 1e-6, seed=9)
    for k in (3, -5):
        s = 2.0 ** k
        sa, sb = p.a * s, p.b * s
        assert np.array_equal(solve_qr_baseline(sa, sb).x_hat,
                              solve_qr_baseline(p.a, p.b).x_hat)
        assert np.array_equal(solve_normal(sa, sb).x_hat,
                              solve_normal(p.a, p.b).x_hat)
        got = algorithm1_pipeline(sa, sb, method="pne", precision="double", seed=9)
        ref = algorithm1_pipeline(p.a, p.b, method="pne", precision="double", seed=9)
        assert np.array_equal(got.x_hat, ref.x_hat)


def test_pipeline_fixed_precision_paths():
    p = generate_problem(600, 40, 1e2, 1e-8, seed=3)
    for name, level in (("half", BINARY16), ("single", BINARY32), ("double", BINARY64)):
        report = algorithm1_pipeline(p.a, p.b, method="pne", precision=name,
                                     seed=3, x_star=p.x_star)
        assert report.preconditioner.computed_in is level
        assert report.escalated_from is None
        assert report.relative_error <= 1e-6
        # bound evaluation is the caller's job: it needs problem metadata
        assert report.bounds == {}


def test_pipeline_auto_selects_by_conditioning():
    cases = ((1e2, BINARY16), (1e6, BINARY32), (1e10, BINARY64))
    for kappa, level in cases:
        p = generate_problem(600, 40, kappa, 1e-8, seed=4)
        report = algorithm1_pipeline(p.a, p.b, method="hpne", precision="auto",
                                     seed=4, x_star=p.x_star)
        assert report.precision_decision is not None
        assert report.precision_decision.selected is level
        assert report.preconditioner.computed_in is level


def test_pipeline_escalates_when_half_collapses():
    """binary16 loses the trailing columns of a kappa = 1e6 sketch to
    underflow; the pipeline retries one level up instead of failing."""
    p = generate_problem(600, 40, 1e6, 1e-8, seed=6)
    report = algorithm1_pipeline(p.a, p.b, method="pne", precision="half",
                                 seed=6, x_star=p.x_star)
    assert report.escalated_from is BINARY16
    assert report.preconditioner.computed_in is BINARY32
    assert report.relative_error <= 1e-6


def test_pipeline_rejects_unknown_method():
    p = generate_problem(100, 8, 10.0, 0.0, seed=0)
    with pytest.raises(ValueError):
        algorithm1_pipeline(p.a, p.b, method="cgls")
    with pytest.raises(ValueError):
        algorithm1_pipeline(p.a, p.b, precision="quad")


def test_report_norms_are_consistent():
    p = generate_problem(300, 20, 1e3, 1e-2, seed=8)
    report = solve_qr_baseline(p.a, p.b, x_star=p.x_star)
    r = p.b - p.a @ report.x_hat
    assert report.residual_norm == pytest.approx(np.linalg.norm(r), rel=1e-12)
    denom = np.linalg.norm(p.a, "fro") * np.linalg.norm(report.x_hat)
    assert report.relative_residual == pytest.approx(
        np.linalg.norm(r) / denom, rel=1e-12)
    assert report.norm_is_frobenius


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_b_is_rejected(bad):
    p = generate_problem(100, 8, 10.0, 1e-6, seed=1)
    b = p.b.copy()
    b[3] = bad
    pre = build_preconditioner(p.a, seed=1)
    solves = (
        lambda: solve_qr_baseline(p.a, b),
        lambda: solve_normal(p.a, b),
        lambda: solve_seminormal(p.a, b),
        lambda: solve_pne(p.a, b, pre),
        lambda: solve_hpne(p.a, b, pre),
        lambda: solve_notnormal(p.a, p.a, b),
        lambda: algorithm1_pipeline(p.a, b),
    )
    for solve in solves:
        with pytest.raises(ValueError, match="non-finite"):
            solve()
