"""Tests for the sketch-preconditioned solvers and the full pipeline."""

import numpy as np
import pytest

from sketchlsq import (
    BINARY16,
    BINARY32,
    BINARY64,
    DimensionMismatch,
    NotPositiveDefinite,
    Overflow,
    Preconditioner,
    algorithm1_pipeline,
    build_preconditioner,
    condition_diagnostics,
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
from sketchlsq import dense, solvers


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
    pre = Preconditioner(r_s=np.eye(p.n), computed_in=BINARY64)
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
        pre = Preconditioner(r_s=r, computed_in=BINARY64)
        a_p = precondition_matrix(p.a, pre)
        assert condition_diagnostics(a_p).two_norm_condition <= 1.0 + 1e-6


def test_preconditioner_quality_at_default_sample_factor():
    for seed in range(6):
        p = generate_problem(1024, 32, 1e6, 0.0, seed=seed)
        pre = build_preconditioner(p.a, seed=seed)
        assert pre.r_s.shape == (32, 32)
        a_p = precondition_matrix(p.a, pre)
        assert condition_diagnostics(a_p).two_norm_condition <= 10.0
        assert condition_diagnostics(pre.r_s).two_norm_condition == (
            pytest.approx(1e6, rel=0.7))
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


@pytest.mark.parametrize("x_star, error", [
    ("zero", ValueError), (np.nan, ValueError), (np.inf, ValueError),
    ("short", DimensionMismatch)])
def test_bad_x_star_is_rejected(x_star, error):
    p = generate_problem(100, 8, 10.0, 1e-6, seed=1)
    if x_star == "zero":
        bad = np.zeros(p.n)
    elif x_star == "short":
        bad = p.x_star[:1]
    else:
        bad = p.x_star.copy()
        bad[2] = x_star
    pre = build_preconditioner(p.a, seed=1)
    solves = (
        lambda: solve_qr_baseline(p.a, p.b, bad),
        lambda: solve_normal(p.a, p.b, bad),
        lambda: solve_seminormal(p.a, p.b, bad),
        lambda: solve_pne(p.a, p.b, pre, x_star=bad),
        lambda: solve_hpne(p.a, p.b, pre, x_star=bad),
        lambda: solve_notnormal(p.a, p.a, p.b, bad),
        lambda: algorithm1_pipeline(p.a, p.b, x_star=bad),
    )
    for solve in solves:
        with pytest.raises(error, match="x_star"):
            solve()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_solution_raises_overflow():
    # A^T b overflows binary64 at this scale, so sne's x_hat is all NaN
    p = generate_problem(100, 8, 10.0, 1e-6, seed=2)
    with pytest.raises(Overflow, match="non-finite"):
        solve_seminormal(p.a * 1e200, p.b * 1e200)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_normal_equations_raise_overflow():
    # A^T A and A^T b leave binary64 at this scale
    p = generate_problem(200, 10, 10.0, 1e-6, seed=2)
    a, b = p.a * 1e200, p.b * 1e200
    with pytest.raises(Overflow, match="^ne system has non-finite entries"):
        solve_normal(a, b)
    with pytest.raises(Overflow, match="^nne system has non-finite entries"):
        solve_notnormal(a, a, b)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_relative_residual_is_finite_near_the_range():
    # the norms of A, r and x_hat must not overflow although A and b do
    # not leave the binary64 range
    p = generate_problem(300, 12, 1e3, 1e-6, seed=4)
    a, b = p.a * 1e200, p.b * 1e200
    pairs = [(solve_qr_baseline(p.a, p.b), solve_qr_baseline(a, b))]
    pairs += [(algorithm1_pipeline(p.a, p.b, method=method,
                                   precision="double", seed=4),
               algorithm1_pipeline(a, b, method=method,
                                   precision="double", seed=4))
              for method in ("pne", "hpne")]
    for base, scaled in pairs:
        assert np.isfinite(scaled.relative_residual)
        assert scaled.relative_residual == pytest.approx(
            base.relative_residual, abs=1e-12)


def test_binary16_range_failure_escalates():
    # entries near 4e4 fit binary16, but its sketch leaves the range
    p = generate_problem(2000, 50, 1e2, 1e-6, seed=1)
    a, b = p.a * 1e6, p.b * 1e6
    assert np.abs(a).max() < 65504
    for transform in ("dct2", "wht"):
        for precision in ("auto", "half"):
            report = algorithm1_pipeline(
                a, b, method="pne", precision=precision,
                transform=transform, seed=1, x_star=p.x_star)
            assert report.escalated_from is BINARY16
            assert report.preconditioner.computed_in is BINARY32
            assert report.relative_error <= 1e-12


def test_pne_records_cholesky_to_lu_fallback(monkeypatch):
    p = generate_problem(300, 20, 1e3, 1e-6, seed=3)
    pre = build_preconditioner(p.a, seed=3)
    assert not solve_pne(p.a, p.b, pre).lu_fallback

    def indefinite(*args):
        raise NotPositiveDefinite("forced")

    monkeypatch.setattr(solvers, "cholesky_solve", indefinite)
    report = solve_pne(p.a, p.b, pre, x_star=p.x_star)
    assert report.lu_fallback
    assert report.relative_error <= 1e-10
    assert not solve_hpne(p.a, p.b, pre).lu_fallback


@pytest.mark.parametrize("d_factor", [np.inf, np.nan, 1e308])
def test_non_finite_d_factor_is_rejected(d_factor):
    p = generate_problem(100, 8, 10.0, 1e-6, seed=4)
    with pytest.raises(ValueError, match="d_factor must be finite"):
        build_preconditioner(p.a, d_factor=d_factor)


def test_pipeline_takes_no_singular_values(monkeypatch):
    """The solve path computes no condition diagnostics: with the LAPACK
    SVD behind condition_diagnostics disabled, both preconditioned methods
    still solve at every automatically chosen precision."""
    def no_svd(*args, **kwargs):
        raise AssertionError("svdvals called during a solve")

    monkeypatch.setattr(dense, "svdvals", no_svd)
    for kappa, level in ((1e2, BINARY16), (1e6, BINARY32), (1e10, BINARY64)):
        p = generate_problem(600, 40, kappa, 1e-8, seed=5)
        for method in ("pne", "hpne"):
            report = algorithm1_pipeline(p.a, p.b, method=method,
                                         precision="auto", seed=5,
                                         x_star=p.x_star)
            assert report.preconditioner.computed_in is level
            assert np.isfinite(report.x_hat).all()
    with pytest.raises(AssertionError, match="svdvals"):
        condition_diagnostics(p.a)


def test_binary16_build_solves_without_escalation():
    """pne and hpne solve at forced and automatically chosen binary16, on
    both transforms, from the emulated binary16 R alone."""
    p = generate_problem(600, 40, 1e2, 1e-8, seed=6)
    for transform in ("dct2", "wht"):
        for method in ("pne", "hpne"):
            for precision in ("auto", "half"):
                report = algorithm1_pipeline(
                    p.a, p.b, method=method, precision=precision,
                    transform=transform, seed=6, x_star=p.x_star)
                assert report.preconditioner.computed_in is BINARY16
                assert report.escalated_from is None
                assert report.relative_error <= 1e-10


def test_zero_rhs_has_zero_relative_residual():
    p = generate_problem(300, 20, 1e3, 1e-6, seed=9)
    zero = np.zeros(p.m)
    reports = [solve_qr_baseline(p.a, zero)]
    reports += [algorithm1_pipeline(p.a, zero, method=method, seed=9)
                for method in ("pne", "hpne")]
    for report in reports:
        assert not report.x_hat.any()
        assert report.residual_norm == 0.0
        assert report.relative_residual == 0.0


def test_sketch_out_of_range_is_a_typed_overflow():
    # entries fit binary16, but the float16 WHT butterflies overflow
    p = generate_problem(600, 20, 10.0, 1e-6, seed=3)
    a = p.a * (40000.0 / np.abs(p.a).max())
    with pytest.raises(Overflow, match="sketch exceeds the binary16 range"):
        build_preconditioner(a, transform="wht", level=BINARY16, seed=3)
