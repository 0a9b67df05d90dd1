"""Tests for the dense factorization and estimation kernels."""

import numpy as np
import pytest
from scipy.linalg import LinAlgError

from sketchlsq import (
    DimensionMismatch,
    NoConvergence,
    NotPositiveDefinite,
    NumericallySingular,
    RankDeficient,
    SingularTriangular,
    condition_diagnostics,
    estimate_log10_condition,
    householder_qr,
    lu_solve,
    triangular_solve,
    triangular_with_condition,
)
from sketchlsq.dense import (
    cholesky_factor,
    cholesky_solve,
    jacobi_singular_values,
    qr_r_factor,
)
from sketchlsq.rng import stream


def test_qr_reconstruction_and_orthogonality():
    for seed in range(8):
        gen = stream(seed, 3)
        m, n = 80 + 5 * seed, 12 + seed
        a = gen.standard_normal((m, n))
        fac = householder_qr(a)
        bound = 100.0 * n * 2.0 ** -52
        assert np.linalg.norm(fac.q @ fac.r - a) <= bound * np.linalg.norm(a)
        assert np.linalg.norm(fac.q.T @ fac.q - np.eye(n)) <= bound
        # strict lower triangle is exact zeros, not merely small
        assert np.all(fac.r[np.tril_indices(n, -1)] == 0.0)


def test_qr_sign_convention():
    # leading reflector maps the first column onto -sign(a00) * norm * e1
    a = np.array([[3.0, 1.0], [4.0, 2.0]])
    fac = householder_qr(a)
    assert fac.r[0, 0] == pytest.approx(-5.0, rel=1e-15)
    a[0, 0] = -3.0
    assert householder_qr(a).r[0, 0] == pytest.approx(5.0, rel=1e-15)


def test_qr_rejects_wide_and_rank_deficient():
    with pytest.raises(DimensionMismatch):
        householder_qr(np.ones((2, 3)))
    with pytest.raises(RankDeficient):
        householder_qr(np.zeros((4, 2)))
    # exactly zero second column survives the first reflector unchanged
    with pytest.raises(RankDeficient):
        householder_qr(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))


def test_triangular_solve_oracle():
    r = np.array([[2.0, 1.0], [0.0, 4.0]])
    x = triangular_solve(r, np.array([5.0, 8.0]))
    assert np.array_equal(x, np.array([1.5, 2.0]))
    # transposed solve runs forward: R^T y = [2, 9] -> y = [1, 2]
    y = triangular_solve(r, np.array([2.0, 9.0]), transposed=True)
    assert np.array_equal(y, np.array([1.0, 2.0]))


def test_triangular_solve_matrix_rhs():
    for seed in range(5):
        gen = stream(seed, 3)
        r = np.triu(gen.standard_normal((9, 9))) + 4.0 * np.eye(9)
        rhs = gen.standard_normal((9, 3))
        x = triangular_solve(r, rhs)
        assert np.linalg.norm(r @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
        xt = triangular_solve(r, rhs, transposed=True)
        assert np.linalg.norm(r.T @ xt - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_triangular_solve_singular_diagonal():
    r = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(SingularTriangular):
        triangular_solve(r, np.array([1.0, 1.0]))


def test_lu_solve_recovers_planted_solution():
    for seed in range(8):
        gen = stream(seed, 3)
        n = 6 + seed
        a = gen.standard_normal((n, n)) + n * np.eye(n)
        x = gen.standard_normal(n)
        got = lu_solve(a, a @ x)
        assert np.linalg.norm(got - x) <= 1e-10 * np.linalg.norm(x)


def test_lu_solve_permutation_is_exact():
    p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    rhs = np.array([7.0, -2.0, 5.0])
    assert np.array_equal(lu_solve(p, rhs), p.T @ rhs)


def test_lu_solve_singular_raises():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(NumericallySingular):
        lu_solve(a, np.array([1.0, 1.0]))


def test_cholesky_solve_matches_lu():
    for seed in range(6):
        gen = stream(seed, 3)
        b = gen.standard_normal((30, 8))
        g = b.T @ b + np.eye(8)
        rhs = gen.standard_normal(8)
        xc = cholesky_solve(g, rhs)
        xl = lu_solve(g, rhs)
        assert np.linalg.norm(xc - xl) <= 1e-12 * np.linalg.norm(xl)


def test_cholesky_factor_reconstructs():
    gen = stream(11, 3)
    b = gen.standard_normal((40, 10))
    g = b.T @ b
    ell = cholesky_factor(g)
    assert np.all(ell[np.triu_indices(10, 1)] == 0.0)
    assert np.linalg.norm(ell @ ell.T - g) <= 1e-13 * np.linalg.norm(g)


def test_cholesky_rejects_bad_input():
    with pytest.raises(NotPositiveDefinite):
        cholesky_factor(np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(ValueError):
        cholesky_solve(np.array([[1.0, 5.0], [0.0, 1.0]]), np.array([1.0, 1.0]))


def test_jacobi_diagonal_is_exact():
    sv = jacobi_singular_values(np.diag([4.0, 0.25, 2.0]))
    assert np.array_equal(sv, np.array([4.0, 2.0, 0.25]))


def test_jacobi_handles_wide_and_zero():
    # one value per column; columns beyond the rank come out as zeros
    a = np.array([[3.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
    sv = jacobi_singular_values(a)
    assert sv == pytest.approx([5.0, 3.0, 0.0], abs=1e-14)
    assert np.array_equal(jacobi_singular_values(np.zeros((3, 3))), np.zeros(3))


def test_jacobi_no_convergence_when_capped():
    gen = stream(5, 3)
    a = gen.standard_normal((12, 12))
    with pytest.raises(NoConvergence):
        jacobi_singular_values(a, max_sweeps=1, tol=1e-300)


def test_planted_spectrum_reproduced():
    """Condition diagnostics recover a planted log-spaced spectrum."""
    for seed in range(6):
        kappa = (1e2, 1e4, 1e6)[seed % 3]
        n = 16 + 2 * seed
        r = triangular_with_condition(n, kappa, seed)
        diag = condition_diagnostics(r)
        planted = 10.0 ** np.linspace(0.0, -np.log10(kappa), n)
        planted *= diag.singular_values[0] / planted[0]
        rel = np.abs(diag.singular_values - planted) / planted
        assert rel.max() <= 1e-8
        assert diag.two_norm_condition == pytest.approx(kappa, rel=1e-6)
        # the LAPACK values agree with the in-repo Jacobi kernel
        jacobi = jacobi_singular_values(r)
        assert diag.singular_values == pytest.approx(jacobi, rel=1e-12)


def test_condition_diagnostics_tall_and_wide_agree():
    gen = stream(23, 3)
    a = gen.standard_normal((60, 9))
    tall = condition_diagnostics(a)
    wide = condition_diagnostics(a.T)
    assert tall.singular_values == pytest.approx(wide.singular_values, rel=1e-12)
    assert tall.two_norm == tall.singular_values[0]


def test_condition_diagnostics_singular_matrix():
    a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    diag = condition_diagnostics(a)
    assert diag.two_norm_condition == np.inf


def test_condition_diagnostics_rejects_non_finite():
    with pytest.raises(ValueError):
        condition_diagnostics(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_condition_diagnostics_no_convergence_is_typed(monkeypatch):
    def fail(*args, **kwargs):
        raise LinAlgError("SVD did not converge")

    monkeypatch.setattr("sketchlsq.dense.svdvals", fail)
    with pytest.raises(NoConvergence):
        condition_diagnostics(np.eye(3))


def test_hager_is_lower_bound_and_close():
    """The Hager inverse-norm estimate behind estimate_log10_condition never
    exceeds the true inverse one-norm of the Gram matrix, stays within 3x."""
    for seed in range(10):
        gen = stream(seed, 3)
        n = 20 + seed
        a = gen.standard_normal((n, n)) + n * np.eye(n)
        g = a.T @ a
        norm1 = np.abs(g).sum(axis=0).max()
        true_norm = np.abs(np.linalg.inv(g)).sum(axis=0).max()

        kappa0, overflowed = estimate_log10_condition(a)
        assert not overflowed
        # kappa0 = 0.5 * log10(n * norm1(G) * est(norm1(G^-1)))
        est = 10.0 ** (2.0 * kappa0) / (n * norm1)
        assert est <= true_norm * (1.0 + 1e-12)
        assert est >= true_norm / 3.0


def test_lapack_wrappers_keep_binary32():
    gen = stream(31, 3)
    a = gen.standard_normal((20, 6)).astype(np.float32)
    rhs = gen.standard_normal(6).astype(np.float32)
    fac = householder_qr(a)
    assert fac.q.dtype == np.float32 and fac.r.dtype == np.float32
    assert qr_r_factor(a).dtype == np.float32
    assert triangular_solve(fac.r, rhs).dtype == np.float32
    assert triangular_solve(fac.r, rhs, transposed=True).dtype == np.float32
    g = a.T @ a
    assert lu_solve(g, rhs).dtype == np.float32
    assert cholesky_solve(g, rhs).dtype == np.float32


def test_qr_r_factor_is_the_householder_qr_factor():
    a = stream(32, 3).standard_normal((40, 7))
    assert np.array_equal(qr_r_factor(a), householder_qr(a).r)
    with pytest.raises(RankDeficient):
        qr_r_factor(np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(DimensionMismatch):
        qr_r_factor(np.ones((2, 3)))


def test_lu_solve_pivot_below_threshold_raises():
    # the second pivot is 2^-52: not zero, but below n * eps * max|a|
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -52]])
    with pytest.raises(NumericallySingular):
        lu_solve(a, np.array([1.0, 1.0]))


def test_cholesky_rejects_nan_pivot():
    with pytest.raises(NotPositiveDefinite):
        cholesky_factor(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(NotPositiveDefinite):
        cholesky_factor(np.array([[1.0, 0.0], [0.0, np.nan]]))
