"""Tests for the dense factorization and estimation kernels."""

import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import LinAlgError, svdvals

from sketchlsq import (
    BINARY16,
    DimensionMismatch,
    NoConvergence,
    NotPositiveDefinite,
    NumericallySingular,
    RankDeficient,
    SingularTriangular,
    apply_sketch,
    condition_diagnostics,
    estimate_log10_condition,
    generate_problem,
    householder_qr,
    lu_solve,
    make_sketch,
    round_to_precision,
    triangular_solve,
    triangular_with_condition,
)
from sketchlsq.dense import (
    _ROUND_HALF_MIN_SIZE,
    LinearSystem,
    _round_half,
    _unrounded,
    cholesky_factor,
    cholesky_solve,
    householder_reduce,
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


def test_condition_diagnostics_are_lapack_svdvals_bit_for_bit():
    """The same bits as svdvals, for a wide input (transposed first) and
    for a singular one.  A LinearSystem's diagnostics, which from
    m >= floor(11 n / 6) on read the R of its one QR, as LAPACK gesdd
    itself does, give those bits too, above and below that bound."""
    gen = stream(45, 3)
    for shape in ((2000, 32), (90, 50), (32, 2000)):
        a = gen.standard_normal(shape)
        tall = a.T if shape[0] < shape[1] else a
        assert np.array_equal(condition_diagnostics(a).singular_values,
                              svdvals(tall))
        assert np.array_equal(LinearSystem(tall).diagnostics().singular_values,
                              svdvals(tall))
    singular = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(condition_diagnostics(singular).singular_values,
                          svdvals(singular))
    # 600 x 160 takes LAPACK's blocked paths, whose bits depend on the
    # BLAS thread count, so it runs in a child on one thread
    code = ("import numpy as np; from scipy.linalg import svdvals; "
            "from sketchlsq.dense import LinearSystem; "
            "from sketchlsq.rng import stream; "
            "a = stream(46, 3).standard_normal((600, 160)); "
            "print(np.array_equal(LinearSystem(a).diagnostics()"
            ".singular_values, svdvals(a)))")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["True"]


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


def _sha256(x):
    return hashlib.sha256(x.tobytes()).hexdigest()


# sha256 of (Q, R) of the thin QR of stream(41, 3)'s 2000 x 32 Gaussian in
# each dtype (binary16 is factored in binary32), as recorded with OpenBLAS
# 0.3.31 on x86-64.
_PINNED_QR = {
    np.float64: (
        "41aaf20b29241021f977c40d84fe7e4b5504992573b8a869e7e3fe88099dd00e",
        "c9b450c0baabe75153a0038b220b5b85670a60d21387af0b03ba7538552e2e6a"),
    np.float32: (
        "320e17e023cabbcc9d9e611ddedbd388f87d0a4b4685ec146b6403386b5a9b80",
        "f2303697f8089eac611c22127ff2624a6dc95bf121fafbf68926076dcf8d63c0"),
    np.float16: (
        "1e25e447e79c9047d788ff2740195dd56cfffb19a36921d3de925e8ade592948",
        "840dee92746d1f6c670a1925aeed83f00d65d9583072a896284a7f8869d62459"),
}


def test_qr_factors_match_pinned_digests():
    """householder_qr's Q and R and qr_r_factor's R, bit for bit as
    recorded, for C- and Fortran-ordered input.  R is C-ordered: LAPACK's
    triangular solve rounds differently on the other layout."""
    a = stream(41, 3).standard_normal((2000, 32))
    for dtype, (q_digest, r_digest) in _PINNED_QR.items():
        for order in "CF":
            x = np.asarray(a.astype(dtype), order=order)
            fac = householder_qr(x)
            r = qr_r_factor(x)
            assert _sha256(fac.q) == q_digest and _sha256(fac.r) == r_digest
            assert _sha256(r) == r_digest
            assert fac.r.flags.c_contiguous and r.flags.c_contiguous


def test_blocked_qr_matches_pinned_digests():
    """A 300 x 160 QR takes LAPACK's blocked geqrf path, whose bits depend
    on the BLAS thread count, so it runs in a child on one thread."""
    code = ("import hashlib; from sketchlsq.dense import householder_qr, "
            "qr_r_factor; from sketchlsq.rng import stream; "
            "a = stream(42, 3).standard_normal((300, 160)); "
            "f = householder_qr(a); "
            "print(*(hashlib.sha256(x.tobytes()).hexdigest() "
            "for x in (f.q, f.r, qr_r_factor(a))))")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    r_digest = "d589f2e77267486046a27d43e3c344be9aa356d56a198451c321d953c9e2ddfd"
    assert out == [
        "65beb660e2402c76baef4377fc71e6cd02665ffbe1ecc2182fef02d085d3b84b",
        r_digest, r_digest]


def test_qr_and_diagnostics_leave_the_input_unchanged():
    """The LAPACK QR overwrites its own copy, never the caller's array,
    whatever its layout or dtype."""
    a = stream(43, 3).standard_normal((60, 7))
    for x in (a, np.asfortranarray(a), a.astype(np.float16),
              np.asfortranarray(a.astype(np.float32))):
        before = x.copy()
        householder_qr(x)
        qr_r_factor(x)
        condition_diagnostics(x)
        assert np.array_equal(x, before)


def test_qr_of_empty_inputs_keeps_the_empty_shapes():
    for m in (0, 5):
        fac = householder_qr(np.zeros((m, 0)))
        assert fac.q.shape == (m, 0) and fac.r.shape == (0, 0)
        assert qr_r_factor(np.zeros((m, 0))).shape == (0, 0)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_qr_allocates_one_copy_of_the_input():
    """geqrf and orgqr run in place: the peak traced allocation is the one
    m x n working copy, not the three a wrapper's copies and triu add."""
    a = stream(44, 3).standard_normal((2000, 32))
    for fn in (qr_r_factor, householder_qr):
        assert _peak_bytes(fn, a) <= 1.1 * a.nbytes, fn.__name__


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


def _half_operands():
    # +-0, subnormals, the normal floor, values around 1, values near the
    # 65504 top, and random finite values of both signs: 64 in all
    bits = [0x0000, 0x8000, 0x0001, 0x8001, 0x0002, 0x0003, 0x00FF, 0x8155,
            0x0200, 0x03FF, 0x83FF, 0x0400, 0x8400, 0x0401, 0x07FF, 0x3C00,
            0xBC00, 0x3C01, 0x3BFF, 0x4000, 0x3800, 0x4200, 0x2E66, 0xB4CD,
            0x3555, 0x4248, 0x4170, 0x5BFF, 0x5C00, 0x6C00, 0x7800, 0x7A00,
            0x7BFE, 0x7BFF, 0xFBFF, 0xF800, 0x6801, 0x1400, 0x0C00, 0x9000]
    draws = stream(12, 3).integers(0, 0x7C00, 24)
    signs = stream(13, 3).integers(0, 2, 24) << 15
    bits = np.array(bits + list(draws | signs), dtype=np.uint16)
    return bits.view(np.float16)


def _assert_rounds_as_half(carry, want):
    """_round_half of a float32 carry equals the float16 result bit for
    bit, through the trick on the whole array and through the cast on
    pieces smaller than the cut-over."""
    want = want.astype(np.float32).view(np.uint32)
    whole = carry.copy()
    assert whole.size >= _ROUND_HALF_MIN_SIZE
    assert np.array_equal(_round_half(whole).view(np.uint32), want)
    pieces = carry.ravel().copy()
    for start in range(0, pieces.size, _ROUND_HALF_MIN_SIZE - 1):
        _round_half(pieces[start:start + _ROUND_HALF_MIN_SIZE - 1])
    assert np.array_equal(pieces.view(np.uint32), want.ravel())


def test_round_half_matches_float16_arithmetic_exhaustively():
    """Every finite float16 value against 64 operands: the float32 result
    of + - * / (and sqrt of every value), rounded by _round_half, is the
    float16 operation's result bit for bit, -0, subnormals, inf and NaN
    included."""
    every = np.arange(0x10000, dtype=np.uint32).astype(np.uint16)
    every = every.view(np.float16)
    every = every[np.isfinite(every)]
    assert every.size == 63488
    ops = _half_operands()
    x16, y16 = every[:, None], ops[None, :]
    x32, y32 = x16.astype(np.float32), y16.astype(np.float32)
    with np.errstate(all="ignore"):
        for op in (np.add, np.subtract, np.multiply, np.divide):
            _assert_rounds_as_half(op(x32, y32), op(x16, y16))
        _assert_rounds_as_half(np.sqrt(every.astype(np.float32)),
                               np.sqrt(every))


def test_round_half_trick_breaks_ties_as_the_float16_cast():
    """Every sign and float32 exponent, with the 13 bits binary16 drops just
    below, at, and above half an ulp (and a tie with an odd kept bit),
    over a spread of kept mantissas, plus +-inf and NaN: the trick path,
    with and without a spare buffer, rounds as numpy's float16 cast."""
    upper = np.array([0, 1, 2, 0x155, 0x2AA, 0x3FE, 0x3FF], dtype=np.uint32)
    low = np.array([0x0FFF, 0x1000, 0x1001, 0x1FFF, 0x3000], dtype=np.uint32)
    sign = np.array([0, 0x80000000], dtype=np.uint32)
    exponent = np.arange(255, dtype=np.uint32) << 23
    bits = (sign[:, None, None, None] | exponent[None, :, None, None]
            | (upper << 13)[None, None, :, None] | low).ravel()
    bits = np.concatenate([bits, np.array(
        [0x7F800000, 0xFF800000, 0x7FC00000, 0xFFC00001], dtype=np.uint32)])
    x = bits.view(np.float32)
    assert x.size >= _ROUND_HALF_MIN_SIZE
    with np.errstate(over="ignore"):
        want = x.astype(np.float16).astype(np.float32)
        for got in (_round_half(x.copy()),
                    _round_half(x.copy(), spare=np.empty_like(x))):
            nan = np.isnan(want)
            assert np.array_equal(np.isnan(got), nan)
            assert np.array_equal(got.view(np.uint32)[~nan],
                                  want.view(np.uint32)[~nan])


# The binary16 kernel as it was before it built one tree per column, kept
# as the reference that householder_reduce must match bit for bit.
def _reference_pairwise_sum(x, rounding=_unrounded):
    # Deterministic binary tree over axis 0, one add per element per level,
    # each level rounded in place: with _round_half a float32 carry of
    # binary16 values adds in binary16 throughout.
    while x.shape[0] > 1:
        half = x.shape[0] // 2
        y = rounding(x[0:2 * half:2] + x[1:2 * half:2])
        if x.shape[0] % 2:
            y = np.concatenate([y, x[2 * half:]], axis=0)
        x = y
    return x[0]


def _reference_householder_reduce(a):
    """Triangular factor of a by Householder reflections in binary16.

    The emulated binary16 kernel: values are carried in float32 and every
    scalar operation's result is rounded to binary16 (_round_half), which
    gives the bits of the binary16 operation, and every inner product is a
    pairwise tree of binary16 adds, which LAPACK cannot do: the column
    norm's in numpy float16, the reflector's by _reference_pairwise_sum.
    Q is never formed.

    Parameters
    ----------
    a : ndarray, shape (m, n) with m >= n
        Converted to float16 first.

    Returns
    -------
    r : ndarray, shape (n, n), float16
        Upper-triangular factor; subdiagonal entries are exact zeros.

    Notes
    -----
    The pivot sign convention is alpha = -sign(x_0) * norm(x) with
    sign(0) = +1, so the leading reflector entry x_0 - alpha never
    cancels.  A pivot column that is exactly zero (or whose squared norm
    underflows to zero in the working precision) raises RankDeficient.
    """
    m, n = a.shape
    w = np.asarray(a, dtype=np.float16).astype(np.float32, order="F")
    for j in range(n):
        col = w[j:, j:j + 1]
        # numpy float16 ops round once from float32; the cast rounds each
        # square.  -0 pads to a power of two: x + -0 = x keeps the pairs of
        # _reference_pairwise_sum, its carried odd element included.
        squares = np.full((1 << (m - j - 1).bit_length(), 1), -0.0, np.float16)
        np.multiply(col, col, out=squares[:m - j])
        while squares.shape[0] > 1:
            squares = squares[0::2] + squares[1::2]
        norm = np.sqrt(squares[0])
        if norm == 0:
            raise RankDeficient(f"pivot column {j} is zero at working precision")
        alpha = -norm if w[j, j] >= 0 else norm
        _round_half(np.subtract(w[j, j], alpha, out=w[j, j:j + 1]))
        # v.v and v^T W in one tree: the trees are per column
        sums = _reference_pairwise_sum(_round_half(col * w[j:, j:]), _round_half)
        vtv = sums[:1]
        if vtv == 0:
            raise RankDeficient(f"reflector {j} vanished at working precision")
        tau = _round_half(np.float32(2) / vtv)
        # vtv can underflow so far that 2/vtv leaves the working range;
        # that is a rank collapse at this precision, not a true overflow
        if not np.isfinite(tau):
            raise RankDeficient(
                f"reflector {j} norm underflowed at working precision")
        if j + 1 < n:
            t = _round_half(tau * sums[1:])
            trailing = w[j:, j + 1:]
            trailing -= _round_half(col * t[None, :])
            _round_half(trailing)
        w[j, j] = alpha[0]
        w[j + 1:, j] = 0
    return w[:n].astype(np.float16, order="F")


def _reduce_outcome(kernel, a):
    # R's bytes, dtype, layout and shape, or the RankDeficient text
    try:
        with np.errstate(all="ignore"):
            r = kernel(a)
    except RankDeficient as exc:
        return str(exc)
    return r.tobytes(), r.dtype, r.flags.f_contiguous, r.shape


def _prescaled_half_sketch(m, n, kappa, seed, transform):
    # the binary16 input qr_in_precision gives the kernel for a sketch
    p = generate_problem(m, n, kappa, 1e-6, seed)
    op = make_sketch(m, 3 * n, transform, seed)
    sketch = apply_sketch(op, round_to_precision(p.a, BINARY16))
    work = sketch.astype(np.float64)
    scale = 2.0 ** -math.frexp(float(np.abs(work).max()))[1]
    return round_to_precision(work * scale, BINARY16)


def _kernel_edge_inputs():
    gen = stream(31, 3)
    for m, n in ((37, 9), (38, 9), (64, 9), (65, 9), (255, 10), (256, 10),
                 (257, 10), (300, 40), (12, 12), (40, 40), (1, 1), (33, 1),
                 (300, 1), (9, 5), (16, 5), (17, 5)):
        yield gen.standard_normal((m, n))
    a = gen.standard_normal((50, 8))
    for col in (0, 3, 7):
        zero = a.copy()
        zero[:, col] = 0.0
        yield zero
    repeated = a.copy()
    repeated[:, 5] = repeated[:, 2]
    yield repeated
    # every product of column 1 with column 0 is -0, so the sign of their
    # zero sum, and of R[0, 1], rides on the -0 that pairs with row 4
    yield np.array([[1.0, -0.0], [2.0, -0.0], [3.0, -0.0], [4.0, -0.0],
                    [0.0, -1.0]])
    # binary16 subnormals (below 2^-14) and squares that overflow 65504
    for k in (-7, -10, -12, -14, -17, -20, 4, 6, 7, 8, 12, 15):
        yield a * 2.0 ** k
        scaled = a.copy()
        scaled[:, 2] *= 2.0 ** k
        yield scaled
        scaled[:, 0] *= 2.0 ** -k
        yield scaled
        last = a.copy()
        last[:, -1] *= 2.0 ** k
        yield last


def test_householder_reduce_matches_the_reference_kernel_bit_for_bit():
    """The one-tree-per-column kernel gives the reference kernel's R
    bytes, dtype, Fortran order and RankDeficient text: on the 3000 x 48
    workload sketches (DCT-II and Walsh-Hadamard; kappa 1e2 factors in
    full, kappa 1e6 collapses), on odd, even, power-of-two and
    power-of-two-plus-one row counts, square and one-column inputs, zero
    and repeated columns, and columns scaled near the binary16 subnormal
    and overflow limits."""
    cases = [_prescaled_half_sketch(3000, 48, kappa, seed, transform)
             for kappa in (1e2, 1e6) for seed in (1, 2)
             for transform in ("dct2", "wht")]
    cases += list(_kernel_edge_inputs())
    outcomes = set()
    for a in cases:
        want = _reduce_outcome(_reference_householder_reduce, a)
        assert _reduce_outcome(householder_reduce, a) == want
        if isinstance(want, str):
            outcomes.add(want)
        else:
            r = np.frombuffer(want[0], np.float16)
            outcomes.add("R" if np.isfinite(r).all() else "R with inf")
            if np.any((r != 0) & (np.abs(r) < 2.0 ** -14)):
                outcomes.add("R with subnormals")
    # the cases reach every exit of the kernel
    assert {"R", "R with inf", "R with subnormals",
            "pivot column 0 is zero at working precision",
            "pivot column 3 is zero at working precision"} <= outcomes
    assert any(o.startswith("reflector") and "underflowed" in o
               for o in outcomes)
