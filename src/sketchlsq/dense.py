"""Dense factorizations and condition estimation.

QR, triangular, LU and Cholesky solves and the singular values behind
condition_diagnostics are thin wrappers over LAPACK (scipy.linalg) that
raise the package's typed errors and compute in the common dtype of their
inputs (binary32 stays binary32; binary16 is promoted to binary32).
Two hand-written kernels remain.  householder_reduce is the one binary16
kernel: it rounds every scalar operation to float16, as LAPACK cannot,
and returns R alone.  jacobi_singular_values, a one-sided Jacobi kernel,
is kept as an independent reference for the tests.
"""

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import linalg
from scipy.linalg import LinAlgError, LinAlgWarning, svdvals

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotPositiveDefinite,
    NumericallySingular,
    RankDeficient,
    SingularTriangular,
)

_FLOAT_DTYPES = (np.float16, np.float32, np.float64)


@dataclass(frozen=True)
class QRFactors:
    """Thin QR factors: q has orthonormal columns, r is upper triangular."""

    q: np.ndarray
    r: np.ndarray


@dataclass(frozen=True)
class ConditionDiagnostics:
    """Spectral summary of a matrix.

    Attributes
    ----------
    two_norm : float
        Largest singular value.
    two_norm_condition : float
        Ratio of largest to smallest singular value; inf when the smallest
        is exactly zero.
    singular_values : ndarray
        All singular values in descending order.
    """

    two_norm: float
    two_norm_condition: float
    singular_values: np.ndarray


def _as_matrix(a, name="a"):
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.dtype not in _FLOAT_DTYPES:
        arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _pairwise_sum(x):
    # Deterministic binary tree over axis 0; one rounded add per element
    # per level, so float16 input stays float16 throughout.
    while x.shape[0] > 1:
        half = x.shape[0] // 2
        y = x[0:2 * half:2] + x[1:2 * half:2]
        if x.shape[0] % 2:
            y = np.concatenate([y, x[2 * half:]], axis=0)
        x = y
    return x[0]


def householder_reduce(a):
    """Triangular factor of a by Householder reflections in binary16.

    The emulated binary16 kernel: every scalar operation is a numpy float16
    operation, rounded to nearest, and every inner product is a pairwise
    tree of float16 adds (_pairwise_sum), which LAPACK cannot do.  Q is
    never formed.

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
    n = a.shape[1]
    w = np.array(a, dtype=np.float16, order="F", copy=True)
    two = np.float16(2)
    for j in range(n):
        v = w[j:, j].copy()
        norm = np.sqrt(_pairwise_sum(v * v))
        if norm == 0:
            raise RankDeficient(f"pivot column {j} is zero at working precision")
        alpha = -norm if v[0] >= 0 else norm
        v[0] = v[0] - alpha
        vtv = _pairwise_sum(v * v)
        if vtv == 0:
            raise RankDeficient(f"reflector {j} vanished at working precision")
        tau = two / vtv
        # vtv can underflow so far that 2/vtv leaves the working range;
        # that is a rank collapse at this precision, not a true overflow
        if not np.isfinite(tau):
            raise RankDeficient(
                f"reflector {j} norm underflowed at working precision")
        if j + 1 < n:
            t = tau * _pairwise_sum(v[:, None] * w[j:, j + 1:])
            w[j:, j + 1:] -= v[:, None] * t[None, :]
        w[j, j] = alpha
        w[j + 1:, j] = 0
    return w[:n].copy(order="F")


def _tall_matrix(a):
    a = _as_matrix(a)
    m, n = a.shape
    if m < n:
        raise DimensionMismatch(f"need rows >= cols, got {m} x {n}")
    return a


def _check_diagonal(r, error):
    zero = np.nonzero(np.diagonal(r) == 0)[0]
    if zero.size:
        raise error(f"zero diagonal entry at index {zero[0]}")


def householder_qr(a):
    """Thin QR of a tall matrix by LAPACK (scipy.linalg.qr, economic mode).

    Parameters
    ----------
    a : ndarray, shape (m, n) with m >= n, full column rank expected

    Returns
    -------
    QRFactors
        q (m, n) with orthonormal columns, r (n, n) upper triangular with
        exact zeros below the diagonal, both in the dtype of a (binary16
        input is factored in binary32).

    Raises
    ------
    DimensionMismatch
        If m < n.
    RankDeficient
        If r has an exactly zero diagonal entry.
    """
    q, r = linalg.qr(_tall_matrix(a), mode="economic", check_finite=False)
    _check_diagonal(r, RankDeficient)
    return QRFactors(q=q, r=r)


def qr_r_factor(a):
    """Triangular factor alone of the thin QR of a tall matrix, by LAPACK.

    Same r as householder_qr(a).r without forming q.

    Raises
    ------
    DimensionMismatch
        If m < n.
    RankDeficient
        If r has an exactly zero diagonal entry.
    """
    a = _tall_matrix(a)
    r = linalg.qr(a, mode="r", check_finite=False)[0][:a.shape[1]]
    _check_diagonal(r, RankDeficient)
    return r


def _check_rhs(n, rhs):
    rhs = np.asarray(rhs)
    if rhs.shape[0] != n:
        raise DimensionMismatch(f"rhs length {rhs.shape[0]} != n = {n}")
    return rhs


def triangular_solve(r, rhs, transposed=False):
    """Solve r x = rhs, or r^T x = rhs when transposed, by LAPACK trtrs.

    Parameters
    ----------
    r : ndarray, shape (n, n)
        Upper triangular.  Only the upper triangle is referenced.
    rhs : ndarray, shape (n,) or (n, k)
    transposed : bool
        Solve with r^T instead of r.

    Raises
    ------
    SingularTriangular
        If any diagonal entry is exactly zero.
    """
    r = np.asarray(r)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"r must be square, got shape {r.shape}")
    rhs = _check_rhs(r.shape[0], rhs)
    _check_diagonal(r, SingularTriangular)
    return linalg.solve_triangular(r, rhs, trans="T" if transposed else "N",
                                   lower=False, check_finite=False)


def lu_solve(a, rhs):
    """Solve a x = rhs by LU with partial pivoting (LAPACK getrf/getrs).

    A pivot magnitude, i.e. a diagonal entry of U, below
    n * eps * max|a| (or exactly zero) raises NumericallySingular.

    Parameters
    ----------
    a : ndarray, shape (n, n)
    rhs : ndarray, shape (n,) or (n, k)
    """
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"a must be square, got shape {a.shape}")
    n = a.shape[0]
    rhs = _check_rhs(n, rhs)
    with warnings.catch_warnings():
        # an exactly zero pivot is reported below as NumericallySingular
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = linalg.lu_factor(a, check_finite=False)
    thresh = n * np.finfo(lu.dtype).eps * np.abs(a).max()
    pivots = np.abs(np.diagonal(lu))
    k = int(np.argmin(pivots))
    if pivots[k] < thresh or pivots[k] == 0:
        raise NumericallySingular(
            f"pivot {k} magnitude {pivots[k]:.3e} below threshold {thresh:.3e}")
    return linalg.lu_solve((lu, piv), rhs, check_finite=False)


def cholesky_factor(s):
    """Lower Cholesky factor of a symmetric positive definite matrix (LAPACK).

    The input is symmetrized as (s + s^T)/2 before factoring; callers must
    ensure s is symmetric to within 10 * eps relative tolerance.  The
    factor has exact zeros above the diagonal.

    Raises
    ------
    NotPositiveDefinite
        If LAPACK meets a pivot <= 0, or the factor is not finite (a NaN
        pivot passes some LAPACK builds' positivity test).
    """
    s = np.asarray(s)
    sym = (s + s.T) / s.dtype.type(2)
    try:
        ell = linalg.cholesky(sym, lower=True, check_finite=False)
    except LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky breakdown: {exc}") from exc
    if not np.isfinite(ell).all():
        raise NotPositiveDefinite("Cholesky factor has a non-finite pivot")
    return ell


def cholesky_solve(s, rhs):
    """Solve s x = rhs for symmetric positive definite s (LAPACK potrs).

    Parameters
    ----------
    s : ndarray, shape (n, n)
        Must be symmetric to within 10 * eps relative tolerance; it is
        symmetrized exactly before factoring.
    rhs : ndarray, shape (n,) or (n, k)

    Raises
    ------
    NotPositiveDefinite
        If the Cholesky factorization breaks down.
    """
    s = _as_matrix(s, "s")
    if s.shape[0] != s.shape[1]:
        raise ValueError(f"s must be square, got shape {s.shape}")
    dev = np.abs(s - s.T).max()
    scale = np.abs(s).max()
    if dev > 10 * np.finfo(s.dtype).eps * scale:
        raise ValueError("s is not symmetric within 10*eps relative tolerance")
    rhs = _check_rhs(s.shape[0], rhs)
    return linalg.cho_solve((cholesky_factor(s), True), rhs,
                            check_finite=False)


@lru_cache(maxsize=None)
def _round_robin_rounds(n):
    # Circle method: n-1 rounds of disjoint pairs covering all n*(n-1)/2
    # combinations, so each round can be rotated as one vectorized batch.
    players = list(range(n))
    if n % 2:
        players.append(-1)
    k = len(players)
    rounds = []
    for _ in range(max(k - 1, 0)):
        pairs = [(players[i], players[k - 1 - i]) for i in range(k // 2)]
        pairs = [(min(p, q), max(p, q)) for p, q in pairs if p != -1 and q != -1]
        if pairs:
            ps = np.array([p for p, _ in pairs])
            qs = np.array([q for _, q in pairs])
            rounds.append((ps, qs))
        players = [players[0], players[-1]] + players[1:-1]
    return tuple(rounds)


def jacobi_singular_values(a, max_sweeps=30, tol=1e-14):
    """Singular values by one-sided Jacobi column rotations.

    Sweeps rotate every column pair once, batched over disjoint pairs from
    a round-robin schedule.  Pairs already orthogonal to working accuracy
    are skipped.  Convergence is declared when every rotation tangent in a
    sweep is below tol in magnitude.

    Returns
    -------
    ndarray
        Singular values in descending order.

    Raises
    ------
    NoConvergence
        If max_sweeps sweeps do not reach the tangent tolerance.
    """
    w = np.array(a, dtype=np.float64, order="F", copy=True)
    n = w.shape[1]
    # Columns whose cosine is below this are treated as already orthogonal;
    # without the gate, equal-norm columns with rounding-level inner products
    # get full 45-degree rotations forever (tau = 0 gives |t| = 1).
    ortho_gate = math.sqrt(w.shape[0]) * 2.0 ** -52
    converged = n < 2
    for _ in range(max_sweeps):
        if converged:
            break
        max_t = 0.0
        for ps, qs in _round_robin_rounds(n):
            ap = w[:, ps]
            aq = w[:, qs]
            app = np.einsum("ij,ij->j", ap, ap)
            aqq = np.einsum("ij,ij->j", aq, aq)
            apq = np.einsum("ij,ij->j", ap, aq)
            rotate = np.abs(apq) > ortho_gate * np.sqrt(app) * np.sqrt(aqq)
            with np.errstate(divide="ignore", invalid="ignore"):
                tau = np.where(rotate, (aqq - app) / (2 * apq), 0.0)
            sgn = np.where(tau >= 0, 1.0, -1.0)
            t = np.where(rotate, sgn / (np.abs(tau) + np.hypot(1.0, tau)), 0.0)
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            w[:, ps] = c * ap - s * aq
            w[:, qs] = s * ap + c * aq
            if t.size:
                max_t = max(max_t, float(np.abs(t).max()))
        converged = max_t < tol
    if not converged:
        raise NoConvergence(f"Jacobi did not converge in {max_sweeps} sweeps")
    sv = np.sqrt(np.einsum("ij,ij->j", w, w))
    return np.sort(sv)[::-1]


def condition_diagnostics(a):
    """Two-norm, condition number, and singular values of a matrix.

    The singular values come from LAPACK (scipy.linalg.svdvals) on the
    binary64 copy of the input, whatever its dtype.  Wide inputs are
    transposed first, so a matrix and its transpose give the same values.

    Raises
    ------
    ValueError
        If the input is not 2-D or has non-finite entries.
    NoConvergence
        If the LAPACK SVD does not converge.
    """
    a = _as_matrix(a).astype(np.float64, copy=False)
    if a.shape[0] < a.shape[1]:
        a = a.T
    try:
        sv = svdvals(a, check_finite=False)
    except LinAlgError as exc:
        raise NoConvergence(f"LAPACK SVD did not converge: {exc}") from exc
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    return ConditionDiagnostics(
        two_norm=float(sv[0]),
        two_norm_condition=cond,
        singular_values=sv,
    )

