"""Dense factorizations and condition estimation.

QR, triangular, LU and Cholesky solves and the singular values behind
condition_diagnostics are thin wrappers over LAPACK (scipy.linalg) that
raise the package's typed errors and compute in the common dtype of their
inputs (binary32 stays binary32; binary16 is promoted to binary32).  QR
runs geqrf (_geqrf) and orgqr (_orgqr) in place on one owned Fortran copy
of the input, so scipy.linalg.qr makes no m x n copy of its own, and R is
the triangle of the n x n top alone.  LinearSystem is the checked system
of one problem, whose products of A (its QR among them) the solves and
diagnostics of that problem form once and share.
Two hand-written kernels remain.  householder_reduce is the one binary16
kernel: it rounds the result of every scalar operation to binary16, as
LAPACK cannot, and returns R alone.  Large arrays carry binary16 values
in float32 and round them by _round_half (float32 arithmetic on the
magnitude, bit operations on the sign); small ones compute in numpy
float16, whose every operation rounds once.  Each column builds one
pairwise tree of binary16 adds (_pairwise_tree), which gives both the
column norm and the reflector's inner products.  Its time is the cost of
emulating binary16 on a CPU, not a speedup.  jacobi_singular_values, a
one-sided Jacobi kernel, is kept as an independent reference for the
tests.
"""

import math
import time
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


# Below this many elements numpy float16 beats float32 plus _round_half,
# whose fixed cost is about a dozen ufunc calls: _round_half casts smaller
# arrays, and the kernel's tree levels and blocks compute in float16 from
# there on.
_ROUND_HALF_MIN_SIZE = 1024
_FLOAT32_SIGN = np.uint32(0x80000000)
_FLOAT32_MAGNITUDE = np.uint32(0x7FFFFFFF)
_FLOAT32_EXPONENT = np.uint32(0x7F800000)


def _round_half(x, spare=None):
    """Round a float32 array in place to the nearest binary16 values.

    Round to nearest, ties to even, as numpy's float16 cast does, bit for
    bit: subnormals, -0 and overflow to +-inf included; the values stay in
    float32.  Large arrays round |x| and put the sign bit back (round to
    nearest even is symmetric, and |x| + c - c is never -0).  c is 2^13
    times the power of two of |x|, at least 2^-14 (the binary16 normal
    floor), so float32 rounding drops exactly the bits binary16 lacks.
    Scaling by 2^112 and back is exact, except that it sends what rounded
    past 65504 (or any |x| >= 2^115, where c is finite) to inf.  As float32
    carries the result of a binary16 + - * / or sqrt with 24 >= 2 * 11 + 2
    bits, rounding it here gives the binary16 operation's result.  spare,
    a float32 array of x's shape that may be overwritten, holds the sign
    bits, else a new array does.  Returns x.
    """
    if x.size < _ROUND_HALF_MIN_SIZE:
        x[...] = x.astype(np.float16)
        return x
    bits = x.view(np.uint32)
    sign = np.bitwise_and(
        bits, _FLOAT32_SIGN, out=None if spare is None else spare.view(np.uint32))
    bits &= _FLOAT32_MAGNITUDE
    # c's exponent field plus one: one float max floors it and, as a field
    # past 255 wraps into the sign bit, sends |x| >= 2^115 to c = 1/2
    c_bits = bits & _FLOAT32_EXPONENT
    c_bits += np.uint32(14 << 23)
    c = c_bits.view(np.float32)
    np.maximum(c, np.float32(1.0), out=c)
    c_bits -= np.uint32(1 << 23)
    x += c
    x -= c
    x *= np.float32(2.0 ** 112)
    x *= np.float32(2.0 ** -112)
    bits |= sign
    return x


def _unrounded(x, spare=None):
    # The rounding argument of a kernel that computes in the dtype of x.
    return x


def _pairwise_tree(x):
    """Pairwise binary16 sums over axis 0 of x, and the path to node 0.

    x holds binary16 values, in float32 or float16.  Each level adds rows
    (0, 1), (2, 3), ... in binary16, an odd last row passing up as if
    added to -0 (x + -0 = x).  Returns (root, siblings): root the sums,
    siblings row 1 of each level, leaves first.  The tree over other
    leaves that differ only in row 0 has the same siblings, so adding
    them in order to its row 0 gives its root.  Large levels add in
    float32 and round by _round_half; from the first small one on, the
    levels add in float16, -0 padding the rows to a power of two.
    """
    siblings = []
    while x.shape[0] > 1:
        siblings.append(x[1])
        half, odd = divmod(x.shape[0], 2)
        large = (x.dtype == np.float32
                 and half * x.shape[1] >= _ROUND_HALF_MIN_SIZE)
        if large:
            y = np.empty((half + odd, x.shape[1]), np.float32)
            _round_half(np.add(x[0:-1:2], x[1::2], out=y[:half]))
        else:
            y = np.full((1 << (half + odd - 1).bit_length(), x.shape[1]),
                        -0.0, np.float16)
            np.add(x[0:-1:2], x[1::2], out=y[:half])
        if odd:
            y[half] = x[-1]
        x = y
        if not large:
            # a power of two of float16 rows from here on: no odd row
            while x.shape[0] > 1:
                siblings.append(x[1])
                x = x[0::2] + x[1::2]
    return x[0], siblings


def householder_reduce(a):
    """Triangular factor of a by Householder reflections in binary16.

    The emulated binary16 kernel: every scalar operation's result is
    rounded to binary16, which LAPACK cannot do, and every inner product
    is a pairwise tree of binary16 adds (_pairwise_tree).  The trailing
    block is carried in C order, in float32 rounded by _round_half while
    it is large and in numpy float16 once it is small; each reflection
    replaces it, and its row 0 goes to R.  One tree per column gives the
    norm and the reflector's products: the tree of x * [x, W] has x.x as
    its first sum, and the reflector v differs from the column x only in
    row 0, so v^T [v, W] is the same tree with the path from leaf 0
    redone against the kept siblings.  Q is never formed.

    Parameters
    ----------
    a : ndarray, shape (m, n) with m >= n
        Converted to float16 first.

    Returns
    -------
    r : ndarray, shape (n, n), float16, Fortran order
        Upper-triangular factor; subdiagonal entries are exact zeros.

    Notes
    -----
    The pivot sign convention is alpha = -sign(x_0) * norm(x) with
    sign(0) = +1, so the leading reflector entry x_0 - alpha never
    cancels.  A pivot column that is exactly zero (or whose squared norm
    underflows to zero in the working precision) raises RankDeficient.
    """
    n = a.shape[1]
    r = np.zeros((n, n), np.float16, order="F")
    block = np.asarray(a, dtype=np.float16).astype(np.float32)
    for j in range(n):
        if block.dtype == np.float32 and block.size < _ROUND_HALF_MIN_SIZE:
            block = block.astype(np.float16)
        rounding = _round_half if block.dtype == np.float32 else _unrounded
        x = block[:, :1]
        root, siblings = _pairwise_tree(rounding(x * block))
        norm = np.sqrt(root[:1].astype(np.float16))
        if norm == 0:
            raise RankDeficient(f"pivot column {j} is zero at working precision")
        alpha = -norm if x[0, 0] >= 0 else norm
        # row 0 of the block in float16, its leading entry made v's
        head = block[0].astype(np.float16)
        head[:1] -= alpha
        sums = head[:1] * head
        for sibling in siblings:
            np.add(sums, sibling, out=sums)
        vtv = sums[:1]
        if vtv == 0:
            raise RankDeficient(f"reflector {j} vanished at working precision")
        tau = np.float16(2) / vtv
        # vtv can underflow so far that 2/vtv leaves the working range;
        # that is a rank collapse at this precision, not a true overflow
        if not np.isfinite(tau):
            raise RankDeficient(
                f"reflector {j} norm underflowed at working precision")
        if j + 1 < n:
            t = tau * sums[1:]
            r[j, j + 1:] = head[1:] - head[:1] * t
            update = rounding(x[1:] * t.astype(block.dtype))
            block = rounding(np.subtract(block[1:, 1:], update, out=update))
        r[j, j] = alpha[0]
    return r


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


def _geqrf(a):
    # geqrf in place on one owned Fortran copy of the checked tall matrix a
    # in its LAPACK dtype (binary16 is promoted to binary32), so linalg.qr
    # makes no m x n copy of its own: ((reflectors, tau), r), r unchecked
    # and the triangle of the n x n top alone.
    return linalg.qr(np.array(a, dtype=np.promote_types(a.dtype, np.float32),
                              order="F"),
                     overwrite_a=True, mode="raw", check_finite=False)


def _orgqr(reflectors, tau):
    # The thin Q from geqrf's reflectors, in place on them, by the same
    # workspace query and orgqr call as linalg.qr's economic mode.
    orgqr = linalg.get_lapack_funcs("orgqr", (reflectors,))
    lwork = int(orgqr(reflectors, tau, lwork=-1, overwrite_a=1)[-2][0].real)
    return orgqr(reflectors, tau, lwork=lwork, overwrite_a=1)[0]


def householder_qr(a):
    """Thin QR of a tall matrix by LAPACK geqrf/orgqr, in place on one copy.

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
    (reflectors, tau), r = _geqrf(_tall_matrix(a))
    _check_diagonal(r, RankDeficient)
    return QRFactors(q=_orgqr(reflectors, tau), r=r)


def qr_r_factor(a):
    """Triangular factor alone of the thin QR of a tall matrix, by LAPACK.

    Same r as householder_qr(a).r: geqrf in place on one Fortran copy of
    a, without forming q.

    Raises
    ------
    DimensionMismatch
        If m < n.
    RankDeficient
        If r has an exactly zero diagonal entry.
    """
    r = _geqrf(_tall_matrix(a))[1]
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
    a = _as_matrix(a)
    if a.shape[0] < a.shape[1]:
        a = a.T
    try:
        sv = svdvals(a.astype(np.float64, copy=False), check_finite=False)
    except LinAlgError as exc:
        raise NoConvergence(f"LAPACK SVD did not converge: {exc}") from exc
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
    return ConditionDiagnostics(
        two_norm=float(sv[0]),
        two_norm_condition=cond,
        singular_values=sv,
    )


class LinearSystem:
    """A checked least-squares system min norm(a x - b): the one record of
    what the solves and diagnoses of one problem share.

    _check_system builds one per problem, with a made binary64, and checks
    a, b and x_star (None when no reference solution is known) there
    alone; _as_system builds one around a checked binary64 matrix alone.
    The functions that take a matrix or a LinearSystem check no further.
    One built directly vouches that its a is finite, in its own dtype:
    build_preconditioner wraps the demotion of a checked a in one, so the
    sketch does not check it again.  A LinearSystem stands in for its a
    where a function takes A, and so has a's shape and dtype.

    Shared products are formed once, on first use, by the expression each
    reader used on its own, so with the same bits: gram (a^T a), atb
    (a^T b), r and q (geqrf, then orgqr on its reflectors), norm_a
    (Frobenius) and diagnostics() (the SVD of a).  Those keyed by R_s are
    kept for the last r_s each was asked for: a_p(r_s) (a r_s^{-1}),
    apta(r_s) (a_p^T a), diag_rs(r_s) (the SVD of r_s) and diag_ap(r_s)
    (that of the n x n r r_s^{-1}, which has a_p's singular values).

    cost(*names) is the time the named products took to form.  A solve's
    wall_ms covers its call after the check of its inputs, plus each
    shared product it reads at the time it took to form, whoever formed it
    first: norm_a for every method, the QR for qr and sne, gram for ne,
    atb for ne and sne, apta for hpne.  A preconditioner passed in, and an
    A_p formed before the call, are not counted: they belong to
    prepare_preconditioner's step, which the pipeline's wall_ms covers.
    """

    def __init__(self, a, b=None, x_star=None):
        self.a, self.b, self.x_star = a, b, x_star
        self._made = {}

    def _shared(self, name, form, key=None):
        made = self._made.get(name)
        if made is None or made[2] is not key:
            t0 = time.perf_counter()
            with np.errstate(all="ignore"):  # its readers check the range
                made = self._made[name] = (form(), time.perf_counter() - t0,
                                           key)
        return made[0]

    @property
    def shape(self):
        return self.a.shape

    @property
    def dtype(self):
        return self.a.dtype

    def cost(self, *names):
        return sum(self._made[name][1] for name in names if name in self._made)

    @property
    def gram(self):
        return self._shared("gram", lambda: self.a.T @ self.a)

    @property
    def atb(self):
        return self._shared("atb", lambda: self.a.T @ self.b)

    @property
    def norm_a(self):
        return self._shared("norm_a",
                            lambda: float(linalg.norm(self.a.ravel())))

    def _qr(self):
        return self._shared("geqrf", lambda: _geqrf(self.a))

    @property
    def r(self):
        # unchecked: a zero pivot fails the solves, not the diagnostics
        return self._qr()[1]

    @property
    def q(self):
        return self._shared("q", lambda: _orgqr(*self._qr()[0]))

    def a_p(self, r_s):
        return self._shared("a_p", lambda: np.ascontiguousarray(
            triangular_solve(r_s, self.a.T, transposed=True).T), r_s)

    def apta(self, r_s):
        return self._shared("apta", lambda: self.a_p(r_s).T @ self.a, r_s)

    def diagnostics(self):
        """condition_diagnostics(a), from the shared R where it takes one."""
        m, n = self.a.shape
        return self._shared("diagnostics", lambda: condition_diagnostics(
            self.r if m >= 11 * n // 6 else self.a))

    def diag_rs(self, r_s):
        return self._shared("diag_rs", lambda: condition_diagnostics(r_s),
                            r_s)

    def diag_ap(self, r_s):
        return self._shared("diag_ap", lambda: condition_diagnostics(
            triangular_solve(r_s, self.r.T, transposed=True).T), r_s)


def _matrix_of(a, check=_as_matrix):
    # The matrix of a LinearSystem as it is, else the matrix a after check.
    return a.a if isinstance(a, LinearSystem) else check(a)


def _as_system(a, check=_as_matrix):
    # A LinearSystem as it is, else one around the matrix a after check,
    # made binary64.
    return a if isinstance(a, LinearSystem) else LinearSystem(
        check(a).astype(np.float64, copy=False))


def _check_system(a, b, x_star=None):
    if isinstance(a, LinearSystem):
        if b is not a.b or x_star is not a.x_star:
            raise ValueError("a LinearSystem takes its own b and x_star")
        return a
    a = _tall_matrix(a)
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1:
        raise ValueError(f"b must be 1-D, got ndim={b.ndim}")
    if not np.isfinite(b).all():
        raise ValueError("b contains non-finite entries")
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"b length {b.shape[0]} != rows {a.shape[0]}")
    if x_star is not None:
        x_star = np.asarray(x_star, dtype=np.float64)
        if x_star.shape != (a.shape[1],):
            raise DimensionMismatch(
                f"x_star shape {x_star.shape} != ({a.shape[1]},)")
        if not (np.isfinite(x_star).all() and x_star.any()):
            raise ValueError("x_star must be finite and nonzero")
    return LinearSystem(a.astype(np.float64, copy=False), b, x_star)
