"""Floating-point precision emulation and automatic selection.

binary32 and binary64 run natively.  binary16 is emulated on top of numpy
float16, whose elementwise operations round to nearest (ties to even) after
every scalar operation; reductions that numpy would otherwise accumulate in
higher precision are replaced by explicit pairwise trees of float16 adds.

Two unit-roundoff constants live on each level: `unit_roundoff` is the true
round-to-nearest half-ulp (2^-11, 2^-24, 2^-53) describing storage, while
`bound_roundoff` follows the machine-epsilon convention (2^-11, 2^-23,
2^-52) conventionally substituted into perturbation bounds.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dense import (
    QRFactors,
    accumulate_thin_q,
    cholesky_factor,
    hager_one_norm_inverse_estimate,
    householder_qr,
    householder_reduce,
    triangular_solve,
    _as_matrix,
)
from .errors import DimensionMismatch, NotPositiveDefinite, Overflow, RankDeficient


@dataclass(frozen=True)
class PrecisionLevel:
    """One of the three IEEE binary formats the package computes in."""

    name: str
    unit_roundoff: float
    bound_roundoff: float
    dtype: type


BINARY16 = PrecisionLevel("binary16", 2.0 ** -11, 2.0 ** -11, np.float16)
BINARY32 = PrecisionLevel("binary32", 2.0 ** -24, 2.0 ** -23, np.float32)
BINARY64 = PrecisionLevel("binary64", 2.0 ** -53, 2.0 ** -52, np.float64)

_BY_NAME = {
    "binary16": BINARY16, "half": BINARY16,
    "binary32": BINARY32, "single": BINARY32,
    "binary64": BINARY64, "double": BINARY64,
}

_NEXT_HIGHER = {"binary16": BINARY32, "binary32": BINARY64}


def level_from_name(name):
    """Look up a PrecisionLevel by IEEE name or half/single/double alias."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown precision name {name!r}") from None


def next_higher(level):
    """The next wider precision, or None above binary64."""
    return _NEXT_HIGHER.get(level.name)


@dataclass(frozen=True)
class PrecisionDecision:
    """Outcome of the automatic precision choice.

    kappa0 is the estimated log10 condition number (NaN when the estimate
    overflowed); selected is binary64 exactly when kappa0 > 8 or the
    estimate overflowed.
    """

    kappa0: float
    selected: PrecisionLevel
    overflowed: bool


@dataclass(frozen=True)
class RoundedMatrix:
    """Demotion result: data in the target dtype plus an overflow flag."""

    data: np.ndarray
    overflowed: bool


def round_to_precision(a, level):
    """Round every entry of a to the given precision.

    Values exceeding the target's largest finite value become signed
    infinity and set the overflowed flag; they are never silently clamped.
    Rounding to binary64 is the identity on finite binary64 input, and
    rounding is idempotent: re-rounding an already-rounded array returns
    identical values.
    """
    a = np.asarray(a)
    with np.errstate(over="ignore"):
        data = a.astype(level.dtype)
    overflowed = bool((np.isinf(data) & np.isfinite(a)).any())
    return RoundedMatrix(data=data, overflowed=overflowed)


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


class _HalfOps:
    """Householder arithmetic with every scalar operation rounded to float16."""

    @staticmethod
    def dot(u, v):
        return _pairwise_sum(u * v)

    @staticmethod
    def vec_mat(v, m):
        return _pairwise_sum(v[:, None] * m)

    @staticmethod
    def rank1_sub(m, v, w):
        m -= v[:, None] * w[None, :]

    @staticmethod
    def scale(t, v):
        return t * v

    @staticmethod
    def sqrt(s):
        return np.sqrt(s)

    @staticmethod
    def div(a, b):
        return a / b

    @staticmethod
    def sub(a, b):
        return a - b


HALF_OPS = _HalfOps()


def qr_in_precision(a, level):
    """Householder QR with all arithmetic performed in the given precision.

    Returns factors promoted to binary64 storage; every value is the exact
    promotion of the precision-level result.  binary32 runs LAPACK sgeqrf
    on the rounded input.  The binary16 path pre-scales
    the input by an exact power of two so the largest entry sits in
    [0.5, 1), runs the emulated float16 kernel, and un-scales the
    triangular factor after promotion (the un-scaled factor itself may
    exceed the binary16 range, which is why un-scaling waits until after
    promotion).

    qr_in_precision(a, binary64) delegates to householder_qr and is
    bit-identical to it.

    Raises
    ------
    RankDeficient
        If a pivot column vanishes at the working precision.
    Overflow
        If demotion overflows or the emulated computation produces
        non-finite values despite the pre-scaling.
    """
    a = _as_matrix(a)
    m, n = a.shape
    if m < n:
        raise DimensionMismatch(f"need rows >= cols, got {m} x {n}")
    if level.name == "binary64":
        return householder_qr(a.astype(np.float64))
    if level.name == "binary32":
        rounded = round_to_precision(a, level)
        if rounded.overflowed:
            raise Overflow("input exceeds the binary32 range")
        factors = householder_qr(rounded.data)
        return QRFactors(q=factors.q.astype(np.float64),
                         r=factors.r.astype(np.float64))
    # binary16: exact power-of-two pre-scaling keeps the kernel in range
    work = a.astype(np.float64)
    maxabs = float(np.abs(work).max())
    if maxabs == 0:
        raise RankDeficient("zero matrix")
    _, exp = math.frexp(maxabs)
    scale = 2.0 ** -exp
    rounded = round_to_precision(work * scale, BINARY16)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        reflectors, taus, r16 = householder_reduce(rounded.data, HALF_OPS)
        q16 = accumulate_thin_q(reflectors, taus, m, n, ops=HALF_OPS,
                                dtype=np.float16)
    if not (np.isfinite(q16).all() and np.isfinite(r16).all()):
        raise Overflow("binary16 computation produced non-finite values")
    return QRFactors(q=q16.astype(np.float64), r=r16.astype(np.float64) / scale)


def estimate_log10_condition(a):
    """Cheap estimate of log10 of the condition number via the Gram matrix.

    Forms G = a^T a, factors it by Cholesky with no fallback, and
    estimates norm(G^{-1}, 1) with at most five Hager iterations of
    triangular solves.  kappa0 = 0.5 * log10(n * norm(G,1) * estimate)
    since n * norm(G,1) * norm(G^{-1},1) bounds the squared two-norm
    condition number of a.

    Everything runs in binary64.  That places the Cholesky breakdown
    frontier at kappa(G) ~ 1/u, i.e. kappa(a) ~ 1e8: exactly the boundary
    of the kappa0 > 8 selection band, so breakdown is informative (the
    Gram matrix of such input cannot be resolved at working precision and
    the preconditioner must be computed in binary64 anyway).

    Returns
    -------
    (kappa0, overflowed) : tuple of float and bool
        overflowed is True when any intermediate is non-finite or the
        Cholesky breaks down; kappa0 is NaN in that case.
    """
    a = _as_matrix(a)
    n = a.shape[1]
    work = a.astype(np.float64)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        g = work.T @ work
        if not np.isfinite(g).all():
            return (math.nan, True)
        norm1 = float(np.abs(g).sum(axis=0).max())
        if norm1 == 0 or not math.isfinite(norm1):
            return (math.nan, True)
        try:
            ell = cholesky_factor(g)
        except NotPositiveDefinite:
            return (math.nan, True)
        upper = np.asfortranarray(ell.T)

        def solve(rhs, transposed):
            # G is symmetric so the transposed solve is the same solve
            y = triangular_solve(upper, rhs, transposed=True)
            return triangular_solve(upper, y, transposed=False)

        est = hager_one_norm_inverse_estimate(solve, n)
    value = n * norm1 * est
    if not math.isfinite(value) or value <= 0:
        return (math.nan, True)
    return (0.5 * math.log10(value), False)


def select_precision(kappa0, overflowed):
    """Algorithm box for the preconditioner precision.

    binary16 when kappa0 < 4, binary32 when kappa0 <= 8, binary64 when the
    estimate exceeds 8 or overflowed.
    """
    if overflowed or not math.isfinite(kappa0):
        return BINARY64
    if kappa0 < 4:
        return BINARY16
    if kappa0 <= 8:
        return BINARY32
    return BINARY64


def decide_precision(a):
    """Estimate kappa0 and select the preconditioner precision in one step."""
    kappa0, overflowed = estimate_log10_condition(a)
    return PrecisionDecision(
        kappa0=kappa0,
        selected=select_precision(kappa0, overflowed),
        overflowed=overflowed,
    )
