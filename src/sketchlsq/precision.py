"""Floating-point precision emulation and automatic selection.

binary32 and binary64 run natively (LAPACK).  binary16 is emulated on top
of numpy float16, whose elementwise operations round to nearest (ties to
even) after every scalar operation; reductions that numpy would otherwise
accumulate in higher precision are replaced by explicit pairwise trees of
float16 adds.  The one hand-written binary16 kernel is
dense.householder_reduce, behind qr_in_precision, the one low-precision
factorization, which returns R alone.

Two unit-roundoff constants live on each level: `unit_roundoff` is the true
round-to-nearest half-ulp (2^-11, 2^-24, 2^-53) describing storage, while
`bound_roundoff` follows the machine-epsilon convention (2^-11, 2^-23,
2^-52) conventionally substituted into perturbation bounds.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpocon

from .dense import (
    cholesky_factor,
    householder_reduce,
    qr_r_factor,
    _as_matrix,
    _tall_matrix,
)
from .errors import NotPositiveDefinite, Overflow, RankDeficient


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


def qr_in_precision(a, level):
    """Triangular factor R of the QR of a, computed in the given precision.

    Returns R alone, promoted to binary64 storage; every value is the exact
    promotion of the precision-level result.  Q is never formed.
    binary32/64 run LAPACK geqrf (qr_r_factor) on the input rounded to the
    level, so qr_in_precision(a, BINARY64) is qr_r_factor(a).  binary16
    pre-scales the input by an exact power of two so the largest entry
    sits in [0.5, 1), runs the emulated float16 Householder reduction
    (householder_reduce), and un-scales R after promotion, since the
    un-scaled factor itself may exceed the binary16 range.

    Raises
    ------
    RankDeficient
        If a pivot column vanishes at the working precision.
    Overflow
        If demotion overflows or the emulated computation produces
        non-finite values despite the pre-scaling.
    """
    a = _tall_matrix(a)
    if level.name != "binary16":
        rounded = round_to_precision(a, level)
        if rounded.overflowed:
            raise Overflow(f"input exceeds the {level.name} range")
        return qr_r_factor(rounded.data).astype(np.float64, copy=False)
    work = a.astype(np.float64)
    maxabs = float(np.abs(work).max())
    if maxabs == 0:
        raise RankDeficient("zero matrix")
    scale = 2.0 ** -math.frexp(maxabs)[1]
    rounded = round_to_precision(work * scale, BINARY16)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        r16 = householder_reduce(rounded.data)
    if not np.isfinite(r16).all():
        raise Overflow("binary16 computation produced non-finite values")
    return r16.astype(np.float64) / scale


def estimate_log10_condition(a):
    """Cheap estimate of log10 of the condition number via the Gram matrix.

    Forms G = a^T a, factors it by Cholesky with no fallback, and has
    LAPACK dpocon estimate the reciprocal condition number
    rcond = 1 / (norm(G,1) * norm(G^{-1},1)) from the Cholesky factor
    (Hager's method with Higham's refinements, which never overstates
    norm(G^{-1},1)).  kappa0 = 0.5 * log10(n / rcond), since
    n * norm(G,1) * norm(G^{-1},1) bounds the squared two-norm condition
    number of a.

    Everything runs in binary64.  That places the Cholesky breakdown
    frontier at kappa(G) ~ 1/u, i.e. kappa(a) ~ 1e8: exactly the boundary
    of the kappa0 > 8 selection band, so breakdown is informative (the
    Gram matrix of such input cannot be resolved at working precision and
    the preconditioner must be computed in binary64 anyway).

    Returns
    -------
    (kappa0, overflowed) : tuple of float and bool
        overflowed is True when any intermediate is non-finite, rcond is
        zero or the Cholesky breaks down; kappa0 is NaN in that case.
    """
    a = _as_matrix(a)
    n = a.shape[1]
    work = a.astype(np.float64, copy=False)
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
        rcond, _ = dpocon(ell, norm1, uplo="L")
    if rcond == 0 or not math.isfinite(n / rcond):
        return (math.nan, True)
    return (0.5 * math.log10(n / rcond), False)


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


def resolve_precision(a, precision):
    """The preconditioner precision for a, as (level, decision).

    precision is "auto" (decide_precision estimates kappa0 and decision is
    its result), a precision name, or a PrecisionLevel (decision is None).
    """
    if isinstance(precision, PrecisionLevel):
        return precision, None
    if precision == "auto":
        decision = decide_precision(a)
        return decision.selected, decision
    return level_from_name(precision), None
