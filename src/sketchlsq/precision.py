"""Floating-point precision emulation and automatic selection.

binary32 and binary64 run natively (LAPACK).  binary16 is emulated: the
result of every scalar operation is rounded to the nearest binary16 value
(ties to even).  Large arrays carry binary16 values in float32 and round
by dense._round_half (float32 arithmetic on the magnitude, bit operations
on the sign); small ones compute in numpy float16, whose ops round once
from float32.  float32 has enough bits (24 >= 2 * 11 + 2) that both give
the bits of the binary16 operation for + - * / and sqrt.  Inner products
are explicit pairwise trees of binary16 adds, not numpy's reductions.
The one hand-written binary16 kernel is dense.householder_reduce, behind
qr_in_precision, the one low-precision factorization, which returns R
alone; it builds one tree per column for the column norm and the
reflector's products together.  Its time is emulation cost, never a
speedup: numpy computes binary16 in software on a CPU.

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
    _as_system,
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


def round_to_precision(a, level):
    """Round every entry of a to the given precision; returns the array.

    A finite entry exceeding the target's largest finite value raises
    Overflow; it is never silently clamped.  An array already in the
    level's dtype is returned itself, not a copy (binary64 input at
    binary64, the binary32 sketch at binary32), so callers must not write
    into the result.  Rounding is idempotent: re-rounding an
    already-rounded array returns identical values.
    """
    a = np.asarray(a)
    if a.dtype == level.dtype:
        return a
    with np.errstate(over="ignore"):
        data = a.astype(level.dtype)
    if level.dtype is np.float16:
        # numpy runs isinf element by element on float16; the same test on
        # the bits (exponent all ones, mantissa zero) is vectorized
        inf = (data.view(np.uint16) & 0x7FFF) == 0x7C00
    else:
        inf = np.isinf(data)
    if inf.any() and np.isfinite(a[inf]).any():
        raise Overflow(f"input exceeds the {level.name} range")
    return data


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
        return qr_r_factor(round_to_precision(a, level)).astype(
            np.float64, copy=False)
    work = a.astype(np.float64, copy=False)
    maxabs = float(np.abs(work).max())
    if maxabs == 0:
        raise RankDeficient("zero matrix")
    # ldexp, as 2.0 ** -e leaves the float range for maxabs below 2^-1022
    e = math.frexp(maxabs)[1]
    rounded = round_to_precision(np.ldexp(work, -e), BINARY16)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        r16 = householder_reduce(rounded)
    if not np.isfinite(r16).all():
        raise Overflow("binary16 computation produced non-finite values")
    return np.ldexp(r16.astype(np.float64), e)


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

    a is a matrix, or a dense.LinearSystem whose shared Gram matrix is read.

    Returns
    -------
    (kappa0, overflowed) : tuple of float and bool
        overflowed is True when any intermediate is non-finite, rcond is
        zero or the Cholesky breaks down; kappa0 is NaN in that case.
    """
    system = _as_system(a)
    n = system.a.shape[1]
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        g = system.gram
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
    """Estimate kappa0 and select the preconditioner precision in one step.

    a is as for estimate_log10_condition: a matrix or a dense.LinearSystem.
    """
    kappa0, overflowed = estimate_log10_condition(a)
    return PrecisionDecision(
        kappa0=kappa0,
        selected=select_precision(kappa0, overflowed),
        overflowed=overflowed,
    )

