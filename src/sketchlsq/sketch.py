"""Randomized trigonometric sketch operators.

The operator is Omega = sqrt(m_pad/d) * S * F * D applied from the left:
D flips row signs, F is an orthogonal trigonometric transform (orthonormal
DCT-II by default, or a Walsh-Hadamard transform with zero-padding to the
next power of two), and S samples d rows uniformly with replacement.  The
scaling makes E[Omega^T Omega] the identity on the padded space; it cancels
in the preconditioned system but keeps sketched norms unbiased.

Operators are deterministic functions of (m, d, transform, seed) and can be
reconstructed from a four-field JSON descriptor.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct

from . import rng
from .dense import _matrix_of, _round_half, _unrounded
from .errors import DimensionMismatch

DCT2 = "dct2"
WHT = "wht"
TRANSFORMS = (DCT2, WHT)


@dataclass(frozen=True)
class SketchOperator:
    """A realized sketch: sign flips, transform choice, and sampled rows.

    signs has length m_pad (the padded height for wht, m for dct2);
    sampled_rows holds d indices into the padded transform output, drawn
    uniformly with replacement.
    """

    m: int
    d: int
    transform: str
    seed: int
    signs: np.ndarray
    sampled_rows: np.ndarray

    @property
    def m_pad(self):
        return self.signs.shape[0]

    def descriptor(self):
        """JSON-ready dict from which make_sketch rebuilds this operator."""
        return {"m": self.m, "d": self.d, "transform": self.transform,
                "seed": self.seed}


def _next_pow2(m):
    return 1 << max(m - 1, 0).bit_length() if m > 1 else 1


def make_sketch(m, d, transform=DCT2, seed=0):
    """Draw a sketch operator for m-row inputs with d output rows.

    Signs and row indices come from two independent lanes of a counter
    based generator keyed by seed, so equal arguments give bitwise equal
    operators.

    Raises
    ------
    ValueError
        If m < 1, d < 1, d exceeds the (padded) height, or the transform
        name is unknown.
    """
    if transform not in TRANSFORMS:
        raise ValueError(f"unknown transform {transform!r}, expected {TRANSFORMS}")
    if m < 1 or d < 1:
        raise ValueError(f"need m >= 1 and d >= 1, got m={m}, d={d}")
    m_pad = _next_pow2(m) if transform == WHT else m
    if d > m_pad:
        raise ValueError(f"sample count d={d} exceeds padded height {m_pad}")
    signs = rng.stream(seed, rng.LANE_SKETCH_SIGNS).integers(0, 2, m_pad) * 2.0 - 1.0
    rows = rng.stream(seed, rng.LANE_SKETCH_ROWS).integers(0, m_pad, d)
    return SketchOperator(m=int(m), d=int(d), transform=transform,
                          seed=int(seed), signs=signs, sampled_rows=rows)


def sketch_from_descriptor(desc):
    """Rebuild a SketchOperator from its four-field descriptor dict."""
    return make_sketch(int(desc["m"]), int(desc["d"]), desc["transform"],
                       int(desc["seed"]))


def _wht_rows(x, m, rows, rounding=_unrounded):
    """Rows `rows` of the orthonormal Walsh-Hadamard transform of x.

    x has a power-of-two row count, and its rows from m on are +0 (the
    padding); x is overwritten.  The radix-2 butterflies are the full
    transform's: every add/sub is one elementwise operation in the dtype
    of x, then one normalizing multiply, so each returned row is bitwise
    the full transform's.  rounding rounds every result in place, the
    normalizing constant included, and a dense level lends it the level's
    source as spare room; apply_sketch carries binary16 values
    in float32 and passes dense._round_half, which gives the bits of
    binary16 arithmetic.  Two kinds of butterfly are skipped.  Blocks
    wholly in the padding would only add zeros, so they are left at +0.
    In the last levels, where the requested rows depend on at most a
    quarter of all rows, only the butterflies those rows read are
    computed.
    """
    n = x.shape[0]
    # Needed butterflies of the last levels, from the output back: output
    # row i of the level with span h reads rows i & ~h and i | h.
    sparse = []
    need = np.unique(rows)
    h = n // 2
    while h >= 1:
        tops = np.unique(need & ~h)
        if 8 * tops.size > n:
            break
        sparse.append((h, tops))
        need = np.concatenate([tops, tops | h])
        h //= 2
    # Dense levels span 1 .. h, alternating between x and a second buffer.
    # Rows no level has written stay +0 in both.
    y = np.zeros_like(x)
    span = 1
    while span <= h:
        live = -(-m // (2 * span)) * 2 * span
        src = x[:live].reshape(-1, 2, span, *x.shape[1:])
        dst = y[:live].reshape(-1, 2, span, *x.shape[1:])
        np.add(src[:, 0], src[:, 1], out=dst[:, 0])
        np.subtract(src[:, 0], src[:, 1], out=dst[:, 1])
        rounding(y[:live], spare=x[:live])
        x, y = y, x
        span *= 2
    for h, tops in reversed(sparse):
        top = x[tops]
        bot = x[tops | h]
        x[tops] = rounding(top + bot)
        x[tops | h] = rounding(top - bot)
    scale = rounding(np.full(1, 1.0 / math.sqrt(n), dtype=x.dtype))
    return rounding(x[rows] * scale)


def apply_sketch(op, a):
    """Apply the sketch to a, returning the d x n sketched matrix.

    a is a matrix or a dense.LinearSystem, whose a is taken as checked.
    Arithmetic happens in the dtype of a.  binary16 is emulated: float16
    input is carried in float32, where the sign flips are exact, and the
    Walsh-Hadamard butterflies and the final scaling round every result
    to binary16 (dense._round_half), bit for bit binary16 arithmetic.
    The DCT-II of float16 input is computed in float32 and only its
    sampled rows are rounded to binary16 (no per-operation half-precision
    DCT is available).  The Walsh-Hadamard path computes only the
    butterflies the d sampled rows read, bit-identical to sampling the
    full transform.  Only the sampled rows are scaled.

    Raises
    ------
    DimensionMismatch
        If a does not have exactly op.m rows.
    """
    a = _matrix_of(a)
    if a.shape[0] != op.m:
        raise DimensionMismatch(f"operator built for {op.m} rows, got {a.shape[0]}")
    dtype = a.dtype
    half = dtype == np.float16
    carry = np.dtype(np.float32) if half else dtype
    rounding = _round_half if half else _unrounded
    signs = op.signs[:op.m, None].astype(carry)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        if op.transform == WHT:
            work = np.zeros((op.m_pad, a.shape[1]), dtype=carry)
            np.multiply(a, signs, out=work[:op.m])
            sampled = _wht_rows(work, op.m, op.sampled_rows, rounding)
        else:
            signed = a.astype(carry, copy=False) * signs
            sampled = rounding(
                dct(signed, type=2, axis=0, norm="ortho")[op.sampled_rows])
        sampled *= carry.type(dtype.type(math.sqrt(op.m_pad / op.d)))
        return rounding(sampled).astype(dtype, copy=False)
