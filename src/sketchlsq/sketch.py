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
from .dense import _as_matrix, condition_diagnostics
from .errors import DimensionMismatch, NotOrthonormal

DCT2 = "dct2"
WHT = "wht"
TRANSFORMS = (DCT2, WHT)


@dataclass(frozen=True)
class EmbeddingParams:
    """Inputs to the subspace-embedding sample-size bound.

    Invariants checked at construction: m >= n >= 1, coherence mu in
    (0, 1] and at least n/m, distortion eps in (0, 1), failure probability
    delta in (0, 1).
    """

    m: int
    n: int
    mu: float
    eps: float
    delta: float

    def __post_init__(self):
        if self.n < 1 or self.m < self.n:
            raise ValueError(f"need m >= n >= 1, got m={self.m}, n={self.n}")
        if not 0 < self.mu <= 1:
            raise ValueError(f"coherence must be in (0, 1], got {self.mu}")
        if self.mu * self.m < self.n * (1 - 1e-12):
            raise ValueError(
                f"coherence {self.mu} below the floor n/m = {self.n / self.m}")
        if not 0 < self.eps < 1:
            raise ValueError(f"distortion must be in (0, 1), got {self.eps}")
        if not 0 < self.delta < 1:
            raise ValueError(
                f"failure probability must be in (0, 1), got {self.delta}")


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


def _wht_rows(x, m, rows):
    """Rows `rows` of the orthonormal Walsh-Hadamard transform of x.

    x has a power-of-two row count, and its rows from m on are +0 (the
    padding); x is overwritten.  The radix-2 butterflies are the full
    transform's: every add/sub is one rounded elementwise operation in the
    dtype of x, then one normalizing multiply, so float16 input is
    per-operation float16 throughout and each returned row is bitwise the
    full transform's.  Two kinds of butterfly are skipped.  Blocks wholly
    in the padding would only add zeros, so they are left at +0.  In the
    last levels, where the requested rows depend on at most a quarter of
    all rows, only the butterflies those rows read are computed.
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
        x, y = y, x
        span *= 2
    for h, tops in reversed(sparse):
        top = x[tops]
        bot = x[tops | h]
        x[tops] = top + bot
        x[tops | h] = top - bot
    return x[rows] * x.dtype.type(1.0 / math.sqrt(n))


def apply_sketch(op, a):
    """Apply the sketch to a, returning the d x n sketched matrix.

    All arithmetic happens in the dtype of a, with one exception: the
    DCT-II of float16 input is computed in float32 and rounded back to
    float16 (no per-operation half-precision DCT is available), while the
    Walsh-Hadamard path is per-operation float16 end to end.  The
    Walsh-Hadamard path computes only the butterflies the d sampled rows
    read, bit-identical to sampling the full transform; the DCT-II is
    computed in full and then sampled.  Only the sampled rows are scaled.

    Raises
    ------
    DimensionMismatch
        If a does not have exactly op.m rows.
    """
    a = _as_matrix(a)
    if a.shape[0] != op.m:
        raise DimensionMismatch(f"operator built for {op.m} rows, got {a.shape[0]}")
    dtype = a.dtype
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        if op.m_pad == op.m:
            work = a * op.signs[:, None].astype(dtype)
        else:
            work = np.zeros((op.m_pad, a.shape[1]), dtype=dtype)
            work[:op.m] = a * op.signs[:op.m, None].astype(dtype)
        if op.transform == WHT:
            sampled = _wht_rows(work, op.m, op.sampled_rows)
        elif dtype == np.float16:
            sampled = dct(work.astype(np.float32), type=2, axis=0,
                          norm="ortho").astype(np.float16)[op.sampled_rows]
        else:
            sampled = dct(work, type=2, axis=0, norm="ortho")[op.sampled_rows]
        return sampled * dtype.type(math.sqrt(op.m_pad / op.d))


def sample_size_lower_bound(params):
    """Smallest sample count certified by the coherence-based tail bound.

    Returns ceil(2 m mu (1 + eps/3) ln(n/delta) / eps^2).
    """
    raw = (2.0 * params.m * params.mu * (1.0 + params.eps / 3.0)
           * math.log(params.n / params.delta) / params.eps ** 2)
    return int(math.ceil(raw))


def coherence(q):
    """Largest squared row norm of a matrix with orthonormal columns.

    Raises
    ------
    NotOrthonormal
        If norm(q^T q - I, 2) exceeds 1e-10.
    """
    q = _as_matrix(q, "q")
    n = q.shape[1]
    dev = q.T @ q - np.eye(n)
    if condition_diagnostics(dev).two_norm > 1e-10:
        raise NotOrthonormal("columns are not orthonormal to 1e-10")
    return float(np.einsum("ij,ij->i", q, q).max())
