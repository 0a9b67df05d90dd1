"""Tests for low-precision emulation and the precision selector."""

import hashlib
import math

import numpy as np
import pytest
import scipy.linalg

from sketchlsq import (
    BINARY16,
    BINARY32,
    BINARY64,
    RankDeficient,
    apply_sketch,
    decide_precision,
    estimate_log10_condition,
    generate_problem,
    householder_qr,
    make_sketch,
    qr_in_precision,
    round_to_precision,
    select_precision,
    triangular_with_condition,
)
from sketchlsq.dense import _pairwise_sum
from sketchlsq.precision import _BY_NAME, next_higher
from sketchlsq.probgen import random_orthogonal_columns
from sketchlsq.rng import mix64, stream


def _planted(m, n, kappa, seed):
    q = random_orthogonal_columns(m, n, mix64(seed, 1))
    r = triangular_with_condition(n, kappa, mix64(seed, 2))
    return q @ r


def test_level_constants():
    assert BINARY16.unit_roundoff == 2.0 ** -11
    assert BINARY32.unit_roundoff == 2.0 ** -24
    assert BINARY32.bound_roundoff == 2.0 ** -23
    assert BINARY64.unit_roundoff == 2.0 ** -53
    assert _BY_NAME["half"] is BINARY16
    assert _BY_NAME["single"] is BINARY32
    assert _BY_NAME["double"] is BINARY64
    assert next_higher(BINARY16) is BINARY32
    assert next_higher(BINARY32) is BINARY64


def test_round_to_precision_oracle():
    out = round_to_precision(np.array([0.1]), BINARY16)
    assert not out.overflowed
    assert float(out.data[0]) == 0.0999755859375
    assert out.data.dtype == np.float16


def test_round_to_precision_identity_and_idempotence():
    x = stream(3, 3).standard_normal(50)
    assert np.array_equal(round_to_precision(x, BINARY64).data, x)
    once = round_to_precision(x, BINARY16).data
    assert np.array_equal(round_to_precision(once, BINARY16).data, once)


def test_round_to_precision_overflow_flag():
    out = round_to_precision(np.array([70000.0, -1e40]), BINARY16)
    assert out.overflowed
    assert np.isinf(out.data).all()
    assert not round_to_precision(np.array([65504.0]), BINARY16).overflowed
    assert round_to_precision(np.array([1e39]), BINARY32).overflowed


def test_pairwise_sum_matches_exact():
    x = np.arange(1.0, 1002.0)
    assert _pairwise_sum(x) == 1001.0 * 1002.0 / 2.0


def test_qr_in_precision_double_is_the_native_kernel():
    a = _planted(60, 10, 1e3, seed=4)
    assert np.array_equal(qr_in_precision(a, BINARY64), householder_qr(a).r)


def test_qr_in_precision_error_scales_with_unit_roundoff():
    """The Gram error of R tracks the emulated precision, with a clear
    gap between binary16 and binary32 on the same input."""
    for seed in range(4):
        a = _planted(50, 8, 10.0, seed=seed)
        gram = a.T @ a
        norm2 = np.linalg.norm(a) ** 2
        errs = {}
        for level in (BINARY16, BINARY32, BINARY64):
            r = qr_in_precision(a, level)
            assert r.dtype == np.float64
            errs[level.name] = np.linalg.norm(r.T @ r - gram) / norm2
            assert errs[level.name] <= 50.0 * level.unit_roundoff
        assert errs["binary16"] >= 10.0 * errs["binary32"]
        assert errs["binary32"] >= 10.0 * errs["binary64"]


def test_qr_in_precision_prescale_is_exact():
    # power-of-two input scaling must pass through binary16 emulation exactly
    a = _planted(40, 6, 10.0, seed=9)
    base = qr_in_precision(a, BINARY16)
    for k in (3, -5):
        scaled = qr_in_precision(a * 2.0 ** k, BINARY16)
        assert np.array_equal(scaled, base * 2.0 ** k)


def test_estimate_identity_oracle():
    # G = I: norm1 = 1, inverse estimate = 1, so 0.5 * log10(n)
    kappa0, overflowed = estimate_log10_condition(np.eye(100))
    assert not overflowed
    assert kappa0 == 1.0


def test_estimate_diagonal_oracle():
    # G = diag(1, 1/4, 1/16): norm1(G) = 1, norm1(G^-1) = 16, so n * 16 = 48
    assert estimate_log10_condition(np.diag([1.0, 0.5, 0.25])) == (
        0.5 * math.log10(48.0), False)


def test_estimate_tracks_planted_condition():
    for seed in range(5):
        for kappa, lo, hi in ((1e2, 1.8, 3.0), (1e4, 3.8, 5.0), (1e6, 5.8, 7.0)):
            a = _planted(300, 24, kappa, seed=seed)
            kappa0, overflowed = estimate_log10_condition(a)
            assert not overflowed
            assert lo <= kappa0 <= hi


def test_estimate_upper_bounds_true_condition():
    """n * norm1(G) * est(G^-1) dominates kappa(A)^2, so the log estimate
    is at least log10 kappa, checked against an explicit inverse."""
    for seed in range(5):
        a = _planted(120, 16, 1e3, seed=seed)
        g = a.T @ a
        exact = 16 * np.abs(g).sum(axis=0).max() * np.abs(np.linalg.inv(g)).sum(axis=0).max()
        kappa0, _ = estimate_log10_condition(a)
        assert kappa0 <= 0.5 * math.log10(exact) + 1e-9
        # the inverse-norm estimate stays within a factor 3 of the exact one
        assert kappa0 >= 0.5 * math.log10(exact / 3)
        assert kappa0 >= 3.0


def test_estimate_overflow_path():
    a = _planted(200, 20, 1e10, seed=0)
    kappa0, overflowed = estimate_log10_condition(a)
    assert overflowed
    assert math.isnan(kappa0)


def test_estimate_zero_rcond_is_overflow():
    # G = diag(1e300, 1e-300) and its Cholesky factor are finite, but
    # rcond = 1 / (norm1(G) norm1(G^-1)) = 1e-600 underflows to zero
    kappa0, overflowed = estimate_log10_condition(np.diag([1e150, 1e-150]))
    assert overflowed
    assert math.isnan(kappa0)


def test_select_precision_thresholds():
    assert select_precision(3.9, False) is BINARY16
    assert select_precision(4.0, False) is BINARY32
    assert select_precision(8.0, False) is BINARY32
    assert select_precision(8.1, False) is BINARY64
    assert select_precision(5.0, True) is BINARY64
    assert select_precision(math.nan, True) is BINARY64


def test_select_precision_is_monotone():
    order = {"binary16": 0, "binary32": 1, "binary64": 2}
    last = 0
    for kappa0 in np.linspace(0.0, 12.0, 49):
        rank = order[select_precision(float(kappa0), False).name]
        assert rank >= last
        last = rank


def test_decide_precision_composes():
    decision = decide_precision(_planted(200, 20, 1e2, seed=1))
    assert decision.selected is BINARY16
    assert not decision.overflowed
    assert 1.5 <= decision.kappa0 <= 3.5
    decision = decide_precision(_planted(200, 20, 1e10, seed=1))
    assert decision.selected is BINARY64
    assert decision.overflowed


def test_qr_in_precision_single_is_lapack_sgeqrf():
    a = _planted(60, 10, 1e3, seed=5)
    ref = scipy.linalg.qr(a.astype(np.float32), mode="economic")[1]
    assert ref.dtype == np.float32
    got = qr_in_precision(a, BINARY32)
    assert got.dtype == np.float64
    assert np.array_equal(got, ref.astype(np.float64))


def test_qr_in_precision_half_matches_pinned_factors():
    """The emulated binary16 kernel reproduces R factors recorded from
    earlier releases, bit for bit.  The inputs come from the package's
    own Philox streams, not from LAPACK, so the pins hold on any BLAS."""
    a = 3.0 * stream(17, 3).standard_normal((8, 3))
    r = np.array([
        [9.7421875, 3.1015625, 2.033203125],
        [0.0, -8.8984375, 2.3359375],
        [0.0, 0.0, -6.00390625],
    ])
    got = qr_in_precision(a, BINARY16)
    assert np.array_equal(got, r)
    # the kernel's Fortran order is kept: LAPACK's triangular solve with R
    # rounds differently on the transposed layout, so solves depend on it
    assert got.flags.f_contiguous
    # a larger case, where the pairwise reduction trees are deeper
    a = 3.0 * stream(17, 3).standard_normal((40, 6))
    digest = hashlib.sha256(qr_in_precision(a, BINARY16).tobytes()).hexdigest()
    assert digest == (
        "0d7a21faf1f2dd38a7aeb742f252c285e708a8cddfc895fe542fe80752695db2")


def _half_sketch(m, n, kappa, seed, transform="dct2"):
    p = generate_problem(m, n, kappa, 1e-6, seed)
    op = make_sketch(m, 3 * n, transform, seed)
    return apply_sketch(op, round_to_precision(p.a, BINARY16).data)


def test_qr_in_precision_raises_rank_deficient():
    # a kappa 1e6 sketch forced to binary16 collapses in the reduction
    a = _half_sketch(600, 40, 1e6, seed=0)
    with pytest.raises(RankDeficient) as exc:
        qr_in_precision(a, BINARY16)
    assert str(exc.value) == "reflector 19 norm underflowed at working precision"
    zero_column = np.outer(np.arange(1.0, 6.0), [1.0, 0.0])
    for level in (BINARY16, BINARY32, BINARY64):
        with pytest.raises(RankDeficient):
            qr_in_precision(zero_column, level)
