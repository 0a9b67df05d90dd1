"""Tests for the randomized trig-transform sketch operator."""

import hashlib
import math

import numpy as np
import pytest

from sketchlsq import (
    DimensionMismatch,
    apply_sketch,
    make_sketch,
    sketch_from_descriptor,
)
from sketchlsq.rng import stream
from sketchlsq.sketch import _wht_rows


def _wht_reference(x):
    # The full in-place transform: every butterfly of every level, in the
    # dtype of x, then one normalizing multiply.
    n = x.shape[0]
    h = 1
    while h < n:
        blocks = x.reshape(-1, 2, h, *x.shape[1:])
        top = blocks[:, 0].copy()
        bot = blocks[:, 1].copy()
        blocks[:, 0] = top + bot
        blocks[:, 1] = top - bot
        h *= 2
    x *= x.dtype.type(1.0 / math.sqrt(n))
    return x


def _sketch_reference(op, a):
    # apply_sketch written out: sign flips, zero padding, the full
    # transform, then the sampled rows scaled by sqrt(m_pad / d)
    work = np.zeros((op.m_pad, a.shape[1]), dtype=a.dtype)
    work[:op.m] = a * op.signs[:op.m, None].astype(a.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        full = _wht_reference(work)
        return full[op.sampled_rows] * a.dtype.type(math.sqrt(op.m_pad / op.d))


def test_make_sketch_is_deterministic():
    a = make_sketch(100, 30, seed=7)
    b = make_sketch(100, 30, seed=7)
    assert np.array_equal(a.signs, b.signs)
    assert np.array_equal(a.sampled_rows, b.sampled_rows)
    c = make_sketch(100, 30, seed=8)
    assert not np.array_equal(a.sampled_rows, c.sampled_rows)


def test_sketch_descriptor_roundtrip():
    for transform in ("dct2", "wht"):
        op = make_sketch(200, 60, transform=transform, seed=5)
        clone = sketch_from_descriptor(op.descriptor())
        assert np.array_equal(op.signs, clone.signs)
        assert np.array_equal(op.sampled_rows, clone.sampled_rows)
        x = stream(5, 3).standard_normal((200, 4))
        assert np.array_equal(apply_sketch(op, x), apply_sketch(clone, x))


def test_sketch_sign_balance_and_row_range():
    op = make_sketch(10000, 50, seed=1)
    assert set(np.unique(op.signs)) == {-1.0, 1.0}
    frac = float(np.mean(op.signs > 0))
    assert 0.47 <= frac <= 0.53
    assert op.sampled_rows.min() >= 0
    assert op.sampled_rows.max() < op.m_pad


def test_make_sketch_validates_sample_count():
    with pytest.raises(ValueError):
        make_sketch(16, 17, transform="wht", seed=0)
    with pytest.raises(ValueError):
        make_sketch(16, 17, transform="dct2", seed=0)


def test_wht_oracle_and_orthogonality():
    x = _wht_rows(np.array([1.0, 0.0]), 2, np.arange(2))
    assert x == pytest.approx([1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)], rel=1e-15)
    y = stream(2, 3).standard_normal(64)
    z = _wht_rows(y.copy(), 64, np.arange(64))
    assert np.linalg.norm(z) == pytest.approx(np.linalg.norm(y), rel=1e-13)


def test_wht_rows_with_every_row_is_the_full_transform():
    for dtype in (np.float16, np.float32, np.float64):
        for m, n_pad in ((1, 1), (5, 8), (64, 64), (300, 512)):
            x = np.zeros((n_pad, 3), dtype=dtype)
            x[:m] = stream(m, 3).standard_normal((m, 3))
            full = _wht_reference(x.copy())
            assert np.array_equal(_wht_rows(x, m, np.arange(n_pad)), full)


def test_wht_sketch_equals_the_full_transform():
    """Skipping padding blocks and unread butterflies changes no bit: the
    sampled rows equal those of the full transform in every dtype, both
    where the last levels are pruned (d much below m_pad) and where no
    level is (d near m_pad)."""
    shapes = ((3000, 48, 144), (316, 16, 48), (2049, 3, 9), (64, 5, 20),
              (100, 4, 120), (3, 2, 2), (1, 1, 1))
    for m, n, d in shapes:
        for seed in range(3):
            op = make_sketch(m, d, transform="wht", seed=seed)
            a = stream(seed, 3).standard_normal((m, n))
            for dtype in (np.float16, np.float32, np.float64):
                got = apply_sketch(op, a.astype(dtype))
                assert got.dtype == dtype
                assert np.array_equal(got, _sketch_reference(op, a.astype(dtype)))


def test_wht_half_sketch_matches_pinned_digests():
    """float16 WHT sketches, bit for bit as recorded before the transform
    skipped any butterfly: 3000 rows padded to 4096 with 144 sampled, and
    316 rows padded to 512 with 48 sampled."""
    pinned = {
        (3000, 48, 144, 7):
            "e2fe00722641ffc93cc0890deec3d371d246241d3159c0bafbe48837a2430201",
        (316, 16, 48, 8):
            "f6983fe4f10fdc8b98f5631400f751850b9277e3a8f3d3119ae8001f41598b7a",
    }
    for (m, n, d, seed), digest in pinned.items():
        a = stream(seed, 3).standard_normal((m, n)).astype(np.float16)
        out = apply_sketch(make_sketch(m, d, transform="wht", seed=seed), a)
        assert out.dtype == np.float16 and out.shape == (d, n)
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest


def test_dct_half_sketch_matches_pinned_digest():
    """The float16 DCT-II sketch of 3000 rows with 144 sampled, bit for
    bit as recorded."""
    a = stream(7, 3).standard_normal((3000, 48)).astype(np.float16)
    out = apply_sketch(make_sketch(3000, 144, transform="dct2", seed=7), a)
    assert out.dtype == np.float16 and out.shape == (144, 48)
    assert hashlib.sha256(out.tobytes()).hexdigest() == (
        "771c5e58c5afab341cbf25cd5d0b5e95d1de4267f95f2629b0f70db6e8961ef9")


def test_wht_pads_to_power_of_two():
    op = make_sketch(3, 2, transform="wht", seed=0)
    assert op.m_pad == 4
    out = apply_sketch(op, np.ones((3, 1)))
    assert out.shape == (2, 1)
    assert np.all(np.isfinite(out))


def test_apply_sketch_preserves_energy_on_average():
    """Unbiased embedding: mean of the sketched squared norm matches."""
    x = stream(9, 3).standard_normal((128, 1))
    target = np.linalg.norm(x) ** 2
    for transform in ("dct2", "wht"):
        total = 0.0
        for seed in range(300):
            sx = apply_sketch(make_sketch(128, 16, transform=transform, seed=seed), x)
            total += np.linalg.norm(sx) ** 2
        assert total / 300.0 == pytest.approx(target, rel=0.1)


def test_apply_sketch_shape_gate():
    op = make_sketch(100, 20, seed=0)
    with pytest.raises(DimensionMismatch):
        apply_sketch(op, np.ones((99, 3)))


def test_apply_sketch_half_precision_stays_half():
    a = (stream(4, 3).standard_normal((64, 5)) / 8.0).astype(np.float16)
    for transform in ("dct2", "wht"):
        out = apply_sketch(make_sketch(64, 20, transform=transform, seed=3), a)
        assert out.dtype == np.float16
        assert np.all(np.isfinite(out))
