"""Tests for synthetic least-squares problem generation and archives."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from sketchlsq import (
    condition_diagnostics,
    generate_problem,
    load_problem,
    random_orthogonal_columns,
    save_problem,
    triangular_with_condition,
)


def test_generated_problem_contracts():
    """Planted solution has unit norm, the residual has the requested
    norm, and it is orthogonal to the range of A."""
    for seed in range(10):
        rho = (0.0, 1e-8, 1e-2, 1.0)[seed % 4]
        kappa = (1.0, 1e2, 1e4)[seed % 3]
        p = generate_problem(300, 24, kappa, rho, seed=seed)
        assert abs(np.linalg.norm(p.x_star) - 1.0) <= 1e-14
        r = p.b - p.a @ p.x_star
        assert abs(np.linalg.norm(r) - rho) <= 1e-12 * rho + 1e-14
        assert np.linalg.norm(p.a.T @ r) <= 1e-12 * rho + 1e-14
        assert p.m == 300 and p.n == 24


def test_generated_condition_number_hits_target():
    for seed in range(4):
        for kappa in (1.0, 1e2, 1e6):
            p = generate_problem(200, 16, kappa, 0.0, seed=seed)
            diag = condition_diagnostics(p.a)
            assert diag.two_norm_condition == pytest.approx(kappa, rel=0.01)


def test_generate_problem_is_deterministic():
    p = generate_problem(120, 10, 1e3, 1e-4, seed=42)
    q = generate_problem(120, 10, 1e3, 1e-4, seed=42)
    assert np.array_equal(p.a, q.a)
    assert np.array_equal(p.b, q.b)
    assert np.array_equal(p.x_star, q.x_star)
    other = generate_problem(120, 10, 1e3, 1e-4, seed=43)
    assert not np.array_equal(p.a, other.a)


def test_zero_rho_gives_consistent_system():
    p = generate_problem(90, 8, 1e2, 0.0, seed=3)
    assert np.array_equal(p.b, p.a @ p.x_star)


def test_generate_problem_validation():
    with pytest.raises(ValueError):
        generate_problem(10, 20, 1e2, 0.0, seed=0)
    with pytest.raises(ValueError):
        generate_problem(100, 10, 0.5, 0.0, seed=0)
    with pytest.raises(ValueError):
        generate_problem(100, 10, 1e2, -1.0, seed=0)


def test_triangular_with_condition_shape_and_spectrum():
    r = triangular_with_condition(12, 1e4, seed=7)
    assert np.all(r[np.tril_indices(12, -1)] == 0.0)
    diag = condition_diagnostics(r)
    assert diag.two_norm_condition == pytest.approx(1e4, rel=1e-6)
    with pytest.raises(ValueError):
        triangular_with_condition(1, 1e2, seed=0)


def test_random_orthogonal_columns():
    q = random_orthogonal_columns(50, 7, seed=5)
    assert q.shape == (50, 7)
    assert np.linalg.norm(q.T @ q - np.eye(7)) <= 1e-13


def test_generated_problems_match_pinned_digests():
    """a, b and x* of workload-shaped problems, bit for bit as recorded
    (OpenBLAS 0.3.31 on x86-64): one sha256 over the three arrays."""
    pinned = {
        (2000, 32, 1e6, 1):
            "f0e763c2276ed1ab4de8be36b6ddec5b79a2bfdb18b7c91c1c60854eab765df4",
        (2000, 32, 1e6, 2):
            "f8d9a1cc549e83b2f570e2aaed52ca19256a8eb88dd0b623a74af039c6c375a5",
        (3000, 48, 1e2, 1):
            "467aff6763c36ec419f20de58b6e33d5955b9608b527ff41724a7d33381a6202",
        (3000, 48, 1e2, 2):
            "ba2bf408a787815e3cad1716ddde7c085cee0543efaa3614f5f933e98e92a899",
    }
    for (m, n, kappa, seed), digest in pinned.items():
        p = generate_problem(m, n, kappa, 1e-6, seed)
        h = hashlib.sha256()
        for x in (p.a, p.b, p.x_star):
            h.update(x.tobytes())
        assert h.hexdigest() == digest


def test_random_orthogonal_columns_allocates_two_m_by_k_arrays():
    """The Gaussian and the one copy that LAPACK turns into Q in place."""
    tracemalloc.start()
    try:
        random_orthogonal_columns(2000, 32, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * 2000 * 32 * 8


def test_archive_roundtrip_is_bitwise(tmp_path):
    p = generate_problem(64, 6, 1e3, 1e-6, seed=11)
    root = tmp_path / "prob"
    save_problem(p, root)
    q = load_problem(root)
    assert np.array_equal(p.a, q.a)
    assert np.array_equal(p.b, q.b)
    assert np.array_equal(p.x_star, q.x_star)
    assert q.rho == p.rho and q.kappa == p.kappa and q.seed == p.seed


def test_archive_rejects_unknown_format(tmp_path):
    p = generate_problem(32, 4, 10.0, 0.0, seed=2)
    root = tmp_path / "prob"
    save_problem(p, root)
    meta_path = root / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["format_version"] = 999
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError):
        load_problem(root)
