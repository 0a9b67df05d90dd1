"""Tests for the sweep/benchmark harness and its CSV output."""

import csv

import numpy as np
import pytest

from sketchlsq import (
    BINARY64,
    SweepConfig,
    build_preconditioner,
    condition_diagnostics,
    generate_problem,
    precondition_matrix,
    rho_grid,
    run_benchmark,
    run_sweep,
)
from sketchlsq.harness import BENCH_COLUMNS, CSV_COLUMNS, write_csv


def _small_config(**overrides):
    base = dict(
        m=120, n=10, kappa=1e3, rho_grid=rho_grid(1e-10, 1e-2, 3),
        methods=("qr", "pne", "hpne"), precision="double",
        trials_per_point=2, seed=17,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_rho_grid_is_logspaced_and_inclusive():
    grid = rho_grid(1e-8, 1.0, 5)
    assert grid[0] == pytest.approx(1e-8, rel=1e-12)
    assert grid[-1] == pytest.approx(1.0, rel=1e-12)
    ratios = grid[1:] / grid[:-1]
    assert ratios == pytest.approx(np.full(4, 100.0), rel=1e-10)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        _small_config(methods=("qr", "bogus"))
    with pytest.raises(ValueError):
        _small_config(precision="quad")
    with pytest.raises(ValueError):
        _small_config(trials_per_point=0)
    with pytest.raises(ValueError):
        _small_config(rho_grid=np.array([1e-2, 1e-8]))
    for d_factor in (np.inf, np.nan, 1e308):
        with pytest.raises(ValueError, match="d_factor must be finite"):
            _small_config(d_factor=d_factor)


def test_sweep_row_count_and_schema():
    rows = run_sweep(_small_config())
    assert len(rows) == 3 * 2 * 3
    for row in rows:
        assert list(row.keys()) == CSV_COLUMNS
        assert row["error"] == ""
        assert row["rel_error"] >= 0.0
        assert row["wall_ms"] > 0.0
        assert row["m"] == 120 and row["n"] == 10


def test_sweep_bounds_attached_per_method():
    rows = run_sweep(_small_config())
    for row in rows:
        assert row["bound_ls"] > 0.0
        assert row["bound_ne"] > 0.0
        if row["method"] == "pne":
            assert row["bound_pne_new"] > 0.0
            assert row["bound_pne_old"] > 0.0
            assert row["bound_hpne_new"] == ""
            assert row["kappa_ap"] > 0.0
            assert row["precision"] == "binary64"
        elif row["method"] == "hpne":
            assert row["bound_hpne_new"] > 0.0
            assert row["bound_pne_new"] == ""
        else:
            assert row["bound_pne_new"] == ""
            assert row["bound_hpne_new"] == ""
            assert row["precision"] == ""
            assert row["d"] == ""


def test_sweep_kappa_columns_measure_its_preconditioner():
    """kappa_rs and kappa_ap are the condition numbers of the R_s and A_p
    that the row's solve used, rebuilt here from the row's seed."""
    cfg = _small_config(trials_per_point=1)
    for row in run_sweep(cfg):
        if row["method"] not in ("pne", "hpne"):
            continue
        p = generate_problem(cfg.m, cfg.n, cfg.kappa, row["rho"], row["seed"])
        pre = build_preconditioner(p.a, cfg.d_factor, cfg.transform,
                                   BINARY64, row["seed"])
        a_p = precondition_matrix(p.a, pre)
        assert row["kappa_rs"] == condition_diagnostics(
            pre.r_s).two_norm_condition
        assert row["kappa_ap"] == condition_diagnostics(
            a_p).two_norm_condition


def test_sweep_is_deterministic_up_to_timing():
    strip = lambda rows: [
        {k: v for k, v in row.items() if k != "wall_ms"} for row in rows
    ]
    assert strip(run_sweep(_small_config())) == strip(run_sweep(_small_config()))


def test_sweep_survives_method_failure():
    # kappa = 1e9 breaks the Gram Cholesky; the row must carry the error
    # while other methods keep reporting numbers
    cfg = _small_config(m=200, n=12, kappa=1e9, methods=("qr", "ne"),
                        rho_grid=rho_grid(1e-8, 1e-8, 1), trials_per_point=1)
    rows = run_sweep(cfg)
    by_method = {row["method"]: row for row in rows}
    assert by_method["ne"]["error"] != ""
    assert by_method["ne"]["rel_error"] == ""
    assert by_method["qr"]["error"] == ""
    assert by_method["qr"]["rel_error"] <= 1e-4


def test_write_csv_roundtrips_schema(tmp_path):
    rows = run_sweep(_small_config(trials_per_point=1))
    path = tmp_path / "sweep.csv"
    write_csv(path, rows, CSV_COLUMNS)
    with open(path, newline="") as fh:
        got = list(csv.DictReader(fh))
    assert len(got) == len(rows)
    assert list(got[0].keys()) == CSV_COLUMNS
    for text_row, row in zip(got, rows):
        assert text_row["error"] == ""
        # repr round-trip keeps float fields exact
        assert float(text_row["rel_error"]) == row["rel_error"]
        assert int(text_row["seed"]) == row["seed"]


def test_benchmark_schema_and_positivity(tmp_path):
    path = tmp_path / "bench.csv"
    rows = run_benchmark(m=160, n_list=(8, 12), kappa=1e3, rho=1e-6,
                         trials=2, seed=3, output_path=path)
    assert len(rows) == 2 * 3
    for row in rows:
        assert list(row.keys()) == BENCH_COLUMNS
        assert row["median_wall_ms"] > 0.0
        assert row["rel_error"] >= 0.0
        assert row["speedup_vs_qr"] > 0.0
        assert row["trials"] == 2
    methods = {row["method"] for row in rows}
    assert methods == {"qr", "pne_double", "pne_auto"}
    assert path.exists()
