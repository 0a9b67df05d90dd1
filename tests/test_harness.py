"""Tests for the sweep/benchmark harness and its CSV output."""

import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import scipy.linalg

from sketchlsq import (
    BINARY16,
    BINARY32,
    BINARY64,
    SweepConfig,
    algorithm1_pipeline,
    build_preconditioner,
    condition_diagnostics,
    generate_problem,
    rho_grid,
    run_benchmark,
    run_sweep,
    triangular_solve,
)
from sketchlsq import Overflow, bounds, dense, harness, precision
from sketchlsq.harness import BENCH_COLUMNS, CSV_COLUMNS, write_csv
from sketchlsq.rng import mix64
from sketchlsq.solvers import METHODS, prepare_preconditioner


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
    # what every point would fail on: generate_problem's shape and kappa,
    # and a sketch of fewer than n rows when a preconditioned method runs
    for overrides in (dict(m=5, n=50), dict(m=10), dict(n=0), dict(kappa=0.5),
                      dict(kappa=np.nan), dict(n=1), dict(d_factor=0.5),
                      dict(d_factor=0.85, methods=("hpne",))):
        with pytest.raises(ValueError, match="need m > n|need kappa|d="):
            _small_config(**overrides)
    _small_config(d_factor=0.5, methods=("qr", "ne"))


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
    that the row's solve used, rebuilt here from the row's seed: kappa_ap
    is taken from R_A R_s^-1, where R_A is the R of A's QR.  With "auto"
    and with a forced binary16 point that escalates (the second pinned
    sweep's first), the one preconditioner step records decide_precision's
    decision, and its escalation and R_s are the pipeline's and the row's.
    A pne or hpne solve of that preconditioner outside the pipeline
    reports the same decision and escalation."""
    cfg = _small_config(trials_per_point=1)
    for row in run_sweep(cfg):
        if row["method"] not in ("pne", "hpne"):
            continue
        p = generate_problem(cfg.m, cfg.n, cfg.kappa, row["rho"], row["seed"])
        pre = build_preconditioner(p.a, cfg.d_factor, cfg.transform,
                                   BINARY64, row["seed"])
        assert row["kappa_rs"] == condition_diagnostics(
            pre.r_s).two_norm_condition
        assert row["kappa_ap"] == condition_diagnostics(
            triangular_solve(pre.r_s, dense.qr_r_factor(p.a).T,
                             transposed=True).T).two_norm_condition
    for cfg in (_small_config(precision="auto", trials_per_point=1),
                _small_config(m=300, n=20, kappa=3e3, rho_grid=[1e-12],
                              precision="half", transform="wht",
                              trials_per_point=1, seed=3)):
        for row in run_sweep(cfg):
            if row["method"] not in ("pne", "hpne"):
                continue
            p = generate_problem(cfg.m, cfg.n, cfg.kappa, row["rho"],
                                 row["seed"])
            system = dense._check_system(p.a, p.b, p.x_star)
            pre = prepare_preconditioner(
                system, cfg.d_factor, cfg.transform, cfg.precision,
                row["seed"])
            assert row["precision"] == pre.computed_in.name
            assert row["kappa_rs"] == condition_diagnostics(
                pre.r_s).two_norm_condition
            report = algorithm1_pipeline(
                p.a, p.b, row["method"], cfg.precision, cfg.d_factor,
                cfg.transform, row["seed"], p.x_star)
            assert report.preconditioner.r_s.tobytes() == pre.r_s.tobytes()
            solved = METHODS[row["method"]].solve(system, pre)
            decision = (precision.decide_precision(p.a)
                        if cfg.precision == "auto" else None)
            for got in (report, solved):
                assert got.escalated_from == pre.escalated_from
                assert got.precision_decision == pre.decision == decision
    assert solved.escalated_from is BINARY16 and pre.computed_in is BINARY32


def test_sweep_is_deterministic_up_to_timing():
    strip = lambda rows: [
        {k: v for k, v in row.items() if k != "wall_ms"} for row in rows
    ]
    assert strip(run_sweep(_small_config())) == strip(run_sweep(_small_config()))


# sha256 over every CSV cell but wall_ms of two five-method sweeps, as
# recorded with OpenBLAS 0.3.31 on x86-64: 2000 x 32 at kappa 1e6 with the
# automatic precision and the DCT, and 300 x 20 at kappa 3e3 forced to
# binary16 with the WHT (its first point escalates to binary32).  n <= 128
# keeps geqrf unblocked, but hpne's A_p^T A is a general dgemm, which at
# 2000 x 32 sums in another order on two BLAS threads than on one: the first
# sweep's hpne rows differ, so it has one digest per thread count.
_SWEEP_PINS = {
    "1": ["c5f841975e408fe22a119fef9189deca95cdc5e142bd841d16e999beb1de181c",
          "6bb43f5001ce73de486b03864451248058bbe378a9ab1a1bbe60e0433d617adc"],
    "2": ["50a664254aa39255e71dbc6189fb5fbdcc33c77713aa71ffccd4f2c26d48e448",
          "6bb43f5001ce73de486b03864451248058bbe378a9ab1a1bbe60e0433d617adc"],
}
_SWEEP_PIN_CODE = """
import hashlib
from sketchlsq import SweepConfig, run_sweep
from sketchlsq.harness import CSV_COLUMNS, _fmt
methods = ("qr", "ne", "pne", "hpne", "sne")
for m, n, kappa, precision, transform in (
        (2000, 32, 1e6, "auto", "dct2"), (300, 20, 3e3, "half", "wht")):
    rows = run_sweep(SweepConfig(
        m=m, n=n, kappa=kappa, rho_grid=[1e-12, 1e-6, 1e-2], methods=methods,
        precision=precision, transform=transform, seed=3))
    h = hashlib.sha256()
    for row in rows:
        h.update(repr([_fmt(row[col]) for col in CSV_COLUMNS
                       if col != "wall_ms"]).encode())
    print(h.hexdigest())
"""


def test_sweep_rows_match_pinned_digests():
    """Both sweeps, bit for bit apart from wall_ms, at 1 and 2 BLAS threads
    (each in a child, since the thread count is fixed when numpy loads)."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    for threads, digests in _SWEEP_PINS.items():
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", _SWEEP_PIN_CODE], env=env,
                             check=True, capture_output=True, text=True)
        assert out.stdout.split() == digests, threads


# The same two sweeps, hashed over every cell but wall_ms, kappa_ap and the
# bounds that read kappa(A_p) or norm(A_p): the columns that a change of
# route to kappa(A_p) moves by rounding.  The others keep these digests.
_AP_COLUMNS = ("wall_ms", "kappa_ap", "bound_pne_old", "bound_pne_new",
               "bound_hpne_old", "bound_hpne_new")
_SWEEP_PINS_BUT_AP = {
    "1": ["39f4466aec7baac54be18c076dac9c6d9ddafd2beca6e88be2c59b937df37111",
          "720c73f74a54887fedd73535706150b0590830bb7215c4bc89036564685bbc79"],
    "2": ["4a149fc1b559b7c783b8b9db27b73f68f043b7c46581b6085adc030466619a92",
          "720c73f74a54887fedd73535706150b0590830bb7215c4bc89036564685bbc79"],
}


def test_sweep_rows_but_the_a_p_columns_match_pinned_digests():
    """Both sweeps, bit for bit apart from _AP_COLUMNS, at 1 and 2 BLAS
    threads."""
    code = _SWEEP_PIN_CODE.replace('col != "wall_ms"',
                                   f"col not in {_AP_COLUMNS!r}")
    assert code != _SWEEP_PIN_CODE
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    for threads, digests in _SWEEP_PINS_BUT_AP.items():
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True)
        assert out.stdout.split() == digests, threads


def _one_point(**overrides):
    cfg = _small_config(methods=("qr", "ne", "pne", "hpne", "sne"),
                        precision="auto", rho_grid=rho_grid(1e-6, 1e-6, 1),
                        trials_per_point=1, **overrides)
    seed = mix64(cfg.seed, 0, 0)
    return cfg, generate_problem(cfg.m, cfg.n, cfg.kappa, 1e-6, seed).a


def test_sweep_point_factors_a_once(monkeypatch):
    """qr, sne and the kappa(A) diagnostic read one geqrf of A, and the
    point's rows share its condition measurements: kappa(A), kappa(R_s),
    kappa(R_A R_s^-1) and hpne's kappa(A_p^T A) are 4 SVDs, not the 10 of
    one measurement per row.  The system measures another R_s again."""
    cfg, a = _one_point()
    qr = scipy.linalg.qr
    factored = []

    def counting(x, *args, **kwargs):
        factored.append(np.array_equal(x, a))
        return qr(x, *args, **kwargs)

    measured = []

    def counting_diagnostics(x):
        measured.append(x)
        return condition_diagnostics(x)

    monkeypatch.setattr(scipy.linalg, "qr", counting)
    monkeypatch.setattr(dense, "condition_diagnostics", counting_diagnostics)
    monkeypatch.setattr(bounds, "condition_diagnostics", counting_diagnostics)
    rows = run_sweep(cfg)
    assert all(row["error"] == "" for row in rows)
    assert sum(factored) == 1
    assert len(measured) == 4

    p = generate_problem(cfg.m, cfg.n, cfg.kappa, 1e-6, mix64(cfg.seed, 0, 0))
    system = dense._check_system(p.a, p.b, p.x_star)
    pre = prepare_preconditioner(system, seed=1)
    other = prepare_preconditioner(system, seed=2)
    first = bounds.measure_problem(system, pre)
    measured.clear()
    assert bounds.measure_problem(system, pre) == first
    assert measured == []
    again = bounds.measure_problem(system, other)
    assert len(measured) == 2 and measured[0] is other.r_s
    assert again[1].two_norm_condition == condition_diagnostics(
        other.r_s).two_norm_condition != first[1].two_norm_condition


def test_sweep_point_runs_one_qr_on_m_rows(monkeypatch):
    """The geqrf of A is the point's one QR with A's m rows: kappa(A_p) is
    read from its R, and A_p is not factored."""
    cfg, _ = _one_point()
    qr = scipy.linalg.qr
    tall = []

    def counting(x, *args, **kwargs):
        tall.append(x.shape[0] == cfg.m)
        return qr(x, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "qr", counting)
    rows = run_sweep(cfg)
    assert all(row["error"] == "" for row in rows)
    assert sum(tall) == 1


def test_auto_sweep_point_forms_the_gram_matrix_once(monkeypatch):
    """The kappa0 estimate and ne factor one A^T A array."""
    cfg, a = _one_point()
    gram = a.T @ a
    factor = dense.cholesky_factor
    grams = []

    def counting(s):
        if np.array_equal(s, gram):
            grams.append(s)
        return factor(s)

    monkeypatch.setattr(dense, "cholesky_factor", counting)
    monkeypatch.setattr(precision, "cholesky_factor", counting)
    rows = run_sweep(cfg)
    assert all(row["error"] == "" for row in rows)
    assert len(grams) == 2
    assert grams[0] is grams[1]


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


def test_sweep_point_failures_land_in_their_rows(monkeypatch):
    """A point whose generation fails gives every method's row that error,
    with precision and d blank; a failed preconditioner step fails the
    pne and hpne rows alone, which still name d."""
    cfg = _small_config(methods=("qr", "pne", "hpne"), trials_per_point=1,
                        rho_grid=rho_grid(1e-8, 1e-8, 1))

    def failing(*args, **kwargs):
        raise Overflow("out of range")

    with monkeypatch.context() as patch:
        patch.setattr(harness, "generate_problem", failing)
        rows = run_sweep(cfg)
    assert [row["method"] for row in rows] == ["qr", "pne", "hpne"]
    for row in rows:
        assert list(row) == CSV_COLUMNS
        assert row["error"] == "Overflow: out of range"
        assert row["precision"] == row["d"] == row["rel_error"] == ""
        assert row["seed"] == mix64(cfg.seed, 0, 0)
    monkeypatch.setattr(harness, "prepare_preconditioner", failing)
    by_method = {row["method"]: row for row in run_sweep(cfg)}
    assert by_method["qr"]["error"] == ""
    for method in ("pne", "hpne"):
        row = by_method[method]
        assert row["error"] == "Overflow: out of range"
        assert (row["precision"], row["d"]) == ("", 30)


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


def test_benchmark_schema_and_positivity():
    rows = run_benchmark(m=160, n_list=(8, 12), kappa=1e3, rho=1e-6,
                         trials=2, seed=3)
    assert len(rows) == 2 * 3
    for row in rows:
        assert list(row.keys()) == BENCH_COLUMNS
        assert row["median_wall_ms"] > 0.0
        assert row["rel_error"] >= 0.0
        assert row["speedup_vs_qr"] > 0.0
        assert row["trials"] == 2
    methods = {row["method"] for row in rows}
    assert methods == {"qr", "pne_double", "pne_auto"}
