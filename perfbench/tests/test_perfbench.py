"""Tests of the benchmark's flop models, tracer and per-layer aggregation."""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE),
                os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import sketchlsq as sq  # noqa: E402
from sketchlsq import dense, solvers  # noqa: E402

import layers  # noqa: E402
import spantrace  # noqa: E402


def test_flop_formulas():
    assert layers.householder_flops(10, 4) == pytest.approx(
        2 * 10 * 16 - 2 * 64 / 3)
    # square case: 4n^3/3 for the reduction
    assert layers.householder_flops(6, 6) == pytest.approx(4 * 216 / 3)
    assert layers.householder_qr_flops(10, 4) == pytest.approx(
        2 * layers.householder_flops(10, 4))
    assert layers.triangular_solve_flops(7, 3) == 7 * 7 * 3
    assert layers.gram_flops(100, 8) == 100 * 8 * 8
    assert layers.cholesky_solve_flops(6, 1) == pytest.approx(72 + 72)
    assert layers.lu_solve_flops(6, 2) == pytest.approx(144 + 144)
    assert layers.dct2_flops(1024, 3) == pytest.approx(2.5 * 1024 * 3 * 10)
    assert layers.wht_flops(4096, 5) == pytest.approx(4096 * 5 * 12)
    assert layers.sketch_bytes(3000, 4096, 144, 48, 2) == 2 * 48 * (
        3000 + 2 * 4096 + 144)
    assert layers.sketch_flops(3000, 4096, 144, "wht", 48, 2) == \
        layers.wht_flops(4096, 48)
    assert layers.sketch_flops(3000, 3000, 144, "dct2", 48, 8) == \
        pytest.approx(2.5 * 3000 * 48 * math.log2(3000))


def _traced_solve(tracer):
    p = sq.generate_problem(200, 8, 1e6, 1e-6, 5)
    tracer.op = 0
    tracer.install()
    try:
        with tracer.span("bench.op"):
            sq.algorithm1_pipeline(p.a, p.b, "pne", "auto", seed=1)
    finally:
        tracer.uninstall()


def test_tracer_wraps_every_binding_and_restores():
    original = dense.triangular_solve
    tracer = spantrace.Tracer()
    _traced_solve(tracer)
    assert dense.triangular_solve is original
    assert solvers.triangular_solve is original
    names = {rec[spantrace.NAME] for rec in tracer.spans}
    # bound in solvers and precision by "from .dense import ..."
    assert {"dense.triangular_solve", "precision.decide_precision",
            "solvers.build_preconditioner", "sketch.apply_sketch"} <= names
    assert tracer.missing == []


def test_self_times_add_up_to_root():
    tracer = spantrace.Tracer()
    _traced_solve(tracer)
    root = tracer.spans[0]
    assert root[spantrace.NAME] == "bench.op"
    total = sum(spantrace.self_times(tracer.spans))
    assert total == pytest.approx(root[spantrace.END] - root[spantrace.START],
                                  rel=1e-9)
    assert all(s >= 0 for s in spantrace.self_times(tracer.spans))


def test_missing_target_is_skipped_and_reads_zero():
    targets = spantrace.TARGETS + [("dense", "no_such_kernel", None),
                                   ("no_such_module", "f", None)]
    tracer = spantrace.Tracer(targets)
    _traced_solve(tracer)
    assert tracer.missing == ["dense.no_such_kernel", "no_such_module.f"]
    metrics = layers.per_layer_metrics(tracer.spans, 100, {})
    assert metrics["dense.lu_solve.calls"] == (0.0, "1/op")
    assert metrics["precision.selected.binary32"][0] == 1.0


def test_per_layer_split_and_escalation_counts():
    # hand-built spans: op 0 escalates once, op 1 falls back to LU
    s = [
        ["bench.op", -1, 0, None, 0.0, 10.0, None],
        ["solvers.build_preconditioner", 0, 0, "binary16", 0.0, 2.0,
         "RankDeficient"],
        ["solvers.build_preconditioner", 0, 0, "binary32", 2.0, 5.0, None],
        ["dense.condition_diagnostics", 2, 0, None, 3.0, 4.0, None],
        ["bench.op", -1, 1, None, 20.0, 30.0, None],
        ["solvers.solve_pne", 4, 1, (100, 8), 20.0, 29.0, None],
        ["dense.lu_solve", 5, 1, (8, 1), 21.0, 22.0, None],
        ["bounds.measure_problem", 4, 1, None, 29.0, 30.0, None],
        ["dense.condition_diagnostics", 7, 1, None, 29.0, 29.5, None],
    ]
    m = layers.per_layer_metrics(s, 100, {})
    assert m["precision.escalations"][0] == 0.5
    assert m["precision.selected.binary32"][0] == 0.5
    assert m["precision.build_useful_ratio"][0] == 0.5
    assert m["precision.escalation_waste_ms"][0] == pytest.approx(1e3)
    assert m["solvers.cholesky_fallbacks"][0] == 0.5
    assert m["dense.condition_diagnostics.in_solvers.ms"][0] == pytest.approx(500)
    assert m["dense.condition_diagnostics.in_bounds.ms"][0] == pytest.approx(250)
    assert m["solvers.solve_pne.self_ms"][0] == pytest.approx(4e3)
