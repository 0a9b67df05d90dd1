"""Batch experiment harness: residual sweeps and timing benchmarks.

run_sweep solves a grid of generated problems (one residual scale per
point, several trials per point) with a set of methods, measures errors
and every applicable perturbation bound, and emits rows with a fixed CSV
schema.  Failures land in the row's error column; the sweep never aborts.
A point's preconditioner comes from one prepare_preconditioner call, the
step algorithm1_pipeline makes, so its precision, build and escalation are
the pipeline's, and the preconditioner records them; each row diagnoses
after its solve by sketchlsq solve's call,
measure_bound_inputs(system, report).  Each point checks A once into
a dense.LinearSystem, which every method and diagnosis of the point
shares, and whose docstring states what a row's wall_ms counts; so the
point runs one QR of A and factors no other matrix with A's m rows.  Rows
are a deterministic function of the config, the BLAS build and its thread
count, except for wall_ms: on another thread count the blocked geqrf
(n >= 129) and the general products A_p^T A (from about m = 2000 on)
round differently.
"""

import csv
import math
import statistics
from dataclasses import dataclass

import numpy as np

from . import rng
from .bounds import (
    bound_ls,
    bound_ne_family,
    measure_bound_inputs,
)
from .dense import _check_system
from .errors import SketchLsqError
from .precision import level_from_name
from .probgen import _check_shape, generate_problem
from .sketch import DCT2, TRANSFORMS
from .solvers import (
    METHODS,
    algorithm1_pipeline,
    prepare_preconditioner,
    sketch_rows,
    solve_qr_baseline,
)

CSV_COLUMNS = [
    "method", "m", "n", "kappa", "rho", "precision", "d",
    "kappa_ap", "kappa_rs", "rel_error", "rel_residual",
    "bound_pne_old", "bound_pne_new", "bound_hpne_old", "bound_hpne_new",
    "bound_ne", "bound_ls", "seed", "trial", "wall_ms", "error",
]

BENCH_COLUMNS = [
    "method", "m", "n", "kappa", "trials", "median_wall_ms", "rel_error",
    "speedup_vs_qr",
]


def rho_grid(rho_min, rho_max, points):
    """Log-spaced residual scales from rho_min to rho_max inclusive."""
    if not 0 < rho_min <= rho_max:
        raise ValueError(f"need 0 < rho_min <= rho_max, got {rho_min}, {rho_max}")
    if points < 1:
        raise ValueError(f"need points >= 1, got {points}")
    if points == 1:
        return np.array([rho_min])
    return np.logspace(math.log10(rho_min), math.log10(rho_max), points)


@dataclass
class SweepConfig:
    """One sweep: fixed problem shape, a residual grid, methods to compare.

    precision names the preconditioner precision ("auto" estimates it per
    problem); it only affects pne/hpne rows.  Each (grid point, trial)
    pair gets an independent sub-seed derived from seed.
    """

    m: int
    n: int
    kappa: float
    rho_grid: np.ndarray
    methods: tuple = ("qr", "pne", "hpne")
    precision: str = "double"
    d_factor: float = 3.0
    transform: str = DCT2
    trials_per_point: int = 1
    seed: int = 0

    def __post_init__(self):
        self.rho_grid = np.asarray(self.rho_grid, dtype=np.float64)
        if self.rho_grid.ndim != 1 or self.rho_grid.size == 0:
            raise ValueError("rho_grid must be a non-empty 1-D sequence")
        if (np.diff(self.rho_grid) < 0).any():
            raise ValueError("rho_grid must be sorted ascending")
        if (self.rho_grid < 0).any():
            raise ValueError("rho values must be >= 0")
        self.methods = tuple(self.methods)
        for meth in self.methods:
            if meth not in METHODS:
                raise ValueError(
                    f"unknown sweep method {meth!r}, expected {tuple(METHODS)}")
        if not self.methods:
            raise ValueError("methods must be non-empty")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if self.transform not in TRANSFORMS:
            raise ValueError(f"unknown transform {self.transform!r}")
        if self.precision != "auto":
            level_from_name(self.precision)  # validates the name
        # what generate_problem or build_preconditioner rejects at every point
        _check_shape(self.m, self.n, self.kappa)
        if any(METHODS[meth].preconditioned for meth in self.methods):
            sketch_rows(self.d_factor, self.n)


def _blank_row():
    return {col: "" for col in CSV_COLUMNS}


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value


def _sweep_point(config, grid_index, rho, trial):
    sub_seed = rng.mix64(config.seed, grid_index, trial)
    base = _blank_row()
    base.update(m=config.m, n=config.n, kappa=config.kappa, rho=rho,
                seed=sub_seed, trial=trial)
    system = pre = point_error = pre_error = None
    try:
        problem = generate_problem(config.m, config.n, config.kappa, rho,
                                   sub_seed)
        system = _check_system(problem.a, problem.b, problem.x_star)
    except (SketchLsqError, ValueError) as exc:
        point_error = exc
    if system is not None and any(METHODS[method].preconditioned
                                  for method in config.methods):
        try:
            pre = prepare_preconditioner(
                system, config.d_factor, config.transform, config.precision,
                sub_seed)
        except (SketchLsqError, ValueError) as exc:
            pre_error = exc

    rows = []
    for method in config.methods:
        spec = METHODS[method]
        row = dict(base, method=method)
        if spec.preconditioned and system is not None:
            row["precision"] = "" if pre is None else pre.computed_in.name
            row["d"] = sketch_rows(config.d_factor, config.n)
        try:
            if point_error or spec.preconditioned and pre_error:
                raise point_error or pre_error
            report = spec.solve(system, pre)
            inputs = measure_bound_inputs(system, report)
            row["rel_error"] = report.relative_error
            row["rel_residual"] = inputs.res_ratio_a
            row["wall_ms"] = report.wall_ms
            row["bound_ls"] = bound_ls(inputs)
            row["bound_ne"] = bound_ne_family(inputs)
            if spec.preconditioned:
                row["kappa_ap"] = inputs.kappa_ap
                row["kappa_rs"] = inputs.kappa_rs
            if spec.bound is not None:
                for variant in ("old", "new"):
                    row[f"bound_{method}_{variant}"] = spec.bound(inputs,
                                                                  variant)
        except (SketchLsqError, ValueError) as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def run_sweep(config):
    """Run the sweep and return one row dict per (point, trial, method).

    Numeric cells hold Python floats (or "" when absent); write_csv
    serializes them with repr so reruns of the same config produce
    identical files apart from wall_ms.
    """
    rows = []
    for grid_index, rho in enumerate(config.rho_grid):
        for trial in range(config.trials_per_point):
            rows.extend(_sweep_point(config, grid_index, float(rho), trial))
    return rows


def write_csv(path, rows, columns):
    """Write rows with the fixed column order; floats via repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col, "")) for col in columns])


def run_benchmark(m=2000, n_list=(25, 50, 100), kappa=1e6, rho=1e-6,
                  trials=3, seed=0):
    """Median wall-clock comparison of qr, pne(double), and pne(auto).

    The pipeline runs with its default sketch (DCT-II, d = 3n).

    Accuracy columns are deterministic for a fixed seed; timings are
    reported as found.  median_wall_ms is the median of the reports'
    wall_ms, so like wall_ms it excludes the check of the inputs.
    speedup_vs_qr is the median time of the qr baseline (LAPACK QR plus a
    triangular solve) over the method's median time; no threshold is
    asserted.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rows = []
    for n in n_list:
        problem = generate_problem(m, n, kappa, rho, rng.mix64(seed, n))
        runs = {
            "qr": lambda: solve_qr_baseline(problem.a, problem.b,
                                            problem.x_star),
            "pne_double": lambda: algorithm1_pipeline(
                problem.a, problem.b, "pne", "double",
                seed=rng.mix64(seed, n, 1), x_star=problem.x_star),
            "pne_auto": lambda: algorithm1_pipeline(
                problem.a, problem.b, "pne", "auto",
                seed=rng.mix64(seed, n, 1), x_star=problem.x_star),
        }
        medians = {}
        for name, run in runs.items():
            reports = [run() for _ in range(trials)]
            medians[name] = statistics.median(r.wall_ms for r in reports)
            rows.append({
                "method": name, "m": m, "n": n, "kappa": kappa,
                "trials": trials, "median_wall_ms": medians[name],
                "rel_error": reports[-1].relative_error,
                "speedup_vs_qr": None,
            })
        for row in rows[-3:]:
            row["speedup_vs_qr"] = medians["qr"] / medians[row["method"]]
    return rows
