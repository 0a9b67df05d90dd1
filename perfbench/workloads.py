"""The benchmark workloads.

Each workload builds its inputs from the run seed in ``setup``, performs
one operation per ``run_op`` call through the public ``sketchlsq`` API, and
checks that operation's output in ``check``, outside the timed region.
Library functions are looked up on the module at call time, so the tracer's
wrappers take effect.

Why these (see README.md for the layer map):

* ``tall_skinny`` (run by hand, not listed in BENCHMARK.json): the stages
  that scale with m (kappa0 Gram, sketch, forming A_p, diagnostics of A_p,
  Gram of A_p) do almost all the work; the low-precision QR of the small
  sketch is negligible.
* ``half_precision``: the emulated binary16 Householder QR, the float16
  Walsh-Hadamard sketch and the retry after a binary16 rank collapse carry
  a large share of each op; the m-scaled stages are small.
* ``bound_sweep``: the figure-reproduction workflow (one ``run_sweep``
  point with all five methods and every bound column), dominated by
  problem generation, the Householder QR baseline and ``measure_problem``.
"""

import math
import statistics
import time

import numpy as np
import scipy.linalg

import sketchlsq as sq
from sketchlsq import rng

U_DOUBLE = 2.0 ** -52
# rel_error may exceed the backward-stable bound_ls by at most this factor.
# Measured worst case over the workloads' op mix: 0.65 x bound_ls.
BOUND_LS_FACTOR = 10.0


def bound_ls(kappa, res_ratio):
    """kappa u (1 + kappa res_ratio), the backward-stable LS error bound.

    Written out here rather than taken from sketchlsq.bounds, so the check
    does not depend on the code under test.
    """
    return kappa * U_DOUBLE * (1.0 + kappa * res_ratio)


def rel_error(x_hat, x_star):
    return float(np.linalg.norm(x_hat - x_star) / np.linalg.norm(x_star))


def lstsq_error(problem):
    x = np.linalg.lstsq(problem.a, problem.b, rcond=None)[0]
    return rel_error(x, problem.x_star)


def lstsq_seconds(problem, reps=5):
    """Median time of numpy.linalg.lstsq on the problem over reps solves."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.linalg.lstsq(problem.a, problem.b, rcond=None)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scipy_qr_seconds(problem):
    """Time of one scipy QR (economic) plus triangular solve."""
    t0 = time.perf_counter()
    q, r = scipy.linalg.qr(problem.a, mode="economic")
    scipy.linalg.solve_triangular(r, q.T @ problem.b)
    return time.perf_counter() - t0


class _PipelineWorkload:
    """algorithm1_pipeline ops on a pool of problems generated in setup.

    Subclasses define ``_class_kappas(seed)`` (one kappa per problem class)
    and ``_plan(i)`` returning (class index, method, precision, transform).
    Ops cycle through every plan entry and every pool problem in
    ``cycle`` steps.
    """

    M = N = None
    RHO = 1e-6
    PROBLEMS_PER_CLASS = 2

    def setup(self, seed):
        self.seed = seed
        self.pool = []
        for c, kappa in enumerate(self._class_kappas(seed)):
            row = []
            for j in range(self.PROBLEMS_PER_CLASS):
                p = sq.generate_problem(self.M, self.N, kappa, self.RHO,
                                        rng.mix64(seed, c, j))
                row.append((p, lstsq_error(p)))
            self.pool.append(row)
        # warm-up op: first entry of the plan on a seed no op uses
        result = self._solve(0, rng.mix64(seed, 2 ** 40))
        reason = self.check(0, result)[0]
        if reason:
            raise RuntimeError(f"warm-up op failed its check: {reason}")

    def _problem(self, i):
        c = self._plan(i)[0]
        j = (i // (self.cycle // self.PROBLEMS_PER_CLASS)) % self.PROBLEMS_PER_CLASS
        return self.pool[c][j]

    def _solve(self, i, sketch_seed):
        _, method, precision, transform = self._plan(i)
        p = self._problem(i)[0]
        return sq.algorithm1_pipeline(p.a, p.b, method=method,
                                      precision=precision,
                                      transform=transform, seed=sketch_seed,
                                      x_star=p.x_star)

    def run_op(self, i):
        return self._solve(i, rng.mix64(self.seed, i))

    def check(self, i, report):
        """(failure reason or "", error ratios vs lstsq, the op's problem)."""
        p, ref_err = self._problem(i)
        x = np.asarray(report.x_hat, dtype=np.float64)
        if x.shape != p.x_star.shape or not np.isfinite(x).all():
            return "non-finite or misshapen x_hat", [], p
        err = rel_error(x, p.x_star)
        res_ratio = float(np.linalg.norm(p.a @ x - p.b) / np.linalg.norm(x))
        limit = BOUND_LS_FACTOR * bound_ls(p.kappa, res_ratio)
        if not err <= limit:
            return f"rel_error {err:.3e} > {limit:.3e}", [], p
        return self._check_precision(i, report), [err / ref_err], p


class TallSkinny(_PipelineWorkload):
    """m = 20000 (not a power of two), n = 32, auto precision, DCT-II."""

    name = "tall_skinny"
    M, N = 20000, 32
    KAPPAS = (1e6, 1e10)  # binary32 and binary64 preconditioners
    cycle = 8

    def _class_kappas(self, seed):
        return self.KAPPAS

    def _plan(self, i):
        return i % 2, ("pne", "hpne")[(i // 2) % 2], "auto", "dct2"

    def _check_precision(self, i, report):
        return _check_auto(report)


class HalfPrecision(_PipelineWorkload):
    """m = 3000 (WHT pads to 4096), n = 48; binary16 chosen or escalated.

    Even ops run precision "auto" on kappa in [1e2, 2.5e2], where kappa0 < 4
    selects binary16.  Odd ops force "half" on kappa = 1e6, where the
    binary16 sketch factor collapses and the pipeline retries in binary32,
    so every odd op escalates.  The transform alternates in pairs.
    """

    name = "half_precision"
    M, N = 3000, 48
    HALF_KAPPA = 1e6
    cycle = 8

    def _class_kappas(self, seed):
        auto_kappa = 10.0 ** (2.0 + 0.4 * rng.stream(seed, 7).random())
        return (auto_kappa, self.HALF_KAPPA)

    def _plan(self, i):
        return (i % 2, "pne", ("auto", "half")[i % 2],
                ("dct2", "wht")[(i // 2) % 2])

    def _check_precision(self, i, report):
        if i % 2 == 0:
            return _check_auto(report)
        used = report.preconditioner.computed_in.name
        origin = report.escalated_from.name if report.escalated_from else None
        if (used, origin) in (("binary16", None), ("binary32", "binary16")):
            return ""
        return f"fixed half ran in {used} (escalated from {origin})"


def _check_auto(report):
    decision = report.precision_decision
    if decision is None:
        return "auto op carries no precision decision"
    want = sq.select_precision(decision.kappa0, decision.overflowed).name
    origin = report.escalated_from or report.preconditioner.computed_in
    if origin.name != want:
        return f"auto chose {origin.name}, kappa0 {decision.kappa0} gives {want}"
    return ""


# method -> the bound column its rel_error must not exceed
SWEEP_BOUNDS = {"qr": "bound_ls", "ne": "bound_ne", "sne": "bound_ne",
                "pne": "bound_pne_new", "hpne": "bound_hpne_new"}


class BoundSweep:
    """One run_sweep point per op: 2000 x 32, kappa 1e6, all five methods."""

    name = "bound_sweep"
    M, N, KAPPA = 2000, 32, 1e6
    RHO_GRID = tuple(np.logspace(-12, -2, 11))
    cycle = len(RHO_GRID)

    def setup(self, seed):
        self.seed = seed
        rows = self._sweep(0, rng.mix64(seed, 2 ** 40))
        reason = self.check(0, rows)[0]
        if reason:
            raise RuntimeError(f"warm-up op failed its check: {reason}")

    def _sweep(self, i, config_seed):
        config = sq.SweepConfig(
            m=self.M, n=self.N, kappa=self.KAPPA,
            rho_grid=[self.RHO_GRID[i % self.cycle]],
            methods=tuple(SWEEP_BOUNDS), precision="auto", seed=config_seed)
        return sq.run_sweep(config)

    def run_op(self, i):
        return self._sweep(i, rng.mix64(self.seed, i))

    def check(self, i, rows):
        """(failure reason or "", error ratios vs lstsq, the op's problem)."""
        if len(rows) != len(SWEEP_BOUNDS):
            return f"{len(rows)} rows for {len(SWEEP_BOUNDS)} methods", [], None
        for row in rows:
            if row["error"]:
                return f"{row['method']}: {row['error']}", [], None
            err = row["rel_error"]
            bound = row[SWEEP_BOUNDS[row["method"]]]
            if not (math.isfinite(err) and err <= bound):
                return (f"{row['method']} rel_error {err:.3e} > "
                        f"{SWEEP_BOUNDS[row['method']]} {bound:.3e}"), [], None
        # the sweep point's problem, regenerated from the seed in its row
        problem = sq.generate_problem(self.M, self.N, self.KAPPA,
                                      rows[0]["rho"], rows[0]["seed"])
        ref_err = lstsq_error(problem)
        ratios = [row["rel_error"] / ref_err for row in rows
                  if row["method"] in ("pne", "hpne")]
        return "", ratios, problem


WORKLOADS = {w.name: w for w in (TallSkinny, HalfPrecision, BoundSweep)}
