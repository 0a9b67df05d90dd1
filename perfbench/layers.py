"""Per-layer metrics from recorded spans, with modelled operation counts.

Rates (GFLOP/s) and bytes are *computed* from textbook operation counts and
array sizes, not measured with hardware counters: they show which kernels
run near BLAS speed and which are bound by Python overhead.

Conventions for one traced run:

* times (``.ms``, ``.self_ms``) are mean milliseconds per traced op, over
  every traced op;
* counts (``.calls``, ``precision.selected.*``, ``precision.escalations``,
  ``solvers.cholesky_fallbacks``) are per traced op, over the traced ops
  whose id is below the fixed accuracy prefix, so they repeat exactly for a
  given seed;
* ``.setup_ms`` values cover the one traced set-up (problem generation,
  references, warm-up op).
"""

import math

from spantrace import END, ERROR, META, NAME, OP, PARENT, START, self_times

# ---------------------------------------------------------------- flop models


def householder_flops(m, n):
    """Householder reduction of an m x n matrix to triangular form."""
    return 2.0 * m * n * n - 2.0 * n ** 3 / 3.0


def householder_qr_flops(m, n):
    """Reduction plus accumulation of the thin Q factor (same count again)."""
    return 2.0 * householder_flops(m, n)


def triangular_solve_flops(n, k):
    """Substitution with an n x n triangle and k right-hand sides."""
    return float(n) * n * k


def gram_flops(m, n):
    """Symmetric Gram matrix A^T A of an m x n matrix."""
    return float(m) * n * n


def cholesky_solve_flops(n, k):
    """Cholesky factorization plus two triangular solves."""
    return n ** 3 / 3.0 + 2.0 * triangular_solve_flops(n, k)


def lu_solve_flops(n, k):
    """LU with partial pivoting plus two triangular solves."""
    return 2.0 * n ** 3 / 3.0 + 2.0 * triangular_solve_flops(n, k)


def dct2_flops(m, n):
    """Fast DCT-II of length m applied to n columns."""
    return 2.5 * m * n * math.log2(m)


def wht_flops(m_pad, n):
    """Radix-2 Walsh-Hadamard transform of length m_pad on n columns."""
    return float(m_pad) * n * math.log2(m_pad)


def sketch_bytes(m, m_pad, d, n, itemsize):
    """Bytes apply_sketch must move at least once.

    Read the m x n input, write and re-read the m_pad x n signed (padded)
    work array, write the d x n sample.  Passes inside the transform are
    not counted, so this is a lower bound.
    """
    return float(itemsize) * n * (m + 2 * m_pad + d)


def sketch_flops(m, m_pad, d, transform, n, itemsize):
    if transform == "wht":
        return wht_flops(m_pad, n)
    return dct2_flops(m, n)


_FLOPS = {
    "dense.householder_reduce": lambda meta: householder_flops(*meta),
    "dense.householder_qr": lambda meta: householder_qr_flops(*meta),
    "dense.triangular_solve": lambda meta: triangular_solve_flops(*meta),
    "dense.cholesky_solve": lambda meta: cholesky_solve_flops(*meta),
    "dense.lu_solve": lambda meta: lu_solve_flops(*meta),
    "precision.qr_in_precision": lambda meta: householder_qr_flops(*meta[0]),
    "sketch.apply_sketch": lambda meta: sketch_flops(*meta),
    # solve_pne's own work beyond its children is dominated by the Gram
    "solvers.solve_pne": lambda meta: gram_flops(*meta),
}

LEVELS = ("binary16", "binary32", "binary64")
DENSE_KERNELS = ("householder_reduce", "householder_qr", "triangular_solve",
                 "cholesky_solve", "lu_solve")

# ------------------------------------------------------------- aggregation


class _Index:
    """Spans grouped by name, restricted to traced ops or to set-up."""

    def __init__(self, spans, prefix):
        self.spans = spans
        self.selfs = self_times(spans)
        self.by_name = {}
        for i, rec in enumerate(spans):
            self.by_name.setdefault(rec[NAME], []).append(i)
        ops = {rec[OP] for rec in spans if rec[OP] is not None and rec[OP] >= 0}
        self.n_ops = max(len(ops), 1)
        self.n_prefix = max(len([op for op in ops if op < prefix]), 1)
        self.prefix = prefix

    def select(self, name, where=None, phase="ops"):
        out = []
        for i in self.by_name.get(name, ()):
            rec = self.spans[i]
            op = rec[OP]
            if phase == "ops" and (op is None or op < 0):
                continue
            if phase == "prefix" and (op is None or not 0 <= op < self.prefix):
                continue
            if phase == "setup" and op != -1:
                continue
            if where is None or where(rec):
                out.append(i)
        return out

    def dur(self, idx):
        return sum(self.spans[i][END] - self.spans[i][START] for i in idx)

    def parent_name(self, rec):
        p = rec[PARENT]
        return self.spans[p][NAME] if p >= 0 else ""

    def calls(self, name, where=None):
        return len(self.select(name, where, "prefix")) / self.n_prefix

    def ms(self, name, where=None):
        return 1e3 * self.dur(self.select(name, where)) / self.n_ops

    def self_ms(self, name):
        return 1e3 * sum(self.selfs[i] for i in self.select(name)) / self.n_ops

    def setup_ms(self, name):
        return 1e3 * self.dur(self.select(name, phase="setup"))

    def gflops(self, name, where=None, use_self=False):
        flops = secs = 0.0
        model = _FLOPS[name]
        for i in self.select(name, where):
            meta = self.spans[i][META]
            if meta is None:
                continue
            flops += model(meta)
            secs += self.selfs[i] if use_self else (
                self.spans[i][END] - self.spans[i][START])
        return flops / secs / 1e9 if secs > 0 else 0.0


def _meta_is(pos, value):
    def where(rec):
        meta = rec[META]
        return meta is not None and meta[pos] == value
    return where


def per_layer_metrics(spans, prefix, extra):
    """Build the per-layer metric dict: name -> (value, unit).

    extra supplies values measured outside the spans: ref.* timings,
    trace.* figures and the accuracy ratios.
    """
    ix = _Index(spans, prefix)
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    cd = "dense.condition_diagnostics"
    put(cd + ".calls", ix.calls(cd), "1/op")
    put(cd + ".ms", ix.ms(cd), "ms")
    for layer in ("solvers", "bounds"):
        put(f"{cd}.in_{layer}.ms",
            ix.ms(cd, lambda rec, layer=layer:
                  ix.parent_name(rec).startswith(layer + ".")), "ms")
    put("dense.jacobi_singular_values.ms",
        ix.ms("dense.jacobi_singular_values"), "ms")
    for kernel in DENSE_KERNELS:
        name = "dense." + kernel
        put(name + ".calls", ix.calls(name), "1/op")
        put(name + ".ms", ix.ms(name), "ms")
        put(name + ".gflops", ix.gflops(name), "GFLOP/s")

    for fn in ("algorithm1_pipeline", "build_preconditioner",
               "precondition_matrix", "solve_pne", "solve_hpne"):
        put(f"solvers.{fn}.self_ms", ix.self_ms("solvers." + fn), "ms")
    put("solvers.solve_pne.self_gflops",
        ix.gflops("solvers.solve_pne", use_self=True), "GFLOP/s")
    for fn in ("solve_qr_baseline", "solve_normal", "solve_seminormal"):
        put(f"solvers.{fn}.ms", ix.ms("solvers." + fn), "ms")
    put("solvers.cholesky_fallbacks",
        ix.calls("dense.lu_solve",
                 lambda rec: ix.parent_name(rec) == "solvers.solve_pne"),
        "1/op")

    put("precision.decide_precision.ms",
        ix.ms("precision.decide_precision"), "ms")
    put("precision.round_to_precision.ms",
        ix.ms("precision.round_to_precision"), "ms")
    qr = "precision.qr_in_precision"
    for level in LEVELS:
        put(f"{qr}.{level}.ms", ix.ms(qr, _meta_is(1, level)), "ms")
        put(f"{qr}.{level}.gflops", ix.gflops(qr, _meta_is(1, level)),
            "GFLOP/s")
    build = "solvers.build_preconditioner"
    for level in LEVELS:
        put(f"precision.selected.{level}",
            ix.calls(build, lambda rec, level=level:
                     rec[ERROR] is None and rec[META] == level), "1/op")
    put("precision.escalations",
        ix.calls(build, lambda rec: rec[ERROR] == "RankDeficient"), "1/op")
    attempted = ix.select(build, phase="prefix")
    useful = [i for i in attempted if spans[i][ERROR] is None]
    put("precision.build_useful_ratio",
        len(useful) / len(attempted) if attempted else 0.0, "ratio")
    put("precision.escalation_waste_ms",
        ix.ms(build, lambda rec: rec[ERROR] == "RankDeficient"), "ms")

    put("sketch.make_sketch.ms", ix.ms("sketch.make_sketch"), "ms")
    sk = "sketch.apply_sketch"
    for transform in ("dct2", "wht"):
        put(f"{sk}.{transform}.ms", ix.ms(sk, _meta_is(3, transform)), "ms")
    put(sk + ".gflops", ix.gflops(sk), "GFLOP/s")
    put(sk + ".bytes",
        sum(sketch_bytes(*(spans[i][META][j] for j in (0, 1, 2, 4, 5)))
            for i in ix.select(sk) if spans[i][META] is not None) / ix.n_ops,
        "B")

    gp = "probgen.generate_problem"
    put(gp + ".calls", ix.calls(gp), "1/op")
    put(gp + ".ms", ix.ms(gp), "ms")
    put(gp + ".setup_ms", ix.setup_ms(gp), "ms")
    put("rng.stream.ms", ix.ms("rng.stream"), "ms")
    put("rng.stream.setup_ms", ix.setup_ms("rng.stream"), "ms")

    put("bounds.measure_problem.ms", ix.ms("bounds.measure_problem"), "ms")
    put("bounds.measure_bound_inputs.self_ms",
        ix.self_ms("bounds.measure_bound_inputs"), "ms")
    put("bounds.bound_eval.ms",
        sum(ix.ms(name) for name in ix.by_name
            if name.startswith("bounds.bound_")), "ms")
    put("harness.run_sweep.self_ms", ix.self_ms("harness.run_sweep"), "ms")

    for name, (value, unit) in extra.items():
        put(name, value, unit)
    return out
