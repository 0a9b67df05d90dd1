"""sketchlsq benchmark: one workload, one closed-loop caller, one process.

Run from the repository root:

    python3 perfbench/run.py --workload half_precision --seed 1 --seconds 60 --trace 0

Ops are issued back to back through the public API and timed around the
call; each op's output is checked outside the timed region.  The loop runs
for ``--seconds`` and at least ``MIN_OPS`` ops.  With ``--trace 0`` the last
stdout line carries the end-to-end metrics; with ``--trace 1`` it carries
the per-layer metrics of a traced run (see README.md).  A failed check sets
``correct`` to false and the exit code to 1.  Every run writes its metrics
and the machine record to ``perfbench/results/``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import layers
import spantrace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

MIN_OPS = 100        # p90 then has at least 10 samples above it
ACCURACY_OPS = 100   # accuracy ratios and counts use this fixed op prefix
SETUP_REPS = 3       # setup_s is the median of this many set-ups
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def pin_blas_threads():
    """Run BLAS on one thread; must run before numpy loads.

    OpenBLAS worker threads spin for a while after each call and, on a
    small box, take the core the Python thread needs next: on 2 cores the
    run-to-run spread of tall_skinny's median op latency was 20% with two
    threads and 8% with one.  One thread is within the cap of nproc.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return 1


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_record(nproc, blas_threads):
    import numpy as np
    import scipy
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def run_loop(wl, seconds, tracer):
    """Closed loop with one caller; returns per-op records.

    After each op's check, numpy.linalg.lstsq is timed on the op's problem.
    Both timings see the same machine state, so their ratio cancels most
    of the drift in machine speed that moves the absolute latencies.
    """
    import workloads  # loaded by main after the BLAS pin
    ops = []
    i = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or i < MIN_OPS:
        traced = tracer is not None and (i // wl.cycle) % 2 == 1
        if traced:
            tracer.op = i
            tracer.install()
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.span("bench.op"):
                    result = wl.run_op(i)
            else:
                result = wl.run_op(i)
            error = None
        except Exception as exc:  # a raising op is a failed op, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        rec = {"i": i, "wall": wall, "traced": traced, "returned": error is None,
               "reason": error, "ratios": []}
        if error is None:
            rec["reason"], rec["ratios"], problem = wl.check(i, result)
            if problem is not None:
                rec["lstsq"] = workloads.lstsq_seconds(problem)
                if traced:
                    rec["scipy_qr"] = workloads.scipy_qr_seconds(problem)
        ops.append(rec)
        i += 1
    return ops


def end_to_end(ops, setup_s):
    """The gated metrics: LAPACK-relative latency, failures, set-up, memory."""
    ratios = [r["wall"] / r["lstsq"] for r in ops if "lstsq" in r]
    failed = sum(bool(r["reason"]) for r in ops)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "op_vs_lstsq_p50": (statistics.median(ratios), "ratio"),
        "op_vs_lstsq_p90": (statistics.quantiles(ratios, n=10)[8], "ratio"),
        "ok_frac": ((len(ops) - failed) / len(ops), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def latency(ops):
    """Absolute latencies: printed and stored, not gated (machine drift)."""
    walls = [r["wall"] for r in ops]
    return {
        "op_ms_p50": (1e3 * statistics.median(walls), "ms"),
        "op_ms_p90": (1e3 * statistics.quantiles(walls, n=10)[8], "ms"),
        "ops_per_s": (sum(r["returned"] for r in ops) / sum(walls), "1/s"),
    }


def accuracy(ops):
    """Error ratios vs lstsq over the fixed op prefix (deterministic)."""
    ratios = [x for r in ops if r["i"] < ACCURACY_OPS for x in r["ratios"]]
    return {"err_ratio_p50": (statistics.median(ratios) if ratios else 0.0,
                              "ratio"),
            "err_ratio_max": (max(ratios, default=0.0), "ratio")}


def traced_metrics(ops, tracer):
    """Per-layer metrics, and whether the span trees cover the op times."""
    traced = [r for r in ops if r["traced"]]
    plain = [r for r in ops if not r["traced"]]
    overhead = (statistics.median(r["wall"] for r in traced)
                / statistics.median(r["wall"] for r in plain) - 1.0)
    covered = sum(s for rec, s in zip(tracer.spans,
                                      spantrace.self_times(tracer.spans))
                  if rec[spantrace.OP] is not None and rec[spantrace.OP] >= 0)
    wall = sum(r["wall"] for r in traced)
    unattributed = (wall - covered) / wall
    with_ref = [r for r in traced if "scipy_qr" in r]
    extra = {
        "ref.lstsq.ms": (1e3 * statistics.median(
            r["lstsq"] for r in with_ref), "ms"),
        "ref.scipy_qr.ms": (1e3 * statistics.median(
            r["scipy_qr"] for r in with_ref), "ms"),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.unattributed_frac": (unattributed, "ratio"),
        "trace.missing_targets": (len(tracer.missing), "count"),
        **accuracy(ops),
    }
    metrics = layers.per_layer_metrics(tracer.spans, ACCURACY_OPS, extra)
    # Self times telescope to the root span, so what is left is the cost
    # of entering and leaving the root; more than the overhead is a bug.
    return metrics, abs(unattributed) <= max(abs(overhead), 1e-3)


def write_results(name, payload, spans=None):
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, name + ".json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    if spans is not None:
        with open(os.path.join(RESULTS, name + "-spans.jsonl"), "w") as fh:
            for k, rec in enumerate(spans):
                fh.write(json.dumps([k] + list(rec)) + "\n")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tall_skinny", "half_precision", "bound_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sketchlsq", "__init__.py")):
        print(f"error: no sketchlsq sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    blas_threads = pin_blas_threads()

    t_import = time.perf_counter()
    sys.path.insert(0, SRC)
    import sketchlsq
    import workloads  # numpy, scipy and sketchlsq load here, after the pin
    import_s = time.perf_counter() - t_import
    if not os.path.abspath(sketchlsq.__file__).startswith(SRC + os.sep):
        print(f"error: imported sketchlsq from {sketchlsq.__file__}",
              file=sys.stderr)
        return 2

    machine = machine_record(nproc, blas_threads)
    print("machine: " + json.dumps(machine))
    wl = workloads.WORKLOADS[args.workload]()
    tracer = spantrace.Tracer() if args.trace else None

    setups = []
    for rep in range(SETUP_REPS):
        if tracer is not None and rep == SETUP_REPS - 1:
            tracer.op = -1
            tracer.install()
        t0 = time.perf_counter()
        wl.setup(args.seed)
        setups.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
    setup_s = import_s + statistics.median(setups)

    ops = run_loop(wl, args.seconds, tracer)
    failed = [r for r in ops if r["reason"]]
    correct = not failed
    if tracer is None:
        metrics = end_to_end(ops, setup_s)
        shown = {**metrics, **latency(ops), **accuracy(ops)}
    else:
        metrics, consistent = traced_metrics(ops, tracer)
        if not consistent:
            print("check failed: self times do not add up to traced op time")
        correct = correct and consistent
        shown = metrics

    for r in failed[:10]:
        print(f"check failed: op {r['i']}: {r['reason']}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} ops, {len(failed)} failed, "
          f"fail_frac {len(failed) / len(ops):.4g}")
    for name, (value, unit) in shown.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    payload = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "attempted": len(ops),
        "failed": len(failed), "fail_frac": len(failed) / len(ops),
        "failures": [(r["i"], r["reason"]) for r in failed],
        "missing_targets": tracer.missing if tracer else [],
        "ops": [(r["i"], r["wall"], r["lstsq"] if "lstsq" in r else None,
                 r["traced"]) for r in ops],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }
    path = write_results(f"{args.workload}-seed{args.seed}-trace{args.trace}",
                         payload, tracer.spans if tracer else None)
    print(f"results: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
