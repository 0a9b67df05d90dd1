"""Run a benchmark workload's ops untimed and digest what their checks read.

    python3 tools/scan_ops.py WORKLOAD OPS

For seeds 1..10, WORKLOAD of ``perfbench/workloads.py`` is set up as
``perfbench/run.py`` sets it up (BLAS pinned to one thread by run.py's own
pin before numpy loads, this checkout's ``src/`` first on the path), then
ops 0..OPS-1 run and are checked, with no clock.  Per seed it prints each
failing op with its check's reason (a raising op fails, as in run.py), then
a sha256 over every op's checked output: a sweep op's rows without
``wall_ms``, or a solve report's x_hat, R_s, precision, escalation and
precision decision.  For ``bound_sweep`` it then prints each method's
check margin: the worst ratio of a row's ``rel_error`` to the bound column
that ``SWEEP_BOUNDS`` has its check read, and the op that gave it.  A
change that moves a method's errors toward its bound shows there before
any op fails.

A timed run stops after a fixed time, so a faster checkout runs more ops
and can reach a failing op that the other never runs.  Running this scan in
two checkouts compares them op for op: equal digests and failing ops mean
the same outputs and the same checks, whatever the speed.
"""

import argparse
import hashlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PERFBENCH = os.path.join(ROOT, "perfbench")
SEEDS = range(1, 11)


def digest(result):
    """The bytes of one op's checked output."""
    if isinstance(result, list):  # sweep rows
        return repr([[(k, v) for k, v in row.items() if k != "wall_ms"]
                     for row in result]).encode()
    pre = result.preconditioner
    origin = result.escalated_from
    decision = result.precision_decision
    facts = (pre.computed_in.name, None if origin is None else origin.name,
             None if decision is None else (decision.kappa0,
                                            decision.selected.name,
                                            decision.overflowed))
    return (result.x_hat.tobytes() + pre.r_s.tobytes()
            + repr(facts).encode())


def bound_ratio(row, bounds):
    """rel_error over the bound column bounds[method] of a sweep row, or
    None when the row has no error or no bound (a failed row)."""
    err, bound = row["rel_error"], row[bounds[row["method"]]]
    if isinstance(err, float) and isinstance(bound, float):
        return err / bound
    return None


def scan(wl, seed, ops, bounds=None):
    """Set wl up for seed and run ops 0..ops-1: (failing (op, reason)
    pairs, sha256 hex digest of the checked outputs, worst margins).

    The worst margins are {method: (ratio, op)}, each method's largest
    bound_ratio over the ops' rows, when bounds (a method -> bound column
    dict) is given, else {}.
    """
    wl.setup(seed)
    sha = hashlib.sha256()
    failed = []
    worst = {}
    for i in range(ops):
        try:
            result = wl.run_op(i)
        except Exception as exc:  # a raising op is a failed op, not a crash
            reason = f"{type(exc).__name__}: {exc}"
            sha.update(reason.encode())
        else:
            sha.update(digest(result))
            reason = wl.check(i, result)[0]
            for row in result if bounds else ():
                ratio = bound_ratio(row, bounds)
                if ratio is not None and ratio > worst.get(
                        row["method"], (-1.0,))[0]:
                    worst[row["method"]] = (ratio, i)
        if reason:
            failed.append((i, reason))
    return failed, sha.hexdigest(), worst


def margin_line(seed, worst):
    """One seed's worst margins as scan returns them, the closest first."""
    return f"seed {seed} worst rel_error/bound: " + ", ".join(
        f"{method} {ratio:.3f} (op {i})" for method, (ratio, i)
        in sorted(worst.items(), key=lambda kv: -kv[1][0]))


def load_workloads():
    """perfbench/workloads.py as run.py loads it: BLAS pinned to one thread
    by run.py's own pin before numpy loads, this checkout's src/ first on
    the path.  Call it before anything imports numpy."""
    sys.path[:0] = [SRC, PERFBENCH]
    import run
    run.pin_blas_threads()
    import sketchlsq
    import workloads  # numpy loads here, after the pin
    if not os.path.abspath(sketchlsq.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"imported sketchlsq from {sketchlsq.__file__}")
    return workloads


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("ops", type=int)
    args = ap.parse_args(argv)
    if args.ops < 1:
        ap.error(f"need OPS >= 1, got {args.ops}")
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}, expected one of "
                 f"{', '.join(workloads.WORKLOADS)}")
    bounds = (workloads.SWEEP_BOUNDS
              if args.workload == workloads.BoundSweep.name else None)
    for seed in SEEDS:
        failed, hexdigest, worst = scan(workloads.WORKLOADS[args.workload](),
                                        seed, args.ops, bounds)
        for i, reason in failed:
            print(f"seed {seed} op {i} failed: {reason}")
        print(f"seed {seed}: {args.ops} ops, {len(failed)} failed, "
              f"sha256 {hexdigest}", flush=True)
        if worst:
            print(margin_line(seed, worst), flush=True)


if __name__ == "__main__":
    main()
