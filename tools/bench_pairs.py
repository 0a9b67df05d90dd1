"""Alternate perfbench runs between a parent checkout and this one.

    python3 tools/bench_pairs.py --parent DIR --out FILE

Per workload of BENCHMARK.json, pair k = 1..10 runs ``perfbench/run.py --seed
k --trace 0`` for run_seconds in both checkouts, the parent first in odd pairs.
Recorded: each side's machine record; each run's exit code, its ``check
failed:`` lines, and its metrics, its counts of attempted and failed ops (a
faster side runs more ops, and so can reach a failing one that the other side
never runs) and its minor faults per op (RUSAGE_CHILDREN, set-up included),
or, when its stdout ends without a result, the last lines of its stderr;
after each run, the seconds a fresh ``python3 -c`` child with BLAS pinned to
one thread (as run.py pins it) takes to import that side's ``sketchlsq``
(``import_s``), the import part of ``setup_s``, and that child's peak
resident set in MB (``import_rss_mb``), the import part of ``peak_rss_mb``,
both None if the import fails; and per side the quartiles over the runs that
gave a result.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
QUARTILES = ("q1", "median", "q3")
PAIRS = 10
STDERR_LINES = 20
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
IMPORT_CODE = """
import os, resource, sys, time
sys.path.insert(0, os.path.abspath("src"))
t0 = time.perf_counter()
import sketchlsq
seconds = time.perf_counter() - t0
if not os.path.abspath(sketchlsq.__file__).startswith(sys.path[0] + os.sep):
    sys.exit(f"imported {sketchlsq.__file__}")
print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def parse(stdout):
    """The machine record and the final JSON line of a run.py stdout, or
    None for each that it lacks."""
    lines = stdout.strip().splitlines()
    machine = next((json.loads(line[9:]) for line in lines
                    if line.startswith("machine: ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return machine, result


def outcome(returncode, stdout, stderr, faults):
    """The machine record and the record of one run.py run."""
    machine, result = parse(stdout)
    record = {"exit": returncode, "checks_failed": [
        line for line in stdout.splitlines() if line.startswith("check failed:")]}
    if result is None:
        record["stderr_tail"] = stderr.strip().splitlines()[-STDERR_LINES:]
    else:
        record.update({k: v["value"] for k, v in result["metrics"].items()})
        record.update({k: result[k] for k in ("attempted", "failed")})
        record["minflt_per_op"] = faults / result["attempted"]
    return machine, record


def import_record(returncode, stdout):
    """``import_s`` and ``import_rss_mb`` from an IMPORT_CODE child's exit
    code and stdout (seconds, then ru_maxrss in kB as run.py reads it); None
    for each when the child failed."""
    if returncode != 0:
        return {"import_s": None, "import_rss_mb": None}
    seconds, peak_kb = stdout.split()
    return {"import_s": float(seconds), "import_rss_mb": int(peak_kb) / 1024.0}


def import_footprint(cwd):
    """The import record of a fresh child that imports sketchlsq from
    cwd/src with BLAS on one thread; None values when the import fails or
    comes from elsewhere."""
    env = {**os.environ, **{var: "1" for var in BLAS_THREAD_VARS}}
    proc = subprocess.run([sys.executable, "-c", IMPORT_CODE], cwd=cwd,
                          env=env, capture_output=True, text=True)
    return import_record(proc.returncode, proc.stdout)


def run(cwd, workload, seed, seconds):
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=cwd, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    machine, record = outcome(proc.returncode, proc.stdout, proc.stderr,
                              faults)
    record.update(import_footprint(cwd))
    return machine, record


def _quartiles(values):
    if len(values) < 2:
        return None
    return dict(zip(QUARTILES, statistics.quantiles(
        values, n=4, method="inclusive")))


def summarize(pairs):
    """Per numeric metric: quartiles per side over the runs that report it
    (None below two runs), and in how many pairs it is lower."""
    names = {name for pair in pairs for side in SIDES
             for name, value in pair[side].items()
             if isinstance(value, (int, float))}
    out = {}
    for name in sorted(names):
        cols = {side: [p[side].get(name) for p in pairs] for side in SIDES}
        out[name] = {side: _quartiles([v for v in col if v is not None])
                     for side, col in cols.items()}
        out[name]["change_lower_in"] = sum(
            p is not None and c is not None and c < p
            for p, c in zip(cols["parent"], cols["change"]))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    cwd = {"parent": args.parent, "change": ROOT}
    record = {"seconds": bench["run_seconds"], "machine": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = []
        for seed in range(1, PAIRS + 1):
            pair = {"seed": seed}
            for side in SIDES if seed % 2 else SIDES[::-1]:
                machine, pair[side] = run(
                    cwd[side], workload, seed, record["seconds"])
                if machine is not None:
                    record["machine"][side] = machine
            pairs.append(pair)
        record[workload] = {"pairs": pairs, "summary": summarize(pairs)}
        with open(args.out, "w") as fh:
            fh.write(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
