"""Alternate perfbench runs between a parent checkout and this one.

    python3 tools/bench_pairs.py --parent DIR --out FILE

Per workload of BENCHMARK.json, pair k = 1..10 runs ``perfbench/run.py --seed
k --trace 0`` for run_seconds in both checkouts, the parent first in odd pairs.
Recorded: each side's machine record, each run's metrics, exit code and minor
faults per op (RUSAGE_CHILDREN, set-up included), and per side the quartiles.
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


def parse(stdout):
    """The machine record and the final JSON line of a run.py stdout."""
    lines = stdout.strip().splitlines()
    machine = next(line[9:] for line in lines if line.startswith("machine: "))
    return json.loads(machine), json.loads(lines[-1])


def run(cwd, workload, seed, seconds):
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=cwd, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    machine, result = parse(proc.stdout)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return machine, {"exit": proc.returncode, **metrics,
                     "minflt_per_op": faults / result["attempted"]}


def summarize(pairs):
    """Per metric: quartiles per side, and in how many pairs it is lower."""
    out = {}
    for name in pairs[0]["change"]:
        cols = {side: [p[side][name] for p in pairs] for side in SIDES}
        out[name] = {side: dict(zip(QUARTILES, statistics.quantiles(
            col, n=4, method="inclusive"))) for side, col in cols.items()}
        out[name]["change_lower_in"] = sum(
            c < p for p, c in zip(cols["parent"], cols["change"]))
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
                record["machine"][side], pair[side] = run(
                    cwd[side], workload, seed, record["seconds"])
            pairs.append(pair)
        record[workload] = {"pairs": pairs, "summary": summarize(pairs)}
        with open(args.out, "w") as fh:
            fh.write(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
