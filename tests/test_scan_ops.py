"""tools/scan_ops.py's digests and failing ops, on canned workloads."""

import importlib.util
import json
import os
import subprocess
import sys

import sketchlsq as sq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# sha256 of one cycle of seed 1 of each benchmark workload, at one BLAS
# thread: a change that keeps these runs the benchmark's ops bit for bit.
PINNED_CYCLES = {
    "bound_sweep":
        "871776361e5f8b667b51d1826e783e66727de10d4c3b7642782de36c5ab65f7b",
    "half_precision":
        "bb8627f8311349048ed906d1e8dcd39a954202e9065c7d65b85bceef7b2af3e0",
}


def _scan_ops():
    path = os.path.join(ROOT, "tools", "scan_ops.py")
    spec = importlib.util.spec_from_file_location("scan_ops", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Canned:
    """Sweep-like ops: op 2 fails its check, op 3 raises."""

    def __init__(self, wall_ms=1.0, rel_error=1e-9):
        self.wall_ms, self.rel_error = wall_ms, rel_error

    def setup(self, seed):
        self.seed = seed

    def run_op(self, i):
        if i == 3:
            raise ValueError("boom")
        return [{"method": "qr", "seed": self.seed, "trial": i,
                 "rel_error": self.rel_error, "wall_ms": self.wall_ms}]

    def check(self, i, rows):
        return ("qr rel_error > bound_ls" if i == 2 else ""), [], None


def test_scan_lists_failing_ops_and_digests_what_the_checks_read():
    scan_ops = _scan_ops()
    scan, digest = scan_ops.scan, scan_ops.digest
    failed, first, worst = scan(_Canned(), 1, 5)
    assert failed == [(2, "qr rel_error > bound_ls"), (3, "ValueError: boom")]
    assert worst == {}
    assert scan(_Canned(wall_ms=7.0), 1, 5) == (failed, first, worst)
    assert scan(_Canned(rel_error=2e-9), 1, 5)[1] != first
    assert scan(_Canned(), 2, 5)[1] != first
    assert scan(_Canned(), 1, 2)[0] == []
    p = sq.generate_problem(300, 20, 1e6, 1e-6, seed=3)
    runs = [sq.algorithm1_pipeline(p.a, p.b, "pne", precision, seed=3,
                                   x_star=p.x_star)
            for precision in ("auto", "single", "half")]
    # the same R_s and x_hat, chosen by the estimate, fixed, or escalated
    assert runs[0].preconditioner.computed_in is sq.BINARY32
    assert runs[2].escalated_from is sq.BINARY16
    assert len({run.x_hat.tobytes() for run in runs}) == 1
    assert len({digest(run) for run in runs}) == 3
    again = sq.algorithm1_pipeline(p.a, p.b, "pne", "half", seed=3,
                                   x_star=p.x_star)
    assert digest(again) == digest(runs[2])


class _CannedRows(_Canned):
    """Sweep rows with bound columns; op 1's sne row failed to solve."""

    def run_op(self, i):
        return [
            {"method": "qr", "rel_error": 1e-12 * (i + 1), "bound_ls": 1e-10,
             "bound_ne": 1e-6, "wall_ms": 1.0},
            {"method": "sne", "rel_error": "" if i == 1 else 4e-7 / (i + 1),
             "bound_ls": "" if i == 1 else 1e-10, "bound_ne": 1e-6,
             "wall_ms": 1.0, "error": "RankDeficient: x" if i == 1 else ""},
        ]

    def check(self, i, rows):
        return "", [], None


def test_scan_reports_each_methods_worst_margin():
    scan_ops = _scan_ops()
    bounds = {"qr": "bound_ls", "sne": "bound_ne"}
    failed, _, worst = scan_ops.scan(_CannedRows(), 1, 4, bounds)
    assert failed == []
    assert worst == {"qr": (4e-12 / 1e-10, 3), "sne": (0.4, 0)}
    assert scan_ops.margin_line(1, worst) == \
        "seed 1 worst rel_error/bound: sne 0.400 (op 0), qr 0.040 (op 3)"
    assert scan_ops.bound_ratio(_CannedRows().run_op(1)[1], bounds) is None
    assert scan_ops.scan(_CannedRows(), 1, 4)[2] == {}


def test_gated_workloads_keep_their_outputs():
    """One cycle of seed 1 of each workload that BENCHMARK.json gates,
    scanned in a child process with BLAS on one thread as run.py pins it
    (hpne's A_p^T A at m = 2000 sums in another order on two threads),
    gives the digest recorded for it."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    assert sorted(names) == sorted(PINNED_CYCLES)
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import scan_ops\n"
        "workloads = scan_ops.load_workloads()\n"
        "for name in sys.argv[2:]:\n"
        "    wl = workloads.WORKLOADS[name]()\n"
        "    failed, sha, _ = scan_ops.scan(wl, 1, wl.cycle)\n"
        "    print(name, len(failed), sha)\n")
    out = subprocess.run(
        [sys.executable, "-c", code, os.path.join(ROOT, "tools"), *names],
        capture_output=True, text=True, check=True, timeout=600).stdout
    assert out.split() == [field for name in names
                           for field in (name, "0", PINNED_CYCLES[name])]
