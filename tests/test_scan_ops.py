"""tools/scan_ops.py's digests and failing ops, on canned workloads."""

import importlib.util
import os

import sketchlsq as sq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    failed, first = scan(_Canned(), 1, 5)
    assert failed == [(2, "qr rel_error > bound_ls"), (3, "ValueError: boom")]
    assert scan(_Canned(wall_ms=7.0), 1, 5) == (failed, first)
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
