"""tools/bench_pairs.py's parsing and summary, on canned run.py output."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_pairs():
    path = os.path.join(ROOT, "tools", "bench_pairs.py")
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(p50):
    machine = {"nproc": 2, "git_commit": "abc"}
    final = {"correct": True, "attempted": 100, "failed": 0, "metrics": {
        "op_vs_lstsq_p50": {"value": p50, "unit": "ratio"},
        "ok_frac": {"value": 1.0, "unit": "ratio"}}}
    return "\n".join([
        "machine: " + json.dumps(machine),
        "workload bound_sweep seed 1 trace 0: 100 ops, 0 failed, fail_frac 0",
        "  op_vs_lstsq_p50                                     14.6 ratio",
        "results: perfbench/results/bound_sweep-seed1-trace0.json",
        json.dumps(final)]) + "\n"


def test_parse_reads_the_machine_and_the_final_line():
    machine, result = _bench_pairs().parse(_stdout(14.6))
    assert machine == {"nproc": 2, "git_commit": "abc"}
    assert result["attempted"] == 100
    assert result["metrics"]["op_vs_lstsq_p50"]["value"] == 14.6


def test_summarize_gives_quartiles_per_side_and_the_pair_count():
    bench = _bench_pairs()
    pairs = []
    for seed, (old, new) in enumerate([(14.0, 12.0), (15.0, 13.0),
                                       (16.0, 16.5), (17.0, 11.0),
                                       (18.0, 14.0)], start=1):
        pair = {"seed": seed}
        for side, p50 in (("parent", old), ("change", new)):
            result = bench.parse(_stdout(p50))[1]
            pair[side] = {k: v["value"] for k, v in result["metrics"].items()}
        pairs.append(pair)
    summary = bench.summarize(pairs)
    assert summary["op_vs_lstsq_p50"]["parent"] == {
        "q1": 15.0, "median": 16.0, "q3": 17.0}
    assert summary["op_vs_lstsq_p50"]["change"] == {
        "q1": 12.0, "median": 13.0, "q3": 14.0}
    assert summary["op_vs_lstsq_p50"]["change_lower_in"] == 4
    assert summary["ok_frac"]["change_lower_in"] == 0


def test_outcome_keeps_the_failed_checks_of_a_run():
    stdout = _stdout(14.6).replace(
        "workload", "check failed: op 7: rel_error 1e-3 > 1e-9\nworkload", 1)
    machine, record = _bench_pairs().outcome(1, stdout, "", 250)
    assert machine == {"nproc": 2, "git_commit": "abc"}
    assert record["exit"] == 1
    assert record["checks_failed"] == [
        "check failed: op 7: rel_error 1e-3 > 1e-9"]
    assert record["op_vs_lstsq_p50"] == 14.6
    assert record["minflt_per_op"] == 2.5


def test_outcome_records_the_attempted_and_failed_ops():
    stdout = _stdout(14.6).replace('"failed": 0', '"failed": 1')
    record = _bench_pairs().outcome(1, stdout, "", 250)[1]
    assert (record["attempted"], record["failed"]) == (100, 1)
    assert record["op_vs_lstsq_p50"] == 14.6


def test_a_run_without_a_result_keeps_its_exit_and_stderr_tail():
    bench = _bench_pairs()
    stdout = _stdout(14.6).splitlines()[0] + "\n"  # the machine line only
    stderr = "Traceback (most recent call last):\n" + "".join(
        f'  File "w.py", line {k}\n' for k in range(30)) + "RuntimeError: boom\n"
    machine, record = bench.outcome(1, stdout, stderr, 99)
    assert machine == {"nproc": 2, "git_commit": "abc"}
    assert record == {"exit": 1, "checks_failed": [],
                      "stderr_tail": stderr.splitlines()[-bench.STDERR_LINES:]}
    assert record["stderr_tail"][-1] == "RuntimeError: boom"
    assert bench.outcome(-9, "", "Killed\n", 0)[1]["stderr_tail"] == ["Killed"]
    # the other pairs still summarize
    pairs = [{"seed": s, "parent": bench.outcome(0, _stdout(15.0 + s), "", 0)[1],
              "change": bench.outcome(0, _stdout(12.0 + s), "", 0)[1]}
             for s in (1, 2, 3)]
    pairs[0]["change"] = record
    summary = bench.summarize(pairs)
    assert summary["op_vs_lstsq_p50"]["change"] == {
        "q1": 14.25, "median": 14.5, "q3": 14.75}
    assert summary["op_vs_lstsq_p50"]["change_lower_in"] == 2
    assert summary["exit"]["change"]["q3"] == 0.5


def test_import_seconds_times_the_checkouts_own_sketchlsq(tmp_path):
    bench = _bench_pairs()
    seconds = bench.import_seconds(ROOT)
    assert isinstance(seconds, float) and 0.0 < seconds < 60.0
    # a checkout without sources gives None, not another install's time
    assert bench.import_seconds(str(tmp_path)) is None
