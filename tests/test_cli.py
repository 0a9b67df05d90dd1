"""End-to-end tests for the command line interface."""

import csv
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.io
import scipy.linalg

from sketchlsq import (
    NotPositiveDefinite, dense, load_problem, save_problem, solvers)
from sketchlsq.cli import main
from sketchlsq.harness import BENCH_COLUMNS, CSV_COLUMNS
from sketchlsq.mmio import read_matrix, write_matrix


def _gen(tmp_path, kappa="1e3", rho="1e-6", name="prob"):
    path = tmp_path / name
    code = main(["gen", "--m", "200", "--n", "12", "--kappa", kappa,
                 "--rho", rho, "--seed", "5", "--out", str(path)])
    assert code == 0
    return path


def test_gen_writes_loadable_archive(tmp_path):
    path = _gen(tmp_path)
    p = load_problem(path)
    assert p.m == 200 and p.n == 12
    assert abs(np.linalg.norm(p.x_star) - 1.0) <= 1e-14


def test_solve_methods_exit_zero(tmp_path, capsys):
    path = _gen(tmp_path)
    for method in ("qr", "ne", "sne", "pne", "hpne"):
        assert main(["solve", "--problem", str(path), "--method", method]) == 0
    out = capsys.readouterr().out
    assert "rel error vs x*" in out
    assert "hpne" in out


def test_solve_auto_reports_selection(tmp_path, capsys):
    path = _gen(tmp_path, kappa="1e2")
    assert main(["solve", "--problem", str(path), "--precision", "auto"]) == 0
    out = capsys.readouterr().out
    assert "binary16" in out


# sha256 over the exit code and the stdout, minus the wall ms line, of 40
# solves of two 600 x 20 archives: qr, ne and sne; pne and hpne at every
# precision with each transform; and nne, with the other archive's A as B.
# m < 2000 and n <= 128 keep geqrf unblocked and every product's summation
# order independent of the BLAS thread count, so both counts share a digest.
_SOLVE_PIN = "96ba58f5107ff68b995d599115a94d8f06a1cfd038429356fd56f6a641e029e8"
_SOLVE_PIN_CODE = """
import contextlib, hashlib, io, os, sys, tempfile
from sketchlsq.cli import main
h = hashlib.sha256()
with tempfile.TemporaryDirectory() as tmp:
    archives = []
    for kappa, rho, seed in (("1e2", "1e-8", "1"), ("1e6", "1e-3", "2")):
        path = os.path.join(tmp, "kappa" + kappa)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gen", "--m", "600", "--n", "20", "--kappa", kappa,
                         "--rho", rho, "--seed", seed, "--out", path]) == 0
        archives.append(path)
    for path, other in zip(archives, archives[::-1]):
        runs = [["--method", method] for method in ("qr", "ne", "sne")]
        runs += [["--method", method, "--precision", precision,
                  "--transform", transform]
                 for method in ("pne", "hpne")
                 for precision in ("auto", "half", "single", "double")
                 for transform in ("dct2", "wht")]
        runs.append(["--method", "nne", "--b-matrix", other])
        for args in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \\
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(["solve", "--problem", path, *args])
            lines = [line for line in out.getvalue().splitlines()
                     if not line.startswith("wall ms")]
            h.update(repr([code, lines]).encode())
print(h.hexdigest())
"""


def test_solve_output_matches_pinned_digest():
    """40 solves, bit for bit apart from wall ms, at 1 and 2 BLAS threads
    (each in a child, since the thread count is fixed when numpy loads)."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", _SOLVE_PIN_CODE], env=env,
                             check=True, capture_output=True, text=True)
        assert out.stdout.split() == [_SOLVE_PIN], threads


def test_solve_checks_a_and_forms_a_p_once(tmp_path, monkeypatch, capsys):
    """One preconditioned solve, with its diagnosis, makes one finiteness
    pass over A and one triangular solve with A's m rows as right-hand
    sides (the one that forms A_p)."""
    path = _gen(tmp_path)
    a = load_problem(path).a
    isfinite, solve = np.isfinite, dense.triangular_solve
    passes, a_p_solves = [], []

    def counting_isfinite(x, *args, **kwargs):
        if np.shape(x) == a.shape and np.array_equal(x, a):
            passes.append(x)
        return isfinite(x, *args, **kwargs)

    def counting_solve(r, rhs, *args, **kwargs):
        if np.shape(rhs) == a.T.shape:
            a_p_solves.append(rhs)
        return solve(r, rhs, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting_isfinite)
    monkeypatch.setattr(dense, "triangular_solve", counting_solve)
    monkeypatch.setattr(solvers, "triangular_solve", counting_solve)
    for method in ("pne", "hpne"):
        passes.clear()
        a_p_solves.clear()
        assert main(["solve", "--problem", str(path), "--method", method]) == 0
        assert "kappa(A_p)" in capsys.readouterr().out
        assert (len(passes), len(a_p_solves)) == (1, 1), method


def test_solve_runs_one_qr_on_m_rows(tmp_path, monkeypatch, capsys):
    """A preconditioned solve, with its diagnosis, runs one QR with A's m
    rows, the geqrf of A that kappa(A) and kappa(A_p) are read from."""
    path = _gen(tmp_path)
    m = load_problem(path).m
    qr = scipy.linalg.qr
    tall = []

    def counting(x, *args, **kwargs):
        tall.append(x.shape[0] == m)
        return qr(x, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "qr", counting)
    for method in ("pne", "hpne"):
        tall.clear()
        assert main(["solve", "--problem", str(path), "--method", method]) == 0
        assert "kappa(A_p)" in capsys.readouterr().out
        assert sum(tall) == 1, method


def test_solve_nne_accepts_matrix_file_and_archive(tmp_path):
    path = _gen(tmp_path)
    p = load_problem(path)
    bpath = tmp_path / "bmat.mtx"
    write_matrix(bpath, p.a)
    assert main(["solve", "--problem", str(path), "--method", "nne",
                 "--b-matrix", str(bpath)]) == 0
    assert main(["solve", "--problem", str(path), "--method", "nne",
                 "--b-matrix", str(path)]) == 0


def test_solve_nne_requires_b_matrix(tmp_path):
    path = _gen(tmp_path)
    assert main(["solve", "--problem", str(path), "--method", "nne"]) == 2


def test_invalid_arguments_exit_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", "x", "--method", "cgls"])
    assert exc.value.code == 2
    assert main(["solve", "--problem", str(tmp_path / "missing")]) == 2
    assert main(["gen", "--m", "10", "--n", "20",
                 "--out", str(tmp_path / "bad")]) == 2
    path = _gen(tmp_path)
    for d_factor in ("inf", "nan", "1e308"):
        assert main(["solve", "--problem", str(path),
                     "--d-factor", d_factor]) == 2
        assert main(["sweep", "--m", "150", "--n", "10", "--rho-points", "1",
                     "--d-factor", d_factor,
                     "--csv", str(tmp_path / "s.csv")]) == 2
    # an archive whose b or x_star is one entry short of meta.json's m, n
    problem = load_problem(path)
    for name, vector in (("b", problem.b), ("xstar", problem.x_star)):
        short = _gen(tmp_path, name=f"short_{name}")
        write_matrix(short / f"{name}.mtx", vector[:-1])
        assert main(["solve", "--problem", str(short)]) == 2
    # a meta.json without m, holding a list, or with a null seed, and an A
    # or B with complex entries: malformed files, not crashes or real parts
    for name, meta in (("no_m", '{"format_version": 1, "n": 12, "kappa": '
                        '1e3, "rho": 1e-6, "seed": 5}'), ("list", "[]"),
                       ("null_seed", '{"format_version": 1, "m": 200, "n": '
                        '12, "kappa": 1e3, "rho": 1e-6, "seed": null}')):
        bad = _gen(tmp_path, name=name)
        (bad / "meta.json").write_text(meta)
        assert main(["solve", "--problem", str(bad)]) == 2
    complex_a = _gen(tmp_path, name="complex")
    scipy.io.mmwrite(str(complex_a / "A.mtx"), problem.a + 1j)
    assert main(["solve", "--problem", str(complex_a)]) == 2
    assert main(["solve", "--problem", str(path), "--method", "nne",
                 "--b-matrix", str(complex_a / "A.mtx")]) == 2
    # a B of the wrong shape, and an archive whose meta.json agrees with a
    # wide A: shape misuses, not numerical failures
    for shape in ((200, 11), (200, 1)):
        write_matrix(tmp_path / "B.mtx", np.ones(shape))
        assert main(["solve", "--problem", str(path), "--method", "nne",
                     "--b-matrix", str(tmp_path / "B.mtx")]) == 2
    save_problem(replace(problem, a=problem.a[:10].copy(), b=problem.b[:10]),
                 tmp_path / "wide")
    for method in ("qr", "pne"):
        assert main(["solve", "--problem", str(tmp_path / "wide"),
                     "--method", method]) == 2
    # a sweep config that no point can run
    for extra in (["--m", "5", "--n", "50"], ["--m", "150", "--n", "10",
                                            "--kappa", "0.5"],
                  ["--m", "150", "--n", "5", "--d-factor", "0.5"]):
        assert main(["sweep", *extra, "--rho-points", "1",
                     "--csv", str(tmp_path / "s.csv")]) == 2


def test_non_finite_b_exits_two(tmp_path, capsys):
    path = _gen(tmp_path)
    b = load_problem(path).b
    b[7] = np.nan
    write_matrix(path / "b.mtx", b)
    for method in ("qr", "pne", "hpne"):
        assert main(["solve", "--problem", str(path), "--method", method]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["zero", "nan"])
def test_bad_x_star_exits_two(tmp_path, capsys, bad):
    path = _gen(tmp_path)
    x_star = load_problem(path).x_star
    if bad == "zero":
        x_star[:] = 0.0
    else:
        x_star[1] = np.nan
    write_matrix(path / "xstar.mtx", x_star)
    for method in ("qr", "pne", "hpne"):
        assert main(["solve", "--problem", str(path), "--method", method]) == 2
    assert "x_star" in capsys.readouterr().err


def test_solve_prints_cholesky_to_lu_fallback(tmp_path, capsys, monkeypatch):
    path = _gen(tmp_path)
    assert main(["solve", "--problem", str(path), "--method", "pne"]) == 0
    assert "Cholesky failed" not in capsys.readouterr().out

    def indefinite(*args):
        raise NotPositiveDefinite("forced")

    monkeypatch.setattr(solvers, "cholesky_solve", indefinite)
    assert main(["solve", "--problem", str(path), "--method", "pne"]) == 0
    assert "gram solve        LU (Cholesky failed)" in capsys.readouterr().out


def test_non_finite_solution_exits_three(tmp_path, capsys):
    # A^T b and A^T A overflow binary64 once A and b are scaled by 1e200
    path = _gen(tmp_path)
    p = load_problem(path)
    write_matrix(path / "A.mtx", p.a * 1e200)
    write_matrix(path / "b.mtx", p.b * 1e200)
    # A_p overflows once A and b are scaled by 1e-300 at kappa 1e12
    tiny = tmp_path / "tiny"
    assert main(["gen", "--m", "200", "--n", "10", "--kappa", "1e12",
                 "--rho", "1e-6", "--seed", "1", "--out", str(tiny)]) == 0
    q = load_problem(tiny)
    write_matrix(tiny / "A.mtx", q.a * 1e-300)
    write_matrix(tiny / "b.mtx", q.b * 1e-300)
    solves = [(path, method, "auto") for method in ("sne", "ne")]
    solves += [(tiny, method, precision) for method in ("pne", "hpne")
               for precision in ("auto", "double", "single")]
    for archive, method, precision in solves:
        # pytest records warnings instead of printing them, so catch them
        # here too: outside pytest each would reach stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["solve", "--problem", str(archive),
                         "--method", method,
                         "--precision", precision]) == 3
        err = capsys.readouterr().err
        assert "Overflow" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]


def test_numerical_failure_exits_three(tmp_path):
    # Gram matrix at kappa = 1e9 is numerically indefinite in binary64
    path = tmp_path / "hard"
    assert main(["gen", "--m", "400", "--n", "30", "--kappa", "1e9",
                 "--rho", "1e-6", "--seed", "1", "--out", str(path)]) == 0
    assert main(["solve", "--problem", str(path), "--method", "ne"]) == 3


def test_sweep_writes_csv(tmp_path):
    path = _gen(tmp_path)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--m", "150", "--n", "10", "--kappa", "1e3",
                 "--rho-min", "1e-8", "--rho-max", "1e-4", "--rho-points", "2",
                 "--methods", "qr,pne", "--trials", "1", "--seed", "2",
                 "--csv", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == CSV_COLUMNS
    assert len(rows) == 4


def test_bench_writes_csv(tmp_path):
    out = tmp_path / "bench.csv"
    code = main(["bench", "--m", "150", "--n-list", "8,10", "--kappa", "1e3",
                 "--rho", "1e-6", "--trials", "1", "--seed", "2",
                 "--csv", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == BENCH_COLUMNS
    assert len(rows) == 6


def test_mmio_roundtrip_and_forms(tmp_path):
    a = np.array([[1.5, -2.0], [0.0, 3.25], [4.0, 1e-8]])
    path = tmp_path / "a.mtx"
    write_matrix(path, a)
    assert np.array_equal(read_matrix(path), a)
    # integer and exponent forms both parse as float64
    text = tmp_path / "ints.mtx"
    text.write_text(
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3e0\n-4.5e-1\n")
    got = read_matrix(text)
    assert got.dtype == np.float64
    assert np.array_equal(got, np.array([[1.0, 3.0], [2.0, -0.45]]))
