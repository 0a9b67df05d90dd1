"""End-to-end tests for the command line interface."""

import csv

import numpy as np
import pytest

from sketchlsq import generate_problem, load_problem, save_problem
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


def test_non_finite_b_exits_two(tmp_path, capsys):
    path = _gen(tmp_path)
    b = load_problem(path).b
    b[7] = np.nan
    write_matrix(path / "b.mtx", b)
    for method in ("qr", "pne", "hpne"):
        assert main(["solve", "--problem", str(path), "--method", method]) == 2
    assert "non-finite" in capsys.readouterr().err


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
