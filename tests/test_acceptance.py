"""Acceptance suite: one test per shipped guarantee.

Each test prints a single PASS/FAIL line (run pytest with -s to stream
them; they also appear in captured output).  The two m = 2000 parameter
sweeps are shared across the bound-domination, blow-up, parity, and
envelope tests through session fixtures.

Measured-residual checks carry a 1e-14 absolute allowance on top of the
stated relative tolerances: the checker itself evaluates norms in
binary64, where storing b alone perturbs A^T(b - A x*) at the 1e-16
level, so no construction can test cleanly below that.
"""

import itertools
import time

import numpy as np
import pytest

import sketchlsq as sq
from sketchlsq.dense import condition_diagnostics, lu_solve
from sketchlsq.harness import BENCH_COLUMNS
from sketchlsq.rng import mix64, stream

SWEEP_SEED = 20260817


def _verdict(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _sweep(kappa, precision):
    cfg = sq.SweepConfig(
        m=2000, n=50, kappa=kappa,
        rho_grid=sq.rho_grid(1e-16, 1.0, 33),
        methods=("qr", "pne", "hpne"),
        precision=precision, trials_per_point=3, seed=SWEEP_SEED,
    )
    return sq.run_sweep(cfg)


@pytest.fixture(scope="session")
def sweep_double():
    return _sweep(1e4, "double")


@pytest.fixture(scope="session")
def sweep_single():
    return _sweep(1e8, "single")


def _ratios_vs_qr(rows, method):
    qr = {(r["rho"], r["trial"]): r["rel_error"]
          for r in rows if r["method"] == "qr" and r["error"] == ""}
    out = []
    for r in rows:
        if r["method"] == method and r["error"] == "":
            out.append((r["rho"], r["rel_error"] / qr[(r["rho"], r["trial"])]))
    return out


def test_criterion_1_generator_fidelity():
    start = time.perf_counter()
    grid = list(itertools.product((256, 2000), (16, 50),
                                  (1.0, 1e2, 1e4, 1e8),
                                  (0.0, 1e-8, 1e-2, 1.0)))[:50]
    worst_x = worst_res = worst_orth = worst_kap = 0.0
    for i, (m, n, kappa, rho) in enumerate(grid):
        p = sq.generate_problem(m, n, kappa, rho, seed=mix64(411, i))
        worst_x = max(worst_x, abs(np.linalg.norm(p.x_star) - 1.0))
        r = p.b - p.a @ p.x_star
        worst_res = max(worst_res,
                        abs(np.linalg.norm(r) - rho) - 1e-12 * rho)
        worst_orth = max(worst_orth,
                         np.linalg.norm(p.a.T @ r) - 1e-12 * rho)
        diag = condition_diagnostics(p.a)
        worst_kap = max(worst_kap,
                        abs(diag.two_norm_condition - kappa) / kappa)
    elapsed = time.perf_counter() - start
    ok = (worst_x <= 1e-14 and worst_res <= 1e-14
          and worst_orth <= 1e-14 and worst_kap <= 0.01 and elapsed < 30.0)
    _verdict(
        "criterion 1 generator fidelity", ok,
        f"50 problems, |x*| dev {worst_x:.1e}, residual dev {worst_res:.1e}, "
        f"orthogonality {worst_orth:.1e}, kappa dev {worst_kap:.1e}, {elapsed:.0f}s")


def test_criterion_2_preconditioner_quality():
    start = time.perf_counter()
    fractions = {}
    for kappa in (1e2, 1e4, 1e6, 1e8):
        good = 0
        for seed in range(100):
            p = sq.generate_problem(4096, 64, kappa, 0.0, seed=mix64(422, seed))
            pre = sq.build_preconditioner(p.a, d_factor=3.0,
                                          seed=mix64(423, seed))
            a_p = sq.precondition_matrix(p.a, pre)
            good += condition_diagnostics(a_p).two_norm_condition <= 10.0
        fractions[kappa] = good
    elapsed = time.perf_counter() - start
    ok = all(v >= 95 for v in fractions.values()) and elapsed < 120.0
    detail = ", ".join(f"kappa={k:.0e}: {v}/100" for k, v in fractions.items())
    _verdict("criterion 2 preconditioner quality", ok,
             f"{detail}, {elapsed:.0f}s")


def test_criterion_3_perturbed_factor_envelope():
    """kappa(A (R_s + E)^-1) stays inside the closed-form envelope
    kappa(A_p) (1 + eps*kappa) / (1 - eps*kappa)."""
    start = time.perf_counter()
    n = 32
    failures = 0
    for i in range(50):
        target = (0.01, 0.1, 0.5)[i % 3]
        kappa = (1e2, 1e4, 1e6)[i % 3]
        p = sq.generate_problem(500, n, kappa, 0.0, seed=mix64(431, i))
        pre = sq.build_preconditioner(p.a, seed=mix64(432, i))
        a_p = sq.precondition_matrix(p.a, pre)
        d_rs = condition_diagnostics(pre.r_s)
        g = stream(mix64(433, i), 3).standard_normal((n, n))
        g_norm = condition_diagnostics(g).two_norm
        e = g * (target * d_rs.two_norm / (d_rs.two_norm_condition * g_norm))
        perturbed_ap = lu_solve((pre.r_s + e).T, p.a.T).T
        measured = condition_diagnostics(perturbed_ap).two_norm_condition
        kappa_ap = condition_diagnostics(a_p).two_norm_condition
        envelope = kappa_ap * (1.0 + target) / (1.0 - target)
        if measured > envelope * (1.0 + 1e-8):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    _verdict("criterion 3 perturbed-factor envelope", ok,
             f"{50 - failures}/50 inside envelope, {elapsed:.0f}s")


def test_criterion_4_new_bound_domination(sweep_double, sweep_single):
    start = time.perf_counter()
    worst = 1.0
    detail = []
    for label, rows in (("double", sweep_double), ("single", sweep_single)):
        for method, key in (("pne", "bound_pne_new"),
                            ("hpne", "bound_hpne_new")):
            sub = [r for r in rows if r["method"] == method and r["error"] == ""]
            dominated = sum(1 for r in sub if r["rel_error"] <= r[key])
            frac = dominated / len(sub)
            worst = min(worst, frac)
            detail.append(f"{label}/{method} {dominated}/{len(sub)}")
    elapsed = time.perf_counter() - start
    ok = worst >= 0.99
    _verdict("criterion 4 new-bound domination", ok,
             ", ".join(detail) + f", checked in {elapsed:.0f}s")


def test_criterion_5_old_bound_blowup(sweep_single):
    checked = bad = 0
    for method, old_k, new_k in (("pne", "bound_pne_old", "bound_pne_new"),
                                 ("hpne", "bound_hpne_old", "bound_hpne_new")):
        for r in sweep_single:
            if r["method"] == method and r["error"] == "" and r["rho"] >= 1e-8:
                checked += 1
                if r[old_k] < 10.0 * r[new_k]:
                    bad += 1
    ok = bad == 0 and checked > 0
    _verdict("criterion 5 old-bound blow-up", ok,
             f"{checked - bad}/{checked} rows with old >= 10x new")


def test_criterion_6_double_precision_parity(sweep_double):
    worst = 0.0
    checked = 0
    for method in ("pne", "hpne"):
        for rho, ratio in _ratios_vs_qr(sweep_double, method):
            if rho >= 1e-4:
                checked += 1
                worst = max(worst, ratio)
    ok = checked > 0 and worst <= 10.0
    _verdict("criterion 6 double-precision parity", ok,
             f"{checked} rows at rho >= 1e-4, worst error ratio {worst:.2f}x QR")


def test_criterion_7_mixed_precision_envelope(sweep_single):
    results = []
    ok = True
    for method in ("pne", "hpne"):
        ratios = _ratios_vs_qr(sweep_single, method)
        small = [r for rho, r in ratios if rho < 1e-6]
        large = [r for rho, r in ratios if rho >= 1e-4]
        frac_small = sum(1 for r in small if r <= 1000.0) / len(small)
        frac_large = sum(1 for r in large if r <= 10.0) / len(large)
        ok = ok and frac_small >= 0.9 and frac_large >= 0.9
        results.append(f"{method} small-rho {frac_small:.0%}, "
                       f"large-rho {frac_large:.0%}")
    _verdict("criterion 7 mixed-precision envelope", ok, ", ".join(results))


def test_criterion_8_automatic_precision_selection():
    start = time.perf_counter()
    detail = []
    ok = True
    for kappa, want, ratio_cap in ((1e2, "binary16", 100.0),
                                   (1e6, "binary32", None),
                                   (1e10, "binary64", 10.0)):
        selected = err_ok = 0
        for seed in range(10):
            p = sq.generate_problem(2000, 50, kappa, 1e-8,
                                    seed=mix64(441, seed))
            report = sq.algorithm1_pipeline(
                p.a, p.b, method="pne", precision="auto",
                seed=mix64(442, seed), x_star=p.x_star)
            selected += report.precision_decision.selected.name == want
            if ratio_cap is not None:
                qr = sq.solve_qr_baseline(p.a, p.b, x_star=p.x_star)
                err_ok += report.relative_error <= ratio_cap * qr.relative_error
        ok = ok and selected == 10
        part = f"kappa={kappa:.0e} -> {want} {selected}/10"
        if ratio_cap is not None:
            ok = ok and err_ok >= 9
            part += f", error within {ratio_cap:.0f}x QR {err_ok}/10"
        detail.append(part)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _verdict("criterion 8 automatic precision selection", ok,
             "; ".join(detail) + f", {elapsed:.0f}s")


def test_criterion_9_seminormal_matches_normal():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        kappa = (1e2, 1e3, 1e4)[seed % 3]
        p = sq.generate_problem(600, 40, kappa, 1e-6, seed=mix64(451, seed))
        x_ne = sq.solve_normal(p.a, p.b).x_hat
        x_sne = sq.solve_seminormal(p.a, p.b).x_hat
        worst = max(worst, np.linalg.norm(x_sne - x_ne) / np.linalg.norm(x_ne))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 30.0
    _verdict("criterion 9 seminormal matches normal", ok,
             f"20 seeds, worst difference {worst:.1e}, {elapsed:.0f}s")


def test_criterion_10_not_normal_reductions():
    start = time.perf_counter()
    worst_hpne = worst_ne = 0.0
    for seed in range(20):
        kappa = (1e1, 1e2)[seed % 2]
        p = sq.generate_problem(400, 24, kappa, 1e-4, seed=mix64(461, seed))
        pre = sq.build_preconditioner(p.a, seed=mix64(462, seed))
        a_p = sq.precondition_matrix(p.a, pre)
        x_h = sq.solve_hpne(p.a, p.b, pre).x_hat
        x_bh = sq.solve_notnormal(p.a, a_p, p.b).x_hat
        worst_hpne = max(worst_hpne,
                         np.linalg.norm(x_bh - x_h) / np.linalg.norm(x_h))
        x_n = sq.solve_normal(p.a, p.b).x_hat
        x_bn = sq.solve_notnormal(p.a, p.a, p.b).x_hat
        worst_ne = max(worst_ne,
                       np.linalg.norm(x_bn - x_n) / np.linalg.norm(x_n))
    elapsed = time.perf_counter() - start
    ok = worst_hpne <= 1e-12 and worst_ne <= 1e-12 and elapsed < 30.0
    _verdict("criterion 10 not-normal reductions", ok,
             f"B=A_p vs HPNE {worst_hpne:.1e}, B=A vs NE {worst_ne:.1e}, "
             f"{elapsed:.0f}s")


def test_criterion_11_benchmark_asserts_schema_only():
    rows = sq.run_benchmark(m=400, n_list=(16, 32), kappa=1e4, rho=1e-6,
                            trials=2, seed=7)
    ok = len(rows) == 6
    for row in rows:
        ok = ok and list(row.keys()) == BENCH_COLUMNS
        ok = ok and row["median_wall_ms"] > 0.0
        ok = ok and row["rel_error"] >= 0.0
        ok = ok and row["speedup_vs_qr"] > 0.0
    # deliberately no assertion on how large any speedup is: wall-clock
    # comparisons at this scale say nothing about the method
    _verdict("criterion 11 benchmark schema only", ok,
             f"{len(rows)} rows, schema and positivity checked")
