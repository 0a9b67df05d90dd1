"""Tests for the closed-form forward-error bound evaluations.

Expected values were computed by hand from the bound formulas at the
stated inputs and frozen here as literals.
"""

from dataclasses import replace

import numpy as np
import pytest

from sketchlsq import (
    MissingField,
    PoleAtOne,
    bound_hpne,
    bound_ls,
    bound_ne_family,
    bound_notnormal,
    bound_pne,
    build_preconditioner,
    condition_diagnostics,
    eta1,
    generate_problem,
    measure_bound_inputs,
    precondition_matrix,
    solve_hpne,
    solve_pne,
)
from sketchlsq.bounds import BoundInputs, measure_problem
from sketchlsq.solvers import METHODS

U52 = 2.0 ** -52
U23 = 2.0 ** -23


def test_eta1_oracles():
    assert eta1(1e4, U52) == 2.2204460492552434e-12
    # kappa * u1 = 11.92 here, past the pole, so the magnitude is taken
    assert eta1(1e8, U23) == 1.091567302022875
    assert eta1(0.0, U52) == 0.0


def test_eta1_pole():
    with pytest.raises(PoleAtOne):
        eta1(2.0 ** 52, U52)


def test_bound_ls_oracles():
    inputs = BoundInputs(kappa_a=1e4, eps_a=U52, res_ratio_a=0.0)
    assert bound_ls(inputs) == 2.220446049250313e-12
    assert bound_ls(inputs.updated(res_ratio_a=1e-2)) == 2.2426505097428162e-10


def test_bound_ne_oracles():
    inputs = BoundInputs(kappa_a=1e4, eps_a=U52, res_ratio_a=1e-2)
    assert bound_ne_family(inputs) == 2.242650509742817e-08
    # kappa^2 * eps reaches order one at kappa = 1e8 even with zero residual
    grown = inputs.updated(kappa_a=1e8, res_ratio_a=0.0)
    assert bound_ne_family(grown) == 2.2204460492503135


def test_bound_pne_oracles():
    inputs = BoundInputs(
        kappa_a=1e4, kappa_rs=1e4, kappa_ap=2.0, u1=U52, u2=U52,
        res_ratio_a=1e-2, res_ratio_ap=1e-2, nu_pne=1.0,
    )
    assert bound_pne(inputs, variant="new") == 8.926193117986357e-10
    assert bound_pne(inputs, variant="old") == 8.926193118006177e-10


def test_bound_hpne_oracles():
    inputs = BoundInputs(
        kappa_a=1e4, kappa_rs=1e4, kappa_apta=1e4, nu_hpne=1.2,
        u1=U52, u2=U52, res_ratio_a=1e-6,
    )
    assert bound_hpne(inputs, variant="old") == 2.691180611697355e-12
    assert bound_hpne(inputs, variant="new") == 2.6911806116972957e-12


def test_bound_notnormal_oracle():
    inputs = BoundInputs(kappa_a=1e4, eps_a=U52, eps_b=U52, res_ratio_a=1e-2)
    got = bound_notnormal(inputs, kappa_bta=1e4, nu_b=1.1)
    assert got == 2.4669155607170982e-12


def test_old_bound_blows_up_in_low_precision():
    """With a single-precision factor at kappa(R_s) = 1e8 the eta term is
    order one, so the old bounds dwarf the new ones."""
    inputs = BoundInputs(
        kappa_a=1e8, kappa_rs=1e8, kappa_ap=2.0, kappa_apta=2e8, nu_pne=1.0,
        nu_hpne=1.0, u1=U23, u2=U52, res_ratio_a=1e-4, res_ratio_ap=1e-4,
    )
    assert bound_pne(inputs, variant="old") >= 100.0 * bound_pne(inputs, variant="new")
    assert bound_hpne(inputs, variant="old") >= 100.0 * bound_hpne(inputs, variant="new")


def test_bounds_monotone_in_residual_and_condition():
    base = BoundInputs(kappa_a=1e4, eps_a=U52, res_ratio_a=1e-8)
    assert bound_ne_family(base.updated(res_ratio_a=1e-2)) > bound_ne_family(base)
    assert bound_ne_family(base.updated(kappa_a=1e6)) > bound_ne_family(base)
    assert bound_ls(base.updated(res_ratio_a=1e-2)) > bound_ls(base)


def test_missing_field_raised_per_bound():
    empty = BoundInputs()
    for fn in (bound_ls, bound_ne_family, bound_pne, bound_hpne):
        with pytest.raises(MissingField):
            fn(empty)
    with pytest.raises(MissingField):
        bound_notnormal(empty, kappa_bta=1.0, nu_b=1.0)


def test_measured_inputs_satisfy_norm_identities():
    """nu_pne = |R_s x|/(|R_s| |x|) <= 1 and nu_hpne = |A_p||A|/|A_p^T A| >= 1
    hold by norm submultiplicativity."""
    for seed in range(5):
        p = generate_problem(400, 30, 1e4, 1e-4, seed=seed)
        pre = build_preconditioner(p.a, seed=seed)
        a_p = precondition_matrix(p.a, pre)
        diag = measure_problem(p, pre=pre, a_p=a_p)
        for report in (solve_pne(p.a, p.b, pre, x_star=p.x_star, a_p=a_p),
                       solve_hpne(p.a, p.b, pre, x_star=p.x_star, a_p=a_p)):
            inputs = measure_bound_inputs(p, report, pre=pre,
                                          diagnostics=diag)
            if report.method == "pne":
                assert inputs.nu_pne <= 1.0 + 1e-12
                assert inputs.nu_pne > 0.0
            else:
                assert inputs.nu_hpne >= 1.0 - 1e-12
            assert inputs.res_ratio_a >= 0.0
            assert inputs.u1 == U52 and inputs.u2 == U52
            assert inputs.kappa_rs == condition_diagnostics(
                pre.r_s).two_norm_condition
            assert inputs.kappa_ap == condition_diagnostics(
                a_p).two_norm_condition


def test_measured_u1_follows_preconditioner_precision():
    from sketchlsq import BINARY32

    p = generate_problem(300, 20, 1e2, 1e-6, seed=2)
    pre = build_preconditioner(p.a, level=BINARY32, seed=2)
    a_p = precondition_matrix(p.a, pre)
    report = solve_pne(p.a, p.b, pre, x_star=p.x_star, a_p=a_p)
    inputs = measure_bound_inputs(p, report, pre=pre)
    assert inputs.u1 == U23
    assert inputs.u2 == U52


def test_measured_error_below_new_bound():
    for seed in range(5):
        p = generate_problem(500, 32, 1e4, 1e-6, seed=seed)
        pre = build_preconditioner(p.a, seed=seed)
        a_p = precondition_matrix(p.a, pre)
        report = solve_pne(p.a, p.b, pre, x_star=p.x_star, a_p=a_p)
        inputs = measure_bound_inputs(p, report, pre=pre)
        assert report.relative_error <= bound_pne(inputs, variant="new")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_measured_residual_ratios_are_finite_near_the_range():
    """A and b scaled by 2^664 (about 1e200), or A alone by 2^-664 so that
    x_hat grows by 2^664, stay in the binary64 range, and so must the norms
    of x_hat, of the residuals and of R_s x_hat.  The factors are exact
    powers of two, so every solve is bitwise scale-equivariant and the
    ratios must match the unscaled ones."""
    p = generate_problem(200, 10, 1e3, 1e-6, seed=4)
    for big in (replace(p, a=p.a * 2.0 ** 664, b=p.b * 2.0 ** 664),
                replace(p, a=p.a * 2.0 ** -664)):
        for method in ("qr", "pne", "hpne"):
            spec = METHODS[method]
            measured = []
            for q in (p, big):
                pre = None
                if spec.preconditioned:
                    pre = build_preconditioner(q.a, seed=4)
                report = spec.solve(q.a, q.b, None, pre, None)
                measured.append(measure_bound_inputs(q, report, pre))
            base, scaled = measured
            names = ["res_ratio_a"]
            if spec.preconditioned:
                names.append("res_ratio_ap")
            for name in names:
                value = getattr(scaled, name)
                assert np.isfinite(value), (method, name)
                assert value == pytest.approx(getattr(base, name),
                                              rel=1e-12), (method, name)
