"""Property test of algorithm1_pipeline over shapes, methods and precisions.

Every drawn case either raises a typed error (SketchLsqError, or
ValueError for a sketch the shape cannot hold) or returns a finite x_hat.
When the preconditioner ran in the precision the automatic rule picks for
the input, or a wider one, the error against the planted solution must
also be within 10 x bound_ls.  A forced precision narrower than that rule
leaves the domain the analysis covers (kappa * u1 > 1), so only
finiteness is asserted there.  The bound is written out here rather than
taken from sketchlsq.bounds so the check does not lean on the code under
test.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sketchlsq as sq
from sketchlsq.rng import mix64

U = 2.0 ** -52


def _problem(m, n, kappa, rho, seed):
    if m > n:
        return sq.generate_problem(m, n, kappa, rho, seed)
    # the generator needs m > n; a square system has no residual
    a = (sq.random_orthogonal_columns(n, n, mix64(seed, 1))
         @ sq.triangular_with_condition(n, kappa, mix64(seed, 2)))
    x_star = np.ones(n) / np.sqrt(n)
    return sq.LeastSquaresProblem(a=a, b=a @ x_star, x_star=x_star, rho=0.0,
                                  kappa=kappa, seed=seed)


def _bound_ls(a, b, x_star):
    kappa = np.linalg.cond(a)
    res_ratio = (np.linalg.norm(a @ x_star - b)
                 / (np.linalg.norm(a, 2) * np.linalg.norm(x_star)))
    return kappa * U * (1.0 + kappa * res_ratio)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(
    n=st.sampled_from((1, 2, 5, 16)),
    extra_rows=st.sampled_from((0, 1, 37, 300)),
    log_kappa=st.sampled_from((2.0, 6.0, 10.0)),
    rho=st.sampled_from((0.0, 1e-8, 1e-2)),
    method=st.sampled_from(("pne", "hpne")),
    precision=st.sampled_from(("half", "single", "double", "auto")),
    transform=st.sampled_from(("dct2", "wht")),
    d_factor=st.sampled_from((1.5, 3.0)),
    seed=st.integers(0, 2 ** 16),
)
# n == 1; m == n; m = 300 + 16 (not a power of two) under WHT padding
@example(n=1, extra_rows=37, log_kappa=2.0, rho=1e-8, method="pne",
         precision="half", transform="wht", d_factor=3.0, seed=1)
@example(n=5, extra_rows=0, log_kappa=2.0, rho=0.0, method="hpne",
         precision="double", transform="wht", d_factor=1.5, seed=2)
@example(n=16, extra_rows=300, log_kappa=6.0, rho=1e-2, method="pne",
         precision="auto", transform="wht", d_factor=3.0, seed=3)
@example(n=16, extra_rows=300, log_kappa=6.0, rho=1e-8, method="hpne",
         precision="single", transform="wht", d_factor=3.0, seed=4)
def test_pipeline_raises_typed_error_or_meets_bound(
        n, extra_rows, log_kappa, rho, method, precision, transform,
        d_factor, seed):
    kappa = 1.0 if n == 1 else 10.0 ** log_kappa
    m = n + extra_rows
    p = _problem(m, n, kappa, rho, seed)
    try:
        report = sq.algorithm1_pipeline(
            p.a, p.b, method=method, precision=precision, d_factor=d_factor,
            transform=transform, seed=seed, x_star=p.x_star)
    except (sq.SketchLsqError, ValueError):
        return
    assert np.isfinite(report.x_hat).all()
    rule = sq.decide_precision(p.a).selected
    if report.preconditioner.computed_in.unit_roundoff > rule.unit_roundoff:
        return
    limit = 10.0 * _bound_ls(p.a, p.b, p.x_star)
    assert report.relative_error <= limit, (
        f"{method}/{precision} {m}x{n} kappa={kappa:g}: "
        f"{report.relative_error:.3e} > {limit:.3e}")


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(
    n=st.sampled_from((1, 2, 5, 16)),
    extra_rows=st.sampled_from((0, 1, 37, 300)),
    edge=st.sampled_from((15, -14, -24)),
    method=st.sampled_from(("pne", "hpne")),
    precision=st.sampled_from(("half", "auto")),
    transform=st.sampled_from(("dct2", "wht")),
    d_factor=st.sampled_from((1.0, 1.0 + 2.0 ** -52)),
    seed=st.integers(0, 2 ** 16),
)
# the largest entry just below the binary16 overflow threshold, at the
# smallest normal and at the smallest subnormal, each with d = n
@example(n=16, extra_rows=300, edge=15, method="pne", precision="half",
         transform="wht", d_factor=1.0, seed=5)
@example(n=5, extra_rows=37, edge=-14, method="hpne", precision="half",
         transform="dct2", d_factor=1.0, seed=6)
@example(n=16, extra_rows=37, edge=-24, method="pne", precision="auto",
         transform="wht", d_factor=1.0, seed=7)
def test_pipeline_at_binary16_range_edges_raises_typed_error_or_is_finite(
        n, extra_rows, edge, method, precision, transform, d_factor, seed):
    """A and b are scaled by one power of two, so that A's largest entry
    lies in [2^(edge-1), 2^edge): next to the binary16 overflow threshold
    (edge 15), the smallest normal (-14) or the smallest subnormal (-24).
    d_factor 1 gives d = n, and the next float above 1 gives d = n + 1.
    Outside any analysed domain, so only the outcome's type is checked."""
    kappa = 1.0 if n == 1 else 1e2
    m = n + extra_rows
    p = _problem(m, n, kappa, 1e-8 if m > n else 0.0, seed)
    _, exp = np.frexp(np.abs(p.a).max())
    scale = 2.0 ** (edge - int(exp))
    try:
        report = sq.algorithm1_pipeline(
            p.a * scale, p.b * scale, method=method, precision=precision,
            d_factor=d_factor, transform=transform, seed=seed,
            x_star=p.x_star)
    except sq.SketchLsqError:
        return
    except ValueError as exc:
        # only a sketch taller than the (padded) input may be refused
        assert "exceeds padded height" in str(exc)
        return
    assert np.isfinite(report.x_hat).all()
