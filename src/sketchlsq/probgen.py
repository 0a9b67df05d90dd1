"""Synthetic least-squares problems with planted solution and spectrum.

A problem is A = Q1 R with Q1 random orthonormal, R upper triangular with
unit norm and log-spaced singular values reaching the requested condition
number, x* a normalized Gaussian, and b = A x* + e where e is drawn
orthogonal to range(A) and scaled to the requested residual norm rho.
Everything is a deterministic function of (m, n, kappa, rho, seed).
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr

from . import rng
from .dense import qr_r_factor
from .errors import DegenerateResidual
from .mmio import read_matrix, read_vector, write_matrix

FORMAT_VERSION = 1
# meta.json's keys and the JSON numbers each holds (type, so no bool)
_META_TYPES = {"format_version": (int,), "m": (int,), "n": (int,),
               "kappa": (int, float), "rho": (int, float), "seed": (int,)}


@dataclass(frozen=True)
class LeastSquaresProblem:
    """A generated instance: minimize norm(a x - b) with known x*.

    rho is the exact residual norm planted at generation time (it is the
    norm of the stored residual vector up to float64 rounding of the
    construction itself, not re-measured).
    """

    a: np.ndarray
    b: np.ndarray
    x_star: np.ndarray
    rho: float
    kappa: float
    seed: int

    @property
    def m(self):
        return self.a.shape[0]

    @property
    def n(self):
        return self.a.shape[1]


def random_orthogonal_columns(m, k, seed):
    """Orthonormal m x k columns: LAPACK's thin QR of a seeded Gaussian,
    run in place on one Fortran copy of it."""
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    g = rng.stream(seed, rng.LANE_GAUSSIAN).standard_normal((m, k))
    return qr(np.asfortranarray(g), overwrite_a=True, mode="economic",
              check_finite=False)[0]


def triangular_with_condition(n, kappa, seed):
    """Upper-triangular R with norm(R) = 1 and condition number kappa.

    Singular values are log-spaced from 1 down to 1/kappa; R is the
    triangular factor of a random orthogonal conjugation of that spectrum,
    so its singular values are exactly the planted ones up to rounding.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if kappa < 1:
        raise ValueError(f"need kappa >= 1, got {kappa}")
    if n == 1 and kappa != 1:
        raise ValueError("a 1 x 1 triangle always has condition 1")
    sv = 10.0 ** np.linspace(0.0, -math.log10(kappa), n)
    u = random_orthogonal_columns(n, n, rng.mix64(seed, 1))
    v = random_orthogonal_columns(n, n, rng.mix64(seed, 2))
    return qr_r_factor((u * sv) @ v.T)


def _check_shape(m, n, kappa):
    # generate_problem's rules for its shape and condition number
    if not m > n >= 1:
        raise ValueError(f"need m > n >= 1, got m={m}, n={n}")
    if not kappa >= 1 or (n == 1 and kappa != 1):
        raise ValueError(f"need kappa >= 1, and 1 at n = 1, got {kappa}")


def generate_problem(m, n, kappa, rho, seed):
    """Generate a full-rank instance with planted x*, spectrum, and residual.

    Parameters
    ----------
    m, n : int
        Shape with m > n >= 1.
    kappa : float
        Planted condition number, >= 1.
    rho : float
        Norm of the planted residual; rho = 0 skips the noise draw and
        sets b = a @ x_star exactly (in float64 arithmetic).
    seed : int
        Reproduces the instance bitwise.

    Raises
    ------
    DegenerateResidual
        If three residual-direction draws in a row land (numerically) in
        the column span, leaving nothing to normalize.
    """
    _check_shape(m, n, kappa)
    if rho < 0:
        raise ValueError(f"need rho >= 0, got {rho}")
    q1 = random_orthogonal_columns(m, n, rng.mix64(seed, 1))
    r = triangular_with_condition(n, kappa, rng.mix64(seed, 2))
    a = q1 @ r
    g = rng.stream(rng.mix64(seed, 3), rng.LANE_GAUSSIAN).standard_normal(n)
    x_star = g / np.linalg.norm(g)
    b = a @ x_star
    if rho > 0:
        for attempt in range(3):
            w = rng.stream(rng.mix64(seed, 4, attempt),
                           rng.LANE_GAUSSIAN).standard_normal(m)
            e = w - q1 @ (q1.T @ w)
            norm_e = np.linalg.norm(e)
            if norm_e >= 1e-12:
                break
        else:
            raise DegenerateResidual("residual draws collapsed into range(a)")
        b = b + (rho / norm_e) * e
    return LeastSquaresProblem(a=a, b=b, x_star=x_star, rho=float(rho),
                               kappa=float(kappa), seed=int(seed))


def save_problem(problem, directory):
    """Archive a problem as A.mtx, b.mtx, xstar.mtx plus meta.json."""
    os.makedirs(directory, exist_ok=True)
    write_matrix(os.path.join(directory, "A.mtx"), problem.a)
    write_matrix(os.path.join(directory, "b.mtx"), problem.b)
    write_matrix(os.path.join(directory, "xstar.mtx"), problem.x_star)
    meta = {
        "format_version": FORMAT_VERSION,
        "m": problem.m,
        "n": problem.n,
        "kappa": problem.kappa,
        "rho": problem.rho,
        "seed": problem.seed,
    }
    with open(os.path.join(directory, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def load_problem(directory):
    """Load an archived problem; the round trip is bitwise exact.

    Raises ValueError when meta.json is malformed or a matrix file holds
    complex entries or disagrees with it.
    """
    with open(os.path.join(directory, "meta.json")) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict) or any(
            type(meta.get(key)) not in types
            for key, types in _META_TYPES.items()):
        raise ValueError("meta.json must be an object with integer "
                         "format_version, m, n and seed and numeric kappa "
                         "and rho")
    version = meta["format_version"]
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported archive format_version {version!r}")
    a = read_matrix(os.path.join(directory, "A.mtx"))
    b = read_vector(os.path.join(directory, "b.mtx"))
    x_star = read_vector(os.path.join(directory, "xstar.mtx"))
    m, n = meta["m"], meta["n"]
    for name, data, shape in (("A", a, (m, n)), ("b", b, (m,)),
                              ("xstar", x_star, (n,))):
        if data.shape != shape:
            raise ValueError(
                f"{name}.mtx shape {data.shape} disagrees with meta {m}x{n}")
    return LeastSquaresProblem(a=a, b=b, x_star=x_star, rho=float(meta["rho"]),
                               kappa=float(meta["kappa"]), seed=meta["seed"])
