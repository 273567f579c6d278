"""Order-1 Edgeworth approximation for densities of normalized sums.

Given independent (possibly tilted) members X_1..X_m with means m_j and
covariances C_j, let V = (1/m) sum C_j, B = V^{-1/2} and

    Z = m^{-1/2} B (S - sum_j m_j),    S = X_1 + ... + X_m.

The density q of Z is approximated by

    q(x) ~= phi(x) [1 + m^{-1/2} P1(x)],
    P1(x) = sum_{|nu|=3} (chi_nu / nu!) H_nu(x),

where chi_nu averages the nu-th cumulants of the standardized summands
B (X_j - m_j) (equal to their third central moments), and H_nu is the
product of probabilists' Hermite polynomials He_{nu_i}(x_i).  All H_nu with
|nu| = 3 vanish at 0, so the correction never moves the density at the
origin.  The quality metric used throughout is the weighted sup error
max (1 + ||x||^4) |exact - approx|, which decays like 1/m at order 1.

Multi-indices are enumerated in ascending lexicographic order; the map from
nu to chi_nu stores raw averaged cumulants, with the nu! divisor applied at
evaluation time.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import LOG_2PI, as_vector, sym_inv_sqrt, tensor_grid

_HERMITE = (
    lambda u: np.ones_like(u),
    lambda u: u,
    lambda u: u * u - 1.0,
    lambda u: u * (u * u - 3.0),
)


def multi_indices(dim, weight=3):
    """All multi-indices of the given total weight, lexicographically ascending."""
    return [nu for nu in itertools.product(range(weight + 1), repeat=dim) if sum(nu) == weight]


def hermite3(nu, x):
    """Product Hermite polynomial H_nu(x) = prod_i He_{nu_i}(x_i), |nu| = 3.

    x may be a scalar (d = 1), one point of length d, or an (N, d) batch.
    """
    if sum(nu) != 3:
        raise ValueError(f"multi-index {nu} does not have weight 3")
    d = len(nu)
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 0 or (pts.ndim == 1 and d > 1)
    if pts.size % d != 0:
        raise ValueError(f"points of shape {pts.shape} for multi-index {nu}")
    pts = pts.reshape(-1, d)
    val = np.ones(pts.shape[0])
    for i, power in enumerate(nu):
        val = val * _HERMITE[power](pts[:, i])
    return float(val[0]) if single else val


def third_cumulant(family, theta, B):
    """Map nu -> average over the family of E[(B (X_tilted - mean))^nu], |nu| = 3.

    Third cumulants of a centered vector equal its third moments, so the
    averaged central third-moment tensor contracted with rows of B gives
    every entry.
    """
    d = family.dim
    B = np.asarray(B, dtype=float).reshape(d, d)
    tensor = family.third_central_moment_tensor(theta)
    moments = np.einsum("ia,jb,kc,abc->ijk", B, B, B, tensor)
    out = {}
    for nu in multi_indices(d):
        slots = tuple(i for i, power in enumerate(nu) for _ in range(power))
        out[nu] = float(moments[slots])
    return out


@dataclass(frozen=True)
class EdgeworthModel:
    dim: int
    count: int
    mean_sum: np.ndarray
    avg_cov: np.ndarray
    B: np.ndarray
    avg_third_cumulants: dict
    order: int


def build_model(family, theta, order=1):
    """Assemble the normalization and cumulant data for a member block."""
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    theta = as_vector(theta, family.dim)
    m = len(family)
    mean_sum = m * family.cgf_grad(theta)
    avg_cov = family.cgf_hess(theta)
    B = sym_inv_sqrt(avg_cov)
    chi = third_cumulant(family, theta, B)
    return EdgeworthModel(family.dim, m, mean_sum, avg_cov, B, chi, order)


def skew_correction(model, x):
    """P1(x) = sum_nu chi_nu / nu! H_nu(x), the order-1 polynomial factor."""
    pts = np.atleast_2d(np.asarray(x, dtype=float).reshape(-1, model.dim))
    corr = np.zeros(pts.shape[0])
    for nu, chi in model.avg_third_cumulants.items():
        if chi == 0.0:
            continue
        divisor = math.prod(math.factorial(p) for p in nu)
        corr += (chi / divisor) * hermite3(nu, pts)
    return corr


def edgeworth_density(model, x):
    """Approximate density of the normalized sum at x (order 0 or 1)."""
    pts = np.asarray(x, dtype=float)
    single = pts.ndim == 0 or (pts.ndim == 1 and model.dim > 1)
    pts = pts.reshape(-1, model.dim) if pts.size else pts.reshape(0, model.dim)
    phi = np.exp(-0.5 * np.sum(pts * pts, axis=1) - 0.5 * model.dim * LOG_2PI)
    if model.order == 0:
        out = phi
    else:
        out = phi * (1.0 + skew_correction(model, pts) / math.sqrt(model.count))
    return float(out[0]) if single else out


def weighted_sup_error(model, exact_density, grid):
    """max over the grid of (1 + ||x||^4) |exact(x) - edgeworth(x)|."""
    pts = np.atleast_2d(np.asarray(grid, dtype=float).reshape(-1, model.dim))
    if pts.shape[0] == 0:
        raise ValueError("grid is empty")
    exact = np.asarray(exact_density(pts), dtype=float).reshape(-1)
    approx = edgeworth_density(model, pts)
    weight = 1.0 + np.sum(pts * pts, axis=1) ** 2
    return float(np.max(weight * np.abs(exact - approx)))


def default_grid(dim, lo=-6.0, hi=6.0, points_per_axis=241, rng=None, mc_points=100_000):
    """Evaluation grid for sup errors: a tensor grid for dim <= 2, Gaussian
    Monte Carlo points beyond that."""
    if dim <= 2:
        return tensor_grid([lo] * dim, [hi] * dim, points_per_axis)
    if rng is None:
        rng = np.random.default_rng(0)
    return rng.standard_normal((mc_points, dim))
