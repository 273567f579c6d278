"""Order-1 Edgeworth approximation for densities of normalized sums.

Given independent members X_1..X_m with means m_j and covariances C_j, let
V = (1/m) sum C_j, B = V^{-1/2} and

    Z = m^{-1/2} B (S - sum_j m_j),    S = X_1 + ... + X_m.

The density q of Z is approximated by

    q(x) ~= phi(x) [1 + m^{-1/2} P1(x)],
    P1(x) = kappa_ijk H_ijk(x) / 6 = (kappa_ijk x_i x_j x_k - 3 kappa_iik x_k) / 6,

summed over repeated indices, where kappa_ijk averages the third cumulants
of the standardized summands B (X_j - m_j) (equal to their third central
moments) and H_ijk(x) = x_i x_j x_k - x_i delta_jk - x_j delta_ik - x_k delta_ij
is the third tensor Hermite polynomial.  P1 is odd, so the correction never
moves the density at the origin.  The quality metric used throughout is
the weighted sup error max (1 + ||x||^4) |exact - approx|, which decays
like 1/m at order 1.

The averaged cumulants are kept as one symmetric (d, d, d) array, and P1
is two einsum contractions of it.  The expansion at a tilt theta is that of
family.tilt(theta).
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import LOG_2PI, sym_inv_sqrt, tensor_grid


def third_cumulant(family, B):
    """The (d, d, d) array kappa_ijk: the family average of
    E[(B (X - mean))_i (...)_j (...)_k].

    Third cumulants of a centered vector equal its third moments, so the
    averaged central third-moment tensor contracted with rows of B gives
    every entry.
    """
    d = family.dim
    B = np.asarray(B, dtype=float).reshape(d, d)
    tensor = family.third_central_moment_tensor()
    return np.einsum("ia,jb,kc,abc->ijk", B, B, B, tensor)


@dataclass(frozen=True)
class EdgeworthModel:
    dim: int
    count: int
    mean_sum: np.ndarray
    avg_cov: np.ndarray
    B: np.ndarray
    avg_third_cumulants: np.ndarray
    order: int


def build_model(family, order=1):
    """Assemble the normalization and cumulant data for a member block, from
    the members' own laws; build_model(family.tilt(theta)) expands at theta."""
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    m = len(family)
    origin = np.zeros(family.dim)
    mean_sum = m * family.cgf_grad(origin)
    avg_cov = family.cgf_hess(origin)
    B = sym_inv_sqrt(avg_cov)
    kappa = third_cumulant(family, B)
    return EdgeworthModel(family.dim, m, mean_sum, avg_cov, B, kappa, order)


def skew_correction(model, x):
    """P1(x) = (kappa_ijk x_i x_j x_k - 3 kappa_iik x_k) / 6, the order-1
    polynomial factor, at an (N, d) batch of points."""
    kappa = model.avg_third_cumulants
    cubic = np.einsum("ijk,ni,nj,nk->n", kappa, x, x, x)
    return (cubic - 3.0 * np.einsum("iik,nk->n", kappa, x)) / 6.0


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


GRID_POINTS = 241


def default_grid(dim):
    """Evaluation grid for sup errors: the tensor grid of GRID_POINTS points
    per axis on [-6, 6]^dim, for dim <= 2."""
    if dim > 2:
        raise ValueError(f"default_grid covers dim <= 2, got dim = {dim}")
    return tensor_grid([-6.0] * dim, [6.0] * dim, GRID_POINTS)
