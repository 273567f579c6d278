"""Conditional densities given the sum, and the density ratio behind them.

For independent members X_1..X_n with densities p_j, the block X_1..X_k
given {S_1n = s} has conditional density

    q(x_1..x_k) = prod_{j<=k} p_j(x_j) * f_comp(s - sum x_j) / f_full(s),

where f_comp and f_full are the densities of X_{k+1}+..+X_n and of the full
sum.  Conditioning is invariant under exponential tilting: the same formula
evaluated with every member tilted by the same theta returns identical
values, which this module exposes as a testable identity.

With theta solved so that the average tilted mean equals a, the central
object is the ratio

    rho(t) = f_{k+1,n}(n a - t) / f_{1,n}(n a)

of tilted sum densities, evaluated either exactly (the closed-form
convolutions family[k:].tilt(theta).convolve() and
family.tilt(theta).convolve()) or through order-1 Edgeworth approximations
of both normalized densities together with the exact determinant ratio.
The normalized coordinates

    t_tilde = k^{-1/2} B_{1,k} (t - sum_{j<=k} m_j(theta))
    t_sharp = (n-k)^{-1/2} B_{k+1,n} (sum_{j<=k} m_j(theta) - t)

satisfy t_sharp = -sqrt(k/(n-k)) B_{k+1,n} B_{1,k}^{-1} t_tilde and drive
the size of rho - 1.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .edgeworth import build_model, edgeworth_density
from .errors import NonConvergenceError, UndefinedConditionalError
from .numerics import as_vector, sym_inv, sym_inv_sqrt, sym_logdet
from .tilting import solve_tilt


# ---------------------------------------------------------------------------
# Sum densities: closed-form convolutions and the Edgeworth surrogate
# ---------------------------------------------------------------------------

class EdgeworthSumDensity:
    """Sum density reconstructed from the order-1 expansion of the normalized
    sum; an approximation (may dip below zero far in the tails), used where
    no closed form exists."""

    def __init__(self, family, theta, order=1):
        self.model = build_model(family, theta, order=order)
        # f_S(s) = det(m^{-1/2} B) q(m^{-1/2} B (s - mean_sum))
        self._log_jac = -0.5 * self.model.dim * math.log(self.model.count) + 0.5 * sym_logdet(
            self.model.B @ self.model.B
        )

    @property
    def dim(self):
        return self.model.dim

    def density(self, x):
        pts = np.asarray(x, dtype=float).reshape(-1, self.dim)
        z = (pts - self.model.mean_sum) @ self.model.B.T / math.sqrt(self.model.count)
        vals = edgeworth_density(self.model, z) * math.exp(self._log_jac)
        vals = np.atleast_1d(vals)
        single = np.ndim(x) == 0 or (np.ndim(x) == 1 and self.dim > 1)
        return float(vals[0]) if single else vals


def _tilted(family, theta):
    return family if theta is None else family.tilt(theta)


def sum_density(family, theta=None, kind="exact", order=1):
    """Density of the (tilted) sum of the family: the closed-form convolution
    (kind "exact") or its Edgeworth surrogate (kind "edgeworth")."""
    if kind == "exact":
        return _tilted(family, theta).convolve()
    if kind == "edgeworth":
        theta = np.zeros(family.dim) if theta is None else theta
        return EdgeworthSumDensity(family, theta, order=order)
    raise ValueError(f"unknown sum density kind {kind!r}")


# ---------------------------------------------------------------------------
# Conditional density given the total sum
# ---------------------------------------------------------------------------

def _check_block(family, k):
    n = len(family)
    if not (1 <= k < n):
        raise ValueError(f"block size k={k} must satisfy 1 <= k < n={n}")
    return n


def _scalar_log(density, point):
    return float(density.log_density(np.reshape(np.asarray(point, dtype=float), (1, -1)))[0])


def _solved_theta(family, a):
    sol = solve_tilt(family, a)
    if not sol.converged:
        raise NonConvergenceError(
            f"tilting equation did not converge (residual {sol.residual_norm:.3e})"
        )
    return sol.theta


def conditional_density(family, k, x_block, s):
    """Density of (X_1..X_k) given {S_1n = s}, evaluated at x_block.

    Raises UndefinedConditionalError when s carries zero density under the
    full sum.
    """
    k = int(k)
    _check_block(family, k)
    d = family.dim
    s = as_vector(s, d)
    x = np.asarray(x_block, dtype=float).reshape(k, d)

    log_den = _scalar_log(family.convolve(), s)
    if not np.isfinite(log_den):
        raise UndefinedConditionalError(f"conditioning point s={s} has zero sum density")

    log_num = _scalar_log(family[k:].convolve(), s - x.sum(axis=0))
    log_num += float(np.sum(family[:k].log_density(x)))
    if not np.isfinite(log_num):
        return 0.0
    return math.exp(log_num - log_den)


def tilting_invariance_check(family, k, a, t):
    """Evaluate the conditional density of the block sum at t twice: from the
    original members and from the members tilted to mean a.  The two numbers
    agree identically in exact arithmetic; both are returned for comparison."""
    n = _check_block(family, k)
    d = family.dim
    a = as_vector(a, d)
    t = as_vector(t, d)
    na = n * a
    theta = _solved_theta(family, a)

    def cond_at(theta):
        tilted = _tilted(family, theta)
        log_den = _scalar_log(tilted.convolve(), na)
        if not np.isfinite(log_den):
            raise UndefinedConditionalError(f"zero sum density at s={na}")
        log_num = _scalar_log(tilted[:k].convolve(), t) + _scalar_log(tilted[k:].convolve(), na - t)
        return math.exp(log_num - log_den) if np.isfinite(log_num) else 0.0

    return cond_at(None), cond_at(theta)


# ---------------------------------------------------------------------------
# Normalized coordinates and the density ratio
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizedCoords:
    t_tilde: np.ndarray
    t_sharp: np.ndarray


class RatioContext:
    """Precomputed data for repeated ratio evaluations with fixed
    (family, k, a): the solved tilt, exact sum densities and normalization
    matrices.  The Edgeworth models of block complement and full sum are
    built on first use, so the exact ratio never pays for them."""

    def __init__(self, family, k, a, theta=None):
        self.n = _check_block(family, k)
        self.k = int(k)
        self.d = family.dim
        self.a = as_vector(a, self.d)
        self.na = self.n * self.a
        if theta is None:
            theta = _solved_theta(family, self.a)
        self.theta = as_vector(theta, self.d)
        self.family = family

        block = family[: self.k]
        self.block_mean = self.k * block.cgf_grad(self.theta)
        self.block_B = sym_inv_sqrt(block.cgf_hess(self.theta))

        tilted = family.tilt(self.theta)
        self._comp_exact = tilted[self.k :].convolve()
        self._log_full_at_na = _scalar_log(tilted.convolve(), self.na)
        if not np.isfinite(self._log_full_at_na):
            raise UndefinedConditionalError(f"zero sum density at s={self.na}")

    @cached_property
    def comp_model(self):
        return build_model(self.family[self.k :], self.theta, order=1)

    @cached_property
    def full_model(self):
        return build_model(self.family, self.theta, order=1)

    @cached_property
    def log_det_ratio(self):
        """log of det(Cov S_full)^(1/2) / det(Cov S_comp)^(1/2), Cov = count * V."""
        return 0.5 * (
            self.d * math.log(self.n / (self.n - self.k))
            + sym_logdet(self.full_model.avg_cov)
            - sym_logdet(self.comp_model.avg_cov)
        )

    def coords(self, t):
        """(t_tilde, t_sharp) for an array of block-sum values, shape (N, d)."""
        t = np.asarray(t, dtype=float).reshape(-1, self.d)
        t_tilde = (t - self.block_mean) @ self.block_B.T / math.sqrt(self.k)
        t_sharp = (self.block_mean - t) @ self.comp_model.B.T / math.sqrt(self.n - self.k)
        return t_tilde, t_sharp

    def log_ratio_exact(self, t):
        t = np.asarray(t, dtype=float).reshape(-1, self.d)
        return self._comp_exact.log_density(self.na - t) - self._log_full_at_na

    def exact(self, t):
        return np.exp(self.log_ratio_exact(t))

    def edgeworth(self, t):
        t = np.asarray(t, dtype=float).reshape(-1, self.d)
        _, t_sharp = self.coords(t)
        g_comp = np.atleast_1d(edgeworth_density(self.comp_model, t_sharp))
        g_full0 = edgeworth_density(self.full_model, np.zeros(self.d))
        return math.exp(self.log_det_ratio) * g_comp / g_full0


def normalized_coords(family, k, a, t, theta=None):
    """The pair (t_tilde, t_sharp) for a single block-sum value t."""
    ctx = RatioContext(family, k, a, theta=theta)
    t_tilde, t_sharp = ctx.coords(as_vector(t, ctx.d))
    return NormalizedCoords(t_tilde.reshape(-1), t_sharp.reshape(-1))


def density_ratio(family, k, a, t, method="exact", theta=None):
    """rho(t) = f_comp(n a - t) / f_full(n a) for tilted sums.

    method "exact" uses the closed-form convolutions; "edgeworth" evaluates
    the exact determinant ratio times the ratio of order-1 approximations of
    the two normalized densities.
    """
    ctx = RatioContext(family, k, a, theta=theta)
    t = as_vector(t, ctx.d)
    if method == "exact":
        return float(ctx.exact(t)[0])
    if method == "edgeworth":
        return float(ctx.edgeworth(t)[0])
    raise ValueError(f"unknown ratio method {method!r}")


def gibbs_density(family, k, theta, x):
    """Gibbs-form density of the block sum:

        p_{S_1k}(x) exp(<theta, x>) / Phi_1k(theta),

    computed from the untilted block-sum density and the explicit
    reweighting; coincides with the exact tilted block-sum density.
    """
    if not (1 <= k <= len(family)):
        raise ValueError(f"block size k={k} must be in [1, n]")
    d = family.dim
    theta = as_vector(theta, d)
    x = as_vector(x, d)
    block = family[:k]
    log_phi = k * block.cgf(theta)
    log_val = _scalar_log(block.convolve(), x) + float(theta @ x) - log_phi
    return math.exp(log_val) if np.isfinite(log_val) else 0.0


def normalized_exact_density(family, theta, model=None):
    """Exact density of the normalized (tilted) sum in the coordinates of the
    Edgeworth model; the oracle for weighted sup error tests."""
    if model is None:
        model = build_model(family, theta, order=1)
    exact = family.tilt(theta).convolve()
    back = sym_inv(model.B) * math.sqrt(model.count)
    log_jac = 0.5 * model.dim * math.log(model.count) - 0.5 * sym_logdet(model.B @ model.B)

    def density(z):
        pts = np.asarray(z, dtype=float).reshape(-1, model.dim)
        return np.exp(exact.log_density(model.mean_sum + pts @ back.T) + log_jac)

    return density
