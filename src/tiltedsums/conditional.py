"""Conditional laws given the sum, and the density ratio behind them.

For independent members X_1..X_n with densities p_j, the block X_1..X_k
given {S_1n = s} has conditional density

    q(x_1..x_k) = prod_{j<=k} p_j(x_j) * f_rest(s - sum x_j) / f_full(s),

where f_rest and f_full are the densities of X_{k+1}+..+X_n and of the full
sum.  Conditioning is invariant under exponential tilting: the same formula
evaluated with every member tilted by the same theta returns identical
values, which this module exposes as a testable identity.

RatioContext is the one object that conditions a family on {S_1n = n a}.
It tilts the family once, to average mean a in closed form
(family.tilt_to_mean, which also gives the theta of that law; no Newton
solve runs), and reads only the tilted laws: the block-sum law ctx.block and
rest-sum law ctx.rest (closed-form convolutions), the Edgeworth models of
the block and the rest (whose mean_sum and B normalize), and the ratio

    rho(t) = f_rest(n a - t) / f_full(n a)

of tilted sum densities, so that given the sum the block sum has density
rho(t) ctx.block(t).  rho is evaluated either exactly (log_ratio_given_sum,
or fill_log_ratio at fresh draws of the block sum) or through order-1
Edgeworth approximations of both normalized densities together with the
exact determinant ratio.  The normalized coordinates

    t_tilde = k^{-1/2} B_{1,k} (t - sum_{j<=k} m_j(theta))
    t_sharp = (n-k)^{-1/2} B_{k+1,n} (sum_{j<=k} m_j(theta) - t)

satisfy t_sharp = -sqrt(k/(n-k)) B_{k+1,n} B_{1,k}^{-1} t_tilde and drive
the size of rho - 1.
"""

import math
from functools import cached_property

import numpy as np

from .errors import UndefinedConditionalError
from .numerics import LOG_2PI, as_vector, sym_inv, sym_logdet


# ---------------------------------------------------------------------------
# Conditional density given the total sum
# ---------------------------------------------------------------------------

def _check_block(family, k, upper="<"):
    """The block size as an int; ValueError unless k is an integer in [1, n) ([1, n] for upper="<=")."""
    n = len(family)
    if not (1 <= k <= n - (upper == "<")) or k != int(k):
        raise ValueError(f"block size k={k} must be an integer with 1 <= k {upper} n={n}")
    return int(k)


def _scalar_log(density, point):
    return float(density.log_density(np.reshape(np.asarray(point, dtype=float), (1, -1)))[0])


def _zero_density(family, point):
    """Whether the sum of family's members has zero density at point:
    point[0] at or below the lower end of its support, family.mean_lower,
    which a kind shares with its sums.  No arithmetic touches the point, so
    a Normal target too far out for float reaches the pair methods' guards
    instead of overflowing a log density here."""
    return not float(np.ravel(point)[0]) > family.mean_lower


def conditional_density(family, k, x_block, s):
    """Density of (X_1..X_k) given {S_1n = s}, evaluated at x_block.

    Raises UndefinedConditionalError when s carries zero density under the
    full sum.
    """
    k = _check_block(family, k)
    d = family.dim
    s = as_vector(s, d)
    x = np.asarray(x_block, dtype=float).reshape(k, d)
    if _zero_density(family, s):
        raise UndefinedConditionalError(f"conditioning point s={s} has zero sum density")
    block, rest = family[:k], family[k:].convolve()
    log_q = block.convolve().log_ratio_given_sum(rest, s, x.sum(axis=0, keepdims=True))[0]
    log_q += np.sum(block.log_density(x))
    return math.exp(log_q) if np.isfinite(log_q) else 0.0


# ---------------------------------------------------------------------------
# The family conditioned on its sum: tilted block and rest laws, density ratio
# ---------------------------------------------------------------------------

class RatioContext:
    """The family conditioned on {S_1n = n a}, tilted to mean a in closed
    form, or by theta when given: the block-sum law `block` (of
    X_1+..+X_k) and the rest-sum law `rest` (of X_{k+1}+..+X_n), both
    closed-form convolutions, the Edgeworth models block_model and
    comp_model of the block and the rest (block_model.mean_sum and
    block_model.B normalize the block sum), and fill_log_ratio.  Given the
    sum, the block sum has density rho(t) block(t).  All are read from the
    tilted family, and all but the block-sum law are built on first use, so
    each estimator pays only for what it reads.  The full sum needs no
    model: rho is evaluated where the full sum's normalized coordinate is 0,
    and P1(0) = 0 leaves its order-1 density there at (2 pi)^(-d/2)."""

    def __init__(self, family, k, a, theta=None):
        self.n = len(family)
        self.k = _check_block(family, k)
        self.d = family.dim
        self.a = as_vector(a, self.d)
        self.na = self.n * self.a
        self._at_mean = theta is None
        if self._at_mean:
            self._tilted, theta = family.tilt_to_mean(self.a)
        else:
            self._tilted = family.tilt(theta)
        self.theta = as_vector(theta, self.d)
        self.block = self._tilted[: self.k].convolve()
        if _zero_density(self._tilted, self.na):
            raise UndefinedConditionalError(f"zero sum density at s={self.na}")

    @cached_property
    def rest(self):
        """The tilted rest-sum law."""
        return self._tilted[self.k :].convolve()

    @cached_property
    def block_model(self):
        """build_model of the tilted block; its mean_sum and B normalize the block sum."""
        from .edgeworth import build_model

        return build_model(self._tilted[: self.k], order=1)

    @cached_property
    def comp_model(self):
        from .edgeworth import build_model

        return build_model(self._tilted[self.k :], order=1)

    @cached_property
    def log_det_ratio(self):
        """log of det(Cov S_full)^(1/2) / det(Cov S_comp)^(1/2), Cov = count * V."""
        return 0.5 * (
            self.d * math.log(self.n / (self.n - self.k))
            + sym_logdet(self._tilted.cgf_hess(np.zeros(self.d)))
            - sym_logdet(self.comp_model.avg_cov)
        )

    def coords(self, t):
        """(t_tilde, t_sharp) for an array of block-sum values, shape (N, d)."""
        t = np.asarray(t, dtype=float).reshape(-1, self.d)
        mean, B = self.block_model.mean_sum, self.block_model.B
        t_tilde = (t - mean) @ B.T / math.sqrt(self.k)
        t_sharp = (mean - t) @ self.comp_model.B.T / math.sqrt(self.n - self.k)
        return t_tilde, t_sharp

    def log_ratio_exact(self, t):
        t = np.asarray(t, dtype=float).reshape(-1, self.d)
        return self.block.log_ratio_given_sum(self.rest, self.na, t)

    @cached_property
    def fill_log_ratio(self):
        """fill(rng, out): draws len(out) block sums from ctx.block on rng
        and writes log rho at them into out.  The stream is consumed as
        ctx.block.sample does, except where the tilted family draws rho from
        less than the block sum (family.block_ratio_sampler: shared-covariance
        Normal members of d >= 2 conditioned at their own mean draw one
        Gamma(d / 2) radius per value)."""
        fill = self._tilted.block_ratio_sampler(self.k) if self._at_mean else None
        return fill or self.block.log_ratio_sampler(self.rest, self.na)

    def exact(self, t):
        return np.exp(self.log_ratio_exact(t))

    def edgeworth(self, t):
        from .edgeworth import edgeworth_density

        t = np.asarray(t, dtype=float).reshape(-1, self.d)
        _, t_sharp = self.coords(t)
        g_comp = np.atleast_1d(edgeworth_density(self.comp_model, t_sharp))
        g_full0 = np.exp(-0.5 * self.d * LOG_2PI)
        return math.exp(self.log_det_ratio) * g_comp / g_full0


def tilting_invariance_check(family, k, a, t):
    """Evaluate the conditional density rho(t) f_block(t) of the block sum at
    t given {S_1n = n a} twice: from the untilted members (theta = 0) and
    from the members tilted to mean a.  The two numbers agree identically in
    exact arithmetic; both are returned for comparison."""
    contexts = RatioContext(family, k, a, theta=np.zeros(family.dim)), RatioContext(family, k, a)
    t = as_vector(t, family.dim).reshape(1, -1)
    return tuple(float(np.exp(ctx.block.log_density(t) + ctx.log_ratio_exact(t))[0]) for ctx in contexts)


def gibbs_density(family, k, theta, x):
    """Gibbs-form density of the block sum:

        p_{S_1k}(x) exp(<theta, x>) / Phi_1k(theta),

    computed from the untilted block-sum density and the explicit
    reweighting; coincides with the exact tilted block-sum density.
    """
    k = _check_block(family, k, upper="<=")
    d = family.dim
    theta = as_vector(theta, d)
    x = as_vector(x, d)
    block = family[:k]
    log_phi = k * block.cgf(theta)
    log_val = _scalar_log(block.convolve(), x) + float(theta @ x) - log_phi
    return math.exp(log_val) if np.isfinite(log_val) else 0.0


def normalized_exact_density(family, model):
    """Exact density of the normalized sum of family's members in the
    coordinates of their Edgeworth model `model` (build_model(family)); the
    oracle for weighted sup error tests.  Pass family.tilt(theta) for the
    tilted sum."""
    exact = family.convolve()
    back = sym_inv(model.B) * math.sqrt(model.count)
    log_jac = 0.5 * model.dim * math.log(model.count) - 0.5 * sym_logdet(model.B @ model.B)

    def density(z):
        pts = np.asarray(z, dtype=float).reshape(-1, model.dim)
        return np.exp(exact.log_density(model.mean_sum + pts @ back.T) + log_jac)

    return density
