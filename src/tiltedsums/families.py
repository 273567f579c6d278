"""Columnar member families and exponential tilting.

A *family* holds the laws of an independent (not necessarily identically
distributed) sequence X_1..X_n as parameter arrays with one row per member.
It knows the average cumulant generating function

    kbar(theta) = (1/n) sum_j kappa_j(theta),    kappa_j = log E[exp(<theta, X_j>)],

with its gradient and Hessian (the average mean and covariance of the tilted
members), and how to tilt itself: the tilted density

    p_theta(x) = exp(<theta, x>) p(x) / Phi(theta)

stays inside the family for both concrete kinds shipped here, and so does the
sum of the members:

    Normal(mu_j, Gamma_j) -> Normal(mu_j + Gamma_j theta, Gamma_j),   Theta = R^d
                             sum: Normal(sum_j mu_j, sum_j Gamma_j)
    Gamma(k_j, t)         -> Gamma(k_j, t / (1 - theta t)),           Theta = (-inf, 1/t)
                             sum: Gamma(sum_j k_j, t)

Slicing gives the family of a block (family[:k], family[k:]), a single member
is a family of length 1, and convolve() returns the law of the sum as a
family of length 1.  Densities, cdf and samplers are those of a single
law X, and so are P(X <= x | X + Y = s), log rho(t) = log f_Y(s - t) -
log f_{X+Y}(s), its values at fresh draws of X and the two zeros of log rho
(cdf_given_sum, log_ratio_given_sum, log_ratio_sampler and ratio_roots, given
Y = rest); log_density also evaluates member j at point j when given one
point per member.  The per-member hooks of the assumption checks return one
row per member.

Gamma members require shape > 2 so densities are C^1 and fourth moments stay
uniformly controlled under tilting; a gamma family shares a single scale t.
Families are immutable; random number generators are always passed
explicitly.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import betainc, betaln, gammainc, gammaln, ndtr

from .errors import OutOfDomainError
from .numerics import LOG_2PI, as_vector, check_symmetric, sym_inv, sym_inv_sqrt, sym_logdet, sym_sqrt


# ---------------------------------------------------------------------------
# Domain of finiteness of the cgf
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AllSpace:
    """Theta = R^d (Normal members)."""

    dim: int

    def contains(self, theta, margin=0.0):
        t = as_vector(theta, self.dim)
        return bool(np.all(np.isfinite(t)))

    def boundary_distance(self, theta):
        return math.inf


@dataclass(frozen=True)
class HalfLine:
    """Theta = (-inf, upper), strictly (Gamma members, upper = 1/scale)."""

    upper: float

    def contains(self, theta, margin=0.0):
        t = as_vector(theta, 1)
        return bool(np.isfinite(t[0]) and t[0] < self.upper - margin)

    def boundary_distance(self, theta):
        t = as_vector(theta, 1)
        return self.upper - float(t[0])


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

class Family:
    """Base of the array-backed families.

    Subclasses provide kind, dim, domain, __len__, _take(slice), the average
    cgf calculus (cgf, cgf_grad, cgf_hess), tilt, convolve, distinct, the
    single-law operations (log_density, cdf, sample, cdf_given_sum,
    log_ratio_given_sum, log_ratio_sampler, ratio_roots) and the per-member
    hooks of the assumption checks (member_hess, fourth_central_moment,
    char_fn_modulus_sup, density_partial_l1), plus third_central_moment_tensor
    averaged over the family for the Edgeworth expansion.
    """

    def __getitem__(self, index):
        """The family of a block of members; an integer gives one member."""
        if isinstance(index, (int, np.integer)):
            if not -len(self) <= index < len(self):
                raise IndexError(f"member {index} out of range for {len(self)} members")
            index = slice(index, index + 1 or None)
        if not isinstance(index, slice):
            raise TypeError("families are indexed by an integer or a slice")
        return self._take(index)

    def density(self, x):
        out = np.exp(self.log_density(x))
        return float(out) if np.ndim(out) == 0 else out

    def _check_theta(self, theta):
        t = as_vector(theta, self.dim)
        if not self.domain.contains(t):
            raise OutOfDomainError(
                f"theta={t} outside the open domain of the {self.kind} cgf"
            )
        return t

    def _single(self, what, *others):
        if any(len(law) != 1 for law in (self, *others)):
            raise ValueError(f"{what} needs single laws; index or convolve the family first")

    def _points(self, x):
        """Normalize x to an (N, d) array; report whether input was a single point."""
        a = np.asarray(x, dtype=float)
        if a.ndim == 0:
            if self.dim != 1:
                raise ValueError("scalar input for a multivariate family")
            return a.reshape(1, 1), True
        if a.ndim == 1:
            if self.dim == 1:
                return a.reshape(-1, 1), False
            if a.shape[0] != self.dim:
                raise ValueError(f"point of length {a.shape[0]} for dim {self.dim}")
            return a.reshape(1, -1), True
        if a.ndim == 2 and a.shape[1] == self.dim:
            return a, False
        raise ValueError(f"cannot interpret array of shape {a.shape} as points")


def _nonempty(count):
    if count == 0:
        raise ValueError("member sequence is empty")


# ---------------------------------------------------------------------------
# Gamma families
# ---------------------------------------------------------------------------

class GammaFamily(Family):
    """Members Gamma(shapes[j], scale) on (0, inf), every shape > 2 strictly,
    one shared scale > 0.

    kappa_j(theta) = -shapes[j] * log(1 - theta * scale) for theta < 1 / scale.
    """

    kind = "gamma"
    dim = 1

    def __init__(self, shapes, scale):
        shapes = np.asarray(shapes, dtype=float).reshape(-1)
        _nonempty(shapes.size)
        if not np.all(shapes > 2.0):
            raise ValueError(f"gamma shape must exceed 2, got {np.min(shapes)}")
        if not (scale > 0.0):
            raise ValueError(f"gamma scale must be positive, got {scale}")
        self.shapes = shapes
        # A numpy scale makes an overflowing power (scale**2, u**4) inf, where
        # a Python float raises; a subnormal scale still gives upper = inf
        # without a warning.
        self.scale = np.float64(scale)
        self.domain = HalfLine(1.0 / float(scale))
        self._kbar = float(shapes.mean())

    def __len__(self):
        return self.shapes.shape[0]

    def _take(self, index):
        return GammaFamily(self.shapes[index], self.scale)

    def _denom(self, theta):
        return 1.0 - float(self._check_theta(theta)[0]) * self.scale

    def cgf(self, theta):
        return -self._kbar * math.log1p(-float(self._check_theta(theta)[0]) * self.scale)

    def cgf_grad(self, theta):
        return np.array([self._kbar * self.scale / self._denom(theta)])

    def cgf_hess(self, theta):
        return np.array([[self._kbar * self.scale**2 / self._denom(theta) ** 2]])

    def tilt(self, theta):
        return GammaFamily(self.shapes, self.scale / self._denom(theta))

    def convolve(self):
        return GammaFamily([self.shapes.sum()], self.scale)

    def distinct(self):
        return GammaFamily(np.unique(self.shapes), self.scale)

    # -- single law (or one point per member for log_density) ---------------

    @cached_property
    def _log_norm(self):
        return gammaln(self.shapes) + self.shapes * math.log(self.scale)

    def log_density(self, x):
        pts, single = self._points(x)
        v = pts[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (self.shapes - 1.0) * np.log(v) - v / self.scale - self._log_norm
        out = np.where(v > 0.0, out, -np.inf)
        return float(out[0]) if single else out

    def cdf(self, x):
        self._single("cdf")
        return gammainc(self.shapes[0], np.maximum(np.asarray(x, dtype=float), 0.0) / self.scale)

    def sample(self, rng, count):
        """i.i.d. draws, shape (count, 1)."""
        self._single("sample")
        return rng.gamma(self.shapes[0], self.scale, size=(count, 1))

    def _bridge(self, rest):
        """Shapes (K_x, K_y) of single laws X = self, Y = rest of one scale."""
        self._single("a law given its sum", rest)
        if rest.scale != self.scale:
            raise ValueError(f"gamma laws with scales {self.scale} and {rest.scale} have no beta bridge")
        return self.shapes[0], rest.shapes[0]

    def cdf_given_sum(self, rest, s, x):
        """P(X <= x | X + Y = s) for X = self, Y = rest: X / s ~ Beta(K_x, K_y)
        given the sum, whatever the shared scale."""
        ratio = np.clip(np.asarray(x, dtype=float) / s, 0.0, 1.0)
        return betainc(*self._bridge(rest), ratio)

    def _log_ratio_terms(self, rest, s):
        """(s, m, lam, c) of log rho(s x) = m log1p(-x) + lam x + c: m = K_y - 1, lam = s / scale,
        c = lgamma(K_x) - betaln(K_x, K_y) - K_x log lam, none as large as the sums' log densities."""
        k_x, k_y = self._bridge(rest)
        (s,) = as_vector(s, 1)
        lam = s / self.scale
        return s, k_y - 1.0, lam, float(gammaln(k_x) - betaln(k_x, k_y) - k_x * math.log(lam))

    def log_ratio_given_sum(self, rest, s, t):
        """log f_Y(s - t) - log f_{X+Y}(s) for X = self, Y = rest; -inf for t >= s."""
        s, m, lam, c = self._log_ratio_terms(rest, s)
        pts, single = self._points(t)
        x = pts[:, 0] / s
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(x < 1.0, m * np.log1p(-x) + lam * x + c, -np.inf)
        return float(out[0]) if single else out

    def log_ratio_sampler(self, rest, s):
        """fill(rng, out): draws len(out) values of X = self on rng, as sample
        does, and writes log rho at them into out (Y = rest, sum s)."""
        self._bridge(rest)

        def fill(rng, out):
            out[:] = self.log_ratio_given_sum(rest, s, self.sample(rng, len(out)))

        return fill

    def ratio_roots(self, rest, s):
        """The zeros t_1 <= t_2 of log rho, clamped to [0, s).  g(x) = log rho(s x) is
        concave and lies below -m x^2 / 2 + (lam - m) x + c on [0, 1); from that quadratic's
        roots in [0, 1), Newton steps on g move each iterate inward until g >= 0 there (x = 0
        when c >= 0) or the next step would not move it inward or would pass the other one."""
        s, m, lam, c = self._log_ratio_terms(rest, s)
        half = math.sqrt(max((lam - m) ** 2 + 2.0 * m * c, 0.0))
        x = np.clip((lam - m + np.array([-half, half])) / m, 0.0, np.nextafter(1.0, 0.0))
        inward = np.array([1.0, -1.0])
        while True:
            g = m * np.log1p(-x) + lam * x + c
            new = x - g / (lam - m / (1.0 - x))
            move = (g < 0.0) & (inward * (new - x) > 0.0) & (inward * (x[::-1] - new) > 0.0)
            if not move.any():
                return s * x
            x = np.where(move, new, x)

    # -- hooks: one entry per member -----------------------------------------

    def member_hess(self, theta):
        return (self.shapes * self.scale**2 / self._denom(theta) ** 2).reshape(-1, 1, 1)

    def fourth_central_moment(self, theta):
        k, u = self.shapes, self.scale / self._denom(theta)
        return 3.0 * k * (k + 2.0) * u**4

    def char_fn_modulus_sup(self, theta, radii):
        u = self.scale / self._denom(theta)
        r = np.asarray(radii, dtype=float)
        return (1.0 + (u * r) ** 2) ** (-0.5 * self.shapes[:, None])

    def density_partial_l1(self, theta, axis):
        # p' changes sign once, at the mode (k - 1) u, so the L1 norm of p'
        # is 2 p(mode).
        if axis != 0:
            raise ValueError("gamma members are one-dimensional")
        k, u = self.shapes, self.scale / self._denom(theta)
        return 2.0 * np.exp((k - 1.0) * np.log((k - 1.0) * u) - (k - 1.0) - gammaln(k) - k * math.log(u))

    def third_central_moment_tensor(self, theta):
        """Third central moment 2 k u^3 of the tilted members, averaged."""
        u = self.scale / self._denom(theta)
        return np.array([[[2.0 * self._kbar * u**3]]])


# ---------------------------------------------------------------------------
# Normal families
# ---------------------------------------------------------------------------

class NormalFamily(Family):
    """Multivariate normal members N(means[j], covs[j]); covs holds one
    symmetric positive definite matrix shared by every member (shape
    (1, d, d)) or one per member (shape (n, d, d))."""

    kind = "normal"

    def __init__(self, means, covs):
        means = np.asarray(means, dtype=float)
        if means.ndim != 2:
            raise ValueError(f"means must have shape (n, d), got {means.shape}")
        _nonempty(means.shape[0])
        covs = check_symmetric(covs)
        n, d = means.shape
        if covs.ndim != 3 or covs.shape[1:] != (d, d) or covs.shape[0] not in (1, n):
            raise ValueError("covs must be shared or match means in length")
        lam_min = float(np.min(np.linalg.eigvalsh(covs)[:, 0]))
        if lam_min <= 0.0:
            raise ValueError(f"covariance not positive definite: lambda_min={lam_min:.3e}")
        self.means = means
        self.covs = covs
        self.dim = d
        self.domain = AllSpace(d)
        self._mean = means.mean(axis=0)
        self._cov = covs.mean(axis=0)

    def __len__(self):
        return self.means.shape[0]

    def _take(self, index):
        return NormalFamily(self.means[index], self.covs if self.covs.shape[0] == 1 else self.covs[index])

    @property
    def _member_covs(self):
        return np.broadcast_to(self.covs, (len(self), self.dim, self.dim))

    def cgf(self, theta):
        t = self._check_theta(theta)
        return float(self._mean @ t + 0.5 * t @ self._cov @ t)

    def cgf_grad(self, theta):
        t = self._check_theta(theta)
        return self._mean + self._cov @ t

    def cgf_hess(self, theta):
        self._check_theta(theta)
        return self._cov.copy()

    def tilt(self, theta):
        t = self._check_theta(theta)
        return NormalFamily(self.means + self.covs @ t, self.covs)

    def convolve(self):
        return NormalFamily(
            self.means.sum(axis=0, keepdims=True), self._member_covs.sum(axis=0, keepdims=True)
        )

    def distinct(self):
        n, d = self.means.shape
        rows = np.unique(np.concatenate([self.means, self._member_covs.reshape(n, d * d)], axis=1), axis=0)
        return NormalFamily(rows[:, :d], rows[:, d:].reshape(-1, d, d))

    # Inverse / sqrt / logdet are computed lazily so that a nearly singular
    # covariance can still be *inspected* (eigenvalues, Hessian) even though
    # using its density or sampler raises DegenerateCovarianceError.
    @cached_property
    def _inv(self):
        return sym_inv(self.covs)

    @cached_property
    def _inv_sqrt(self):
        return sym_inv_sqrt(self.covs)

    @cached_property
    def _logdet(self):
        return sym_logdet(self.covs)

    # -- single law (or one point per member for log_density) ---------------

    def log_density(self, x):
        # The quadratic form is the squared norm of the whitened residual,
        # formed as (d, N) rows so that every pass runs along the points.
        pts, single = self._points(x)
        diff = (pts - self.means).T
        if self.covs.shape[0] == 1:
            white = self._inv_sqrt[0] @ diff
        else:
            white = np.einsum("nij,jn->in", self._inv_sqrt, diff)
        quad = np.einsum("in,in->n", white, white)
        out = -0.5 * (self.dim * LOG_2PI + self._logdet + quad)
        return float(out[0]) if single else out

    def _sd(self):
        self._single("cdf")
        if self.dim != 1:
            raise ValueError("cdf is defined for one-dimensional laws only")
        return math.sqrt(self.covs[0, 0, 0])

    def cdf(self, x):
        return ndtr((np.asarray(x, dtype=float) - self.means[0, 0]) / self._sd())

    def sample(self, rng, count):
        """i.i.d. draws, shape (count, d), as a column-major view so that
        later per-coordinate work runs along the draws."""
        self._single("sample")
        z = rng.standard_normal((count, self.dim))
        return (sym_sqrt(self.covs[0]) @ z.T + self.means[0][:, None]).T

    def cdf_given_sum(self, rest, s, x):
        """P(X <= x | X + Y = s) for one-dimensional X = self, Y = rest:
        N(m_x + w (s - m_x - m_y), w v_y) with w = v_x / (v_x + v_y)."""
        sd_x, sd_y = self._sd(), rest._sd()
        w = sd_x**2 / (sd_x**2 + sd_y**2)
        mean = self.means[0, 0] + w * (s - self.means[0, 0] - rest.means[0, 0])
        return ndtr((np.asarray(x, dtype=float) - mean) / (sd_y * math.sqrt(w)))

    def log_ratio_given_sum(self, rest, s, t):
        """log f_Y(s - t) - log f_{X+Y}(s) for single laws X = self, Y = rest."""
        self._single("log_ratio_given_sum", rest)
        s = as_vector(s, self.dim)
        pts, single = self._points(t)
        out = rest.log_density(s - pts) - self._log_sum_density(rest, s)
        return float(out[0]) if single else out

    def _log_sum_density(self, rest, s):
        """log f_{X+Y}(s) for X = self, Y = rest."""
        full = NormalFamily(self.means + rest.means, self.covs + rest.covs)
        return full.log_density(np.reshape(s, (1, -1)))[0]

    def log_ratio_sampler(self, rest, s):
        """fill(rng, out): draws len(out) values T = m_x + L z of X = self on
        rng, as sample does (L = cov_x^(1/2), z standard normal), and writes
        log rho(T) into out (Y = rest, sum s).  The whitened rest residual
        W (s - T - m_y) (W = cov_y^(-1/2)) is c - A z with A = W L and
        c = W (s - m_x - m_y), so the two affine maps are composed once here
        and a fill costs one (d, d) by (d, len(out)) product; T is never
        formed.  Temporaries are z and one (d, len(out)) array."""
        self._single("log_ratio_sampler", rest)
        s = as_vector(s, self.dim)
        w = rest._inv_sqrt[0]
        a_map = w @ sym_sqrt(self.covs[0])
        shift = (w @ (s - self.means[0] - rest.means[0]))[:, None]
        const = -0.5 * (self.dim * LOG_2PI + rest._logdet[0]) - self._log_sum_density(rest, s)

        def fill(rng, out):
            z = rng.standard_normal((len(out), self.dim))
            white = a_map @ z.T
            np.subtract(shift, white, out=white)
            np.einsum("in,in->n", white, white, out=out)
            out *= -0.5
            out += const

        return fill

    def ratio_roots(self, rest, s):
        """The zeros s - m_y -+ sqrt(v_y (z^2 - log1p(-v_x / v_f))) of log rho for
        one-dimensional X = self, Y = rest; v_f = v_x + v_y, z = (s - m_x - m_y) / sqrt(v_f)."""
        v_x, v_y = self._sd() ** 2, rest._sd() ** 2
        (s,) = as_vector(s, 1)
        z2 = (s - self.means[0, 0] - rest.means[0, 0]) ** 2 / (v_x + v_y)
        half = math.sqrt(v_y * (z2 - math.log1p(-v_x / (v_x + v_y))))
        return s - rest.means[0, 0] + np.array([-half, half])

    # -- hooks: one entry per member -----------------------------------------

    def member_hess(self, theta):
        self._check_theta(theta)
        return self._member_covs

    def fourth_central_moment(self, theta):
        self._check_theta(theta)
        g = self._member_covs
        return 2.0 * np.einsum("nij,nji->n", g, g) + np.trace(g, axis1=1, axis2=2) ** 2

    def char_fn_modulus_sup(self, theta, radii):
        self._check_theta(theta)
        r = np.asarray(radii, dtype=float)
        lam_min = np.linalg.eigvalsh(self._member_covs)[:, 0]
        return np.exp(-0.5 * lam_min[:, None] * r * r)

    def density_partial_l1(self, theta, axis):
        # d p/dx_l = -(cov^{-1}(x - mu))_l p(x), and (cov^{-1}(X - mu))_l is
        # N(0, v) with v = (cov^{-1})_{ll}, so the L1 norm is E|N(0, v)|.
        self._check_theta(theta)
        v = np.broadcast_to(self._inv[:, axis, axis], (len(self),))
        return np.sqrt(2.0 * v / math.pi)

    def third_central_moment_tensor(self, theta):
        self._check_theta(theta)
        return np.zeros((self.dim, self.dim, self.dim))


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def gamma_family(shapes, scale):
    """Members Gamma(shapes[j], scale) sharing one scale."""
    return GammaFamily(shapes, scale)


def normal_family(means, covs):
    """Normal members N(means[j], covs[j]); covs may be a single matrix (or a
    list holding one) shared by every member."""
    covs = np.asarray(covs, dtype=float)
    return NormalFamily(means, covs[None] if covs.ndim == 2 else covs)
