"""Columnar member families and exponential tilting.

A *family* holds the laws of an independent (not necessarily identically
distributed) sequence X_1..X_n as r parameter rows and the length n, member
j having the law of row j mod r (a list of member parameters is r = n rows).
It knows the average cumulant generating function

    kbar(theta) = (1/n) sum_j kappa_j(theta),    kappa_j = log E[exp(<theta, X_j>)],

with its gradient and Hessian (the average mean and covariance of the tilted
members), and how to tilt itself: the tilted density

    p_theta(x) = exp(<theta, x>) p(x) / Phi(theta)

stays inside the family for both concrete kinds shipped here, and so does the
sum of the members; tilt_to_mean(a) gives the family tilted to average mean
a in closed form, with its theta (Gamma keeps the shapes at scale a / kbar,
exact where theta t rounds to 1):

    Normal(mu_j, Gamma_j) -> Normal(mu_j + Gamma_j theta, Gamma_j),   Theta = R^d
                             sum: Normal(sum_j mu_j, sum_j Gamma_j)
    Gamma(k_j, t)         -> Gamma(k_j, t / (1 - theta t)),           Theta = (-inf, 1/t)
                             sum: Gamma(sum_j k_j, t)

Slicing gives the family of a block (family[:k], family[k:]), a single member
is a family of length 1, and so is the law of the sum, convolve().
Densities, cdf (Gamma) and sample are those of a single law X; given Y = rest and
the sum s, so are log rho(t) = log f_Y(s - t) - log f_{X+Y}(s), its values
at fresh draws of X, its two zeros and the integral of (rho - 1) f_X
between two points.  block_ratio_sampler draws log rho for the first k
members' sum at the family's own mean, from one Gamma(d / 2) radius per
value for shared-covariance Normal members of d >= 2.  The hooks of the
assumption checks return one entry per row (of covs for Normal); theta
reaches the members through tilt alone.

Gamma members require shape > 2 so densities are C^1 and fourth moments stay
uniformly controlled under tilting; a gamma family shares a single scale t.
The constructors validate a family once and derived laws are stored
unchecked (Family); a covariance that float made unusable raises
DegenerateCovarianceError where it is used.
Families are immutable; random number generators are always passed
explicitly.

The Gamma cdf and both kinds' excess_mass are self-normalized
Gauss-Legendre integrals (_window_integral).
"""

import math
from functools import cache, cached_property

import numpy as np

from .errors import ConditioningError, OutOfDomainError
from .numerics import (
    LOG_2PI,
    as_vector,
    check_symmetric,
    guarded_eigh,
    lgamma,
    log1pmx,
    stirling_tail,
    sym_inv,
    sym_inv_sqrt,
    sym_logdet,
    sym_sqrt,
)


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

class Family:
    """Base of the families of r parameter rows cycled to n members.

    A subclass constructor validates one row per member and passes it to
    _store(n, *rows), which sets fields only; every derived law (build,
    slices, tilt, convolve) is _cycled(n, *rows), the arguments cycled to n
    members, stored unvalidated.  Subclasses provide kind, dim,
    _rotated(shift, count) (the arguments of rows shift, shift + 1, ... mod
    r, at most count), the average cgf calculus (cgf, cgf_grad, cgf_hess),
    tilt, tilt_to_mean (where the kind has it in closed form), convolve,
    block_ratio_sampler (where the kind draws less than the block sum), the
    single-law operations (log_density, sample, Gamma's cdf, excess_mass,
    log_ratio_given_sum, log_ratio_sampler, ratio_roots)
    and the hooks of the assumption checks (member_hess,
    fourth_central_moment, char_fn_modulus_sup, density_partial_l1), plus
    third_central_moment_tensor averaged over the members for the Edgeworth
    expansion; none of these takes theta.

    The cgf domain is Theta = {finite theta : theta[0] < theta_upper}, and a
    target mean needs a[0] > mean_lower, the lower end of the members'
    support hull; a kind with a bounded side overrides the infinite defaults.
    """

    theta_upper = math.inf
    mean_lower = -math.inf

    def __len__(self):
        return self._n

    @property
    def counts(self):
        """Members per row, as floats: row i stands for n // r + (i < n % r)."""
        q, rem = divmod(self._n, self._r)
        return np.concatenate((np.full(rem, q + 1.0), np.full(self._r - rem, float(q))))

    def __getitem__(self, index):
        """The family of a block of members; an integer gives one member."""
        members = range(len(self))[index]
        if isinstance(members, int):
            members = range(members, members + 1)
        if members.step != 1:
            raise ValueError("families take contiguous slices only")
        return self._cycled(len(members), *self._rotated(members.start % self._r, len(members)))

    def build(self, n):
        """The family of n members cycling the rows: member j is row j mod r."""
        return self._cycled(n, *self._rotated(0, n))

    def _cycled(self, n, *rows):
        _nonempty(n)
        family = object.__new__(type(self))
        family._store(n, *rows)
        return family

    def _member_sum(self, column):
        """The members' sum of a column with one entry per row, or one shared
        by all: n // rows times the rows' sum, plus the first n % rows rows;
        inf past the float range, silently, for the laws' guards to raise on."""
        q, rem = divmod(self._n, len(column))
        with np.errstate(over="ignore"):
            return q * np.add.reduce(column, axis=0) + np.add.reduce(column[:rem], axis=0)

    def _at_points(self, count, column):
        """A row column at count points: the one law's row at every point,
        or member j's row at point j when there is one point per member."""
        if len(self) != 1 and count != len(self):
            raise ValueError(f"{count} points for {len(self)} members; give one point per member")
        return column if len(column) in (1, count) else np.resize(column, (count,) + column.shape[1:])

    def density(self, x):
        out = np.exp(self.log_density(x))
        return float(out) if np.ndim(out) == 0 else out

    def in_domain(self, theta):
        """Whether theta lies in the open cgf domain Theta."""
        t = as_vector(theta, self.dim).tolist()
        return all(map(math.isfinite, t)) and t[0] < self.theta_upper

    def _target(self, a):
        """a as a vector, inside the support hull (OutOfDomainError unless
        a[0] > mean_lower)."""
        a = as_vector(a, self.dim)
        if math.isfinite(self.mean_lower) and a[0] <= self.mean_lower:
            raise OutOfDomainError(
                f"target mean a={a[0]} outside ({self.mean_lower:g}, inf) for {self.kind} members"
            )
        return a

    def _check_theta(self, theta):
        t = as_vector(theta, self.dim)
        if not self.in_domain(t):
            raise OutOfDomainError(
                f"theta={t} outside the open domain of the {self.kind} cgf"
            )
        return t

    def _single(self, what, *others):
        if any(len(law) != 1 for law in (self, *others)):
            raise ValueError(f"{what} needs single laws; index or convolve the family first")

    def block_ratio_sampler(self, k, s, block, rest):
        """block.log_ratio_sampler(rest, s) for block = self[:k].convolve(),
        rest = self[k:].convolve() and a family whose members' means add up
        to s (one from tilt_to_mean(s / n)): a kind may use that to draw
        less than the block sum itself."""
        return block.log_ratio_sampler(rest, s)

    def _gibbs_terms(self, gibbs):
        """(law, theta, log_mgf) of log_ratio_sampler; called after the pair's
        guards, so that a far target raises before log_mgf can overflow."""
        if not gibbs:
            return self, None, None
        law, theta, members = gibbs
        return law, theta, len(members) * members.cgf(theta)

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


class _Scratch:
    """Arrays that a log_ratio_sampler fill reuses from call to call:
    take(slot, shape, dtype) is a C-contiguous array of that shape over the
    first items of one flat array per slot, reallocated only when a call
    needs more.  Fresh temporaries per chunk go back to the system and are
    page-faulted in again on the next; a reused buffer is not.  A fill
    holding one is not safe to call from two threads at once."""

    def __init__(self):
        self._flat = {}

    def take(self, slot, shape, dtype=float):
        size = math.prod(shape)
        flat = self._flat.get(slot)
        if flat is None or flat.size < size:
            flat = self._flat[slot] = np.empty(size, dtype=dtype)
        return flat[:size].reshape(shape)


# Largest eps * size that a log ratio takes when it subtracts two terms of
# that size, so that each value carries a rounding error of about eps * size.
# Untilted sums conditioned far from their means (tv_joint_mc's) reach it.
# Normal: log f_{X+Y}(s); on normal_df.cfg at n = 200, k = 15 the joint_mc TV
# moved by 1 to 9 times eps * size relative, so by at most about 1e-5 under
# this limit.  Gamma, with the Gibbs factor: lam x and <theta, T>, both about
# the tilted block mean over the untilted scale, K_x u / t; on Gamma rows at
# n = 20 to 12800, k = 1 to 114 and a = 10 to 1e12 (two seeds, 2e4 samples)
# the joint_mc TV moved by at most 0.24 eps * size absolute, so by at most
# 2.4e-7 under this limit.
LOG_DENSITY_LIMIT = 1e-6


def _check_cancellation(s, size, terms):
    """Raise ConditioningError where eps * size exceeds LOG_DENSITY_LIMIT, a
    log ratio at the sum s subtracting `terms` of that size."""
    if not np.finfo(float).eps * size <= LOG_DENSITY_LIMIT:
        raise ConditioningError(
            f"log rho at s = {s} subtracts {terms} of size {size:.3e}, more than {LOG_DENSITY_LIMIT:g} / eps"
        )


def _nonempty(count):
    if count < 1:
        raise ValueError(f"a family needs at least one member, got {count}")


# ---------------------------------------------------------------------------
# Self-normalized Gauss-Legendre integrals
# ---------------------------------------------------------------------------

# Positive nodes and weights of the 48-point Gauss-Legendre rule on [-1, 1].
_GL_HALF = np.array([
    (0.03238017096286936, 0.06473769681268392),
    (0.0970046992094627, 0.06446616443595009),
    (0.1612223560688917, 0.06392423858464819),
    (0.22476379039468905, 0.06311419228625402),
    (0.28736248735545555, 0.062039423159892665),
    (0.34875588629216075, 0.06070443916589388),
    (0.4086864819907167, 0.059114839698395635),
    (0.4669029047509584, 0.057277292100403214),
    (0.523160974722233, 0.055199503699984165),
    (0.5772247260839727, 0.05289018948519367),
    (0.6288673967765136, 0.05035903555385447),
    (0.6778723796326639, 0.04761665849249048),
    (0.7240341309238146, 0.04467456085669428),
    (0.7671590325157404, 0.04154508294346475),
    (0.8070662040294426, 0.03824135106583071),
    (0.8435882616243935, 0.03477722256477044),
    (0.8765720202742479, 0.03116722783279809),
    (0.9058791367155696, 0.027426509708356948),
    (0.9313866907065543, 0.02357076083932438),
    (0.9529877031604309, 0.01961616045735553),
    (0.9705915925462473, 0.015579315722943849),
    (0.9841245837228269, 0.01147723457923454),
    (0.9935301722663508, 0.0073275539012762625),
    (0.9987710072524261, 0.0031533460523058385),
])
_GL_NODES = np.concatenate([-_GL_HALF[::-1, 0], _GL_HALF[:, 0]])
_GL_WEIGHTS = np.concatenate([_GL_HALF[::-1, 1], _GL_HALF[:, 1]])
# Equal panels per integral: doubling them moves the Scheffe excess masses
# by rounding alone, and from 2 by up to 4e-10.
GL_PANELS = 8
# A law's window ends where its log density lies this far below the mode,
# so the mass outside it is below e^-46 ~ 1e-20.
WINDOW_DROP = 46.0


@cache
def _panel_rule(panels):
    """(nodes, weights) of the composite rule on [0, 1]: the 48-point rule
    on each of `panels` equal panels, weights summing to 1."""
    nodes = (np.arange(panels)[:, None] + 0.5 * (_GL_NODES + 1.0)) / panels
    weights = np.broadcast_to(_GL_WEIGHTS / (2.0 * panels), nodes.shape)
    return nodes.ravel(), weights.ravel()


def _window(c):
    """Ends of an interval holding the window where -c (expm1(d) - d), the
    concave log density of Gamma(c) in d = log(T / (c u)) relative to its mode,
    is >= -WINDOW_DROP: by its tangents at +-sqrt(2 WINDOW_DROP / c), in
    Python floats, which cost a few microseconds here and tens as arrays."""
    ends = []
    for d in (-math.sqrt(2.0 * WINDOW_DROP / c), math.sqrt(2.0 * WINDOW_DROP / c)):
        e = math.expm1(d)
        ends.append(d + (WINDOW_DROP - c * (e - d)) / (c * e))
    return ends


def _window_integral(log_weight, window, lo, hi, integrand=None):
    """E[g(D); lo < D < hi], g = integrand or 1, for a law of log density
    log_weight(D) plus a constant, negligible outside window = (first, last):
    the rule of g exp(log_weight) over (lo, hi) clipped to the window over
    the rule of exp(log_weight) on it, so the constant cancels; lo and hi
    broadcast.  numpy's pairwise sums round less than a dot product."""
    first, last = window
    lo = np.minimum(np.maximum(lo, first), last)
    hi = np.minimum(np.maximum(hi, lo), last)
    # ends[..., integral, end]: integral 0 is (lo, hi), integral 1 the window
    ends = np.empty(np.shape(hi) + (2, 2))
    ends[..., 0, 0], ends[..., 0, 1], ends[..., 1, 0], ends[..., 1, 1] = lo, hi, first, last
    width = ends[..., 1] - ends[..., 0]
    nodes, weights = _panel_rule(GL_PANELS)
    points = ends[..., :1] + width[..., None] * nodes
    values = np.exp(log_weight(points))
    if integrand is not None:
        values[..., 0, :] *= integrand(points[..., 0, :])
    integrals = np.sum(values * weights, axis=-1) * width
    return integrals[..., 0] / integrals[..., 1]


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
    mean_lower = 0.0

    def __init__(self, shapes, scale):
        shapes = np.asarray(shapes, dtype=float).reshape(-1)
        _nonempty(shapes.size)
        lowest = shapes.min()
        if not lowest > 2.0:
            raise ValueError(f"gamma shape must exceed 2, got {lowest}")
        self._store(shapes.size, shapes, scale)

    def _store(self, n, shapes, scale):
        if not (scale > 0.0):  # a tilted scale too can round to 0
            raise ValueError(f"gamma scale must be positive, got {scale}")
        self.shapes = shapes
        self._n, self._r = n, shapes.size
        # A numpy scale makes an overflowing power (scale**2, u**4) inf, where
        # a Python float raises; a subnormal scale still gives
        # theta_upper = inf without a warning.
        self.scale = np.float64(scale)
        self.theta_upper = 1.0 / float(scale)

    def _rotated(self, shift, count):
        return np.concatenate((self.shapes[shift:], self.shapes[:shift]))[:count], self.scale

    @cached_property
    def _kbar(self):
        return float(self._member_sum(self.shapes) / self._n)

    def _denom(self, theta):
        return 1.0 - float(self._check_theta(theta)[0]) * self.scale

    def cgf(self, theta):
        return -self._kbar * math.log1p(-float(self._check_theta(theta)[0]) * self.scale)

    def cgf_grad(self, theta):
        return np.array([self._kbar * self.scale / self._denom(theta)])

    def cgf_hess(self, theta):
        return np.array([[self._kbar * self.scale**2 / self._denom(theta) ** 2]])

    def tilt(self, theta):
        return self._cycled(self._n, self.shapes, self.scale / self._denom(theta))

    def tilt_to_mean(self, a):
        """(the family tilted to average mean a, theta): the shapes at scale
        a / kbar, exact however far a lies, and theta = (1 - kbar t / a) / t,
        -inf past the float range; OutOfDomainError where a / kbar is 0."""
        (a,) = self._target(a)
        kbar, t = self._kbar, self.scale
        if not a / kbar > 0.0:
            total = self._member_sum(self.shapes)
            raise OutOfDomainError(f"target mean a={a} over shapes summing to {total:g} gives gamma scale 0")
        with np.errstate(over="ignore"):
            theta = (1.0 - kbar * t / a) / t
        return self._cycled(self._n, self.shapes, a / kbar), np.array([theta])

    def convolve(self):
        return self._cycled(1, self._member_sum(self.shapes)[None], self.scale)

    # -- single law (or one point per member for log_density) ---------------

    @cached_property
    def _lgamma_shapes(self):
        return np.array([lgamma(k) for k in self.shapes.tolist()])

    @cached_property
    def _log_norm(self):
        return self._lgamma_shapes + self.shapes * math.log(self.scale)

    def log_density(self, x, normalized=True):
        """log p(x); without the log normalizer lgamma(k) + k log(scale) unless normalized."""
        pts, single = self._points(x)
        v = pts[:, 0]
        shapes = self._at_points(len(v), self.shapes)
        norm = self._at_points(len(v), self._log_norm) if normalized else 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (shapes - 1.0) * np.log(v) - v / self.scale - norm
        out = np.where(v > 0.0, out, -np.inf)
        return float(out[0]) if single else out

    def _expect(self, t1, t2, integrand=None):
        """_window_integral of this law in D = log(T / (K scale)), t1 < T < t2."""
        k = float(self.shapes[0])
        with np.errstate(divide="ignore"):
            lo, hi = (np.log(np.maximum(t, 0.0) / (k * self.scale)) for t in (t1, t2))
        return _window_integral(lambda d: -k * (np.expm1(d) - d), _window(k), lo, hi, integrand)

    def cdf(self, x):
        self._single("cdf")
        return self._expect(0.0, np.asarray(x, dtype=float))

    def sample(self, rng, count):
        """count draws of the law, shape (count, 1)."""
        self._single("sample")
        return rng.gamma(self.shapes[0], self.scale, size=(count, 1))

    def _bridge(self, rest):
        """Shapes (K_x, K_y) of single laws X = self, Y = rest of one scale."""
        self._single("a law given its sum", rest)
        if rest.scale != self.scale:
            raise ValueError(f"gamma laws with scales {self.scale} and {rest.scale}: a pair needs one scale")
        return self.shapes[0], rest.shapes[0]

    def excess_mass(self, rest, s, t1, t2):
        """The integral of (rho - 1) f_X over (t1, t2) for X = self, Y = rest, by
        cdf's rule, log rho in terms no larger than itself.  For K_y >= 10, in
        x = t / s with m, lam, K and S of _log_ratio_terms and L = log1pmx,
        m L(-x) + (lam - m) x + c with c = -(K_y - 1/2) L(-K_x / K) -
        (K_x + 1/2) K_x / K + K_x log(K / lam) + S(K) - S(K_y): each term is
        O(K_x^2 / K) at the tilt to the mean, lam = K.  Below, where x nears 1,
        m log1p(-x) - lam (1 - x) + e, e = lam + c of _log_ratio_terms or, for
        K >= 10, (K_y - 1/2) log K + log(2 pi) / 2 + S(K) - lgamma(K_y) +
        K_x log(K / lam) + (lam - K).  log(K / lam) is log1p((K - lam) / lam)."""
        s, m, lam, c = self._log_ratio_terms(rest, s)
        k_x, k_y = (float(k) for k in self._bridge(rest))
        total = k_x + k_y
        log_share, tail = k_x * math.log1p((total - lam) / lam), stirling_tail(total)
        if k_y >= 10.0:
            c = -(k_y - 0.5) * log1pmx(-k_x / total) - (k_x + 0.5) * k_x / total + log_share
            c += tail - stirling_tail(k_y)
        elif total >= 10.0:
            c = (k_y - 0.5) * math.log(total) + 0.5 * LOG_2PI + tail - lgamma(k_y) + log_share + (lam - total)
        else:
            c += lam

        def excess(d):
            x = k_x / lam * np.exp(d)
            if k_y >= 10.0:
                return np.expm1(m * log1pmx(-x) + (lam - m) * x + c)
            return np.expm1(m * np.log1p(-x) - lam * (1.0 - x) + c)

        return float(self._expect(t1, t2, excess))

    def _log_ratio_terms(self, rest, s):
        """(s, m, lam, c) of log rho(s x) = m log1p(-x) + lam x + c: m = K_y - 1, lam = s / scale,
        c = lgamma(K) - lgamma(K_y) - K_x log lam with K = K_x + K_y, none as large as the sums'
        log densities.  For K_y >= 10 c is the Stirling difference
        -(K_y - 1/2) log1p(-K_x / K) + K_x log(K / lam) - K_x + S(K) - S(K_y),
        whose terms are of size K_x at most; below, lgamma of each."""
        k_x, k_y = self._bridge(rest)
        (s,) = as_vector(s, 1)
        lam = s / self.scale
        total = k_x + k_y
        if k_y >= 10.0:
            c = (
                -(k_y - 0.5) * math.log1p(-k_x / total)
                + k_x * math.log(total / lam)
                - k_x
                + (stirling_tail(total) - stirling_tail(k_y))
            )
        else:
            c = lgamma(total) - lgamma(k_y) - k_x * math.log(lam)
        return s, k_y - 1.0, lam, float(c)

    def log_ratio_given_sum(self, rest, s, t):
        """log f_Y(s - t) - log f_{X+Y}(s) for X = self, Y = rest; -inf for t >= s."""
        s, m, lam, c = self._log_ratio_terms(rest, s)
        pts, single = self._points(t)
        x = pts[:, 0] / s
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(x < 1.0, m * np.log1p(-x) + lam * x + c, -np.inf)
        return float(out[0]) if single else out

    def log_ratio_sampler(self, rest, s, gibbs=None):
        """fill(rng, out): draws len(out) values T of X = self on rng, as sample
        does, and writes log rho(T) (Y = rest, sum s) into out, a C-contiguous
        float vector; with gibbs = (law, theta, members), T of law, X tilted by
        theta, and log rho(T) - <theta, T> + sum_j kappa_j(theta) over the
        members whose sum X is.  T is scale * standard_gamma, as numpy's gamma
        draws it, and log_ratio_given_sum(rest, s, T) - T @ theta +
        len(members) * members.cgf(theta) runs in place, in reused buffers, in
        the same order, to the same bits.  With gibbs, ConditioningError where
        the terms it subtracts, of the size of law's mean over scale, pass
        LOG_DENSITY_LIMIT."""
        s, m, lam, c = self._log_ratio_terms(rest, s)
        if gibbs:
            _check_cancellation(s, gibbs[0].shapes[0] * gibbs[0].scale / self.scale, "Gibbs terms")
        law, theta, log_mgf = self._gibbs_terms(gibbs)
        shape, scale = law.shapes[0], law.scale
        scratch = _Scratch()

        def fill(rng, out):
            log_term, beyond = scratch.take(0, out.shape), scratch.take(1, out.shape, bool)
            rng.standard_gamma(shape, out=out)
            out *= scale
            if gibbs:
                gibbs_term = np.multiply(out, theta, out=scratch.take(2, out.shape))
            out /= s
            np.greater_equal(out, 1.0, out=beyond)
            with np.errstate(divide="ignore", invalid="ignore"):
                np.log1p(np.negative(out, out=log_term), out=log_term)
            log_term *= m
            out *= lam
            out += log_term
            out += c
            np.copyto(out, -np.inf, where=beyond)
            if gibbs:
                out -= gibbs_term
                out += log_mgf

        return fill

    def ratio_roots(self, rest, s):
        """The zeros t_1 <= t_2 of log rho, clamped to [0, s).  g(x) = log rho(s x) is
        concave and lies below -m x^2 / 2 + (lam - m) x + c on [0, 1); from that quadratic's
        roots in [0, 1), Newton steps on g move each iterate inward until g >= 0 there (x = 0
        when c >= 0) or the next step would not move it inward or would pass the other one.
        The two iterates are Python floats, which cost a few microseconds a step where
        2-element arrays cost tens."""
        s, m, lam, c = (float(term) for term in self._log_ratio_terms(rest, s))

        def newton(x):
            g = m * math.log1p(-x) + lam * x + c
            slope = lam - m / (1.0 - x)
            return x - g / slope if g < 0.0 and slope != 0.0 else x

        half = math.sqrt(max((lam - m) ** 2 + 2.0 * m * c, 0.0))
        lower, upper = (min(max((lam - m + h) / m, 0.0), math.nextafter(1.0, 0.0)) for h in (-half, half))
        while True:
            new_lower, new_upper = newton(lower), newton(upper)
            move_lower, move_upper = lower < new_lower < upper, lower < new_upper < upper
            if not (move_lower or move_upper):
                return s * np.array([lower, upper])
            lower, upper = (new_lower if move_lower else lower), (new_upper if move_upper else upper)

    # -- hooks: one entry per row --------------------------------------------

    def member_hess(self):
        return (self.shapes * self.scale**2).reshape(-1, 1, 1)

    def fourth_central_moment(self):
        k, u = self.shapes, self.scale
        return 3.0 * k * (k + 2.0) * u**4

    def char_fn_modulus_sup(self, radii):
        r = np.asarray(radii, dtype=float)
        return (1.0 + (self.scale * r) ** 2) ** (-0.5 * self.shapes[:, None])

    def density_partial_l1(self, axis):
        # p' changes sign once, at the mode (k - 1) u, so the L1 norm of p'
        # is 2 p(mode).
        if axis != 0:
            raise ValueError("gamma members are one-dimensional")
        k, u = self.shapes, self.scale
        log_mode = (k - 1.0) * np.log((k - 1.0) * u) - (k - 1.0) - self._lgamma_shapes - k * math.log(u)
        return 2.0 * np.exp(log_mode)

    def third_central_moment_tensor(self):
        """Third central moment 2 k u^3 of the members, averaged."""
        return np.array([[[2.0 * self._kbar * self.scale**3]]])


# ---------------------------------------------------------------------------
# Normal families
# ---------------------------------------------------------------------------

# The float-resolution limits of the Normal pair methods (Gamma pairs work
# relative to the sum).  Largest float spacing at the sum, eps max_i |s_i|,
# as a share of the smallest standard deviation of X: in absolute
# coordinates that spacing quantizes the Scheffe roots and residual, and
# the whitened shift, and the Scheffe error, about its square, stays
# below 1e-10 relative.
SPACING_LIMIT = 1e-5


class NormalFamily(Family):
    """Multivariate normal members N(means[j], covs[j]); covs holds one
    symmetric positive definite matrix shared by every member (shape
    (1, d, d)) or one per row (shape (r, d, d))."""

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
        self._store(n, means, covs)
        if self._lam_min <= 0.0:
            raise ValueError(f"covariance not positive definite: lambda_min={self._lam_min:.3e}")

    def _store(self, n, means, covs):
        self.means, self.covs = means, covs
        self._n, self._r, self.dim = n, len(means), means.shape[1]

    @cached_property
    def _lam_min(self):
        """Smallest eigenvalue of covs; only _check_spacing reads it."""
        return float(np.min(np.linalg.eigvalsh(self.covs)[:, 0]))

    def _rotated(self, shift, count):
        # a shared covariance, one row, rotates to itself
        return [np.concatenate((rows[shift:], rows[:shift]))[:count] for rows in (self.means, self.covs)]

    @cached_property
    def _mean(self):
        return self._member_sum(self.means) / self._n

    @cached_property
    def _cov(self):
        return self.covs[0] if self.covs.shape[0] == 1 else self._member_sum(self.covs) / self._n

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
        return self._cycled(self._n, self.means + self.covs @ t, self.covs)

    def tilt_to_mean(self, a):
        """(the family tilted to average mean a, theta): tilt(theta) with
        theta = cov^-1 (a - mean), cov and mean the members' averages."""
        w, q = guarded_eigh(self._cov)
        theta = q @ ((q.T @ (self._target(a) - self._mean)) / w)
        return self.tilt(theta), theta

    def convolve(self):
        return self._cycled(1, self._member_sum(self.means)[None], self._member_sum(self.covs)[None])

    # Inverse / sqrt / logdet come lazily from one eigendecomposition: a nearly
    # singular covariance can be *inspected* (eigenvalues, Hessian), though its
    # density or sampler raises DegenerateCovarianceError.
    @cached_property
    def _eig(self):
        return guarded_eigh(self.covs)

    @cached_property
    def _inv(self):
        return sym_inv(self.covs, self._eig)

    @cached_property
    def _inv_sqrt(self):
        return sym_inv_sqrt(self.covs, self._eig)

    @cached_property
    def _logdet(self):
        return sym_logdet(self.covs, self._eig)

    # -- single law (or one point per member for log_density) ---------------

    def log_density(self, x, normalized=True):
        """log p(x); without the log normalizer (d log(2 pi) + log det cov) / 2
        unless normalized."""
        # The quadratic form is the squared norm of the whitened residual,
        # formed as (d, N) rows so that every pass runs along the points.
        pts, single = self._points(x)
        diff = (pts - self._at_points(len(pts), self.means)).T
        if self.covs.shape[0] == 1:
            white = self._inv_sqrt[0] @ diff
        else:
            white = np.einsum("nij,jn->in", self._at_points(len(pts), self._inv_sqrt), diff)
        quad = np.einsum("in,in->n", white, white)
        out = -0.5 * ((self.dim * LOG_2PI + self._at_points(len(pts), self._logdet) if normalized else 0.0) + quad)
        return float(out[0]) if single else out

    def _sd(self):
        self._single("excess_mass")
        if self.dim != 1:
            raise ValueError("excess_mass and ratio_roots take one-dimensional laws only")
        return math.sqrt(self.covs[0, 0, 0])

    def sample(self, rng, count):
        """count draws (S z^T + m)^T of the law, S = cov^(1/2), shape (count, d)."""
        self._single("sample")
        z = rng.standard_normal((count, self.dim))
        return (sym_sqrt(self.covs[0]) @ z.T + self.means[0][:, None]).T

    def excess_mass(self, rest, s, t1, t2):
        """As for Gamma, for one-dimensional X = self, Y = rest, in z = (t - m_x) / sd_x,
        |z| <= sqrt(2 WINDOW_DROP): log rho = -log1p(-v_x / v_f) / 2 - (r - sd_x z)^2 / (2 v_y)
        + r^2 / (2 v_f) (r = s - m_x - m_y, v_f = v_x + v_y), terms of its own size at r = 0."""
        sd_x, v_y = self._sd(), rest._sd() ** 2
        (s,) = as_vector(s, 1)
        self._check_spacing(s)
        m_x, v_f, end = self.means[0, 0], sd_x**2 + v_y, math.sqrt(2.0 * WINDOW_DROP)
        r = s - m_x - rest.means[0, 0]
        const = -0.5 * math.log1p(-(sd_x**2) / v_f) + r * r / (2.0 * v_f)

        def excess(z):
            return np.expm1(const - (r - sd_x * z) ** 2 / (2.0 * v_y))

        lo, hi = ((t - m_x) / sd_x for t in (t1, t2))
        return float(_window_integral(lambda z: -0.5 * z * z, (-end, end), lo, hi, excess))

    def log_ratio_given_sum(self, rest, s, t):
        """log f_Y(s - t) - log f_{X+Y}(s) for single laws X = self, Y = rest."""
        self._single("log_ratio_given_sum", rest)
        s = as_vector(s, self.dim)
        self._check_spacing(s)
        pts, single = self._points(t)
        out = rest.log_density(s - pts) - self._log_sum_density(rest, s)
        return float(out[0]) if single else out

    def _check_spacing(self, s):
        """Raise ConditioningError unless eps max_i |s_i| is at most
        SPACING_LIMIT times the smallest standard deviation of X = self."""
        spacing = np.finfo(float).eps * float(np.max(np.abs(s)))
        spread = math.sqrt(self._lam_min)
        if not spacing <= SPACING_LIMIT * spread:
            raise ConditioningError(
                f"float cannot resolve the block sum at s = {s}: the spacing there, {spacing:.3e}, "
                f"exceeds {SPACING_LIMIT:g} of the block sum's standard deviation {spread:.3e}"
            )

    def _log_sum_density(self, rest, s):
        """log f_{X+Y}(s) for X = self, Y = rest.  Both callers subtract it from
        a log density of about its size, so it raises ConditioningError where
        eps |log f_{X+Y}(s)| exceeds LOG_DENSITY_LIMIT."""
        full = self._cycled(1, self.means + rest.means, self.covs + rest.covs)
        log_sum = full.log_density(np.reshape(s, (1, -1)))[0]
        _check_cancellation(s, abs(log_sum), "log densities")
        return log_sum

    def log_ratio_sampler(self, rest, s, gibbs=None):
        """fill(rng, out) as for Gamma, T = m + L z drawn as sample draws it
        (L = cov^(1/2) of X, or of law with gibbs; z standard normal): the
        whitened rest residual W (s - T - m_y) (W = cov_y^(-1/2)) is c - A z
        with A = W L and c = W (s - m - m_y), and <theta, T> is
        <theta, m> + <L^T theta, z>, so the maps are composed once here and
        a fill costs one (d, d) by (d, len(out)) product, plus one
        (len(out), d) by (d,) product with gibbs, in reused buffers; T is
        never formed."""
        self._single("log_ratio_sampler", rest)
        s = as_vector(s, self.dim)
        self._check_spacing(s)
        const = -0.5 * (self.dim * LOG_2PI + rest._logdet[0]) - self._log_sum_density(rest, s)
        law, theta, log_mgf = self._gibbs_terms(gibbs)
        root, w = sym_sqrt(law.covs[0]), rest._inv_sqrt[0]
        a_map = w @ root
        shift = (w @ (s - law.means[0] - rest.means[0]))[:, None]
        if gibbs:
            slope, offset = root.T @ theta, log_mgf - law.means[0] @ theta
        scratch = _Scratch()

        def fill(rng, out):
            z, white = scratch.take(0, (len(out), self.dim)), scratch.take(1, (self.dim, len(out)))
            rng.standard_normal(out=z)
            np.matmul(a_map, z.T, out=white)
            np.subtract(shift, white, out=white)
            np.einsum("in,in->n", white, white, out=out)
            out *= -0.5
            out += const
            if gibbs:
                out -= np.matmul(z, slope, out=scratch.take(2, out.shape))
                out += offset

        return fill

    def block_ratio_sampler(self, k, s, block, rest):
        """As for Family, unless the members share one covariance S and
        d >= 2.  The block sum is then T = m + (k S)^(1/2) z and the rest sum
        has mean s - m, so log rho depends on T only through G = |z|^2 / 2,
        a Gamma(d / 2, 1) variate:

            log rho(T) = (d / 2) log1p(c) - c G,    c = k / (n - k).

        The fill draws G alone, by standard_gamma(d / 2) or at d = 2 as
        -log U (U = 0 gives rho = 0, the G = inf limit), and evaluates that
        line in place.  At d = 1 one normal per value costs less than one
        Gamma(1/2) draw.  The pair guards of log_ratio_sampler run first, so
        a far target raises as it does there."""
        if self.covs.shape[0] != 1 or self.dim == 1:
            return super().block_ratio_sampler(k, s, block, rest)
        s = as_vector(s, self.dim)
        block._check_spacing(s)
        block._log_sum_density(rest, s)
        shape, c = 0.5 * self.dim, k / (len(self) - k)
        const = shape * math.log1p(c)

        def fill(rng, out):
            if shape == 1.0:
                rng.random(out=out)
                with np.errstate(divide="ignore"):
                    np.log(out, out=out)
                out *= c
            else:
                rng.standard_gamma(shape, out=out)
                out *= -c
            out += const

        return fill

    def ratio_roots(self, rest, s):
        """The zeros s - m_y -+ sqrt(v_y (z^2 - log1p(-v_x / v_f))) of log rho for
        one-dimensional X = self, Y = rest; v_f = v_x + v_y, z = (s - m_x - m_y) / sqrt(v_f)."""
        v_x, v_y = self._sd() ** 2, rest._sd() ** 2
        (s,) = as_vector(s, 1)
        self._check_spacing(s)
        z2 = (s - self.means[0, 0] - rest.means[0, 0]) ** 2 / (v_x + v_y)
        half = math.sqrt(v_y * (z2 - math.log1p(-v_x / (v_x + v_y))))
        return s - rest.means[0, 0] + np.array([-half, half])

    # -- hooks: one entry per row of covs, the only parameter they read -----

    def member_hess(self):
        return self.covs

    def fourth_central_moment(self):
        g = self.covs
        return 2.0 * np.einsum("nij,nji->n", g, g) + np.trace(g, axis1=1, axis2=2) ** 2

    def char_fn_modulus_sup(self, radii):
        r = np.asarray(radii, dtype=float)
        lam_min = np.linalg.eigvalsh(self.covs)[:, 0]
        return np.exp(-0.5 * lam_min[:, None] * r * r)

    def density_partial_l1(self, axis):
        # d p/dx_l = -(cov^{-1}(x - mu))_l p(x), and (cov^{-1}(X - mu))_l is
        # N(0, v) with v = (cov^{-1})_{ll}, so the L1 norm is E|N(0, v)|.
        return np.sqrt(2.0 * self._inv[:, axis, axis] / math.pi)

    def third_central_moment_tensor(self):
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
