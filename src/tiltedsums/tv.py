"""Total-variation distance between the conditional block law and the
product of tilted members, three ways.

Writing rho(t) = f_rest(n a - t)/f_full(n a) for the tilted sum densities,
the distance reduces (sufficiency of the block sum, then the density form
of the L1 distance) to a single integral over the block-sum value:

    TV = integral |rho(t) - 1| f_block(t) dt,

with f_block the tilted block-sum density.  The two sum-statistic
estimators take f_block, f_rest and rho from one conditional.RatioContext
(ctx.block, ctx.rest, ctx.fill_log_ratio) and tilt or convolve nothing
themselves.  Estimators:

  * scheffe   - exact evaluation for d = 1 by Scheffe's identity: rho f_block
                integrates to 1, and rho > 1 exactly between the zeros
                r1 < r2 of log rho (ctx.block.ratio_roots), so the integral
                is 2 times that of (rho - 1) f_block over (r1, r2), a small
                quantity under the block law alone (ctx.block.excess_mass);
  * sum_mc    - Monte Carlo mean of |rho - 1| over draws of the tilted
                block sum from its closed-form law (the integrand's own
                weight is the importance measure, so no reweighting is
                needed), drawn and evaluated by ctx.fill_log_ratio.
                Normal members of d >= 2 that share one covariance,
                conditioned at their own mean, have rho a function of the
                block's Mahalanobis radius alone, so their fill draws one
                Gamma(d / 2) variate per sample (-log U at d = 2,
                NormalFamily.block_ratio_sampler), and g_d(k / n, d) is
                their closed-form TV;
  * joint_mc  - Monte Carlo in the k*d-dimensional joint space,
                E_{x ~ tilted product} |q_cond(x)/p_tilted(x) - 1|.  q/p
                depends on x only through its block sum T (the member
                densities cancel), and tilting leaves the law given the sum
                unchanged, so q/p(x) = rho(T(x)): it draws T from ctx.block
                (ctx.block.sample's stream) and writes the tilted log rho at
                it by ctx.block.log_ratio_sampler.  Off the radial Normal
                laws that is sum_mc's fill, so at one seed the two give the
                same numbers, bit for bit.

Both Monte Carlo estimators run one chunk loop (_mc_estimate): a fill
draws SUM_MC_CHUNK values from one generator, continuing a single stream,
and writes log rho at them into one chunk-sized buffer, with its
temporaries in buffers that every chunk reuses; expm1, abs and the chunk's
sum and centred sum of squares run in place, and the chunks' moments are
merged at the end (_mean_and_se), so a row holds one chunk whatever
samples is.

Each estimate reports the a and theta of its RatioContext as floats.
All three report the plain L1 integral (twice the sup-over-sets distance);
in the k = o(n) regimes exercised here its value is far below 1.  For
i.i.d. one-dimensional Normal members with k = 1, and for any members as
k grows, n TV / k tends to gamma_df = E|1 - Z^2| / 2 = 2 phi(1) ~= 0.4839.
At fixed k other members add their skewness at the same order: for i.i.d.
Gamma(3, 1) at k = 1 the limit is E|1 - Z^2 + 2 Z / sqrt(3)| / 2 ~= 0.5394,
Z the standardized Gamma(3).

The tilted members come from family.tilt_to_mean in closed form, so a far
Gamma target gives the TV of the target 6 to rounding, in every estimator,
down to the targets whose tilted scale a / kbar leaves the normal float
range, which raise ConditioningError (GammaFamily.tilt_to_mean).  A Normal
target so far out that float cannot resolve the sums raises
ConditioningError from the Normal pair methods (families.SPACING_LIMIT),
before any draw.
"""

import math
from dataclasses import dataclass

import numpy as np

from .conditional import RatioContext
from .errors import UnsupportedFamilyError

DEFAULT_SUM_SAMPLES = 10**6
DEFAULT_JOINT_SAMPLES = 10**5
# Values per chunk in both Monte Carlo estimators; the draws do not depend
# on it, the mean and standard error only through rounding.
SUM_MC_CHUNK = 1 << 16


@dataclass(frozen=True)
class TVEstimate:
    value: float
    std_error: float
    method: str
    n: int
    k: int
    a: tuple
    theta: tuple
    samples: int = 0


def _as_rng(rng):
    if rng is None:
        raise ValueError("pass an explicit integer seed or numpy Generator")
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    return rng


def _check_samples(samples):
    if samples < 2:
        raise ValueError(f"samples must be at least 2 for a standard error, got {samples}")


def df_gamma_constant():
    """gamma_df = 0.5 E|1 - Z^2| for standard normal Z.  Since
    (z^2 - 1) phi(z) = d/dz[-z phi(z)], it equals 2 phi(1)."""
    return 2.0 * math.exp(-0.5) / math.sqrt(2.0 * math.pi)


def chi2_sf(x, d):
    """Q_d(x) = P(chi^2_d > x) for x >= 0 and an integer d >= 1, with math
    alone: Q_1 = erfc(sqrt(x / 2)), Q_2 = exp(-x / 2) and

        Q_{j+2} = Q_j + t_j,    t_j = (x / 2)^(j / 2) exp(-x / 2) / Gamma(j / 2 + 1),

    each t_{j+2} = t_j (x / 2) / (j / 2 + 1) from the one before it
    (t_1 = sqrt(2 x / pi) exp(-x / 2), t_2 = (x / 2) exp(-x / 2)), so no
    power or Gamma can overflow."""
    half = 0.5 * x
    decay = math.exp(-half)
    if d % 2:
        total, term = math.erfc(math.sqrt(half)), math.sqrt(2.0 * x / math.pi) * decay
    else:
        total, term = decay, half * decay
    for j in range(2 - d % 2, d, 2):
        total += term
        term *= half / (0.5 * j + 1.0)
    return total


def g_d(t, d):
    """The L1 distance of N(0, c I_d) and N(0, I_d), c = 1 - t for
    0 < t < 1: the two densities cross at |x|^2 = r0^2 = d c log(1/c) / (1 - c),
    so it is 2 (Q_d(r0^2) - Q_d(r0^2 / c)) (chi2_sf).  It is the TV that
    tv_sum_mc estimates for members sharing one covariance, conditioned at
    their own mean with k / n = t, whatever the means and the covariance."""
    c = 1.0 - t
    r0_sq = d * c * math.log(1.0 / c) / (1.0 - c)
    return 2.0 * (chi2_sf(r0_sq, d) - chi2_sf(r0_sq / c, d))


def tv_scheffe(family, k, a, theta=None):
    """Exact block TV for one-dimensional closed-form families by Scheffe's
    identity, split at the zeros of log rho; std_error is reported as 0."""
    if family.dim != 1:
        raise UnsupportedFamilyError("Scheffe TV is implemented for d = 1 only")
    ctx = RatioContext(family, k, a, theta=theta)
    roots = ctx.block.ratio_roots(ctx.rest, ctx.na)
    return _estimate(ctx, "scheffe", 2.0 * ctx.block.excess_mass(ctx.rest, ctx.na, *roots), 0.0, 0)


def tv_sum_mc(family, k, a, samples=DEFAULT_SUM_SAMPLES, rng=None, theta=None):
    """Monte Carlo TV over the block-sum statistic: mean of |rho(T) - 1|
    with T drawn from the tilted block-sum law ctx.block by
    ctx.fill_log_ratio; the values are those of one draw of all samples
    from rng, whatever SUM_MC_CHUNK is."""
    _check_samples(samples)
    ctx = RatioContext(family, k, a, theta=theta)
    return _mc_estimate(ctx, "sum_mc", samples, rng, ctx.fill_log_ratio)


def tv_joint_mc(family, k, a, samples=DEFAULT_JOINT_SAMPLES, rng=None, theta=None):
    """Monte Carlo TV in the joint block space: averages |q(x)/p(x) - 1| over
    x ~ product of tilted members, with q the conditional density of the
    block given {S_1n = n a} and p the tilted product density.  The member
    densities cancel pointwise in q/p, so q/p = rho(T) depends on x only
    through its block sum T, whose law is the tilted block-sum law
    ctx.block: one draw of it per sample (ctx.block.sample's stream), and
    the tilted ratio at it (ctx.block.log_ratio_sampler)."""
    _check_samples(samples)
    ctx = RatioContext(family, k, a, theta=theta)
    return _mc_estimate(ctx, "joint_mc", samples, rng, ctx.block.log_ratio_sampler(ctx.rest, ctx.na))


def _estimate(ctx, method, value, std_error, samples):
    a, theta = tuple(ctx.a.tolist()), tuple(ctx.theta.tolist())
    return TVEstimate(value, std_error, method, ctx.n, ctx.k, a, theta, samples)


def _mc_estimate(ctx, method, samples, rng, fill):
    """The mean of |rho - 1| over samples draws, by the chunk loop of the
    module docstring: fill(gen, chunk) writes log rho at draws on gen."""
    gen = _as_rng(rng)
    buffer = np.empty(min(samples, SUM_MC_CHUNK))

    def chunks():
        for start in range(0, samples, SUM_MC_CHUNK):
            chunk = buffer[: samples - start]
            fill(gen, chunk)
            yield np.abs(np.expm1(chunk, out=chunk), out=chunk)

    value, std_error = _mean_and_se(chunks())
    return _estimate(ctx, method, value, std_error, samples)


def _mean_and_se(chunks):
    """(mean, standard error of the mean) as floats of the values in chunks,
    an iterable of 1-D arrays that are overwritten (centred and squared in
    place) as they come.  Each chunk gives its count n_c, sum S_c and centred
    sum of squares M2_c, merged by the pairwise update of Chan, Golub and
    LeVeque (1979):

        mean = sum S_c / N,   M2 = sum M2_c + sum n_c (S_c / n_c - mean)^2,

    and se = sqrt(M2 / (N - 1)) / sqrt(N).  With one chunk the second sum is
    exactly 0, so the result is bit for bit np.mean and
    np.std(ddof=1) / sqrt(N).  Ufunc reductions only: BLAS dot products on
    1-D chunks start threads that contend with the sweep's workers."""
    counts, sums, m2s = [], [], []
    for chunk in chunks:
        total = np.add.reduce(chunk)
        chunk -= total / len(chunk)
        np.square(chunk, out=chunk)
        counts.append(len(chunk))
        sums.append(total)
        m2s.append(np.add.reduce(chunk))
    counts, sums = np.array(counts, dtype=float), np.array(sums)
    count = np.add.reduce(counts)
    mean = np.add.reduce(sums) / count
    m2 = np.add.reduce(m2s) + np.add.reduce(counts * np.square(sums / counts - mean))
    return float(mean), float(np.sqrt(m2 / (count - 1)) / math.sqrt(count))

