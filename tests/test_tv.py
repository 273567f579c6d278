"""Total-variation estimators: quadrature oracle, Monte Carlo concordance,
and the two-Gaussian variation constant."""

import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, trapezoid
from scipy.optimize import brentq
from scipy.special import gammaincc, ndtr
from scipy.stats import chi2, kstest

from tiltedsums import (
    ConditioningError,
    ExperimentConfig,
    RatioContext,
    TiltedSumsError,
    UnsupportedFamilyError,
    conditional_density,
    df_gamma_constant,
    gamma_family,
    normal_family,
    parse_config_file,
    solve_tilt,
    tilt_oracle,
    tv_scheffe,
    tv_sum_mc,
)
from tiltedsums import families
from tiltedsums.numerics import log1pmx, stirling_tail, sym_sqrt
from tiltedsums.sweep import _row_rng, run_row
from tiltedsums.tv import SUM_MC_CHUNK, _mean_and_se, chi2_sf, g_d


def iid_normals(n, mean=0.0, var=1.0, dim=1):
    return normal_family([np.full(dim, mean)] * n, [var * np.eye(dim)])


def gaussian_variance_tv(c):
    """L1 distance between N(0, c) and N(0, 1) for 0 < c < 1, closed form:
    the densities cross at x* with x*^2 (1/c - 1) = log(1/c)."""
    xstar = math.sqrt(math.log(1.0 / c) * c / (1.0 - c))
    s = math.sqrt(c)
    return 2.0 * ((ndtr(xstar / s) - ndtr(-xstar / s)) - (ndtr(xstar) - ndtr(-xstar)))


def exact_mean_and_se(vals):
    """The mean (a Fraction) and the standard error of the mean (a 40-digit
    Decimal) of the float values vals, from exact integer sums."""
    ratios = [x.as_integer_ratio() for x in vals.tolist()]
    scale = max(den for _, den in ratios)
    ints = [num * (scale // den) for num, den in ratios]
    count, total, squares = len(ints), sum(ints), sum(i * i for i in ints)
    se_squared = Fraction(count * squares - total * total, count * count * (count - 1) * scale * scale)
    with localcontext() as ctx:
        ctx.prec = 40
        se = (Decimal(se_squared.numerator) / Decimal(se_squared.denominator)).sqrt()
    return Fraction(total, count * scale), se


def assert_exact_within_rounding(estimate, vals):
    """(mean, standard error) of N nonnegative values within rounding of the
    exact ones.  numpy's pairwise sum rounds each term at most 25 times in a
    leaf of 128 values and once per halving above it, so at most
    log2(N) + 20 times; summing chunk sums the same way at most doubles that
    to log2(N) + 40.  The division, centring, squaring and square roots add
    a few roundings, and the root halves the rest, so with unit roundoff
    u = 2^-53 both relative errors stay below (log2(N) + 42) u (Higham,
    Accuracy and Stability of Numerical Algorithms, section 4.2)."""
    mean, se = exact_mean_and_se(vals)
    bound = (math.ceil(math.log2(len(vals))) + 42) * 2.0**-53
    value, std_error = estimate
    assert abs(Fraction(value) / mean - 1) <= bound, float(Fraction(value) / mean - 1)
    assert abs(Decimal(std_error) / se - 1) <= bound, float(Decimal(std_error) / se - 1)


# ---------------------------------------------------------------------------
# the variation constant
# ---------------------------------------------------------------------------

def test_df_gamma_matches_antiderivative_identity():
    # the closed form 2 phi(1) against 0.5 E|1 - Z^2| by adaptive quadrature
    # split at the kinks z = +-1
    def integrand(z):
        return 0.5 * abs(1.0 - z * z) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    inner, _ = quad(integrand, -1.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    tail, _ = quad(integrand, 1.0, 40.0, epsabs=1e-14, epsrel=1e-13)
    assert df_gamma_constant() == pytest.approx(inner + 2.0 * tail, abs=1e-10)


def test_df_gamma_fixed_node_convergence():
    def gl_value(nodes):
        total = 0.0
        for lo, hi in ((-8.0, -1.0), (-1.0, 1.0), (1.0, 8.0)):
            x, w = np.polynomial.legendre.leggauss(nodes)
            z = 0.5 * (hi - lo) * x + 0.5 * (hi + lo)
            f = 0.5 * np.abs(1 - z * z) * np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
            total += 0.5 * (hi - lo) * float(np.sum(w * f))
        return total

    assert abs(gl_value(402) - gl_value(201)) < 1e-12
    assert df_gamma_constant() == pytest.approx(gl_value(402), abs=1e-12)


def test_df_gamma_sanity_band():
    assert 0.4 < df_gamma_constant() < 0.6


@pytest.mark.parametrize("n", [1000, 10_000])
def test_iid_gamma_k1_constant_is_not_two_phi_of_one(n):
    # For i.i.d. Gamma(3, 1) at k = 1, n TV tends to C_1 = E|1 - Z^2 + 2 Z / sqrt(3)| / 2, Z the
    # standardized Gamma(3): the skewness term 2 / sqrt(3) enters at the same order as 1 - Z^2.
    # The quadratic's zeros are Z = -1/sqrt(3) and sqrt(3), i.e. G = 2 and G = 6.  Measured
    # n TV / C_1 - 1 = 0.61 / n.
    def integrand(g):
        z = (g - 3.0) / math.sqrt(3.0)
        return 0.5 * abs(1.0 - z * z + 2.0 * z / math.sqrt(3.0)) * g * g * math.exp(-g) / 2.0

    c1 = sum(quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-13)[0] for lo, hi in ((0, 2), (2, 6), (6, math.inf)))
    assert c1 == pytest.approx(0.539364245350945, rel=1e-12)
    scaled = n * tv_scheffe(gamma_family([3.0] * n, 1.0), 1, 6.0).value
    assert abs(scaled / c1 - 1.0) <= 1.0 / n
    assert abs(scaled / df_gamma_constant() - 1.0) > 0.1


# ---------------------------------------------------------------------------
# Scheffe quadrature
# ---------------------------------------------------------------------------

def test_scheffe_gaussian_k1_closed_form():
    n, a = 100, 0.5
    est = tv_scheffe(iid_normals(n), 1, a)
    # conditional law N(a, 1 - 1/n) against tilted N(a, 1)
    oracle = gaussian_variance_tv(1.0 - 1.0 / n)
    assert est.value == pytest.approx(oracle, abs=1e-12)
    assert est.value == pytest.approx(df_gamma_constant() / n, rel=0.02)


def test_scheffe_gamma_against_dense_trapezoid_oracle():
    members = gamma_family([3.0] * 50, 1.0)
    est = tv_scheffe(members, 5, 6.0)
    ctx = RatioContext(members, 5, 6.0)
    block = members[:5].tilt(ctx.theta).convolve()
    grid = np.linspace(1e-9, 300.0, 100_001)
    vals = np.abs(np.expm1(ctx.log_ratio_exact(grid.reshape(-1, 1)))) * np.exp(block.log_density(grid))
    oracle = float(trapezoid(vals, grid)) + gammaincc(block.shapes[0], 300.0 / block.scale)
    assert est.value == pytest.approx(oracle, abs=1e-6)
    # frozen value from the trapezoid oracle
    assert est.value == pytest.approx(0.0523910730, abs=1e-7)


def test_scheffe_high_precision_reference():
    # Reference from 50-digit mpmath: block Gamma(370.5, u), rest
    # Gamma(41229.5, u), u = 6 / 3.25; the two roots of log rho found by
    # findroot, then |increment of betainc(370.5, 41229.5, t / (n a)) -
    # increment of gammainc(370.5, t / u)| summed over [0, r1, r2, n a], plus
    # the block mass above n a.
    members = gamma_family([2.5, 4.0] * 6400, 1.0)
    est = tv_scheffe(members, 114, 6.0, theta=tilt_oracle(members, 6.0))
    assert abs(est.value - 0.004333978793969307) <= 1e-13


def test_scheffe_gamma_tv_does_not_depend_on_a():
    # T / (n a) has an a-free law under both measures
    members = gamma_family([3.0] * 400, 1.0)
    values = [tv_scheffe(members, 20, a).value for a in (1e-3, 6.0, 1e6)]
    assert max(values) - min(values) <= 1e-10


U = 2.0**-53


def scheffe_rounding_bound(family, k, a, value):
    """An absolute bound on the rounding error of value = tv_scheffe(family,
    k, a).value, u = 2^-53, for one-dimensional laws: Normal, or Gamma with
    a rest shape K_y >= 10 and x = t / (n a) < 0.1 between the roots, as in
    every reference case.  Three sources add up:

    * log rho at a node.  excess_mass forms it as a sum of terms; T is the
      sum of their absolute values (Gamma: m L(-x), (lam - m) x and the four
      parts of c, L = log1pmx; Normal: its three).  Each part carries at
      most 8 roundings (log1pmx 4 u), the sums one per term, and a Gamma
      node's x = K_x e^d / lam 4 u, which move log rho by at most
      4 u x |d(log rho)/dx| <= 9 u T for x < 0.1: 32 u T in all.  T grows
      away from the mode in both forms, so on (r1, r2) it is largest at a
      root, and the TV, twice the integral of (rho - 1) f_block there, errs
      by at most 64 u T_max times the integral of rho f_block over
      (r1, r2), a conditional probability.
    * The rule.  Its weights exp(log weight) err by 4 u W relative, W the
      log weight's terms (Gamma: K_x (|expm1 d| + |d|); Normal: z^2 / 2),
      which on (r1, r2) are largest at a root and there above their average
      under the law, the roots lying about a standard deviation out.  The
      two pairwise sums of positive terms round at most 27 times each (25
      in a leaf of 128 values, once per halving above it), and the products,
      the width and the quotient 4 more, with the reference's last digit:
      (64 + 8 W_max) u TV.
    * The roots.  ratio_roots evaluates its g (Gamma: m log1p(-x) + lam x +
      c of _log_ratio_terms, whose parts are of size K_x; Normal: the
      closed form) within eps_g = 8 u times the absolute values of g's
      parts, so each lies within delta = eps_g / |g'| of its zero, plus 8 u
      |x| for its conversions (Gamma), or the closed form's and z's
      roundings of s, m and the root (Normal), in the rule's units.  There
      (rho - 1) f grows like g' f (x - root), so a limit off by delta moves
      the TV, twice the integral, by at most |g'| f delta^2."""
    ctx = RatioContext(family, k, a)
    block, rest, s = ctx.block, ctx.rest, float(ctx.na[0])
    roots = block.ratio_roots(rest, s)
    if family.kind == "gamma":
        _, m, lam, c = block._log_ratio_terms(rest, s)
        k_x, k_y = float(block.shapes[0]), float(rest.shapes[0])
        total = k_x + k_y
        assert k_y >= 10.0 and roots[1] < 0.1 * s
        x = roots / s
        c_parts = (
            (k_y - 0.5) * abs(log1pmx(-k_x / total))
            + (k_x + 0.5) * k_x / total
            + k_x * abs(math.log1p((total - lam) / lam))
            + stirling_tail(total)
            + stirling_tail(k_y)
        )
        t_max = abs(m * log1pmx(-x[1])) + abs((lam - m) * x[1]) + c_parts
        d = np.log(roots / (k_x * block.scale))
        w_max = k_x * np.max(np.abs(np.expm1(d)) + np.abs(d))
        slope = np.abs(lam - m / (1.0 - x))
        g_parts = np.abs(m * np.log1p(-x)) + lam * x + (k_y - 0.5) * abs(math.log1p(-k_x / total))
        g_parts += k_x * abs(math.log(total / lam)) + k_x + stirling_tail(total) + stirling_tail(k_y)
        delta = 8.0 * U * g_parts / slope + 8.0 * U * x
        density = s * np.exp(block.log_density(roots))
    else:
        (m_x,), (m_y,) = block.means[0], rest.means[0]
        v_x, v_y = block.covs[0, 0, 0], rest.covs[0, 0, 0]
        sd_x, v_f, r = math.sqrt(v_x), v_x + v_y, s - m_x - m_y
        z = (roots - m_x) / sd_x
        t_max = 0.5 * abs(math.log1p(-v_x / v_f)) + np.max((r - sd_x * z) ** 2) / (2.0 * v_y) + r * r / (2.0 * v_f)
        w_max = np.max(z * z) / 2.0
        slope = sd_x * np.abs(r - sd_x * z) / v_y
        half = (roots[1] - roots[0]) / 2.0
        delta = 4.0 * U * (abs(s) + abs(m_y) + half) + 2.0 * U * (np.abs(roots) + abs(m_x))
        delta = delta / sd_x + 2.0 * U * np.abs(z)
        density = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return 64.0 * U * t_max + (64.0 + 8.0 * w_max) * U * value + float(np.sum(slope * density * delta**2))


@pytest.mark.parametrize(
    "n,reference",
    [
        (100_000, 4.2228576569277981e-6),
        (1_000_000, 4.2228392079010073e-7),
    ],
)
def test_scheffe_large_n_high_precision_reference(n, reference):
    # 50-digit mpmath: block Gamma(2.5, u), rest Gamma(3.25 n - 2.5, u); with
    # x = t / (n a) and lam = n a / u = 3.25 n, log rho is
    # (K_r - 1) log(1 - x) + lam x + lgamma(K) - lgamma(K_r) - K_b log lam;
    # its two roots by findroot, then the cdf increments as in
    # test_scheffe_high_precision_reference.  Here log rho is about 1e-6 near
    # its roots, far below the ~4e7-sized log densities of the sums, which a
    # difference of two conditional masses missed by 9e-12 and 3.6e-10
    # relative.
    family = gamma_family([2.5, 4.0] * (n // 2), 1.0)
    value = tv_scheffe(family, 1, 6.0).value
    assert abs(value - reference) <= scheffe_rounding_bound(family, 1, 6.0, value)


SHIPPED = Path(__file__).resolve().parents[1] / "scripts" / "configs"
NORMAL_DF = parse_config_file(SHIPPED / "normal_df.cfg").family
# (family, n, k, a, reference): TVs from 60-digit mpmath, quad of (rho - 1)
# f_block between the findroot roots of log rho (Gamma), or g_1(1 / n) for
# normal_df.cfg; a difference of two conditional masses missed the i.i.d.
# Gamma(3, 1) rows by -1.33e-8, -4.35e-10 and -6.65e-7 relative, and
# normal_df.cfg at n = 1e5 by -8.6e-12.
SCHEFFE_REFERENCES = [
    (gamma_family([2.5, 4.0], 1.0), 12_800, 114, 6.0, 0.0043339787939693427),
    (gamma_family([3.0], 1.0), 10**7, 1, 6.0, 5.3936427822423424e-8),
    (gamma_family([3.0], 1.0), 10**7, 40, 6.0, 1.942021928559036e-6),
    (gamma_family([3.0], 1.0), 10**9, 1, 6.0, 5.3936424567967785e-10),
    (NORMAL_DF, 500, 1, 0.5, 9.6885199252461300708e-4),
    (NORMAL_DF, 1000, 1, 0.5, 4.8418357110045033952e-4),
    (NORMAL_DF, 2000, 1, 0.5, 2.4203123611085485847e-4),
    (NORMAL_DF, 100_000, 1, 0.5, 4.8394386876065516717e-6),
]


@pytest.mark.parametrize("family,n,k,a,reference", SCHEFFE_REFERENCES)
def test_scheffe_within_its_rounding_bound(family, n, k, a, reference):
    members = family.build(n)
    value = tv_scheffe(members, k, a).value
    assert abs(value - reference) <= scheffe_rounding_bound(members, k, a, value)


def test_scheffe_finds_the_root_next_to_the_support_end():
    # k = n - 1: the rest is one member, so the upper zero of log rho sits
    # within a fraction of a member's scale of t = n a, where the density
    # of the rest vanishes.  Reference from 50-digit mpmath as above, with
    # K_b = 1197, K_r = 3 and lam = n a / u = 1200.
    est = tv_scheffe(gamma_family([3.0] * 400, 1.0), 399, 6.0)
    assert est.value == pytest.approx(1.7911687224808459, abs=1e-12)


def _scan_brentq_roots(ctx, lo, hi, scan_points=4097):
    """Reference root finder: a scan loop with scalar brentq on each bracket."""

    def log_rho(t):
        return float(ctx.log_ratio_exact(np.array([[t]]))[0])

    ts = np.linspace(lo, hi, scan_points)
    vals = ctx.log_ratio_exact(ts.reshape(-1, 1))
    roots = []
    for i in range(len(ts) - 1):
        v0, v1 = vals[i], vals[i + 1]
        if not (np.isfinite(v0) and np.isfinite(v1)):
            continue
        if v0 == 0.0:
            roots.append(ts[i])
        elif v0 * v1 < 0.0:
            roots.append(brentq(log_rho, ts[i], ts[i + 1], xtol=1e-13 * max(1.0, abs(hi))))
    return np.array(roots)


# (members, k, a, band): band is how finely log rho resolves its zeros; at
# n = 12800 its slope at the roots is about 3.5e-4, so rounding of the
# O(1e3)-sized terms of log rho widens each zero to a plateau on which
# brentq may stop anywhere.
@pytest.mark.parametrize(
    "members,k,a,band",
    [
        (gamma_family([2.5, 4.0] * 6400, 1.0), 114, 6.0, 1e-6),
        (gamma_family([3.0] * 50, 1.0), 5, 6.0, 0.0),
        (iid_normals(100), 1, 0.5, 0.0),
    ],
)
def test_sign_change_roots_match_brentq(members, k, a, band):
    # ratio_roots against a scan of a 40-sd window with brentq per bracket
    ctx = RatioContext(members, k, a)
    block, rest, na = ctx.block, ctx.rest, float(ctx.na[0])
    center = float(block.cgf_grad(0.0)[0])
    sd = math.sqrt(block.cgf_hess(0.0)[0, 0])
    lo, hi = center - 40.0 * sd, center + 40.0 * sd
    if members.kind == "gamma":  # rho vanishes where n a - t leaves (0, inf)
        lo, hi = max(lo, 0.0), min(hi, na)
    roots = block.ratio_roots(rest, na)
    reference = _scan_brentq_roots(ctx, lo, hi)
    assert roots.size == reference.size == 2
    assert np.all(np.diff(roots) > 0.0)
    assert np.max(np.abs(roots - reference)) <= 1e-13 * max(1.0, abs(hi)) + band


# The 50-digit reference cases above and the clamped lower root of
# test_ratio_roots_under_a_given_theta: (members, k, theta).
_ALTERNATING_12800 = gamma_family([2.5, 4.0] * 6400, 1.0)
GAMMA_SCHEFFE_CASES = [
    (_ALTERNATING_12800, 114, tilt_oracle(_ALTERNATING_12800, 6.0)),
    (gamma_family([2.5, 4.0] * 50_000, 1.0), 1, None),
    (gamma_family([2.5, 4.0] * 500_000, 1.0), 1, None),
    (gamma_family([3.0] * 400, 1.0), 399, None),
    (gamma_family([3.0] * 50, 1.0), 5, 0.9),
]


@pytest.mark.parametrize("members,k,theta", GAMMA_SCHEFFE_CASES + [(NORMAL_DF.build(100_000), 1, None)])
def test_excess_mass_fixed_node_convergence(monkeypatch, members, k, theta):
    # the Scheffe excess mass moves by no more than the rounding of its two
    # pairwise sums of positive terms (at most 31 u each, see
    # scheffe_rounding_bound) in each of the two rules when the panels
    # double; from 2 panels it moves by up to 4e-10
    ctx = RatioContext(members, k, 6.0 if members.kind == "gamma" else 0.5, theta=theta)
    roots = ctx.block.ratio_roots(ctx.rest, ctx.na)
    value = ctx.block.excess_mass(ctx.rest, ctx.na, *roots)
    monkeypatch.setattr(families, "GL_PANELS", 2 * families.GL_PANELS)
    doubled = ctx.block.excess_mass(ctx.rest, ctx.na, *roots)
    assert abs(doubled / value - 1.0) <= 4 * 31 * U


def test_scheffe_normal_roots_far_from_the_origin():
    # the closed-form roots -4e5 +- 9975 of log rho, where the float spacing
    # is 5.8e-11
    est = tv_scheffe(normal_family([[0.0]] * 100, [[1e8]]), 1, -4e5)
    assert est.value == pytest.approx(gaussian_variance_tv(1.0 - 1.0 / 100), abs=1e-12)


@pytest.mark.parametrize("theta", [0.0, 0.3, -5.0, 0.9])
def test_ratio_roots_under_a_given_theta(theta):
    # Newton from the quadratic bound's roots stays inside [0, 1) without a
    # RuntimeWarning.  At theta = 0.9, log rho(0) > 0, so the lower zero
    # lies below the support and is clamped to 0.
    members = gamma_family([2.5, 4.0] * 200, 1.0)
    ctx = RatioContext(members, 20, 6.0, theta=theta)
    block, rest, na = ctx.block, ctx.rest, float(ctx.na[0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lower, upper = block.ratio_roots(rest, na)
    assert 0.0 <= lower < upper < na
    # log rho changes sign across each root, from - to + at the lower one
    near = np.array([lower, lower, upper, upper]) * (1.0 + np.array([-1e-9, 1e-9, -1e-9, 1e-9]))
    signs = np.sign(block.log_ratio_given_sum(rest, na, near))
    assert list(signs[1:]) == [1.0, 1.0, -1.0]
    assert lower == 0.0 if theta == 0.9 else signs[0] == -1.0


def test_scheffe_clamped_root_against_dense_trapezoid_oracle():
    # theta = 0.9 puts the lower zero of log rho below the support
    members = gamma_family([3.0] * 50, 1.0)
    est = tv_scheffe(members, 5, 6.0, theta=0.9)
    ctx = RatioContext(members, 5, 6.0, theta=0.9)
    grid = np.linspace(1e-9, 300.0, 100_001)
    vals = np.abs(np.expm1(ctx.log_ratio_exact(grid.reshape(-1, 1)))) * np.exp(ctx.block.log_density(grid))
    oracle = float(trapezoid(vals, grid)) + gammaincc(ctx.block.shapes[0], 300.0 / ctx.block.scale)
    assert est.value == pytest.approx(oracle, abs=1e-6)


def test_scheffe_requires_one_dimension():
    with pytest.raises(UnsupportedFamilyError):
        tv_scheffe(iid_normals(10, dim=2), 1, np.zeros(2))


def test_scheffe_rejects_full_block():
    with pytest.raises(ValueError):
        tv_scheffe(gamma_family([3.0] * 5, 1.0), 5, 6.0)


def test_scheffe_heterogeneous_gamma_runs():
    members = gamma_family([2.5, 4.0] * 25, 1.0)
    est = tv_scheffe(members, 5, 6.0)
    assert 0.0 < est.value < 1.0


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def joint_mc_row(family, k, a, samples=20_000, seed=1):
    """tv_sum_mc on the generator of row 0 of a sweep over family with this
    seed, once row 0 of that sweep under method = joint_mc is checked to
    carry its tv, std_error and theta, or its error message: the estimate
    that `tv --method joint_mc` prints. A sweep's k rule gives an integer,
    so a non-finite k has no row and goes to tv_sum_mc alone."""
    a = tuple(np.atleast_1d(np.asarray(a, dtype=float)).tolist())
    row = None
    if math.isfinite(k):
        config = ExperimentConfig(family, (len(family),), "1", (a,), method="joint_mc", samples=samples, seed=seed)
        row = run_row(config, 0, len(family), k, a)
        assert row.method == "joint_mc"
    try:
        est = tv_sum_mc(family, k, a, samples=samples, rng=_row_rng(seed, 0))
    except Exception as exc:
        assert row is None or row.error == str(exc)
        raise
    assert row is None or (row.error is None and (row.tv, row.std_error, row.theta) == (est.value, est.std_error, est.theta))
    return est


def test_sum_mc_agrees_with_scheffe_gamma():
    members = gamma_family([3.0] * 50, 1.0)
    sch = tv_scheffe(members, 5, 6.0)
    mc = tv_sum_mc(members, 5, 6.0, samples=10**6, rng=31)
    assert abs(mc.value - sch.value) <= 3.0 * mc.std_error


def test_sum_mc_normal_2d_against_quadrature_oracle():
    n, k = 400, 4
    members = iid_normals(n, dim=2)
    a = np.array([0.3, 0.3])
    mc = tv_sum_mc(members, k, a, samples=400_000, rng=5)
    # conditional block sum: N(k a, k (1 - k/n) I2); tilted: N(k a, k I2).
    # After whitening, the L1 distance is radial with c = 1 - k/n.
    c = 1.0 - k / n
    rstar = math.sqrt(2.0 * c * math.log(1.0 / c) / (1.0 - c))
    f = lambda r: abs(math.exp(-r * r / (2.0 * c)) / c - math.exp(-r * r / 2.0)) * r
    oracle = quad(f, 0.0, rstar, epsabs=1e-14)[0] + quad(f, rstar, 40.0, epsabs=1e-14)[0]
    # independent route: 2-d tensor trapezoid over the whitened plane
    grid = np.linspace(-8.0, 8.0, 1601)
    xx, yy = np.meshgrid(grid, grid, indexing="ij")
    rsq = xx * xx + yy * yy
    diff = np.abs(np.exp(-rsq / (2.0 * c)) / c - np.exp(-rsq / 2.0)) / (2.0 * math.pi)
    tensor = float(trapezoid(trapezoid(diff, grid, axis=1), grid))
    assert tensor == pytest.approx(oracle, abs=1e-6)
    assert abs(mc.value - oracle) <= 3.0 * mc.std_error


RADIAL_COVS = {
    2: [[1.0, 0.2], [0.2, 2.0]],
    3: [[1.0, 0.2, 0.1], [0.2, 2.0, 0.0], [0.1, 0.0, 0.5]],
    4: [[2.0, 0.3, 0.0, 0.1], [0.3, 1.0, -0.2, 0.0], [0.0, -0.2, 1.5, 0.4], [0.1, 0.0, 0.4, 0.8]],
}


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459230781640628620899862803")


def chi2_sf_decimal(x, d):
    """Q_d(x) = P(chi^2_d > x) in 120-digit decimal arithmetic from the
    float x, exactly converted: e^-h sum_{j < d/2} h^j / j! (h = x / 2) for
    even d; for odd d erfc(sqrt h) + e^-h sum_{j < (d-1)/2} h^(j+1/2) / Gamma(j + 3/2),
    erfc = 1 - (2 / sqrt pi) e^-h sum_n 2^n y^(2n+1) / (2n+1)!! at y = sqrt h,
    a series of positive terms.  For x <= 100 the cancellation in 1 - erf
    costs under 30 digits."""
    with localcontext() as ctx:
        ctx.prec = 120
        h = Decimal(x) / 2
        decay = (-h).exp()
        if d % 2 == 0:
            term, total = Decimal(1), Decimal(0)
            for j in range(d // 2):
                total += term
                term = term * h / (j + 1)
            return total * decay
        y = h.sqrt()
        term, series, n = y, Decimal(0), 0
        while term > series * Decimal(10) ** -110 or n == 0:
            series += term
            n += 1
            term = term * 2 * h / (2 * n + 1)
        total = 1 - 2 / _PI.sqrt() * decay * series
        term = 2 * y / _PI.sqrt() * decay  # h^(1/2) e^-h / Gamma(3/2)
        for j in range((d - 1) // 2):
            total += term
            term = term * h / (j + Decimal("1.5"))
        return total


def chi2_sf_bound(x, d):
    """Relative rounding bound of tv.chi2_sf(x, d), u = 2^-53, for a libm
    erfc within 4 ulps (8 u) and exp within 1 ulp (2 u).  The start Q_1
    carries erfc's own 8 u plus sqrt's u times erfc's condition number at
    y = sqrt(x / 2), 2 y e^(-y^2) / (sqrt(pi) erfc y) <= 2 y^2 + 1 = x + 1
    (Mills' ratio); Q_2 = e^(-x/2) carries 2 u.  The first added term
    carries at most 5 u (sqrt(2 x / pi) e^(-x/2): pi, the quotient, the root
    and the product), each recurrence step 2 u more, and the m = (d - 1) // 2
    additions of positive terms m u in all: 8 + (x + 1) + 5 + 3 m units."""
    return (14.0 + x + 3.0 * ((d - 1) // 2)) * 2.0**-53


def g_d_points():
    """(t, r0^2, r0^2 / c) for the t of the g_d tests, r0^2 = d c log(1/c) / (1 - c)
    formed as tv.g_d forms it, keyed by d."""
    for d in range(1, 7):
        for t in (0.01, 0.075, 0.2, 0.5, 0.9):
            c = 1.0 - t
            r0_sq = d * c * math.log(1.0 / c) / (1.0 - c)
            yield d, t, r0_sq, r0_sq / c


@pytest.mark.parametrize("d", range(1, 7))
def test_chi2_sf_within_its_rounding_bound(d):
    xs = [0.0, 1e-8, 0.5, 1.0, 2.1, 10.0, 40.0, 100.0]
    xs += [x for dim, _, r0_sq, r1_sq in g_d_points() if dim == d for x in (r0_sq, r1_sq)]
    for x in xs:
        ref, value, reference = chi2_sf_decimal(x, d), chi2_sf(x, d), chi2.sf(x, d)
        error = abs(Decimal(value) / ref - 1)
        assert error <= chi2_sf_bound(x, d), (x, float(error))
        # scipy's chi2.sf is not correctly rounded (up to about 250 u at
        # d = 1 here), so the library agrees with it up to the two errors
        # against the decimal value
        scipy_error = abs(Decimal(float(reference)) / ref - 1)
        limit = (Decimal(chi2_sf_bound(x, d)) + scipy_error) / (1 - scipy_error)
        assert abs(Decimal(value) / Decimal(float(reference)) - 1) <= limit


def test_g_d_within_its_rounding_bound():
    # g_d subtracts Q_d(r0^2 / c) from Q_d(r0^2): the errors of both add up,
    # relative to their difference, plus one rounding of it
    for d, t, r0_sq, r1_sq in g_d_points():
        q0, q1 = chi2_sf_decimal(r0_sq, d), chi2_sf_decimal(r1_sq, d)
        ref = 2 * (q0 - q1)
        bound = (Decimal(chi2_sf_bound(r0_sq, d)) * q0 + Decimal(chi2_sf_bound(r1_sq, d)) * q1) / (q0 - q1)
        assert abs(Decimal(g_d(t, d)) / ref - 1) <= bound + Decimal(2.0**-53), (d, t)


@pytest.mark.parametrize("d", sorted(RADIAL_COVS))
def test_radial_sum_mc_within_five_se_of_g_d(d):
    # shared-covariance Normal members conditioned at their own mean: given
    # the sum the block sum is N(m, (1 - k/n) k S) against the tilted
    # N(m, k S), so the TV is g_d(k / n) whatever the means and S; sum_mc
    # draws one Gamma(d / 2) radius per sample for it
    n, k = 200, 15
    means = np.linspace(-1.0, 1.0, 2 * d).reshape(2, d)
    members = normal_family(np.tile(means, (n // 2, 1)), RADIAL_COVS[d])
    est = tv_sum_mc(members, k, np.full(d, 0.3), samples=200_000, rng=41)
    assert abs(est.value - g_d(k / n, d)) <= 5.0 * est.std_error


class _ZeroUniforms(np.random.Generator):
    """A generator whose uniforms are all 0, the draw that gives G = inf."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))

    def random(self, out):
        out.fill(0.0)


@pytest.mark.filterwarnings("error")
def test_radial_fill_at_zero_uniform_gives_rho_zero():
    # U = 0 is G = -log U = inf: log rho = -inf, |rho - 1| = 1, with no
    # divide-by-zero warning on the way
    members = normal_family([[0.0, 0.0], [0.5, 0.5]] * 100, RADIAL_COVS[2])
    est = tv_sum_mc(members, 15, [0.25, 0.25], samples=1000, rng=_ZeroUniforms())
    assert (est.value, est.std_error) == (1.0, 0.0)


def test_radial_row_validates_nothing_and_convolves_each_sum_once(monkeypatch):
    # the family was validated when it was made; a row builds, tilts,
    # slices and convolves it without re-validating, and the radial fill
    # reads k alone, so only ctx.block is convolved and the rest sum never is
    n, k = 200, 15
    members = normal_family([[0.0, 0.0], [0.5, 0.5]], RADIAL_COVS[2]).build(n)
    checked, convolved = [], []
    check, convolve = families.check_symmetric, families.NormalFamily.convolve
    monkeypatch.setattr(families, "check_symmetric", lambda m: checked.append(m) or check(m))
    monkeypatch.setattr(families.NormalFamily, "convolve", lambda self: convolved.append(len(self)) or convolve(self))
    tv_sum_mc(members, k, [0.6, 0.6], samples=1000, rng=1)
    assert checked == [] and convolved == [k]


@pytest.mark.parametrize(
    "samples", [2, SUM_MC_CHUNK - 1, SUM_MC_CHUNK, SUM_MC_CHUNK + 1, 3 * SUM_MC_CHUNK + 7]
)
@pytest.mark.parametrize("kind", ["gamma", "normal"])
def test_sum_mc_chunks_continue_one_stream(kind, samples):
    # chunked evaluation must reproduce one draw of every sample in one call:
    # of the Gamma block sums, or of the shared-covariance Normal radii
    # G ~ Gamma(d / 2) through log rho = (d / 2) log1p(c) - c G, which at
    # d = 2 are G = -log U, U uniform
    if kind == "gamma":
        members, k, a = gamma_family([2.5, 4.0] * 50, 1.0), 10, 6.0
    else:
        members = normal_family([[0.0, 0.0], [0.5, 0.5]] * 50, [[1.0, 0.2], [0.2, 2.0]])
        k, a = 10, [0.6, 0.6]
    gen, ref_gen = np.random.default_rng(17), np.random.default_rng(17)
    est = tv_sum_mc(members, k, a, samples=samples, rng=gen)
    ctx = RatioContext(members, k, a)
    if kind == "gamma":
        log_ratio = ctx.log_ratio_exact(ctx.block.sample(ref_gen, samples))
    else:
        c, half_d = k / (len(members) - k), members.dim / 2
        assert half_d == 1.0
        log_ratio = -np.log(ref_gen.random(samples)) * -c + half_d * math.log1p(c)
    assert gen.bit_generator.state == ref_gen.bit_generator.state
    vals = np.abs(np.expm1(log_ratio))
    value, std_error = np.mean(vals), np.std(vals, ddof=1) / math.sqrt(samples)
    if samples <= SUM_MC_CHUNK:
        assert (est.value, est.std_error) == (value, std_error)
    else:
        # the values are those of the full draw, byte for byte; merged
        # chunk moments differ from the whole-array formula by rounding only
        assert_exact_within_rounding((est.value, est.std_error), vals)


def test_sum_mc_requires_explicit_rng():
    with pytest.raises(ValueError):
        tv_sum_mc(gamma_family([3.0] * 5, 1.0), 1, 6.0, samples=10)


def test_mc_estimators_need_two_samples():
    members = gamma_family([3.0] * 10, 1.0)
    with pytest.raises(ValueError, match="samples must be at least 2"):
        tv_sum_mc(members, 2, 6.0, samples=1, rng=0)


@pytest.mark.parametrize("samples", [1e5, 2.5, "1000"])
def test_sum_mc_rejects_non_integer_samples_before_conditioning(samples, monkeypatch):
    monkeypatch.setattr(RatioContext, "__init__", None)
    with pytest.raises(TypeError, match="samples must be an integer"):
        tv_sum_mc(gamma_family([3.0] * 10, 1.0), 2, 6.0, samples=samples, rng=0)


@pytest.mark.parametrize("rng", [np.random.RandomState(1), 1.0, np.random.SeedSequence(1)],
                         ids=["RandomState", "float", "SeedSequence"])
def test_sum_mc_rejects_other_generators_before_conditioning(rng, monkeypatch):
    monkeypatch.setattr(RatioContext, "__init__", None)
    with pytest.raises(TypeError, match="rng must be an integer seed or a numpy Generator"):
        tv_sum_mc(gamma_family([3.0] * 10, 1.0), 2, 6.0, samples=100, rng=rng)


def test_sum_mc_zero_when_ratio_forced_to_one(monkeypatch):
    # identical-law degenerate check: with the log ratio pinned at 0 the
    # estimator must return exactly 0
    monkeypatch.setattr(RatioContext, "fill_log_ratio", lambda self, rng, out: out.fill(0.0))
    est = tv_sum_mc(gamma_family([3.0] * 10, 1.0), 2, 6.0, samples=1000, rng=1)
    assert est.value == 0.0 and est.std_error == 0.0


@pytest.mark.parametrize("kind", ["gamma", "normal", "normal_theta"])
def test_sum_mc_traced_memory_is_one_buffer_plus_a_chunk(kind):
    # a row holds one chunk-sized buffer and the buffers of its fill, at
    # most six d-wide float64 arrays of SUM_MC_CHUNK rows, whatever samples
    # is; measured at both sizes 1.07 MiB (gamma), 0.51 MiB (normal, whose
    # radial fill keeps no buffer) and 2.51 MiB (normal_theta: the same law
    # at an explicit theta, which runs the block's z fill), and 2^22 samples
    # hold at most 4.8 KiB more than 2^20 (three floats per chunk)
    theta = None
    if kind == "gamma":
        members, k, a, d = gamma_family([2.5, 4.0] * 50, 1.0), 10, 6.0, 1
    else:
        members = normal_family([[0.0, 0.0], [0.5, 0.5]] * 50, [[1.0, 0.2], [0.2, 2.0]])
        k, a, d = 10, [0.6, 0.6], 2
        if kind == "normal_theta":
            theta = RatioContext(members, k, a).theta
    peaks = []
    for samples in (1 << 20, 1 << 22):
        tracemalloc.start()
        try:
            tv_sum_mc(members, k, a, samples=samples, rng=3, theta=theta)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[-1] <= 48 * d * SUM_MC_CHUNK, (samples, peaks[-1] / 2**20)
    assert abs(peaks[1] - peaks[0]) <= 64 * 1024, peaks


@pytest.mark.parametrize("count", [2, 3, 8, 9, 127, 128, 129, 2**16 - 1, 2**16])
def test_mean_and_se_bitwise_numpy(count):
    # one chunk: the merge adds an exact 0 to numpy's whole-array formula
    assert count <= SUM_MC_CHUNK
    vals = np.abs(np.random.default_rng(count).standard_normal(count)) * 1e-3
    expected = (np.mean(vals), np.std(vals, ddof=1) / math.sqrt(count))
    assert _mean_and_se([vals.copy()]) == expected


@pytest.mark.parametrize("count", [2**16 + 1, 3 * 2**16 + 7, 10**6 + 3])
def test_mean_and_se_against_exact_rationals(count):
    # above one chunk, the merged chunk moments and numpy's whole-array
    # formula both stay within the rounding bound of the exact values
    vals = np.abs(np.random.default_rng(count).standard_normal(count)) * 1e-3
    chunks = [vals[start : start + SUM_MC_CHUNK].copy() for start in range(0, count, SUM_MC_CHUNK)]
    assert_exact_within_rounding(_mean_and_se(chunks), vals)
    assert_exact_within_rounding((np.mean(vals), np.std(vals, ddof=1) / math.sqrt(count)), vals)


def _sum_mc_laws():
    cov2 = [[1.0, 0.2], [0.2, 2.0]]
    cov3 = [[1.0, 0.2, 0.1], [0.2, 2.0, 0.0], [0.1, 0.0, 0.5]]
    return [
        ("gamma", gamma_family([2.5, 4.0] * 50, 1.0), 10, 6.0),
        ("gamma", gamma_family([3.0] * 40, 2.0), 1, 5.0),
        ("normal", normal_family([[0.0]] * 300, [[1.0]]), 1, 0.5),
        ("normal", normal_family([[0.0], [1.0]] * 30, [[[1.0]], [[3.0]]] * 30), 7, 0.8),
        ("normal", normal_family([[0.0, 0.0], [0.5, 0.5]] * 50, cov2), 10, [0.6, 0.6]),
        ("normal", normal_family([[0.0, 0.0], [0.5, 0.5]] * 50, [cov2, np.eye(2) * 0.5] * 50), 9, [0.6, 0.6]),
        ("normal", normal_family([[0.0, 0.1, 0.2]] * 60, cov3), 5, [0.6, 0.6, 0.1]),
        ("normal", normal_family([[0.0, 0.1, 0.2]] * 60, [cov3, np.eye(3)] * 30), 6, [0.6, 0.6, 0.1]),
    ]


def _radial(family):
    """Whether sum_mc at the tilt's own mean draws Gamma(d / 2) radii
    (NormalFamily.block_ratio_sampler): one shared covariance and d >= 2."""
    return family.kind == "normal" and family.covs.shape[0] == 1 and family.dim >= 2


def _radial_block_sums(ctx, gen, count, directions):
    """count block sums T = m + L sqrt(2 G) e from G ~ Gamma(d / 2) drawn
    on gen (at d = 2 G = -log U, U uniform), L the square root of
    ctx.block's covariance and m its mean, with unit directions e drawn on
    the generator `directions`: a draw of the block law that spends gen as
    the radial fill does."""
    g = -np.log(gen.random(count)) if ctx.d == 2 else gen.standard_gamma(ctx.d / 2, count)
    radius = np.sqrt(2.0 * g)
    e = directions.standard_normal((count, ctx.d))
    e /= np.linalg.norm(e, axis=1, keepdims=True)
    return ctx.block.means[0] + (radius[:, None] * e) @ sym_sqrt(ctx.block.covs[0]).T


@pytest.mark.parametrize("untilted", [False, True])
@pytest.mark.parametrize("kind,members,k,a", _sum_mc_laws())
def test_fill_log_ratio_matches_ratio_at_block_draws(kind, members, k, a, untilted):
    # the fused fill draws what ctx.block.sample draws, consumes the stream
    # alike, and writes log rho at those draws; untilted, the block and rest
    # means no longer add up to n a, so the whitened shift is not 0; the
    # second, shorter fill reuses the first one's buffers, as a last chunk
    # does.  Shared-covariance Normal laws of d >= 2 at the tilt's own mean
    # draw one Gamma(d / 2) radius per value instead, and each value is log
    # rho at a block sum of that radius, in any direction
    ctx = RatioContext(members, k, a, theta=np.zeros(members.dim) if untilted else None)
    gen, ref_gen = np.random.default_rng(29), np.random.default_rng(29)
    directions = np.random.default_rng(31)
    for count in (5001, 3000):
        out = np.empty(count)
        ctx.fill_log_ratio(gen, out)
        if _radial(members) and not untilted:
            expected = ctx.log_ratio_exact(_radial_block_sums(ctx, ref_gen, count, directions))
        else:
            expected = ctx.log_ratio_exact(ctx.block.sample(ref_gen, len(out)))
        assert gen.bit_generator.state == ref_gen.bit_generator.state
        if kind == "gamma":
            assert out.tobytes() == expected.tobytes()
        else:
            np.testing.assert_allclose(out, expected, rtol=0.0, atol=1e-12)


# the fill at the tilt's own mean, and the one an explicit theta runs
FILLS = {
    "sum_mc": lambda members, ctx: ctx.fill_log_ratio,
    "explicit_theta": lambda members, ctx: ctx.block.log_ratio_sampler(ctx.rest, ctx.na),
}


@pytest.mark.parametrize("fill", sorted(FILLS))
@pytest.mark.parametrize("kind,members,k,a", _sum_mc_laws())
def test_fill_log_ratio_reuses_its_buffers(kind, members, k, a, fill):
    # after a warm-up fill, a chunk-sized fill allocates no array: measured
    # 120 B kept and a peak of 0.8-0.9 KiB (gamma) or 1.6 KiB (normal) from numpy's
    # call overhead, against 512 KiB per float64 column of a chunk
    ctx = RatioContext(members, k, a)
    fill = FILLS[fill](members, ctx)
    gen, out = np.random.default_rng(5), np.empty(SUM_MC_CHUNK)
    fill(gen, out)
    tracemalloc.start()
    try:
        fill(gen, out)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 1024 and peak < 4096, (kept, peak)


def _z_path_cases():
    shared = normal_family([[0.0, 0.0], [0.5, 0.5]] * 50, [[1.0, 0.2], [0.2, 2.0]])
    per_row = normal_family([[0.0, 0.0], [0.5, 0.5]] * 50, [[[1.0, 0.2], [0.2, 2.0]], np.eye(2) * 0.5] * 50)
    theta = shared.tilt_to_mean([0.6, 0.6])[1]
    return {
        "d1": (normal_family([[0.0], [1.0]] * 30, [[1.0]]), 7, 0.8, None, "sum_mc"),
        "per_row": (per_row, 9, [0.6, 0.6], None, "sum_mc"),
        "theta": (shared, 10, [0.6, 0.6], theta, "sum_mc"),
    }


Z_PATH_CASES = _z_path_cases()


@pytest.mark.parametrize("case", sorted(Z_PATH_CASES))
def test_fills_off_the_radial_path_draw_the_block_sums(case):
    # the radial fill is chosen by structure, never by a small whitened
    # shift: d = 1, per-row covariances and an explicit theta (the very
    # theta of the closed-form tilt) draw the block sums, and spend the
    # generator as ctx.block.sample does
    family, k, a, theta, fill = Z_PATH_CASES[case]
    ctx = RatioContext(family, k, a, theta=theta)
    if theta is not None:
        assert ctx.theta.tobytes() == RatioContext(family, k, a).theta.tobytes()
    gen, ref_gen = np.random.default_rng(5), np.random.default_rng(5)
    FILLS[fill](family, ctx)(gen, np.empty(1000))
    ctx.block.sample(ref_gen, 1000)
    assert gen.bit_generator.state == ref_gen.bit_generator.state


def test_joint_mc_agrees_with_scheffe_gaussian():
    members = iid_normals(100)
    sch = tv_scheffe(members, 2, 0.5)
    joint = joint_mc_row(members, 2, 0.5, samples=100_000, seed=19)
    assert abs(joint.value - sch.value) <= 3.0 * joint.std_error


def test_joint_mc_agrees_with_scheffe_gamma():
    members = gamma_family([3.0] * 50, 1.0)
    sch = tv_scheffe(members, 2, 6.0)
    joint = joint_mc_row(members, 2, 6.0, samples=100_000, seed=23)
    assert abs(joint.value - sch.value) <= 3.0 * joint.std_error


def joint_case(kind):
    """(family, k, a) of the joint-space identity and parity tests."""
    if kind == "gamma":
        return gamma_family([2.5, 4.0] * 30, 1.0), 6, np.array([6.0])
    covs = [[[1.0, 0.2], [0.2, 2.0]], [[2.0, -0.3], [-0.3, 1.0]]] * 20
    return normal_family([[0.0, 0.0], [0.5, 0.5]] * 20, covs), 4, np.array([0.6, 0.6])


def _joint_log_ratio(family, k, na, theta):
    """The Gibbs form of log q(x)/p(x) as a function of the block sums
    T = total, shape (N, d),

        log f0_rest(n a - T) - log f0_full(n a) - <theta, T> + sum_{j<=k} kappa_j(theta),

    from the untilted block and rest sums' log_ratio_given_sum and the Gibbs
    factor, one fresh array per step; prod_j p_j(x_j) cancels."""
    members = family[:k]
    block, rest = members.convolve(), family[k:].convolve()
    return lambda total: block.log_ratio_given_sum(rest, na, total) - total @ theta + k * members.cgf(theta)


@pytest.mark.parametrize("kind", ["gamma", "normal"])
def test_joint_log_ratio_is_conditional_over_tilted_product(kind):
    # the reduced ratio drops the member densities, which cancel in q/p;
    # the full product form is rebuilt here from conditional_density
    family, k, a = joint_case(kind)
    n = len(family)
    theta = solve_tilt(family, a).theta
    tilted = family[:k].tilt(theta)
    gen = np.random.default_rng(29)
    for _ in range(5):
        x = np.concatenate([tilted[j].sample(gen, 1) for j in range(k)])
        reduced = _joint_log_ratio(family, k, n * a, theta)(x.sum(axis=0, keepdims=True))
        full = math.log(conditional_density(family, k, x, n * a)) - np.sum(tilted.log_density(x))
        assert reduced.shape == (1,)
        assert abs(reduced[0] - full) <= 1e-12


def _member_draws(family, gen, count):
    """count draws of each member in turn, from raw generator calls."""
    if family.kind == "gamma":
        return [gen.gamma(shape, family.scale, size=(count, 1)) for shape in family.shapes]
    covs = np.broadcast_to(family.covs, (len(family), family.dim, family.dim))
    return [
        (sym_sqrt(cov) @ gen.standard_normal((count, family.dim)).T + mean[:, None]).T
        for cov, mean in zip(covs, family.means)
    ]


SAMPLE_FAMILIES = {
    "gamma": joint_case("gamma")[0],
    "normal_shared": normal_family([[0.0, 0.0], [0.5, 0.5]] * 20, [[1.0, 0.2], [0.2, 2.0]]),
    "normal": joint_case("normal")[0],
}


@pytest.mark.parametrize("name", sorted(SAMPLE_FAMILIES))
def test_single_law_sample_is_the_raw_generator_draw(name):
    # a member, the block sum and the tilted block sum draw what one raw
    # gamma or standard-normal call gives, byte for byte
    family = SAMPLE_FAMILIES[name]
    theta = solve_tilt(family, joint_case(family.kind)[2]).theta
    for law in (family[0], family[1], family[:5].convolve(), family[:5].tilt(theta).convolve()):
        (expected,) = _member_draws(law, np.random.default_rng(17), 300)
        got = law.sample(np.random.default_rng(17), 300)
        assert got.shape == (300, family.dim)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", sorted(SAMPLE_FAMILIES))
def test_sample_of_several_members_raises(name):
    family, gen = SAMPLE_FAMILIES[name], np.random.default_rng(17)
    state = gen.bit_generator.state
    with pytest.raises(ValueError, match="sample needs single laws"):
        family.sample(gen, 300)
    assert gen.bit_generator.state == state


@pytest.mark.parametrize("kind", ["gamma", "normal"])
def test_member_by_member_sum_follows_the_convolved_law(kind):
    # the tilted members drawn one by one from raw generator calls and added
    # up follow the closed-form law of their sum, which sum_mc draws the
    # block sum from
    family, k, a = joint_case(kind)
    k, count = 2 * k + 1, 40_000
    tilted = family[:k].tilt(solve_tilt(family, a).theta)
    total = sum(_member_draws(tilted, np.random.default_rng(31), count))
    law = tilted.convolve()
    if kind == "gamma":
        # Kolmogorov-Smirnov against the closed-form cdf; P(p < 1e-4) = 1e-4
        assert kstest(total[:, 0], law.cdf).pvalue > 1e-4
        return
    # the sum's mean and covariance, each entry within 5 standard errors
    # (Var of a Gaussian sample covariance entry: (S_ii S_jj + S_ij^2) / N)
    mean, cov = law.means[0], law.covs[0]
    np.testing.assert_array_less(np.abs(total.mean(axis=0) - mean), 5.0 * np.sqrt(np.diag(cov) / count))
    cov_se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / count)
    np.testing.assert_array_less(np.abs(np.cov(total, rowvar=False) - cov), 5.0 * cov_se)


@pytest.mark.parametrize("kind", ["gamma", "normal"])
def test_sum_mc_builds_as_many_families_at_any_block_size(kind, monkeypatch):
    # the block sum is drawn from its law, not member by member
    family, _, a = joint_case(kind)
    family = family.build(80)
    cls = type(family)
    store, built = cls._store, []

    def counting_store(self, *args):
        built.append(self)
        store(self, *args)

    # every family, validated or derived, is stored by _store
    monkeypatch.setattr(cls, "_store", counting_store)
    counts = []
    for k in (5, 40):
        built.clear()
        tv_sum_mc(family, k, a, samples=100, rng=3)
        counts.append(len(built))
    assert counts[0] == counts[1] > 0


# i.i.d. Gamma(3, 1) at n = 200, k = 15, seed 7 is the CI row `tv --config
# scripts/configs/gamma_iid_sweep.cfg`
PARITY_CASES = [
    (*joint_case("gamma"), 20_000, 5),
    (*joint_case("normal"), 20_000, 9),
    (gamma_family([3.0], 1.0).build(200), 15, 6.0, 20_000, 7),
    (gamma_family([3.0], 1.0).build(1600), 40, 6.0, 20_000, 1),
    (gamma_family([3.0], 1.0).build(40), 1, 6.0, 100_000, 13),
    (gamma_family([2.5, 4.0] * 50, 1.0), 10, 6.0, 3 * SUM_MC_CHUNK + 7, 17),
    (normal_family([[0.0, 0.0], [0.5, 0.5]] * 200, [[1.0, 0.2], [0.2, 2.0]]), 20, [0.6, 0.6], 3 * SUM_MC_CHUNK + 7, 17),
]


@pytest.mark.parametrize("family, k, a, samples, seed", PARITY_CASES)
def test_joint_mc_matches_sum_mc_at_one_seed(family, k, a, samples, seed):
    # q/p is rho at the block sum, so a joint_mc row runs tv_sum_mc on the
    # row's generator: the same (value, std_error), bit for bit, the radial
    # Normal rows included
    assert joint_mc_row(family, k, a, samples=samples, seed=seed).samples == samples


ESTIMATORS = {
    "scheffe": lambda members, k: tv_scheffe(members, k, 6.0),
    "sum_mc": lambda members, k: tv_sum_mc(members, k, 6.0, samples=1000, rng=1),
    "joint_mc": lambda members, k: joint_mc_row(members, k, 6.0, samples=1000, seed=1),
}


@pytest.mark.parametrize("k", [-1, 20, 21, 2.5, math.nan, 0])
@pytest.mark.parametrize("method", sorted(ESTIMATORS))
def test_estimators_reject_bad_block_sizes(method, k):
    with pytest.raises(ValueError, match="block size"):
        ESTIMATORS[method](gamma_family([3.0] * 20, 1.0), k)


@pytest.mark.parametrize("method", sorted(ESTIMATORS))
def test_estimators_take_integral_block_sizes(method):
    members = gamma_family([3.0] * 20, 1.0)
    est = ESTIMATORS[method](members, 2.0)
    assert est == ESTIMATORS[method](members, np.int64(2)) == ESTIMATORS[method](members, 2)
    assert type(est.k) is int and est.k == 2


def test_estimates_within_unit_interval_band():
    members = gamma_family([3.0] * 30, 1.0)
    for est in (
        tv_scheffe(members, 3, 6.0),
        tv_sum_mc(members, 3, 6.0, samples=20_000, rng=3),
    ):
        assert 0.0 <= est.value <= 1.0 + 3.0 * est.std_error


def test_mc_reproducible_for_fixed_seed():
    members = gamma_family([3.0] * 20, 1.0)
    e1 = tv_sum_mc(members, 2, 6.0, samples=5_000, rng=99)
    e2 = tv_sum_mc(members, 2, 6.0, samples=5_000, rng=99)
    assert e1 == e2


@pytest.mark.parametrize("method", sorted(ESTIMATORS))
def test_estimate_reports_the_solved_tilt_as_floats(method):
    members = gamma_family([2.5, 4.0] * 10, 1.0)
    est = ESTIMATORS[method](members, 3)
    assert np.array(est.theta).tobytes() == solve_tilt(members, 6.0).theta.tobytes()
    assert est.a == (6.0,)
    assert all(type(v) is float for v in est.a + est.theta)


# ---------------------------------------------------------------------------
# sum-density plumbing used by the estimators
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "members,k,a",
    [
        (gamma_family([2.5, 4.0] * 25, 1.5), 5, 6.0),
        (
            normal_family(np.linspace(-1.0, 1.0, 30).reshape(-1, 1), np.linspace(0.5, 2.0, 30).reshape(-1, 1, 1)),
            4,
            0.7,
        ),
    ],
)
def test_excess_mass_against_trapezoid(members, k, a):
    # independent route: the trapezoid rule of (rho - 1) f_block, between the
    # roots and over intervals where rho - 1 changes sign
    ctx = RatioContext(members, k, a)
    block, rest, na = ctx.block, ctx.rest, float(ctx.na[0])
    center = float(block.cgf_grad(0.0)[0])
    sd = math.sqrt(block.cgf_hess(0.0)[0, 0])
    lower = 0.0 if members.kind == "gamma" else -math.inf
    grid = np.linspace(max(center - 12.0 * sd, lower), center + 12.0 * sd, 200_001)
    excess = np.expm1(ctx.log_ratio_exact(grid.reshape(-1, 1))) * np.exp(block.log_density(grid))
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (excess[1:] + excess[:-1]) * np.diff(grid))])
    roots = block.ratio_roots(rest, na)
    r1, r2 = (int(np.searchsorted(grid, r)) for r in roots)
    for q1, q2 in ((r1, r2), (2000, 100_000), (50_000, 150_000), (100_000, 198_000)):
        assert block.excess_mass(rest, na, grid[q1], grid[q2]) == pytest.approx(cum[q2] - cum[q1], abs=1e-9)


def test_gamma_pair_methods_need_one_scale():
    block, rest = gamma_family([3.0], 1.0), gamma_family([4.0], 2.0)
    with pytest.raises(ValueError, match="a pair needs one scale"):
        block.log_ratio_given_sum(rest, 10.0, 5.0)
    with pytest.raises(ValueError, match="a pair needs one scale"):
        block.excess_mass(rest, 10.0, 4.0, 6.0)


# ---------------------------------------------------------------------------
# Far targets: the TV of these families does not depend on a
# ---------------------------------------------------------------------------

FAR_FAMILIES = {
    "normal_df": (parse_config_file(SHIPPED / "normal_df.cfg").family.build(200), 0.5),
    "normal2d": (normal_family([[0.0, 0.0], [0.5, 0.5]] * 100, [[1.0, 0.2], [0.2, 2.0]]), (0.6, 0.6)),
    "gamma_iid": (parse_config_file(SHIPPED / "gamma_iid_sweep.cfg").family.build(200), 6.0),
}
FAR_METHODS = {
    "scheffe": tv_scheffe,
    "sum_mc": lambda members, k, a: tv_sum_mc(members, k, a, samples=20_000, rng=1),
    "joint_mc": lambda members, k, a: joint_mc_row(members, k, a, samples=20_000, seed=1),
}
FAR_CASES = (
    [("normal_df", method, 10.0**j) for method in FAR_METHODS for j in range(0, 301, 2)]
    + [("normal2d", "sum_mc", 10.0**j) for j in range(0, 301, 2)]
    + [("gamma_iid", method, 10.0**j) for method in FAR_METHODS for j in range(-12, 301)]
)


@cache
def far_reference(name, method):
    members, a = FAR_FAMILIES[name]
    return FAR_METHODS[method](members, 15, np.array(a, dtype=float))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name,method,a", FAR_CASES, ids=[f"{n}-{m}-{a:g}" for n, m, a in FAR_CASES])
def test_far_target_gives_the_shipped_target_value_or_a_typed_error(name, method, a):
    # n = 200, k = 15, a = 10^j in every coordinate: the same value as at the shipped target (1e-9
    # relative for Scheffe, 0.01 of the standard error for the same draws), or a TiltedSumsError
    # where float cannot resolve the sums.  Gamma members tilt to Gamma(3, a / 3) in closed form, so
    # only the Normal sums meet that limit
    members, _ = FAR_FAMILIES[name]
    reference = far_reference(name, method)
    try:
        est = FAR_METHODS[method](members, 15, np.full(members.dim, a))
    except TiltedSumsError:
        return
    if method == "scheffe":
        assert abs(est.value - reference.value) <= 1e-9 * reference.value
    else:
        assert math.isfinite(est.std_error)
        assert abs(est.value - reference.value) <= 0.01 * est.std_error


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name,method", [("normal_df", "scheffe"), ("normal_df", "sum_mc"),
                                         ("normal_df", "joint_mc")])
def test_far_normal_target_raises_the_spacing_error_first(name, method):
    # at a = 1e300 the Normal pair methods' spacing guard fires before any
    # arithmetic on the sum can overflow into another verdict
    members, _ = FAR_FAMILIES[name]
    with pytest.raises(ConditioningError, match="float cannot resolve the block sum"):
        FAR_METHODS[method](members, 15, np.full(members.dim, 1e300))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a", [1e9, 1e100, 1e300])
def test_far_radial_target_gives_the_shipped_target_value_bitwise(a):
    # the radial fill reads c = k / (n - k) alone, not the sum or a covariance,
    # so a target no float can resolve gives the a = (0.6, 0.6) draws, bit for bit
    members, _ = FAR_FAMILIES["normal2d"]
    reference = far_reference("normal2d", "sum_mc")
    est = FAR_METHODS["sum_mc"](members, 15, np.full(members.dim, a))
    assert (est.value, est.std_error) == (reference.value, reference.std_error)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("a", [1e-300, 1e6, 1e9, 1e16, 1e100, 1e300])
def test_far_gamma_sum_mc_gives_the_shipped_target_value(a):
    # the tilted ratio subtracts nothing of the size k a / t: the a = 6
    # value within 0.01 of the standard error, and no typed error, down to
    # a tilted scale near the smallest normal float and where theta rounds
    # to 1 / t (a ~ 6e16 on)
    members, _ = FAR_FAMILIES["gamma_iid"]
    reference = far_reference("gamma_iid", "sum_mc")
    est = tv_sum_mc(members, 15, a, samples=20_000, rng=1)
    assert math.isfinite(est.std_error)
    assert abs(est.value - reference.value) <= 0.01 * est.std_error


def test_scheffe_at_a_billion_members_costs_what_a_few_rows_cost():
    # a family is its rows and a length, so n = 1e9 members hold two shapes;
    # at k = 31623 n TV / k sits within about 0.12 / k of 2 phi(1)
    n, k = 10**9, 31623
    family = gamma_family([2.5, 4.0], 1.0).build(n)
    tracemalloc.start()
    try:
        est = tv_scheffe(family, k, 6.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert abs(n * est.value / k - df_gamma_constant()) <= 1e-3


@pytest.mark.parametrize("estimator", [tv_scheffe, tv_sum_mc])
def test_only_the_tilted_ratio_builds_the_rest_law(estimator, monkeypatch):
    # ctx.rest is built on first use, and both estimators read it; the
    # values are those the rest law built up front gave
    n, k = 400, 20
    family = gamma_family([2.5, 4.0], 1.0).build(n)
    convolved, convolve = [], families.GammaFamily.convolve

    def counting_convolve(self):
        convolved.append((len(self), float(self.scale)))
        return convolve(self)

    monkeypatch.setattr(families.GammaFamily, "convolve", counting_convolve)
    kwargs = {} if estimator is tv_scheffe else {"samples": 20_000, "rng": 3}
    est = estimator(family, k, 6.0, **kwargs)
    tilted_rest = (n - k, float(family.tilt(est.theta).scale))
    assert tilted_rest in convolved
    # Scheffe against the 60-digit reference 0.024975876228437138149: +2.5e-14
    # relative (the difference of two conditional masses gave
    # 0.02497587622843711, -1.1e-15)
    expected = {
        "scheffe": (0.024975876228437756, 0.0),
        "sum_mc": (0.02492284121616719, 0.00017910881682360513),
    }
    assert (est.value, est.std_error) == expected[est.method]
