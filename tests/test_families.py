"""Member-level behaviour: cgf calculus, densities, tilting, sampling.

A single member is a family of length 1."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import multivariate_normal

from conftest import explicit_family, law_parameters
from tiltedsums import (
    DegenerateCovarianceError,
    OutOfDomainError,
    RatioContext,
    gamma_family,
    normal_family,
    tilt_oracle,
    tv_sum_mc,
)
from tiltedsums.families import Family
from tiltedsums.numerics import guarded_eigh, lgamma, log1pmx, sym_inv, sym_inv_sqrt, sym_logdet, sym_sqrt


def gamma_member(shape, scale):
    return gamma_family([shape], scale)


def normal_member(mean, cov):
    return normal_family([mean], cov)


def std_normal():
    return normal_member(np.zeros(1), np.eye(1))


# ---------------------------------------------------------------------------
# cgf values
# ---------------------------------------------------------------------------

def test_cgf_at_zero_is_zero():
    assert std_normal().cgf(0.0) == 0.0
    assert gamma_member(3.0, 1.0).cgf(0.0) == 0.0


def test_gamma_cgf_closed_form_and_quadrature():
    member = gamma_member(3.0, 1.0)
    val = member.cgf(0.5)
    assert val == pytest.approx(-3.0 * math.log(0.5), rel=1e-14)
    assert val == pytest.approx(2.0794415416798357, rel=1e-12)
    # independent oracle: log of the mgf integral
    mgf, _ = quad(lambda x: math.exp(0.5 * x) * member.density(x), 0.0, 200.0, limit=300)
    assert val == pytest.approx(math.log(mgf), rel=1e-9)


def test_normal_cgf_closed_form():
    member = normal_member(np.array([1.0]), np.array([[2.0]]))
    assert member.cgf(1.0) == pytest.approx(2.0, rel=1e-15)


def test_cgf_strict_convexity_on_triples():
    rng = np.random.default_rng(7)
    members = [gamma_member(3.5, 0.8), normal_member(np.array([0.3, -1.0]), np.array([[1.0, 0.2], [0.2, 2.0]]))]
    for member in members:
        for _ in range(50):
            if member.dim == 1:
                t1, t2 = np.sort(rng.uniform(-2.0, 1.0 if member.kind == "gamma" else 2.0, 2))
                t1, t2 = np.array([t1]), np.array([t2])
            else:
                t1, t2 = rng.uniform(-2.0, 2.0, 2), rng.uniform(-2.0, 2.0, 2)
            if np.allclose(t1, t2):
                continue
            lam = rng.uniform(0.1, 0.9)
            mid = lam * t1 + (1 - lam) * t2
            assert member.cgf(mid) < lam * member.cgf(t1) + (1 - lam) * member.cgf(t2)


# ---------------------------------------------------------------------------
# gradients and Hessians
# ---------------------------------------------------------------------------

def test_gamma_grad_examples():
    member = gamma_member(3.0, 1.0)
    assert member.cgf_grad(0.0)[0] == pytest.approx(3.0, abs=0.0)
    assert member.cgf_grad(0.5)[0] == pytest.approx(6.0, rel=1e-15)


def test_normal_grad_example():
    member = normal_member(np.array([1.0, 0.0]), np.eye(2))
    np.testing.assert_allclose(member.cgf_grad(np.array([0.5, 0.5])), [1.5, 0.5], rtol=1e-15)


def test_hess_examples():
    member = gamma_member(3.0, 1.0)
    assert member.cgf_hess(0.0)[0, 0] == pytest.approx(3.0)
    assert member.cgf_hess(0.5)[0, 0] == pytest.approx(12.0, rel=1e-14)
    gam = np.array([[1.0, 0.3], [0.3, 2.0]])
    member = normal_member(np.zeros(2), gam)
    for theta in (np.zeros(2), np.array([0.7, -0.4])):
        np.testing.assert_allclose(member.cgf_hess(theta), gam)


def _fd_step(member, theta, i):
    # near the domain boundary the cgf derivatives blow up, so the step must
    # shrink with the remaining distance
    h = 1e-4 * (1.0 + abs(theta[i]))
    return min(h, 1e-3 * (member.theta_upper - theta[0]))


def _finite_diff_grad(member, theta):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.zeros_like(theta)
    for i in range(len(theta)):
        h = _fd_step(member, theta, i)
        e = np.zeros_like(theta)
        e[i] = h
        out[i] = (member.cgf(theta + e) - member.cgf(theta - e)) / (2 * h)
    return out


def _finite_diff_hess(member, theta):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    d = len(theta)
    out = np.zeros((d, d))
    for i in range(d):
        h = _fd_step(member, theta, i)
        e = np.zeros(d)
        e[i] = h
        out[:, i] = (member.cgf_grad(theta + e) - member.cgf_grad(theta - e)) / (2 * h)
    return 0.5 * (out + out.T)


def _random_members_and_thetas(count):
    """count random (member, in-domain theta) pairs across both kinds."""
    rng = np.random.default_rng(99)
    pairs = []
    for _ in range(count):
        if rng.uniform() < 0.5:
            shape = rng.uniform(2.1, 6.0)
            scale = rng.uniform(0.3, 3.0)
            member = gamma_member(shape, scale)
            theta = np.array([rng.uniform(-2.0 / scale, 0.9 / scale)])
        else:
            d = int(rng.integers(1, 4))
            A = rng.standard_normal((d, d))
            member = normal_member(rng.standard_normal(d), A @ A.T + 0.4 * np.eye(d))
            theta = rng.uniform(-1.5, 1.5, d)
        pairs.append((member, theta))
    return pairs


def test_gradient_consistency_200_random():
    for member, theta in _random_members_and_thetas(200):
        grad = member.cgf_grad(theta)
        fd = _finite_diff_grad(member, theta)
        assert np.linalg.norm(grad - fd) <= 1e-6 * (1.0 + np.linalg.norm(grad))


def test_hessian_consistency_200_random():
    for member, theta in _random_members_and_thetas(200):
        hess = member.cgf_hess(theta)
        fd = _finite_diff_hess(member, theta)
        assert np.linalg.norm(hess - fd) <= 1e-5 * (1.0 + np.linalg.norm(hess))


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_density_examples():
    assert gamma_member(3.0, 1.0).density(-1.0) == 0.0
    assert std_normal().density(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-15)
    assert gamma_member(3.0, 1.0).density(2.0) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-14)
    assert gamma_member(3.0, 1.0).density(2.0) == pytest.approx(0.2706705664732254, rel=1e-12)


def test_density_normalization_1d():
    for member in (gamma_member(3.0, 1.0), gamma_member(2.5, 2.0), normal_member(np.array([1.0]), np.array([[3.0]]))):
        lo = 0.0 if member.kind == "gamma" else -80.0
        mass, _ = quad(lambda x: member.density(x), lo, 200.0, limit=400)
        assert mass == pytest.approx(1.0, abs=1e-8)


_QUAD_COVS = {
    2: np.array([[1.0, 0.4], [0.4, 1.5]]),
    3: np.array([[1.0, 0.2, 0.1], [0.2, 1.3, 0.3], [0.1, 0.3, 0.9]]),
}


@pytest.mark.parametrize("dim", [2, 3])
def test_density_normalization_tensor_quadrature(dim):
    member = normal_member(0.3 * np.arange(dim), _QUAD_COVS[dim])
    half = 9.0 * math.sqrt(float(np.linalg.eigvalsh(member.covs[0])[-1]))
    nodes, weights = np.polynomial.legendre.leggauss(80)
    pts_1d = [member.means[0, i] + half * nodes for i in range(dim)]
    mesh = np.meshgrid(*pts_1d, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    w = weights * half
    wmesh = np.meshgrid(*[w] * dim, indexing="ij")
    wtot = np.ones(pts.shape[0])
    for m in wmesh:
        wtot = wtot * m.ravel()
    mass = float(np.sum(member.density(pts) * wtot))
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_log_density_one_point_per_member():
    normals = normal_family(
        [np.zeros(2), np.array([0.5, -1.0]), np.ones(2)],
        [np.eye(2), np.array([[1.0, 0.3], [0.3, 2.0]]), np.diag([0.5, 4.0])],
    )
    pts = np.array([[0.1, -0.2], [1.0, 0.5], [-2.0, 3.0]])
    expected = [normals[j].log_density(pts[j]) for j in range(3)]
    np.testing.assert_allclose(normals.log_density(pts), expected, rtol=1e-14)
    gammas = gamma_family([2.5, 3.0, 4.0], 1.5)
    xs = np.array([1.0, 7.5, -1.0])
    expected = [gammas[j].log_density(xs[j]) for j in range(3)]
    np.testing.assert_allclose(gammas.log_density(xs), expected, rtol=1e-14)
    assert expected[2] == -math.inf


# log Gamma rounded once from 50-digit mpmath values; math.lgamma is 1 to 3
# ulp off at 2.5, 3 and 4.
@pytest.mark.parametrize(
    "x, expected",
    [(2.5, 0.2846828704729192), (3.0, 0.6931471805599453), (4.0, 1.791759469228055), (41229.5, 396908.26240987406)],
)
def test_lgamma_is_correctly_rounded(x, expected):
    assert lgamma(x) == expected


LOG1PMX_POINTS = [-0.9, -0.5, -0.1, -0.0999, -0.03, -1e-3, -1e-8, 1e-8, 1e-3, 0.03, 0.0999, 0.1, 0.5, 0.9]


@pytest.mark.parametrize("x", LOG1PMX_POINTS)
def test_log1pmx_within_its_rounding_bound(x):
    # against log(1 + x) - x in 50-digit decimal arithmetic: the series'
    # bound of 4 u below |x| = 0.1, log1p(x) - x's 42 u above (u = 2^-53,
    # the numerics.log1pmx docstring); the array form gives the same bits
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        exact = (1 + decimal.Decimal(x)).ln() - decimal.Decimal(x)
        error = abs(decimal.Decimal(float(log1pmx(x))) / exact - 1)
    assert error <= (4 if abs(x) < 0.1 else 42) * 2.0**-53, float(error)
    assert log1pmx(np.array(LOG1PMX_POINTS))[LOG1PMX_POINTS.index(x)] == log1pmx(x)


# 50-digit mpmath values of gammainc(K, 0, x / scale, regularized=True):
# (K, scale, x, P(X <= x)).
GAMMA_CDF_REFERENCES = [
    (2.5, 1.0, 0.5, 0.037434226752703631),
    (2.5, 1.0, 2.5, 0.58411981300449208),
    (2.5, 1.0, 10.0, 0.99875026943696862),
    (370.5, 1.8461538461538463, 600.0, 0.0071292707630207172),
    (370.5, 1.8461538461538463, 684.0, 0.50690877704670342),
    (370.5, 1.8461538461538463, 760.0, 0.98130266617126599),
    (41229.5, 1.0, 41000.0, 0.12908597902048732),
    (41229.5, 1.0, 41229.5, 0.50065491484631874),
    (41229.5, 1.0, 41500.0, 0.90839223768982979),
]

# The log density at the quadrature nodes rounds to about 1e-16 sqrt(K)
# (the terms of -K (expm1(d) - d) are of size K |d| with d ~ 1 / sqrt(K));
# at K = 41229.5 the largest error measured is 2.4e-15.
@pytest.mark.parametrize("shape, scale, x, expected", GAMMA_CDF_REFERENCES)
def test_gamma_cdf_high_precision_reference(shape, scale, x, expected):
    assert abs(gamma_member(shape, scale).cdf(x) - expected) <= 5e-15


def test_gamma_cdfs_at_the_support_ends():
    block = gamma_member(2.5, 1.0)
    assert block.cdf(0.0) == 0.0 and block.cdf(-3.0) == 0.0 and block.cdf(math.inf) == 1.0
    assert np.shape(block.cdf(np.ones((3, 1)))) == (3, 1) and np.ndim(block.cdf(1.0)) == 0


def _spd_stack(rng, count, dim):
    a = rng.normal(size=(count, dim, dim))
    return a @ np.swapaxes(a, 1, 2) + 0.5 * np.eye(dim)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_normal_log_density_against_scipy(dim, shared, order):
    rng = np.random.default_rng(10 * dim + shared)
    means = rng.normal(size=(4, dim))
    covs = _spd_stack(rng, 1 if shared else 4, dim)
    family = normal_family(means, covs)
    # one point per member
    pts = np.asarray(means + rng.normal(size=(4, dim)), order=order)
    expected = [multivariate_normal(means[j], covs[0 if shared else j]).logpdf(pts[j]) for j in range(4)]
    np.testing.assert_allclose(family.log_density(pts), expected, rtol=1e-13, atol=1e-13)
    # many points against one law
    many = np.asarray(means[2] + 3.0 * rng.normal(size=(200, dim)), order=order)
    law = multivariate_normal(means[2], covs[0 if shared else 2])
    np.testing.assert_allclose(family[2].log_density(many), law.logpdf(many), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_normal_sample_is_affine_map_of_standard_draws(dim):
    rng = np.random.default_rng(dim)
    mean, cov = rng.normal(size=dim), _spd_stack(rng, 1, dim)[0]
    draws = normal_member(mean, cov).sample(np.random.default_rng(5), 1000)
    z = np.random.default_rng(5).standard_normal((1000, dim))
    np.testing.assert_allclose(draws, mean + z @ sym_sqrt(cov), rtol=0.0, atol=1e-14)


# unit roundoff
U = 2.0**-53


@st.composite
def cycled_cases(draw):
    """(rows, n, i, j, theta, exact): r in {1, 2, 3} parameter rows of one
    kind, a length n with n % r != 0 when r > 1, a slice [i:j] of it and a
    tilt.  With exact, every row entry and theta is a small dyadic rational,
    so every sum of them is exact in float; otherwise every entry and theta
    entry is positive, so no sum cancels."""
    kind = draw(st.sampled_from(["gamma", "normal-shared", "normal"]))
    r = draw(st.integers(1, 3))
    n = r * draw(st.integers(0, 40)) + draw(st.integers(1, max(r - 1, 40 * (r == 1))))
    i = draw(st.integers(0, n - 1))
    j = draw(st.integers(i + 1, n))
    exact = draw(st.booleans())
    value = st.sampled_from([0.25, 0.5, 0.75, 1.5]) if exact else st.floats(0.1, 1.5)
    if kind == "gamma":
        # theta < 1 / scale = 2 / 3
        rows = gamma_family([2.0 + draw(value) for _ in range(r)], 1.5)
        return rows, n, i, j, np.array([draw(value) - 0.9]), exact

    def cov():
        off = draw(value) / 4.0
        return [[1.0 + draw(value), off], [off, 1.0 + draw(value)]]

    means = [[draw(value), draw(value)] for _ in range(r)]
    rows = normal_family(means, cov() if kind == "normal-shared" else [cov() for _ in range(r)])
    return rows, n, i, j, np.array([draw(value), draw(value)]), exact


def _averages_and_sums(family, theta):
    return [
        family.cgf(theta), family.cgf_grad(theta), family.cgf_hess(theta),
        *law_parameters(family.convolve()), *law_parameters(family.tilt(theta).convolve()),
    ]


@given(case=cycled_cases())
@settings(max_examples=150, deadline=None)
def test_cycled_family_matches_explicit_list(case):
    # a slice of rows.build(n) and the same slice of the explicit list
    # np.resize(rows, n) hold the same members, before and after a tilt, and
    # the same cgf calculus and sum laws: bit for bit for dyadic rows, else
    # within 2 (n + r + 8) u relative.  Each side sums at most n positive
    # terms, member by member ((n - 1) u) or as n // r times the sum of the
    # r rows plus the first n % r rows (2 r u), divides once by the length
    # and evaluates one formula of positive terms (3 u) on the result.
    rows, n, i, j, theta, exact = case
    family, explicit = rows.build(n)[i:j], explicit_family(rows, n)[i:j]
    assert len(family) == len(explicit) == j - i
    for got, want in ((family, explicit), (family.tilt(theta), explicit.tilt(theta))):
        for m in range(j - i):
            assert [a.tobytes() for a in law_parameters(got[m])] == [b.tobytes() for b in law_parameters(want[m])]
    # one point per member: member m's law at point m
    points = explicit.cgf_grad(np.zeros(rows.dim)) + np.linspace(0.5, 1.5, j - i)[:, None]
    assert family.log_density(points).tobytes() == explicit.log_density(points).tobytes()
    for got, want in zip(_averages_and_sums(family, theta), _averages_and_sums(explicit, theta)):
        got, want = np.asarray(got), np.asarray(want)
        assert got.shape == want.shape
        if exact:
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=2.0 * (n + len(rows) + 8) * U, atol=0.0)


@pytest.mark.parametrize("rows,a", [
    (gamma_family([2.5, 4.0], 1.0), 6.0),
    (normal_family([[0.0, 0.0], [0.5, 0.5]], [[1.0, 0.25], [0.25, 2.0]]), [0.75, 0.75]),
    (normal_family([[0.0, 0.0], [0.5, 0.5], [1.0, -0.5]],
                   [[[1.0, 0.25], [0.25, 2.0]], [[2.0, -0.5], [-0.5, 1.0]], [[1.5, 0.0], [0.0, 0.75]]]), [0.75, 0.75]),
])
def test_tilt_oracle_averages_the_members(rows, a):
    # five members of two or three rows: the oracle weighs each row by the
    # members it stands for, which a plain mean over the rows would not
    family = rows.build(5)
    want = tilt_oracle(explicit_family(rows, 5), a)
    assert tilt_oracle(family, a).tobytes() == want.tobytes()
    assert not np.array_equal(tilt_oracle(rows, a), want)


def test_shared_covariance_sums_to_n_times_cov():
    # the sum law of n members sharing one covariance has n cov, one
    # rounding, not n roundings of a running sum
    cov = np.array([[1.0, 0.2], [0.2, 2.0]])
    for n in (400, 10**12):
        total = normal_family([[0.0, 0.0], [0.5, 0.5]], cov).build(n).convolve()
        assert total.covs[0].tobytes() == (n * cov).tobytes()
    running = np.zeros((2, 2))
    for _ in range(400):
        running = running + cov
    assert not np.array_equal(running, 400 * cov)


def test_stepped_slices_raise():
    family = gamma_family([2.5, 4.0], 1.0).build(10)
    with pytest.raises(ValueError, match="contiguous"):
        family[::2]
    with pytest.raises(ValueError, match="at least one member"):
        family[5:5]


def test_near_singular_covariance_raises_from_log_density():
    # positive definite, so it can be built and inspected, but too ill
    # conditioned to whiten
    member = normal_member(np.zeros(2), np.diag([1.0, 1e-14]))
    assert member.cgf_hess(np.zeros(2))[1, 1] == 1e-14
    with pytest.raises(DegenerateCovarianceError):
        member.log_density(np.ones((3, 2)))


def test_guarded_eigh_checks_shape_and_spectrum():
    # symmetry is checked once, when a family is built; the eigendecomposition
    # keeps the shape check and the eigenvalue floor
    w, q = guarded_eigh(4.0)
    assert w.tolist() == [4.0] and q.tolist() == [[1.0]]
    for bad_shape in (np.ones(3), np.ones((2, 3)), np.ones((4, 2, 3))):
        with pytest.raises(ValueError):
            guarded_eigh(bad_shape)
    for degenerate in (np.diag([1.0, 1e-14]), -np.eye(2), np.stack([np.eye(2), np.diag([1.0, 0.0])])):
        with pytest.raises(DegenerateCovarianceError):
            guarded_eigh(degenerate)


ONE_BY_ONE = [[[4.0]], [[5e-324]], [[1.7e308]], [[[2.5]], [[1e-300]], [[3e300]]], [[[1.0]]] * 7]


@pytest.mark.parametrize("mat", ONE_BY_ONE)
def test_guarded_eigh_one_by_one_is_lapack_bitwise(mat):
    # a 1 x 1 matrix is the entry and 1, the bits LAPACK returns for it
    mat = np.array(mat)
    w, q = guarded_eigh(mat)
    ref_w, ref_q = np.linalg.eigh(mat)
    for got, ref in ((w, ref_w), (q, ref_q)):
        assert got.shape == ref.shape and got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("entry", [0.0, -0.0, -2.0, -np.inf, np.inf, np.nan])
@pytest.mark.parametrize("stacked", [False, True])
def test_guarded_eigh_one_by_one_raises_lapack_text(entry, stacked):
    # the guard reads the same spectrum as through LAPACK, so the message is
    # the one the guard gives on np.linalg.eigh's eigenvalues; an entry that
    # is not finite is named as for d >= 2, before any spectrum is read
    mat = np.array([[[2.0]], [[entry]], [[0.5]]]) if stacked else np.array([[entry]])
    ref_w, _ = np.linalg.eigh(mat)
    text = f"matrix numerically singular: eigenvalues in [{np.min(ref_w[..., 0]):.3e}, {np.max(ref_w[..., -1]):.3e}]"
    if not math.isfinite(entry):
        text = "matrix not finite: a sum or product overflowed"
    with pytest.raises(DegenerateCovarianceError) as exc:
        guarded_eigh(mat)
    assert str(exc.value) == text


@pytest.mark.parametrize("mat", [[[np.inf]], [[np.nan]], np.diag([np.nan, 1.0])])
def test_guarded_eigh_rejects_non_finite_spectrum(mat):
    # an overflowed Hessian must not pass as a usable spectrum
    with pytest.raises(DegenerateCovarianceError):
        guarded_eigh(np.array(mat))


@pytest.mark.parametrize(
    "mat", [np.diag([np.inf, 1.0]), np.diag([np.nan, 1.0]), [np.eye(2), np.full((2, 2), -np.inf)]]
)
def test_guarded_eigh_names_a_non_finite_matrix(mat, monkeypatch):
    # an overflowed sum is not a singular matrix: a d >= 2 matrix with an
    # entry that is not finite raises before LAPACK turns it into nan
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a))
    with pytest.raises(DegenerateCovarianceError) as exc:
        guarded_eigh(np.array(mat))
    assert str(exc.value) == "matrix not finite: a sum or product overflowed" and calls == []


def _counting_eigh(monkeypatch):
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    return calls


@pytest.mark.parametrize(
    "covs",
    [[[[1.0, 0.2], [0.2, 2.0]]], [[[1.0, 0.2], [0.2, 2.0]], [[0.5, 0.0], [0.0, 0.5]]], [[[2.0]], [[3.0]]]],
    ids=["shared", "per_row", "one_by_one"],
)
def test_normal_law_decomposes_its_covariance_once(covs, monkeypatch):
    # _inv, _inv_sqrt and _logdet come from one cached eigendecomposition,
    # with the bits of the numerics formulas, each of which decomposes anew
    covs = np.array(covs)
    law = normal_family(np.ones((len(covs), covs.shape[-1])), covs)
    calls = _counting_eigh(monkeypatch)
    values = (law._inv, law._inv_sqrt, law._logdet)
    assert len(calls) == 1
    for value, formula in zip(values, (sym_inv, sym_inv_sqrt, sym_logdet)):
        reference = formula(covs)
        assert value.shape == reference.shape and value.tobytes() == reference.tobytes()


def test_radial_row_runs_eigh_once(monkeypatch):
    # on the average covariance in tilt_to_mean; the radial fill reads no
    # covariance, so no sum's covariance is decomposed
    members = normal_family([[0.0, 0.0], [0.5, 0.5]], [[1.0, 0.2], [0.2, 2.0]]).build(200)
    calls = _counting_eigh(monkeypatch)
    tv_sum_mc(members, 15, [0.6, 0.6], samples=1000, rng=1)
    assert calls == [(2, 2)]


# ---------------------------------------------------------------------------
# tilting
# ---------------------------------------------------------------------------

def test_tilt_identity_at_zero():
    g = gamma_member(3.0, 1.0)
    tilted = g.tilt(0.0)
    np.testing.assert_array_equal(tilted.shapes, g.shapes)
    assert tilted.scale == g.scale
    n = normal_member(np.array([0.5]), np.array([[2.0]]))
    tilted = n.tilt(0.0)
    np.testing.assert_array_equal(tilted.means, n.means)
    np.testing.assert_array_equal(tilted.covs, n.covs)


def test_tilt_closures():
    g = gamma_member(3.0, 1.0).tilt(0.5)
    assert (g.shapes[0], g.scale) == (3.0, 2.0)
    n = normal_member(np.zeros(1), np.eye(1)).tilt(0.5)
    assert n.means[0, 0] == pytest.approx(0.5) and n.covs[0, 0, 0] == 1.0


@pytest.mark.parametrize(
    "member,theta,grid",
    [
        (gamma_member(3.0, 1.0), np.array([0.5]), np.linspace(0.05, 20.0, 100)),
        (gamma_member(2.8, 0.7), np.array([-1.2]), np.linspace(0.05, 15.0, 100)),
        (normal_member(np.zeros(1), np.eye(1)), np.array([0.5]), np.linspace(-5.0, 5.0, 100)),
    ],
)
def test_tilt_closure_pointwise_identity(member, theta, grid):
    tilted = member.tilt(theta)
    base = member.density(grid)
    lhs = tilted.density(grid)
    rhs = np.exp(grid * theta[0]) * base / math.exp(member.cgf(theta))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10)


def test_tilt_closure_normalizes():
    tilted = gamma_member(3.0, 1.0).tilt(0.5)
    mass, _ = quad(lambda x: tilted.density(x), 0.0, 400.0, limit=400)
    assert mass == pytest.approx(1.0, abs=1e-8)


@given(theta=st.floats(-2.0, 0.9), shape=st.floats(2.1, 8.0), scale=st.floats(0.3, 2.0))
@settings(max_examples=60, deadline=None)
def test_tilted_mean_cov_match_cgf_derivatives(theta, shape, scale):
    member = gamma_member(shape, scale)
    th = np.array([theta / scale])
    tilted = member.tilt(th)
    np.testing.assert_allclose(member.cgf_grad(th), tilted.cgf_grad(0.0), rtol=1e-12)
    np.testing.assert_allclose(member.cgf_hess(th), tilted.cgf_hess(0.0), rtol=1e-12)


def test_tilted_mean_cov_normal():
    member = normal_member(np.array([1.0, -0.5]), np.array([[1.0, 0.4], [0.4, 2.0]]))
    theta = np.array([0.3, -0.7])
    tilted = member.tilt(theta)
    np.testing.assert_allclose(member.cgf_grad(theta), tilted.cgf_grad(np.zeros(2)), rtol=1e-14)
    np.testing.assert_allclose(member.cgf_hess(theta), tilted.cgf_hess(np.zeros(2)), rtol=1e-14)


# ---------------------------------------------------------------------------
# domain handling
# ---------------------------------------------------------------------------

def test_out_of_domain_raises_not_nan():
    member = gamma_member(3.0, 2.0)
    for bad in (0.5, 0.7, 10.0):  # boundary at 1/scale = 0.5, inclusive
        with pytest.raises(OutOfDomainError):
            member.cgf(bad)
        with pytest.raises(OutOfDomainError):
            member.cgf_grad(bad)
        with pytest.raises(OutOfDomainError):
            member.cgf_hess(bad)
        with pytest.raises(OutOfDomainError):
            member.tilt(bad)


def test_gamma_domain_is_open_at_theta_upper():
    member = gamma_member(3.0, 2.0)
    assert member.theta_upper == 0.5 and member.mean_lower == 0.0
    assert not member.in_domain(member.theta_upper)
    assert member.in_domain(np.nextafter(member.theta_upper, -np.inf))
    assert member.in_domain(-1e300)


def test_normal_domain_is_every_finite_theta():
    for d in (1, 2, 3):
        member = normal_member(np.zeros(d), np.eye(d))
        assert member.theta_upper == math.inf and member.mean_lower == -math.inf
        for theta in (np.zeros(d), np.full(d, 1e300), np.full(d, -1e300), np.arange(d) - 0.5):
            assert member.in_domain(theta)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_theta_is_outside_the_domain(bad):
    assert not gamma_member(3.0, 2.0).in_domain(bad)
    for d in (1, 2):
        theta = np.zeros(d)
        theta[-1] = bad
        assert not normal_member(np.zeros(d), np.eye(d)).in_domain(theta)


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        gamma_member(2.0, 1.0)  # shape must exceed 2 strictly
    with pytest.raises(ValueError):
        gamma_member(3.0, 0.0)
    with pytest.raises(ValueError):
        normal_member(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(ValueError):
        normal_member(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric


def _fields(family):
    """The fields family holds, with the lazily computed _lam_min of a
    Normal family, and its dim and theta_upper, which a kind may hold as
    class attributes."""
    if family.kind == "normal":
        family._lam_min
    return {**vars(family), "dim": family.dim, "theta_upper": family.theta_upper}


def _same(a, b):
    return type(a) is type(b) and np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("kind", ["gamma", "normal", "normal_members"])
def test_derived_families_store_what_the_validating_constructor_stores(kind, monkeypatch):
    # build, slices, tilt, tilt_to_mean, convolve and the Normal full sum
    # store their arrays without re-validating them; each derived family
    # holds, field by field, what the constructor makes of those arrays,
    # cycled to the family's length
    rows, a = {
        "gamma": (gamma_family([2.5, 4.0, 3.0], 1.5), 6.0),
        "normal": (normal_family([[0.0, 0.0], [0.5, 0.5]], [[1.0, 0.2], [0.2, 2.0]]), [0.6, 0.6]),
        "normal_members": (
            normal_family([[0.0, 0.0], [0.5, -0.5]], [[[1.0, 0.2], [0.2, 2.0]], [[2.0, 0.3], [0.3, 1.5]]]),
            [0.6, 0.4],
        ),
    }[kind]
    derived, cycled = [], Family._cycled
    monkeypatch.setattr(Family, "_cycled", lambda self, n, *rows: derived.append(cycled(self, n, *rows)) or derived[-1])
    family = rows.build(40)
    family[3:20], family[7], family.tilt(np.full(family.dim, 0.1))
    ctx = RatioContext(family, 6, a)
    ctx.log_ratio_exact(ctx.block_model.mean_sum)
    ctx.fill_log_ratio(np.random.default_rng(0), np.empty(4))
    assert len(derived) >= 8
    for law in derived:
        stored = (law.shapes, law.scale) if law.kind == "gamma" else (law.means, law.covs)
        validated = type(law)(*stored)
        got, want = _fields(law), _fields(validated)
        assert (got.pop("_n"), want.pop("_n")) == (len(law), len(stored[0]))
        # got may also hold what was cached on it since
        assert all(key in got and _same(got[key], want[key]) for key in want), kind


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_normal_sampling_clt_bound(rng):
    member = normal_member(np.zeros(1), np.eye(1))
    draws = member.sample(rng, 10**6)
    assert abs(draws.mean()) <= 4.0 / math.sqrt(10**6)


def test_gamma_sampling_clt_bound(rng):
    member = gamma_member(3.0, 1.0)
    draws = member.sample(rng, 10**6)
    assert abs(draws.mean() - 3.0) <= 4.0 * math.sqrt(3.0) / 1e3


def test_one_member_sample_draws_the_law_itself():
    # bit for bit the generator's gamma draw and (S z^T + m)^T, S = cov^(1/2)
    draws = gamma_member(2.5, 1.5).sample(np.random.default_rng(4), 500)
    assert draws.tobytes() == np.random.default_rng(4).gamma(2.5, 1.5, size=(500, 1)).tobytes()
    mean, cov = np.array([1.0, -1.0]), np.array([[1.0, 0.6], [0.6, 2.0]])
    z = np.random.default_rng(4).standard_normal((500, 2))
    draws = normal_member(mean, cov).sample(np.random.default_rng(4), 500)
    assert draws.shape == (500, 2)
    assert draws.tobytes() == np.ascontiguousarray((sym_sqrt(cov) @ z.T + mean[:, None]).T).tobytes()


def test_sample_count_zero_returns_empty(rng):
    assert gamma_member(3.0, 1.0).sample(rng, 0).shape == (0, 1)
    assert normal_member(np.zeros(2), np.eye(2)).sample(rng, 0).shape == (0, 2)


def test_multivariate_sampling_moments(rng):
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    member = normal_member(np.array([1.0, -1.0]), cov)
    draws = member.sample(rng, 200_000)
    np.testing.assert_allclose(draws.mean(axis=0), member.means[0], atol=0.02)
    np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.03)


# ---------------------------------------------------------------------------
# sequence builders
# ---------------------------------------------------------------------------

def test_builders_and_validation():
    g = gamma_family([2.5, 4.0], 1.0)
    assert len(g) == 2 and g[1].shapes[0] == 4.0
    n = normal_family([np.zeros(2), np.ones(2)], [np.eye(2)])
    assert len(n) == 2 and n.dim == 2
    with pytest.raises(ValueError):
        gamma_family([], 1.0)
    with pytest.raises(ValueError):
        normal_family(np.zeros((0, 2)), [np.eye(2)])
