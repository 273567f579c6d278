"""Member-level behaviour: cgf calculus, densities, tilting, sampling.

A single member is a family of length 1."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import multivariate_normal

from tiltedsums import (
    DegenerateCovarianceError,
    OutOfDomainError,
    gamma_family,
    normal_family,
)
from tiltedsums.numerics import guarded_eigh, sym_sqrt


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
    return min(h, 1e-3 * member.domain.boundary_distance(theta))


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


@pytest.mark.parametrize("mat", [[[np.inf]], [[np.nan]], np.diag([np.nan, 1.0])])
def test_guarded_eigh_rejects_non_finite_spectrum(mat):
    # an overflowed Hessian must not pass as a usable spectrum
    with pytest.raises(DegenerateCovarianceError):
        guarded_eigh(np.array(mat))


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


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        gamma_member(2.0, 1.0)  # shape must exceed 2 strictly
    with pytest.raises(ValueError):
        gamma_member(3.0, 0.0)
    with pytest.raises(ValueError):
        normal_member(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(ValueError):
        normal_member(np.zeros(2), np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric


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
