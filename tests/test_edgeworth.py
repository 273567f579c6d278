"""Edgeworth machinery: the cumulant tensor, the order-1 factor P1 and
density accuracy."""

import itertools
import math

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss
from scipy.integrate import quad

from tiltedsums import (
    DegenerateCovarianceError,
    EdgeworthModel,
    build_model,
    default_grid,
    edgeworth_density,
    gamma_family,
    normal_family,
    normalized_exact_density,
    third_cumulant,
    weighted_sup_error,
)
from tiltedsums.edgeworth import skew_correction


# ---------------------------------------------------------------------------
# third cumulants
# ---------------------------------------------------------------------------

def test_third_cumulant_normal_vanishes():
    member = normal_family([np.array([1.0, -2.0])], np.array([[1.0, 0.3], [0.3, 2.0]]))
    out = third_cumulant(member, np.eye(2))
    assert out.shape == (2, 2, 2)
    assert not out.any()


def test_third_cumulant_gamma_example():
    member = gamma_family([3.0], 1.0)
    b = np.array([[3.0**-0.5]])
    out = third_cumulant(member, b)
    # third central moment of Gamma(3,1) is 2*k*t^3 = 6, scaled by B^3
    assert out[0, 0, 0] == pytest.approx(6.0 * 3.0**-1.5, rel=1e-13)
    assert out[0, 0, 0] == pytest.approx(1.1547005383792517, rel=1e-12)


def test_third_cumulant_gamma_quadrature_oracle():
    member = gamma_family([3.0], 1.0)
    for theta in (0.0, 0.4, -1.0):
        tilted = member.tilt(theta)
        mean = tilted.shapes[0] * tilted.scale
        mom, _ = quad(lambda x: (x - mean) ** 3 * tilted.density(x), 0.0, 600.0, limit=500)
        b = 0.7
        closed = third_cumulant(tilted, np.array([[b]]))[0, 0, 0]
        assert closed == pytest.approx(b**3 * mom, rel=1e-8)


def test_mixed_third_moments_vanish_for_product_members():
    member = normal_family([np.zeros(2)], np.diag([1.0, 4.0]))
    out = third_cumulant(member, np.diag([1.0, 0.5]))
    assert out[0, 0, 1] == 0.0 and out[0, 1, 1] == 0.0


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

def test_build_model_normal_all_cumulants_zero():
    members = normal_family([np.array([0.2, -0.1])] * 5, [np.array([[1.0, 0.2], [0.2, 0.8]])])
    model = build_model(members.tilt(np.array([0.3, 0.0])))
    assert not model.avg_third_cumulants.any()
    ident = model.B @ model.avg_cov @ model.B
    np.testing.assert_allclose(ident, np.eye(2), atol=1e-10)


def test_build_model_gamma_skewness():
    members = gamma_family([3.0] * 16, 1.0)
    model = build_model(members)
    assert model.avg_third_cumulants[0, 0, 0] == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-12)


def test_build_model_single_standard_normal():
    model = build_model(normal_family([np.zeros(1)], np.eye(1)))
    assert model.count == 1
    assert model.B[0, 0] == pytest.approx(1.0)
    assert model.mean_sum[0] == 0.0


def test_build_model_degenerate_covariance_error():
    members = normal_family([np.zeros(2)] * 3, np.diag([1.0, 1e-15]))
    with pytest.raises(DegenerateCovarianceError):
        build_model(members)


# ---------------------------------------------------------------------------
# the order-1 factor P1 for a general cumulant tensor
# ---------------------------------------------------------------------------

def _random_kappa(rng, d):
    """A random symmetric (d, d, d) tensor."""
    a = rng.standard_normal((d, d, d))
    return sum(np.transpose(a, axes) for axes in itertools.permutations(range(3))) / 6.0


def _standard_model(kappa, count):
    d = kappa.shape[0]
    return EdgeworthModel(d, count, np.zeros(d), np.eye(d), np.eye(d), kappa, 1)


_HE = (
    lambda u: np.ones_like(u),
    lambda u: u,
    lambda u: u * u - 1.0,
    lambda u: u * (u * u - 3.0),
)


def _p1_multi_index(kappa, x):
    """P1(x) = sum_{|nu|=3} kappa_nu / nu! prod_i He_{nu_i}(x_i): the
    multi-index form of the same polynomial, as a reference."""
    d = kappa.shape[0]
    out = np.zeros(x.shape[0])
    for nu in itertools.product(range(4), repeat=d):
        if sum(nu) != 3:
            continue
        slots = tuple(i for i, power in enumerate(nu) for _ in range(power))
        term = kappa[slots] / math.prod(math.factorial(p) for p in nu)
        for i, power in enumerate(nu):
            term = term * _HE[power](x[:, i])
        out += term
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_p1_tensor_form_matches_multi_index_form(d):
    rng = np.random.default_rng(100 + d)
    kappa = _random_kappa(rng, d)
    x = 3.0 * rng.standard_normal((200, d))
    tensor = skew_correction(_standard_model(kappa, 9), x)
    reference = _p1_multi_index(kappa, x)
    assert np.all(np.abs(tensor - reference) <= 1e-12 * np.maximum(1.0, np.abs(reference)))


@pytest.mark.parametrize("d", [2, 3])
def test_order1_density_has_its_defining_moments(d):
    """Mass 1, mean 0, covariance I and third moments kappa_ijk / sqrt(m),
    by tensor-product Gauss-Hermite quadrature, exact for these degrees."""
    rng = np.random.default_rng(7 + d)
    kappa = _random_kappa(rng, d)
    count = 16
    nodes, weights = hermegauss(8)
    x = np.array(list(itertools.product(nodes, repeat=d)))
    w = np.prod(np.array(list(itertools.product(weights, repeat=d))), axis=1)
    # weights integrate against exp(-|x|^2 / 2); divide it back out
    w = w * np.exp(0.5 * np.sum(x * x, axis=1)) * edgeworth_density(_standard_model(kappa, count), x)
    assert abs(np.sum(w) - 1.0) <= 1e-13
    np.testing.assert_allclose(w @ x, np.zeros(d), rtol=0, atol=1e-13)
    np.testing.assert_allclose(np.einsum("n,ni,nj->ij", w, x, x), np.eye(d), rtol=0, atol=1e-13)
    third = np.einsum("n,ni,nj,nk->ijk", w, x, x, x)
    np.testing.assert_allclose(third, kappa / math.sqrt(count), rtol=0, atol=1e-13)


# ---------------------------------------------------------------------------
# density evaluation
# ---------------------------------------------------------------------------

def test_density_is_gaussian_when_cumulants_vanish():
    members = normal_family([np.array([0.5])] * 7, [np.array([[2.0]])])
    model = build_model(members)
    xs = np.linspace(-4, 4, 17)
    phi = np.exp(-0.5 * xs**2) / math.sqrt(2 * math.pi)
    np.testing.assert_allclose(edgeworth_density(model, xs), phi, rtol=1e-14)


def test_density_at_origin_is_gaussian_for_any_model():
    members = gamma_family([2.5, 4.5] * 8, 1.0)
    for order in (0, 1):
        model = build_model(members.tilt(0.3), order=order)
        assert edgeworth_density(model, 0.0) == pytest.approx((2 * math.pi) ** -0.5, rel=1e-14)
    members2 = normal_family([np.zeros(2)] * 4, np.eye(2))
    model2 = build_model(members2)
    assert edgeworth_density(model2, np.zeros(2)) == pytest.approx((2 * math.pi) ** -1.0, rel=1e-14)


def test_order1_integrates_to_one():
    members = gamma_family([3.0] * 9, 1.0)
    model = build_model(members.tilt(0.2))
    mass, _ = quad(lambda x: edgeworth_density(model, x), -np.inf, np.inf)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_gamma_octave_decay_weighted_sup_error():
    grid = default_grid(1)
    errors = {}
    for m in (64, 128, 256, 512):
        members = gamma_family([3.0] * m, 1.0)
        model = build_model(members)
        exact = normalized_exact_density(members, model=model)
        errors[m] = weighted_sup_error(model, exact, grid)
    for m in (64, 128, 256):
        assert 1.6 <= errors[m] / errors[2 * m] <= 2.4


def test_heterogeneous_gamma_decay():
    grid = default_grid(1)
    errors = {}
    for m in (64, 128, 256, 512):
        members = gamma_family([2.5, 4.0] * (m // 2), 1.0)
        model = build_model(members)
        exact = normalized_exact_density(members, model=model)
        errors[m] = weighted_sup_error(model, exact, grid)
    for m in (64, 128, 256):
        assert 1.6 <= errors[m] / errors[2 * m] <= 2.4


def test_weighted_sup_error_zero_against_itself():
    members = gamma_family([3.0] * 4, 1.0)
    model = build_model(members)
    grid = default_grid(1)
    err = weighted_sup_error(model, lambda pts: edgeworth_density(model, pts), grid)
    assert err == 0.0


def test_weighted_sup_error_gaussian_exactness():
    members = normal_family([np.array([1.0])] * 6, [np.array([[0.7]])])
    tilted = members.tilt(0.4)
    model = build_model(tilted)
    exact = normalized_exact_density(tilted, model=model)
    err = weighted_sup_error(model, exact, default_grid(1))
    assert err <= 1e-12


def test_weighted_sup_error_rejects_empty_grid():
    members = gamma_family([3.0] * 4, 1.0)
    model = build_model(members)
    with pytest.raises(ValueError):
        weighted_sup_error(model, lambda pts: np.zeros(len(pts)), np.zeros((0, 1)))


def test_default_grid_shapes():
    assert default_grid(1).shape == (241, 1)
    assert default_grid(2).shape == (241 * 241, 2)
    with pytest.raises(ValueError, match="dim <= 2"):
        default_grid(3)
