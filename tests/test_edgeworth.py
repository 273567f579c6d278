"""Edgeworth machinery: Hermite products, cumulant maps, density accuracy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tiltedsums import (
    DegenerateCovarianceError,
    build_model,
    default_grid,
    edgeworth_density,
    gamma_family,
    hermite3,
    multi_indices,
    normal_family,
    normalized_exact_density,
    third_cumulant,
    weighted_sup_error,
)


# ---------------------------------------------------------------------------
# multi-indices and Hermite products
# ---------------------------------------------------------------------------

def test_multi_index_enumeration():
    assert multi_indices(1) == [(3,)]
    assert multi_indices(2) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    for d in (1, 2, 3):
        assert len(multi_indices(d)) == math.comb(d + 2, 3)
        assert all(sum(nu) == 3 for nu in multi_indices(d))


def test_hermite3_values():
    assert hermite3((3,), 0.0) == 0.0
    assert hermite3((3,), 2.0) == pytest.approx(2.0)
    assert hermite3((1, 2), np.array([1.0, 1.0])) == pytest.approx(0.0)
    assert hermite3((1, 2), np.array([2.0, 2.0])) == pytest.approx(2.0 * 3.0)
    assert hermite3((1, 1, 1), np.array([2.0, 3.0, -1.0])) == pytest.approx(-6.0)


def test_hermite3_rejects_wrong_weight():
    with pytest.raises(ValueError):
        hermite3((2,), 1.0)
    with pytest.raises(ValueError):
        hermite3((2, 2), np.array([1.0, 1.0]))


@given(st.integers(1, 3), st.integers(0, 9))
@settings(max_examples=40, deadline=None)
def test_hermite3_vanishes_at_zero(dim, which):
    nus = multi_indices(dim)
    nu = nus[which % len(nus)]
    assert hermite3(nu, np.zeros(dim)) == 0.0


# ---------------------------------------------------------------------------
# third cumulants
# ---------------------------------------------------------------------------

def test_third_cumulant_normal_vanishes():
    member = normal_family([np.array([1.0, -2.0])], np.array([[1.0, 0.3], [0.3, 2.0]]))
    out = third_cumulant(member, np.zeros(2), np.eye(2))
    assert set(out) == set(multi_indices(2))
    assert all(v == 0.0 for v in out.values())


def test_third_cumulant_gamma_example():
    member = gamma_family([3.0], 1.0)
    b = np.array([[3.0**-0.5]])
    out = third_cumulant(member, 0.0, b)
    # third central moment of Gamma(3,1) is 2*k*t^3 = 6, scaled by B^3
    assert out[(3,)] == pytest.approx(6.0 * 3.0**-1.5, rel=1e-13)
    assert out[(3,)] == pytest.approx(1.1547005383792517, rel=1e-12)


def test_third_cumulant_gamma_quadrature_oracle():
    member = gamma_family([3.0], 1.0)
    for theta in (0.0, 0.4, -1.0):
        tilted = member.tilt(theta)
        mean = tilted.shapes[0] * tilted.scale
        mom, _ = quad(lambda x: (x - mean) ** 3 * tilted.density(x), 0.0, 600.0, limit=500)
        b = 0.7
        closed = third_cumulant(member, theta, np.array([[b]]))[(3,)]
        assert closed == pytest.approx(b**3 * mom, rel=1e-8)


def test_mixed_third_moments_vanish_for_product_members():
    member = normal_family([np.zeros(2)], np.diag([1.0, 4.0]))
    out = third_cumulant(member, np.zeros(2), np.diag([1.0, 0.5]))
    assert out[(2, 1)] == 0.0 and out[(1, 2)] == 0.0


# ---------------------------------------------------------------------------
# model construction
# ---------------------------------------------------------------------------

def test_build_model_normal_all_cumulants_zero():
    members = normal_family([np.array([0.2, -0.1])] * 5, [np.array([[1.0, 0.2], [0.2, 0.8]])])
    model = build_model(members, np.array([0.3, 0.0]))
    assert all(v == 0.0 for v in model.avg_third_cumulants.values())
    ident = model.B @ model.avg_cov @ model.B
    np.testing.assert_allclose(ident, np.eye(2), atol=1e-10)


def test_build_model_gamma_skewness():
    members = gamma_family([3.0] * 16, 1.0)
    model = build_model(members, 0.0)
    assert model.avg_third_cumulants[(3,)] == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-12)


def test_build_model_single_standard_normal():
    model = build_model(normal_family([np.zeros(1)], np.eye(1)), 0.0)
    assert model.count == 1
    assert model.B[0, 0] == pytest.approx(1.0)
    assert model.mean_sum[0] == 0.0


def test_build_model_key_count_matches_dimension():
    for d in (1, 2, 3):
        members = normal_family([np.zeros(d)] * 3, np.eye(d))
        model = build_model(members, np.zeros(d))
        assert len(model.avg_third_cumulants) == math.comb(d + 2, 3)


def test_build_model_degenerate_covariance_error():
    members = normal_family([np.zeros(2)] * 3, np.diag([1.0, 1e-15]))
    with pytest.raises(DegenerateCovarianceError):
        build_model(members, np.zeros(2))


# ---------------------------------------------------------------------------
# density evaluation
# ---------------------------------------------------------------------------

def test_density_is_gaussian_when_cumulants_vanish():
    members = normal_family([np.array([0.5])] * 7, [np.array([[2.0]])])
    model = build_model(members, 0.0)
    xs = np.linspace(-4, 4, 17)
    phi = np.exp(-0.5 * xs**2) / math.sqrt(2 * math.pi)
    np.testing.assert_allclose(edgeworth_density(model, xs), phi, rtol=1e-14)


def test_density_at_origin_is_gaussian_for_any_model():
    members = gamma_family([2.5, 4.5] * 8, 1.0)
    for order in (0, 1):
        model = build_model(members, 0.3, order=order)
        assert edgeworth_density(model, 0.0) == pytest.approx((2 * math.pi) ** -0.5, rel=1e-14)
    members2 = normal_family([np.zeros(2)] * 4, np.eye(2))
    model2 = build_model(members2, np.zeros(2))
    assert edgeworth_density(model2, np.zeros(2)) == pytest.approx((2 * math.pi) ** -1.0, rel=1e-14)


def test_order1_integrates_to_one():
    members = gamma_family([3.0] * 9, 1.0)
    model = build_model(members, 0.2)
    mass, _ = quad(lambda x: edgeworth_density(model, x), -np.inf, np.inf)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_gamma_octave_decay_weighted_sup_error():
    grid = default_grid(1)
    errors = {}
    for m in (64, 128, 256, 512):
        members = gamma_family([3.0] * m, 1.0)
        model = build_model(members, 0.0)
        exact = normalized_exact_density(members, 0.0, model=model)
        errors[m] = weighted_sup_error(model, exact, grid)
    for m in (64, 128, 256):
        assert 1.6 <= errors[m] / errors[2 * m] <= 2.4


def test_heterogeneous_gamma_decay():
    grid = default_grid(1)
    errors = {}
    for m in (64, 128, 256, 512):
        members = gamma_family([2.5, 4.0] * (m // 2), 1.0)
        model = build_model(members, 0.0)
        exact = normalized_exact_density(members, 0.0, model=model)
        errors[m] = weighted_sup_error(model, exact, grid)
    for m in (64, 128, 256):
        assert 1.6 <= errors[m] / errors[2 * m] <= 2.4


def test_weighted_sup_error_zero_against_itself():
    members = gamma_family([3.0] * 4, 1.0)
    model = build_model(members, 0.0)
    grid = default_grid(1, points_per_axis=101)
    err = weighted_sup_error(model, lambda pts: edgeworth_density(model, pts), grid)
    assert err == 0.0


def test_weighted_sup_error_gaussian_exactness():
    members = normal_family([np.array([1.0])] * 6, [np.array([[0.7]])])
    model = build_model(members, 0.4)
    exact = normalized_exact_density(members, 0.4, model=model)
    err = weighted_sup_error(model, exact, default_grid(1))
    assert err <= 1e-12


def test_weighted_sup_error_rejects_empty_grid():
    members = gamma_family([3.0] * 4, 1.0)
    model = build_model(members, 0.0)
    with pytest.raises(ValueError):
        weighted_sup_error(model, lambda pts: np.zeros(len(pts)), np.zeros((0, 1)))


def test_default_grid_shapes():
    assert default_grid(1).shape == (241, 1)
    assert default_grid(2, points_per_axis=41).shape == (41 * 41, 2)
    assert default_grid(3, mc_points=1000, rng=np.random.default_rng(0)).shape == (1000, 3)
