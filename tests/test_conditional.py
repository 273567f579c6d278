"""Conditional densities, tilting invariance, normalized coordinates, and
the exact-vs-Edgeworth density ratio."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from tiltedsums import (
    RatioContext,
    UndefinedConditionalError,
    conditional_density,
    gamma_family,
    gibbs_density,
    normal_family,
    solve_tilt,
    tilt_oracle,
    tilting_invariance_check,
    tv_joint_mc,
    tv_scheffe,
    tv_sum_mc,
)
from tiltedsums import conditional, edgeworth


def iid_normals(n, mean=0.0, var=1.0):
    return normal_family([np.array([mean])] * n, [np.array([[var]])])


def test_public_api_resolves():
    import tiltedsums

    assert [name for name in tiltedsums.__all__ if not hasattr(tiltedsums, name)] == []
    # sum laws come from family.tilt(theta).convolve(), ratios and coordinates from RatioContext,
    # the order-1 Edgeworth factor from the cumulant tensor, the cgf domain from theta_upper;
    # configs are parsed, not written, into a family of the declared rows; the solver calls
    # cgf_grad and cgf_hess
    removed = ("sum_density", "EdgeworthSumDensity", "density_ratio", "normalized_coords", "NormalizedCoords",
               "hermite3", "multi_indices", "AllSpace", "HalfLine", "serialize_config", "FamilySpec", "mean_cgf")
    assert [name for name in removed if hasattr(tiltedsums, name) or name in tiltedsums.__all__] == []


# ---------------------------------------------------------------------------
# exact sum densities
# ---------------------------------------------------------------------------

def test_gamma_sum_density_matches_convolution_family():
    members = gamma_family([2.5, 3.0, 4.5], 2.0)
    ds = members.tilt(0.25).convolve()
    # tilted scale 2/(1-0.25*2) = 4, total shape 10
    assert len(ds) == 1
    assert ds.shapes[0] == pytest.approx(10.0)
    assert ds.scale == pytest.approx(4.0)
    from scipy.stats import gamma as gamma_dist

    xs = np.linspace(0.5, 200.0, 50)
    np.testing.assert_allclose(ds.density(xs), gamma_dist.pdf(xs, a=10.0, scale=4.0), rtol=1e-12)


def test_normal_sum_density_matches_scipy():
    members = normal_family([np.array([0.1, -0.2]), np.array([0.3, 0.4])], [np.eye(2)])
    theta = np.array([0.5, -0.5])
    ds = members.tilt(theta).convolve()
    from scipy.stats import multivariate_normal

    mean = members[0].tilt(theta).means[0] + members[1].tilt(theta).means[0]
    ref = multivariate_normal(mean=mean, cov=2.0 * np.eye(2))
    pts = np.array([[0.0, 0.0], [1.0, -1.0], [2.5, 0.5]])
    np.testing.assert_allclose(ds.density(pts), ref.pdf(pts), rtol=1e-12)


# ---------------------------------------------------------------------------
# conditional density
# ---------------------------------------------------------------------------

def test_conditional_density_gaussian_pair():
    members = iid_normals(2)
    val = conditional_density(members, 1, [0.3], 0.0)
    # X1 | X1+X2 = 0 is N(0, 1/2)
    oracle = norm.pdf(0.3, scale=math.sqrt(0.5))
    assert val == pytest.approx(oracle, rel=1e-12)
    assert val == pytest.approx(0.5156304548094816, rel=1e-12)


def test_conditional_density_outside_support_is_zero():
    members = gamma_family([3.0] * 3, 1.0)
    assert conditional_density(members, 1, [-0.5], 9.0) == 0.0
    assert conditional_density(members, 1, [9.5], 9.0) == 0.0


def test_conditional_density_normalizes():
    members = gamma_family([3.0] * 3, 1.0)
    mass, _ = quad(lambda x: conditional_density(members, 1, [x], 9.0), 0.0, 9.0, limit=300)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_conditional_density_undefined_event():
    members = gamma_family([3.0] * 3, 1.0)
    with pytest.raises(UndefinedConditionalError):
        conditional_density(members, 1, [0.5], -2.0)


def test_conditional_density_block_bounds():
    members = gamma_family([3.0] * 3, 1.0)
    with pytest.raises(ValueError):
        conditional_density(members, 3, [1.0, 1.0, 1.0], 9.0)
    with pytest.raises(ValueError):
        conditional_density(members, 0, [], 9.0)


# ---------------------------------------------------------------------------
# tilting invariance
# ---------------------------------------------------------------------------

def test_tilting_invariance_gamma():
    members = gamma_family([3.0] * 10, 1.0)
    untilted, tilted = tilting_invariance_check(members, 2, 6.0, 12.0)
    assert untilted == pytest.approx(tilted, rel=1e-10)


def test_tilting_invariance_trivial_at_untilted_mean():
    members = gamma_family([3.0] * 10, 1.0)
    untilted, tilted = tilting_invariance_check(members, 2, 3.0, 6.0)
    assert untilted == pytest.approx(tilted, rel=1e-12)
    sol = solve_tilt(members, 3.0)
    assert abs(sol.theta[0]) < 1e-12


def test_tilting_invariance_normal():
    members = iid_normals(8)
    for t in (-1.0, 0.4, 2.5):
        untilted, tilted = tilting_invariance_check(members, 3, 0.7, t)
        assert untilted == pytest.approx(tilted, rel=1e-10)


# ---------------------------------------------------------------------------
# normalized coordinates
# ---------------------------------------------------------------------------

def test_coords_vanish_at_block_mean():
    members = gamma_family([3.0] * 50, 1.0)
    ctx = RatioContext(members, 5, 6.0)
    t_tilde, t_sharp = ctx.coords(ctx.block_mean)
    assert abs(t_tilde[0, 0]) < 1e-12 and abs(t_sharp[0, 0]) < 1e-12


def test_coords_iid_ratio():
    members = gamma_family([3.0] * 100, 1.0)
    t_tilde, t_sharp = RatioContext(members, 4, 6.0).coords(np.array([[30.0]]))
    assert abs(t_sharp[0, 0] / t_tilde[0, 0]) == pytest.approx(math.sqrt(4.0 / 96.0), rel=1e-12)


def test_coords_linear_relation_example():
    members = gamma_family([3.0] * 100, 1.0)
    ctx = RatioContext(members, 4, 6.0)
    sd = 1.0 / float(ctx.block_B[0, 0])
    t = float(ctx.block_mean[0]) + math.sqrt(4.0) * sd * 1.0  # t_tilde = 1
    t_tilde, t_sharp = ctx.coords(np.array([[t]]))
    assert t_tilde[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert t_sharp[0, 0] == pytest.approx(-math.sqrt(4.0 / 96.0), rel=1e-12)


def test_coords_linear_relation_heterogeneous():
    members = gamma_family([2.5, 4.0] * 60, 1.0)
    ctx = RatioContext(members, 7, 5.5)
    for t in (20.0, 35.0, 50.0):
        t_tilde, t_sharp = ctx.coords(np.array([[t]]))
        predicted = (
            -math.sqrt(ctx.k / (ctx.n - ctx.k))
            * ctx.comp_model.B
            @ np.linalg.inv(ctx.block_B)
            @ t_tilde[0]
        )
        assert t_sharp[0, 0] == pytest.approx(predicted[0], abs=1e-12)


def test_edgeworth_models_built_only_on_first_use(monkeypatch):
    calls = []
    real_build = edgeworth.build_model

    def counting_build(*args, **kwargs):
        calls.append(args)
        return real_build(*args, **kwargs)

    # and so is the block normalization (block_mean, block_B), which only the
    # coordinates read
    normalizations = []
    real_inv_sqrt = conditional.sym_inv_sqrt

    def counting_inv_sqrt(mat):
        normalizations.append(mat)
        return real_inv_sqrt(mat)

    monkeypatch.setattr(edgeworth, "build_model", counting_build)
    monkeypatch.setattr(conditional, "sym_inv_sqrt", counting_inv_sqrt)
    family = gamma_family([2.5, 4.0] * 50, 1.0)
    tv_scheffe(family, 10, 6.0)
    tv_sum_mc(family, 10, 6.0, samples=100, rng=np.random.default_rng(0))
    tv_joint_mc(family, 10, 6.0, samples=100, rng=np.random.default_rng(0))
    assert calls == [] and normalizations == []
    ctx = RatioContext(gamma_family([2.5, 4.0] * 20, 1.0), 3, 5.5)
    assert calls == [] and normalizations == []
    values = ctx.edgeworth(np.array([[10.0], [16.5], [25.0]]))
    # the rest sum's model only: P1(0) = 0 leaves the full sum's density at 0 Gaussian
    assert len(calls) == 1 and len(normalizations) == 1
    # values of the eager construction
    np.testing.assert_allclose(values, [0.9716174055884229, 1.0405165191339747, 0.942314871190284], rtol=1e-14)
    ctx.edgeworth(np.array([[12.0]]))
    assert len(calls) == 1 and len(normalizations) == 1


# ---------------------------------------------------------------------------
# density ratio
# ---------------------------------------------------------------------------

def test_ratio_near_one_at_block_mean():
    for members, a in [
        (gamma_family([3.0] * 200, 1.0), 6.0),
        (iid_normals(200), 0.5),
    ]:
        ctx = RatioContext(members, 4, a)
        for ratio in (ctx.exact, ctx.edgeworth):
            val = float(ratio(ctx.block_mean)[0])
            assert abs(val - 1.0) <= 2.0 * 4.0 / 200.0


def test_ratio_exact_vs_edgeworth_gamma():
    members = gamma_family([3.0] * 200, 1.0)
    ctx = RatioContext(members, 2, 6.0)
    sd = 1.0 / float(ctx.block_B[0, 0])
    for tt in np.linspace(-2.0, 2.0, 21):
        t = float(ctx.block_mean[0]) + math.sqrt(2.0) * sd * tt
        exact = float(ctx.exact(np.array([[t]]))[0])
        edge = float(ctx.edgeworth(np.array([[t]]))[0])
        assert abs(exact - edge) <= 0.01


def test_ratio_gaussian_closed_form():
    n, k, a = 100, 1, 0.5
    ctx = RatioContext(iid_normals(n), k, a)
    val = float(ctx.exact(np.array([[a]]))[0])
    # complement sum is N((n-1)a, n-1), full sum N(na, n)
    expected = math.sqrt(n / (n - 1)) * math.exp(-(a - a) ** 2 / (2 * (n - 1)))
    assert val == pytest.approx(expected, rel=1e-12)
    t = 1.7
    val = float(ctx.exact(np.array([[t]]))[0])
    expected = math.sqrt(n / (n - 1)) * math.exp(-((a - t) ** 2) / (2 * (n - 1)))
    assert val == pytest.approx(expected, rel=1e-12)


def test_ratio_bounded_tsharp_regime_constant_stable():
    constants = {}
    for n in (200, 400):
        k = math.ceil(math.sqrt(n))
        members = gamma_family([3.0] * n, 1.0)
        ctx = RatioContext(members, k, 6.0)
        sd = 1.0 / float(ctx.block_B[0, 0])
        tts = np.linspace(-4.0, 4.0, 81)
        t = float(ctx.block_mean[0]) + math.sqrt(k) * sd * tts
        _, t_sharp = ctx.coords(t.reshape(-1, 1))
        mask = np.abs(t_sharp[:, 0]) <= 2.0
        dev = np.abs(ctx.exact(t.reshape(-1, 1)) - 1.0)[mask]
        shape = (k / n) * (1 + tts[mask] ** 2) + (math.sqrt(k) / n) * np.abs(tts[mask]) + 1.0 / n
        constants[n] = float((dev / shape).max())
    ratio = constants[200] / constants[400]
    assert 0.5 <= ratio <= 2.0


def test_ratio_rejects_bad_blocks():
    members = gamma_family([3.0] * 10, 1.0)
    with pytest.raises(ValueError):
        RatioContext(members, 10, 6.0)  # empty complement


def test_ratio_allows_one_member_complement():
    members = gamma_family([3.0] * 10, 1.0)
    val = float(RatioContext(members, 9, 6.0).exact(np.array([[54.0]]))[0])
    assert math.isfinite(val) and val > 0.0


# 50-digit mpmath values of log f_rest(n a - t) - log f_full(n a) for Gamma
# laws of the tilted scale the code derives from tilt_oracle (u =
# 1.8461538461538463); (n, k, t values, log rho values, allowed error).
LOG_RATIO_REFERENCES = [
    (
        12800, 114, [600.0, 640.0, 684.0, 730.0, 760.0],
        [-0.021717874922505553, -0.0029907972438255053, 0.004473055855562666,
         -0.0024545339328599586, -0.01509362455216798],
        1e-12,
    ),
    (
        1_000_000, 1, [1.0, 3.0, 4.5, 10.0, 20.0],
        [-8.079597722063779e-07, -2.4039582232148027e-09, 3.6478376699223913e-07,
         -2.6709970394534238e-08, -7.735063828776142e-06],
        1e-13,
    ),
]


@pytest.mark.parametrize("n,k,ts,reference,tol", LOG_RATIO_REFERENCES)
def test_log_ratio_exact_high_precision_reference(n, k, ts, reference, tol):
    # the sums' log densities are ~4e5 (n = 12800) and ~4e7 (n = 1e6) in size,
    # so a difference of them would keep only ~1e-10 and ~1e-8 of log rho
    members = gamma_family([2.5, 4.0] * (n // 2), 1.0)
    ctx = RatioContext(members, k, 6.0, theta=tilt_oracle(members, 6.0))
    assert ctx.rest.scale == 1.8461538461538463
    got = ctx.log_ratio_exact(np.array(ts).reshape(-1, 1))
    assert np.max(np.abs(got - np.array(reference))) <= tol


# ---------------------------------------------------------------------------
# Gibbs-form density of the block sum
# ---------------------------------------------------------------------------

def test_gibbs_identity_gamma():
    members = gamma_family([3.0] * 10, 1.0)
    tilted_block = members[:2].tilt(0.5).convolve()
    for x in (2.0, 8.0, 15.0):
        lhs = gibbs_density(members, 2, 0.5, x)
        assert lhs == pytest.approx(float(tilted_block.density(x)), rel=1e-10)


def test_gibbs_identity_normal():
    members = iid_normals(6, mean=0.3, var=1.4)
    theta = np.array([-0.6])
    tilted_block = members[:3].tilt(theta).convolve()
    for x in (-2.0, 0.5, 3.0):
        assert gibbs_density(members, 3, theta, x) == pytest.approx(
            float(tilted_block.density(x)), rel=1e-10
        )


def test_gibbs_zero_tilt_is_block_density():
    members = gamma_family([2.5, 3.5, 4.5], 1.0)
    block = members[:2].convolve()
    assert gibbs_density(members, 2, 0.0, 5.0) == pytest.approx(float(block.density(5.0)), rel=1e-14)


def test_gibbs_density_normalizes():
    members = gamma_family([3.0] * 4, 1.0)
    mass, _ = quad(lambda x: gibbs_density(members, 2, 0.5, x), 0.0, 400.0, limit=400)
    assert mass == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("k", [0, 11, 2.5, math.nan])
def test_gibbs_density_rejects_bad_block_sizes(k):
    with pytest.raises(ValueError, match="block size"):
        gibbs_density(gamma_family([3.0] * 10, 1.0), k, 0.0, 6.0)


def test_gibbs_density_takes_integral_block_sizes():
    members = gamma_family([3.0] * 10, 1.0)
    value = gibbs_density(members, 2, 0.5, 6.0)
    assert gibbs_density(members, 2.0, 0.5, 6.0) == gibbs_density(members, np.int64(2), 0.5, 6.0) == value
    assert gibbs_density(members, 10, 0.5, 6.0) > 0.0
