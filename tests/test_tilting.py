"""Tilting equation: mean cgf, damped Newton solver, closed-form oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltedsums import (
    OutOfDomainError,
    UnsupportedFamilyError,
    gamma_family,
    mean_cgf,
    normal_family,
    solve_tilt,
    tilt_oracle,
)
from tiltedsums import tilting


def iid_normals(n, mean=0.0, var=1.0):
    return normal_family([np.array([mean])] * n, [np.array([[var]])])


# ---------------------------------------------------------------------------
# mean_cgf
# ---------------------------------------------------------------------------

def test_mean_cgf_grad_is_mean_of_means():
    members = normal_family([np.array([0.0]), np.array([2.0])], [np.eye(1)])
    _, grad, _ = mean_cgf(members, 0.0)
    assert grad[0] == pytest.approx(1.0)


def test_mean_cgf_gamma_tilted():
    for n in (1, 3, 17):
        members = gamma_family([3.0] * n, 1.0)
        _, grad, _ = mean_cgf(members, 0.5)
        assert grad[0] == pytest.approx(6.0, rel=1e-14)


def test_mean_cgf_hessian_mixed_normals():
    members = normal_family([np.zeros(1)] * 2, [np.array([[1.0]]), np.array([[3.0]])])
    for theta in (0.0, 1.7, -4.0):
        _, _, hess = mean_cgf(members, theta)
        assert hess[0, 0] == pytest.approx(2.0)


def test_mean_cgf_rejects_empty_and_out_of_domain():
    with pytest.raises(ValueError):
        mean_cgf(gamma_family([], 1.0), 0.0)
    with pytest.raises(OutOfDomainError):
        mean_cgf(gamma_family([3.0], 1.0), 1.0)


# ---------------------------------------------------------------------------
# solve_tilt examples
# ---------------------------------------------------------------------------

def test_solve_iid_normal():
    sol = solve_tilt(iid_normals(20), 0.5)
    assert sol.converged and sol.residual_norm <= 1e-10
    assert sol.theta[0] == pytest.approx(0.5, abs=1e-12)


def test_solve_iid_gamma():
    sol = solve_tilt(gamma_family([3.0] * 12, 1.0), 6.0)
    assert sol.converged
    assert sol.theta[0] == pytest.approx(0.5, abs=1e-12)


def test_solve_at_untilted_mean_gives_zero():
    members = gamma_family([2.7, 3.3, 4.1], 0.7)
    _, grad0, _ = mean_cgf(members, 0.0)
    sol = solve_tilt(members, grad0)
    assert sol.converged and abs(sol.theta[0]) <= 1e-12

    members = normal_family([np.array([0.4, -0.2])] * 4, [np.array([[1.0, 0.2], [0.2, 1.5]])])
    _, grad0, _ = mean_cgf(members, np.zeros(2))
    sol = solve_tilt(members, grad0)
    assert sol.converged and np.linalg.norm(sol.theta) <= 1e-12


def test_solve_errors():
    with pytest.raises(OutOfDomainError):
        solve_tilt(gamma_family([3.0] * 5, 1.0), -1.0)
    with pytest.raises(OutOfDomainError):
        solve_tilt(gamma_family([3.0] * 5, 1.0), 0.0)
    with pytest.raises(ValueError):
        solve_tilt(gamma_family([3.0], 1.0), 6.0, tol=0.0)
    with pytest.raises(ValueError):
        solve_tilt(gamma_family([], 1.0), 1.0)


# ---------------------------------------------------------------------------
# oracle agreement
# ---------------------------------------------------------------------------

def test_oracle_examples():
    members = normal_family([np.array([0.0]), np.array([2.0])], [np.eye(1)])
    assert tilt_oracle(members, 2.0)[0] == pytest.approx(1.0, abs=1e-14)

    members = gamma_family([3.0] * 6, 1.0)
    assert tilt_oracle(members, 3.0)[0] == pytest.approx(0.0, abs=0.0)

    members = normal_family([np.zeros(2)] * 3, [np.diag([1.0, 4.0])])
    np.testing.assert_allclose(tilt_oracle(members, np.array([1.0, 1.0])), [1.0, 0.25], rtol=1e-14)


def test_oracle_agreement_randomized():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 40))
        shapes = rng.uniform(2.2, 5.0, n)
        scale = float(rng.uniform(0.4, 2.5))
        members = gamma_family(shapes, scale)
        a = float(rng.uniform(0.3, 4.0)) * shapes.mean() * scale
        sol = solve_tilt(members, a)
        star = tilt_oracle(members, a)
        assert sol.converged
        assert np.linalg.norm(sol.theta - star) <= 1e-10 * (1 + np.linalg.norm(star))


def test_oracle_unsupported_mix(point_mass_members):
    with pytest.raises(UnsupportedFamilyError):
        tilt_oracle(point_mass_members, 1.0)


def test_oracle_agreement_large_heterogeneous_family():
    members = gamma_family([2.5, 4.0] * 6400, 1.0)
    sol = solve_tilt(members, 6.0)
    star = tilt_oracle(members, 6.0)
    assert sol.converged
    assert abs(sol.theta[0] - star[0]) <= 1e-12 * abs(star[0])


# ---------------------------------------------------------------------------
# envelope bounds (d = 1)
# ---------------------------------------------------------------------------

def theta_bounds_1d(family, a):
    """Bracket of the gamma tilt parameter from envelope functions.

    Gamma members with shapes in [k_lo, k_hi] have means squeezed between
    f_-(theta) = k_lo t/(1-theta t) and f_+ = k_hi t/(1-theta t), so
    f_+^{-1}(a) <= theta <= f_-^{-1}(a).
    """
    t = family.scale
    lo = (1.0 - float(family.shapes.max()) * t / a) / t
    hi = (1.0 - float(family.shapes.min()) * t / a) / t
    return lo, hi


def test_theta_bounds_heterogeneous():
    members = gamma_family([2.5, 3.0, 4.0], 1.0)
    lo, hi = theta_bounds_1d(members, 6.0)
    assert lo == pytest.approx(1.0 - 4.0 / 6.0, rel=1e-14)
    assert hi == pytest.approx(1.0 - 2.5 / 6.0, rel=1e-14)
    sol = solve_tilt(members, 6.0)
    assert lo <= sol.theta[0] <= hi


def test_theta_bounds_degenerate_iid():
    members = gamma_family([3.0] * 4, 1.0)
    lo, hi = theta_bounds_1d(members, 6.0)
    assert lo == pytest.approx(hi)
    assert lo == pytest.approx(solve_tilt(members, 6.0).theta[0], abs=1e-12)


def test_theta_bounds_contain_zero_at_untilted_mean():
    members = gamma_family([2.5, 3.5], 2.0)
    a = float(mean_cgf(members, 0.0)[1][0])
    lo, hi = theta_bounds_1d(members, a)
    assert lo <= 0.0 <= hi


# ---------------------------------------------------------------------------
# solver behaviour
# ---------------------------------------------------------------------------

def test_monotone_residual_and_domain_safety():
    members = gamma_family([2.5, 5.5] * 30, 0.5)
    boundary = 1.0 / 0.5
    trace = []
    sol = solve_tilt(members, 30.0, callback=lambda th, r: trace.append((th[0], r)))
    assert sol.converged
    residuals = [r for _, r in trace]
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert all(th < boundary - 1e-14 for th, _ in trace)


def test_solver_accuracy_across_scales():
    # the step rule is relative to |theta| and to the distance 1 - theta from
    # the boundary, so it holds for targets from far below to far above the
    # mean, and reports non-convergence once float cannot resolve 1 - theta
    members = gamma_family([3.0] * 400, 1.0)
    for a in (1e-6, 1e-4, 1e4, 1e6):
        sol = solve_tilt(members, a)
        star = tilt_oracle(members, a)
        assert sol.converged
        assert abs(sol.theta[0] - star[0]) <= 1e-12 * max(1.0, abs(star[0]))
    for a in (1e12, 1e16):
        assert not solve_tilt(members, a).converged


def test_iterate_count_reported():
    members = gamma_family([3.0] * 8, 1.0)
    steps = []
    sol = solve_tilt(members, 9.0, callback=lambda th, r: steps.append(th))
    assert sol.converged
    assert sol.iterations == len(steps)
    assert sol.iterations <= 30


def test_nonconvergence_flag_without_exception():
    members = gamma_family([3.0] * 8, 1.0)
    sol = solve_tilt(members, 300.0, max_iter=2)
    assert not sol.converged
    assert sol.residual_norm > 1e-10


def test_singular_hessian_raises_conditioning_error():
    from tiltedsums import ConditioningError

    members = normal_family([np.zeros(2)] * 3, [np.diag([1.0, 1e-15])])
    with pytest.raises(ConditioningError):
        solve_tilt(members, np.array([1.0, 1.0]))


def test_subnormal_gamma_scale_has_no_upper_bound_and_raises_conditioning_error():
    # 1 / scale overflows, so theta_upper is inf as for normal members; the
    # Hessian kbar scale^2 rounds to 0 and the first Newton step fails
    from tiltedsums import ConditioningError

    members = gamma_family([3.0] * 4, 1e-320)
    assert members.theta_upper == np.inf
    with pytest.raises(ConditioningError):
        solve_tilt(members, 6.0)


@given(a=st.floats(0.5, 40.0))
@settings(max_examples=50, deadline=None)
def test_legendre_round_trip(a):
    members = gamma_family([2.6, 3.4, 4.2], 1.3)
    sol = solve_tilt(members, a)
    assert sol.converged
    _, grad, _ = mean_cgf(members, sol.theta)
    assert abs(grad[0] - a) <= 1e-10 * (1 + abs(a))


def test_legendre_round_trip_normal_2d():
    members = normal_family(
        [np.array([0.5, -0.3]), np.array([-0.1, 0.8])],
        [np.array([[1.2, 0.3], [0.3, 0.9]])],
    )
    for a in (np.array([1.0, -2.0]), np.array([0.0, 3.0])):
        sol = solve_tilt(members, a)
        _, grad, _ = mean_cgf(members, sol.theta)
        assert np.linalg.norm(grad - a) <= 1e-10 * (1 + np.linalg.norm(a))


# ---------------------------------------------------------------------------
# line search: halving stops once the candidate rounds to the iterate
# ---------------------------------------------------------------------------

ALTERNATING = gamma_family([2.5, 4.0] * 6400, 1.0)
IID = gamma_family([3.0] * 200, 1.0)


@pytest.mark.parametrize("members", [ALTERNATING, IID], ids=["alternating-12800", "iid-200"])
def test_converged_solve_costs_about_one_evaluation_per_step(members, monkeypatch):
    # the last Newton step lies below one ulp of theta, so no halving of it
    # can be accepted; 60 of them would make 67 and 62 evaluations here
    calls = []

    def counted(family, theta):
        calls.append(theta)
        return mean_cgf(family, theta)

    monkeypatch.setattr(tilting, "mean_cgf", counted)
    sol = solve_tilt(members, 6.0)
    assert sol.converged
    assert len(calls) <= 10


# (family, a, repr(theta), repr(residual_norm), iterations, converged) as
# solved with the full 60 halvings before every failed line search; at
# a = 1e300 the residual squares to inf, which must raise no overflow warning
PINNED = [
    (ALTERNATING, 1e-12, "-3249999999999.0", "0.0", 47, True),
    (ALTERNATING, 6.0, "0.45833333333333337", "0.0", 5, True),
    (ALTERNATING, 1e7, "0.999999675", "0.0007145646959543228", 13, True),
    (ALTERNATING, 1e12, "0.99999999999675", "13581727.469848633", 14, False),
    (ALTERNATING, 1e300, "0.0", "inf", 0, False),
    (IID, 1e-12, "-2999999999999.0005", "2.0194839173657902e-28", 47, True),
    (IID, 6.0, "0.5", "0.0", 1, True),
    (IID, 1e7, "0.9999997", "0.0015628151595592499", 12, False),
    (IID, 1e12, "0.999999999997", "14885492.451538086", 14, False),
    (IID, 1e300, "0.0", "inf", 0, False),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "members,a,theta,residual,iterations,converged",
    PINNED,
    ids=[f"{'alt' if m is ALTERNATING else 'iid'}-{a:g}" for m, a, *_ in PINNED],
)
def test_solve_tilt_pinned_results(members, a, theta, residual, iterations, converged):
    sol = solve_tilt(members, a)
    assert repr(float(sol.theta[0])) == theta
    assert repr(sol.residual_norm) == residual
    assert (sol.iterations, sol.converged) == (iterations, converged)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "a,theta,residual,iterations,converged",
    [
        ((1.0, -2.0), ["1.4090909090909092", "-2.9696969696969697"], "0.0", 1, True),
        ((1e300, -1e300), ["0.0", "0.0"], "inf", 0, False),
    ],
)
def test_solve_tilt_pinned_results_normal_2d(a, theta, residual, iterations, converged):
    members = normal_family(
        [np.array([0.5, -0.3]), np.array([-0.1, 0.8])],
        [np.array([[1.2, 0.3], [0.3, 0.9]])],
    )
    sol = solve_tilt(members, np.array(a))
    assert [repr(float(v)) for v in sol.theta] == theta
    assert (repr(sol.residual_norm), sol.iterations, sol.converged) == (residual, iterations, converged)
