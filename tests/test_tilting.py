"""Tilting equation: mean cgf, damped Newton solver, closed-form oracles,
and the closed-form tilted law."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltedsums import (
    ConditioningError,
    GammaFamily,
    OutOfDomainError,
    UnsupportedFamilyError,
    gamma_family,
    normal_family,
    solve_tilt,
    tilt_oracle,
)
from tiltedsums.config import parse_config_file

EPS = np.finfo(float).eps


def iid_normals(n, mean=0.0, var=1.0):
    return normal_family([np.array([mean])] * n, [np.array([[var]])])


# ---------------------------------------------------------------------------
# mean cgf: the family's cgf_grad and cgf_hess
# ---------------------------------------------------------------------------

def test_mean_cgf_grad_is_mean_of_means():
    members = normal_family([np.array([0.0]), np.array([2.0])], [np.eye(1)])
    assert members.cgf_grad(0.0)[0] == pytest.approx(1.0)


def test_mean_cgf_gamma_tilted():
    for n in (1, 3, 17):
        members = gamma_family([3.0] * n, 1.0)
        assert members.cgf_grad(0.5)[0] == pytest.approx(6.0, rel=1e-14)


def test_mean_cgf_hessian_mixed_normals():
    members = normal_family([np.zeros(1)] * 2, [np.array([[1.0]]), np.array([[3.0]])])
    for theta in (0.0, 1.7, -4.0):
        assert members.cgf_hess(theta)[0, 0] == pytest.approx(2.0)


def test_mean_cgf_rejects_empty_and_out_of_domain():
    with pytest.raises(ValueError):
        gamma_family([], 1.0).cgf_grad(0.0)
    members = gamma_family([3.0], 1.0)
    for evaluate in (members.cgf, members.cgf_grad, members.cgf_hess):
        with pytest.raises(OutOfDomainError):
            evaluate(1.0)


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
    sol = solve_tilt(members, members.cgf_grad(0.0))
    assert sol.converged and abs(sol.theta[0]) <= 1e-12

    members = normal_family([np.array([0.4, -0.2])] * 4, [np.array([[1.0, 0.2], [0.2, 1.5]])])
    sol = solve_tilt(members, members.cgf_grad(np.zeros(2)))
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
    a = float(members.cgf_grad(0.0)[0])
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
    grad = members.cgf_grad(sol.theta)
    assert abs(grad[0] - a) <= 1e-10 * (1 + abs(a))


def test_legendre_round_trip_normal_2d():
    members = normal_family(
        [np.array([0.5, -0.3]), np.array([-0.1, 0.8])],
        [np.array([[1.2, 0.3], [0.3, 0.9]])],
    )
    for a in (np.array([1.0, -2.0]), np.array([0.0, 3.0])):
        sol = solve_tilt(members, a)
        grad = members.cgf_grad(sol.theta)
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
    real_grad = GammaFamily.cgf_grad

    def counted(family, theta):
        calls.append(theta)
        return real_grad(family, theta)

    monkeypatch.setattr(GammaFamily, "cgf_grad", counted)
    sol = solve_tilt(members, 6.0)
    assert sol.converged
    assert len(calls) <= 10


# (family, a, repr(theta), repr(residual_norm), iterations, converged) as
# solved with the full 60 halvings before every failed line search; at
# a = 1e300 no step is accepted, and the residual norm 1e300 must raise no
# overflow warning
PINNED = [
    (ALTERNATING, 1e-12, "-3249999999999.0", "0.0", 47, True),
    (ALTERNATING, 6.0, "0.45833333333333337", "0.0", 5, True),
    (ALTERNATING, 1e7, "0.999999675", "0.0007145646959543228", 13, True),
    (ALTERNATING, 1e12, "0.99999999999675", "13581727.469848633", 14, False),
    (ALTERNATING, 1e300, "0.0", "1e+300", 0, False),
    (IID, 1e-12, "-2999999999999.0005", "2.0194839173657902e-28", 47, True),
    (IID, 6.0, "0.5", "0.0", 1, True),
    (IID, 1e7, "0.9999997", "0.0015628151595592499", 12, False),
    (IID, 1e12, "0.999999999997", "14885492.451538086", 14, False),
    (IID, 1e300, "0.0", "1e+300", 0, False),
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
        ((1e300, -1e300), ["1.212121212121212e+300", "-1.515151515151515e+300"], "1.487016908477783e+284",
         1, True),
    ],
    ids=["1,-2", "1e300,-1e300"],
)
def test_solve_tilt_pinned_results_normal_2d(a, theta, residual, iterations, converged):
    members = normal_family(
        [np.array([0.5, -0.3]), np.array([-0.1, 0.8])],
        [np.array([[1.2, 0.3], [0.3, 0.9]])],
    )
    sol = solve_tilt(members, np.array(a))
    assert [repr(float(v)) for v in sol.theta] == theta
    assert (repr(sol.residual_norm), sol.iterations, sol.converged) == (residual, iterations, converged)


# the benchmark's two-dimensional family: the residual norm never squares past
# the float range, so the solve converges on targets out to 1e300
NORMAL_2D = normal_family([[0.0, 0.0], [0.5, 0.5]], [[1.0, 0.2], [0.2, 2.0]])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("j", range(0, 301, 10))
def test_solve_tilt_converges_on_far_normal_2d_targets(j, sign):
    a = np.array([10.0**j, sign * 10.0**j])
    sol = solve_tilt(NORMAL_2D, a)
    oracle = tilt_oracle(NORMAL_2D, a)
    assert sol.converged
    assert np.max(np.abs(sol.theta - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_solve_tilt_far_gamma_target_stays_unconverged():
    sol = solve_tilt(gamma_family([3.0], 1.0), 1e300)
    assert not sol.converged and sol.theta[0] == 0.0 and sol.residual_norm == 1e300


# ---------------------------------------------------------------------------
# the closed-form tilted law: tilt_to_mean
# ---------------------------------------------------------------------------

SHIPPED = Path(__file__).resolve().parents[1] / "scripts" / "configs"
NORMAL_2D_ROWS = normal_family([[0.0, 0.0], [0.5, 0.5]], [[1.0, 0.2], [0.2, 2.0]])


def _shipped_rows():
    for path in sorted(SHIPPED.glob("*.cfg")):
        cfg = parse_config_file(path)
        for n in cfg.n_values:
            for a in cfg.a_values:
                yield f"{path.name}-{n}-{a}", cfg.family.build(n), a


# (family rows, a, n values): the sweep rows of the benchmark's Gamma and
# 2-D Normal workloads, at their full and tiny sizes
BENCH_ROWS = [
    (gamma_family([2.5, 4.0], 1.0), 6.0, (100, 200, 400, 1600, 3200, 6400, 12800)),
    (gamma_family([3.0], 1.0), 6.0, (100, 200, 400, 800, 1600)),
    (NORMAL_2D_ROWS, [0.6, 0.6], (100, 200, 400, 800)),
]
CLOSED_FORM_CASES = list(_shipped_rows()) + [
    (f"bench-{rows.kind}{rows.dim}-{n}", rows.build(n), a) for rows, a, ns in BENCH_ROWS for n in ns
]


@pytest.mark.parametrize("name,family,a", CLOSED_FORM_CASES, ids=[c[0] for c in CLOSED_FORM_CASES])
def test_tilt_to_mean_theta_is_the_oracle(name, family, a):
    # bitwise on every one-dimensional row; the 2-D Normal rows solve a 2 x 2
    # system, allowed to round apart from the oracle's in the last bit
    tilted, theta = family.tilt_to_mean(a)
    oracle = tilt_oracle(family, a)
    if family.dim == 1:
        assert theta.tobytes() == oracle.tobytes()
    else:
        assert np.max(np.abs(theta - oracle) / np.abs(oracle)) <= 4e-16
    assert len(tilted) == len(family)


@pytest.mark.parametrize("name,family,a", CLOSED_FORM_CASES, ids=[c[0] for c in CLOSED_FORM_CASES])
def test_tilt_to_mean_is_the_family_tilted_by_the_solved_theta(name, family, a):
    # the law RatioContext conditions on is the one Newton's theta gave
    tilted, _ = family.tilt_to_mean(a)
    newton = family.tilt(solve_tilt(family, a).theta)
    if family.kind == "gamma":
        assert tilted.scale == newton.scale and tilted.shapes.tobytes() == newton.shapes.tobytes()
    else:
        np.testing.assert_allclose(tilted.means, newton.means, rtol=4e-16, atol=0.0)


@given(exponent=st.floats(-6.0, 300.0))
@settings(max_examples=200, deadline=None)
def test_tilted_gamma_mean_is_the_target(exponent):
    # u = fl(a / kbar), and kbar u rounds once more: at most eps relative,
    # two ulps of a, at every target from 1e-6 to 1e300 times the mean
    family = gamma_family([2.5, 4.0], 1.0).build(12801)
    a = 10.0**exponent * family.cgf_grad(np.zeros(1))[0]
    tilted, _ = family.tilt_to_mean(a)
    assert abs(tilted.cgf_grad(np.zeros(1))[0] - a) <= 2.0 * math.ulp(a)


@given(exponent=st.floats(-6.0, 300.0), direction=st.tuples(st.floats(0.2, 5.0), st.floats(-5.0, 5.0)))
@settings(max_examples=200, deadline=None)
def test_tilted_normal_mean_is_the_target(exponent, direction):
    # mean + cov theta with theta = cov^-1 (a - mean): a - mean rounds by eps
    # of the larger of the two, the eigen solve multiplies that by cond(cov)
    # at most, and the tilted mean adds one rounding; 4 cond eps covers them
    family = NORMAL_2D_ROWS.build(401)
    mean, cov = family.cgf_grad(np.zeros(2)), family.cgf_hess(np.zeros(2))
    a = 10.0**exponent * np.abs(mean) * np.array(direction)
    tilted, _ = family.tilt_to_mean(a)
    w = np.linalg.eigvalsh(cov)
    size = max(np.max(np.abs(a)), np.max(np.abs(mean)))
    assert np.max(np.abs(tilted.cgf_grad(np.zeros(2)) - a)) <= 4.0 * w[-1] / w[0] * EPS * size


@pytest.mark.parametrize("a", [0.0, -1.0, -1e300])
def test_tilt_to_mean_rejects_a_gamma_target_outside_the_support_as_the_solver_does(a):
    family = gamma_family([2.5, 4.0], 1.0).build(10)
    with pytest.raises(OutOfDomainError) as solver:
        solve_tilt(family, a)
    with pytest.raises(OutOfDomainError) as closed:
        family.tilt_to_mean(a)
    assert str(closed.value) == str(solver.value) == f"target mean a={float(a)} outside (0, inf) for gamma members"


@pytest.mark.parametrize("a", [4.0 * math.nextafter(sys.float_info.min, 0.0), 1e-310, 1e-320])
def test_tilt_to_mean_raises_where_the_gamma_scale_is_subnormal(a):
    # a / kbar below the normal range: the sum n a and the roots of log rho
    # would lose relative precision, so the tilt raises before any law uses it
    family = gamma_family([4.0], 1.0).build(10)
    with pytest.raises(ConditioningError, match=f"^target mean a={a} gives gamma scale .*, below the normal float range$"):
        family.tilt_to_mean(a)


def test_tilt_to_mean_keeps_the_smallest_normal_gamma_scale():
    tilted, _ = gamma_family([4.0], 1.0).build(10).tilt_to_mean(4.0 * sys.float_info.min)
    assert tilted.scale == sys.float_info.min
