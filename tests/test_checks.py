"""Assumption battery: positive fixtures, negative controls, and the
closed-form vs quadrature cross-checks for every witness."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from tiltedsums import (
    AssumptionReport,
    GammaFamily,
    NormalFamily,
    ThetaBox,
    UnsupportedFamilyError,
    check_am4,
    check_cf3,
    check_cf_decay,
    check_cv,
    check_uf,
    gamma_family,
    normal_family,
    run_assumption_checks,
    theta_box_from_solutions,
)
from tiltedsums import checks as checks_mod
from tiltedsums.numerics import tensor_grid


@pytest.fixture
def gamma_members():
    return gamma_family([2.5, 4.0] * 3, 1.0)


@pytest.fixture
def gamma_box():
    return ThetaBox((-1.0,), (0.9,))


@pytest.fixture
def normal_members():
    return normal_family(
        [np.zeros(2), np.array([0.5, -0.5])] * 2,
        [np.array([[1.0, 0.2], [0.2, 2.0]])],
    )


# ---------------------------------------------------------------------------
# covariance eigenvalue check
# ---------------------------------------------------------------------------

def test_cv_normal_band():
    members = normal_family([np.zeros(2)] * 3, [np.diag([0.5, 2.0])])
    result = check_cv(members, ThetaBox((-1.0, -1.0), (1.0, 1.0)))
    assert result.passed
    assert result.witnesses["lambda_min"] == pytest.approx(0.5)
    assert result.witnesses["lambda_max"] == pytest.approx(2.0)


def test_cv_gamma_witnesses_at_box_ends(gamma_box):
    result = check_cv(gamma_family([3.0], 1.0), gamma_box)
    assert result.passed
    assert result.witnesses["lambda_min"] == pytest.approx(0.75, rel=1e-12)
    assert result.witnesses["lambda_max"] == pytest.approx(300.0, rel=1e-12)


def test_cv_negative_control_near_singular(gamma_box):
    violator = normal_family([np.zeros(2)], np.diag([1.0, 1e-15]))
    result = check_cv(violator, ThetaBox((-1.0, -1.0), (1.0, 1.0)))
    assert not result.passed
    assert result.witnesses["lambda_min"] < 1e-12


# ---------------------------------------------------------------------------
# fourth-moment check
# ---------------------------------------------------------------------------

def test_am4_normal_value():
    result = check_am4(normal_family([np.zeros(1)] * 2, [np.eye(1)]), ThetaBox((-1.0,), (1.0,)))
    assert result.passed
    assert result.witnesses["max_fourth_moment"] == pytest.approx(3.0)


def test_am4_gamma_values_and_quadrature_oracle():
    member = gamma_family([3.0], 1.0)
    res0 = check_am4(member, ThetaBox((0.0,), (0.0,)))
    assert res0.witnesses["max_fourth_moment"] == pytest.approx(45.0, rel=1e-12)
    res_tilt = check_am4(member, ThetaBox((0.5,), (0.5,)))
    assert res_tilt.witnesses["max_fourth_moment"] == pytest.approx(720.0, rel=1e-12)
    # quadrature recomputation of the tilted moment
    tilted = member.tilt(0.5)
    mean = tilted.shapes[0] * tilted.scale
    mom, _ = quad(lambda x: (x - mean) ** 4 * tilted.density(x), 0.0, 600.0, limit=500)
    assert mom == pytest.approx(720.0, rel=1e-8)


def test_am4_negative_control_boundary_box():
    members = gamma_family([3.0] * 2, 1.0)
    result = check_am4(members, ThetaBox((0.0,), (1.0 - 1e-4,)))
    assert not result.passed
    assert result.witnesses["max_fourth_moment"] > 1e6


# ---------------------------------------------------------------------------
# characteristic-function decay
# ---------------------------------------------------------------------------

def test_cf_decay_normal_witness_and_bound():
    members = normal_family([np.zeros(1)], [np.eye(1)])
    result = check_cf_decay(members, ThetaBox((0.0,), (0.0,)))
    assert result.passed
    # L1 norm of the standard normal derivative is 2 phi(0)
    assert result.witnesses["c_k"] == pytest.approx(2.0 / math.sqrt(2 * math.pi), rel=1e-8)
    mass, _ = quad(lambda x: abs(x) * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), -40.0, 40.0)
    assert result.witnesses["c_k"] == pytest.approx(mass, rel=1e-8)


def test_cf_decay_gamma_closed_form_cross_check(gamma_box):
    members = gamma_family([3.0], 1.0)
    result = check_cf_decay(members, gamma_box)
    assert result.passed
    # closed form for the sup: 2 p(mode) maximized over the box at the
    # smallest tilted scale u = 1/(1 - theta t) with theta = -1
    u = 1.0 / 2.0
    closed = 2.0 * math.exp((3 - 1) * math.log((3 - 1) * u) - (3 - 1) - math.lgamma(3.0) - 3 * math.log(u))
    assert result.witnesses["c_k"] == pytest.approx(closed, rel=1e-8)
    # quadrature of |p'| for Gamma(3, u), split at the mode 2 u
    tilted = gamma_family([3.0], u)

    def abs_deriv(x):
        return abs(2.0 / x - 1.0 / u) * tilted.density(x)

    mass = quad(abs_deriv, 0.0, 2.0 * u)[0] + quad(abs_deriv, 2.0 * u, 60.0, limit=200)[0]
    assert result.witnesses["c_k"] == pytest.approx(mass, rel=1e-8)


def test_cf_decay_gamma_modulus_is_bounded():
    # |cf| of Gamma(3, u) is (1 + u^2 r^2)^{-3/2} <= C/r for every r >= 1
    member = gamma_family([3.0], 1.0)
    radii = np.geomspace(1.0, 100.0, 200)
    modulus = member.char_fn_modulus_sup(0.0, radii)[0]
    c = member.density_partial_l1(0.0, 0)[0]
    assert np.all(modulus <= c / radii + 1e-12)


def test_cf_decay_negative_control(point_mass_members, gamma_box):
    result = check_cf_decay(point_mass_members, gamma_box)
    assert not result.passed


def test_cf_decay_tilt_invariance_for_normal():
    members = normal_family([np.zeros(1)] * 2, [np.eye(1)])
    wide = check_cf_decay(members, ThetaBox((-3.0,), (3.0,)))
    narrow = check_cf_decay(members, ThetaBox((0.0,), (0.0,)))
    assert wide.witnesses == narrow.witnesses


# ---------------------------------------------------------------------------
# strict cf separation
# ---------------------------------------------------------------------------

def test_cf3_normal_witness():
    members = normal_family([np.zeros(1)], [np.eye(1)])
    result = check_cf3(members, ThetaBox((0.0,), (0.0,)), beta=0.5)
    assert result.passed
    assert result.witnesses["epsilon"] == pytest.approx(math.exp(-0.125), rel=1e-12)


def test_cf3_gamma_witness():
    members = gamma_family([3.0], 1.0)
    result = check_cf3(members, ThetaBox((0.0,), (0.0,)), beta=1.0)
    assert result.passed
    assert result.witnesses["epsilon"] == pytest.approx(2.0**-1.5, rel=1e-12)


def test_cf3_epsilon_grows_toward_one_as_beta_shrinks():
    members = gamma_family([3.0], 1.0)
    eps = [
        check_cf3(members, ThetaBox((0.0,), (0.0,)), beta=b).witnesses["epsilon"]
        for b in (1.0, 0.3, 0.1, 0.03)
    ]
    assert all(a < b for a, b in zip(eps, eps[1:]))
    assert eps[-1] < 1.0


def test_cf3_negative_control(point_mass_members, gamma_box):
    result = check_cf3(point_mass_members, gamma_box, beta=0.5)
    assert not result.passed
    assert result.witnesses["epsilon"] >= 1.0


def test_cf3_requires_positive_beta(gamma_members, gamma_box):
    with pytest.raises(ValueError):
        check_cf3(gamma_members, gamma_box, beta=0.0)


# ---------------------------------------------------------------------------
# envelope check
# ---------------------------------------------------------------------------

def test_uf_heterogeneous_zero_margin(gamma_members):
    result = check_uf(gamma_members)
    assert result.passed
    assert result.witnesses["worst_margin"] == 0.0


def test_uf_iid_zero_margin():
    result = check_uf(gamma_family([3.0] * 4, 1.0))
    assert result.passed
    assert result.witnesses["worst_margin"] == 0.0


def test_uf_negative_control_injected_shape():
    members = gamma_family([2.2, 3.0], 1.0)
    result = check_uf(members, shape_lo=2.5, shape_hi=4.0)
    assert not result.passed
    assert result.witnesses["worst_margin"] < 0.0


def test_uf_unsupported_for_normal():
    with pytest.raises(UnsupportedFamilyError):
        check_uf(normal_family([np.zeros(1)], [np.eye(1)]))


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def test_full_report_on_shipped_fixtures(gamma_members, gamma_box, normal_members):
    report = run_assumption_checks(gamma_members, gamma_box)
    assert report.all_passed
    assert [e.name for e in report.entries] == ["supp", "cv", "am4", "cf_decay", "cf3", "uf"]
    report2 = run_assumption_checks(normal_members, ThetaBox((-1.0, -1.0), (1.0, 1.0)))
    assert report2.all_passed
    assert [e.name for e in report2.entries] == ["supp", "cv", "am4", "cf_decay", "cf3"]


def test_report_reproducible(gamma_members, gamma_box):
    r1 = run_assumption_checks(gamma_members, gamma_box)
    r2 = run_assumption_checks(gamma_members, gamma_box)
    assert r1.csv_rows() == r2.csv_rows()
    assert r1.to_text() == r2.to_text()


def test_report_depends_on_distinct_laws_only(gamma_box):
    many = run_assumption_checks(gamma_family([3.0] * 200, 1.0), gamma_box)
    one = run_assumption_checks(gamma_family([3.0], 1.0), gamma_box)
    assert [e.witnesses for e in many.entries] == [e.witnesses for e in one.entries]
    cov = np.array([[1.0, 0.2], [0.2, 2.0]])
    box = ThetaBox((-1.0, -1.0), (1.0, 1.0))
    means = [np.zeros(2), np.array([0.5, -0.5])]
    many = run_assumption_checks(normal_family(means * 50, cov), box)
    two = run_assumption_checks(normal_family(means, cov), box)
    assert many.csv_rows() == two.csv_rows()


def test_normal_checks_evaluate_one_theta(monkeypatch):
    """Normal covariances and moments do not depend on theta, so a 3-d box
    costs one evaluation, not 33^3; the witnesses are those of the full grid."""
    members = normal_family([np.zeros(3), np.array([0.5, -0.5, 1.0])] * 2,
                            [np.array([[1.0, 0.2, 0.1], [0.2, 2.0, 0.3], [0.1, 0.3, 1.5]])])
    calls = []
    real_hess = NormalFamily.member_hess

    def counting_hess(self, theta):
        calls.append(theta)
        return real_hess(self, theta)

    monkeypatch.setattr(NormalFamily, "member_hess", counting_hess)
    report = run_assumption_checks(members, ThetaBox((-1.0,) * 3, (1.0,) * 3))
    assert len(calls) == 1
    assert [(e.name, e.passed, e.witnesses) for e in report.entries] == [
        ("supp", True, {}),
        ("cv", True, {"lambda_min": 0.9576748571757885, "lambda_max": 2.1827601656659157}),
        ("am4", True, {"max_fourth_moment": 35.31, "ceiling": 1e6}),
        ("cf_decay", True, {"c_k": 0.8073735529745871, "max_bound_ratio": 0.7676505831853291}),
        ("cf3", True, {"epsilon": 0.8871782512674558, "beta": 0.5}),
    ]


def _grid_thetas(laws, box):
    """Reference theta list: the box center for normal members, otherwise the
    full 33-point grid over the box, every point inside the cgf domain."""
    if laws.kind == "normal":
        return box.center[None, :]
    grid = tensor_grid(box.lo, box.hi, 33)
    for theta in grid:
        if not laws.in_domain(theta):
            raise ValueError(f"grid point {theta} is outside the cgf domain")
    return grid


def _random_gamma_cases():
    rng = np.random.default_rng(2024)
    for _ in range(6):
        t = float(rng.uniform(0.37, 2.5))
        family = gamma_family(rng.uniform(2.05, 9.0, size=int(rng.integers(1, 6))), t)
        point = float(rng.uniform(-3.0, 0.95)) / t
        boxes = [
            ThetaBox((point,), (point,)),
            ThetaBox((-30.0,), ((1.0 - 1e-9) / t,)),
            ThetaBox((float(rng.uniform(-3.0, 0.0)) / t,), (float(rng.uniform(0.0, 0.95)) / t,)),
        ]
        yield family, boxes


def _uf_reports(family):
    k_lo, k_hi = float(family.shapes.min()), float(family.shapes.max())
    box = ThetaBox((0.0,), (0.0,))
    return [
        AssumptionReport([check_uf(family, **bounds)], box)
        for bounds in ({}, {"shape_lo": k_lo, "shape_hi": k_hi},
                       {"shape_lo": k_lo + 0.3, "shape_hi": k_hi - 0.3},
                       {"shape_lo": k_lo - 0.5, "shape_hi": k_hi + 1.5})
    ]


def test_box_ends_reproduce_the_grid(monkeypatch):
    """Every gamma hook is monotone in the tilted scale u = t / (1 - theta t),
    so the two box ends give the reports of the 33-point grid byte for byte."""
    outputs = []
    for family, boxes in _random_gamma_cases():
        reports = [run_assumption_checks(family, box) for box in boxes] + _uf_reports(family)
        outputs.append([(r.csv_rows(), r.to_text()) for r in reports])
    monkeypatch.setattr(checks_mod, "_thetas", _grid_thetas)
    for (family, boxes), got in zip(_random_gamma_cases(), outputs):
        reports = [run_assumption_checks(family, box) for box in boxes] + _uf_reports(family)
        assert got == [(r.csv_rows(), r.to_text()) for r in reports]


def test_gamma_cv_evaluates_the_two_box_ends(monkeypatch, gamma_members, gamma_box):
    calls = []
    real_hess = GammaFamily.member_hess

    def counting_hess(self, theta):
        calls.append(float(theta[0]))
        return real_hess(self, theta)

    monkeypatch.setattr(GammaFamily, "member_hess", counting_hess)
    check_cv(gamma_members, gamma_box)
    assert calls == [-1.0, 0.9]


def test_report_csv_shape(gamma_members, gamma_box):
    rows = run_assumption_checks(gamma_members, gamma_box).csv_rows().strip().split("\n")
    assert rows[0] == "assumption,passed,witness1,witness2"
    assert all(len(r.split(",")) == 4 for r in rows)


def test_grid_points_stay_in_domain():
    members = gamma_family([3.0], 1.0)
    with pytest.raises(ValueError):
        check_cv(members, ThetaBox((0.0,), (2.0,)))  # crosses the boundary at 1


def test_theta_box_from_solutions_clipping():
    members = gamma_family([3.0] * 3, 1.0)
    box = theta_box_from_solutions([np.array([0.5]), np.array([0.8])], members)
    assert box.hi[0] <= 1.0 - 1e-3
    assert box.lo[0] < 0.5
    norm_box = theta_box_from_solutions([np.zeros(2)], normal_family([np.zeros(2)], [np.eye(2)]))
    assert norm_box.lo[0] < 0.0 < norm_box.hi[0]
