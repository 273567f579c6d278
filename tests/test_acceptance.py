"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line with its measured figures.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.
"""

import math
import time

import numpy as np
import pytest

from tiltedsums import (
    SweepRow,
    ThetaBox,
    build_model,
    check_am4,
    check_cf3,
    check_cf_decay,
    check_cv,
    check_uf,
    default_grid,
    df_gamma_constant,
    edgeworth_density,
    fit_scaling,
    gamma_family,
    normal_family,
    normalized_exact_density,
    parse_config,
    run_assumption_checks,
    run_sweep,
    solve_tilt,
    tilt_oracle,
    tilting_invariance_check,
    tv_joint_mc,
    tv_scheffe,
    weighted_sup_error,
)
from tiltedsums.sweep import render_results


def _verdict(num, name, passed, detail=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert passed, line


def iid_normals(n, mean=0.0, var=1.0, dim=1):
    return normal_family([np.full(dim, mean)] * n, [var * np.eye(dim)])


def test_criterion_1_tilt_correctness():
    """solve_tilt matches the closed-form oracle on 100 random Normal and
    100 heterogeneous Gamma configurations within 1e-10, in <= 30 Newton
    steps each and < 5 s total."""
    rng = np.random.default_rng(20240817)
    start = time.perf_counter()
    worst_err, worst_iters = 0.0, 0

    for _ in range(100):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 31))
        means, covs = [], []
        for j in range(n):
            A = rng.standard_normal((d, d))
            means.append(rng.standard_normal(d))
            covs.append(A @ A.T + 0.3 * np.eye(d))
        members = normal_family(means, covs)
        a = 2.0 * rng.standard_normal(d)
        sol = solve_tilt(members, a)
        star = tilt_oracle(members, a)
        assert sol.converged
        worst_err = max(worst_err, np.linalg.norm(sol.theta - star) / (1 + np.linalg.norm(star)))
        worst_iters = max(worst_iters, sol.iterations)

    for _ in range(100):
        n = int(rng.integers(1, 51))
        shapes = rng.uniform(2.1, 6.0, n)
        scale = float(rng.uniform(0.25, 4.0))
        members = gamma_family(shapes, scale)
        a = float(rng.uniform(0.2, 5.0)) * shapes.mean() * scale
        sol = solve_tilt(members, a)
        star = tilt_oracle(members, a)
        assert sol.converged
        worst_err = max(worst_err, np.linalg.norm(sol.theta - star) / (1 + np.linalg.norm(star)))
        worst_iters = max(worst_iters, sol.iterations)

    elapsed = time.perf_counter() - start
    _verdict(
        1, "tilt correctness",
        worst_err <= 1e-10 and worst_iters <= 30 and elapsed < 5.0,
        f"err={worst_err:.2e} iters={worst_iters} {elapsed:.2f}s",
    )


def test_criterion_2_edgeworth_decay():
    """Weighted sup error of the order-1 expansion for i.i.d. Gamma(3,1)
    sums halves per doubling of m within [1.6, 2.4]; < 30 s."""
    start = time.perf_counter()
    grid = default_grid(1)
    errors = {}
    for m in (64, 128, 256, 512):
        members = gamma_family([3.0] * m, 1.0)
        model = build_model(members)
        exact = normalized_exact_density(members, model=model)
        errors[m] = weighted_sup_error(model, exact, grid)
    ratios = [errors[m] / errors[2 * m] for m in (64, 128, 256)]
    elapsed = time.perf_counter() - start
    _verdict(
        2, "edgeworth decay",
        all(1.6 <= r <= 2.4 for r in ratios) and elapsed < 30.0,
        "ratios=" + ",".join(f"{r:.3f}" for r in ratios) + f" {elapsed:.2f}s",
    )


def test_criterion_3_gaussian_exactness():
    """All-Normal order-1 Edgeworth densities equal the exact normalized sum
    density to 1e-12 on a 241-point grid, across random configurations."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(25):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 40))
        means, covs = [], []
        for j in range(n):
            A = rng.standard_normal((d, d))
            means.append(rng.standard_normal(d))
            covs.append(A @ A.T + 0.4 * np.eye(d))
        members = normal_family(means, covs)
        theta = rng.uniform(-0.8, 0.8, d)
        tilted = members.tilt(theta)
        model1 = build_model(tilted, order=1)
        model0 = build_model(tilted, order=0)
        exact = normalized_exact_density(tilted, model=model1)
        grid = np.linspace(-6, 6, 241).reshape(-1, 1) if d == 1 else rng.standard_normal((241, d))
        exact_vals = exact(grid)
        for model in (model0, model1):
            worst = max(worst, float(np.max(np.abs(edgeworth_density(model, grid) - exact_vals))))
    _verdict(3, "gaussian exactness", worst <= 1e-12, f"sup err={worst:.2e}")


def test_criterion_4_sufficiency_identity():
    """Joint-space MC agrees with the sum-statistic quadrature within 3
    standard errors at 1e5 joint samples, for Gaussian and Gamma cases."""
    start = time.perf_counter()
    agreements = []
    cases = [
        ("gaussian", iid_normals(100), 0.5),
        ("gamma", gamma_family([3.0] * 100, 1.0), 6.0),
    ]
    for label, members, a in cases:
        sch = tv_scheffe(members, 2, a)
        joint = tv_joint_mc(members, 2, a, samples=10**5, rng=426)
        z = abs(joint.value - sch.value) / joint.std_error
        agreements.append((label, z))
    elapsed = time.perf_counter() - start
    _verdict(
        4, "sufficiency identity",
        all(z <= 3.0 for _, z in agreements) and elapsed < 60.0,
        " ".join(f"{lab}:z={z:.2f}" for lab, z in agreements) + f" {elapsed:.1f}s",
    )


def test_criterion_5_tv_scaling_law():
    """TV scales like k/n: fitted exponent in [0.9, 1.1] with r2 >= 0.98 for
    i.i.d. Gamma(3,1) and alternating shapes 2.5/4.0; < 5 min."""
    start = time.perf_counter()
    results = {}
    for label, shape_cycle in (("iid", [3.0]), ("alternating", [2.5, 4.0])):
        rows = []
        for n in (200, 400, 800, 1600):
            k = math.ceil(math.sqrt(n))
            shapes = [shape_cycle[j % len(shape_cycle)] for j in range(n)]
            est = tv_scheffe(gamma_family(shapes, 1.0), k, 6.0)
            rows.append(SweepRow(len(rows), n, k, (6.0,), (), "scheffe", est.value, 0.0, 0.0))
        results[label] = fit_scaling(rows)
    elapsed = time.perf_counter() - start
    ok = all(0.9 <= f.exponent <= 1.1 and f.r_squared >= 0.98 for f in results.values())
    _verdict(
        5, "k/n scaling law",
        ok and elapsed < 300.0,
        " ".join(f"{k}:slope={f.exponent:.3f},r2={f.r_squared:.4f}" for k, f in results.items())
        + f" {elapsed:.1f}s",
    )


def test_criterion_6_variation_constant():
    """For i.i.d. standard normals with k = 1, TV * n converges to the
    two-Gaussian variation constant 2 phi(1): within 5% at n = 2000 with
    monotonically shrinking deviation; < 60 s."""
    start = time.perf_counter()
    gamma_const = df_gamma_constant()
    assert gamma_const == pytest.approx(2.0 * math.exp(-0.5) / math.sqrt(2 * math.pi), abs=1e-10)
    deviations = []
    for n in (500, 1000, 2000):
        est = tv_scheffe(iid_normals(n), 1, 0.5)
        deviations.append(abs(est.value * n - gamma_const) / gamma_const)
    elapsed = time.perf_counter() - start
    monotone = deviations[0] > deviations[1] > deviations[2]
    _verdict(
        6, "variation constant",
        deviations[-1] <= 0.05 and monotone and elapsed < 60.0,
        "dev=" + ",".join(f"{d:.2e}" for d in deviations) + f" {elapsed:.1f}s",
    )


def test_criterion_7_tilting_invariance():
    """Untilted and tilted conditional densities agree to 1e-10 relative on
    1000 random (n, k, a, t) configurations."""
    rng = np.random.default_rng(7777)
    worst = 0.0
    checked = 0
    while checked < 1000:
        if rng.uniform() < 0.5:
            n = int(rng.integers(5, 80))
            shapes = rng.uniform(2.2, 5.0, n)
            scale = float(rng.uniform(0.5, 2.0))
            members = gamma_family(shapes, scale)
            a = float(rng.uniform(0.5, 3.0)) * shapes.mean() * scale
        else:
            n = int(rng.integers(5, 80))
            mus = rng.uniform(-1.0, 1.0, n)
            var = float(rng.uniform(0.5, 2.0))
            members = normal_family([np.array([m]) for m in mus], [np.array([[var]])])
            a = float(rng.uniform(-2.0, 2.0))
        k = int(rng.integers(1, n))
        theta = solve_tilt(members, a).theta
        block_mean = k * float(members[:k].cgf_grad(theta)[0])
        block_sd = math.sqrt(k * float(members[:k].cgf_hess(theta)[0, 0]))
        t = block_mean + float(rng.uniform(-2.5, 2.5)) * block_sd
        if members.kind == "gamma" and t <= 0.0:
            t = 0.3 * block_mean
        untilted, tilted = tilting_invariance_check(members, k, a, t)
        if untilted == 0.0 and tilted == 0.0:
            continue
        worst = max(worst, abs(untilted - tilted) / max(abs(untilted), abs(tilted)))
        checked += 1
    _verdict(7, "tilting invariance", worst <= 1e-10, f"worst rel diff={worst:.2e}")


def test_criterion_8_assumption_suite(point_mass_members):
    """Every check passes on the shipped fixtures and fails on its
    documented negative control."""
    gamma_members = gamma_family([2.5, 4.0] * 10, 1.0)
    gamma_box = ThetaBox((-1.0,), (0.9,))
    normal_members = normal_family(
        [np.zeros(2), np.array([0.5, -0.5])] * 3, [np.array([[1.0, 0.2], [0.2, 2.0]])]
    )
    normal_box = ThetaBox((-1.0, -1.0), (1.0, 1.0))

    positives = (
        run_assumption_checks(gamma_members, gamma_box).all_passed
        and run_assumption_checks(normal_members, normal_box).all_passed
    )

    negatives = (
        not check_cv(normal_family([np.zeros(2)], np.diag([1.0, 1e-15])), normal_box).passed
        and not check_am4(gamma_members, ThetaBox((0.0,), (1.0 - 1e-4,))).passed
        and not check_cf_decay(point_mass_members, gamma_box).passed
        and not check_cf3(point_mass_members, gamma_box, beta=0.5).passed
        and not check_uf(gamma_family([2.2, 3.0], 1.0), shape_lo=2.5, shape_hi=4.0).passed
    )
    _verdict(8, "assumption suite", positives and negatives,
             f"positives={positives} negatives={negatives}")


def test_criterion_9_sweep_determinism(tmp_path):
    """The sweep writes byte-identical results.csv for the same config and
    seed regardless of worker-thread count."""
    cfg = parse_config(
        """
[family]
kind = gamma
scale = 1.0
shapes = 2.5, 4.0

[sweep]
n = 40, 60, 90
k = sqrt
a = 6.0
method = sum_mc
samples = 20000
seed = 424242
"""
    )
    renders = {}
    for threads in (1, 2, 5):
        rows = run_sweep(cfg, threads=threads)
        assert all(r.error is None for r in rows)
        renders[threads] = render_results(rows)
    identical = renders[1] == renders[2] == renders[5]
    _verdict(9, "sweep determinism", identical, f"bytes={len(renders[1])}")
