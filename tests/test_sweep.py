"""Sweep orchestration, scaling fits, and CSV reports."""

import csv
import io
import math
import os

import pytest

from tiltedsums import (
    fit_scaling,
    gamma_family,
    parse_config,
    run_sweep,
    tv_scheffe,
)
from tiltedsums import tilting
from tiltedsums.families import NormalFamily
from tiltedsums.sweep import SweepRow, emit_report, render_results, run_row


def make_config(method="scheffe", n="50, 80", samples=20000, seed=11):
    return parse_config(
        f"""
[family]
kind = gamma
scale = 1.0
shapes = 3.0

[sweep]
n = {n}
k = sqrt
a = 6.0
method = {method}
samples = {samples}
seed = {seed}
"""
    )


# ---------------------------------------------------------------------------
# run_sweep
# ---------------------------------------------------------------------------

def test_single_row_matches_direct_call():
    cfg = make_config(n="50")
    rows = run_sweep(cfg)
    assert len(rows) == 1
    direct = tv_scheffe(gamma_family([3.0] * 50, 1.0), 8, 6.0)
    assert rows[0].tv == direct.value
    assert rows[0].std_error == direct.std_error == 0.0
    assert rows[0].theta == (0.5,)


def test_sweep_tv_decreases_with_n():
    cfg = make_config(n="200, 400, 800")
    rows = run_sweep(cfg)
    tvs = [r.tv for r in rows]
    assert tvs[0] > tvs[1] > tvs[2]
    assert all(r.error is None for r in rows)


def test_sweep_row_failure_is_contained(caplog):
    # a is outside the gamma support interior, so every row fails but the
    # sweep still returns
    cfg = make_config()
    bad = cfg.__class__(
        family=cfg.family,
        n_values=cfg.n_values,
        k_rule=cfg.k_rule,
        a_values=((-1.0,),),
        method=cfg.method,
        samples=cfg.samples,
        seed=cfg.seed,
        out=cfg.out,
    )
    rows = run_sweep(bad)
    assert all(r.error is not None for r in rows)
    assert all(math.isnan(r.tv) for r in rows)


@pytest.mark.parametrize("method", ["sum_mc", "joint_mc"])
def test_sweep_thread_count_does_not_change_results(method):
    cfg = make_config(method=method, n="40, 60, 90", samples=4000)
    serial = run_sweep(cfg, threads=1)
    threaded = run_sweep(cfg, threads=4)
    assert render_results(serial) == render_results(threaded)


# the families of the sum_mc_normal2d and validate_gamma benchmark sweeps: (family section, a)
SWEEP_FAMILIES = {
    "normal2d": ("kind = normal\nmeans = 0;0, 0.5;0.5\ncov = 1;0.2|0.2;2", "0.6;0.6"),
    "gamma_iid": ("kind = gamma\nscale = 1.0\nshapes = 3.0", "6.0"),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(SWEEP_FAMILIES))
def test_joint_mc_sweep_writes_the_sum_mc_results(name, threads, tmp_path):
    # q/p is rho at the block sum, so method = joint_mc runs sum_mc: the
    # same results.csv but for the method column, the radial 2-D rows too
    family, a = SWEEP_FAMILIES[name]
    texts = {}
    for method in ("sum_mc", "joint_mc"):
        cfg = parse_config(f"[family]\n{family}\n\n[sweep]\nn = 100, 200, 400\nk = sqrt\na = {a}\n"
                           f"method = {method}\nsamples = 20000\nseed = 426\n")
        results, _, _ = emit_report(run_sweep(cfg, threads=threads), None, tmp_path / method)
        texts[method] = open(results, encoding="utf-8").read()
    assert texts["sum_mc"].count(",sum_mc,") == 3
    assert texts["joint_mc"] == texts["sum_mc"].replace(",sum_mc,", ",joint_mc,")


def test_run_row_seed_isolation():
    cfg = make_config(method="sum_mc", samples=4000)
    row_a = run_row(cfg, 0, 50, 8, (6.0,))
    row_b = run_row(cfg, 1, 50, 8, (6.0,))
    assert row_a.tv != row_b.tv  # different substreams
    again = run_row(cfg, 0, 50, 8, (6.0,))
    assert again.tv == row_a.tv


@pytest.mark.parametrize("method", ["scheffe", "sum_mc", "joint_mc"])
def test_a_sweep_row_makes_no_newton_solve(method, monkeypatch):
    # each row conditions through the closed-form tilted law, and its theta
    # is the one that law stands for; a Newton step anywhere would fail it
    def no_newton(*args, **kwargs):
        raise AssertionError("a sweep row ran the Newton solver")

    monkeypatch.setattr(tilting, "solve_tilt", no_newton)
    monkeypatch.setattr(tilting, "_guarded_hessian", no_newton)
    rows = run_sweep(make_config(method=method, n="50, 80", samples=200))
    assert len(rows) == 2
    assert all(r.error is None and r.theta == (0.5,) for r in rows)


def test_scheffe_row_on_vector_members_fails_before_it_conditions(monkeypatch):
    monkeypatch.setattr(NormalFamily, "tilt_to_mean", None)
    cfg = parse_config(
        "[family]\nkind = normal\nmeans = 0;0\ncov = 1;0|0;1\n\n"
        "[sweep]\nn = 50\nk = 5\na = 0.5;0.5\nmethod = scheffe\nsamples = 100\nseed = 1\n"
    )
    (row,) = run_sweep(cfg)
    assert row.error == "Scheffe TV is implemented for d = 1 only"
    assert row.theta == ()


# ---------------------------------------------------------------------------
# scaling fit
# ---------------------------------------------------------------------------

def scheffe_rows(points):
    """SweepRows carrying the given (n, k, tv) triples."""
    return [SweepRow(i, n, k, (6.0,), (0.5,), "scheffe", tv, 0.0, 0.0) for i, (n, k, tv) in enumerate(points)]


def test_fit_exact_linear_law():
    rows = scheffe_rows(
        [(n, math.ceil(math.sqrt(n)), 0.5 * math.ceil(math.sqrt(n)) / n) for n in (100, 200, 400, 900)]
    )
    fit = fit_scaling(rows)
    assert fit.exponent == pytest.approx(1.0, abs=1e-12)
    assert fit.log_constant == pytest.approx(math.log(0.5), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_quadratic_law():
    rows = scheffe_rows([(n, int(math.sqrt(n)), (int(math.sqrt(n)) / n) ** 2) for n in (100, 400, 1600)])
    fit = fit_scaling(rows)
    assert fit.exponent == pytest.approx(2.0, abs=1e-12)


def test_fit_requires_three_usable_rows():
    with pytest.raises(ValueError):
        fit_scaling(scheffe_rows([(100, 10, 0.1), (200, 10, 0.05)]))
    with pytest.raises(ValueError):
        fit_scaling(scheffe_rows([(100, 10, 0.1), (200, 10, 0.0), (400, 10, 0.0)]))


@pytest.mark.parametrize(
    "points",
    [
        [(400, 20, 0.039), (400, 20, 0.038), (400, 20, 0.037)],
        [(100, 10, 0.1), (200, 20, 0.09), (400, 40, 0.08), (800, 80, 0.07)],
    ],
    ids=["one_n", "one_k_over_n"],
)
def test_fit_requires_two_distinct_k_over_n(points):
    # rows that share one k/n fix no slope: numpy's polyfit would warn and
    # return a made-up exponent through one abscissa
    with pytest.raises(ValueError, match="need at least 2 distinct log"):
        fit_scaling(scheffe_rows(points))


def test_fit_skips_failed_sweep_rows():
    rows = [
        SweepRow(0, 100, 10, (6.0,), (0.5,), "scheffe", 0.05, 0.0, 0.0),
        SweepRow(1, 200, 14, (6.0,), (0.5,), "scheffe", 0.035, 0.0, 0.0),
        SweepRow(2, 400, 20, (6.0,), (0.5,), "scheffe", 0.025, 0.0, 0.0),
        SweepRow(3, 800, 29, (6.0,), (), "scheffe", math.nan, math.nan, 0.0, error="boom"),
    ]
    fit = fit_scaling(rows)
    assert len(fit.points) == 3


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

GOLDEN_ROWS = [
    SweepRow(0, 100, 10, (6.0,), (0.5,), "scheffe", 0.0625, 0.0, 0.0),
    SweepRow(1, 200, 15, (6.0,), (0.5,), "scheffe", 0.046875, 0.0, 0.0),
    SweepRow(2, 400, 20, (6.0,), (0.5,), "scheffe", 0.03125, 0.0, 0.0),
]

GOLDEN_RESULTS = (
    "n,k,a,theta,method,tv,std_error,seconds\n"
    "100,10,6,0.5,scheffe,0.0625,0,0\n"
    "200,15,6,0.5,scheffe,0.046875,0,0\n"
    "400,20,6,0.5,scheffe,0.03125,0,0\n"
)


def test_results_golden_bytes(tmp_path):
    fit = fit_scaling(GOLDEN_ROWS)
    results_path, scaling_path, failures_path = emit_report(GOLDEN_ROWS, fit, tmp_path)
    with open(results_path, "rb") as fh:
        assert fh.read() == GOLDEN_RESULTS.encode()
    with open(scaling_path) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "log_k_over_n,log_tv,fit_log_tv"
    assert len(lines) == 4
    assert failures_path is None and not (tmp_path / "failures.csv").exists()


# A 2-D shared-covariance sum_mc row, whose fill draws one Exp(1) radius per
# sample by inversion, G = -log U.  Drawn by numpy's ziggurat exponential
# (standard_exponential, or standard_gamma(1.0), the same bits) the row was
# "...,sum_mc,0.057338331353680008,0.00027977282186101914,0": 0.85 combined
# standard errors from this one, and both within 1.2 of g_2(0.075) = 0.0573464.
RADIAL_ROW = (
    "200,15,0.59999999999999998;0.59999999999999998,0.32142857142857145;0.1428571428571429,"
    "sum_mc,0.057676587575315207,0.00028120994195112293,0\n"
)
# The same row at d = 3, whose fill draws standard_gamma(1.5) radii: the odd-d
# path, whose bytes the inversion at d = 2 does not move.
RADIAL_ROW_3D = (
    "200,15,0.59999999999999998;0.59999999999999998;0.10000000000000001,"
    "0.28125000000000022;0.12187500000000008;0.44374999999999992,"
    "sum_mc,0.071605300651952197,0.00032683079834928996,0\n"
)


def _radial_row(means, cov, a):
    config = parse_config(
        f"""
[family]
kind = normal
means = {means}
cov = {cov}

[sweep]
n = 200
k = 15
a = {a}
method = sum_mc
samples = 30000
seed = 11
"""
    )
    return render_results(run_sweep(config)).split("\n", 1)[1]


def test_radial_sum_mc_row_golden_bytes():
    assert _radial_row("0;0, 0.5;0.5", "1;0.2|0.2;2", "0.6;0.6") == RADIAL_ROW


def test_odd_d_radial_sum_mc_row_golden_bytes():
    assert _radial_row("0;0.1;0.2, 0.5;0.5;-0.5", "1;0.2;0.1|0.2;2;0|0.1;0;0.5", "0.6;0.6;0.1") == RADIAL_ROW_3D


def test_empty_rows_give_header_only(tmp_path):
    results_path, scaling_path, failures_path = emit_report([], None, tmp_path)
    with open(results_path) as fh:
        assert fh.read() == "n,k,a,theta,method,tv,std_error,seconds\n"
    assert scaling_path is None and failures_path is None


def test_unwritable_path_leaves_no_partial_file(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    with pytest.raises(OSError):
        emit_report(GOLDEN_ROWS, None, str(target))
    assert target.read_text() == "a file, not a directory"


def test_failed_rows_excluded_from_results():
    rows = GOLDEN_ROWS + [
        SweepRow(3, 800, 29, (6.0,), (), "scheffe", math.nan, math.nan, 0.0, error="x")
    ]
    text = render_results(rows)
    assert len(text.strip().split("\n")) == 4  # header + 3 rows


FAILED_ROWS = [
    SweepRow(3, 800, 29, (1e16,), (), "scheffe", math.nan, math.nan, 0.0,
             error="tilting equation did not converge (residual 9.7e+15)"),
    SweepRow(5, 50, 2, (0.75, -1.0), (), "sum_mc", math.nan, math.nan, 0.0,
             error='theta, "quoted", outside\nthe domain'),
]


def test_failures_csv_lists_failed_rows(tmp_path):
    rows = GOLDEN_ROWS[:2] + FAILED_ROWS[:1] + GOLDEN_ROWS[2:] + FAILED_ROWS[1:]
    results_path, _, failures_path = emit_report(rows, None, tmp_path)
    with open(results_path, "rb") as fh:
        assert fh.read() == GOLDEN_RESULTS.encode()
    assert failures_path == os.path.join(tmp_path, "failures.csv")
    with open(failures_path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    assert text.startswith("index,n,k,a,error\n3,800,29,10000000000000000,tilting equation did not converge")
    assert list(csv.reader(io.StringIO(text))) == [
        ["index", "n", "k", "a", "error"],
        ["3", "800", "29", "10000000000000000", "tilting equation did not converge (residual 9.7e+15)"],
        ["5", "50", "2", "0.75;-1", 'theta, "quoted", outside\nthe domain'],
    ]


def test_stale_failures_csv_removed_when_no_row_fails(tmp_path):
    emit_report(GOLDEN_ROWS + FAILED_ROWS, None, tmp_path)
    assert (tmp_path / "failures.csv").exists()
    assert emit_report(GOLDEN_ROWS, None, tmp_path)[2] is None
    assert not (tmp_path / "failures.csv").exists()


def test_stale_scaling_csv_removed_when_run_has_no_fit(tmp_path):
    # a fitted run, then one whose every row fails, into the same directory
    emit_report(GOLDEN_ROWS, fit_scaling(GOLDEN_ROWS), tmp_path)
    assert (tmp_path / "scaling.csv").exists()
    results_path, scaling_path, failures_path = emit_report(FAILED_ROWS, None, tmp_path)
    assert scaling_path is None and not (tmp_path / "scaling.csv").exists()
    assert sorted(os.listdir(tmp_path)) == ["failures.csv", "results.csv"]
    with open(results_path) as fh:
        assert fh.read() == "n,k,a,theta,method,tv,std_error,seconds\n"


def test_multidim_vectors_semicolon_joined():
    row = SweepRow(0, 50, 2, (0.75, 0.375), (0.25, 0.5), "sum_mc", 0.01, 0.001, 0.0)
    text = render_results([row])
    assert "0.75;0.375" in text
    assert "0.25;0.5" in text
