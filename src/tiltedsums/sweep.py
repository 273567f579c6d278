"""Sweep orchestration: run TV estimates over (n, k, a) grids, fit the
scaling law, and emit CSV reports.

Reproducibility contract: each row derives its generator from the config
seed and its own row index (SeedSequence spawn keys), rows are collected in
declaration order, and the seconds column defaults to 0 so that two runs
with the same config and seed write byte-identical files regardless of the
worker-thread count.  Wall-clock timings always go to the log; pass
timing=True to record them in the rows instead (which voids byte
reproducibility).
"""

import csv
import io
import logging
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .tv import tv_scheffe, tv_sum_mc

logger = logging.getLogger(__name__)


@dataclass
class SweepRow:
    index: int
    n: int
    k: int
    a: tuple
    theta: tuple
    method: str
    tv: float
    std_error: float
    seconds: float
    error: str = None


@dataclass(frozen=True)
class ScalingFit:
    exponent: float
    log_constant: float
    r_squared: float
    points: tuple


def _row_rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def run_row(config, index, n, k, a, timing=False):
    start = time.perf_counter()
    try:
        family = config.family.build(n)
        if config.method == "scheffe":
            est = tv_scheffe(family, k, a)
        else:  # joint_mc is sum_mc: q/p is rho at the block sum (tv module docstring)
            est = tv_sum_mc(family, k, a, samples=config.samples, rng=_row_rng(config.seed, index))
        elapsed = time.perf_counter() - start
        logger.info("row %d: n=%d k=%d tv=%.6g (%.2fs)", index, n, k, est.value, elapsed)
        return SweepRow(
            index, n, k, tuple(a), est.theta, config.method,
            est.value, est.std_error, elapsed if timing else 0.0,
        )
    except Exception as exc:
        elapsed = time.perf_counter() - start
        logger.error("row %d (n=%d, k=%d, a=%s) failed: %s", index, n, k, a, exc)
        return SweepRow(
            index, n, k, tuple(a), (), config.method,
            math.nan, math.nan, elapsed if timing else 0.0, error=str(exc),
        )


def run_sweep(config, threads=1, timing=False):
    """All rows of the config, in declaration order; failed rows carry their
    error message instead of aborting the sweep."""
    tasks = list(enumerate(config.rows()))
    if threads <= 1:
        return [run_row(config, i, n, k, a, timing=timing) for i, (n, k, a) in tasks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(run_row, config, i, n, k, a, timing=timing) for i, (n, k, a) in tasks]
        return [f.result() for f in futures]


def fit_scaling(rows):
    """Ordinary least squares of log tv against log(k/n) over the SweepRows
    without an error and with a finite positive tv; ValueError unless there
    are 3 such rows at 2 distinct log(k/n) at least, which a slope needs."""
    points = [
        (row.n, row.k, row.tv) for row in rows if row.error is None and row.tv > 0.0 and math.isfinite(row.tv)
    ]
    if len(points) < 3:
        raise ValueError(f"need at least 3 rows with positive tv, got {len(points)}")
    x = np.array([math.log(k / n) for n, k, _ in points])
    if x.min() == x.max():  # np.unique would import numpy.ma, 20 ms on first use
        raise ValueError(f"need at least 2 distinct log(k/n), got {len(points)} rows at log(k/n) = {x[0]:.6g}")
    y = np.array([math.log(tv) for _, _, tv in points])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    sst = float(np.sum((y - y.mean()) ** 2))
    ssr = float(np.sum((y - fitted) ** 2))
    r_squared = 1.0 if sst == 0.0 else 1.0 - ssr / sst
    return ScalingFit(float(slope), float(intercept), r_squared, tuple(points))


def _g17(x):
    return f"{float(x):.17g}"


def _vec(v):
    return ";".join(_g17(c) for c in v)


RESULTS_HEADER = "n,k,a,theta,method,tv,std_error,seconds"
SCALING_HEADER = "log_k_over_n,log_tv,fit_log_tv"


def render_results(rows):
    lines = [RESULTS_HEADER]
    for row in rows:
        if row.error is not None:
            continue
        lines.append(
            f"{row.n},{row.k},{_vec(row.a)},{_vec(row.theta)},{row.method},"
            f"{_g17(row.tv)},{_g17(row.std_error)},{_g17(row.seconds)}"
        )
    return "\n".join(lines) + "\n"


def render_scaling(fit):
    lines = [SCALING_HEADER]
    for n, k, tv in fit.points:
        x = math.log(k / n)
        lines.append(f"{_g17(x)},{_g17(math.log(tv))},{_g17(fit.exponent * x + fit.log_constant)}")
    return "\n".join(lines) + "\n"


def render_failures(rows):
    """failures.csv text (index,n,k,a,error) for the failed rows, or None
    when every row succeeded."""
    failed = [(r.index, r.n, r.k, _vec(r.a), r.error) for r in rows if r.error is not None]
    if not failed:
        return None
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([("index", "n", "k", "a", "error"), *failed])
    return buf.getvalue()


def emit_report(rows, fit, out_dir):
    """Write results.csv, scaling.csv when a fit is given and failures.csv
    when a row failed, removing any of the three an earlier run left that
    this run does not write; returns the three paths, None for a file not
    written.  The content is rendered fully before any file is opened, so a
    failed write never leaves a partial file behind."""
    texts = {
        "results.csv": render_results(rows),
        "scaling.csv": render_scaling(fit) if fit is not None else None,
        "failures.csv": render_failures(rows),
    }
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name) for name in texts}
    for name, text in texts.items():
        if text is not None:
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(text)
        elif os.path.exists(paths[name]):
            os.remove(paths[name])
    return tuple(paths[name] if text is not None else None for name, text in texts.items())
