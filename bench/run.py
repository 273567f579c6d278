"""Benchmark for tiltedsums: CLI sweeps end to end, and per layer when traced.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each repetition writes the workload's config, then runs its CLI calls
through tiltedsums.cli.main in a fresh interpreter (bench/child.py) with
the program imported from src/.  Repetitions follow one another until
--seconds is spent (at least three), and every one is checked against the
gates in workloads.py; a failed gate, a failed row or a nonzero exit code
counts as a failed operation.

--trace 0 reports the end-to-end metrics as medians over repetitions.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics (medians over traced repetitions) together with
trace.overhead_s, the traced minus the untraced median wall time.

A table with every metric, its unit and sample count, the host, the seed
and the generated config goes to standard output, followed by one JSON
line {"correct", "attempted", "failed", "metrics"}.  A record of the run is
written to .bench_out/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, gate

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"

# A run must end within 180 s; a child gets what is left of that.
RUN_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    "config.parse_s": "s",
    "families.build_s": "s",
    "families.members": "count",
    "tilting.solve_s": "s",
    "tilting.solves": "count",
    "tilting.newton_iters": "count",
    "edgeworth.build_model_s": "s",
    "edgeworth.models": "count",
    "conditional.ratio_context_s": "s",
    "conditional.log_ratio_s": "s",
    "conditional.log_ratio_calls": "count",
    "conditional.log_ratio_points": "count",
    "tv.scheffe_core_s": "s",
    "tv.sum_mc_core_s": "s",
    "tv.joint_mc_core_s": "s",
    "tv.samples": "count",
    "tv.mc_rel_se": "ratio",
    "checks.report_s": "s",
    "checks.partial_l1_calls": "count",
    "sweep.rows": "count",
    "sweep.rows_failed": "count",
    "sweep.fit_s": "s",
    "sweep.emit_s": "s",
    "sweep.bytes_written": "B",
    "sweep.thread_overlap": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed gate)."""


def host_info():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def oracle_thetas(workload, size, seed):
    """Closed-form tilt (tiltedsums.tilting.tilt_oracle) for every sweep n."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy as np
    from tiltedsums.config import parse_config
    from tiltedsums.tilting import tilt_oracle

    cfg = parse_config(workload.config_text(seed, "unused", size))
    a = np.array(cfg.a_values[0])
    return {n: [float(v) for v in tilt_oracle(cfg.family.build(n), a)] for n in cfg.n_values}


def run_rep(workload, size, seed, run_id, traced, threads, oracle, timeout):
    rep = WORK / f"{workload.name}-{run_id}"
    rep_rel = rep.relative_to(ROOT)
    shutil.rmtree(rep, ignore_errors=True)
    rep.mkdir(parents=True)
    try:
        config_text = workload.config_text(seed, str(rep_rel / "out"), size)
        (rep / "config.cfg").write_text(config_text, encoding="utf-8")
        spec = {
            "config": str(rep_rel / "config.cfg"),
            "calls": workload.calls(str(rep_rel / "config.cfg"), size, threads),
            "run_id": run_id,
            "trace": traced,
            "result": str(rep / "result.json"),
        }
        (rep / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        with open(rep / "stderr.log", "w", encoding="utf-8") as err:
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "child.py"), str(rep / "spec.json")],
                    cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                    stderr=err, timeout=timeout,
                )
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{workload.name}: repetition exceeded {timeout:.0f} s") from exc
        if proc.returncode != 0:
            tail = (rep / "stderr.log").read_text(encoding="utf-8")[-2000:]
            raise BenchError(f"{workload.name}: child exited with {proc.returncode}\n{tail}")
        result = json.loads((rep / "result.json").read_text(encoding="utf-8"))
        if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"tiltedsums was imported from {result['module']}, not from {SRC}")
        results_csv = rep / "out" / "results.csv"
        results_text = results_csv.read_text(encoding="utf-8") if results_csv.exists() else ""
        outcomes = [(c["argv"], c["code"], c["stdout"]) for c in result["calls"]]
        attempted, failures, mc_rel_se = gate(workload, size, results_text, outcomes, oracle)
    finally:
        shutil.rmtree(rep, ignore_errors=True)
    result.update(
        traced=traced, config_text=config_text, attempted=attempted,
        failures=failures, mc_rel_se=mc_rel_se,
    )
    return result


def run(name, seed, seconds, trace, size="full", threads=None, min_reps=3):
    """Run one workload; returns the summary dict that main() prints."""
    if not (SRC / "tiltedsums" / "cli.py").is_file():
        raise BenchError(f"no tiltedsums sources under {SRC}")
    workload = WORKLOADS[name]
    oracle = oracle_thetas(workload, size, seed)
    min_reps = max(min_reps, 2) if trace else min_reps
    reps = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and elapsed + elapsed / len(reps) > seconds:
            break
        traced = bool(trace and len(reps) % 2 == 1)
        reps.append(run_rep(workload, size, seed, len(reps), traced, threads, oracle,
                            max(RUN_LIMIT_S - elapsed, 10.0)))

    plain = [r for r in reps if not r["traced"]]
    samples = {m: [r[m] for r in plain] for m in END_TO_END}
    units = END_TO_END
    if trace:
        traced = [r for r in reps if r["traced"]]
        samples = {m: [r["layers"].get(m, 0) for r in traced] for m in PER_LAYER}
        samples["cli.import_s"] = [r["import_s"] for r in traced]
        samples["tv.mc_rel_se"] = [r["mc_rel_se"] for r in traced]
        overhead = statistics.median(r["wall_s"] for r in traced) - statistics.median(
            r["wall_s"] for r in plain)
        samples["trace.overhead_s"] = [overhead]
        units = PER_LAYER
    failures = [f for r in reps for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reps)
    summary = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "size": size,
        "threads": workload.threads if threads is None else threads,
        "host": host_info(),
        "config_text": reps[0]["config_text"],
        "reps": len(reps),
        "attempted": attempted,
        "failures": failures,
        "metrics": {m: {"value": statistics.median(samples[m]), "unit": units[m],
                        "samples": len(samples[m])} for m in units},
        "raw": samples,
    }
    if trace:
        summary["spans"] = [s for r in reps if r["traced"] for s in r["spans"]]
    return summary


def render(summary):
    """Human-readable table for one workload."""
    host = " ".join(f"{k}={v}" for k, v in summary["host"].items())
    lines = [
        f"# workload {summary['workload']}  seed {summary['seed']}  trace {summary['trace']}  "
        f"threads {summary['threads']}  repetitions {summary['reps']}",
        f"# host {host}",
        "# config:",
        *(f"#   {ln}" for ln in summary["config_text"].splitlines()),
        f"{'metric':<30} {'value':>16}  {'unit':<6} samples",
    ]
    for name, m in summary["metrics"].items():
        lines.append(f"{name:<30} {m['value']:>16.6g}  {m['unit']:<6} {m['samples']}")
    failed = len(summary["failures"])
    lines.append(f"{'failed_frac':<30} {failed / summary['attempted']:>16.6g}  {'ratio':<6} "
                 f"{summary['attempted']}")
    lines.extend(f"# FAILED {f}" for f in summary["failures"])
    return "\n".join(lines)


def write_record(summary):
    WORK.mkdir(exist_ok=True)
    path = WORK / (f"{summary['workload']}-seed{summary['seed']}-trace{summary['trace']}"
                   f"-threads{summary['threads']}.json")
    path.write_text(json.dumps(summary), encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help="override the workload's --threads (for 1 vs 2 thread comparisons)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    try:
        for name in names:
            summary = run(name, args.seed, args.seconds, args.trace, threads=args.threads)
            write_record(summary)
            print(render(summary), flush=True)
            summaries.append(summary)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    prefix = len(summaries) > 1
    metrics = {
        (f"{s['workload']}.{m}" if prefix else m): {"value": v["value"], "unit": v["unit"]}
        for s in summaries for m, v in s["metrics"].items()
    }
    failed = sum(len(s["failures"]) for s in summaries)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
