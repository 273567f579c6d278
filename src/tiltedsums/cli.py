"""Command-line front end.

Subcommands: tilt, edgeworth, ratio, tv, check, sweep; each takes only
the flags it reads, and tv is row 0 of the one-row sweep (n, k, a).
Results go to standard output or files; logging goes to standard error.
Exit codes: 0 success, 1 any sweep row failed (or a computation raised a
toolkit error, such as non-convergence), 2 configuration or argument error.
"""

import argparse
import logging
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import checks as checks_mod
from .config import ConfigError, _vector, parse_config_file
from .conditional import RatioContext, _solved_theta, normalized_exact_density
from .edgeworth import build_model, edgeworth_density
from .errors import TiltedSumsError
from .sweep import _vec, emit_report, fit_scaling, run_row, run_sweep
from .tilting import solve_tilt

logger = logging.getLogger("tiltedsums")

THREADS_ENV = "TILTEDSUMS_THREADS"


def _vector_arg(text):
    try:
        return _vector(text)
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _seed_arg(text):
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be nonnegative, got {seed}")
    return seed


def _box_arg(text):
    try:
        lo, hi = (float(v) for v in text.split(":"))
        return checks_mod.ThetaBox((lo,), (hi,))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected lo:hi with lo <= hi, got {text!r}") from exc


def _grid_arg(text):
    lo, hi, pts = text.split(":")
    lo, hi, pts = float(lo), float(hi), int(pts)
    if not (math.isfinite(lo) and math.isfinite(hi) and pts >= 1):
        raise argparse.ArgumentTypeError(f"need finite lo, hi and points >= 1, got {text!r}")
    return lo, hi, pts


def _beta_arg(text):
    beta = float(text)
    if not (math.isfinite(beta) and beta > 0.0):
        raise argparse.ArgumentTypeError(f"beta must be finite and positive, got {text!r}")
    return beta


def _default_threads():
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _subcommand(sub, name, help):
    p = sub.add_parser(name, help=help)
    p.add_argument("--config", required=True, help="experiment config file")
    return p


def build_parser():
    parser = argparse.ArgumentParser(prog="tiltedsums",
                                     description="tilted measures, Edgeworth expansions, and "
                                                 "conditional TV distances for independent sums")
    sub = parser.add_subparsers(dest="command", required=True)
    to_file = "output file (default: standard output)"

    p = _subcommand(sub, "tilt", "solve the tilting equation and print the result")
    p.add_argument("--n", type=int, default=None, help="number of members (default: largest sweep n)")
    p.add_argument("--a", type=_vector_arg, default=None, help="target mean, ';' between components")

    p = _subcommand(sub, "edgeworth", "CSV of exact vs Edgeworth normalized sum densities (d = 1)")
    p.add_argument("--out", default=None, help=to_file)
    p.add_argument("--count", type=int, default=64, help="number of summands")
    p.add_argument("--a", type=_vector_arg, default=None, help="tilt the members to this mean")
    p.add_argument("--theta", type=_vector_arg, default=None, help="explicit tilt parameter")
    p.add_argument("--grid", type=_grid_arg, default=(-6.0, 6.0, 241), help="lo:hi:points")

    p = _subcommand(sub, "ratio", "CSV of exact vs Edgeworth density ratio over a t grid (d = 1)")
    p.add_argument("--out", default=None, help=to_file)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=_vector_arg, required=True)
    p.add_argument("--t-grid", type=_grid_arg, default=(-3.0, 3.0, 61),
                   help="grid in normalized t_tilde units, lo:hi:points")

    p = _subcommand(sub, "tv", "one total-variation estimate as a CSV row (row 0 of a one-row sweep)")
    p.add_argument("--seed", type=_seed_arg, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help=to_file)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a", type=_vector_arg, required=True)
    p.add_argument("--method", choices=("scheffe", "sum_mc", "joint_mc"), default="scheffe")
    p.add_argument("--samples", type=int, default=None, help="default: the config's samples")

    p = _subcommand(sub, "check", "run the assumption battery and print the report")
    p.add_argument("--out", default=None, help="CSV report file (default: none)")
    p.add_argument("--n", type=int, default=None, help="number of members (default: largest sweep n)")
    p.add_argument("--beta", type=_beta_arg, default=0.5, help="cf separation threshold")
    p.add_argument("--box", type=_box_arg, default=None,
                   help="theta box lo:hi (d = 1); default derives from the sweep")

    p = _subcommand(sub, "sweep", "run the configured sweep and write results.csv / scaling.csv")
    p.add_argument("--seed", type=_seed_arg, default=None, help="override the config seed")
    p.add_argument("--threads", type=int, default=None,
                   help=f"worker threads (default ${THREADS_ENV} or 1)")
    p.add_argument("--out", default=None, help="output directory (default: the config's out)")
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock seconds per row (voids byte reproducibility)")

    return parser


def _family_for(cfg, n):
    count = n if n is not None else max(cfg.n_values)
    if count < 1:
        raise ConfigError(f"family length must be at least 1, got {count}")
    return cfg.family.build(count)


def _check_vectors(args, family, *names):
    """Reject a vector option whose length is not the member dimension."""
    for name in names:
        v = getattr(args, name)
        if v is not None and len(v) != family.dim:
            raise ConfigError(
                f"--{name} has {len(v)} components, the members are {family.dim}-dimensional"
            )


def _check_args(parser, args):
    """Reject argument combinations the estimators cannot take (exit code 2)."""
    if args.command in ("tv", "ratio"):
        lowest = 0 if args.command == "tv" else 1
        if not lowest <= args.k < args.n:
            parser.error(f"argument --k: {args.k} must satisfy {lowest} <= k < n = {args.n}")


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_tilt(args):
    cfg = parse_config_file(args.config)
    family = _family_for(cfg, args.n)
    _check_vectors(args, family, "a")
    a = args.a if args.a is not None else cfg.a_values[0]
    sol = solve_tilt(family, a)
    sys.stdout.write(
        f"theta={_vec(sol.theta)} residual_norm={sol.residual_norm:.6e} "
        f"iterations={sol.iterations} converged={sol.converged}\n"
    )
    return 0 if sol.converged else 1


def cmd_edgeworth(args):
    cfg = parse_config_file(args.config)
    family = _family_for(cfg, args.count)
    if family.dim != 1:
        raise ConfigError("the edgeworth subcommand handles one-dimensional members")
    _check_vectors(args, family, "a", "theta")
    if args.theta is not None:
        theta = args.theta
    elif args.a is not None:
        theta = _solved_theta(family, args.a)
    else:
        theta = np.zeros(1)
    model1 = build_model(family, theta, order=1)
    model0 = build_model(family, theta, order=0)
    exact = normalized_exact_density(family, theta, model=model1)
    lo, hi, pts = args.grid
    xs = np.linspace(lo, hi, pts)
    exact_vals = exact(xs.reshape(-1, 1))
    o0 = edgeworth_density(model0, xs.reshape(-1, 1))
    o1 = edgeworth_density(model1, xs.reshape(-1, 1))
    lines = ["x,exact,order0,order1,abs_err0,abs_err1"]
    for x, e, a0, a1 in zip(xs, exact_vals, o0, o1):
        lines.append(f"{x:.17g},{e:.17g},{a0:.17g},{a1:.17g},{abs(e - a0):.17g},{abs(e - a1):.17g}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_ratio(args):
    cfg = parse_config_file(args.config)
    family = cfg.family.build(args.n)
    if family.dim != 1:
        raise ConfigError("the ratio subcommand handles one-dimensional members")
    _check_vectors(args, family, "a")
    ctx = RatioContext(family, args.k, args.a)
    lo, hi, pts = args.t_grid
    t_tilde_targets = np.linspace(lo, hi, pts)
    block_sd = 1.0 / float(ctx.block_B[0, 0])
    ts = float(ctx.block_mean[0]) + np.sqrt(ctx.k) * block_sd * t_tilde_targets
    t_tilde, t_sharp = ctx.coords(ts.reshape(-1, 1))
    exact = ctx.exact(ts.reshape(-1, 1))
    edge = ctx.edgeworth(ts.reshape(-1, 1))
    lines = ["t,t_tilde,t_sharp,exact,edgeworth"]
    for t, tt, tsh, ex, ed in zip(ts, t_tilde[:, 0], t_sharp[:, 0], exact, edge):
        lines.append(f"{t:.17g},{tt:.17g},{tsh:.17g},{ex:.17g},{ed:.17g}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_tv(args):
    """Row 0 of the one-row sweep (n, k, a) under --method: the same value,
    standard error and random stream as that sweep's results.csv row."""
    cfg = parse_config_file(args.config).with_overrides(seed=args.seed)
    _check_vectors(args, cfg.family, "a")
    samples = args.samples if args.samples is not None else cfg.samples
    cfg = replace(cfg, method=args.method, samples=samples)
    row = run_row(cfg, 0, args.n, args.k, args.a, timing=True)
    if row.error is not None:
        return 1
    lines = [
        "n,k,a,method,value,std_error,seconds",
        f"{row.n},{row.k},{_vec(row.a)},{row.method},{row.tv:.17g},{row.std_error:.17g},{row.seconds:.3f}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_check(args):
    cfg = parse_config_file(args.config)
    family = _family_for(cfg, args.n)
    box = args.box
    if box is not None:
        if box.dim != family.dim:
            raise ConfigError(f"--box is {box.dim}-dimensional, the members are {family.dim}-dimensional")
        if not (family.in_domain(box.lo) and family.in_domain(box.hi)):
            raise ConfigError(f"--box {box.lo[0]:g}:{box.hi[0]:g} leaves the open domain of the {family.kind} cgf")
    else:
        thetas = []
        for n in cfg.n_values:
            seq = cfg.family.build(n)
            for a in cfg.a_values:
                thetas.append(_solved_theta(seq, np.array(a)))
        box = checks_mod.theta_box_from_solutions(thetas, family)
    report = checks_mod.run_assumption_checks(family, box, beta=args.beta)
    sys.stdout.write(report.to_text() + "\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.csv_rows())
    return 0 if report.all_passed else 1


def cmd_sweep(args):
    cfg = parse_config_file(args.config).with_overrides(seed=args.seed, out=args.out)
    threads = args.threads if args.threads is not None else _default_threads()
    rows = run_sweep(cfg, threads=threads, timing=args.timing)
    fit = None
    try:
        fit = fit_scaling(rows)
    except ValueError as exc:
        logger.warning("no scaling fit: %s", exc)
    for path in emit_report(rows, fit, cfg.out):
        if path:
            sys.stdout.write(f"wrote {path}\n")
    if fit is not None:
        sys.stdout.write(
            f"scaling exponent={fit.exponent:.4f} log_constant={fit.log_constant:.4f} "
            f"r_squared={fit.r_squared:.5f}\n"
        )
    return 1 if any(r.error is not None for r in rows) else 0


_COMMANDS = {
    "tilt": cmd_tilt,
    "edgeworth": cmd_edgeworth,
    "ratio": cmd_ratio,
    "tv": cmd_tv,
    "check": cmd_check,
    "sweep": cmd_sweep,
}


def main(argv=None):
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_args(parser, args)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        logger.error("config error: %s", exc)
        return 2
    except TiltedSumsError as exc:
        logger.error("%s", exc)
        return 1


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
