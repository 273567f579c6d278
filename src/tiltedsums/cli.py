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
import sys
from dataclasses import replace

import numpy as np

from .config import ConfigError, _vector, parse_config_file
from .errors import TiltedSumsError
from .sweep import _vec, emit_report, fit_scaling, run_row, run_sweep

logger = logging.getLogger("tiltedsums")


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
    from .checks import ThetaBox

    try:
        lo, hi = (float(v) for v in text.split(":"))
        return ThetaBox((lo,), (hi,))
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
    if args.command in ("tv", "ratio") and not 1 <= args.k < args.n:
        parser.error(f"argument --k: {args.k} must satisfy 1 <= k < n = {args.n}")
    if args.command == "sweep" and args.threads < 1:
        parser.error(f"argument --threads: {args.threads} must be at least 1")


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_tilt(args):
    from .tilting import solve_tilt

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


# A Gamma target near the float range (a ~ 1e300) tilts to a scale whose
# square overflows the covariance to inf, which the normalization reports as
# singular (exit 1); that is the verdict, not a fault to warn of.
@np.errstate(over="ignore")
def cmd_edgeworth(args):
    from .conditional import normalized_exact_density
    from .edgeworth import build_model, edgeworth_density

    cfg = parse_config_file(args.config)
    family = _family_for(cfg, args.count)
    if family.dim != 1:
        raise ConfigError("the edgeworth subcommand handles one-dimensional members")
    _check_vectors(args, family, "a", "theta")
    if args.theta is not None:
        tilted = family.tilt(args.theta)
    elif args.a is not None:
        tilted, _ = family.tilt_to_mean(args.a)
    else:
        tilted = family
    model1 = build_model(tilted, order=1)
    model0 = build_model(tilted, order=0)
    exact = normalized_exact_density(tilted, model=model1)
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


@np.errstate(over="ignore")
def cmd_ratio(args):
    from .conditional import RatioContext

    cfg = parse_config_file(args.config)
    family = cfg.family.build(args.n)
    if family.dim != 1:
        raise ConfigError("the ratio subcommand handles one-dimensional members")
    _check_vectors(args, family, "a")
    ctx = RatioContext(family, args.k, args.a)
    lo, hi, pts = args.t_grid
    t_tilde_targets = np.linspace(lo, hi, pts)
    block_sd = 1.0 / float(ctx.block_model.B[0, 0])
    ts = float(ctx.block_model.mean_sum[0]) + np.sqrt(ctx.k) * block_sd * t_tilde_targets
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
    cfg = parse_config_file(args.config)
    _check_vectors(args, cfg.family, "a")
    samples = cfg.samples if args.samples is None else args.samples
    cfg = replace(cfg, method=args.method, samples=samples, seed=cfg.seed if args.seed is None else args.seed)
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
    from . import checks as checks_mod

    cfg = parse_config_file(args.config)
    family = _family_for(cfg, args.n)
    box = args.box
    if box is not None:
        if box.dim != family.dim:
            raise ConfigError(f"--box is {box.dim}-dimensional, the members are {family.dim}-dimensional")
        if not (family.in_domain(box.lo) and family.in_domain(box.hi)):
            raise ConfigError(f"--box {box.lo[0]:g}:{box.hi[0]:g} leaves the open domain of the {family.kind} cgf")
    else:
        thetas = [cfg.family.build(n).tilt_to_mean(a)[1] for n in cfg.n_values for a in cfg.a_values]
        box = checks_mod.theta_box_from_solutions(thetas, family)
    report = checks_mod.run_assumption_checks(family, box, beta=args.beta)
    sys.stdout.write(report.to_text() + "\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.csv_rows())
    return 0 if report.all_passed else 1


def cmd_sweep(args):
    cfg = parse_config_file(args.config)
    cfg = replace(cfg, seed=cfg.seed if args.seed is None else args.seed,
                  out=cfg.out if args.out is None else args.out)
    rows = run_sweep(cfg, threads=args.threads, timing=args.timing)
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


_TO_FILE = "output file (default: standard output)"
_N_DEFAULT = "number of members (default: largest sweep n)"

# name -> (handler, help, flags after --config as (flag, add_argument keywords))
_SUBCOMMANDS = {
    "tilt": (cmd_tilt, "solve the tilting equation and print the result", (
        ("--n", dict(type=int, default=None, help=_N_DEFAULT)),
        ("--a", dict(type=_vector_arg, default=None, help="target mean, ';' between components")),
    )),
    "edgeworth": (cmd_edgeworth, "CSV of exact vs Edgeworth normalized sum densities (d = 1)", (
        ("--out", dict(default=None, help=_TO_FILE)),
        ("--count", dict(type=int, default=64, help="number of summands")),
        ("--a", dict(type=_vector_arg, default=None, help="tilt the members to this mean")),
        ("--theta", dict(type=_vector_arg, default=None, help="explicit tilt parameter")),
        ("--grid", dict(type=_grid_arg, default=(-6.0, 6.0, 241), help="lo:hi:points")),
    )),
    "ratio": (cmd_ratio, "CSV of exact vs Edgeworth density ratio over a t grid (d = 1)", (
        ("--out", dict(default=None, help=_TO_FILE)),
        ("--n", dict(type=int, required=True)),
        ("--k", dict(type=int, required=True)),
        ("--a", dict(type=_vector_arg, required=True)),
        ("--t-grid", dict(type=_grid_arg, default=(-3.0, 3.0, 61),
                          help="grid in normalized t_tilde units, lo:hi:points")),
    )),
    "tv": (cmd_tv, "one total-variation estimate as a CSV row (row 0 of a one-row sweep)", (
        ("--seed", dict(type=_seed_arg, default=None, help="override the config seed")),
        ("--out", dict(default=None, help=_TO_FILE)),
        ("--n", dict(type=int, required=True)),
        ("--k", dict(type=int, required=True)),
        ("--a", dict(type=_vector_arg, required=True)),
        ("--method", dict(choices=("scheffe", "sum_mc", "joint_mc"), default="scheffe")),
        ("--samples", dict(type=int, default=None, help="default: the config's samples")),
    )),
    "check": (cmd_check, "run the assumption battery and print the report", (
        ("--out", dict(default=None, help="CSV report file (default: none)")),
        ("--n", dict(type=int, default=None, help=_N_DEFAULT)),
        ("--beta", dict(type=_beta_arg, default=0.5, help="cf separation threshold")),
        ("--box", dict(type=_box_arg, default=None,
                       help="theta box lo:hi (d = 1); default derives from the sweep")),
    )),
    "sweep": (cmd_sweep, "run the configured sweep and write results.csv / scaling.csv", (
        ("--seed", dict(type=_seed_arg, default=None, help="override the config seed")),
        ("--threads", dict(type=int, default=1, help="worker threads")),
        ("--out", dict(default=None, help="output directory (default: the config's out)")),
        ("--timing", dict(action="store_true",
                          help="record wall-clock seconds per row (voids byte reproducibility)")),
    )),
}


def build_parser(command=None):
    """The tiltedsums parser.  When command names a subcommand, only that
    subcommand's parser is built, which is all that parsing an argv starting
    with it reads; otherwise all six are.  Every add_argument builds a help
    formatter, so all six cost a few milliseconds, more than a Scheffe row."""
    names = [command] if command in _SUBCOMMANDS else list(_SUBCOMMANDS)
    parser = argparse.ArgumentParser(prog="tiltedsums",
                                     description="tilted measures, Edgeworth expansions, and "
                                                 "conditional TV distances for independent sums")
    # The usage line lists every subcommand however many are built.  A
    # metavar would also rename the positional in argparse's own errors
    # ("argument command: invalid choice"), which only the full parser raises.
    metavar = "{" + ",".join(_SUBCOMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        _, summary, flags = _SUBCOMMANDS[name]
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="experiment config file")
        for flag, options in flags:
            p.add_argument(flag, **options)
    return parser


def main(argv=None):
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    _check_args(parser, args)
    try:
        return _SUBCOMMANDS[args.command][0](args)
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
