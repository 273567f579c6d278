#!/usr/bin/env python3
"""Scaling-law experiment: TV distance of the conditioned block versus k/n.

Runs the i.i.d. and alternating-shape gamma sweeps, fits log TV against
log(k/n), and prints a table plus the fitted exponents.  Writes the usual
results.csv / scaling.csv pair per sweep under --out.
"""

import argparse
from dataclasses import replace
from pathlib import Path

from tiltedsums import emit_report, fit_scaling, parse_config_file, run_sweep

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory root")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    for name in ("gamma_iid_sweep.cfg", "gamma_alternating_sweep.cfg"):
        cfg = parse_config_file(CONFIG_DIR / name)
        label = name.replace("_sweep.cfg", "")
        cfg = replace(cfg, out=str(Path(args.out) / label))
        rows = run_sweep(cfg, threads=args.threads)
        fit = fit_scaling(rows)
        emit_report(rows, fit, cfg.out)
        print(f"== {label} ==")
        print(f"{'n':>6} {'k':>4} {'k/n':>8} {'tv':>12}")
        for n, k, tv in fit.points:
            print(f"{n:>6} {k:>4} {k / n:>8.4f} {tv:>12.6g}")
        print(f"exponent={fit.exponent:.4f} r_squared={fit.r_squared:.5f}\n")


if __name__ == "__main__":
    main()
