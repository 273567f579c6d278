#!/usr/bin/env python3
"""Order-1 Edgeworth error versus the exact gamma-sum density.

For i.i.d. Gamma(3, 1) summands the exact normalized sum density is a
rescaled Gamma(3m, 1), so the weighted sup error (1 + x^4) |exact - approx|
can be measured directly.  At order 1 it should halve per doubling of m;
at order 0 it only shrinks like 1/sqrt(m).
"""

import argparse

from tiltedsums import build_model, default_grid, gamma_family, normalized_exact_density, weighted_sup_error


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, nargs="+", default=[64, 128, 256, 512, 1024])
    parser.add_argument("--shape", type=float, default=3.0)
    args = parser.parse_args()

    grid = default_grid(1)
    prev = {}
    print(f"{'m':>6} {'order0 err':>12} {'order1 err':>12} {'ratio0':>8} {'ratio1':>8}")
    for m in args.m:
        members = gamma_family([args.shape] * m, 1.0)
        errs = {}
        for order in (0, 1):
            model = build_model(members, order=order)
            exact = normalized_exact_density(members, model=model)
            errs[order] = weighted_sup_error(model, exact, grid)
        r0 = prev[0] / errs[0] if prev else float("nan")
        r1 = prev[1] / errs[1] if prev else float("nan")
        print(f"{m:>6} {errs[0]:>12.4e} {errs[1]:>12.4e} {r0:>8.3f} {r1:>8.3f}")
        prev = errs


if __name__ == "__main__":
    main()
