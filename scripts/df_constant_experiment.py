#!/usr/bin/env python3
"""Convergence of TV * n to the two-Gaussian variation constant.

For i.i.d. standard normals conditioned through their sum with k = 1, the
block TV equals the L1 distance between N(a, 1 - 1/n) and N(a, 1), whose
leading coefficient is gamma_df = E|1 - Z^2| / 2 = 2 phi(1).  The table
shows the exact (Scheffe) TV, TV * n, and the relative gap to the constant.
"""

import argparse

import numpy as np

from tiltedsums import df_gamma_constant, normal_family, tv_scheffe


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[250, 500, 1000, 2000, 4000])
    parser.add_argument("--a", type=float, default=0.5)
    args = parser.parse_args()

    gamma_df = df_gamma_constant()
    print(f"gamma_df = {gamma_df:.12f}")
    print(f"{'n':>6} {'tv':>14} {'tv*n':>12} {'rel gap':>10}")
    for n in args.n:
        members = normal_family([np.zeros(1)] * n, [np.eye(1)])
        est = tv_scheffe(members, 1, args.a)
        gap = abs(est.value * n - gamma_df) / gamma_df
        print(f"{n:>6} {est.value:>14.8e} {est.value * n:>12.8f} {gap:>10.2e}")


if __name__ == "__main__":
    main()
