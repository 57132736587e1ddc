#!/usr/bin/env python3
"""Slowly-varying correction scan: L(n) = 1/(n^gamma F(n)) across decades
for the three tail regimes (both extra moments finite / heavy immigration /
heavy offspring), plus the open both-heavy combination.

Usage: python scripts/run_L_scan.py [--decades 3 5] [--beta 1.5]
"""

import argparse

import numpy as np

from gwimm import extinction_iterates, make_model


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--decades", type=int, nargs=2, default=(3, 5),
                    help="lowest and highest decade of n")
    ap.add_argument("--beta", type=float, default=1.5)
    args = ap.parse_args()
    lo_d, hi_d = args.decades
    grid = [10**d for d in range(lo_d, hi_d + 1)]

    bern = {"family": "bernoulli01", "params": {"q1": 0.5}}
    heavy_off = {"family": "log-heavy-offspring", "params": {"beta": args.beta}}
    heavy_imm = {"family": "log-heavy-immigration", "params": {"beta": args.beta}}
    models = [
        ("light (geometric+bernoulli)", make_model("geometric-critical", bern)),
        ("light (binary+bernoulli)", make_model("binary", bern)),
        ("heavy immigration", make_model("binary", heavy_imm)),
        ("heavy offspring", make_model(heavy_off, bern)),
        ("both heavy (open regime)", make_model(heavy_off, heavy_imm)),
    ]
    for name, model in models:
        L = np.exp(extinction_iterates(model, grid[-1]).logL_at(grid))
        vals = " ".join(f"L({n:g})={value:.6g}" for n, value in zip(grid, L))
        ratio = L[-1] / L[0]
        flags = (model.xlogx_offspring_finite, model.xlogx_immigration_finite)
        print(f"{name:30s} gamma={model.gamma:.4f} xlogx={flags} {vals} "
              f"ratio={ratio:.4f}")


if __name__ == "__main__":
    main()
