#!/usr/bin/env python3
"""Lower-deviation convergence experiment: exact local probabilities
against the asymptote over the default grid n = 2^7..2^14 with
k in {floor(sqrt(n)), floor(n^(2/3)), floor(n/10)}.

Usage: python scripts/run_convergence.py [--model spec.json] [--nmax-pow 14]
"""

import argparse
import math

from gwimm import exact_pmf_Y, extinction_iterates, make_model
from gwimm.asymptotics import build_report_row, main2_eval, mellein_local
from gwimm.cli import load_model_spec
from gwimm.pgf import full_law_truncation


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--model", default=None)
    ap.add_argument("--nmax-pow", type=int, default=11,
                    help="largest n is 2**this; 14 reproduces the full grid "
                         "(minutes of runtime, the truncation grows with n)")
    args = ap.parse_args()
    if args.model:
        model = load_model_spec(args.model)
    else:
        model = make_model("binary", {"family": "bernoulli01", "params": {"q1": 0.5}})
    print(f"model: {model.describe()}  B={model.B}  gamma={model.gamma}")

    grid = [2**p for p in range(7, args.nmax_pow + 1)]
    cache = extinction_iterates(model, grid[-1])
    # truncation sized so even the deepest row keeps its trust label honest
    K = full_law_truncation(model, grid[-1], 1e-10)

    print(f"{'n':>6} {'k':>6} {'rule':>8} {'exact':>13} {'asymptote':>13} "
          f"{'ratio':>8} {'mellein':>8}")
    for n in grid:
        pmf = exact_pmf_Y(model, n, K, deficit_ceiling=2.0)
        for rule, k in [("sqrt", math.isqrt(n)),
                        ("n^2/3", int(n ** (2.0 / 3.0))),
                        ("n/10", n // 10)]:
            k = max(k, 1)
            exact = pmf[k]
            asym = main2_eval(model, cache, n, k)
            row = build_report_row(n, k, exact, asym, "main2", pmf.deficit)
            mell = exact / mellein_local(model, n, k)
            ratio = "untrusted" if row.untrusted else f"{row.ratio:8.4f}"
            print(f"{n:>6} {k:>6} {rule:>8} {exact:13.6e} {asym:13.6e} "
                  f"{ratio} {mell:8.4f}")


if __name__ == "__main__":
    main()
