"""Command-line front end: model ingestion, experiment orchestration and
report emission.

Subcommands
    exact      exact truncated pmf of Y_n            -> k, prob, cumulative, deficit
    theta      law of the first surviving cohort     -> l, prob, survival (+ atom row)
    scan-L     F(n), L(n) and log-slope over a grid  -> n, F, L, dlogL_dlogn, trend
    simulate   empirical pmf from forward simulation
    estimate   naive / stratified lower-tail estimates
    verify     named verification checks             -> name, value, threshold, verdict

Exit codes: 0 success/all-pass, 1 check failure, 2 usage or parse error,
3 numeric guard (truncation deficit, overflow guard, check infrastructure).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache

import numpy as np

from . import montecarlo as mc
from .models import Model, make_model
from .pgf import DeficitError, exact_pmf_Y, extinction_iterates, full_law_truncation
from .reporting import serialize
from .theta import theta_pmf, theta_survival
from .verify import run_checks


class UsageError(ValueError):
    """Bad flags or unparseable model spec (exit code 2)."""


def load_model_spec(path: str) -> Model:
    """Parse the declarative model file: JSON with keys `offspring` and
    `immigration`, each {family: ..., params: {...}} or
    {family: explicit, probs: [...]}."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read model spec: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"model spec is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise UsageError("model spec must be a JSON object")
    for key in ("offspring", "immigration"):
        if key not in doc:
            raise UsageError(f"model spec missing key '{key}'")
    try:
        return make_model(doc["offspring"], doc["immigration"])
    except ValueError as exc:
        raise UsageError(f"model spec: {exc}") from None


def _check_n(args):
    if args.n < 0:
        raise UsageError("--n must be >= 0")
    if getattr(args, "initial", 0) < 0:
        raise UsageError("--initial must be >= 0")


def cmd_exact(args, model: Model):
    _check_n(args)
    n = args.n
    if n == 0:
        return [{"k": args.initial, "prob": 1.0, "cumulative": 1.0, "deficit": 0.0}]
    K = args.trunc if args.trunc is not None else full_law_truncation(model, n, 1e-8, args.initial)
    pmf = exact_pmf_Y(model, n, K, args.initial)
    cum = np.cumsum(pmf.probs)
    return [
        {"k": k, "prob": float(pmf.probs[k]), "cumulative": float(cum[k]),
         "deficit": pmf.deficit}
        for k in range(K + 1)
    ]


def cmd_theta(args, model: Model):
    n = args.n
    if n < 1:
        raise UsageError("theta needs --n >= 1")
    cache = extinction_iterates(model, n)
    law = theta_pmf(cache, n)
    ls = np.arange(1, n + 1)
    survival = theta_survival(cache, n, ls)
    rows = [{"l": l, "prob": p, "survival": s}
            for l, p, s in zip(ls.tolist(), law.pmf[1:].tolist(), survival.tolist())]
    rows.append({"l": "atom", "prob": law.atom_none, "survival": law.atom_none})
    return rows


def cmd_scan_L(args, model: Model):
    try:
        grid = [int(x) for x in args.grid.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"bad --grid value {args.grid!r}") from None
    if not grid:
        raise UsageError("--grid must contain at least one n")
    if any(n < 1 for n in grid):
        raise UsageError("scan-L grid entries must be >= 1")
    grid = sorted(set(grid))
    cache = extinction_iterates(model, max(grid))
    logF = cache.logF_at(grid)
    if np.isneginf(logF).any():
        n = grid[int(np.argmax(np.isneginf(logF)))]
        raise UsageError(f"P(Y_n = 0) = 0 at n={n}, so L(n) = 1/(n**gamma P(Y_n = 0)) "
                         "is undefined; scan-L needs an immigration law with mass at 0")
    F = np.exp(logF)
    logL = cache.logL_at(grid)
    L = np.exp(logL)
    two_decade = L[-1] / L[0]
    if two_decade > 1.02:
        trend = "increasing"
    elif two_decade < 0.98:
        trend = "decreasing"
    else:
        trend = "flat"
    rows = []
    for i, n in enumerate(grid):
        slope = ""
        if i > 0:
            slope = float((logL[i] - logL[i - 1])
                          / (math.log(n) - math.log(grid[i - 1])))
        rows.append({
            "n": n,
            "F": float(F[i]),
            "L": float(L[i]),
            "dlogL_dlogn": slope,
            "trend": trend,
        })
    return rows


def cmd_simulate(args, model: Model):
    _check_n(args)
    sim = mc.SimConfig(samples=args.samples, seed=args.seed, streams=args.streams)
    draws = mc.simulate_Y_streams(model, args.n, args.initial, sim)
    counts = np.bincount(np.concatenate([values for values, _ in draws]))
    return [
        {"n": args.n, "samples": sim.samples, "seed": sim.seed,
         "streams": sim.streams, "value": v, "count": int(c),
         "freq": float(c / sim.samples)}
        for v, c in enumerate(counts) if c > 0
    ]


def cmd_estimate(args, model: Model):
    _check_n(args)
    if args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    sim = mc.SimConfig(samples=args.samples, seed=args.seed, streams=args.streams)
    methods = ["naive", "stratified"] if args.method == "both" else [args.method]
    # checked before any method samples, so no pass runs only to be discarded
    if args.k < 0:
        raise UsageError("--k must be >= 0")
    if args.k < 1 and "stratified" in methods:
        raise UsageError("the stratified estimator needs --k >= 1")
    if args.n < 1 and "stratified" in methods:
        raise UsageError("the stratified estimator needs --n >= 1")
    if not args.epsilon > 0 and "stratified" in methods:
        raise UsageError(f"the stratified estimator needs --epsilon > 0, got {args.epsilon}")
    rows = []
    for method in methods:
        if method == "naive":
            res = mc.estimate_lower_tail_naive(model, args.n, args.k, sim,
                                               jobs=args.jobs)
        else:
            res = mc.estimate_lower_tail_stratified(
                model, args.n, args.k, sim, epsilon=args.epsilon, jobs=args.jobs)
        rows.append({
            "method": res.method, "n": args.n, "k": args.k,
            "samples": sim.samples, "seed": sim.seed, "streams": sim.streams,
            "estimate": res.estimate, "stderr": res.stderr,
            "samples_used": res.samples_used, "attempts": res.attempts,
            "bracket_low": res.bracket_low, "bracket_high": res.bracket_high,
            "guard_trips": res.guard_trips,
        })
    return rows


def cmd_verify(args, _model):
    only = [x.strip() for x in (args.only or "").split(",") if x.strip()]
    results = run_checks(only, args.scale)
    return [
        {"check": r.name, "value": r.value, "threshold": r.threshold,
         "verdict": r.verdict(), "seconds": round(r.seconds, 3),
         "detail": r.detail}
        for r in results
    ]


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: every default in it is immutable, and
    parse_args returns a fresh namespace, so main reuses it."""
    p = argparse.ArgumentParser(
        prog="gwimm",
        description="critical branching with immigration: exact laws, "
                    "simulation, and asymptotic diagnostics",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, run, model=True):
        sp.set_defaults(run=run)
        if model:
            sp.add_argument("--model", required=True, help="model spec JSON path")
        else:
            sp.set_defaults(model=None)
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", default="csv", choices=("csv", "json"),
                        dest="fmt")

    sp = sub.add_parser("exact", help="exact truncated pmf of Y_n")
    common(sp, cmd_exact)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--trunc", type=int, default=None)
    sp.add_argument("--initial", type=int, default=0)

    sp = sub.add_parser("theta", help="law of the first surviving cohort")
    common(sp, cmd_theta)
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("scan-L", help="F(n), L(n) over a grid")
    common(sp, cmd_scan_L)
    sp.add_argument("--grid", default="1000,10000,100000",
                    help="comma-separated n values")

    sp = sub.add_parser("simulate", help="empirical pmf of Y_n")
    common(sp, cmd_simulate)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--initial", type=int, default=0)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--streams", type=int, default=1)

    sp = sub.add_parser("estimate", help="lower-tail probability estimators")
    common(sp, cmd_estimate)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--streams", type=int, default=1)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--epsilon", type=float, default=0.01)
    sp.add_argument("--method", default="both",
                    choices=("naive", "stratified", "both"))

    sp = sub.add_parser("verify", help="named verification checks")
    common(sp, cmd_verify, model=False)
    sp.add_argument("--only", default=None,
                    help="comma-separated check names (default: all)")
    sp.add_argument("--scale", default="desk", choices=("desk", "full"))
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        model = load_model_spec(args.model) if args.model is not None else None
        rows = args.run(args, model)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DeficitError as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # bad numeric parameters for the requested operation
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return 3

    # every command's rows are nonempty, keyed in column order
    text = serialize(rows, list(rows[0]), args.fmt)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    # only verify rows carry a verdict; a failed check exits 1
    return 1 if any(row.get("verdict") == "FAIL" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
