"""Command-line front end: model ingestion, experiment orchestration and
report emission.

Subcommands
    exact      exact truncated pmf of Y_n            -> k, prob, cumulative, deficit
    theta      law of the first surviving cohort     -> l, prob, survival (+ atom row)
    scan-L     F(n), L(n) and log-slope over a grid  -> n, F, L, dlogL_dlogn, trend
    simulate   empirical pmf from forward simulation
    estimate   naive / stratified lower-tail estimates
    verify     named verification checks             -> name, value, threshold, verdict

Integer flags are bounded by their argparse type (_int_from), so a value out
of range exits 2, naming the flag, before the model file is read.

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


def load_model_spec(path: str) -> Model:
    """Parse the declarative model file: JSON with keys `offspring` and
    `immigration`, each {family: ..., params: {...}} or
    {family: explicit, probs: [...]}."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read model spec: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"model spec is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError("model spec must be a JSON object")
    for key in ("offspring", "immigration"):
        if key not in doc:
            raise ValueError(f"model spec missing key '{key}'")
    try:
        return make_model(doc["offspring"], doc["immigration"])
    except ValueError as exc:
        raise ValueError(f"model spec: {exc}") from None


def _int_from(lowest: int):
    """argparse type: an int >= lowest, named int for "invalid int value"."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def cmd_exact(args, model: Model):
    n = args.n
    if n == 0 and args.trunc is None:
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
        raise ValueError(f"bad --grid value {args.grid!r}") from None
    if not grid:
        raise ValueError("--grid must contain at least one n")
    if any(n < 1 for n in grid):
        raise ValueError("scan-L grid entries must be >= 1")
    grid = sorted(set(grid))
    cache = extinction_iterates(model, max(grid))
    logF = cache.logF_at(grid)
    if np.isneginf(logF).any():
        n = grid[int(np.argmax(np.isneginf(logF)))]
        raise ValueError(f"P(Y_n = 0) = 0 at n={n}, so L(n) = 1/(n**gamma P(Y_n = 0)) "
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
    sim = mc.SimConfig(samples=args.samples, seed=args.seed, streams=args.streams)
    methods = ["naive", "stratified"] if args.method == "both" else [args.method]
    # checked before any method samples, so no pass runs only to be discarded
    if args.k < 1 and "stratified" in methods:
        raise ValueError("the stratified estimator needs --k >= 1")
    if args.n < 1 and "stratified" in methods:
        raise ValueError("the stratified estimator needs --n >= 1")
    if not args.epsilon > 0 and "stratified" in methods:
        raise ValueError(f"the stratified estimator needs --epsilon > 0, got {args.epsilon}")
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

    def horizon(sp, lowest=0, initial=True):
        sp.add_argument("--n", type=_int_from(lowest), required=True)
        if initial:
            sp.add_argument("--initial", type=_int_from(0), default=0)

    def sampling(sp):
        sp.add_argument("--samples", type=_int_from(1), default=10000)
        sp.add_argument("--seed", type=_int_from(0), default=0)
        sp.add_argument("--streams", type=_int_from(1), default=1)

    sp = sub.add_parser("exact", help="exact truncated pmf of Y_n")
    common(sp, cmd_exact)
    horizon(sp)
    sp.add_argument("--trunc", type=_int_from(0), default=None)

    sp = sub.add_parser("theta", help="law of the first surviving cohort")
    common(sp, cmd_theta)
    horizon(sp, lowest=1, initial=False)

    sp = sub.add_parser("scan-L", help="F(n), L(n) over a grid")
    common(sp, cmd_scan_L)
    sp.add_argument("--grid", default="1000,10000,100000",
                    help="comma-separated n values")

    sp = sub.add_parser("simulate", help="empirical pmf of Y_n")
    common(sp, cmd_simulate)
    horizon(sp)
    sampling(sp)

    sp = sub.add_parser("estimate", help="lower-tail probability estimators")
    common(sp, cmd_estimate)
    horizon(sp, initial=False)
    sp.add_argument("--k", type=_int_from(0), required=True)
    sampling(sp)
    sp.add_argument("--jobs", type=_int_from(1), default=1)
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
    except (DeficitError, ArithmeticError, RuntimeError) as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # bad flags, spec or numeric parameters; DeficitError is one, caught above
        print(f"error: {exc}", file=sys.stderr)
        return 2

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
