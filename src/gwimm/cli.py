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
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import montecarlo as mc
from .models import Model, make_law, make_model
from .pgf import DeficitError, exact_pmf_Y, extinction_iterates
from .reporting import serialize
from .theta import theta_pmf, theta_survival
from .verify import run_checks


class UsageError(ValueError):
    """Bad flags or unparseable model spec (exit code 2)."""


@dataclass
class ExperimentConfig:
    model_path: str | None = None
    model: Model | None = None
    n: int = 0
    k: int = 0
    trunc: int | None = None
    initial: int = 0
    samples: int = 10000
    seed: int = 0
    streams: int = 1
    jobs: int = 1
    epsilon: float = 0.01
    method: str = "both"
    grid: list[int] = field(default_factory=list)
    only: list[str] = field(default_factory=list)
    scale: str = "desk"
    out: str | None = None
    fmt: str = "csv"


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
        return make_model(make_law(doc["offspring"]), make_law(doc["immigration"]))
    except ValueError as exc:
        raise UsageError(f"model spec: {exc}") from None


def _default_trunc(model: Model, n: int, ceiling: float = 1e-7) -> int:
    """Truncation bound sized so the tail mass stays under the deficit
    ceiling, from the gamma-limit tail."""
    if n == 0:
        return 64
    x_hi = float(special.gammainccinv(model.gamma, ceiling / 10.0))
    return int(x_hi * model.B * n / 2.0) + 64


def cmd_exact(cfg: ExperimentConfig):
    n = cfg.n
    if n == 0:
        rows = [{"k": cfg.initial, "prob": 1.0, "cumulative": 1.0, "deficit": 0.0}]
        return rows, ["k", "prob", "cumulative", "deficit"]
    K = cfg.trunc if cfg.trunc is not None else _default_trunc(cfg.model, n)
    pmf = exact_pmf_Y(cfg.model, n, K, cfg.initial)
    cum = np.cumsum(pmf.probs)
    rows = [
        {"k": k, "prob": float(pmf.probs[k]), "cumulative": float(cum[k]),
         "deficit": pmf.deficit}
        for k in range(K + 1)
    ]
    return rows, ["k", "prob", "cumulative", "deficit"]


def cmd_theta(cfg: ExperimentConfig):
    n = cfg.n
    if n < 1:
        raise UsageError("theta needs --n >= 1")
    cache = extinction_iterates(cfg.model, n)
    law = theta_pmf(cache, n)
    rows = []
    for l in range(1, n + 1):
        rows.append({
            "l": l,
            "prob": float(law.pmf[l]),
            "survival": theta_survival(cache, n, l),
        })
    rows.append({"l": "atom", "prob": law.atom_none, "survival": law.atom_none})
    return rows, ["l", "prob", "survival"]


def cmd_scan_L(cfg: ExperimentConfig):
    grid = cfg.grid or [10**3, 10**4, 10**5]
    if any(n < 1 for n in grid):
        raise UsageError("scan-L grid entries must be >= 1")
    grid = sorted(set(grid))
    cache = extinction_iterates(cfg.model, max(grid))
    two_decade = cache.L[grid[-1]] / cache.L[grid[0]]
    if two_decade > 1.02:
        trend = "increasing"
    elif two_decade < 0.98:
        trend = "decreasing"
    else:
        trend = "flat"
    rows = []
    prev = None
    for n in grid:
        slope = ""
        if prev is not None:
            slope = float((cache.logL[n] - cache.logL[prev])
                          / (math.log(n) - math.log(prev)))
        rows.append({
            "n": n,
            "F": float(cache.F[n]),
            "L": float(cache.L[n]),
            "dlogL_dlogn": slope,
            "trend": trend,
        })
        prev = n
    return rows, ["n", "F", "L", "dlogL_dlogn", "trend"]


def cmd_simulate(cfg: ExperimentConfig):
    sim = mc.SimConfig(samples=cfg.samples, seed=cfg.seed, streams=cfg.streams)
    per = [sim.samples // sim.streams] * sim.streams
    for i in range(sim.samples % sim.streams):
        per[i] += 1
    values = []
    for idx in range(sim.streams):
        if per[idx] == 0:
            continue
        rng = mc.substream(sim.seed, mc._SIMULATE_STREAM, idx)
        vals, _ = mc.simulate_Y_batch(cfg.model, cfg.n, cfg.initial, per[idx],
                                      rng, sim.max_population)
        values.append(vals)
    allv = np.concatenate(values)
    counts = np.bincount(allv)
    rows = [
        {"n": cfg.n, "samples": sim.samples, "seed": sim.seed,
         "streams": sim.streams, "value": v, "count": int(c),
         "freq": float(c / sim.samples)}
        for v, c in enumerate(counts) if c > 0
    ]
    return rows, ["n", "samples", "seed", "streams", "value", "count", "freq"]


def cmd_estimate(cfg: ExperimentConfig):
    sim = mc.SimConfig(samples=cfg.samples, seed=cfg.seed, streams=cfg.streams)
    methods = ["naive", "stratified"] if cfg.method == "both" else [cfg.method]
    rows = []
    for method in methods:
        if method == "naive":
            res = mc.estimate_lower_tail_naive(cfg.model, cfg.n, cfg.k, sim,
                                               jobs=cfg.jobs)
        else:
            cache = extinction_iterates(cfg.model, cfg.n)
            res = mc.estimate_lower_tail_stratified(
                cfg.model, cache, cfg.n, cfg.k, sim, epsilon=cfg.epsilon,
                jobs=cfg.jobs)
        rows.append({
            "method": res.method, "n": cfg.n, "k": cfg.k,
            "samples": sim.samples, "seed": sim.seed, "streams": sim.streams,
            "estimate": res.estimate, "stderr": res.stderr,
            "samples_used": res.samples_used, "attempts": res.attempts,
            "bracket_low": res.bracket_low, "bracket_high": res.bracket_high,
            "guard_trips": res.guard_trips,
        })
    return rows, ["method", "n", "k", "samples", "seed", "streams", "estimate",
                  "stderr", "samples_used", "attempts", "bracket_low", "bracket_high",
                  "guard_trips"]


def cmd_verify(cfg: ExperimentConfig):
    results = run_checks(cfg.only or None, cfg.scale)
    rows = [
        {"check": r.name, "value": r.value, "threshold": r.threshold,
         "verdict": r.verdict(), "seconds": round(r.seconds, 3),
         "detail": r.detail}
        for r in results
    ]
    all_pass = all(r.passed for r in results)
    return rows, ["check", "value", "threshold", "verdict", "seconds",
                  "detail"], all_pass


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gwimm",
        description="critical branching with immigration: exact laws, "
                    "simulation, and asymptotic diagnostics",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, model=True):
        if model:
            sp.add_argument("--model", required=True, help="model spec JSON path")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", default="csv", choices=("csv", "json"),
                        dest="fmt")

    sp = sub.add_parser("exact", help="exact truncated pmf of Y_n")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--trunc", type=int, default=None)
    sp.add_argument("--initial", type=int, default=0)

    sp = sub.add_parser("theta", help="law of the first surviving cohort")
    common(sp)
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("scan-L", help="F(n), L(n) over a grid")
    common(sp)
    sp.add_argument("--grid", default="1000,10000,100000",
                    help="comma-separated n values")

    sp = sub.add_parser("simulate", help="empirical pmf of Y_n")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--initial", type=int, default=0)
    sp.add_argument("--samples", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--streams", type=int, default=1)

    sp = sub.add_parser("estimate", help="lower-tail probability estimators")
    common(sp)
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
    common(sp, model=False)
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

    cfg = ExperimentConfig(
        model_path=getattr(args, "model", None),
        n=getattr(args, "n", 0),
        k=getattr(args, "k", 0),
        trunc=getattr(args, "trunc", None),
        initial=getattr(args, "initial", 0),
        samples=getattr(args, "samples", 10000),
        seed=getattr(args, "seed", 0),
        streams=getattr(args, "streams", 1),
        jobs=getattr(args, "jobs", 1),
        epsilon=getattr(args, "epsilon", 0.01),
        method=getattr(args, "method", "both"),
        scale=getattr(args, "scale", "desk"),
        out=args.out,
        fmt=args.fmt,
    )
    grid_arg = getattr(args, "grid", None)
    only_arg = getattr(args, "only", None)

    try:
        if grid_arg:
            try:
                cfg.grid = [int(x) for x in str(grid_arg).split(",") if x.strip()]
            except ValueError:
                raise UsageError(f"bad --grid value {grid_arg!r}") from None
            if not cfg.grid:
                raise UsageError("--grid must contain at least one n")
        if only_arg:
            cfg.only = [x.strip() for x in only_arg.split(",") if x.strip()]
        if getattr(args, "samples", 1) < 1:
            raise UsageError("--samples must be >= 1")
        if getattr(args, "n", 0) < 0:
            raise UsageError("--n must be >= 0")
        if cfg.model_path is not None:
            cfg.model = load_model_spec(cfg.model_path)

        all_pass = True
        if args.command == "exact":
            rows, columns = cmd_exact(cfg)
        elif args.command == "theta":
            rows, columns = cmd_theta(cfg)
        elif args.command == "scan-L":
            rows, columns = cmd_scan_L(cfg)
        elif args.command == "simulate":
            rows, columns = cmd_simulate(cfg)
        elif args.command == "estimate":
            rows, columns = cmd_estimate(cfg)
        elif args.command == "verify":
            rows, columns, all_pass = cmd_verify(cfg)
        else:  # pragma: no cover
            raise UsageError(f"unknown command {args.command}")
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

    text = serialize(rows, columns, cfg.fmt)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
