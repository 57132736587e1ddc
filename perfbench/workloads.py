"""Query sets of the three workloads, and the code that runs one query.

A query set is built from the workload name and the seed alone, in pure
Python, so the measured process and the oracle pass build the same set.
Each query is a dict with an ``id``, a ``kind`` and its parameters; law
parameters are model specs in the CLI's JSON format.

Why each workload (also in BENCHMARK.json):

lowtail-window  ~90 queries P(Y_n <= k) with K = k <= 64, n <= 4096, plus
                theta, the local asymptote and (n <= 256) the joint
                (Y, theta) window.  The paper's core query: many small
                direct convolutions, Horner composition for Poisson
                immigration, no FFT and no Monte Carlo.
full-law        `gwimm exact` at its default truncation (K up to ~4.3k),
                cohort laws at K = 6m = 6144, |H_n| on a circle, `gwimm
                theta`.  Few huge FFT products, a series reciprocal,
                4k-row CSVs.
mc-and-scan     the layers the exact engine leaves idle, in one workload
                so that a run can be long enough for steady figures:
                - naive and stratified `gwimm estimate` on a common and a
                  rare (P ~ 2e-4) lower tail, plus `gwimm simulate`: time
                  goes to montecarlo and Law.sample_sum;
                - `gwimm scan-L` to 2e4 on two log-heavy models (cold
                  spline build, ~30 us per generation) and to 3e5 on two
                  light ones: the only queries that grow the iterate store.

Law parameters are drawn from the seed where the work does not depend on
them; where it does (the default truncation grows with gamma, the
Monte Carlo cost with P and with the estimators' rng seed, the spline
build with beta) they are fixed, so that every seed does the same work
and a regression is not lost in the spread between seeds.  The seed
always draws the query order.

Sizes are chosen so that one pass takes one to three seconds: a run times
every query many times, and wall_s takes each query's fastest time (see
run.py), which needs several passes to fall in the stretches where the
shared host does not slow this process down.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("lowtail-window", "full-law", "mc-and-scan")


def _law(family, **params):
    return {"family": family, "params": params} if params else {"family": family}


def _model(offspring, immigration):
    return {"offspring": offspring, "immigration": immigration}


GEO = _law("geometric-critical")
BINARY = _law("binary")


def _lowtail_window(rng, smoke):
    models = {
        "geo": _model(GEO, _law("bernoulli01", q1=round(rng.uniform(0.3, 0.7), 6))),
        "bin": _model(BINARY, _law("bernoulli01", q1=round(rng.uniform(0.3, 0.7), 6))),
        "bpo": _model(BINARY, _law("poisson", mean=round(rng.uniform(0.5, 4.0), 6))),
        "bpo4": _model(BINARY, _law("poisson", mean=4.0)),
    }
    ns = (4, 16, 64) if smoke else (4, 16, 64, 256, 1024, 4096)
    ks = (1, 4, 8) if smoke else (1, 2, 4, 8, 16, 32, 64)
    queries = []
    for key in ("geo", "bin"):
        for n in ns:
            # at n = 4096 every window costs about the same (the product over
            # 4096 generations), so three k suffice
            for k in (ks if n < 4096 else ks[::3]):
                queries.append({"id": f"window-{key}-n{n}-k{k}", "kind": "window",
                                "model": key, "n": n, "k": k, "joint": n <= 256})
    # Poisson windows at k >= 32 only: below that the Horner cut at K makes
    # pass/fail depend on the drawn mean; the fixed poisson(4) queries below
    # carry that defect.  n <= 256: the three n = 1024 windows took half of
    # a pass, and short passes let a run time each query more often.
    for n in ns[:4]:
        for k in ((32,) if smoke else (32, 48, 64)):
            queries.append({"id": f"window-bpo-n{n}-k{k}", "kind": "window",
                            "model": "bpo", "n": n, "k": k, "joint": n <= 64})
    for k in (8, 16, 32):
        queries.append({"id": f"window-bpo4-n256-k{k}", "kind": "window",
                        "model": "bpo4", "n": 256, "k": k, "joint": False})
    known = {
        "window-bpo4-n256-k8": "Horner pmf cut at K: P(Y=0) 99% low against F(n)",
        "window-bpo4-n256-k16": "Horner pmf cut at K: P(Y=0) 2e-4 relative low",
    }
    return models, queries, known


def _cli_exact(qid, model, n):
    return {"id": qid, "kind": "cli", "model": model, "n": n,
            "argv": ["exact", "--model", "{model}", "--n", str(n), "--out", "{out}"]}


def _full_law(rng, smoke):
    models = {
        "geo": _model(GEO, _law("bernoulli01", q1=0.5)),
        "bin": _model(BINARY, _law("bernoulli01", q1=0.5)),
        "bpo2": _model(BINARY, _law("poisson", mean=2.0)),
        "bpo4": _model(BINARY, _law("poisson", mean=4.0)),
        "bgeo": _model(BINARY, GEO),
    }
    ns = (32, 64) if smoke else (256,)
    queries = [_cli_exact(f"exact-{key}-n{n}", key, n) for key in ("geo", "bin") for n in ns]
    queries.append(_cli_exact("exact-bpo2-n64", "bpo2", 16 if smoke else 64))
    queries.append(_cli_exact("exact-bpo4-n128", "bpo4", 16 if smoke else 128))
    m = 64 if smoke else 1024
    for key in ("bin", "bgeo"):
        queries.append({"id": f"cohort-{key}-m{m}", "kind": "pmf_Z", "model": key,
                        "m": m, "K": 6 * m})
    for n in ((64,) if smoke else (1024, 4096)):
        queries.append({"id": f"charfn-geo-n{n}", "kind": "charfn", "model": "geo",
                        "n": n, "points": 256})
    n = 256 if smoke else 4096
    queries.append({"id": f"theta-geo-n{n}", "kind": "cli", "model": "geo", "n": n,
                    "argv": ["theta", "--model", "{model}", "--n", str(n), "--out", "{out}"]})
    known = {} if smoke else {
        "exact-bpo4-n128": "FFT rounding at default K: P(Y=0) 7e-6 relative off F(n)",
    }
    return models, queries, known


def _mc_lowtail(rng, smoke):
    models = {
        "geo": _model(GEO, _law("bernoulli01", q1=0.5)),
        "bpo1": _model(BINARY, _law("poisson", mean=1.0)),  # P(Y_1024 <= 8) = 1.88e-4
    }
    # fixed like the law parameters: the stratified estimator's cost moves
    # by +-15% with its rng seed (2.1-2.9 s over three seeds at 4000 samples);
    # sample counts are small so that a run holds many passes
    mc_seed = 20240627
    n = 64 if smoke else 1024
    samples = 200 if smoke else 500
    queries = []
    for key, k in (("geo", 16), ("bpo1", 8)):
        # reference value a user computes next to the estimates; K = 4k keeps
        # the Poisson window clear of the Horner cut
        queries.append({"id": f"exact-{key}-n{n}-k{k}", "kind": "window_cdf",
                        "model": key, "n": n, "k": k, "K": 4 * k})
        for method in ("naive", "stratified"):
            queries.append({
                "id": f"{method}-{key}-n{n}-k{k}", "kind": "cli", "model": key,
                "n": n, "k": k, "method": method, "samples": samples,
                "argv": ["estimate", "--model", "{model}", "--n", str(n), "--k", str(k),
                         "--samples", str(samples), "--seed", str(mc_seed),
                         "--method", method, "--jobs", "1", "--streams", "2",
                         "--out", "{out}"]})
    n_sim, sim_samples = (32, 500) if smoke else (256, 2500)
    queries.append({
        "id": f"simulate-geo-n{n_sim}", "kind": "cli", "model": "geo", "n": n_sim,
        "samples": sim_samples,
        "argv": ["simulate", "--model", "{model}", "--n", str(n_sim), "--samples",
                 str(sim_samples), "--seed", str(mc_seed), "--streams", "2",
                 "--out", "{out}"]})
    return models, queries, {}


def _l_scan(rng, smoke):
    models = {
        "heavy-imm": _model(BINARY, _law("log-heavy-immigration", beta=1.5)),
        "heavy-off": _model(_law("log-heavy-offspring", beta=1.5),
                            _law("bernoulli01", q1=round(rng.uniform(0.3, 0.7), 6))),
        "light-geo": _model(GEO, _law("bernoulli01", q1=round(rng.uniform(0.3, 0.7), 6))),
        "light-gpo": _model(GEO, _law("poisson", mean=round(rng.uniform(0.5, 4.0), 6))),
    }
    heavy_grid = "100,1000" if smoke else "1000,10000,20000"
    light_grid = "1000,10000" if smoke else "1000,10000,100000,300000"
    queries = []
    for key, grid in (("heavy-imm", heavy_grid), ("heavy-off", heavy_grid),
                      ("light-geo", light_grid), ("light-gpo", light_grid)):
        queries.append({"id": f"scan-{key}", "kind": "cli", "model": key,
                        "grid": [int(x) for x in grid.split(",")],
                        "argv": ["scan-L", "--model", "{model}", "--grid", grid,
                                 "--out", "{out}"]})
    queries.append(_cli_exact("exact-heavy-imm-n16", "heavy-imm", 16))
    known = {
        "exact-heavy-imm-n16": "heavy law at default settings exits 3 "
                               "('increase the truncation bound K=211')",
    }
    return models, queries, known


def _mc_and_scan(rng, smoke):
    models, queries, known = _mc_lowtail(rng, smoke)
    scan_models, scan_queries, scan_known = _l_scan(rng, smoke)
    assert not models.keys() & scan_models.keys()
    return {**models, **scan_models}, queries + scan_queries, {**known, **scan_known}


_BUILDERS = {
    "lowtail-window": _lowtail_window,
    "full-law": _full_law,
    "mc-and-scan": _mc_and_scan,
}


def build(workload: str, seed: int, smoke: bool = False) -> dict:
    """Models, queries (in run order) and known defects by query id."""
    rng = random.Random(f"{workload}:{seed}")
    models, queries, known = _BUILDERS[workload](rng, smoke)
    rng.shuffle(queries)
    return {"models": models, "queries": queries, "known_defects": known}


# -- running one query (inside the measured process) ---------------------------

def run_query(q, models, model_paths, out_path):
    """Run one query through gwimm's public API or its in-process CLI and
    return its raw result; conversion for the oracle happens afterwards."""
    from gwimm import charfn_modulus, exact_pmf_Y, exact_pmf_Z, extinction_iterates
    from gwimm.asymptotics import main2_eval
    from gwimm.cli import main as cli_main
    from gwimm.theta import joint_Y_theta_window, theta_pmf

    kind = q["kind"]
    if kind == "cli":
        argv = [a.replace("{model}", model_paths[q["model"]]).replace("{out}", out_path)
                for a in q["argv"]]
        return {"exit_code": cli_main(argv)}
    model = models[q["model"]]
    if kind == "window":
        n, k = q["n"], q["k"]
        cache = extinction_iterates(model, n)
        pmf = exact_pmf_Y(model, n, k, deficit_ceiling=math.inf)
        theta = theta_pmf(cache, n)
        out = {"pmf": pmf, "theta": theta}
        if 1 <= k <= n:
            out["main2"] = main2_eval(model, cache, n, k)
        if q["joint"]:
            out["joint"] = joint_Y_theta_window(model, cache, n, k, k,
                                                deficit_ceiling=math.inf)
        return out
    if kind == "window_cdf":
        return {"pmf": exact_pmf_Y(model, q["n"], q["K"], deficit_ceiling=math.inf)}
    if kind == "pmf_Z":
        return {"pmf": exact_pmf_Z(model, q["m"], q["K"])}
    if kind == "charfn":
        import numpy as np

        t = np.linspace(0.0, math.pi, q["points"])
        return {"modulus": charfn_modulus(model, q["n"], t)}
    raise ValueError(f"unknown query kind {kind!r}")


def to_record(q, raw) -> dict:
    """JSON-ready output of one query (outside the timed region)."""
    rec = {}
    if "exit_code" in raw:
        rec["exit_code"] = raw["exit_code"]
    if "pmf" in raw:
        pmf = raw["pmf"]
        hi = q["k"] if q["kind"] == "window" else min(pmf.K, 32)
        rec["window"] = [float(x) for x in pmf.probs[: hi + 1]]
        rec["deficit"] = float(pmf.deficit)
        if q["kind"] == "window_cdf":
            rec["cdf_k"] = float(pmf.cdf()[q["k"]])
    if "theta" in raw:
        rec["theta_atom"] = float(raw["theta"].atom_none)
        rec["theta_total"] = float(raw["theta"].total())
    if "main2" in raw:
        rec["main2"] = float(raw["main2"])
    if "joint" in raw:
        rec["joint_sum"] = math.fsum(float(x) for x in raw["joint"])
    if "modulus" in raw:
        rec["modulus"] = [float(x) for x in raw["modulus"]]
    return rec
