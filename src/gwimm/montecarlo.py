"""Forward simulation and Monte Carlo estimators of lower-tail
probabilities P(Y_n <= k).  Every entry point takes a Model and reads the
extinction iterates it needs from the model's iterate store
(extinction_iterates).

Randomness comes from counter-based Philox streams keyed by
(seed, purpose, index) through numpy's SeedSequence spawn keys, so results
are reproducible and independent of how work is scheduled: contributions
are always merged in stream-index order.

Y_m is drawn by one core, _from_survivors, from founders: lines at time 0
each with descendants at time m; it picks one of three routes by the
offspring law.  Forward simulation passes the Bin(Y_0, u_m) survivors of
Y_0 on geometric and bounded offspring, and on other offspring steps one
generation loop from Y_0.

The stratified estimator conditions on the first surviving cohort.  Each
stratum weight P(theta_n = l) is exact from the iterate cache; the
conditional factor P(Z + Y' <= k | Z > 0) is estimated by the core, its
founders the cohort's surviving immigrants (Law.sample_thinned).
Strata outside the sampling window (cohort age m = n - l above
k/epsilon), or allocated no samples by the budget, are not simulated;
their total possible contribution, bounded through the computable Markov
product bound

    P(Y_m <= k) <= [F(m)/F(k)] / f_k(0)**k,

is reported as a one-sided bias bracket so the estimate stays honest.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .models import Model
from .pgf import IterateCache, extinction_iterates
from .theta import theta_pmf

_SIMULATE_STREAM = 0
_NAIVE_STREAM = 1
_STRATUM_STREAM = 2

# Populations above this are capped and counted as guard trips.
MAX_POPULATION = 10**9


@dataclass(frozen=True)
class SimConfig:
    samples: int
    seed: int
    streams: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.streams < 1:
            raise ValueError("streams must be >= 1")


@dataclass
class EstimateResult:
    estimate: float
    stderr: float
    samples_used: int
    method: str
    bracket_low: float = 0.0
    bracket_high: float = 0.0
    guard_trips: int = 0
    # paths simulated: one per sample (naive); immigrant batches drawn
    # (stratified), one per sample when the immigration law thins in closed
    # form, more when its sample_thinned rejects
    attempts: int = 0


def substream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for one (purpose, index...) substream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def split_budget(total: int, streams: int) -> list[int]:
    """Per-stream shares of a sample budget: equal parts, the remainder
    going one each to the lowest stream indices."""
    base, extra = divmod(total, streams)
    return [base + (1 if i < extra else 0) for i in range(streams)]


# ---------------------------------------------------------------------------
# forward simulation


def _fan_out(run_stream, streams: int, jobs: int) -> list:
    """[run_stream(i) for i in range(streams)], in index order; `jobs`
    threads only change where the calls run."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_stream, range(streams)))
    return [run_stream(i) for i in range(streams)]


def _reads_iterates(model: Model) -> bool:
    """Whether simulate_Y_batch draws Y_m from surviving founders
    (_from_survivors), reading the model's iterate store: geometric
    (closed_form_generations) and bounded offspring do; the others step
    the generation loop from Y_0 and read none."""
    offspring = model.offspring
    return offspring.closed_form_generations or offspring.support_bound is not None


def simulate_Y_batch(model: Model, horizons, initial: int, rng,
                     max_population: int = MAX_POPULATION):
    """One draw of Y_m given Y_0 = initial per entry m of `horizons`, as
    (draws in input order, guard trips).  Horizon-0 lines draw nothing.

    On geometric and bounded offspring (_reads_iterates) the Bin(initial,
    u_m) founders with descendants at time m are drawn first (lines with a
    positive horizon, in input order), then _from_survivors draws Y_m from
    them, reading the model's iterate store up to the longest horizon.  The
    store is not safe to grow from two threads, so a caller that fans
    batches out to threads fills it first; each batch then only reads it.
    Other offspring step _generation_loop from `initial` and read no store.
    """
    horizons = np.asarray(horizons, dtype=np.int64)
    if not _reads_iterates(model):
        return _generation_loop(model, horizons, initial, rng, max_population)
    cache = extinction_iterates(model, max(int(horizons.max(initial=0)), 1))
    founders = np.full(horizons.shape[0], initial, dtype=np.int64)
    if initial:
        live = horizons > 0
        founders[live] = rng.binomial(initial, cache.one_minus_fj0[horizons[live]])
    return _from_survivors(model, horizons, founders, rng, cache, max_population)


def _from_survivors(model: Model, horizons: np.ndarray, founders: np.ndarray, rng,
                    cache: IterateCache, max_population: int = MAX_POPULATION):
    """Y_m per line of horizon m, given founders[i] lines at time 0 that
    each have descendants at time m, plus the immigrants of every
    generation, as (draws in input order, guard trips); a horizon-0 line
    gives its founders.  The one place that picks how Y_m is drawn, by
    the offspring law, u read from `cache` (filled to the longest horizon):

    - bounded support (binary, explicit): one reduced tree of the lines
      with descendants at time m, from the founders, each generation's
      surviving immigrants joining it (Law.sample_reduced);
    - otherwise the founders' descendants (Law.sample_survivors) plus a
      younger process: for closed_form_generations (geometric) the
      immigrant batches with descendants at time m, their ages by
      _survivor_ages, each batch's surviving immigrants given one
      (Law.sample_thinned at u_a) and their descendants in one
      Law.sample_survivors call; else (Poisson, log-heavy) the
      generation loop from 0.

    The reduced tree and the surviving batches have no intermediate
    populations: a final Y_m above `max_population` is capped and counted
    as a guard trip.  The loop caps and counts every generation
    (_generation_loop).
    """
    offspring = model.offspring
    u = cache.one_minus_fj0
    if offspring.support_bound is not None:
        return _cap(offspring.sample_reduced(founders, horizons, u, rng, model.immigration),
                    max_population)
    y = offspring.sample_survivors(founders, horizons, u, rng)
    if offspring.closed_form_generations:
        line, age = _survivor_ages(horizons, cache, rng)
        alive, _ = model.immigration.sample_thinned(u[age], rng)
        np.add.at(y, line, offspring.sample_survivors(alive, age, u, rng))
        return _cap(y, max_population)
    younger, trips = _generation_loop(model, horizons, 0, rng, max_population)
    return y + younger, trips


def _generation_loop(model: Model, horizons: np.ndarray, initial: int, rng,
                     max_population: int):
    """Y_m given Y_0 = initial per line of horizon m, stepped generation by
    generation, as (draws in input order, guard trips).  A line with
    horizon m joins m steps before the end, so each generation is one
    vectorized offspring-sum draw plus one immigration draw over the lines
    joined so far (the longest horizons first, ties in input order).
    Populations crossing the guard are capped and counted each generation;
    the trajectory continues on the capped value (reported, not fatal)."""
    offspring = model.offspring
    steps = int(horizons.max(initial=0))
    order = np.argsort(-horizons, kind="stable")
    # lines joined by step s: those with horizon >= steps - s
    joined = np.searchsorted(-horizons[order], np.arange(steps) - steps, side="right")
    pops = np.full(horizons.shape[0], initial, dtype=np.int64)
    trips = 0
    for width in joined:
        pops[:width], capped = _cap(offspring.sample_sum(pops[:width], rng)
                                    + model.immigration.sample(width, rng), max_population)
        trips += capped
    out = np.empty_like(pops)
    out[order] = pops
    return out, trips


def _cap(y: np.ndarray, max_population: int) -> tuple[np.ndarray, int]:
    """y with its entries above max_population capped, and how many were."""
    over = y > max_population
    y[over] = max_population
    return y, int(np.count_nonzero(over))


def _survivor_ages(horizons: np.ndarray, cache: IterateCache, rng):
    """The ages a < m of the immigrant batches with descendants at time m,
    per line of horizon m, as (line, age) arrays, one entry per batch.

    A batch of age a survives with chance lambda_a = 1 - h(f_a(0))
    (cache.one_minus_hfj0_at), independently of the others, so the
    surviving ages are a Bernoulli sequence with cumulative hazard
    Lambda(i) = -sum_{a<i} log(1 - lambda_a) = -cache.logF_pos[i], which
    is nondecreasing (every term of its Sum2 prefix is <= 0; the tests
    check the stored bits).  From the hazard index p (0, or one past the
    last surviving age) the next surviving age is i - 1, for i the
    smallest index with Lambda(i) > Lambda(p) + E, E a standard
    exponential (Devroye, Non-Uniform Random Variate Generation, 1986,
    ch. VI): one draw and one searchsorted per surviving batch.  Rounding Lambda(p) + E moves the chance of age a by
    at most about ulp(Lambda(m)) / -log(1 - lambda_a) relative.  A
    zero-factor age (lambda_a >= 1, left out of logF_pos) never meets
    that search and always survives.

    Draws come in a fixed order: one exponential per open line per round,
    lines in input order, until every line passes its horizon.  Lines
    with horizon 0 draw nothing.
    """
    steps = int(horizons.max(initial=0))
    # zero-factor ages below each horizon, line by line
    forced = cache.zero_generations
    per = np.searchsorted(forced, horizons)
    lines = [np.repeat(np.arange(horizons.shape[0]), per)]
    ages = [forced[np.arange(lines[0].shape[0]) - np.repeat(np.cumsum(per) - per, per)]]
    hazard = -cache.logF_pos[:steps + 1]
    line = np.flatnonzero(horizons > 0)
    pos = np.zeros(line.shape[0], dtype=np.int64)
    while line.shape[0]:
        nxt = np.searchsorted(hazard, hazard[pos] + rng.standard_exponential(line.shape[0]),
                              side="right")
        hit = nxt <= horizons[line]
        line, pos = line[hit], nxt[hit]
        lines.append(line)
        ages.append(pos - 1)
    return np.concatenate(lines), np.concatenate(ages)


def simulate_Y_streams(model: Model, n: int, initial: int, cfg: SimConfig, jobs: int = 1,
                       purpose: int = _SIMULATE_STREAM) -> list[tuple[np.ndarray, int]]:
    """cfg.samples draws of Y_n given Y_0 = initial, as (draws, guard trips)
    per substream (cfg.seed, purpose, i), in stream-index order; stream i
    takes split_budget(cfg.samples, cfg.streams)[i] of them.  `jobs`
    threads fan the streams out once the iterate store reaches n."""
    sizes = split_budget(cfg.samples, cfg.streams)
    # the store must not grow inside a fan-out: fill it to n first, and the
    # batches only read it (the generation loop reads none)
    if _reads_iterates(model):
        extinction_iterates(model, max(n, 1))

    def run_stream(idx: int):
        return simulate_Y_batch(model, np.full(sizes[idx], n), initial,
                                substream(cfg.seed, purpose, idx))

    return _fan_out(run_stream, cfg.streams, jobs)


# ---------------------------------------------------------------------------
# naive estimator


def estimate_lower_tail_naive(model: Model, n: int, k: int, cfg: SimConfig,
                              jobs: int = 1) -> EstimateResult:
    """Plain Monte Carlo frequency of {Y_n <= k} with binomial stderr."""
    if k < 0:
        return EstimateResult(0.0, 0.0, cfg.samples, "naive")
    draws = simulate_Y_streams(model, n, 0, cfg, jobs, _NAIVE_STREAM)
    hits = sum(int(np.count_nonzero(values <= k)) for values, _ in draws)
    trips = sum(t for _, t in draws)
    p_hat = hits / cfg.samples
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / cfg.samples)
    return EstimateResult(p_hat, stderr, cfg.samples, "naive", guard_trips=trips,
                          attempts=cfg.samples)


# ---------------------------------------------------------------------------
# stratified estimator


def _markov_tail_bounds(cache: IterateCache, ms: np.ndarray, k: int) -> np.ndarray:
    """Computable upper bounds on P(Y_m <= k) at the ages ms from the pgf
    Markov chain (monotone product shortened to the cache horizon); 1 where
    m <= k or f_k(0) gives no bound."""
    if k < 1 or k > cache.N or cache.one_minus_fj0[k] >= 1.0:  # f_k(0) = 0
        return np.ones(np.shape(ms))
    with np.errstate(over="ignore"):
        bounds = np.exp(cache.log_F_ratio(ms, k) - k * math.log(1.0 - cache.one_minus_fj0[k]))
    return np.where(ms <= k, 1.0, np.minimum(1.0, bounds))


def _age_bins(window: int, k: int) -> list[np.ndarray]:
    """Partition cohort ages 0..window into strata: individual ages up to
    ~2k (where the conditional varies fastest), geometric bins beyond."""
    solo = min(window, max(2 * k, 16))
    bins = [np.array([m]) for m in range(solo + 1)]
    lo = solo + 1
    while lo <= window:
        hi = min(window, max(lo, int(lo * 1.25)))
        bins.append(np.arange(lo, hi + 1))
        lo = hi + 1
    return bins


def _largest_remainder(total: int, scores: np.ndarray) -> np.ndarray:
    """Integer shares of `total` in proportion to `scores` (nonnegative,
    not all zero) that sum to `total`: the floors of the quotas, plus one
    each for the largest remainders, ties to the lower index."""
    quota = total * scores / scores.sum()
    out = np.floor(quota).astype(np.int64)
    extra = total - int(out.sum())
    out[np.argsort(out - quota, kind="stable")[:extra]] += 1
    return out


def estimate_lower_tail_stratified(
    model: Model,
    n: int,
    k: int,
    cfg: SimConfig,
    epsilon: float = 0.01,
    jobs: int = 1,
) -> EstimateResult:
    """Stratify P(Y_n <= k) over the first surviving cohort.

    estimate = F(n)  (the all-dead atom, exact)
             + sum over strata of P(theta_n in stratum) * p_hat,
    where a stratum is a single cohort age near the k-sized window and a
    geometric band of ages deeper in; weights are the exact law of theta_n
    (theta_pmf of the model's iterate store).  Neyman targets, rounded by
    largest remainder, give every stratum its draws, so samples_used >=
    cfg.samples whenever a stratum has weight; each stream draws exactly
    its share of a stratum's ages from the theta_n law.  A line of cohort
    age m draws its cohort's surviving immigrants given that one survives
    (Law.sample_thinned; no rejection for the families with closed forms),
    and the simulation core (_from_survivors) draws Z + Y' from those
    founders at horizon m: their descendants at time m plus an independent
    younger process.  Strata beyond the epsilon-window or allocated no
    samples are bracketed, not sampled.  The sample budget splits across
    cfg.streams substreams merged in stream-index order; `jobs` threads
    only fan the streams out.
    """
    if n < 1:
        raise ValueError(f"stratified estimator needs n >= 1, got n={n}")
    if k < 1:
        raise ValueError("stratified estimator needs k >= 1")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    # filled before the streams fan out, as in simulate_Y_streams
    cache = extinction_iterates(model, n)
    law = theta_pmf(cache, n)
    atom = law.atom_none
    ages = np.arange(0, n)
    weights = law.pmf[n - ages]
    bounds = _markov_tail_bounds(cache, ages, k - 1)
    window = int(min(n - 1, math.floor(k / epsilon)))
    bracket = float(np.dot(weights[window + 1:], bounds[window + 1:]))

    bins = _age_bins(window, k)
    bin_of_age = np.zeros(window + 1, dtype=np.int64)
    for b, bin_ages in enumerate(bins):
        bin_of_age[bin_ages] = b
    bin_w = np.array([float(weights[b].sum()) for b in bins])
    bin_bound = np.array([float(bounds[b[0]]) for b in bins])  # decreasing in m
    # Neyman allocation with the Markov bound as the sigma proxy; every bin
    # with weight gets at least one draw so nothing silently drops out
    sigma_proxy = np.sqrt(bin_bound * (1.0 - bin_bound / 2.0))
    alloc_score = bin_w * sigma_proxy
    targets = np.zeros(len(bins), dtype=np.int64)
    if alloc_score.sum() > 0.0:
        targets = _largest_remainder(cfg.samples, alloc_score)
        targets[(targets == 0) & (alloc_score > 0)] = 1
    u = cache.one_minus_fj0

    def run_stream(idx: int):
        rng = substream(cfg.seed, _STRATUM_STREAM, idx)
        # the stream's share of each bin, ages drawn from the theta_n law
        plan = np.zeros(window + 1, dtype=np.int64)
        for b in np.flatnonzero(targets):
            share = split_budget(int(targets[b]), cfg.streams)[idx]
            w = weights[bins[b]]
            plan[bins[b]] = rng.multinomial(share, w / w.sum())
        age = np.repeat(np.arange(window + 1), plan)
        # a line of cohort age m: the surviving immigrants of a batch given
        # that one survives, then Z + Y', their descendants at time m plus
        # an independent younger process, from those founders
        alive, tries = model.immigration.sample_thinned(u[age], rng)
        total, trips = _from_survivors(model, age, alive, rng, cache)
        line_bin = bin_of_age[age]
        return (np.bincount(line_bin[total <= k], minlength=len(bins)),
                np.bincount(line_bin, minlength=len(bins)), tries, trips)

    per_stream = _fan_out(run_stream, cfg.streams, jobs)
    hits, draws, attempts_total, trips_total = (sum(col) for col in zip(*per_stream))

    estimate = atom
    variance = 0.0
    for b in range(len(bins)):
        if draws[b] == 0:
            bracket += bin_w[b] * bin_bound[b]
            continue
        p_hat = hits[b] / draws[b]
        estimate += bin_w[b] * p_hat
        p_var = (hits[b] + 1.0) / (draws[b] + 2.0)
        variance += bin_w[b] ** 2 * p_var * (1.0 - p_var) / draws[b]
    return EstimateResult(
        estimate=estimate,
        stderr=math.sqrt(variance),
        samples_used=int(draws.sum()),
        method="stratified",
        bracket_low=0.0,
        bracket_high=bracket,
        guard_trips=trips_total,
        attempts=attempts_total,
    )
