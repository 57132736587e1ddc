"""Forward simulation, first-surviving-cohort sampling, and Monte Carlo
estimators of lower-tail probabilities P(Y_n <= k).

Randomness comes from counter-based Philox streams keyed by
(seed, purpose, index) through numpy's SeedSequence spawn keys, so results
are reproducible and independent of how work is scheduled: contributions
are always merged in stream-index order.

The stratified estimator conditions on the first surviving cohort.  Each
stratum weight P(theta_n = l) is exact from the iterate cache; the
conditional factor P(Z + Y' <= k | Z > 0) is estimated by rejection
sampling of the surviving cohort plus an independent copy of the younger
process.  Strata outside the sampling window (cohort age m = n - l above
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

from .models import Law, Model
from .pgf import IterateCache
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
    attempts: int = 0  # paths simulated: one per sample (naive), cohort lines (stratified)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator for one (purpose, index...) substream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(ss))


def split_budget(total: int, streams: int) -> list[int]:
    """Per-stream shares of a sample budget: equal parts, the remainder
    going one each to the lowest stream indices."""
    base, extra = divmod(total, streams)
    return [base + (1 if i < extra else 0) for i in range(streams)]


def _resolve_laws(model) -> tuple[Law, Law]:
    if isinstance(model, Model):
        return model.offspring, model.immigration
    offspring, immigration = model
    return offspring, immigration


# ---------------------------------------------------------------------------
# forward simulation


def _fan_out(run_stream, streams: int, jobs: int) -> list:
    """[run_stream(i) for i in range(streams)], in index order; `jobs`
    threads only change where the calls run."""
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_stream, range(streams)))
    return [run_stream(i) for i in range(streams)]


def simulate_Y_batch(model, horizons, initial: int, rng,
                     max_population: int = MAX_POPULATION):
    """One draw of Y_m given Y_0 = initial per entry m of `horizons`, as
    (draws in input order, guard trips).  Horizon-0 lines draw nothing.

    An offspring law with closed_form_generations takes the cohort route
    (_simulate_Y_cohorts): Y_m is drawn as a sum of cohorts, each in one
    sample_generations draw.  That route has no intermediate populations
    to cap: only a final Y_m above `max_population` is capped and counted
    as a guard trip.

    Other laws share one generation loop: a line with horizon m joins it m
    steps before the end, so each generation is one vectorized
    offspring-sum draw plus one immigration draw over the lines joined so
    far (the longest horizons first, ties in input order).  Populations
    crossing the guard are capped and counted each generation; the
    trajectory continues on the capped value (reported, not fatal).
    """
    offspring, immigration = _resolve_laws(model)
    horizons = np.asarray(horizons, dtype=np.int64)
    if offspring.closed_form_generations:
        return _simulate_Y_cohorts(offspring, immigration, horizons, initial, rng,
                                   max_population)
    order = np.argsort(-horizons, kind="stable")
    steps = int(horizons.max(initial=0))
    # lines joined by step s: those with horizon >= steps - s
    joined = np.searchsorted(-horizons[order], np.arange(steps) - steps, side="right")
    pops = np.full(horizons.shape[0], initial, dtype=np.int64)
    trips = 0
    for width in joined:
        head = offspring.sample_sum(pops[:width], rng) + immigration.sample(width, rng)
        over = head > max_population
        if np.any(over):
            trips += int(np.count_nonzero(over))
            head[over] = max_population
        pops[:width] = head
    out = np.empty_like(pops)
    out[order] = pops
    return out, trips


# (line, age) pairs drawn per block on the cohort route: each block's
# arrays stay near 128 KB, so a batch's memory does not grow with its
# total number of generations
_COHORT_BLOCK = 1 << 14


def _simulate_Y_cohorts(offspring: Law, immigration: Law, horizons: np.ndarray,
                        initial: int, rng, max_population: int):
    """simulate_Y_batch by cohorts: Y_m = Z_m(initial) + sum_{a<m} Z_a(I_a),
    with I_a the immigrants that are a generations old at time m.

    Draws come in a fixed order: the initial populations first, then the
    (line, age) pairs, lines in input order and ages ascending, in blocks
    of _COHORT_BLOCK pairs (the block's immigrants, then their cohorts).
    """
    y = offspring.sample_generations(np.full(horizons.shape[0], initial, dtype=np.int64),
                                     horizons, rng)
    # line i owns the pairs starts[i] .. ends[i] - 1, age = pair - starts[i]
    ends = np.cumsum(horizons)
    starts = ends - horizons
    total = int(ends[-1]) if ends.shape[0] else 0
    for lo in range(0, total, _COHORT_BLOCK):
        hi = min(lo + _COHORT_BLOCK, total)
        pair = np.arange(lo, hi)
        line = np.searchsorted(ends, pair, side="right")
        z = offspring.sample_generations(immigration.sample(hi - lo, rng),
                                         pair - starts[line], rng)
        # each line sums its pairs in this block between two cumsum edges
        lines = np.arange(line[0], line[-1] + 1)
        csum = np.concatenate(([0], np.cumsum(z)))
        y[lines] += (csum[np.minimum(ends[lines], hi) - lo]
                     - csum[np.maximum(starts[lines], lo) - lo])
    over = y > max_population
    y[over] = max_population
    return y, int(np.count_nonzero(over))


def simulate_Y_streams(model, n: int, initial: int, cfg: SimConfig, jobs: int = 1,
                       purpose: int = _SIMULATE_STREAM) -> list[tuple[np.ndarray, int]]:
    """cfg.samples draws of Y_n given Y_0 = initial, as (draws, guard trips)
    per substream (cfg.seed, purpose, i), in stream-index order; stream i
    takes split_budget(cfg.samples, cfg.streams)[i] of them.  `jobs`
    threads only fan the streams out."""
    sizes = split_budget(cfg.samples, cfg.streams)

    def run_stream(idx: int):
        return simulate_Y_batch(model, np.full(sizes[idx], n), initial,
                                substream(cfg.seed, purpose, idx))

    return _fan_out(run_stream, cfg.streams, jobs)


def _run_lines(offspring: Law, starts, gens, rng):
    """Branch each start count for its own number `gens` (an int or one per
    line) of offspring-only generations, all lines in one
    offspring.sample_generations call (one draw for a law with a closed
    form, one generation loop otherwise).  Returns (surviving values, their
    indices into `starts`), by index.
    """
    vals = offspring.sample_generations(starts, gens, rng)
    idx = np.flatnonzero(vals > 0)
    return vals[idx], idx


def simulate_theta_batch(model, n: int, size: int, rng) -> np.ndarray:
    """`size` draws of theta_n; the atom is encoded as 0."""
    offspring, immigration = _resolve_laws(model)
    out = np.zeros(size, dtype=np.int64)
    undecided = np.arange(size)
    for i in range(1, n + 1):
        if undecided.size == 0:
            break
        z = immigration.sample(undecided.size, rng)
        _, alive_idx = _run_lines(offspring, z, n - i, rng)
        out[undecided[alive_idx]] = i
        mask = np.ones(undecided.size, dtype=bool)
        mask[alive_idx] = False
        undecided = undecided[mask]
    return out


# ---------------------------------------------------------------------------
# naive estimator


def estimate_lower_tail_naive(model, n: int, k: int, cfg: SimConfig,
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
    if k < 1 or k > cache.N or cache.fj0[k] <= 0.0:
        return np.ones(np.shape(ms))
    with np.errstate(over="ignore"):
        bounds = np.exp(cache.log_F_ratio(ms, k) - k * math.log(cache.fj0[k]))
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


def estimate_lower_tail_stratified(
    model,
    cache: IterateCache,
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
    (theta_pmf), within-band ages are drawn proportionally to their exact
    weights, and the conditional indicator is estimated by rejection-sampled
    surviving cohorts plus independent younger-process copies.  Strata beyond the
    epsilon-window or allocated no samples are bracketed, not sampled.
    The sample budget splits across cfg.streams substreams merged in
    stream-index order; `jobs` threads only fan the streams out.
    """
    if not isinstance(model, Model):
        raise TypeError("stratified estimator needs a full Model")
    if cache.N < n:
        raise ValueError(f"cache horizon {cache.N} < n={n}")
    if k < 1:
        raise ValueError("stratified estimator needs k >= 1")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    law = theta_pmf(cache, n)
    atom = law.atom_none
    ages = np.arange(0, n)
    weights = law.pmf[n - ages]
    f_ratios = cache.F_ratio(n, ages + 1)
    bounds = _markov_tail_bounds(cache, ages, k - 1)
    window = int(min(n - 1, math.floor(k / epsilon)))
    bracket = float(np.dot(weights[window + 1:], bounds[window + 1:]))

    bins = _age_bins(window, k)
    bin_of_age = np.zeros(window + 1, dtype=np.int64)
    for b, bin_ages in enumerate(bins):
        bin_of_age[bin_ages] = b
    bin_w = np.array([float(weights[b].sum()) for b in bins])
    bin_f = np.array([float(f_ratios[b].sum()) for b in bins])
    bin_accept = np.divide(bin_w, bin_f, out=np.zeros_like(bin_w),
                           where=bin_f > 0)
    bin_bound = np.array([float(bounds[b[0]]) for b in bins])  # decreasing in m
    # Neyman allocation with the Markov bound as the sigma proxy; every bin
    # with weight gets at least one draw so nothing silently drops out
    sigma_proxy = np.sqrt(bin_bound * (1.0 - bin_bound / 2.0))
    alloc_score = bin_w * sigma_proxy
    total_score = float(alloc_score.sum())
    targets = np.zeros(len(bins), dtype=np.int64)
    if total_score > 0.0:
        targets[:] = np.round(cfg.samples * alloc_score / total_score).astype(np.int64)
        targets[(targets == 0) & (alloc_score > 0)] = 1

    def run_stream(idx: int):
        rng = substream(cfg.seed, _STRATUM_STREAM, idx)
        shares = np.array([split_budget(int(t), cfg.streams)[idx] for t in targets])
        accepted = np.zeros(len(bins), dtype=np.int64)
        empty = np.zeros(0, dtype=np.int64)
        z_parts, age_parts = [empty], [empty]
        attempts = 0
        for _round in range(4):
            final = _round == 3
            plan = np.zeros(window + 1, dtype=np.int64)
            for b in np.flatnonzero((shares > accepted) & (bin_accept > 0.0)):
                short = int(shares[b] - accepted[b])
                # early rounds aim straight at the shortfall (keeping the
                # accepted count near the budget); the last round adds a
                # margin to close out with high probability; cohort ages
                # inside a bin are drawn from the pre-acceptance measure so
                # accepted draws follow the exact within-bin mixture
                margin = 3.0 * math.sqrt(short) + 5.0 if final else 0.0
                tries = int(math.ceil((short + margin) / bin_accept[b]))
                q = f_ratios[bins[b]]
                plan[bins[b]] += rng.multinomial(tries, q / q.sum())
            if not plan.any():
                break
            attempts += int(plan.sum())
            # a line of cohort age m: an immigration draw branched m
            # generations, kept if it survives
            line_age = np.repeat(np.arange(window + 1), plan)
            starts = model.immigration.sample(line_age.shape[0], rng)
            z, alive = _run_lines(model.offspring, starts, line_age, rng)
            z_parts.append(z)
            age_parts.append(line_age[alive])
            accepted += np.bincount(bin_of_age[age_parts[-1]], minlength=len(bins))
        z, age = np.concatenate(z_parts), np.concatenate(age_parts)
        # each accepted cohort plus an independent younger process Y_m
        y, trips = simulate_Y_batch(model, age, 0, rng)
        line_bin = bin_of_age[age]
        return (np.bincount(line_bin[z + y <= k], minlength=len(bins)),
                np.bincount(line_bin, minlength=len(bins)), attempts, trips)

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
