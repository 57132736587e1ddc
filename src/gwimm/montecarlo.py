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


def simulate_Y_batch(model, n: int, initial: int, size: int, rng,
                     max_population: int = MAX_POPULATION):
    """`size` independent draws of Y_n given Y_0 = initial.

    Per generation one vectorized offspring-sum draw plus one immigration
    draw.  Populations crossing the guard are capped and counted; the
    trajectory continues on the capped value (reported, not fatal).
    """
    offspring, immigration = _resolve_laws(model)
    pops = np.full(size, initial, dtype=np.int64)
    trips = 0
    for _ in range(n):
        pops = offspring.sample_sum(pops, rng) + immigration.sample(size, rng)
        over = pops > max_population
        if np.any(over):
            trips += int(np.count_nonzero(over))
            pops[over] = max_population
    return pops, trips


def simulate_Y_streams(model, n: int, initial: int, cfg: SimConfig, jobs: int = 1,
                       purpose: int = _SIMULATE_STREAM) -> list[tuple[np.ndarray, int]]:
    """cfg.samples draws of Y_n given Y_0 = initial, as (draws, guard trips)
    per substream (cfg.seed, purpose, i), in stream-index order; stream i
    takes split_budget(cfg.samples, cfg.streams)[i] of them.  `jobs`
    threads only fan the streams out."""
    sizes = split_budget(cfg.samples, cfg.streams)

    def run_stream(idx: int):
        if sizes[idx] == 0:
            return np.zeros(0, dtype=np.int64), 0
        return simulate_Y_batch(model, n, initial, sizes[idx],
                                substream(cfg.seed, purpose, idx))

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_stream, range(cfg.streams)))
    return [run_stream(i) for i in range(cfg.streams)]


def _gw_line_batch(offspring: Law, starts: np.ndarray, gens: int, rng):
    """Run `gens` offspring-only generations from the given start counts.

    Dead lines are compacted away each generation (work is proportional to
    the number still alive).  Returns (surviving values, their indices
    into `starts`).
    """
    counts = starts.astype(np.int64, copy=True)
    idx = np.arange(counts.shape[0])
    alive = counts > 0
    counts, idx = counts[alive], idx[alive]
    for _ in range(gens):
        if counts.shape[0] == 0:
            break
        counts = offspring.sample_sum(counts, rng)
        alive = counts > 0
        counts, idx = counts[alive], idx[alive]
    return counts, idx


def simulate_theta_batch(model, n: int, size: int, rng) -> np.ndarray:
    """`size` draws of theta_n; the atom is encoded as 0."""
    offspring, immigration = _resolve_laws(model)
    out = np.zeros(size, dtype=np.int64)
    undecided = np.arange(size)
    for i in range(1, n + 1):
        if undecided.size == 0:
            break
        z = immigration.sample(undecided.size, rng).astype(np.int64)
        _, alive_idx = _gw_line_batch(offspring, z, n - i, rng)
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


def _markov_tail_bound(cache: IterateCache, m: int, k: int) -> float:
    """Computable upper bound on P(Y_m <= k) from the pgf Markov chain
    (monotone product shortened to the cache horizon)."""
    if k < 0:
        return 0.0
    if m <= k or k < 1:
        return 1.0
    fk = cache.fj0[k]
    if fk <= 0.0:
        return 1.0
    val = cache.logF_pos[m] - cache.logF_pos[k] - k * math.log(fk)
    if cache.zero_factors[m] != cache.zero_factors[k]:
        return 0.0
    return min(1.0, math.exp(val))


def _run_survivor_attempts(model: Model, plan: dict[int, int], rng
                           ) -> dict[int, list]:
    """One round of cohort-line attempts: plan[m] lines are started from an
    immigration draw and branched m generations.  All ages share one
    generation loop (one offspring draw per generation over the union of
    still-active lines), so the rng-call count scales with the maximal age
    rather than the attempt count.  Returns {m: surviving values}.
    """
    accepted: dict[int, list] = {m: [] for m in plan}
    items = sorted((m, a) for m, a in plan.items() if a > 0)
    if not items:
        return accepted
    sid = np.concatenate([np.full(a, m, dtype=np.int64) for m, a in items])
    vals = model.immigration.sample(sid.shape[0], rng).astype(np.int64)
    rem = sid.copy()  # age doubles as generations still to run
    while vals.shape[0]:
        done = rem == 0
        if np.any(done):
            ok = done & (vals > 0)
            for m in np.unique(sid[ok]):
                accepted[int(m)].extend(vals[ok & (sid == m)].tolist())
            keep = ~done
            vals, rem, sid = vals[keep], rem[keep], sid[keep]
            if vals.shape[0] == 0:
                break
        vals = model.offspring.sample_sum(vals, rng)
        rem -= 1
        alive = vals > 0
        vals, rem, sid = vals[alive], rem[alive], sid[alive]
    return accepted


def _younger_populations(model: Model, need: dict[int, int], rng
                         ) -> tuple[dict[int, np.ndarray], int]:
    """Draws of Y_m (from zero) for several ages m in one shared loop.

    A line needing m generations joins the loop m steps before the end, so
    every line sees exactly its own number of immigration-plus-branching
    steps.  Returns ({m: draws}, guard trips).
    """
    ages = sorted((m for m, c in need.items() if c > 0), reverse=True)
    if not ages:
        return {m: np.zeros(0, dtype=np.int64) for m in need}, 0
    T = ages[0]
    vals = np.zeros(0, dtype=np.int64)
    sid = np.zeros(0, dtype=np.int64)
    trips = 0
    join = {T - m: m for m in ages}
    for step in range(T):
        m = join.get(step)
        if m is not None:
            vals = np.concatenate([vals, np.zeros(need[m], dtype=np.int64)])
            sid = np.concatenate([sid, np.full(need[m], m, dtype=np.int64)])
        vals = model.offspring.sample_sum(vals, rng) + model.immigration.sample(
            vals.shape[0], rng
        )
        over = vals > MAX_POPULATION
        if np.any(over):
            trips += int(np.count_nonzero(over))
            vals[over] = MAX_POPULATION
    out = {m: vals[sid == m] for m in ages}
    if 0 in need:
        out[0] = np.zeros(need[0], dtype=np.int64)
    return out, trips


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
    geometric band of ages deeper in; weights are exact from the cache,
    within-band ages are drawn proportionally to their exact weights, and
    the conditional indicator is estimated by rejection-sampled surviving
    cohorts plus independent younger-process copies.  Strata beyond the
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
    atom = cache.F_ratio(n, 0)

    ages = np.arange(0, n)
    f_ratios = np.array([cache.F_ratio(n, int(m) + 1) for m in ages])
    weights = cache.one_minus_hfj0[ages] * f_ratios
    bounds = np.array([
        min(1.0, _markov_tail_bound(cache, int(m), k - 1)) for m in ages
    ])
    window = int(min(n - 1, math.floor(k / epsilon)))
    bracket = float(np.dot(weights[window + 1:], bounds[window + 1:]))

    bins = _age_bins(window, k)
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
        shares = [split_budget(int(t), cfg.streams)[idx] for t in targets]
        pending = dict(enumerate(shares))
        z_lists: dict[int, list] = {}
        accepted = np.zeros(len(bins), dtype=np.int64)
        attempts_total = 0
        age_to_bin = {}
        for b, bin_ages in enumerate(bins):
            for m in bin_ages:
                age_to_bin[int(m)] = b
        for _round in range(4):
            plan: dict[int, int] = {}
            final = _round == 3
            for b, short in pending.items():
                if short <= 0 or bin_accept[b] <= 0.0:
                    continue
                # early rounds aim straight at the shortfall (keeping the
                # accepted count near the budget); the last round adds a
                # margin to close out with high probability; cohort ages
                # inside a bin are drawn from the pre-acceptance measure so
                # accepted draws follow the exact within-bin mixture
                margin = 3.0 * math.sqrt(short) + 5.0 if final else 0.0
                tries = int(math.ceil((short + margin) / bin_accept[b]))
                bin_ages = bins[b]
                if bin_ages.shape[0] == 1:
                    plan[int(bin_ages[0])] = plan.get(int(bin_ages[0]), 0) + tries
                else:
                    q = f_ratios[bin_ages]
                    counts = rng.multinomial(tries, q / q.sum())
                    for m, c in zip(bin_ages, counts):
                        if c > 0:
                            plan[int(m)] = plan.get(int(m), 0) + int(c)
            if not plan:
                break
            attempts_total += sum(plan.values())
            got = _run_survivor_attempts(model, plan, rng)
            for m, vals_m in got.items():
                if vals_m:
                    z_lists.setdefault(m, []).extend(vals_m)
                    accepted[age_to_bin[m]] += len(vals_m)
            pending = {
                b: shares[b] - int(accepted[b])
                for b in range(len(bins))
                if shares[b] - int(accepted[b]) > 0
            }
        if not z_lists:
            return {}, attempts_total, 0
        need = {m: len(v) for m, v in z_lists.items()}
        y_draws, trips = _younger_populations(model, need, rng)
        stats: dict[int, list] = {}
        for m, zv in z_lists.items():
            z = np.asarray(zv, dtype=np.int64)
            hits = int(np.count_nonzero(z + y_draws[m] <= k))
            agg = stats.setdefault(age_to_bin[m], [0, 0])
            agg[0] += hits
            agg[1] += int(z.shape[0])
        return stats, attempts_total, trips

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            per_stream = list(pool.map(run_stream, range(cfg.streams)))
    else:
        per_stream = [run_stream(i) for i in range(cfg.streams)]

    hits = np.zeros(len(bins), dtype=np.int64)
    draws = np.zeros(len(bins), dtype=np.int64)
    attempts_total = 0
    trips_total = 0
    for stats, attempts, trips in per_stream:
        attempts_total += attempts
        trips_total += trips
        for b, (h, d) in stats.items():
            hits[b] += h
            draws[b] += d

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
