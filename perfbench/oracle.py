"""Oracle pass: checks every query output of a pass, untimed.

Deterministic outputs are compared with an independent value and give a
relative error; a query fails when that error exceeds TOL, when it raised,
or when a CLI call exited nonzero.  Monte Carlo outputs are checked
statistically and carry no error figure.  References, by preference:

- closed forms: geometric offspring has f_j(0) = j/(j+1), so
  log F(n) = lgamma(n+1-q) - lgamma(1-q) - lgamma(n+1) for bernoulli(q)
  immigration and log F(n) = -lam * H_n for poisson(lam); the iterates
  f_m(z) = (m - (m-1) z)/((m+1) - m z) give |H_n| on the circle;
- exact rational enumeration (gwimm.oracles) for n <= 4 on bounded laws;
- an independent window engine below (numpy, or mpmath for a few
  poisson(4) coefficients) that composes h(f_m(s)) by the series
  exponential / reciprocal recurrences, with no pmf cut-off;
- the package's own engine at a wider window (4k) or its iterate cache,
  where no independent route is cheap.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np

TOL = 1e-9
# Monte Carlo checks fail only beyond this many standard errors, or below
# this binomial tail probability, so a correct estimator fails ~never.
Z_MAX = 5.0
P_MIN = 1e-7


def rel_err(value, ref):
    if ref == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return abs(value - ref) / abs(ref)


def _params(law):
    return law.get("params", {})


# -- independent references -----------------------------------------------------

def _geo_iterate(m, K, xp):
    """Coefficients 0..K of the m-th iterate of 1/(2-s)."""
    if m == 0:
        return [xp(0), xp(1)] + [xp(0)] * (K - 1) if K >= 1 else [xp(0)]
    a, b = xp(m), xp(m + 1)
    out = [a / b]
    for j in range(1, K + 1):
        out.append(a ** (j - 1) / b ** (j + 1))
    return out


def _conv(a, b, K):
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(K + 1)]


def _apply_imm(law, g, K, xp, exp):
    """Coefficients of h(g(s)) by recurrences on the full law (no cut)."""
    fam, p = law["family"], _params(law)
    if fam == "bernoulli01":
        q = xp(p["q1"])
        return [1 - q + q * g[0]] + [q * x for x in g[1:]]
    if fam == "poisson":
        lam = xp(p["mean"])
        a = [lam * (g[0] - 1)] + [lam * x for x in g[1:]]
        e = [exp(a[0])]
        for k in range(1, K + 1):
            e.append(sum(j * a[j] * e[k - j] for j in range(1, k + 1)) / k)
        return e
    if fam == "geometric-critical":
        d = 2 - g[0]
        r = [1 / d]
        for k in range(1, K + 1):
            r.append(sum(g[j] * r[k - j] for j in range(1, k + 1)) / d)
        return r
    raise ValueError(f"no independent reference for immigration {fam}")


def _next_offspring(doc, g, m, K, xp):
    fam = doc["offspring"]["family"]
    if fam == "geometric-critical":
        return _geo_iterate(m + 1, K, xp)
    if fam == "binary":
        sq = _conv(g, g, K)
        return [(1 + sq[0]) / 2] + [x / 2 for x in sq[1:]]
    raise ValueError(f"no independent reference for offspring {fam}")


def reference_window_mp(doc, n, K):
    """Coefficients 0..K of prod_{m<n} h(f_m(s)) in 40-digit mpmath."""
    import mpmath

    mpmath.mp.dps = 40
    xp, exp = mpmath.mpf, mpmath.exp
    g = [xp(0), xp(1)] + [xp(0)] * (K - 1) if K >= 1 else [xp(0)]
    acc = [xp(1)] + [xp(0)] * K
    for m in range(n):
        acc = _conv(acc, _apply_imm(doc["immigration"], g, K, xp, exp), K)
        g = _next_offspring(doc, g, m, K, xp)
    return [float(x) for x in acc]


def reference_window_fast(doc, n, K):
    """reference_window_mp in float64 with numpy convolutions."""
    imm = doc["immigration"]
    g = np.zeros(K + 1)
    if K >= 1:
        g[1] = 1.0
    acc = np.zeros(K + 1)
    acc[0] = 1.0
    js = np.arange(K + 1, dtype=float)
    for m in range(n):
        fam, p = imm["family"], _params(imm)
        if fam == "bernoulli01":
            h = p["q1"] * g
            h[0] += 1.0 - p["q1"]
        elif fam == "poisson":
            ja = js * p["mean"] * g
            h = np.empty(K + 1)
            h[0] = math.exp(p["mean"] * (g[0] - 1.0))
            for k in range(1, K + 1):
                h[k] = np.dot(ja[1:k + 1], h[k - 1::-1]) / k
        else:
            h = np.array(_apply_imm(imm, list(g), K, float, math.exp))
        acc = np.convolve(acc, h)[: K + 1]
        if doc["offspring"]["family"] == "binary":
            g = 0.5 * np.convolve(g, g)[: K + 1]
            g[0] += 0.5
        else:
            g = np.array(_geo_iterate(m + 1, K, float))
    return acc


def closed_log_F(doc, ns):
    """log F(n) in closed form for geometric offspring, else None.  Evaluated
    in 40-digit mpmath: the float lgamma difference loses ~1e-9 at n = 1e6."""
    if doc["offspring"]["family"] != "geometric-critical":
        return None
    import mpmath

    mpmath.mp.dps = 40
    imm = doc["immigration"]
    if imm["family"] == "bernoulli01":
        q = mpmath.mpf(_params(imm)["q1"])
        return [float(mpmath.loggamma(n + 1 - q) - mpmath.loggamma(1 - q)
                      - mpmath.loggamma(n + 1)) for n in ns]
    if imm["family"] == "poisson":
        lam = mpmath.mpf(_params(imm)["mean"])
        return [float(-lam * mpmath.harmonic(n)) for n in ns]
    return None


def _bounded_probs(law):
    fam, p = law["family"], _params(law)
    if fam == "binary":
        return [0.5, 0.0, 0.5]
    if fam == "bernoulli01":
        return [1.0 - p["q1"], p["q1"]]
    return None


# -- CSV outputs ------------------------------------------------------------------

def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Oracle:
    """Checks one pass's records; needs gwimm importable."""

    def __init__(self, spec):
        from gwimm.models import make_law, make_model

        self.spec = spec
        self.models = {key: make_model(make_law(doc["offspring"]), make_law(doc["immigration"]))
                       for key, doc in spec["models"].items()}
        self._F = {}

    # reference F(n): closed form where there is one, else the iterate cache
    def F(self, key, n):
        if (key, n) not in self._F:
            closed = closed_log_F(self.spec["models"][key], [n])
            if closed is not None:
                self._F[(key, n)] = math.exp(closed[0])
            else:
                from gwimm import extinction_iterates

                self._F[(key, n)] = float(extinction_iterates(self.models[key], n).F[n])
        return self._F[(key, n)]

    def check(self, q, rec, out_path):
        """-> (ok, max relative error or None, detail, facts)."""
        if "error" in rec:
            return False, None, rec["error"], {}
        handler = getattr(self, "_" + q["kind"])
        return handler(q, rec, out_path)

    @staticmethod
    def _verdict(errs, detail="", facts=None, ok=True):
        worst = max(errs.values()) if errs else 0.0
        if worst > TOL:
            ok = False
            detail = detail or "; ".join(f"{k} {v:.2e}" for k, v in errs.items() if v > TOL)
        return ok, worst, detail, facts or {}

    def _window_errs(self, q, window, n, K_ref):
        """Relative errors of coefficients 0..len(window)-1 of Y_n; laws
        without an independent window reference use the engine at K_ref."""
        key = q["model"]
        doc = self.spec["models"][key]
        errs = {"P(Y=0) vs F(n)": rel_err(window[0], self.F(key, n))}
        k = len(window) - 1
        off, imm = _bounded_probs(doc["offspring"]), _bounded_probs(doc["immigration"])
        if n <= 4 and off is not None and imm is not None:
            from gwimm.oracles import enumerate_population_pmf

            exact = enumerate_population_pmf(off, imm, n)
            errs["enumeration"] = max(rel_err(window[j], float(exact.get(j, 0)))
                                      for j in range(k + 1))
        if doc["immigration"]["family"] == "poisson":
            ref = reference_window_fast(doc, n, k)
            errs["exp-recurrence window"] = max(rel_err(window[j], ref[j])
                                                for j in range(k + 1))
            if _params(doc["immigration"])["mean"] == 4.0 and n <= 256:
                lo = min(k, 4)
                ref = reference_window_mp(doc, n, lo)
                errs["mpmath low coefficients"] = max(rel_err(window[j], ref[j])
                                                      for j in range(lo + 1))
        else:
            from gwimm import exact_pmf_Y

            ref = exact_pmf_Y(self.models[key], n, K_ref, deficit_ceiling=math.inf).probs
            errs[f"window vs K={K_ref}"] = max(rel_err(window[j], ref[j]) for j in range(k + 1))
        return errs

    def _window(self, q, rec, out_path):
        n, k = q["n"], q["k"]
        errs = self._window_errs(q, rec["window"], n, 4 * k)
        errs["theta atom vs F(n)"] = rel_err(rec["theta_atom"], self.F(q["model"], n))
        errs["theta total"] = abs(rec["theta_total"] - 1.0)
        if "joint_sum" in rec and k >= 1:
            errs["joint sum vs P(Y=k)"] = rel_err(rec["joint_sum"], rec["window"][k])
        ok = "main2" not in rec or (math.isfinite(rec["main2"]) and rec["main2"] > 0.0)
        return self._verdict(errs, "" if ok else "main2 not finite positive", ok=ok)

    def _window_cdf(self, q, rec, out_path):
        doc = self.spec["models"][q["model"]]
        ref = reference_window_fast(doc, q["n"], q["k"])
        p = math.fsum(ref)
        errs = {"P(Y<=k)": rel_err(rec["cdf_k"], p),
                "P(Y=0) vs F(n)": rel_err(rec["window"][0], self.F(q["model"], q["n"]))}
        return self._verdict(errs, facts={"p": p})

    def _pmf_Z(self, q, rec, out_path):
        doc = self.spec["models"][q["model"]]
        w = rec["window"]
        ref = reference_cohort(doc, q["m"], len(w) - 1)
        errs = {"cohort window": max(rel_err(w[j], ref[j]) for j in range(len(w)))}
        return self._verdict(errs)

    def _charfn(self, q, rec, out_path):
        doc = self.spec["models"][q["model"]]
        qq = _params(doc["immigration"])["q1"]
        t = np.linspace(0.0, math.pi, q["points"])
        z = np.exp(1j * t)[None, :]
        m = np.arange(q["n"], dtype=float)[:, None]
        f = (m - (m - 1.0) * z) / ((m + 1.0) - m * z)
        ref = np.exp(np.sum(np.log(np.abs(1.0 - qq + qq * f)), axis=0))
        errs = {"|H_n| vs closed-form iterates":
                max(rel_err(v, r) for v, r in zip(rec["modulus"], ref))}
        return self._verdict(errs)

    # -- CLI outputs ------------------------------------------------------------

    def _cli(self, q, rec, out_path):
        if rec.get("exit_code") != 0:
            return False, None, f"exit code {rec.get('exit_code')}", {}
        rows = read_csv(out_path)
        return getattr(self, "_cli_" + q["argv"][0].replace("-", "_"))(q, rows)

    def _cli_exact(self, q, rows):
        n = q["n"]
        probs = [float(r["prob"]) for r in rows]
        deficit = float(rows[-1]["deficit"])
        errs = self._window_errs(q, probs[:17], n, 16)
        errs["cumulative + deficit"] = abs(float(rows[-1]["cumulative"]) + deficit - 1.0)
        ok = deficit <= 1e-6
        return self._verdict(errs, "" if ok else f"deficit {deficit:.2e}", ok=ok)

    def _cli_theta(self, q, rows):
        key, n = q["model"], q["n"]
        atom = float(rows[-1]["prob"])
        probs = np.array([float(r["prob"]) for r in rows[:-1]])
        errs = {"atom vs F(n)": rel_err(atom, self.F(key, n)),
                "total": abs(math.fsum(probs.tolist()) + atom - 1.0)}
        log_F = closed_log_F(self.spec["models"][key], range(n + 1))
        if log_F is not None:
            log_F = np.asarray(log_F)
            qq = _params(self.spec["models"][key]["immigration"])["q1"]
            m = n - np.arange(1, n + 1)
            ref = qq / (m + 1.0) * np.exp(log_F[n] - log_F[m + 1])
            errs["P(theta=l) closed form"] = float(np.max(np.abs(probs - ref) / ref))
        return self._verdict(errs)

    def _cli_scan_L(self, q, rows):
        key = q["model"]
        doc, model = self.spec["models"][key], self.models[key]
        ns = [int(r["n"]) for r in rows]
        F = [float(r["F"]) for r in rows]
        L = [float(r["L"]) for r in rows]
        errs = {"L n^gamma F": max(rel_err(l * n ** model.gamma * f, 1.0)
                                   for n, f, l in zip(ns, F, L))}
        log_F = closed_log_F(doc, ns)
        if log_F is not None:
            errs["F closed form"] = max(rel_err(f, math.exp(r)) for f, r in zip(F, log_F))
        else:
            # recompute the smallest grid point from the laws' one_minus_pgf
            terms, u = [], 1.0
            for _ in range(ns[0]):
                terms.append(math.log1p(-model.immigration.one_minus_pgf(u)))
                u = model.offspring.one_minus_pgf(u)
            errs["F recomputed"] = rel_err(F[0], math.exp(math.fsum(terms)))
        return self._verdict(errs)

    def _cli_estimate(self, q, rows):
        from scipy import stats

        row = rows[0]
        doc = self.spec["models"][q["model"]]
        p = math.fsum(reference_window_fast(doc, q["n"], q["k"]))
        est, se = float(row["estimate"]), float(row["stderr"])
        N = int(row["samples"])
        facts = {"p": p, "stderr": se, "samples": N,
                 "bracket_high": float(row["bracket_high"])}
        if q["method"] == "naive":
            hits = round(est * N)
            tail = min(stats.binom.sf(hits - 1, N, p), stats.binom.cdf(hits, N, p))
            ok = bool(tail >= P_MIN)
            detail = "" if ok else f"naive {hits}/{N} hits, binomial tail {tail:.1e}"
        else:
            ok = bool(est - Z_MAX * se <= p <= est + facts["bracket_high"] + Z_MAX * se)
            detail = "" if ok else f"stratified {est:.3e} +- {se:.1e} vs {p:.3e}"
        return ok, None, detail, facts

    def _cli_simulate(self, q, rows):
        from scipy import stats

        doc = self.spec["models"][q["model"]]
        N = q["samples"]
        values = np.array([int(r["value"]) for r in rows])
        counts = np.array([int(r["count"]) for r in rows])
        if counts.sum() != N:
            return False, None, f"counts sum to {counts.sum()}, not {N}", {}
        cdf = np.cumsum(reference_window_fast(doc, q["n"], 64))
        for k in (0, 4, 16, 64):
            hits = int(counts[values <= k].sum())
            tail = min(stats.binom.sf(hits - 1, N, cdf[k]), stats.binom.cdf(hits, N, cdf[k]))
            if tail < P_MIN:
                return False, None, f"P(Y<={k}): {hits}/{N}, binomial tail {tail:.1e}", {}
        return True, None, "", {}


def reference_cohort(doc, m, K):
    """Coefficients 0..K of h(f_m(s)), float64."""
    g = np.zeros(K + 1)
    g[1] = 1.0
    for j in range(m):
        if doc["offspring"]["family"] == "binary":
            g = 0.5 * np.convolve(g, g)[: K + 1]
            g[0] += 0.5
        else:
            g = np.array(_geo_iterate(j + 1, K, float))
    return _apply_imm(doc["immigration"], list(g), K, float, math.exp)


def check_pass(spec, records, pass_dir):
    """{query id: {"ok", "err", "detail", "facts"}} for one pass."""
    oracle = Oracle(spec)
    out = {}
    for q in spec["queries"]:
        rec = records[q["id"]]
        ok, err, detail, facts = oracle.check(q, rec, os.path.join(pass_dir, f"{q['id']}.out"))
        out[q["id"]] = {"ok": ok, "err": err, "detail": detail, "facts": facts}
    return out
