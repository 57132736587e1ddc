"""In-memory span tracer that wraps gwimm's public functions from outside.

The package itself is not modified: `Tracer.install()` replaces every module
attribute that binds a traced function (``gwimm.pgf.series_mul`` as well as
``gwimm.series.series_mul``, so calls between series routines are seen too)
and the `Law` methods on each class that defines them.

A span is (id, name, function, start, end, parent id, query id).  Spans with
traced children are kept one by one.  Leaf spans are frequent (one
``series.mul`` per Horner step, one ``models.one_minus_pgf`` per generation),
so they are folded into (name, parent, query, count, total seconds) records;
their durations still count as their parent's child time.  Self time is a
span's duration minus the time its children cover.  Busy time of a name
counts only its outermost span, so nesting a name inside itself is not
counted twice.  Work counts are computed from call arguments and results
only, never from inside the package.
"""

from __future__ import annotations

import functools
import json
import math
from collections import defaultdict
from time import perf_counter

import gwimm.series
from scipy import fft as sp_fft

# (module, attribute) -> span name.  Names absent from the module are skipped,
# so the tracer keeps working when the package drops a function.
FUNCTIONS = {
    "gwimm.series": {
        "series_mul": "series.mul",
        "series_square": "series.square",
        "series_pow": "series.pow",
        "series_recip": "series.recip",
        "series_compose_poly": "series.compose_poly",
    },
    "gwimm.models": {"make_law": "models.make", "make_model": "models.make"},
    "gwimm.pgf": {
        "extinction_iterates": "pgf.extinction_iterates",
        "exact_pmf_Y": "pgf.exact_pmf",
        "exact_pmf_Y_multi": "pgf.exact_pmf",
        "exact_pmf_Z": "pgf.exact_pmf",
        "step_pmf": "pgf.step_pmf",
        "charfn_modulus": "pgf.charfn_modulus",
    },
    "gwimm.theta": {
        "theta_pmf": "theta",
        "theta_survival": "theta",
        "joint_Y_theta": "theta",
        "joint_Y_theta_window": "theta",
    },
    "gwimm.asymptotics": {
        name: "asymptotics"
        for name in ("build_report_row", "gamma_limit_cdf", "mellein_local",
                     "main1_eval", "main2_eval", "main3_mu_estimate",
                     "gw_llt_eval", "conjecture_sup", "lemma5_ratio",
                     "lemma5_sandwich")
    },
    "gwimm.montecarlo": {
        "simulate_Y_batch": "montecarlo.simulate",
        "simulate_Y": "montecarlo.simulate",
        "simulate_theta": "montecarlo.simulate",
        "simulate_theta_batch": "montecarlo.simulate",
        "estimate_lower_tail_naive": "montecarlo.naive",
        "estimate_lower_tail_stratified": "montecarlo.stratified",
    },
    "gwimm.reporting": {"serialize": "reporting.serialize"},
    "gwimm.cli": {"main": "cli.main"},
}
LAW_METHODS = ("apply_to_series", "one_minus_pgf", "pgf", "sample", "sample_sum")


# -- work counts (all labelled "computed": derived from arguments only) -------

def _order(args, kwargs, pos):
    return int(args[pos] if len(args) > pos else kwargs["K"])


def _fft_flops(n_transforms: int, K: int) -> float:
    size = sp_fft.next_fast_len(2 * K + 1, real=True)
    return n_transforms * 2.5 * size * math.log2(size)


def _work_mul(tr, args, kwargs, result, outermost):
    K = _order(args, kwargs, 2)
    if K <= gwimm.series.DIRECT_CONV_MAX:
        la = min(len(args[0]), K + 1)
        lb = min(len(args[1]), K + 1)
        tr.count("series.flops_computed", la * lb)
    else:
        tr.count("series.mul.fft_calls")
        tr.count("series.flops_computed", _fft_flops(3, K))


def _work_square(tr, args, kwargs, result, outermost):
    K = _order(args, kwargs, 1)
    if K <= gwimm.series.DIRECT_CONV_MAX:
        la = min(len(args[0]), K + 1)
        tr.count("series.flops_computed", la * la)
    else:
        tr.count("series.square.fft_calls")
        tr.count("series.flops_computed", _fft_flops(2, K))


def _work_exact_pmf(tr, args, kwargs, result, outermost):
    if not outermost:
        return
    gens = args[1] if len(args) > 1 else kwargs.get("n", kwargs.get("ns", kwargs.get("m")))
    if hasattr(gens, "__iter__"):
        gens = max(gens)
    K = _order(args, kwargs, 2)
    tr.count("pgf.exact_pmf.coeffs", (K + 1) * int(gens))
    pmfs = result.values() if isinstance(result, dict) else [result]
    for pmf in pmfs:
        tr.maximum("pgf.deficit_max", float(pmf.deficit))


def _work_sample_sum(tr, args, kwargs, result, outermost):
    counts = args[1] if len(args) > 1 else kwargs["counts"]
    tr.count("models.sample_sum.draws", int(sum(counts)) if isinstance(counts, list)
             else int(counts.sum()))


def _work_estimate(tr, args, kwargs, result, outermost):
    tr.count("montecarlo.guard_trips", int(result.guard_trips))
    if result.method == "stratified":
        tr.count("montecarlo.stratified.attempts", int(result.attempts))
        tr.count("montecarlo.stratified.samples_used", int(result.samples_used))


def _work_serialize(tr, args, kwargs, result, outermost):
    tr.count("reporting.bytes", len(result.encode()))


WORK = {
    ("gwimm.series", "series_mul"): _work_mul,
    ("gwimm.series", "series_square"): _work_square,
    ("gwimm.pgf", "exact_pmf_Y"): _work_exact_pmf,
    ("gwimm.pgf", "exact_pmf_Y_multi"): _work_exact_pmf,
    ("gwimm.pgf", "exact_pmf_Z"): _work_exact_pmf,
    ("gwimm.montecarlo", "estimate_lower_tail_naive"): _work_estimate,
    ("gwimm.montecarlo", "estimate_lower_tail_stratified"): _work_estimate,
    ("gwimm.reporting", "serialize"): _work_serialize,
    ("Law", "sample_sum"): _work_sample_sum,
}


class Tracer:
    """Spans and counters for one process; `query` tags the spans opened
    while it is set."""

    def __init__(self):
        self.query = None
        self.spans = []          # [id, name, func, start, end, parent, query]
        self.leaves = []         # [name, parent, query, count, total_s]
        self.calls = defaultdict(int)     # outermost spans per name
        self.busy = defaultdict(float)    # outermost durations per name
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.top_level_s = 0.0
        self._stack = []
        self._depth = defaultdict(int)
        self._top_leaves = defaultdict(lambda: [0, 0.0])
        self._next_id = 0

    # -- counters -------------------------------------------------------------

    def count(self, name, value=1):
        self.counters[name] += value

    def maximum(self, name, value):
        self.counters[name] = max(self.counters.get(name, value), value)

    # -- spans ----------------------------------------------------------------

    def wrap(self, name, fn, work=None):
        stack, depth = self._stack, self._depth
        close = self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # frame: name, func, start, child seconds, id, leaf aggregates
            frame = [name, fn.__name__, 0.0, 0.0, None, None]
            depth[name] += 1
            stack.append(frame)
            frame[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] -= 1
                close(frame, end)
            if work is not None:
                work(self, args, kwargs, result, depth[name] == 0)
            return result

        return traced

    def _id(self, frame):
        if frame[4] is None:
            frame[4] = self._next_id
            self._next_id += 1
        return frame[4]

    def _close(self, frame, end):
        name = frame[0]
        dur = end - frame[2]
        self.self_s[name] += dur - frame[3]
        if self._depth[name] == 0:
            self.calls[name] += 1
            self.busy[name] += dur
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        else:
            self.top_level_s += dur
        if frame[5] is None and frame[4] is None:
            # leaf: fold into the parent (or the per-query top level)
            if parent is None:
                agg = self._top_leaves[(name, self.query)]
            else:
                if parent[5] is None:
                    parent[5] = defaultdict(lambda: [0, 0.0])
                agg = parent[5][name]
            agg[0] += 1
            agg[1] += dur
            return
        sid = self._id(frame)
        pid = self._id(parent) if parent is not None else None
        self.spans.append([sid, name, frame[1], frame[2], end, pid, self.query])
        for leaf, (count, total) in (frame[5] or {}).items():
            self.leaves.append([leaf, sid, self.query, count, total])

    # -- installation ---------------------------------------------------------

    def install(self):
        """Patch every gwimm namespace that binds a traced function, and the
        `Law` methods on every class that defines them."""
        import importlib
        import sys

        from gwimm.models import Law

        wrappers = {}
        for mod_name, names in FUNCTIONS.items():
            mod = importlib.import_module(mod_name)
            for attr, span in names.items():
                fn = getattr(mod, attr, None)
                if fn is not None:
                    wrappers[id(fn)] = (fn, self.wrap(span, fn, WORK.get((mod_name, attr))))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gwimm" and not mod_name.startswith("gwimm."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        classes, todo = [], [Law]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            for meth in LAW_METHODS:
                fn = cls.__dict__.get(meth)
                if fn is not None:
                    setattr(cls, meth, self.wrap(f"models.{meth}", fn,
                                                 WORK.get(("Law", meth))))

    # -- output ---------------------------------------------------------------

    def dump(self, path):
        """Write every span and leaf aggregate as one JSON document."""
        leaves = self.leaves + [[name, None, query, c, t]
                                for (name, query), (c, t) in self._top_leaves.items()]
        doc = {
            "span_fields": ["id", "name", "func", "start", "end", "parent", "query"],
            "spans": self.spans,
            "leaf_fields": ["name", "parent", "query", "count", "total_s"],
            "leaves": leaves,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))

    def layer_metrics(self) -> dict:
        """Per-layer numbers of this process, keyed by metric name."""
        c, b, s, k = self.calls, self.busy, self.self_s, self.counters
        attempts = k.get("montecarlo.stratified.attempts", 0.0)
        used = k.get("montecarlo.stratified.samples_used", 0.0)
        return {
            "series.mul.calls": c["series.mul"],
            "series.mul.busy_s": b["series.mul"],
            "series.mul.fft_calls": k.get("series.mul.fft_calls", 0.0),
            "series.square.busy_s": b["series.square"],
            "series.recip.busy_s": b["series.recip"],
            "series.compose_poly.busy_s": b["series.compose_poly"],
            "series.flops_computed": k.get("series.flops_computed", 0.0),
            "models.apply_to_series.calls": c["models.apply_to_series"],
            "models.apply_to_series.self_s": s["models.apply_to_series"],
            "models.one_minus_pgf.calls": c["models.one_minus_pgf"],
            "models.one_minus_pgf.busy_s": b["models.one_minus_pgf"],
            "pgf.extinction_iterates.busy_s": b["pgf.extinction_iterates"],
            "pgf.extinction_iterates.self_s": s["pgf.extinction_iterates"],
            "models.sample_sum.busy_s": b["models.sample_sum"],
            "models.sample_sum.draws": k.get("models.sample_sum.draws", 0.0),
            "montecarlo.naive.busy_s": b["montecarlo.naive"],
            "montecarlo.stratified.busy_s": b["montecarlo.stratified"],
            "montecarlo.stratified.self_s": s["montecarlo.stratified"],
            "montecarlo.stratified.attempts": attempts,
            "montecarlo.stratified.accept_ratio": used / attempts if attempts else 0.0,
            "montecarlo.guard_trips": k.get("montecarlo.guard_trips", 0.0),
            "pgf.exact_pmf.calls": c["pgf.exact_pmf"],
            "pgf.exact_pmf.self_s": s["pgf.exact_pmf"],
            "pgf.exact_pmf.coeffs": k.get("pgf.exact_pmf.coeffs", 0.0),
            "pgf.deficit_max": k.get("pgf.deficit_max", 0.0),
            "pgf.charfn_modulus.busy_s": b["pgf.charfn_modulus"],
            "theta.busy_s": b["theta"],
            "asymptotics.busy_s": b["asymptotics"],
            "reporting.serialize.busy_s": b["reporting.serialize"],
            "reporting.bytes": k.get("reporting.bytes", 0.0),
            "cli.main.self_s": s["cli.main"],
        }
