"""gwimm benchmark: three closed-loop workloads, an oracle pass and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout (it imports ``src/gwimm``).  One
client in one process issues each query after the previous one returns.
Set-up (interpreter start to first query ready) is timed SETUP_SAMPLES
times; then one worker (worker.py) forks a child per pass from its ready
state, so every pass starts with the iterate stores and heavy-law splines
cold, and passes repeat while the next one still ends within S seconds and
until at least MIN_PASSES have run.  BLAS and OpenMP are held to one
thread.  Every pass runs the same queries in the same order, so a query's
latencies differ between passes only by what the host takes away: wall_s
is the sum over queries of each query's fastest latency.  Other figures
are medians over passes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, measured with
tracing off.  --trace 1 alternates untraced and traced passes and reports
the per-layer metrics; tracing overhead is traced minus untraced wall_s.
After the passes, the oracle pass (oracle.py, untimed) checks every output
of the first pass, and every later pass must reproduce it byte for byte.

The last line of stdout is the result object; earlier lines report the
machine, the sample counts, the query latency percentiles (printed, not
gated: on few-query workloads they follow single queries and spread more
between runs than any bound allows) and every failing query.  ``failed`` counts
queries that failed unexpectedly; the known defects listed per workload in
workloads.py are kept in the query set and counted in ``passed_frac`` (the
end-to-end metric; ``failed_frac`` = 1 - passed_frac is printed too), so a
fix shows as a rise, without making the run incorrect.  They run in the
first pass only and are not part of wall_s or of the per-layer figures: a
defect is tracked by its verdict, and one of them (exact-bpo4-n128, about
2 s) alone took more than half of a full-law pass, which left too few
passes in a run for steady figures.  Details, machine
record and the spans of the first traced pass go to perfbench/out/.

--smoke runs every workload at reduced size in both modes and asserts that
every metric of BENCHMARK.json is emitted with its unit and that the oracle
pass ran.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_PASSES = 3
SETUP_SAMPLES = 5  # set-ups per run: set-up-only starts and the measuring worker
DEADLINE_S = 160.0  # every run must end within 180 s
ORACLE_BUDGET_S = 30.0


def _benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _machine():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unavailable (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as fh:
                    commit = fh.read().strip()
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "commit": commit}


class Run:
    """The passes of one workload run, in a scratch directory of their own."""

    def __init__(self, workload, seed, smoke=False):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.spec = workloads.build(workload, seed, smoke)
        self.t0 = time.monotonic()
        self.work = tempfile.mkdtemp(prefix=".work-", dir=HERE)
        self.passes = []   # untraced
        self.traced = []
        self.setups = []   # seconds from worker start to first query ready

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def elapsed(self):
        return time.monotonic() - self.t0

    def start_worker(self, args):
        """Run worker.py with `args` in a directory of its own, record its
        set-up time and return its report (worker.json).  The worker and the
        pass it may have forked are killed together if the run overruns."""
        d = os.path.join(self.work, f"worker{len(self.setups)}")
        os.mkdir(d)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
               self.workload, "--seed", str(self.seed), "--dir", d] + args
        if self.smoke:
            cmd.append("--smoke")
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(10.0, DEADLINE_S + 15.0 - self.elapsed()))
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}):\n{err[-2000:]}")
        with open(os.path.join(d, "worker.json")) as fh:
            res = json.load(fh)
        self.setups.append(res["ready"] - spawn)
        return res

    def measure(self, seconds, trace):
        """Set-up samples first, then one worker that runs passes until
        `seconds` are spent, within the deadline; with tracing, untraced
        and traced passes alternate."""
        while not trace and len(self.setups) < SETUP_SAMPLES - 1:
            self.start_worker(["--setup-only"])
        args = ["--until", str(self.t0 + seconds),
                "--deadline", str(self.t0 + DEADLINE_S - ORACLE_BUDGET_S),
                "--min-passes", str(1 if trace else MIN_PASSES)]
        for p in self.start_worker(args + (["--trace"] if trace else []))["passes"]:
            with open(os.path.join(p["dir"], "result.json")) as fh:
                res = json.load(fh)
            res["dir"] = p["dir"]
            (self.traced if p["traced"] else self.passes).append(res)

    def check(self):
        """Oracle pass on the first pass, and byte-identity of the others."""
        import oracle

        first = self.passes[0]
        verdicts = oracle.check_pass(self.spec, first["records"], first["dir"])
        for other in self.passes[1:] + self.traced:
            for qid, rec in other["records"].items():
                if rec != first["records"][qid] and verdicts[qid]["ok"]:
                    verdicts[qid] = {"ok": False, "err": None, "facts": {},
                                     "detail": "output differs between passes"}
        return verdicts


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _best(passes, qid):
    """A query's fastest latency over the passes.  Every pass runs the same
    queries in the same order from a cold start, so they differ only by what
    the host takes away; the fastest is the query's own cost."""
    return min(p["latencies"][qid] for p in passes if qid in p["latencies"])


def _best_wall(run, passes):
    """Time to run the query set, known defects aside: the sum of the
    queries' fastest latencies.  Taken per query, not per pass, because a
    shared host slows this process by up to 2-3x in stretches of seconds to
    minutes, so hardly a whole pass runs undisturbed."""
    known = run.spec["known_defects"]
    return math.fsum(_best(passes, q["id"]) for q in run.spec["queries"]
                     if q["id"] not in known)


def end_to_end(run, verdicts):
    known = run.spec["known_defects"]
    lat = [v for p in run.passes for v in p["latencies"].values()]
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) >= 2 else lat[0]
    errs = [v["err"] for qid, v in verdicts.items()
            if v["err"] is not None and qid not in known]
    worst = max(errs) if errs else 0.0
    passed = sum(1 for v in verdicts.values() if v["ok"])
    return {
        "setup_s": _median(run.setups),
        "wall_s": _best_wall(run, run.passes),
        "query_p50_s": _median(lat),
        "query_p90_s": p90,
        "peak_rss_mb": _median([p["peak_rss_mb"] for p in run.passes]),
        "passed_frac": passed / len(verdicts),
        "min_correct_digits": min(16.0, -math.log10(max(worst, 1e-16))),
    }


def per_layer(run, verdicts):
    layers = {}
    for name in run.traced[0]["layers"]:
        layers[name] = _median([t["layers"][name] for t in run.traced])
    layers["trace.overhead_s"] = _best_wall(run, run.traced) - _best_wall(run, run.passes)
    layers["trace.top_level_coverage"] = _median(
        [t["top_level_s"] / t["wall_s"] for t in run.traced])
    # Monte Carlo cost to 1% relative error, from the untraced passes
    naive = strat = bracket = 0.0
    for q in run.spec["queries"]:
        facts = verdicts[q["id"]]["facts"]
        if q.get("method") is None or "p" not in facts:
            continue
        p, t = facts["p"], _best(run.passes, q["id"])
        if q["method"] == "naive":
            naive += t * p * (1.0 - p) / (facts["samples"] * (0.01 * p) ** 2)
        else:
            strat += t * (facts["stderr"] / (0.01 * p)) ** 2
            bracket = max(bracket, facts["bracket_high"] / p)
    layers["mc_s_to_1pct.naive"] = naive
    layers["mc_s_to_1pct.stratified"] = strat
    layers["bracket_rel.stratified"] = bracket
    return layers


def run_workload(workload, seed, seconds, trace, smoke=False):
    """Measure, check and report one workload; returns (result, detail)."""
    run = Run(workload, seed, smoke)
    try:
        run.measure(seconds, trace)
        verdicts = run.check()
        known = run.spec["known_defects"]
        unexpected = [qid for qid, v in verdicts.items() if not v["ok"] and qid not in known]
        metrics = per_layer(run, verdicts) if trace else end_to_end(run, verdicts)
        units = {m["name"]: m["unit"] for m in
                 _benchmark_spec()["per_layer" if trace else "end_to_end"]}
        n_passes = len(run.passes)
        result = {
            "correct": not unexpected,
            "attempted": sum(len(p["records"]) for p in run.passes),
            "failed": sum(qid in unexpected for p in run.passes for qid in p["records"]),
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }
        detail = {
            "workload": workload, "seed": seed, "trace": int(trace),
            "machine": _machine(), "passes": n_passes, "traced_passes": len(run.traced),
            "setup_samples": len(run.setups),
            "pass_wall_s": [p["wall_s"] for p in run.passes],
            "traced_wall_s": [t["wall_s"] for t in run.traced],
            "pass_latencies": [p["latencies"] for p in run.passes],
            "queries_per_pass": len(verdicts),
            "latency_samples": result["attempted"],
            "failed_frac": sum(not v["ok"] for v in verdicts.values()) / len(verdicts),
            "known_defects": {qid: {"reason": why, "failed": not verdicts[qid]["ok"],
                                    "detail": verdicts[qid]["detail"]}
                              for qid, why in known.items()},
            "unexpected_failures": {qid: verdicts[qid]["detail"] for qid in unexpected},
            "oracle": {qid: {"ok": v["ok"], "max_rel_err": v["err"], "detail": v["detail"]}
                       for qid, v in verdicts.items()},
            "all_metrics": metrics,
        }
        if not smoke:
            out = os.path.join(HERE, "out")
            os.makedirs(out, exist_ok=True)
            stem = os.path.join(out, f"{workload}-seed{seed}-trace{int(trace)}")
            with open(stem + ".json", "w") as fh:
                json.dump({"result": result, "detail": detail}, fh, indent=1)
            if run.traced:
                shutil.copy(os.path.join(run.traced[0]["dir"], "spans.json"),
                            stem + "-spans.json")
        return result, detail
    finally:
        run.close()


def report(result, detail):
    d = detail
    print(f"# {d['workload']} seed={d['seed']} trace={d['trace']} passes={d['passes']}"
          f" traced_passes={d['traced_passes']} setups={d['setup_samples']}"
          f" queries/pass={d['queries_per_pass']}"
          f" latency samples={d['latency_samples']}")
    print("# machine " + json.dumps(d["machine"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"#   {name:36s} {m['value']:.6g} {m['unit']}")
    for name in ("query_p50_s", "query_p90_s"):
        if name in d["all_metrics"]:
            print(f"#   {name:36s} {d['all_metrics'][name]:.6g} s "
                  f"(of {d['latency_samples']} latencies; not gated)")
    print(f"#   {'failed_frac':36s} {d['failed_frac']:.6g} ratio (known defects included)")
    for qid, kd in d["known_defects"].items():
        state = "fails" if kd["failed"] else "passes now"
        print(f"# known defect {qid}: {state}: {kd['reason']} {kd['detail']}")
    for qid, why in d["unexpected_failures"].items():
        print(f"# FAILED {qid}: {why}")


def smoke():
    """Every workload at reduced size, both modes; assert the metric set."""
    spec = _benchmark_spec()
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            result, detail = run_workload(workload, 1, 0, trace, smoke=True)
            want = spec["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            missing = [m["name"] for m in want
                       if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]
                       or not isinstance(got[m["name"]]["value"], (int, float))]
            if missing or set(got) != {m["name"] for m in want}:
                raise SystemExit(f"smoke: {workload} trace={trace}: metrics {missing}")
            if result["attempted"] < 1 or len(detail["oracle"]) != detail["queries_per_pass"]:
                raise SystemExit(f"smoke: {workload}: oracle pass did not run")
            if not result["correct"]:
                raise SystemExit(f"smoke: {workload}: {detail['unexpected_failures']}")
            print(f"smoke ok: {workload} trace={trace} "
                  f"({len(got)} metrics, {len(detail['oracle'])} queries checked)")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "gwimm", "__init__.py")):
        print("error: src/gwimm not found; run from the root of a gwimm checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    result, detail = run_workload(args.workload, args.seed, args.seconds, args.trace)
    report(result, detail)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
