"""The measured passes of one workload run.

    python3 perfbench/worker.py --workload NAME --seed N --dir RUN_DIR
                                [--until T --deadline D --min-passes M]
                                [--trace] [--smoke] [--setup-only]

Started by run.py.  After set-up (import, model specs, query set) it forks
one child per pass, one at a time, so every pass starts from the state a
user's script is in when its first query is ready: the iterate store and the
heavy-law splines are cold, and no pass pays for interpreter start-up again.
Passes go on while the next one, judged by the fastest so far, still ends
before the monotonic time T, until at least M have run, and never past the
monotonic time D; with --trace, untraced and traced passes alternate.
--setup-only stops once the first query is ready.

Writes RUN_DIR/worker.json (time ready, the passes run) and, per pass,
RUN_DIR/passI/result.json (plus spans.json when traced); prints nothing on
success.  A pass's peak_rss_mb is the forked child's peak resident set: the
pages it shares with the worker count once the child maps them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

MAX_PASSES = 40


def measure(spec, models, model_paths, pass_dir, traced, first):
    """One pass of the query set (inside the forked child).  Known-defect
    queries run in the first pass only: they are checked, not timed."""
    import workloads

    queries = [q for q in spec["queries"] if first or q["id"] not in spec["known_defects"]]

    tracer = None
    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    latencies, raws = [], []
    t_first = time.perf_counter()
    for q in queries:
        out_path = os.path.join(pass_dir, f"{q['id']}.out")
        if tracer is not None:
            tracer.query = q["id"]
        t0 = time.perf_counter()
        try:
            raw = workloads.run_query(q, models, model_paths, out_path)
        except Exception as exc:  # a failing query is a result, not a crash
            raw = {"error": f"{type(exc).__name__}: {exc}"}
        latencies.append(time.perf_counter() - t0)
        raws.append(raw)
    wall = time.perf_counter() - t_first
    if tracer is not None:
        tracer.query = None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    records = {}
    for q, raw in zip(queries, raws):
        rec = {"error": raw["error"]} if "error" in raw else workloads.to_record(q, raw)
        out_path = os.path.join(pass_dir, f"{q['id']}.out")
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                rec["out_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        records[q["id"]] = rec

    result = {
        "wall_s": wall,
        "peak_rss_mb": rss_mb,
        "latencies": dict(zip((q["id"] for q in queries), latencies)),
        "records": records,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["top_level_s"] = tracer.top_level_s
        tracer.dump(os.path.join(pass_dir, "spans.json"))
    with open(os.path.join(pass_dir, "result.json"), "w") as fh:
        json.dump(result, fh)


def run_pass(spec, models, model_paths, pass_dir, traced, first):
    """Fork, run one pass in the child, wait for it; returns seconds taken."""
    os.mkdir(pass_dir)
    start = time.monotonic()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            measure(spec, models, model_paths, pass_dir, traced, first)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise SystemExit(f"pass in {pass_dir} failed ({code})")
    return time.monotonic() - start


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--until", type=float, default=0.0)
    ap.add_argument("--deadline", type=float, default=math.inf)
    ap.add_argument("--min-passes", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # set-up: import, model specs, query set
    import gwimm  # noqa: F401
    from gwimm.cli import load_model_spec

    import workloads

    spec = workloads.build(args.workload, args.seed, args.smoke)
    model_paths, models = {}, {}
    for key, doc in spec["models"].items():
        path = os.path.join(args.dir, f"model-{key}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        model_paths[key] = path
        models[key] = load_model_spec(path)
    ready = time.monotonic()

    passes = []
    fastest = math.inf
    while not args.setup_only:
        took = 0.0
        for traced in ((False, True) if args.trace else (False,)):
            pass_dir = os.path.join(args.dir, f"pass{len(passes)}")
            took += run_pass(spec, models, model_paths, pass_dir, traced, not passes)
            passes.append({"dir": pass_dir, "traced": traced})
        fastest = min(fastest, took)
        now = time.monotonic()
        rounds = len(passes) // (2 if args.trace else 1)
        if (rounds >= args.min_passes and now + fastest > args.until) or \
                rounds >= MAX_PASSES or now + took > args.deadline:
            break
    with open(os.path.join(args.dir, "worker.json"), "w") as fh:
        json.dump({"ready": ready, "passes": passes}, fh)


if __name__ == "__main__":
    main()
