"""Import hygiene, each case in a fresh interpreter: light laws never load
scipy at all; a log-heavy law loads only the spline module (with what it
needs) when built."""

import json
import os
import subprocess
import sys

import gwimm


def run_fresh(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(gwimm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_light_paths_load_no_scipy(tmp_path):
    # every light-law engine: both series walks, the circle route for a
    # full law and a cohort law, |H_n|, theta, the local asymptote and a
    # Monte Carlo estimate
    spec = tmp_path / "bpo.json"
    spec.write_text(json.dumps({
        "offspring": {"family": "binary"},
        "immigration": {"family": "poisson", "params": {"mean": 4.0}},
    }))
    loaded = run_fresh(f"""
import json, sys
import gwimm, gwimm.cli, gwimm.verify
from gwimm import make_model
from gwimm.asymptotics import main2_eval
from gwimm.montecarlo import SimConfig, estimate_lower_tail_naive
from gwimm.pgf import (charfn_modulus, exact_pmf_Y, exact_pmf_Z, extinction_iterates,
                       full_law_truncation)
from gwimm.theta import theta_pmf
bpo = gwimm.cli.load_model_spec({str(spec)!r})
bgeo = make_model("binary", "geometric-critical")
geo = make_model("geometric-critical", {{"family": "bernoulli01", "params": {{"q1": 0.5}}}})
exact_pmf_Y(bpo, 256, 64, deficit_ceiling=float("inf"))
exact_pmf_Y(bgeo, 256, 64, deficit_ceiling=float("inf"))
K = full_law_truncation(bpo, 128, 1e-8)
assert exact_pmf_Y(bpo, 128, K, deficit_ceiling=float("inf")).path == "circle"
exact_pmf_Z(bgeo, 1024, 6144)
charfn_modulus(geo, 1024, [0.1, 1.0, 3.0])
cache = extinction_iterates(geo, 4096)
theta_pmf(cache, 4096)
main2_eval(geo, cache, 4096, 16)
estimate_lower_tail_naive(geo, 64, 8, SimConfig(samples=200, seed=1))
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
""")
    assert loaded == []


def test_log_heavy_law_loads_stack_when_built():
    state = run_fresh("""
import json, sys
from gwimm import make_law
law = make_law({"family": "log-heavy-immigration", "params": {"beta": 1.5}})
print(json.dumps({"spline_built": law._spline is not None,
                  "loaded": [m for m in ("scipy.integrate", "scipy.interpolate")
                             if m in sys.modules]}))
""")
    assert state == {"spline_built": False, "loaded": ["scipy.interpolate"]}
