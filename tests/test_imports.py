"""Import hygiene, each case in a fresh interpreter: light laws never load
scipy's quadrature and spline stack; a log-heavy law loads only the spline
module when built."""

import json
import os
import subprocess
import sys

import gwimm

HEAVY_STACK = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.sparse")


def run_fresh(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(gwimm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_light_laws_leave_heavy_stack_unloaded(tmp_path):
    spec = tmp_path / "bpo.json"
    spec.write_text(json.dumps({
        "offspring": {"family": "binary"},
        "immigration": {"family": "poisson", "params": {"mean": 4.0}},
    }))
    loaded = run_fresh(f"""
import json, sys
import gwimm, gwimm.cli, gwimm.verify
from gwimm.pgf import exact_pmf_Y, extinction_iterates
model = gwimm.cli.load_model_spec({str(spec)!r})
exact_pmf_Y(model, 16, 512)
extinction_iterates(model, 256)
print(json.dumps([m for m in {HEAVY_STACK!r} if m in sys.modules]))
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
