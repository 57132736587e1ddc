"""Import hygiene: no module of the package imports scipy, and, each case
in a fresh interpreter, no engine path or CLI subcommand loads it or needs
it."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import gwimm


def run_fresh(code):
    src = os.path.dirname(os.path.dirname(os.path.abspath(gwimm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_no_module_imports_scipy():
    found = []
    for path in sorted(Path(gwimm.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_no_module_calls_convolve():
    # every truncated product is series.mul_padded, one padded correlate
    found = []
    for path in sorted(Path(gwimm.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "convolve":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


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


def test_heavy_paths_load_no_scipy(tmp_path):
    # both log-heavy laws built, their iterate stores filled to 2e4 (which
    # builds the tail splines), a heavy window and a heavy scan-L run
    spec = tmp_path / "heavy.json"
    spec.write_text(json.dumps({
        "offspring": {"family": "binary"},
        "immigration": {"family": "log-heavy-immigration", "params": {"beta": 1.5}},
    }))
    out = tmp_path / "scan.csv"
    loaded = run_fresh(f"""
import json, sys
import gwimm.cli
from gwimm import make_model
from gwimm.pgf import exact_pmf_Y, extinction_iterates
heavy = lambda family: {{"family": family, "params": {{"beta": 1.5}}}}
off = make_model(heavy("log-heavy-offspring"), {{"family": "bernoulli01", "params": {{"q1": 0.5}}}})
imm = make_model("binary", heavy("log-heavy-immigration"))
extinction_iterates(off, 20000)
extinction_iterates(imm, 20000)
assert off.offspring._spline is not None and imm.immigration._spline is not None
exact_pmf_Y(off, 256, 16, deficit_ceiling=float("inf"))
assert gwimm.cli.main(["scan-L", "--model", {str(spec)!r}, "--grid", "1000,20000",
                       "--out", {str(out)!r}]) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
""")
    assert loaded == []
    assert out.read_text().count("\n") == 3


def test_every_subcommand_runs_with_scipy_blocked(tmp_path):
    # sys.modules["scipy"] = None makes every scipy import raise ImportError
    bern = {"family": "bernoulli01", "params": {"q1": 0.5}}
    heavy = {"family": "log-heavy-immigration", "params": {"beta": 1.5}}
    specs = {
        "bin-bern": {"offspring": {"family": "binary"}, "immigration": bern},
        "bin-poisson": {"offspring": {"family": "binary"},
                        "immigration": {"family": "poisson", "params": {"mean": 4.0}}},
        "geo-bern": {"offspring": {"family": "geometric-critical"}, "immigration": bern},
        "bin-heavy": {"offspring": {"family": "binary"}, "immigration": heavy},
    }
    for name, spec in specs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(spec))
    sampling = ["--samples", "500", "--seed", "1"]
    runs = {
        "exact, series route": ["exact", "--model", "bin-bern", "--n", "64"],
        "exact, circle route": ["exact", "--model", "bin-poisson", "--n", "128"],
        "theta": ["theta", "--model", "geo-bern", "--n", "512"],
        "scan-L, light": ["scan-L", "--model", "geo-bern", "--grid", "100,10000"],
        "scan-L, heavy": ["scan-L", "--model", "bin-heavy", "--grid", "100,10000"],
        "simulate": ["simulate", "--model", "bin-bern", "--n", "64", *sampling],
        "estimate, naive": ["estimate", "--model", "geo-bern", "--n", "64", "--k", "4",
                            "--method", "naive", *sampling],
        "estimate, stratified": ["estimate", "--model", "geo-bern", "--n", "64", "--k", "4",
                                 "--method", "stratified", *sampling],
        "verify, desk": ["verify"],
    }
    for i, argv in enumerate(runs.values()):
        if "--model" in argv:
            at = argv.index("--model") + 1
            argv[at] = str(tmp_path / f"{argv[at]}.json")
        argv += ["--out", str(tmp_path / f"out-{i}.csv")]
    codes = run_fresh(f"""
import json, sys
sys.modules["scipy"] = None
from gwimm.cli import main
runs = {runs!r}
print(json.dumps({{label: main(argv) for label, argv in runs.items()}}))
""")
    assert codes == dict.fromkeys(runs, 0)
