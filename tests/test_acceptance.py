"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line each.  Runs the same named checks as `gwimm verify`
at full scale (plus the CLI-level determinism exercise).

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines, or
via the CLI: `gwimm verify --scale full`.
"""

import json
import subprocess
import sys

import pytest

from gwimm.verify import run_checks


def _run(name: str):
    return run_checks([name], "full")[0]


def _report(criterion: str, res) -> None:
    print(f"ACCEPTANCE {criterion}: {res.verdict().upper():4s} "
          f"value={res.value:.4g} threshold={res.threshold:.4g} "
          f"[{res.seconds:.1f}s] {res.detail}")


def test_criterion_01_exact_engine_oracle_equivalence():
    res = _run("oracle-equivalence")
    _report("1 oracle-equivalence", res)
    assert res.passed
    assert res.seconds < 1.0  # stated runtime budget


def test_criterion_02_closed_form_pipeline():
    res = _run("normalization")
    _report("2 closed-form-pipeline", res)
    assert res.passed
    assert res.seconds < 1.0  # log-domain products keep this under a second


@pytest.mark.slow
def test_criterion_03_gamma_limit():
    res = _run("gamma-limit")
    _report("3 gamma-limit", res)
    assert res.passed


@pytest.mark.slow
def test_criterion_04_lower_deviation_local_ratio():
    res = _run("main2-ratio")
    _report("4 main2-ratio", res)
    assert res.passed


def test_criterion_05_theta_consistency():
    res = _run("theta-consistency")
    _report("5 theta-consistency", res)
    assert res.passed


@pytest.mark.slow
def test_criterion_06_monte_carlo_correctness():
    res = _run("mc-vs-exact")
    _report("6 mc-vs-exact", res)
    assert res.passed


def test_criterion_07_concentration_bounds():
    worst = None
    for name in ("lemma9-sup", "lemma10p-bound", "lemma8-decay"):
        res = _run(name)
        _report(f"7 {name}", res)
        assert res.passed
        if worst is None or res.value > worst.value:
            worst = res


def test_criterion_08_gw_local_limit():
    res = _run("gw-llt-ratio")
    _report("8 gw-llt-ratio", res)
    assert res.passed


@pytest.mark.slow
def test_criterion_09_slowly_varying_regimes():
    res = _run("lemma6-trend")
    _report("9 lemma6-trend", res)
    assert res.passed


def test_criterion_10_determinism(tmp_path):
    res = _run("determinism")
    _report("10 determinism (in-process)", res)
    assert res.passed
    # CLI-level reproduction: same (seed, streams) across runs and worker counts
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps({
        "offspring": {"family": "geometric-critical"},
        "immigration": {"family": "bernoulli01", "params": {"q1": 0.5}},
    }))
    blobs = []
    for jobs in ("1", "2", "1"):
        out = tmp_path / f"out{len(blobs)}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "gwimm.cli", "estimate",
             "--model", str(spec), "--n", "64", "--k", "8",
             "--samples", "3000", "--seed", "7", "--streams", "3",
             "--jobs", jobs, "--out", str(out)],
            capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        blobs.append(out.read_bytes())
    same = blobs[0] == blobs[1] == blobs[2]
    print(f"ACCEPTANCE 10 determinism (CLI bytes): {'PASS' if same else 'FAIL'}")
    assert same
