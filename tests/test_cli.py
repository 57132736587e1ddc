import csv
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from gwimm import extinction_iterates, make_law, make_model
from gwimm import montecarlo as mc
from gwimm.cli import main
from gwimm.pgf import full_law_truncation
from gwimm.montecarlo import (
    SimConfig,
    estimate_lower_tail_stratified,
    simulate_Y_batch,
    substream,
)
from gwimm.reporting import rows_to_csv, serialize
from gwimm.theta import theta_survival


@pytest.fixture(scope="module")
def bin_bern_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "bin_bern.json"
    path.write_text(json.dumps({
        "offspring": {"family": "binary"},
        "immigration": {"family": "bernoulli01", "params": {"q1": 0.5}},
    }))
    return str(path)


@pytest.fixture(scope="module")
def geo_bern_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "geo_bern.json"
    path.write_text(json.dumps({
        "offspring": {"family": "geometric-critical"},
        "immigration": {"family": "bernoulli01", "params": {"q1": 0.5}},
    }))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestExact:
    def test_two_generation_table(self, bin_bern_spec, capsys):
        code, out = run_cli(
            ["exact", "--model", bin_bern_spec, "--n", "2", "--trunc", "3"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["prob"] for r in rows] == ["0.375", "0.375", "0.125", "0.125"]
        assert rows[-1]["cumulative"] == "1"

    def test_zero_generations_single_row(self, bin_bern_spec, capsys):
        code, out = run_cli(
            ["exact", "--model", bin_bern_spec, "--n", "0", "--initial", "4"],
            capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["k"] == "4" and rows[0]["prob"] == "1"

    def test_malformed_spec_names_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"offspring": {"family": "binary"}}))
        code = main(["exact", "--model", str(bad), "--n", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "immigration" in err

    def test_unknown_family_named(self, tmp_path, capsys):
        bad = tmp_path / "bad2.json"
        bad.write_text(json.dumps({
            "offspring": {"family": "binry"},
            "immigration": {"family": "bernoulli01", "params": {"q1": 0.5}},
        }))
        code = main(["exact", "--model", str(bad), "--n", "1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "binry" in err

    def test_deficit_guard_exit_code(self, geo_bern_spec, capsys):
        code = main(["exact", "--model", geo_bern_spec, "--n", "256",
                     "--trunc", "32"])
        err = capsys.readouterr().err
        assert code == 3
        assert "increase" in err

    @pytest.mark.parametrize("offspring, immigration, n", [
        ("geometric-critical", {"family": "bernoulli01", "params": {"q1": 0.5}}, 40),
        ("binary", {"family": "poisson", "params": {"mean": 2.0}}, 16),
        ("binary", {"family": "geometric-critical"}, 24),
    ])
    def test_default_truncation_is_the_engine_rule(self, offspring, immigration, n,
                                                   tmp_path, capsys):
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps({"offspring": {"family": offspring},
                                    "immigration": immigration}))
        code, out = run_cli(["exact", "--model", str(spec), "--n", str(n)], capsys)
        assert code == 0
        K = full_law_truncation(make_model(offspring, immigration), n, 1e-8)
        assert len(list(csv.DictReader(io.StringIO(out)))) == K + 1

    def test_negative_truncation_usage_error(self, bin_bern_spec, capsys):
        code, out = run_cli(
            ["exact", "--model", bin_bern_spec, "--n", "4", "--trunc", "-5"], capsys)
        assert code == 2
        assert out == ""

    def test_roundtrip_reingests_bit_identically(self, bin_bern_spec, capsys,
                                                 tmp_path):
        code, out = run_cli(
            ["exact", "--model", bin_bern_spec, "--n", "3", "--trunc", "7"],
            capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        probs = [float(r["prob"]) for r in rows]
        law = make_law({"family": "explicit", "probs": probs})
        respec = tmp_path / "re.json"
        respec.write_text(json.dumps({
            "offspring": {"family": "binary"},
            "immigration": {"family": "explicit", "probs": probs},
        }))
        code2, out2 = run_cli(
            ["exact", "--model", str(respec), "--n", "0"], capsys)
        assert code2 == 0
        assert np.array_equal(law.pmf_array(7), np.array(probs))


@pytest.mark.parametrize("argv", [
    ["exact", "--n", "0", "--initial", "-2"],
    ["simulate", "--n", "3", "--initial", "-1", "--samples", "10"],
])
def test_negative_initial_usage_error(argv, bin_bern_spec, capsys):
    code = main(argv + ["--model", bin_bern_spec])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--initial" in captured.err



@pytest.mark.parametrize("law, key", [
    ({"family": "binary", "params": 5}, "params"),
    ({"family": ["binary"]}, "family"),
    ({"family": "explicit", "probs": 1.0}, "probs"),
    ({"family": "explicit", "probs": [[0.5, 0.5]]}, "probs"),
])
def test_malformed_law_key_usage_error(law, key, tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({
        "offspring": law,
        "immigration": {"family": "bernoulli01", "params": {"q1": 0.5}},
    }))
    code = main(["exact", "--model", str(spec), "--n", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"'{key}'" in captured.err


class TestTheta:
    def test_columns_and_atom(self, geo_bern_spec, capsys):
        code, out = run_cli(["theta", "--model", geo_bern_spec, "--n", "2"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["l"] for r in rows] == ["1", "2", "atom"]
        assert [r["prob"] for r in rows] == ["0.25", "0.375", "0.375"]
        total = math.fsum(float(r["prob"]) for r in rows)
        assert abs(total - 1.0) < 1e-12

    def test_survival_column_matches_ratio(self, geo_bern_spec, capsys):
        code, out = run_cli(["theta", "--model", geo_bern_spec, "--n", "8"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        surv = [float(r["survival"]) for r in rows[:-1]]
        # survival[l] = P(theta > l) telescopes the pmf tail
        probs = [float(r["prob"]) for r in rows[:-1]]
        atom = float(rows[-1]["prob"])
        for l in range(8):
            tail = math.fsum(probs[l + 1:]) + atom
            assert surv[l] == pytest.approx(tail, abs=1e-14)

    def test_survival_column_matches_theta_survival(self, geo_bern_spec, geo_bern, capsys):
        n = 512
        code, out = run_cli(["theta", "--model", geo_bern_spec, "--n", str(n)], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        surv = np.array([float(r["survival"]) for r in rows[:-1]])
        cache = extinction_iterates(geo_bern, n)
        ref = np.array([theta_survival(cache, n, l) for l in range(1, n + 1)])
        np.testing.assert_array_max_ulp(surv, ref, maxulp=1)


class TestScanL:
    def test_geometric_limit(self, geo_bern_spec, capsys):
        code, out = run_cli(
            ["scan-L", "--model", geo_bern_spec, "--grid", "1000,10000"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        L = float(rows[-1]["L"])
        assert abs(L - math.sqrt(math.pi)) / math.sqrt(math.pi) < 0.005
        assert rows[0]["trend"] == "flat"

    def test_heavy_regime_flags(self, tmp_path, capsys):
        imm = tmp_path / "imm.json"
        imm.write_text(json.dumps({
            "offspring": {"family": "binary"},
            "immigration": {"family": "log-heavy-immigration",
                            "params": {"beta": 1.5}},
        }))
        code, out = run_cli(
            ["scan-L", "--model", str(imm), "--grid", "1000,10000"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["trend"] == "decreasing"
        off = tmp_path / "off.json"
        off.write_text(json.dumps({
            "offspring": {"family": "log-heavy-offspring", "params": {"beta": 1.5}},
            "immigration": {"family": "bernoulli01", "params": {"q1": 0.5}},
        }))
        code, out = run_cli(
            ["scan-L", "--model", str(off), "--grid", "1000,10000"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["trend"] == "increasing"

    def test_bad_grid(self, geo_bern_spec, capsys):
        code = main(["scan-L", "--model", geo_bern_spec, "--grid", "10,x"])
        assert code == 2

    def test_refuses_a_law_without_zero_immigration(self, tmp_path, capsys):
        # q0 = 0 makes h(f_0(0)) = 0, so F(n) = P(Y_n = 0) = 0 at every n >= 1
        spec = tmp_path / "q0.json"
        spec.write_text(json.dumps({
            "offspring": {"family": "binary"},
            "immigration": {"family": "explicit", "probs": [0.0, 0.5, 0.5]},
        }))
        for fmt in ("csv", "json"):
            code = main(["scan-L", "--model", str(spec), "--grid", "10,100",
                         "--format", fmt])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "P(Y_n = 0) = 0 at n=10" in captured.err


class TestSimulateEstimate:
    def test_simulate_deterministic_bytes(self, bin_bern_spec, tmp_path):
        outs = []
        for i in range(2):
            path = tmp_path / f"sim{i}.csv"
            code = main(["simulate", "--model", bin_bern_spec, "--n", "16",
                         "--samples", "4000", "--seed", "5", "--streams", "4",
                         "--out", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_estimate_deterministic_across_jobs(self, bin_bern_spec, tmp_path):
        outs = []
        for jobs in ("1", "3"):
            path = tmp_path / f"est{jobs}.json"
            code = main(["estimate", "--model", bin_bern_spec, "--n", "64",
                         "--k", "8", "--samples", "4000", "--seed", "5",
                         "--streams", "4", "--jobs", jobs, "--format", "json",
                         "--out", str(path)])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_estimate_columns_echo_seed(self, bin_bern_spec, capsys):
        code, out = run_cli(
            ["estimate", "--model", bin_bern_spec, "--n", "16", "--k", "4",
             "--samples", "1000", "--seed", "12", "--method", "naive"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["seed"] == "12"
        assert rows[0]["method"] == "naive"

    def test_estimate_rows_report_attempts(self, bin_bern_spec, capsys):
        code, out = run_cli(
            ["estimate", "--model", bin_bern_spec, "--n", "16", "--k", "4",
             "--samples", "1000", "--seed", "3", "--method", "both"], capsys)
        assert code == 0
        rows = {r["method"]: r for r in csv.DictReader(io.StringIO(out))}
        # the naive estimator simulates one path per sample
        assert rows["naive"]["attempts"] == "1000"
        model = make_model("binary", {"family": "bernoulli01", "params": {"q1": 0.5}})
        res = estimate_lower_tail_stratified(
            model, extinction_iterates(model, 16), 16, 4, SimConfig(samples=1000, seed=3))
        assert res.attempts > 0
        assert int(rows["stratified"]["attempts"]) == res.attempts

    def test_simulate_follows_documented_streams(self, bin_bern_spec, bin_bern, capsys):
        # stream i draws from substream (seed, purpose 0, i); the budget splits
        # equally, the remainder one each to the lowest stream indices
        code, out = run_cli(["simulate", "--model", bin_bern_spec, "--n", "16",
                             "--samples", "4002", "--seed", "5", "--streams", "4"],
                            capsys)
        assert code == 0
        draws = [simulate_Y_batch(bin_bern, np.full(size, 16), 0, substream(5, 0, i))[0]
                 for i, size in enumerate([1001, 1001, 1000, 1000])]
        counts = np.bincount(np.concatenate(draws))
        rows = list(csv.DictReader(io.StringIO(out)))
        assert {int(r["value"]): int(r["count"]) for r in rows} == {
            v: int(c) for v, c in enumerate(counts) if c > 0}

    def test_zero_epsilon_usage_error(self, bin_bern_spec, capsys):
        code = main(["estimate", "--model", bin_bern_spec, "--n", "8", "--k", "2",
                     "--samples", "100", "--method", "stratified", "--epsilon", "0"])
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_usage_error(self, jobs, bin_bern_spec, capsys):
        code = main(["estimate", "--model", bin_bern_spec, "--n", "8", "--k", "2",
                     "--samples", "100", "--jobs", jobs])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--jobs" in captured.err

    def test_estimate_log_heavy_offspring(self, tmp_path, capsys):
        # the regime where sum k^2 log k p_k diverges: both estimators run
        # and agree within three standard errors plus the bias bracket
        spec = tmp_path / "heavy_off.json"
        spec.write_text(json.dumps({
            "offspring": {"family": "log-heavy-offspring", "params": {"beta": 1.5}},
            "immigration": {"family": "bernoulli01", "params": {"q1": 0.5}},
        }))
        code, out = run_cli(["estimate", "--model", str(spec), "--n", "64", "--k", "4",
                             "--samples", "4000", "--seed", "1", "--method", "both"],
                            capsys)
        assert code == 0
        rows = {r["method"]: r for r in csv.DictReader(io.StringIO(out))}
        naive, strat = rows["naive"], rows["stratified"]
        sigma = math.hypot(float(naive["stderr"]), float(strat["stderr"]))
        gap = abs(float(naive["estimate"]) - float(strat["estimate"]))
        assert gap <= 3 * sigma + float(strat["bracket_high"])

    def test_zero_samples_usage_error(self, bin_bern_spec, capsys):
        code = main(["estimate", "--model", bin_bern_spec, "--n", "8",
                     "--k", "2", "--samples", "0"])
        assert code == 2

    @pytest.mark.parametrize("k, method", [
        ("-1", "naive"), ("-1", "both"), ("0", "both"), ("0", "stratified"),
    ])
    def test_bad_k_usage_error_before_sampling(self, k, method, bin_bern_spec,
                                               capsys, monkeypatch):
        def sampled(*args, **kwargs):
            raise AssertionError("an estimator ran before --k was checked")

        monkeypatch.setattr(mc, "estimate_lower_tail_naive", sampled)
        monkeypatch.setattr(mc, "estimate_lower_tail_stratified", sampled)
        code = main(["estimate", "--model", bin_bern_spec, "--n", "8", "--k", k,
                     "--samples", "100", "--method", method])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--k" in captured.err

    @pytest.mark.parametrize("epsilon, method", [
        ("0", "both"), ("-0.5", "both"), ("nan", "both"), ("0", "stratified"),
    ])
    def test_bad_epsilon_usage_error_before_sampling(self, epsilon, method, bin_bern_spec,
                                                     capsys, monkeypatch):
        def sampled(*args, **kwargs):
            raise AssertionError("an estimator ran before --epsilon was checked")

        monkeypatch.setattr(mc, "estimate_lower_tail_naive", sampled)
        monkeypatch.setattr(mc, "estimate_lower_tail_stratified", sampled)
        code = main(["estimate", "--model", bin_bern_spec, "--n", "8", "--k", "2",
                     "--samples", "100", "--method", method, "--epsilon", epsilon])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--epsilon" in captured.err

    def test_simulate_empirical_close_to_exact(self, bin_bern_spec, capsys):
        code, out = run_cli(
            ["simulate", "--model", bin_bern_spec, "--n", "2",
             "--samples", "200000", "--seed", "1"], capsys)
        rows = list(csv.DictReader(io.StringIO(out)))
        freq = {int(r["value"]): float(r["freq"]) for r in rows}
        for k, p in enumerate([0.375, 0.375, 0.125, 0.125]):
            assert abs(freq[k] - p) < 0.006


@pytest.mark.parametrize("argv, header", [
    (["exact", "--n", "2"], "k,prob,cumulative,deficit"),
    (["theta", "--n", "2"], "l,prob,survival"),
    (["scan-L", "--grid", "10,100"], "n,F,L,dlogL_dlogn,trend"),
    (["simulate", "--n", "2", "--samples", "10"], "n,samples,seed,streams,value,count,freq"),
    (["estimate", "--n", "8", "--k", "2", "--samples", "20"],
     "method,n,k,samples,seed,streams,estimate,stderr,samples_used,attempts,"
     "bracket_low,bracket_high,guard_trips"),
])
def test_csv_header_is_the_documented_column_order(argv, header, bin_bern_spec, capsys):
    code, out = run_cli(argv + ["--model", bin_bern_spec], capsys)
    assert code == 0
    assert out.splitlines()[0] == header


@pytest.mark.parametrize("family", ["log-heavy-immigration", "log-heavy-offspring"])
def test_log_heavy_beta_above_cap_usage_error(family, tmp_path, capsys):
    # beta = 2000 printed nan probabilities with exit 0
    law = {"family": family, "params": {"beta": 2000}}
    bern = {"family": "bernoulli01", "params": {"q1": 0.5}}
    spec = tmp_path / "heavy.json"
    spec.write_text(json.dumps({
        "offspring": law if family.endswith("offspring") else {"family": "binary"},
        "immigration": bern if family.endswith("offspring") else law,
    }))
    assert main(["exact", "--model", str(spec), "--n", "4", "--trunc", "16"]) == 2
    err = capsys.readouterr().err
    assert family in err and "beta" in err


class TestVerifyCommand:
    def test_only_filter(self, capsys):
        code, out = run_cli(["verify", "--only", "lemma4-ratio"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["check"] == "lemma4-ratio"
        assert rows[0]["verdict"] == "pass"

    def test_unknown_check_is_usage_error(self, capsys):
        code = main(["verify", "--only", "nope"])
        assert code == 2

    def test_json_mirrors_csv(self, capsys):
        code, out = run_cli(
            ["verify", "--only", "lemma4-ratio", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data[0]["check"] == "lemma4-ratio"


class TestSerialization:
    def test_seventeen_significant_digits(self):
        rows = [{"p": 1.0 / 3.0}]
        text = rows_to_csv(rows, ["p"])
        value = text.splitlines()[1]
        assert float(value) == 1.0 / 3.0

    def test_special_characters_round_trip(self):
        detail = 'max err 1e-13, at k=3; "window" ok'
        rows = [{"check": "a", "detail": detail}, {"check": "b", "detail": "plain"}]
        text = rows_to_csv(rows, ["check", "detail"])
        back = list(csv.DictReader(io.StringIO(text)))
        assert [r["detail"] for r in back] == [detail, "plain"]
        assert text.splitlines()[2] == "b,plain"

    def test_header_always_present(self):
        assert rows_to_csv([], ["a", "b"]).splitlines() == ["a,b"]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            serialize([], ["a"], "xml")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gwimm.cli", "verify", "--only", "lemma4-ratio"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "lemma4-ratio" in proc.stdout
