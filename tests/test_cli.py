"""CLI surface: schemas, exit codes, trace files, reproducibility, pipelines."""

import io
import json
import warnings

import numpy as np
import pytest

from parlmc import SamplerConfig, run
from parlmc.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, build_potential, main
from parlmc.metrics import theorem2_bound


def _write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "potential": {"kind": "quadratic", "precision_diag": [1.0, 10.0], "mean": [0.0, 0.0]},
        "sampler": "prlmc",
        "h": 0.005,
        "n": 12,
        "R": 2,
        "Q": 2,
        "seed": 7,
        "chains": 8,
        "record_every": 4,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(autouse=True)
def _quiet_preconditions():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        yield


class TestSample:
    def test_writes_trace_files(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sample", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        trace = json.loads((out / "trace.json").read_text())
        assert trace["kind"] == "prlmc"
        assert trace["counters"]["gradient_evals"] == 12 * 2 * 2
        csv_text = (out / "trace.csv").read_text()
        header = csv_text.splitlines()[0].split(",")
        assert header[0] == "iteration"
        assert "w2" in header and "bound_total" in header
        # 1 + ceil(12 / 4) data rows
        assert len(csv_text.strip().splitlines()) == 1 + 4

    def test_same_seed_bitwise_identical_csv(self, tmp_path):
        cfg = _write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sample", "--config", str(cfg), "--out-dir", str(out1)]) == EXIT_OK
        assert main(["sample", "--config", str(cfg), "--out-dir", str(out2)]) == EXIT_OK
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_rerun_from_embedded_config_reproduces(self, tmp_path):
        cfg = _write_config(tmp_path)
        out1 = tmp_path / "a"
        main(["sample", "--config", str(cfg), "--out-dir", str(out1)])
        embedded = json.loads((out1 / "trace.json").read_text())["config"]
        replay = {
            "potential": embedded["potential"],
            "sampler": embedded["kind"],
            "h": embedded["h"],
            "n": embedded["n"],
            "R": embedded["R"],
            "Q": embedded["Q"],
            "seed": embedded["seed"],
            "chains": embedded["n_chains"],
            "record_every": embedded["record_every"],
        }
        cfg2 = tmp_path / "replay.json"
        cfg2.write_text(json.dumps(replay))
        out2 = tmp_path / "b"
        assert main(["sample", "--config", str(cfg2), "--out-dir", str(out2)]) == EXIT_OK
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_csv_parses_under_rfc4180(self, tmp_path):
        import csv as csv_mod

        cfg = _write_config(tmp_path)
        out = tmp_path / "rfc"
        main(["sample", "--config", str(cfg), "--out-dir", str(out)])
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv_mod.reader(fh))
        assert all(len(r) == len(rows[0]) for r in rows)
        for row in rows[1:]:
            float(row[0])  # iteration column is numeric

    def test_format_flag_restricts_outputs(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "csvonly"
        main(["sample", "--config", str(cfg), "--out-dir", str(out), "--format", "csv"])
        assert (out / "trace.csv").exists()
        assert not (out / "trace.json").exists()

    def test_invalid_width_rejected(self, tmp_path):
        cfg = _write_config(tmp_path, R=0)
        assert main(["sample", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_CONFIG

    def test_unknown_key_rejected(self, tmp_path):
        cfg = _write_config(tmp_path, typo_key=1)
        assert main(["sample", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_CONFIG

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["sample", "--config", str(path), "--out-dir", str(tmp_path)]) == EXIT_CONFIG

    def test_divergence_exit_code_and_partial_trace(self, tmp_path):
        cfg = _write_config(tmp_path, sampler="lmc", h=50.0, n=60, chains=1,
                            theta0=[1.0, 1.0], record_every=1)
        out = tmp_path / "div"
        assert main(["sample", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_DIVERGED
        assert (out / "trace_partial.json").exists()

    def test_kinetic_bound_starts_at_the_minimizer_without_theta0(self, tmp_path):
        # run() starts every chain at the minimizer, so the Theorem 2 gap term is 0.
        cfg = _write_config(
            tmp_path,
            potential={"kind": "quadratic", "precision_diag": [1.0, 2.0], "mean": [3.0, -2.0]},
            sampler="rklmc", gamma=10.0, h=0.01, n=4, chains=1, record_every=4,
        )
        out = tmp_path / "kin"
        assert main(["sample", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        trace = json.loads((out / "trace.json").read_text())
        row0 = trace["rows"][0]
        assert row0["dist_to_mean"] == 0.0
        want = theorem2_bound(h=0.01, Q=2, R=1, m=1.0, M=2.0, gamma=10.0, p=2,
                              w2_init=trace["config"]["w2_init"], f_gap=0.0, n=0)
        assert row0["bound_initialization"] == pytest.approx(want.initialization_term, rel=1e-12)

    def test_logistic_targets_report_drift(self, tmp_path):
        data = tmp_path / "data.csv"
        rng = np.random.default_rng(0)
        rows = ["y,x1,x2"]
        for _ in range(30):
            x = rng.standard_normal(2)
            y = 1.0 if rng.random() < 0.5 else -1.0
            rows.append(f"{y:+.0f},{x[0]:.4f},{x[1]:.4f}")
        data.write_text("\n".join(rows) + "\n")
        cfg = _write_config(
            tmp_path,
            potential={"kind": "logistic_ridge", "csv_path": str(data), "ridge": 1.0},
            sampler="rlmc", R=1, Q=2, h=0.01, n=8, chains=6, record_every=4,
        )
        out = tmp_path / "logit"
        assert main(["sample", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert "moment_drift" in header


class TestTune:
    def test_round_trip_into_sample(self, tmp_path):
        request = tmp_path / "req.json"
        request.write_text(json.dumps(
            {"regime": "vanilla", "epsilon": 0.5, "m": 1.0, "M": 100.0, "p": 4, "w2_init": 2.0}
        ))
        assert main(["tune", "--request", str(request), "--out-dir", str(tmp_path)]) == EXIT_OK
        plan = json.loads((tmp_path / "tune_plan.json").read_text())
        assert plan["R"] == 7 and plan["Q"] == 5
        assert all(c["passed"] for c in plan["preconditions"])
        cfg = _write_config(
            tmp_path, name="tuned.json",
            potential={"kind": "quadratic", "precision_diag": [1.0, 50.0, 100.0, 25.0]},
            sampler="prlmc", h=plan["h"], R=plan["R"], Q=plan["Q"], n=5, chains=1,
            record_every=5,
        )
        out = tmp_path / "tuned_out"
        assert main(["sample", "--config", str(cfg), "--out-dir", str(out)]) == EXIT_OK
        check = main(["check", "--config", str(cfg)])
        assert check == EXIT_OK

    def test_fixed_width_adds_limited_units_guidance(self, tmp_path, capsys):
        request = tmp_path / "req.json"
        request.write_text(json.dumps(
            {"regime": "kinetic", "epsilon": 0.1, "m": 1.0, "M": 100.0, "p": 4, "R": 10}
        ))
        assert main(["tune", "--request", str(request)]) == EXIT_OK
        plan = json.loads(capsys.readouterr().out)
        assert plan["iters_limited"]["R"] == 10
        assert plan["iters_limited"]["n"] >= 1

    def test_invalid_epsilon(self, tmp_path):
        request = tmp_path / "req.json"
        request.write_text(json.dumps(
            {"regime": "vanilla", "epsilon": 1.5, "m": 1.0, "M": 100.0, "p": 4}
        ))
        assert main(["tune", "--request", str(request)]) == EXIT_CONFIG

    def test_malformed_request(self, tmp_path):
        request = tmp_path / "req.json"
        request.write_text("{")
        assert main(["tune", "--request", str(request)]) == EXIT_CONFIG


class TestNoiseCheck:
    def test_vanilla_passes(self, capsys):
        code = main(["noise-check", "--kind", "vanilla", "--R", "2", "--h", "0.1",
                     "--samples", "20000"])
        assert code == EXIT_OK
        assert "max |z|" in capsys.readouterr().out

    def test_kinetic_passes_and_dumps(self, tmp_path):
        dump = tmp_path / "cov.csv"
        code = main(["noise-check", "--kind", "kinetic", "--R", "2", "--h", "0.1",
                     "--gamma", "1.0", "--samples", "20000", "--dump-cov", str(dump)])
        assert code == EXIT_OK
        assert np.loadtxt(dump, delimiter=",").shape == (4, 4)

    def test_too_few_samples(self):
        assert main(["noise-check", "--kind", "vanilla", "--R", "2", "--h", "0.1",
                     "--samples", "10"]) == EXIT_CONFIG

    def test_kinetic_needs_gamma(self):
        assert main(["noise-check", "--kind", "kinetic", "--R", "2", "--h", "0.1",
                     "--samples", "20000"]) == EXIT_CONFIG


class TestBenchmark:
    def test_emits_speedup_table(self, tmp_path):
        cfg = _write_config(
            tmp_path,
            potential={"kind": "synthetic_delay", "dimension": 2, "delay_seconds": 0.001},
            sampler="prlmc", R=4, Q=2, n=3, chains=1, h=0.01, record_every=3,
        )
        out = tmp_path / "bench"
        assert main(["benchmark", "--config", str(cfg), "--out-dir", str(out),
                     "--widths", "1,4"]) == EXIT_OK
        lines = (out / "benchmark.csv").read_text().strip().splitlines()
        assert lines[0] == "width,mean_iteration_seconds,speedup"
        assert len(lines) == 3

    def test_requires_delay_potential(self, tmp_path):
        cfg = _write_config(tmp_path)
        assert main(["benchmark", "--config", str(cfg), "--out-dir", str(tmp_path)]) == EXIT_CONFIG


class TestCheck:
    def test_reports_conditions(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, sampler="prklmc", gamma=50.0, h=0.002, R=4, Q=3)
        assert main(["check", "--config", str(cfg)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["regime"] == "kinetic"
        assert {c["name"] for c in report["checks"]} == {"friction_lower_bound", "kinetic_stability"}
        assert report["all_passed"]

    def test_report_is_the_run_preconditions(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, sampler="rlmc", h=0.1, R=6, Q=4)
        assert main(["check", "--config", str(cfg)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert (report["effective_R"], report["effective_Q"]) == (1, 2)
        failing = {c["name"] for c in report["checks"] if not c["passed"]}
        config = SamplerConfig(h=0.1, n=0, R=6, Q=4)
        trace = run("rlmc", config, build_potential(json.loads(cfg.read_text())["potential"]))
        assert failing and failing == {w.split()[0] for w in trace.warnings}

    def test_overflowing_rule_fails_as_inf(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, sampler="prklmc", gamma=1e4, h=1.0, R=2, Q=40)
        assert main(["check", "--config", str(cfg)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        stability = {c["name"]: c for c in report["checks"]}["kinetic_stability"]
        assert (stability["value"], stability["passed"], report["all_passed"]) == (float("inf"), False, False)

    def test_kinetic_without_gamma_is_the_run_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, sampler="rklmc")
        assert main(["check", "--config", str(cfg)]) == EXIT_CONFIG
        assert "rklmc requires a friction coefficient gamma" in capsys.readouterr().err


_TUNE = {"regime": "vanilla", "epsilon": 0.5, "m": 1.0, "M": 4.0, "p": 2}
_QUAD = {"kind": "quadratic", "precision_diag": [1.0, 2.0]}


class TestStrictObjects:
    """Config, potential and tune request: one object check, then unknown keys, then required keys."""

    @pytest.mark.parametrize("body, message", [
        ([1], "config must be a JSON object"),
        ({"typo": 1}, "unknown config keys: ['typo']"),
        ({"potential": _QUAD, "sampler": "lmc", "h": 0.1}, "config key 'n' is required"),
        ({"potential": [1], "sampler": "lmc", "h": 0.1, "n": 1}, "potential must be a JSON object"),
        ({"potential": {**_QUAD, "bogus": 1}, "sampler": "lmc", "h": 0.1, "n": 1},
         "unknown potential keys: ['bogus']"),
        ({"potential": {"kind": "logistic_ridge", "ridge": 1.0}, "sampler": "lmc", "h": 0.1, "n": 1},
         "potential key 'csv_path' is required"),
    ])
    def test_config_and_potential(self, tmp_path, capsys, body, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(body))
        assert main(["check", "--config", str(path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("body, message", [
        ([1], "request must be a JSON object"),
        ({**_TUNE, "zz": 1}, "unknown request keys: ['zz']"),
        ({k: v for k, v in _TUNE.items() if k != "p"}, "request key 'p' is required"),
    ])
    def test_tune_request_on_stdin(self, monkeypatch, capsys, body, message):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(body)))
        assert main(["tune", "--request", "-"]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_stdin_request_reads_like_a_file(self, tmp_path, monkeypatch, capsys):
        request = tmp_path / "req.json"
        request.write_text(json.dumps(_TUNE))
        assert main(["tune", "--request", str(request)]) == EXIT_OK
        from_file = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(_TUNE)))
        assert main(["tune", "--request", "-"]) == EXIT_OK
        assert capsys.readouterr().out == from_file


class TestMistypedValues:
    """A config or request value that does not convert is a configuration error naming its key, not a traceback."""

    @pytest.mark.parametrize("command", ["sample", "check"])
    @pytest.mark.parametrize("overrides, key", [
        ({"h": "fast"}, "'h'"),
        ({"n": "ten"}, "'n'"),
        ({"Q": [2]}, "'Q'"),
        ({"theta0": ["a", 1.0]}, "'theta0'"),
        ({"potential": {**_QUAD, "precision_diag": "abc"}}, "'precision_diag'"),
        ({"potential": {"kind": "synthetic_delay", "dimension": "two", "delay_seconds": 0.0}}, "'dimension'"),
    ])
    def test_config(self, tmp_path, capsys, command, overrides, key):
        cfg = _write_config(tmp_path, **overrides)
        out = ["--out-dir", str(tmp_path)] if command == "sample" else []
        assert main([command, "--config", str(cfg), *out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"key {key} has an invalid value" in err
        assert not list(tmp_path.glob("trace*"))

    @pytest.mark.parametrize("overrides, key", [({"epsilon": "small"}, "'epsilon'"), ({"R": "wide"}, "'R'")])
    def test_tune_request(self, tmp_path, capsys, overrides, key):
        request = tmp_path / "req.json"
        request.write_text(json.dumps({**_TUNE, **overrides}))
        assert main(["tune", "--request", str(request)]) == EXIT_CONFIG
        assert f"key {key} has an invalid value" in capsys.readouterr().err
