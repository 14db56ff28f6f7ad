import concurrent.futures
import contextlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from obil import experiment, mlp
from obil.bayes import PRIOR_FLOOR, cost_sensitive_loss
from obil.cli import main
from obil.data import LabeledDataset
from obil.ensemble import load_ensemble
from obil.experiment import (ConfigError, _aggregate, ingest_csv, parse_config,
                             write_csv)
from obil.simulate import StreamScenario


def base_config(**overrides):
    cfg = {
        "data": {"kind": "gaussian", "mu0": [-1.0], "mu1": [1.0],
                 "n": 240, "p1": 0.25},
        "loss": "squared",
        "network": {"hidden_dims": [8], "dropout_rate": 0.1},
        "training": {"max_epochs": 2, "batch_size": 32},
        "ensemble": {"target_qps": [1.0, 2.0], "mc_samples": 5},
        "adapter": {"qc": 1.0, "initial_p1": 0.25},
        "scenario": {"kind": "constant", "p1": 0.3, "horizon": 40},
        "seeds": [0],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(**overrides)))
    return str(path)


class TestIngestCsv:
    def test_label_mapping(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,label\n1.5,1\n-2.0,0\n0.25,1\n")
        ds = ingest_csv(p, "label", "1")
        np.testing.assert_allclose(ds.features[:, 0], [1.5, -2.0, 0.25])
        assert list(ds.labels) == [1, 0, 1]

    def test_custom_positive_value(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,outcome\n1.0,fraud\n2.0,ok\n")
        ds = ingest_csv(p, "outcome", "fraud")
        assert list(ds.labels) == [1, 0]

    def test_nan_cell_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,label\nnan,1\n")
        with pytest.raises(ConfigError, match=r"d\.csv:2: column 'x0': non-finite cell 'nan'"):
            ingest_csv(p, "label", "1")

    def test_non_numeric_cell_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,label\nhello,1\n")
        with pytest.raises(ConfigError,
                           match=r"d\.csv:2: column 'x0': non-numeric cell 'hello'"):
            ingest_csv(p, "label", "1")

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,x1\n1.0,2.0\n")
        with pytest.raises(ConfigError):
            ingest_csv(p, "label", "1")

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x0,x1,label\n1.0,1\n")
        with pytest.raises(ConfigError, match=r"d\.csv:2: expected 3 cells"):
            ingest_csv(p, "label", "1")

    def test_empty_and_header_only(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(ConfigError, match=r"d\.csv: empty file"):
            ingest_csv(p, "label", "1")
        p.write_text("x0,label\n")
        with pytest.raises(ConfigError, match=r"d\.csv: no data rows"):
            ingest_csv(p, "label", "1")

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = LabeledDataset(rng.normal(0, 1, (30, 3)),
                            rng.integers(0, 2, 30))
        p = tmp_path / "rt.csv"
        write_csv(ds, p)
        back = ingest_csv(p, "label", "1")
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)


class TestParseConfig:
    def test_defaults(self):
        parsed = parse_config({})
        assert parsed["loss"] == "squared"
        assert parsed["seeds"] == [0]
        assert parsed["adapter"].qc == 1.0

    def test_unknown_loss(self):
        with pytest.raises(ConfigError):
            parse_config({"loss": "hinge"})

    def test_unknown_baseline(self):
        with pytest.raises(ConfigError):
            parse_config({"baselines": ["oracle_of_delphi"]})

    def test_csv_kind_needs_path(self):
        with pytest.raises(ConfigError):
            parse_config({"data": {"kind": "csv"}})

    def test_empty_seed_list(self):
        with pytest.raises(ConfigError):
            parse_config({"seeds": []})


# (section, key, value) with a key that no command reads
UNKNOWN_KEYS = [(None, "seed", 5), ("network", "dropout", 0.5),
                ("scenario", "horizen", 10), ("adapter", "prior_floor", 0.1)]


class TestCliExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["gen", "--config", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["gen", "--config", str(p)]) == 2

    def test_unknown_loss_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, loss="hinge")
        assert main(["train", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("section, key, value", [
        ("training", "learning_rate", -1),
        ("training", "learning_rate", float("nan")),
        ("network", "dropout_rate", 1.5),
        ("network", "hidden_dims", [-3]),
        ("network", "hidden_dims", [0]),
    ])
    def test_invalid_network_or_training_value_exits_2(self, tmp_path, capsys,
                                                       section, key, value):
        # json.dumps writes NaN, which json.load reads back
        cfg = write_config(tmp_path, **{section: {**base_config()[section], key: value}})
        assert main(["train", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, section, key, value", [
        ("run", "data", "n", 0),
        ("run", "data", "p1", 1.5),
        ("run", "data", "mu1", [1.0, 2.0]),
        ("run", "adapter", "qc", -1),
        ("run", "adapter", "window_w", "wide"),
        ("run", "ensemble", "mc_samples", 1),
        ("run", "ensemble", "fusion_temperature", 0),
        ("run", "ensemble", "resample_method", "bogus"),
        ("run", "scenario", "kind", "bogus"),
        ("run", None, "seeds", ["a"]),
        ("run", None, "seeds", [-1]),
        ("run", None, "seeds", [1.5]),
        ("simulate", "scenario", "horizon", -5),
        ("train", "scenario", "horizon", -5),
        ("run", "data", ("mu0", "mu1"), [[-1.0, -1.0]]),
        ("run", "data", ("mu0", "mu1"), []),
        ("run", "data", "mu1", [float("nan")]),
        ("run", "data", "mu0", [float("inf")]),
        ("run", "data", "sigma2", float("nan")),
        ("run", "data", "sigma2", float("inf")),
        ("run", "ensemble", "fusion_temperature", float("nan")),
        ("run", "ensemble", "target_qps", [1.0, -1.0]),
        ("run", "ensemble", "target_qps", [float("nan")]),
        ("run", "ensemble", "calibration_fraction", 0),
        ("run", "ensemble", "calibration_fraction", 1.5),
        ("run", "ensemble", "calibration_fraction", -0.5),
        ("run", "adapter", "qc", float("nan")),
        ("run", "adapter", "qc", float("inf")),
        ("run", "adapter", "initial_p1", float("nan")),
        ("run", "scenario", "p_before", float("nan")),
        ("run", "scenario", "slope", float("nan")),
        *[("run", *unknown) for unknown in UNKNOWN_KEYS],
    ])
    def test_invalid_section_value_or_seed_exits_2(
            self, tmp_path, capsys, command, section, key, value):
        # a tuple of keys sets each of them to the value
        values = dict.fromkeys(key if isinstance(key, tuple) else (key,), value)
        overrides = values if section is None else \
            {section: {**base_config()[section], **values}}
        cfg = write_config(tmp_path, **overrides)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        error = capsys.readouterr().err
        assert "error:" in error
        if (section, key, value) in UNKNOWN_KEYS:
            name = key if section is None else f"{section}.{key}"
            assert f"unknown config key {name!r}" in error
        assert not (tmp_path / "out").exists()

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["run", "--config", cfg, "--seed", "-1",
                     "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_runtime_failure_exits_3(self, tmp_path, capsys):
        # a single-class dataset passes config validation but fails training
        cfg = write_config(tmp_path,
                           data={"kind": "gaussian", "n": 50, "p1": 0.0})
        assert main(["train", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 3
        assert "stage failure" in capsys.readouterr().err

    @pytest.mark.parametrize("initial_p1, floored", [(0.0, PRIOR_FLOOR),
                                                     (1.0, 1.0 - PRIOR_FLOOR)])
    def test_evaluate_prior_edge_exits_0_floored(self, trained, tmp_path, initial_p1,
                                                 floored):
        # without --adaptive the fixed threshold qc * (1 - p1) / p1 takes the
        # initial prior floored as adapter.init floors it; unfloored, 0
        # divides by zero and 1 gives threshold 0
        evaluations = []
        for p1 in (initial_p1, floored):
            cfg = write_config(tmp_path, f"p1_{p1}.json",
                               adapter={"qc": 1.0, "initial_p1": p1})
            out = tmp_path / f"out_{p1}"
            assert main(["evaluate", "--config", cfg, "--out", str(out),
                         "--ensemble", str(trained / "ensemble.bin"),
                         "--test-csv", str(trained / "data.csv")]) == 0
            evaluations.append((out / "evaluation.json").read_bytes())
        assert evaluations[0] == evaluations[1]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A directory holding the base config, its data.csv and its ensemble.bin."""
    out = tmp_path_factory.mktemp("trained")
    cfg = write_config(out)
    assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
    assert main(["train", "--config", cfg, "--out", str(out)]) == 0
    return out


def _cut(keep):
    """A copy of ensemble.bin cut to keep(blob) bytes."""
    def make(trained, tmp_path):
        blob = (trained / "ensemble.bin").read_bytes()
        path = tmp_path / "ensemble.bin"
        path.write_bytes(blob[:keep(blob)])
        return path, trained / "data.csv"
    return make


def _wide_csv(trained, tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("x0,x1,label\n0.5,-1.0,1\n-0.25,2.0,0\n")
    return trained / "ensemble.bin", path


def _directory(trained, tmp_path):
    return trained, trained / "data.csv"


def _bad_magic(trained, tmp_path):
    path = tmp_path / "ensemble.bin"
    path.write_bytes(b"OBIL-SCORER-v1\n{}\n")
    return path, trained / "data.csv"


class TestEvaluateBadInputs:
    @pytest.mark.parametrize("make", [
        _wide_csv, _bad_magic, _directory,
        _cut(lambda blob: blob.index(b"\n") + 10),  # inside the JSON header
        _cut(lambda blob: len(blob) // 2),  # inside the members
        _cut(lambda blob: len(blob) - 1),  # one byte short
    ], ids=["csv_width", "magic", "directory", "cut_header", "cut_member",
            "cut_last_byte"])
    def test_exits_2(self, trained, tmp_path, capsys, make):
        ensemble, test_csv = make(trained, tmp_path)
        cfg = str(trained / "config.json")
        out = tmp_path / "out"
        assert main(["evaluate", "--config", cfg, "--out", str(out),
                     "--ensemble", str(ensemble), "--test-csv", str(test_csv)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestPipeline:
    def test_gen_writes_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
        ds = ingest_csv(out / "data.csv", "label", "1")
        assert len(ds) == 240
        assert "wrote 240 rows" in capsys.readouterr().out

    def test_gen_train_evaluate(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["gen", "--config", cfg, "--out", str(out)]) == 0
        assert main(["train", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "ensemble.bin").exists()
        capsys.readouterr()
        assert main(["evaluate", "--config", cfg, "--out", str(out),
                     "--ensemble", str(out / "ensemble.bin"),
                     "--test-csv", str(out / "data.csv")]) == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads((out / "evaluation.json").read_text())
        assert printed == saved
        assert set(saved) == {"f1", "g_mean", "auprc", "ece"}
        assert all(0.0 <= saved[k] <= 1.0 for k in saved)

    def test_evaluate_adaptive_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["gen", "--config", cfg, "--out", str(out)])
        main(["train", "--config", cfg, "--out", str(out)])
        assert main(["evaluate", "--config", cfg, "--out", str(out),
                     "--ensemble", str(out / "ensemble.bin"),
                     "--test-csv", str(out / "data.csv"), "--adaptive"]) == 0

    def test_simulate_emits_trace_lines(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trace.jsonl").read_text().splitlines()
        assert len(lines) == 40
        first = json.loads(lines[0])
        assert first["t"] == 1
        assert first["prediction"] in (0, 1)

    def test_regret_ledger(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["regret", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "regret.tsv").read_text().splitlines()
        assert lines[0] == "t\talg_loss\toracle_loss\tcum_regret"
        assert len(lines) == 41

    @pytest.mark.parametrize("seed_args", [[], ["--seed", "2"]])
    def test_simulate_and_regret_write_run_seed_bytes(self, tmp_path, seed_args):
        # each command runs `obil run`'s stages for its seed: the training
        # draw, the ensemble fit, then the one stream from the same generator,
        # whose adapter run the regret ledger charges
        cfg = write_config(tmp_path)
        seed = int(seed_args[1]) if seed_args else 0
        for command in ("run", "simulate", "regret"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / command),
                         *seed_args]) == 0
        seed_dir = tmp_path / "run" / f"seed_{seed}"
        assert (tmp_path / "simulate" / "trace.jsonl").read_bytes() == \
            (seed_dir / "trace.jsonl").read_bytes()
        assert (tmp_path / "regret" / "regret.tsv").read_bytes() == \
            (seed_dir / "regret.tsv").read_bytes()

    def test_regret_charges_the_traced_adapter_run(self, tmp_path):
        # regret.tsv's algorithm losses are those of trace.jsonl's decisions
        # on the seed's stream, drawn right after its training data
        cfg = write_config(tmp_path, seeds=[0, 1])
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        parsed = parse_config(base_config(seeds=[0, 1]))
        for seed in (0, 1):
            _, rng = experiment.seed_data(parsed, seed)
            scenario = StreamScenario(parsed["problem"], parsed["trajectory"], parsed["horizon"])
            labels = scenario.draw(rng)[1]
            seed_dir = tmp_path / "run" / f"seed_{seed}"
            preds = [json.loads(line)["prediction"]
                     for line in (seed_dir / "trace.jsonl").read_text().splitlines()]
            rows = [line.split("\t") for line in
                    (seed_dir / "regret.tsv").read_text().splitlines()[1:]]
            alg_loss = np.array([float(row[1]) for row in rows])
            want = cost_sensitive_loss(np.array(preds), labels, parsed["adapter"].qc)
            assert alg_loss.tobytes() == want.tobytes(), seed

    def test_train_saves_the_temperatures_run_scores_with(self, tmp_path, monkeypatch):
        scored = []
        real = experiment.seed_stream

        def spy(parsed, ensemble, rng):
            scored.append([m.temperature for m in ensemble.members])
            return real(parsed, ensemble, rng)

        monkeypatch.setattr(experiment, "seed_stream", spy)
        cfg = write_config(tmp_path, loss="xent_sigmoid")
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "train")]) == 0
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        saved = [m.temperature for m in load_ensemble(tmp_path / "train" / "ensemble.bin").members]
        assert scored == [saved]
        assert all(t != 1.0 for t in saved)

    def test_calibrate_reports_gate(self, tmp_path, capsys):
        cfg = write_config(tmp_path, loss="xent_sigmoid")
        out = tmp_path / "out"
        assert main(["calibrate", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "calibration.json").read_text())
        assert report["gate"] in ("PASS", "FAIL")
        assert report["temperature"] is not None
        assert "deployment gate" in capsys.readouterr().out

    def test_seed_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seeds=[0, 1, 2])
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["gen", "--config", cfg, "--seed", "7",
                     "--out", str(out_a)]) == 0
        assert main(["gen", "--config", cfg, "--seed", "7",
                     "--out", str(out_b)]) == 0
        assert (out_a / "data.csv").read_bytes() == (out_b / "data.csv").read_bytes()


class TestEvaluateOnStream:
    def test_vanilla_runs_once_per_split(self, layer1_products):
        # one vanilla forward over the stream gives the log-LRs and the
        # posteriors; threshold moving and BBSE share one over the
        # calibration split
        # relu units x+ and x-: tanh(2x) is above 0 exactly when x > 0
        vanilla = mlp.CalibratedScorer([np.array([[1.0, -1.0]]), np.array([[2.0], [-2.0]])],
                                       [np.zeros(2), np.zeros(1)], "relu", 0.0, 3.0,
                                       "squared")
        rows = layer1_products(vanilla)
        rng = np.random.default_rng(0)
        labels = (rng.random(40) < 0.3).astype(int)
        feats = (2.0 * labels - 1.0 + rng.normal(0, 1, 40))[:, None]
        cal_labels = np.array([0, 1] * 15)
        calibration = LabeledDataset((2.0 * cal_labels - 1.0 + rng.normal(0, 1, 30))[:, None],
                                     cal_labels)
        parsed = parse_config(base_config(baselines=["vanilla", "threshold_moving",
                                                     "logit_adjustment", "bbse"]))
        results = experiment.evaluate_on_stream(vanilla, feats, labels, parsed,
                                                calibration=calibration)
        assert set(results) == {"vanilla", "threshold_moving", "logit_adjustment", "bbse"}
        assert rows == [40, 30]


class TestRun:
    def test_report_layout_and_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seeds=[0, 1],
                           data={"kind": "gaussian", "mu0": [-1.0],
                                 "mu1": [1.0], "n": 600, "p1": 0.25},
                           training={"max_epochs": 25, "batch_size": 32},
                           baselines=["vanilla", "threshold_moving",
                                      "logit_adjustment", "bbse"])
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "report.json").read_bytes() == \
            (out_b / "report.json").read_bytes()
        report = json.loads((out_a / "report.json").read_text())
        assert report["seeds"] == [0, 1]
        for seed in (0, 1):
            seed_dir = out_a / f"seed_{seed}"
            assert (seed_dir / "metrics.json").exists()
            assert (seed_dir / "trace.jsonl").exists()
            assert (seed_dir / "regret.tsv").exists()
        methods = set(report["aggregate"])
        assert {"obil", "vanilla", "threshold_moving",
                "logit_adjustment", "bbse"} <= methods

    def test_aggregate_recomputable(self, tmp_path):
        per_seed = [
            {"obil": {"f1": 0.5}, "vanilla": {"f1": 0.3}},
            {"obil": {"f1": 0.7}, "vanilla": {"f1": 0.5}},
        ]
        agg = _aggregate(per_seed)
        assert agg["obil"]["f1"]["mean"] == pytest.approx(0.6)
        assert agg["obil"]["f1"]["std"] == pytest.approx(0.1)
        assert agg["vanilla"]["f1"]["mean"] == pytest.approx(0.4)


def tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture
def fork_calls(monkeypatch):
    """Record the contexts run_experiment asks multiprocessing for."""
    calls = []
    real = multiprocessing.get_context

    def spy(method=None):
        calls.append(method)
        return real(method)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return calls


class TestSeedPool:
    def test_pool_writes_serial_bytes(self, tmp_path, monkeypatch, fork_calls):
        cfg = write_config(tmp_path, seeds=[2, 0, 1])
        trees = {}
        for cpus in (1, 2):
            monkeypatch.setattr(experiment, "usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus_{cpus}"
            assert main(["run", "--config", cfg, "--out", str(out)]) == 0
            trees[cpus] = tree_bytes(out)
        assert fork_calls == ["fork"]  # only the two-CPU run used a pool
        assert len(trees[1]) == 1 + 3 * 3
        assert trees[1] == trees[2]
        assert json.loads(trees[2]["report.json"])["seeds"] == [2, 0, 1]

    def test_fusion_threads_write_serial_bytes(self, tmp_path, monkeypatch, fork_calls):
        # one seed runs in this process; its 600-row stream at hidden width
        # 64 and 5 passes needs two blocks, so two CPUs run them on two
        # threads.  The tree must not depend on that
        pools = {}  # CPU count -> the worker count of each thread pool

        class SpyPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, workers, *args, **kwargs):
                pools[cpus].append(workers)
                super().__init__(workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SpyPool)
        cfg = write_config(tmp_path, network={"hidden_dims": [64], "dropout_rate": 0.1},
                           scenario={"kind": "constant", "p1": 0.3, "horizon": 600})
        trees = {}
        for cpus in (1, 2):
            pools[cpus] = []
            monkeypatch.setattr(mlp, "usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus_{cpus}"
            assert main(["run", "--config", cfg, "--out", str(out)]) == 0
            trees[cpus] = tree_bytes(out)
        assert pools[1] == [] and pools[2] and set(pools[2]) == {2}
        assert fork_calls == []
        assert trees[1] == trees[2]

    def test_workers_fill_their_cpu_share(self, tmp_path, monkeypatch, fork_calls):
        # two workers on two CPUs: each runs its MC passes on one thread,
        # and this process keeps every CPU
        shares = tmp_path / "shares"
        real = experiment.run_single_seed

        def recorded(parsed, seed):
            with open(shares, "a") as fh:
                fh.write(f"{mlp.usable_cpus()}\n")
            return real(parsed, seed)

        monkeypatch.setattr(experiment, "run_single_seed", recorded)
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 2)
        before = mlp.usable_cpus()
        cfg = write_config(tmp_path, seeds=[0, 1, 2])
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert fork_calls == ["fork"]
        assert shares.read_text().split() == ["1"] * 3
        assert mlp.usable_cpus() == before

    def test_duplicate_seed_runs_once(self, tmp_path, monkeypatch, fork_calls):
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 2)
        runs = []
        real = experiment.run_single_seed

        def counted(parsed, seed):
            runs.append(seed)
            return real(parsed, seed)

        monkeypatch.setattr(experiment, "run_single_seed", counted)
        once, twice = tmp_path / "once", tmp_path / "twice"
        assert main(["run", "--config", write_config(tmp_path, "a.json", seeds=[1]),
                     "--out", str(once)]) == 0
        assert main(["run", "--config", write_config(tmp_path, "b.json", seeds=[1, 1]),
                     "--out", str(twice)]) == 0
        assert runs == [1, 1]  # one call per `obil run`, both in this process
        assert fork_calls == []
        single, double = tree_bytes(once), tree_bytes(twice)
        assert single.keys() == double.keys()
        assert all(single[k] == double[k] for k in single if k != "report.json")
        report = json.loads(double["report.json"])
        assert report["seeds"] == [1, 1]
        assert report["per_seed"][0] == report["per_seed"][1] == \
            json.loads(single["report.json"])["per_seed"][0]
        assert all(stats["std"] == 0.0 for method in report["aggregate"].values()
                   for stats in method.values())

    def test_worker_stage_failure_exits_3(self, tmp_path, monkeypatch, capsys, fork_calls):
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 2)
        cfg = write_config(tmp_path, seeds=[0, 1],
                           data={"kind": "gaussian", "n": 50, "p1": 0.0})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        assert "stage failure" in capsys.readouterr().err
        assert fork_calls == ["fork"]

    def test_worker_config_error_exits_2(self, tmp_path, monkeypatch, capsys, fork_calls):
        monkeypatch.setattr(experiment, "usable_cpus", lambda: 2)
        data = tmp_path / "d.csv"
        data.write_text("x0,label\n1.0,1\n-1.0,0\n")
        cfg = write_config(tmp_path, seeds=[0, 1], data={"kind": "csv", "path": str(data)})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "requires gaussian data" in capsys.readouterr().err
        assert fork_calls == ["fork"]

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    def test_worker_ends_with_killed_parent(self, tmp_path):
        # the script forks a worker, waits until its initializer ran, and is
        # then killed; the worker must not outlive it.  The worker lets go of
        # the script's output pipe, so the script's end closes it
        script = (
            "import os, signal, sys\n"
            "from obil import experiment\n"
            "r, w = os.pipe()\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    experiment._init_worker(os.getppid(), 1)\n"
            "    null = os.open(os.devnull, os.O_WRONLY)\n"
            "    os.dup2(null, 1)\n"
            "    os.dup2(null, 2)\n"
            "    os.write(w, b'.')\n"
            "    signal.pause()\n"
            "os.read(r, 1)\n"
            "print(pid, flush=True)\n"
            "os.kill(os.getpid(), signal.SIGKILL)\n")
        src = str(Path(experiment.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        worker = int(proc.stdout)
        stat = Path(f"/proc/{worker}/stat")
        try:
            for _ in range(100):
                # gone, or a zombie nobody has reaped yet
                if not stat.exists() or stat.read_text().rsplit(")", 1)[1].split()[0] == "Z":
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"worker {worker} outlived its killed parent")
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.kill(worker, signal.SIGKILL)

    def test_cli_import_leaves_pool_modules_out(self):
        src = str(Path(experiment.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, obil.cli; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


class TestDigestsTool:
    def test_missing_checkout_parts_exit_2(self, tmp_path):
        # a --root without src/obil, or without perfbench/run.py, ends in one
        # `error:` line naming the missing path and exit code 2
        tool = Path(__file__).resolve().parent.parent / "tools" / "digests.py"
        (tmp_path / "half" / "src" / "obil").mkdir(parents=True)
        for root, missing in ((tmp_path / "empty", "empty/src/obil"),
                              (tmp_path / "half", "half/perfbench/run.py")):
            root.mkdir(exist_ok=True)
            proc = subprocess.run([sys.executable, str(tool), "--root", str(root)],
                                  capture_output=True, text=True, timeout=60)
            assert proc.returncode == 2, proc.stderr
            assert proc.stdout == ""
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert lines[0].endswith(f"{missing}: no such file or directory"), lines
