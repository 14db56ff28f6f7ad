"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
from obil.data import LabeledDataset  # noqa: E402
from obil.ensemble import EnsembleConfig, LikelihoodRatioEnsemble  # noqa: E402
from obil import mlp  # noqa: E402

TINY_CONFIG = {
    "data": {"kind": "gaussian", "mu0": [-1.0], "mu1": [1.0], "n": 400, "p1": 0.25},
    "loss": "xent_sigmoid",
    "network": {"hidden_dims": [8, 4], "dropout_rate": 0.1},
    "training": {"max_epochs": 3, "batch_size": 32},
    "ensemble": {"target_qps": [1.0, 2.0], "mc_samples": 5},
    "adapter": {"qc": 1.0, "initial_p1": 0.25},
    "scenario": {"kind": "linear_drift", "p_start": 0.1, "slope": 0.001, "horizon": 200},
    "baselines": ["vanilla", "threshold_moving", "logit_adjustment", "bbse"],
    "seeds": [3],
}


def tiny_run(tmp_path, name, tracer=None):
    config_path = run.write_config(TINY_CONFIG, tmp_path / "config.json")
    out = tmp_path / name
    _, code = run.in_process_run(["run", "--config", str(config_path), "--out", str(out)],
                                 tracer)
    assert code == 0
    return out


def test_traced_run_is_byte_identical_to_untraced(tmp_path):
    plain = tiny_run(tmp_path, "untraced")
    tracer = tracing.Tracer()
    traced = tiny_run(tmp_path, "traced", tracer)
    files = sorted(p.relative_to(plain) for p in plain.rglob("*") if p.is_file())
    assert Path("report.json") in files
    for rel in files:
        assert (plain / rel).read_bytes() == (traced / rel).read_bytes(), rel
    names = {span[0] for span in tracer.spans}
    assert {"mlp.train", "ensemble.fused_batch", "metrics.fit_temperature",
            "simulate.regret", "experiment.seed"} <= names


def test_wrappers_cover_lookup_sites_and_restore_originals():
    sites = tracing.patch_sites()
    where = {(owner.__name__, attr) for owner, attr, *_ in sites}
    # names obil imports into other modules are wrapped where they are looked up
    assert {("obil.experiment", "train_ensemble"), ("obil.experiment", "train"),
            ("obil.experiment", "run_log_lr_stream"),
            ("obil.experiment", "run_regret_experiment"), ("obil.simulate", "step"),
            ("obil.ensemble", "make_associated")} <= where
    with tracing.traced(tracing.Tracer()):
        assert all(owner.__dict__[attr] is not original
                   for owner, attr, original, *_ in sites)
    assert all(owner.__dict__[attr] is original for owner, attr, original, *_ in sites)


def test_injected_nan_fails_output_check(tmp_path):
    out = tiny_run(tmp_path, "out")
    assert run.check_run_output(out, TINY_CONFIG) == []
    report = json.loads((out / "report.json").read_text())
    report["per_seed"][0]["obil"]["auprc"] = float("nan")
    (out / "report.json").write_text(json.dumps(report))
    problems = run.check_run_output(out, TINY_CONFIG)
    assert len(problems) == 1 and "obil auprc = nan" in problems[0]


def test_computed_counts_match_hand_count():
    # 60 negatives and 20 positives; a 0.25 validation split keeps 45 + 15
    # rows for training, so each epoch takes ceil(60 / 16) = 4 Adam steps.
    labels = np.array([0] * 60 + [1] * 20)
    data = LabeledDataset(np.linspace(-2.0, 2.0, 80)[:, None], labels)
    net = mlp.NetworkConfig(input_dim=1, hidden_dims=(4, 3), dropout_rate=0.1, seed=5)
    fit = mlp.TrainingConfig(max_epochs=3, batch_size=16, early_stop_patience=10,
                         validation_fraction=0.25)
    members = [mlp.init_scorer(net, 3.0, "squared") for _ in range(2)]
    ensemble = LikelihoodRatioEnsemble(members, EnsembleConfig((1.0, 2.0), mc_samples=5))
    x = np.linspace(-1.0, 1.0, 7)[:, None]

    def counts():
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            mlp.train(data, net, fit, "squared")
            ensemble.fused_log_lr_batch(x, np.random.default_rng(0))
            ensemble.fused_log_lr(x[0], np.random.default_rng(1))
        return run.layer_metrics(tracer, 0.0, 0.0, 0.0, {})

    # matmul multiply-adds per row: 1*4 + 4*3 + 3*1 = 19; hidden units 4 + 3 = 7;
    # two members, five passes, seven batch rows and one query row
    expected = {
        "mlp.epochs_run": 3,
        "mlp.adam_step.calls": 3 * 4,
        "mlp.loss_and_gradients.calls": 3 * 4 + 3,
        "mlp.mc_forward.calls": 4,
        "mlp.mc_forward.flops": 2 * 2 * 5 * (7 + 1) * 19,
        "mlp.mc_forward.mask_draws": 2 * 5 * (7 + 1) * 7,
        "ensemble.fused_batch.rows": 7,
    }
    for _ in range(2):  # the counts repeat exactly
        measured = counts()
        assert {k: measured[k] for k in expected} == expected
