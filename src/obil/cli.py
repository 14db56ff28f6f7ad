"""Command-line entry point.

Subcommands: gen, train, calibrate, simulate, regret, evaluate, run.
Exit codes: 0 success, 2 config/validation error, 3 runtime stage failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .adapter import init, run_log_lr_stream
from .bayes import posterior_from_log_lr
from .data import stratified_split
from .ensemble import load_ensemble, save_ensemble
from .experiment import (DEFAULT_SPLIT, ConfigError, ParseError, check_seeds,
                         evaluate_predictions, fit_ensemble,
                         fit_scorer_temperature, ingest_csv, load_config,
                         run_experiment, scorer_posteriors,
                         stream_features_labels, write_csv, write_regret,
                         write_trace)
from .losses import REGISTRY as LOSS_REGISTRY
from .metrics import ece_from_posteriors
from .mlp import NetworkConfig, train
from .simulate import StreamScenario, oracle_decision, run_regret_experiment

ECE_GATE = 0.05


def _load(args):
    parsed = load_config(args.config)
    if args.seed is not None:
        parsed["seeds"] = check_seeds([args.seed])
    return parsed


def _out_dir(args) -> Path:
    out = Path(args.out or "obil_out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dataset(parsed, seed):
    problem = parsed["problem"]
    if problem is not None:
        rng = np.random.default_rng(seed)
        return problem.sample_dataset(parsed["train_size"], parsed["train_p1"], rng)
    data = parsed["data"]
    return ingest_csv(data["path"], data.get("label_column", "label"),
                      data.get("positive_value", "1"))


def cmd_gen(args):
    parsed = _load(args)
    if parsed["problem"] is None:
        raise ConfigError("gen requires gaussian data configuration")
    seed = parsed["seeds"][0]
    ds = _dataset(parsed, seed)
    out = _out_dir(args)
    path = out / "data.csv"
    write_csv(ds, path)
    print(f"wrote {len(ds)} rows ({ds.n_negative} neg / {ds.n_positive} pos, "
          f"ratio {ds.imbalance_ratio:.4g}) to {path}")


def _train_ensemble(parsed, seed):
    ds = _dataset(parsed, seed)
    ds.require_both_classes()
    return fit_ensemble(parsed, ds, seed)[0]


def cmd_train(args):
    parsed = _load(args)
    seed = parsed["seeds"][0]
    ensemble = _train_ensemble(parsed, seed)
    out = _out_dir(args)
    path = out / "ensemble.bin"
    save_ensemble(ensemble, path)
    qps = ", ".join(f"{m.training_qp:.4g}" for m in ensemble.members)
    print(f"trained {len(ensemble.members)} members (training ratios: {qps}); "
          f"serialized to {path}")


def cmd_calibrate(args):
    parsed = _load(args)
    seed = parsed["seeds"][0]
    ds = _dataset(parsed, seed)
    train_part, cal_part, test_part = stratified_split(ds, DEFAULT_SPLIT[:2], seed=seed)
    net_cfg = NetworkConfig(input_dim=ds.dim, seed=seed, **parsed["network_kwargs"])
    scorer = train(train_part, net_cfg, parsed["training"], parsed["loss"])
    post_before = scorer_posteriors(scorer, test_part.features)
    ece_before = ece_from_posteriors(post_before, test_part.labels).value
    fitted_t = None
    if LOSS_REGISTRY[parsed["loss"]].logit_space:
        fitted_t = fit_scorer_temperature(scorer, cal_part)
    post_after = scorer_posteriors(scorer, test_part.features)
    ece_after = ece_from_posteriors(post_after, test_part.labels).value
    verdict = "PASS" if ece_after < ECE_GATE else "FAIL"
    print(f"ECE before: {ece_before:.4f}")
    if fitted_t is not None:
        print(f"fitted temperature: {fitted_t:.4f}")
    print(f"ECE after: {ece_after:.4f}")
    print(f"deployment gate (ECE < {ECE_GATE}): {verdict}")
    out = _out_dir(args)
    with open(out / "calibration.json", "w") as fh:
        json.dump({"ece_before": ece_before, "ece_after": ece_after,
                   "temperature": fitted_t, "gate": verdict}, fh, indent=2)


def cmd_simulate(args):
    parsed = _load(args)
    seed = parsed["seeds"][0]
    if parsed["problem"] is None:
        raise ConfigError("simulate requires gaussian data configuration")
    ensemble = _train_ensemble(parsed, seed)
    rng = np.random.default_rng(seed)
    feats, labels, _ = stream_features_labels(parsed["problem"], parsed["trajectory"],
                                              parsed["horizon"], rng)
    fused = ensemble.fused_log_lr_batch(feats, rng)
    trace = run_log_lr_stream(fused, parsed["adapter"])
    out = _out_dir(args)
    path = out / "trace.jsonl"
    write_trace(path, trace)
    print(f"wrote {len(trace)} trace lines to {path}")


def cmd_regret(args):
    parsed = _load(args)
    seed = parsed["seeds"][0]
    if parsed["problem"] is None:
        raise ConfigError("regret requires gaussian data configuration")
    scenario = StreamScenario(parsed["problem"], parsed["trajectory"], parsed["horizon"])
    ledger, _ = run_regret_experiment(scenario, parsed["adapter"],
                                      np.random.default_rng(seed))
    out = _out_dir(args)
    path = out / "regret.tsv"
    write_regret(path, ledger)
    print(f"final cumulative regret: {ledger.cum_regret[-1]:.4f}; ledger at {path}")


def cmd_evaluate(args):
    parsed = _load(args)
    try:
        ensemble = load_ensemble(args.ensemble)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{args.ensemble}: not a readable ensemble: {exc}") from None
    test = ingest_csv(args.test_csv,
                      parsed["data"].get("label_column", "label"),
                      parsed["data"].get("positive_value", "1"))
    if test.dim != ensemble.members[0].input_dim:
        raise ConfigError(f"{args.test_csv}: {test.dim} feature columns, but the "
                          f"ensemble takes {ensemble.members[0].input_dim}")
    rng = np.random.default_rng(parsed["seeds"][0])
    fused = ensemble.fused_log_lr_batch(test.features, rng)
    adapter_cfg = parsed["adapter"]
    if args.adaptive:
        trace = run_log_lr_stream(fused, adapter_cfg)
        preds = np.array([r.prediction for r in trace])
        p1s = np.array([r.p1_hat_after for r in trace])
    else:
        p1 = init(adapter_cfg).p1_hat  # the initial prior, floored as the adapter floors it
        preds = oracle_decision(fused, adapter_cfg.qc, p1)
        p1s = np.full(len(test), p1)
    post = posterior_from_log_lr(fused, p1s)
    metrics = evaluate_predictions(preds, test.labels, fused, post)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    out = _out_dir(args)
    with open(out / "evaluation.json", "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)


def cmd_run(args):
    parsed = _load(args)
    report = run_experiment(parsed, _out_dir(args))
    print(json.dumps(report["aggregate"], indent=2, sort_keys=True))


def build_parser():
    parser = argparse.ArgumentParser(prog="obil", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "gen": (cmd_gen, "write a synthetic CSV from the configured problem"),
        "train": (cmd_train, "fit and serialize a likelihood-ratio ensemble"),
        "calibrate": (cmd_calibrate, "fit temperature and report the ECE gate"),
        "simulate": (cmd_simulate, "run the adapter on a scenario, emit trace"),
        "regret": (cmd_regret, "run the regret experiment, emit ledger"),
        "evaluate": (cmd_evaluate, "score a serialized ensemble on a test CSV"),
        "run": (cmd_run, "run the full multi-seed experiment pipeline"),
    }
    for name, (fn, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the seed list")
        if name == "evaluate":
            p.add_argument("--ensemble", required=True, help="serialized ensemble path")
            p.add_argument("--test-csv", required=True, help="test CSV path")
            p.add_argument("--adaptive", action="store_true",
                           help="adapt the threshold along the test stream")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (ConfigError, ParseError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime stage failure
        print(f"stage failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
