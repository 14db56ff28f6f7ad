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
from .ensemble import load_ensemble, save_ensemble
from .experiment import (ConfigError, check_seeds, fit_ensemble,
                         fit_scorer_temperature, gaussian_problem, load_config,
                         load_csv, run_experiment, score_obil, scorer_posteriors,
                         seed_data, seed_stream, split_data, write_csv, write_json,
                         write_regret, write_trace)
from .losses import REGISTRY as LOSS_REGISTRY
from .metrics import ece_from_posteriors
from .mlp import train

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


def cmd_gen(args):
    parsed = _load(args)
    gaussian_problem(parsed, "gen")
    ds = seed_data(parsed, parsed["seeds"][0])[0]
    out = _out_dir(args)
    path = out / "data.csv"
    write_csv(ds, path)
    print(f"wrote {len(ds)} rows ({ds.n_negative} neg / {ds.n_positive} pos, "
          f"ratio {ds.imbalance_ratio:.4g}) to {path}")


def cmd_train(args):
    parsed = _load(args)
    seed = parsed["seeds"][0]
    ensemble = fit_ensemble(parsed, seed_data(parsed, seed)[0], seed)[0]
    out = _out_dir(args)
    path = out / "ensemble.bin"
    save_ensemble(ensemble, path)
    qps = ", ".join(f"{m.training_qp:.4g}" for m in ensemble.members)
    print(f"trained {len(ensemble.members)} members (training ratios: {qps}); "
          f"serialized to {path}")


def cmd_calibrate(args):
    parsed = _load(args)
    seed = parsed["seeds"][0]
    (train_part, cal_part, test_part), net_cfg = split_data(
        parsed, seed_data(parsed, seed)[0], seed)
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
    write_json(_out_dir(args) / "calibration.json",
               {"ece_before": ece_before, "ece_after": ece_after,
                "temperature": fitted_t, "gate": verdict})


def _seed_stream(args, command: str):
    """`obil run`'s stages for the first seed, without the baselines."""
    parsed = _load(args)
    seed = parsed["seeds"][0]
    gaussian_problem(parsed, command)
    dataset, rng = seed_data(parsed, seed)
    return seed_stream(parsed, fit_ensemble(parsed, dataset, seed)[0], rng)


def cmd_simulate(args):
    *_, trace = _seed_stream(args, "simulate")
    path = _out_dir(args) / "trace.jsonl"
    write_trace(path, trace)
    print(f"wrote {len(trace)} trace lines to {path}")


def cmd_regret(args):
    *_, ledger, _ = _seed_stream(args, "regret")
    path = _out_dir(args) / "regret.tsv"
    write_regret(path, ledger)
    print(f"final cumulative regret: {ledger.cum_regret[-1]:.4f}; ledger at {path}")


def cmd_evaluate(args):
    parsed = _load(args)
    try:
        ensemble = load_ensemble(args.ensemble)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{args.ensemble}: not a readable ensemble: {exc}") from None
    test = load_csv(parsed, args.test_csv)
    if test.dim != ensemble.members[0].input_dim:
        raise ConfigError(f"{args.test_csv}: {test.dim} feature columns, but the "
                          f"ensemble takes {ensemble.members[0].input_dim}")
    metrics, _ = score_obil(ensemble, test.features, test.labels, parsed["adapter"],
                            np.random.default_rng(parsed["seeds"][0]),
                            adaptive=args.adaptive)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    write_json(_out_dir(args) / "evaluation.json", metrics)


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
        "regret": (cmd_regret, "fit, then charge the adapter's regret, emit ledger"),
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
    except (ConfigError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime stage failure
        print(f"stage failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
