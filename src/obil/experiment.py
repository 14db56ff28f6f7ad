"""Experiment orchestration: config parsing, CSV ingestion, pipelines,
and plot-ready report emission.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .adapter import AdapterConfig, run_log_lr_stream
from .baselines import bbse_estimate_prior, logit_adjust, threshold_moving_fit
from .bayes import clamp_output, posterior_from_log_lr
from .cpus import limit_cpus, one_blas_thread, usable_cpus
from .data import LabeledDataset, stratified_split
from .ensemble import EnsembleConfig, LikelihoodRatioEnsemble, train_ensemble
from .losses import REGISTRY as LOSS_REGISTRY
from .metrics import (ConfusionCounts, auprc, ece_from_posteriors, f1,
                      fit_temperature, g_mean)
from .mlp import NetworkConfig, TrainingConfig, train
from .simulate import (GaussianProblem, PriorTrajectory, StreamScenario,
                       run_regret_experiment)

DEFAULT_SPLIT = (0.70, 0.15, 0.15)  # train / calibration / test
_PR_SET_PDEATHSIG = 1  # prctl option, from <linux/prctl.h>


class ConfigError(ValueError):
    pass


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# CSV ingestion / emission

def ingest_csv(path, label_column: str, positive_value: str) -> LabeledDataset:
    """Parse a headered numeric CSV into a LabeledDataset.

    The label column maps to 1 iff the cell equals positive_value; every
    other column must parse as a finite float.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if label_column not in header:
            raise ConfigError(f"{path}: missing label column {label_column!r}")
        label_idx = header.index(label_column)
        feats, labels = [], []
        for r, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}:{r}: expected {len(header)} cells")
            vals = []
            for c, cell in enumerate(row):
                if c == label_idx:
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    raise ParseError(f"{path}:{r}: column {header[c]!r}: "
                                     f"non-numeric cell {cell!r}") from None
                if not math.isfinite(v):
                    raise ParseError(f"{path}:{r}: column {header[c]!r}: "
                                     f"non-finite cell {cell!r}")
                vals.append(v)
            feats.append(vals)
            labels.append(1 if row[label_idx] == positive_value else 0)
    if not feats:
        raise ParseError(f"{path}: no data rows")
    return LabeledDataset(np.array(feats), np.array(labels))


def write_csv(dataset: LabeledDataset, path, label_column: str = "label"):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dataset.dim)] + [label_column])
        for row, y in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(y)])


# ---------------------------------------------------------------------------
# Config handling

def _section(cfg: dict, name: str, default=None):
    value = cfg.get(name, default if default is not None else {})
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be an object")
    return value


@contextmanager
def _section_values(name: str):
    """Turn a bad value met while building section `name` into a ConfigError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {name}: {exc}") from None


def check_seeds(seeds) -> list:
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds must be a nonempty list")
    for s in seeds:
        if isinstance(s, bool) or not isinstance(s, int) or s < 0:
            raise ConfigError(f"seeds must be nonnegative integers, got {s!r}")
    return list(seeds)


def parse_config(cfg: dict) -> dict:
    """Validate a raw config dict; returns typed components.

    Every value a command reads is checked here, so a bad config fails with
    a ConfigError before any training starts.
    """
    data = _section(cfg, "data", {"kind": "gaussian"})
    kind = data.get("kind", "gaussian")
    if kind not in ("gaussian", "csv"):
        raise ConfigError(f"unknown data kind {kind!r}")
    if kind == "csv" and "path" not in data:
        raise ConfigError("csv data needs a 'path'")

    loss = cfg.get("loss", "squared")
    if loss not in LOSS_REGISTRY:
        raise ConfigError(f"unknown loss {loss!r}; registered: {sorted(LOSS_REGISTRY)}")

    net = _section(cfg, "network")
    trn = _section(cfg, "training")
    ens = _section(cfg, "ensemble")
    adp = _section(cfg, "adapter")
    scn = _section(cfg, "scenario")
    bas = cfg.get("baselines", ["vanilla"])
    if not isinstance(bas, list):
        raise ConfigError("baselines must be a list")
    for b in bas:
        if b not in ("vanilla", "threshold_moving", "logit_adjustment",
                     "logit_adjustment_oracle", "bbse"):
            raise ConfigError(f"unknown baseline {b!r}")

    seeds = check_seeds(cfg.get("seeds", [0]))

    with _section_values("data section"):
        problem = GaussianProblem(
            mu0=np.asarray(data.get("mu0", [-1.0]), dtype=float),
            mu1=np.asarray(data.get("mu1", [1.0]), dtype=float),
            sigma2=float(data.get("sigma2", 1.0)),
        ) if kind == "gaussian" else None
        train_size = int(data.get("n", 2000))
        train_p1 = float(data.get("p1", 0.5))
        if train_size < 1:
            raise ValueError(f"n must be at least 1, got {train_size}")
        if not 0.0 <= train_p1 <= 1.0:
            raise ValueError(f"p1 must lie in [0, 1], got {train_p1}")

    with _section_values("network or training section"):
        network_kwargs = {
            "hidden_dims": tuple(net.get("hidden_dims", [128, 64, 32])),
            "activation": net.get("activation", "relu"),
            "dropout_rate": float(net.get("dropout_rate", 0.1)),
        }
        # callers add the input dimension and the seed; check the rest now
        NetworkConfig(input_dim=1, **network_kwargs)
        training = TrainingConfig(
            learning_rate=float(trn.get("learning_rate", 1e-3)),
            max_epochs=int(trn.get("max_epochs", 100)),
            batch_size=int(trn.get("batch_size", 32)),
            early_stop_patience=int(trn.get("early_stop_patience", 10)),
            validation_fraction=float(trn.get("validation_fraction", 0.15)),
        )

    with _section_values("ensemble section"):
        ensemble_kwargs = {
            "fusion_temperature": float(ens.get("fusion_temperature", 1.0)),
            "mc_samples": int(ens.get("mc_samples", 30)),
            "calibration_fraction": float(ens.get("calibration_fraction", 0.15)),
            "resample_method": ens.get("resample_method", "undersample"),
        }
        target_qps = ens.get("target_qps")
        if target_qps is not None:
            target_qps = EnsembleConfig(target_qps, **ensemble_kwargs).target_qps
        else:
            # the default ratios follow the data; check the other fields now
            EnsembleConfig(**ensemble_kwargs)

    with _section_values("adapter section"):
        adapter = AdapterConfig(
            qc=float(adp.get("qc", 1.0)),
            initial_p1=float(adp.get("initial_p1", 0.5)),
            alpha=float(adp.get("alpha", 0.05)),
            gamma=float(adp.get("gamma", 0.9)),
            beta=float(adp.get("beta", 0.6)),
            delta_max=float(adp.get("delta_max", 0.02)),
            window_w=int(adp.get("window_w", 100)),
        )

    with _section_values("scenario section"):
        trajectory = PriorTrajectory(
            kind=scn.get("kind", "constant"),
            p_before=float(scn.get("p_before", scn.get("p1", 0.5))),
            p_after=float(scn.get("p_after", 0.5)),
            t_switch=int(scn.get("t_switch", 0)),
            decay_steps=int(scn.get("decay_steps", 1000)),
            p_start=float(scn.get("p_start", 0.2)),
            slope=float(scn.get("slope", 0.0)),
            p_cap=float(scn.get("p_cap", 0.8)),
        )
        horizon = int(scn.get("horizon", 1000))
        if horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {horizon}")

    return {
        "data": data,
        "problem": problem,
        "loss": loss,
        "network_kwargs": network_kwargs,
        "training": training,
        "ensemble_kwargs": ensemble_kwargs,
        "target_qps": target_qps,
        "adapter": adapter,
        "trajectory": trajectory,
        "horizon": horizon,
        "train_size": train_size,
        "train_p1": train_p1,
        "baselines": bas,
        "seeds": seeds,
        "input_dim": problem.dim if problem is not None else None,
    }


def load_config(path) -> dict:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    parsed = parse_config(raw)
    parsed["raw"] = raw
    return parsed


def ensemble_config_from(parsed: dict, native_qp: float) -> EnsembleConfig:
    targets = parsed["target_qps"]
    if targets is None:
        targets = [q for q in (1.0, 2.0, 5.0, 10.0) if q <= native_qp] or [1.0]
        if all(abs(native_qp - t) > 0.25 for t in targets):
            targets.append(round(native_qp, 4))
    return EnsembleConfig(target_qps=tuple(targets), **parsed["ensemble_kwargs"])


# ---------------------------------------------------------------------------
# Scorer evaluation helpers

def scorer_posteriors(scorer, x):
    o = clamp_output(np.atleast_1d(scorer.forward(x)))
    return (o + 1.0) / 2.0


def scorer_log_lrs(scorer, x):
    return np.atleast_1d(scorer.log_lr(x))


def evaluate_predictions(preds, labels, scores, posteriors):
    counts = ConfusionCounts.from_predictions(preds, labels)
    return {
        "f1": f1(counts).value,
        "g_mean": g_mean(counts).value,
        "auprc": auprc(scores, labels).value,
        "ece": ece_from_posteriors(posteriors, labels).value,
    }


def stream_features_labels(problem: GaussianProblem, trajectory: PriorTrajectory,
                           horizon: int, rng: np.random.Generator):
    p1s = np.array([trajectory.p1_at(t) for t in range(horizon)])
    labels = (rng.random(horizon) < p1s).astype(int)
    feats = problem.sample(labels, rng)
    return feats, labels, p1s


def evaluate_on_stream(ensemble: LikelihoodRatioEnsemble, vanilla_scorer,
                       feats, labels, parsed, rng, calibration=None):
    """OBIL with adaptive threshold vs configured baselines on one stream.

    Returns {method: metrics dict} plus the adapter trace.
    """
    adapter_cfg = parsed["adapter"]
    qc = adapter_cfg.qc
    results = {}

    fused = ensemble.fused_log_lr_batch(feats, rng)
    trace = run_log_lr_stream(fused, adapter_cfg)
    preds = np.array([r.prediction for r in trace])
    # posterior implied by the fused ratio at the adapter's evolving prior
    p1s = np.array([r.p1_hat_after for r in trace])
    post = posterior_from_log_lr(fused, p1s)
    results["obil"] = evaluate_predictions(preds, labels, fused, post)

    if vanilla_scorer is not None:
        log_lrs = scorer_log_lrs(vanilla_scorer, feats)
        vpost = scorer_posteriors(vanilla_scorer, feats)
        fixed_q = qc * vanilla_scorer.training_qp
        for name in parsed["baselines"]:
            if name == "vanilla":
                p = (np.exp(log_lrs) > fixed_q).astype(int)
                results["vanilla"] = evaluate_predictions(p, labels, log_lrs, vpost)
            elif name == "threshold_moving":
                if calibration is None:
                    raise ConfigError("threshold_moving needs a calibration split")
                cal_scores = scorer_posteriors(vanilla_scorer, calibration.features)
                thr, _ = threshold_moving_fit(cal_scores, calibration.labels)
                p = (vpost > thr).astype(int)
                results["threshold_moving"] = evaluate_predictions(p, labels, log_lrs, vpost)
            elif name in ("logit_adjustment", "logit_adjustment_oracle"):
                train_p1 = 1.0 / (1.0 + vanilla_scorer.training_qp)
                test_p1 = float(labels.mean()) if name.endswith("oracle") else train_p1
                test_p1 = min(max(test_p1, 0.005), 0.995)
                z = np.log(vpost) - np.log1p(-vpost)
                zadj = logit_adjust(z, train_p1, test_p1)
                p = (zadj > 0).astype(int)
                results[name] = evaluate_predictions(p, labels, log_lrs, vpost)
            elif name == "bbse":
                if calibration is None:
                    raise ConfigError("bbse needs a calibration split")
                cal_post = scorer_posteriors(vanilla_scorer, calibration.features)
                cal_pred = (cal_post > 0.5).astype(int)
                cy = calibration.labels
                conf = np.zeros((2, 2))
                for j in (0, 1):
                    mask = cy == j
                    if mask.sum() == 0:
                        raise ConfigError("bbse calibration split lacks a class")
                    conf[1, j] = np.mean(cal_pred[mask])
                    conf[0, j] = 1.0 - conf[1, j]
                target_pred = (vpost > 0.5).astype(int)
                mu = np.array([1.0 - target_pred.mean(), target_pred.mean()])
                _, p1_hat = bbse_estimate_prior(conf, mu)
                thr = qc * (1.0 - p1_hat) / p1_hat
                p = (np.exp(log_lrs) > thr).astype(int)
                results["bbse"] = evaluate_predictions(p, labels, log_lrs, vpost)
    return results, trace


def fit_scorer_temperature(scorer, calibration: LabeledDataset):
    """Post-hoc temperature for a logit-space scorer, fitted on held-out data."""
    z = np.atleast_1d(scorer.logits(calibration.features))
    t_opt, _ = fit_temperature(z, calibration.labels)
    scorer.temperature = t_opt
    return t_opt


# ---------------------------------------------------------------------------
# Full pipeline

def fit_ensemble(parsed: dict, dataset: LabeledDataset, seed: int):
    """Split dataset and train the ensemble; returns (ensemble, train, cal, net_cfg)."""
    train_part, cal_part, _test_part = stratified_split(dataset, DEFAULT_SPLIT[:2], seed=seed)
    net_cfg = NetworkConfig(input_dim=dataset.dim, seed=seed, **parsed["network_kwargs"])
    ens_cfg = ensemble_config_from(parsed, train_part.imbalance_ratio)
    ensemble = train_ensemble(train_part, ens_cfg, net_cfg, parsed["training"],
                              parsed["loss"], seed=seed)
    return ensemble, train_part, cal_part, net_cfg


def run_single_seed(parsed: dict, seed: int):
    problem = parsed["problem"]
    if problem is None:
        raise ConfigError("run_experiment currently requires gaussian data")
    rng = np.random.default_rng(seed)
    train_set = problem.sample_dataset(parsed["train_size"], parsed["train_p1"], rng)
    ensemble, train_part, cal_part, net_cfg = fit_ensemble(parsed, train_set, seed)
    vanilla = train(train_part, net_cfg, parsed["training"], parsed["loss"])
    if LOSS_REGISTRY[parsed["loss"]].logit_space and cal_part.n_positive and cal_part.n_negative:
        for member in ensemble.members:
            fit_scorer_temperature(member, cal_part)
        fit_scorer_temperature(vanilla, cal_part)

    feats, labels, _ = stream_features_labels(problem, parsed["trajectory"],
                                              parsed["horizon"], rng)
    results, trace = evaluate_on_stream(ensemble, vanilla, feats, labels,
                                        parsed, rng, calibration=cal_part)

    scenario = StreamScenario(problem, parsed["trajectory"], parsed["horizon"], seed=seed)
    ledger, _ = run_regret_experiment(scenario, parsed["adapter"],
                                      np.random.default_rng(seed + 1))
    return {"metrics": results, "trace": trace, "regret": ledger}


def write_trace(path, trace):
    """Adapter trace as JSON lines, one StepRecord per line."""
    with open(path, "w") as fh:
        for record in trace:
            fh.write(record.to_json() + "\n")


def write_regret(path, ledger):
    """Regret ledger as a tab-separated table with a header row."""
    with open(path, "w") as fh:
        fh.write("t\talg_loss\toracle_loss\tcum_regret\n")
        for row in ledger.rows():
            fh.write("\t".join(repr(v) for v in row) + "\n")


def _aggregate(per_seed):
    methods = sorted({m for row in per_seed for m in row})
    agg = {}
    for m in methods:
        rows = [row[m] for row in per_seed if m in row]
        agg[m] = {}
        for key in rows[0]:
            vals = np.array([r[key] for r in rows])
            agg[m][key] = {"mean": float(vals.mean()), "std": float(vals.std(ddof=0))}
    return agg


def _init_worker(parent_pid: int, cpu_share: int):
    """Pool initializer: tie the worker to its parent, use one OpenBLAS thread.

    A worker whose parent was killed would wait for work forever, so on
    Linux it asks for SIGKILL when the parent dies.  Its MC-dropout passes
    use at most `cpu_share` threads.
    """
    import ctypes
    import signal
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent_pid:  # the parent died before prctl
        os._exit(1)
    one_blas_thread()
    limit_cpus(cpu_share)


def _run_seed(parsed: dict, seed: int, out: Path) -> dict:
    """Run one seed, write its directory under `out`, return its metrics."""
    result = run_single_seed(parsed, seed)
    seed_dir = out / f"seed_{seed}"
    seed_dir.mkdir(exist_ok=True)
    with open(seed_dir / "metrics.json", "w") as fh:
        json.dump(result["metrics"], fh, indent=2, sort_keys=True)
    write_trace(seed_dir / "trace.jsonl", result["trace"])
    write_regret(seed_dir / "regret.tsv", result["regret"])
    return result["metrics"]


def run_experiment(parsed: dict, out_dir):
    """Run every configured seed and write the report tree.

    Layout: <out>/seed_<n>/{metrics.json, trace.jsonl, regret.tsv} plus
    <out>/report.json with per-seed rows and mean/std aggregates.  Each
    distinct seed runs once, in forked worker processes when there are
    several seeds and CPUs; a repeated seed repeats its report row.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seeds = parsed["seeds"]
    distinct = list(dict.fromkeys(seeds))
    run_seed = functools.partial(_run_seed, parsed, out=out)
    cpus = usable_cpus()
    workers = min(len(distinct), cpus) if hasattr(os, "fork") else 1
    if workers > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        # map cancels the seeds not yet started once one raises
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_init_worker,
                                 initargs=(os.getpid(), cpus // workers)) as pool:
            metrics = list(pool.map(run_seed, distinct))
    else:
        metrics = [run_seed(seed) for seed in distinct]
    by_seed = dict(zip(distinct, metrics))
    per_seed_metrics = [by_seed[seed] for seed in seeds]

    report = {
        "tool_version": __version__,
        "config": parsed.get("raw", {}),
        "seeds": seeds,
        "per_seed": [{m: v for m, v in row.items()} for row in per_seed_metrics],
        "aggregate": _aggregate(per_seed_metrics),
    }
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    return report
