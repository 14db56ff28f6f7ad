"""Experiment orchestration: config parsing, CSV ingestion, pipelines,
and plot-ready report emission.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .adapter import AdapterConfig, init, run_log_lr_stream
from .baselines import bbse_estimate_prior, logit_adjust, threshold_moving_fit
from .bayes import PRIOR_FLOOR, clamp_output, log_lr_from_output, posterior_from_log_lr
from .cpus import limit_cpus, one_blas_thread, usable_cpus
from .data import LabeledDataset, stratified_split
from .ensemble import EnsembleConfig, LikelihoodRatioEnsemble, train_ensemble
from .losses import REGISTRY as LOSS_REGISTRY
from .metrics import (ConfusionCounts, auprc, ece_from_posteriors, f1,
                      fit_temperature, g_mean)
from .mlp import NetworkConfig, TrainingConfig, train
from .simulate import (GaussianProblem, PriorTrajectory, StreamScenario,
                       oracle_decision, run_regret_experiment)

DEFAULT_SPLIT = (0.70, 0.15, 0.15)  # train / calibration / test
_PR_SET_PDEATHSIG = 1  # prctl option, from <linux/prctl.h>


class ConfigError(ValueError):
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
            raise ConfigError(f"{path}: empty file") from None
        if label_column not in header:
            raise ConfigError(f"{path}: missing label column {label_column!r}")
        label_idx = header.index(label_column)
        feats, labels = [], []
        for r, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ConfigError(f"{path}:{r}: expected {len(header)} cells")
            vals = []
            for c, cell in enumerate(row):
                if c == label_idx:
                    continue
                try:
                    v = float(cell)
                except ValueError:
                    raise ConfigError(f"{path}:{r}: column {header[c]!r}: "
                                      f"non-numeric cell {cell!r}") from None
                if not math.isfinite(v):
                    raise ConfigError(f"{path}:{r}: column {header[c]!r}: "
                                      f"non-finite cell {cell!r}")
                vals.append(v)
            feats.append(vals)
            labels.append(1 if row[label_idx] == positive_value else 0)
    if not feats:
        raise ConfigError(f"{path}: no data rows")
    return LabeledDataset(np.array(feats), np.array(labels))


def write_csv(dataset: LabeledDataset, path, label_column: str = "label"):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(dataset.dim)] + [label_column])
        for row, y in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(y)])


def write_json(path, obj):
    """The one JSON artifact format: indent 2, keys sorted."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Config handling

TOP_LEVEL_KEYS = ("data", "loss", "network", "training", "ensemble", "adapter",
                  "scenario", "baselines", "seeds")
DATA_KEYS = ("kind", "n", "p1", "mu0", "mu1", "sigma2",  # gaussian
             "path", "label_column", "positive_value")  # csv, and evaluate's test CSV
# dataclass fields that callers set and a config never does
_CALLER_FIELDS = ("input_dim", "seed", "prior_floor")
# field annotations are strings (postponed evaluation)
_CONVERTERS = {"float": float, "int": int, "str": str, "tuple": tuple,
               "np.ndarray": functools.partial(np.asarray, dtype=float)}


def _check_keys(section: dict, known, where: str):
    for key in section:
        if key not in known:
            raise ConfigError(f"unknown config key {where + key!r}")


def _section(cfg: dict, name: str) -> dict:
    value = cfg.get(name, {})
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


def _field_values(cls, section: dict, name: str, **check) -> dict:
    """Keyword arguments for dataclass `cls` from the keys of config section `name`.

    Each key must name a field of `cls` that a config may set, and its value
    is converted to the type the field declares; a missing key takes the
    field's default.  Building `cls`, with `check` filling fields that
    callers supply, checks the values.
    """
    types = {f.name: f.type for f in dataclasses.fields(cls) if f.name not in _CALLER_FIELDS}
    _check_keys(section, types, f"{name}.")
    with _section_values(f"{name} section"):
        kwargs = {key: _CONVERTERS[types[key]](value) for key, value in section.items()}
        cls(**check, **kwargs)
    return kwargs


def check_seeds(seeds) -> list:
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds must be a nonempty list")
    for s in seeds:
        if isinstance(s, bool) or not isinstance(s, int) or s < 0:
            raise ConfigError(f"seeds must be nonnegative integers, got {s!r}")
    return list(seeds)


def parse_config(cfg: dict) -> dict:
    """Validate a raw config dict; returns typed components.

    A section's keys are the fields of its dataclass, which holds their
    defaults, and a key that no command reads is an error.  Every value a
    command reads is checked here, so a bad config fails with a ConfigError
    before any training starts.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("a config must be a JSON object")
    _check_keys(cfg, TOP_LEVEL_KEYS, "")
    data = _section(cfg, "data")
    _check_keys(data, DATA_KEYS, "data.")
    kind = data.get("kind", "gaussian")
    if kind not in ("gaussian", "csv"):
        raise ConfigError(f"unknown data kind {kind!r}")
    if kind == "csv" and "path" not in data:
        raise ConfigError("csv data needs a 'path'")

    loss = cfg.get("loss", "squared")
    if loss not in LOSS_REGISTRY:
        raise ConfigError(f"unknown loss {loss!r}; registered: {sorted(LOSS_REGISTRY)}")

    bas = cfg.get("baselines", ["vanilla"])
    if not isinstance(bas, list):
        raise ConfigError("baselines must be a list")
    for b in bas:
        if b not in ("vanilla", "threshold_moving", "logit_adjustment",
                     "logit_adjustment_oracle", "bbse"):
            raise ConfigError(f"unknown baseline {b!r}")

    seeds = check_seeds(cfg.get("seeds", [0]))

    gaussian = {k: data[k] for k in ("mu0", "mu1", "sigma2") if k in data}
    problem = GaussianProblem(**_field_values(GaussianProblem, gaussian, "data")) \
        if kind == "gaussian" else None
    with _section_values("data section"):
        train_size = int(data.get("n", 2000))
        train_p1 = float(data.get("p1", 0.5))
        if train_size < 1:
            raise ValueError(f"n must be at least 1, got {train_size}")
        if not 0.0 <= train_p1 <= 1.0:
            raise ValueError(f"p1 must lie in [0, 1], got {train_p1}")

    # a config's nets use dropout unless it says otherwise, the library's do
    # not; callers add the input dimension and the seed
    network = {"dropout_rate": 0.1, **_section(cfg, "network")}
    network_kwargs = _field_values(NetworkConfig, network, "network", input_dim=1)
    training = TrainingConfig(**_field_values(TrainingConfig, _section(cfg, "training"),
                                              "training"))
    # without target_qps the ratios follow the data (ensemble_config_from)
    ensemble_kwargs = _field_values(EnsembleConfig, _section(cfg, "ensemble"), "ensemble")
    adapter = AdapterConfig(**_field_values(AdapterConfig, _section(cfg, "adapter"), "adapter"))

    scenario = dict(_section(cfg, "scenario"))
    if "p1" in scenario:  # an alias of p_before, which wins when both are set
        scenario.setdefault("p_before", scenario.pop("p1"))
    horizon = scenario.pop("horizon", 1000)
    trajectory = PriorTrajectory(**_field_values(PriorTrajectory, scenario, "scenario"))
    with _section_values("scenario section"):
        horizon = int(horizon)
        if horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {horizon}")

    return {
        "data": data,
        "problem": problem,
        "loss": loss,
        "network_kwargs": network_kwargs,
        "training": training,
        "ensemble_kwargs": ensemble_kwargs,
        "adapter": adapter,
        "trajectory": trajectory,
        "horizon": horizon,
        "train_size": train_size,
        "train_p1": train_p1,
        "baselines": bas,
        "seeds": seeds,
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
    """The configured ensemble; without target_qps, ratios up to the data's own."""
    kwargs = parsed["ensemble_kwargs"]
    if "target_qps" not in kwargs:
        targets = [q for q in (1.0, 2.0, 5.0, 10.0) if q <= native_qp] or [1.0]
        if all(abs(native_qp - t) > 0.25 for t in targets):
            targets.append(round(native_qp, 4))
        kwargs = {**kwargs, "target_qps": targets}
    return EnsembleConfig(**kwargs)


# ---------------------------------------------------------------------------
# Scorer evaluation helpers

def scorer_posteriors(scorer, x):
    o = clamp_output(np.atleast_1d(scorer.forward(x)))
    return (o + 1.0) / 2.0


def evaluate_predictions(preds, labels, scores, posteriors):
    counts = ConfusionCounts.from_predictions(preds, labels)
    return {
        "f1": f1(counts).value,
        "g_mean": g_mean(counts).value,
        "auprc": auprc(scores, labels).value,
        "ece": ece_from_posteriors(posteriors, labels).value,
    }


def adaptive_metrics(fused, labels, trace):
    """OBIL's metrics from the adapter's trace on the fused log-LRs, with the
    posterior the fused ratio implies at the adapter's prior after each step."""
    preds = np.array([r.prediction for r in trace])
    p1s = np.array([r.p1_hat_after for r in trace])
    return evaluate_predictions(preds, labels, fused, posterior_from_log_lr(fused, p1s))


def score_obil(ensemble: LikelihoodRatioEnsemble, feats, labels,
               adapter_cfg: AdapterConfig, rng, adaptive: bool = True):
    """OBIL's metrics on a labelled stream, and the adapter trace.

    The fused log-LRs meet the adapter's evolving prior, or with adaptive
    False the initial prior held fixed (floored as the adapter floors it),
    whose trace is None.
    """
    fused = ensemble.fused_log_lr_batch(feats, rng)
    if adaptive:
        trace = run_log_lr_stream(fused, adapter_cfg)
        return adaptive_metrics(fused, labels, trace), trace
    p1 = init(adapter_cfg).p1_hat
    preds = oracle_decision(fused, adapter_cfg.qc, p1)
    return evaluate_predictions(preds, labels, fused, posterior_from_log_lr(fused, p1)), None


def evaluate_on_stream(vanilla_scorer, feats, labels, parsed, calibration=None):
    """The configured baselines on one labelled stream: {method: metrics dict}."""
    qc = parsed["adapter"].qc
    results = {}
    # one forward pass over the stream gives both the ratio and the posterior
    o = clamp_output(np.atleast_1d(vanilla_scorer.forward(feats)))
    log_lrs = log_lr_from_output(o, vanilla_scorer.training_qp)
    vpost = (o + 1.0) / 2.0
    uses_cal = [b for b in parsed["baselines"] if b in ("threshold_moving", "bbse")]
    if uses_cal:
        if calibration is None:
            raise ConfigError(f"{uses_cal[0]} needs a calibration split")
        cal_post = scorer_posteriors(vanilla_scorer, calibration.features)
    for name in parsed["baselines"]:
        if name == "vanilla":
            p = (np.exp(log_lrs) > qc * vanilla_scorer.training_qp).astype(int)
            results["vanilla"] = evaluate_predictions(p, labels, log_lrs, vpost)
        elif name == "threshold_moving":
            thr, _ = threshold_moving_fit(cal_post, calibration.labels)
            p = (vpost > thr).astype(int)
            results["threshold_moving"] = evaluate_predictions(p, labels, log_lrs, vpost)
        elif name in ("logit_adjustment", "logit_adjustment_oracle"):
            train_p1 = 1.0 / (1.0 + vanilla_scorer.training_qp)
            test_p1 = float(labels.mean()) if name.endswith("oracle") else train_p1
            test_p1 = min(max(test_p1, PRIOR_FLOOR), 1.0 - PRIOR_FLOOR)
            z = np.log(vpost) - np.log1p(-vpost)
            zadj = logit_adjust(z, train_p1, test_p1)
            p = (zadj > 0).astype(int)
            results[name] = evaluate_predictions(p, labels, log_lrs, vpost)
        elif name == "bbse":
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
            p = oracle_decision(log_lrs, qc, p1_hat)
            results["bbse"] = evaluate_predictions(p, labels, log_lrs, vpost)
    return results


def fit_scorer_temperature(scorer, calibration: LabeledDataset):
    """Post-hoc temperature for a logit-space scorer, fitted on held-out data."""
    z = np.atleast_1d(scorer.logits(calibration.features))
    t_opt, _ = fit_temperature(z, calibration.labels)
    scorer.temperature = t_opt
    return t_opt


# ---------------------------------------------------------------------------
# Seed pipeline: the stages every command runs, in the order `obil run` runs them

def gaussian_problem(parsed: dict, command: str) -> GaussianProblem:
    if parsed["problem"] is None:
        raise ConfigError(f"{command} requires gaussian data")
    return parsed["problem"]


def load_csv(parsed: dict, path) -> LabeledDataset:
    """A CSV read with the config's label column and positive value."""
    data = parsed["data"]
    return ingest_csv(path, data.get("label_column", "label"),
                      data.get("positive_value", "1"))


def seed_data(parsed: dict, seed: int):
    """A seed's dataset and default_rng(seed), left where the seed's stream starts.

    Gaussian data is drawn from that generator; CSV data leaves it untouched.
    """
    rng = np.random.default_rng(seed)
    problem = parsed["problem"]
    if problem is None:
        return load_csv(parsed, parsed["data"]["path"]), rng
    return problem.sample_dataset(parsed["train_size"], parsed["train_p1"], rng), rng


def split_data(parsed: dict, dataset: LabeledDataset, seed: int):
    """A seed's train / calibration / test parts and its network config."""
    dataset.require_both_classes()
    parts = stratified_split(dataset, DEFAULT_SPLIT[:2], seed=seed)
    return parts, NetworkConfig(input_dim=dataset.dim, seed=seed, **parsed["network_kwargs"])


def fit_ensemble(parsed: dict, dataset: LabeledDataset, seed: int, with_vanilla=False):
    """Split the data and train the ensemble, and with_vanilla a plain net too.

    Under a logit-space loss each net's temperature is then fitted on the
    calibration part, unless that part lacks a class.  Returns (ensemble,
    vanilla net or None, calibration part).
    """
    (train_part, cal_part, _test_part), net_cfg = split_data(parsed, dataset, seed)
    ens_cfg = ensemble_config_from(parsed, train_part.imbalance_ratio)
    ensemble = train_ensemble(train_part, ens_cfg, net_cfg, parsed["training"],
                              parsed["loss"], seed=seed)
    vanilla = train(train_part, net_cfg, parsed["training"], parsed["loss"]) \
        if with_vanilla else None
    if LOSS_REGISTRY[parsed["loss"]].logit_space and cal_part.n_positive \
            and cal_part.n_negative:
        for net in ensemble.members + ([vanilla] if with_vanilla else []):
            fit_scorer_temperature(net, cal_part)
    return ensemble, vanilla, cal_part


def seed_stream(parsed: dict, ensemble: LikelihoodRatioEnsemble, rng):
    """The seed's one stream, drawn and fused from rng where seed_data left it.

    The adapter runs once on the fused log-LRs, and the ledger charges that
    run against the oracle.  Returns (features, labels, fused, ledger, trace).
    """
    scenario = StreamScenario(parsed["problem"], parsed["trajectory"], parsed["horizon"])
    stream = scenario.draw(rng)
    fused = ensemble.fused_log_lr_batch(stream[0], rng)
    ledger, trace = run_regret_experiment(scenario, parsed["adapter"], stream, fused)
    return stream[0], stream[1], fused, ledger, trace


def run_single_seed(parsed: dict, seed: int):
    gaussian_problem(parsed, "run")
    dataset, rng = seed_data(parsed, seed)
    ensemble, vanilla, cal_part = fit_ensemble(parsed, dataset, seed, with_vanilla=True)
    feats, labels, fused, ledger, trace = seed_stream(parsed, ensemble, rng)
    results = evaluate_on_stream(vanilla, feats, labels, parsed, calibration=cal_part)
    results["obil"] = adaptive_metrics(fused, labels, trace)
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
    write_json(seed_dir / "metrics.json", result["metrics"])
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
    write_json(out / "report.json", report)
    return report
