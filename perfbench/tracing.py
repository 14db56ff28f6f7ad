"""Span tracing of obil's public functions, installed from outside the package.

A wrapper records one span (name, start, end, parent, run id) in memory per
call and, for some functions, adds counts computed from the call's arguments
and result.  Wrappers go into every obil namespace that holds the function,
because obil modules import each other's functions by name: patching only the
defining module would miss `obil.experiment.train_ensemble`, say.  `traced()`
restores every original on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _rows(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) == 1 else shape[0]


def mc_forward_counts(scorer, n_rows: int, m: int) -> dict:
    """Matmul flops (2 per multiply-add) and dropout mask draws of m MC passes."""
    shapes = [w.shape for w in scorer.weights]
    flops = 2 * m * n_rows * sum(fan_in * fan_out for fan_in, fan_out in shapes)
    draws = m * n_rows * sum(fan_out for _, fan_out in shapes[:-1])
    return {"mlp.mc_forward.flops": flops, "mlp.mc_forward.mask_draws": draws}


def _count_mc_batch(args, result):
    # mc_dropout_outputs runs every pass, with masks only when dropout is on
    counts = mc_forward_counts(args["scorer"], _rows(args["x"]), args["m"])
    if args["scorer"].dropout_rate == 0.0:
        counts["mlp.mc_forward.mask_draws"] = 0
    return counts


def _count_mc_scalar(args, result):
    # the scalar path returns before any pass when dropout is off
    if args["scorer"].dropout_rate == 0.0:
        return {}
    return mc_forward_counts(args["scorer"], 1, args["m"])


def _count_fused_batch(args, result):
    return {"ensemble.fused_batch.rows": _rows(args["x"])}


def _count_associated(args, result):
    return {"resampling.rows_out": len(result)}


def _count_step(args, result):
    record = result[1]
    return {"adapter.updated": int(record.updated), "adapter.clamped": int(record.clamped)}


def _count_regret(args, result):
    return {"simulate.regret.steps": args["scenario"].horizon,
            "simulate.cum_regret_sum": float(result[0].cum_regret[-1])}


# (defining module, qualified name, span name, counter or None).  Functions
# are wrapped in every obil namespace that binds them; methods on their class.
TARGETS = [
    ("obil.mlp", "train", "mlp.train", None),
    ("obil.mlp", "loss_and_gradients", "mlp.loss_and_gradients", None),
    ("obil.mlp", "AdamState.step", "mlp.adam_step", None),
    ("obil.mlp", "mc_dropout_outputs", "mlp.mc_forward", _count_mc_batch),
    ("obil.mlp", "mc_dropout_log_lr_variance", "mlp.mc_forward", _count_mc_scalar),
    ("obil.ensemble", "train_ensemble", "ensemble.train_ensemble", None),
    ("obil.ensemble", "LikelihoodRatioEnsemble.fused_log_lr_batch", "ensemble.fused_batch",
     _count_fused_batch),
    ("obil.ensemble", "LikelihoodRatioEnsemble.fused_log_lr", "ensemble.fused_query", None),
    ("obil.resampling", "make_associated", "resampling.make_associated", _count_associated),
    ("obil.adapter", "step", "adapter.step", _count_step),
    ("obil.adapter", "StepRecord.to_json", "adapter.to_json", None),
    ("obil.adapter", "run_log_lr_stream", "adapter.run_log_lr_stream", None),
    ("obil.simulate", "run_regret_experiment", "simulate.regret", _count_regret),
    ("obil.simulate", "sample_step", "simulate.sample_step", None),
    ("obil.metrics", "fit_temperature", "metrics.fit_temperature", None),
    ("obil.metrics", "f1", "metrics.eval", None),
    ("obil.metrics", "g_mean", "metrics.eval", None),
    ("obil.metrics", "auprc", "metrics.eval", None),
    ("obil.metrics", "ece_from_posteriors", "metrics.eval", None),
    ("obil.baselines", "threshold_moving_fit", "baselines.threshold_moving_fit", None),
    ("obil.baselines", "logit_adjust", "baselines.logit_adjust", None),
    ("obil.baselines", "bbse_estimate_prior", "baselines.bbse_estimate_prior", None),
    ("obil.experiment", "load_config", "experiment.parse_config", None),
    ("obil.experiment", "parse_config", "experiment.parse_config", None),
    ("obil.experiment", "run_experiment", "experiment.run_experiment", None),
    ("obil.experiment", "run_single_seed", "experiment.seed", None),
]


class Tracer:
    """In-memory span store.  A span is [name, start, end, parent, run, nested].

    `parent` is the index of the enclosing span or -1; `nested` marks a span
    that runs inside another span of the same name, so inclusive totals can
    skip it.  Set `run` to tag the spans of one job or query.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.run = "setup"
        self._stack = []
        self._active = Counter()

    def wrap(self, name, fn, counter=None):
        params = list(inspect.signature(fn).parameters) if counter is not None else None
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run, active[name] > 0]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                active[name] -= 1
                stack.pop()
            if counter is not None:
                call = dict(zip(params, args), **kwargs)
                for key, value in counter(call, result).items():
                    self.counts[key] += value
            return result

        return wrapper

    def write(self, path):
        """Write the spans as JSON lines; parents refer to line numbers from 0."""
        with open(path, "w") as fh:
            for name, start, end, parent, run, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run}) + "\n")


def obil_namespaces():
    import obil
    names = [m.name for m in pkgutil.iter_modules(obil.__path__)]
    return [obil] + [importlib.import_module(f"obil.{n}") for n in names]


def patch_sites():
    """Every (owner, attribute, original, span name, counter) to patch."""
    namespaces = obil_namespaces()
    sites = []
    for module_name, qualname, span, counter in TARGETS:
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        if path:
            sites.append((owner, attr, original, span, counter))
            continue
        for ns in namespaces:
            for key, value in vars(ns).items():
                if value is original:
                    sites.append((ns, key, original, span, counter))
    return sites


@contextmanager
def traced(tracer: Tracer):
    """Install wrappers recording into `tracer`; restore the originals on exit."""
    sites = patch_sites()
    try:
        for owner, attr, original, span, counter in sites:
            setattr(owner, attr, tracer.wrap(span, original, counter))
        yield
    finally:
        for owner, attr, original, _, _ in sites:
            setattr(owner, attr, original)


def summarize(tracer: Tracer):
    """Inclusive seconds, calls and self seconds per span name.

    A span's self time is its duration minus that of its direct children.
    """
    inclusive, calls, self_s = Counter(), Counter(), Counter()
    child_time = [0.0] * len(tracer.spans)
    for name, start, end, parent, _, _ in tracer.spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, _, _, nested) in enumerate(tracer.spans):
        calls[name] += 1
        if not nested:
            inclusive[name] += end - start
        self_s[name] += end - start - child_time[i]
    return inclusive, calls, self_s


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def stage_shares(tracer: Tracer, wall_s: float):
    """Share of `wall_s` spent in each span directly under an experiment span.

    These are the stages of one seed of `obil run` (training, fusion, the
    adapter stream, regret, evaluation) plus writing done by run_experiment.
    """
    shares = Counter()
    for name, start, end, parent, _, _ in tracer.spans:
        if parent >= 0 and tracer.spans[parent][0].startswith("experiment.") \
                and not name.startswith("experiment."):
            shares[name] += (end - start) / wall_s
    return {name: round(share, 4) for name, share in shares.most_common()}
