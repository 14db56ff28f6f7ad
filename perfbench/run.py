"""obil benchmark: three workloads, end-to-end metrics and a traced per-layer run.

Run from the root of a source checkout, with numpy installed:

    python3 perfbench/run.py --workload readme_run --seed 1 --seconds 36 --trace 0

The benchmark drives obil only through its public functions and the `obil`
CLI (`python3 -m obil.cli` with `src` on the path), one job or query at a
time from this single process.  It prints every metric as `name = value
unit`, then, as the last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones of BENCHMARK.json, with `--trace 1` its per-layer ones.
Working files go under `.perfbench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

README_CONFIG = {
    "data": {"kind": "gaussian", "mu0": [-1.0], "mu1": [1.0], "n": 3000, "p1": 0.2},
    "loss": "squared",
    "network": {"hidden_dims": [64, 32], "dropout_rate": 0.1},
    "training": {"max_epochs": 40, "batch_size": 64},
    "ensemble": {"target_qps": [1.0, 2.0, 4.0], "mc_samples": 30},
    "adapter": {"qc": 1.0, "initial_p1": 0.2},
    "scenario": {"kind": "abrupt", "p_before": 0.03, "p_after": 0.12,
                 "t_switch": 500, "horizon": 2000},
    "baselines": ["vanilla", "threshold_moving", "logit_adjustment", "bbse"],
    "seeds": [0, 1, 2],
}

# Large-n batch inference against small training: a logit-space loss (so the
# temperature fit and its forward run), few epochs and a long drifting stream.
DRIFT_CONFIG = {
    "data": {"kind": "gaussian", "mu0": [-0.5] * 4, "mu1": [0.5] * 4, "n": 1500, "p1": 0.2},
    "loss": "xent_sigmoid",
    "network": {"hidden_dims": [64, 32], "dropout_rate": 0.1},
    "training": {"max_epochs": 8, "batch_size": 64},
    "ensemble": {"target_qps": [1.0, 2.0, 4.0], "mc_samples": 30},
    "adapter": {"qc": 1.0, "initial_p1": 0.2},
    "scenario": {"kind": "linear_drift", "p_start": 0.05, "slope": 3e-05,
                 "p_cap": 0.4, "horizon": 10000},
    "baselines": ["vanilla", "threshold_moving", "logit_adjustment", "bbse"],
    "seeds": [0],
}
CLI_CONFIGS = {"readme_run": README_CONFIG, "drift_long": DRIFT_CONFIG}

# Jobs cycle through this many input sets, so every set after the first
# cycle is a repeat whose bytes must match the first run of that set.
INPUT_SETS = 3
SETUP_REPEATS = 5       # import + config parse children (cheap)
TRAIN_REPEATS = 3       # `obil train` children on online_stream
STREAM_QUERIES = 500    # queries per online_stream job, one fresh adapter each
JOB_TIMEOUT_S = 60.0
QUALITY_KEYS = ("f1", "g_mean", "auprc", "ece")
LAYERS = ("cli", "experiment", "ensemble", "mlp", "resampling", "adapter",
          "simulate", "metrics", "baselines")

IMPORT_CHILD = ("import time; t = time.perf_counter(); import obil.cli; "
                "print(time.perf_counter() - t)")
PARSE_CHILD = "import sys, obil.cli, obil.experiment; obil.experiment.load_config(sys.argv[1])"


@dataclass
class Outcome:
    """What one run measured, plus every output-check problem it found."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def op(self, problems):
        """Count one job or query; `problems` lists its failed checks."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


# ---------------------------------------------------------------------------
# Children and inputs

def child_env():
    env = {k: v for k, v in os.environ.items() if k != "OBIL_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args, log_path):
    """Run `python3 <args>` from the checkout root.

    Returns (wall seconds from launch to exit, exit code, peak RSS in MB).
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdout=log, stderr=log)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def input_seeds(seed: int, n_sets: int, per_set: int):
    rng = random.Random(seed)
    return [[rng.randrange(2 ** 31) for _ in range(per_set)] for _ in range(n_sets)]


def write_config(config: dict, path: Path) -> Path:
    path.write_text(json.dumps(config, indent=2))
    return path


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# Output checks

def _in_unit_interval(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


def _line_count(path: Path) -> int:
    return path.read_bytes().count(b"\n")


def check_run_output(out: Path, config: dict) -> list:
    """Problems with an `obil run` report tree; empty when it passes."""
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"]
    seeds = config["seeds"]
    methods = {"obil", *config["baselines"]}
    problems = []
    if report.get("seeds") != seeds:
        problems.append(f"report.json seeds {report.get('seeds')} != {seeds}")
    rows = report.get("per_seed", [])
    if len(rows) != len(seeds):
        problems.append(f"report.json has {len(rows)} per-seed rows for {len(seeds)} seeds")
    aggregate = report.get("aggregate", {})
    tables = [(f"seed {s}", row) for s, row in zip(seeds, rows)]
    tables.append(("aggregate mean", {m: {k: v.get("mean") for k, v in vals.items()}
                                      for m, vals in aggregate.items()}))
    for where, table in tables:
        if set(table) != methods:
            problems.append(f"{where}: methods {sorted(table)} != {sorted(methods)}")
        for method, values in table.items():
            for key in QUALITY_KEYS:
                if not _in_unit_interval(values.get(key)):
                    problems.append(f"{where} {method} {key} = {values.get(key)!r}")
    horizon = config["scenario"]["horizon"]
    for seed in seeds:
        seed_dir = out / f"seed_{seed}"
        try:
            trace_lines = _line_count(seed_dir / "trace.jsonl")
            regret_lines = _line_count(seed_dir / "regret.tsv") - 1  # header
        except OSError as exc:
            problems.append(f"seed {seed}: {exc}")
            continue
        if trace_lines != horizon:
            problems.append(f"seed {seed}: trace.jsonl has {trace_lines} lines, horizon {horizon}")
        if regret_lines != horizon:
            problems.append(f"seed {seed}: regret.tsv has {regret_lines} rows, horizon {horizon}")
    return problems


def report_bytes(out: Path) -> bytes:
    path = out / "report.json"
    return path.read_bytes() if path.is_file() else b""


def check_query(record, eta: float) -> list:
    if not math.isfinite(record.log_lr):
        return [f"query {record.t}: fused log-LR {record.log_lr!r}"]
    if not eta <= record.p1_hat_after <= 1.0 - eta:
        return [f"query {record.t}: p1_hat {record.p1_hat_after!r} outside [{eta}, {1 - eta}]"]
    return []


# ---------------------------------------------------------------------------
# Environment

def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def blas_threads():
    """Thread count of the OpenBLAS library numpy loaded, if it is OpenBLAS."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.split()[-1]}
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment(obil_threads):
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
                     if k in os.environ},
        "obil_threads": "unset" if obil_threads is None else f"stripped (was {obil_threads!r})",
    }


# ---------------------------------------------------------------------------
# obil run workloads: readme_run and drift_long

def cli_configs(base: dict, seed: int, work: Path):
    sets = input_seeds(seed, INPUT_SETS, len(base["seeds"]))
    configs = []
    for j, seeds in enumerate(sets):
        config = dict(base, seeds=seeds)
        configs.append((config, write_config(config, work / f"config_{j}.json")))
    return configs


def setup_children(args_list, work: Path, outcome: Outcome):
    """Median launch-to-exit time of the set-up children; failures are problems."""
    times = []
    for args in args_list:
        elapsed, code, _ = run_child(args, work / "setup.log")
        if code != 0:
            outcome.problems.append(f"set-up child exited {code}; see {work / 'setup.log'}")
        times.append(elapsed)
    return median(times)


def cli_workload(base: dict, seed: int, seconds: float, work: Path) -> Outcome:
    outcome = Outcome()
    configs = cli_configs(base, seed, work)
    setup_s = setup_children([["-c", PARSE_CHILD, str(configs[0][1])]] * SETUP_REPEATS,
                             work, outcome)
    rows_per_job = len(base["seeds"]) * base["scenario"]["horizon"]
    times, rss, sizes, first_report = [], [], [], {}
    start = time.perf_counter()
    while len(times) <= INPUT_SETS or time.perf_counter() - start < seconds:
        j = len(times) % INPUT_SETS
        config, config_path = configs[j]
        out = work / f"job_{len(times)}"
        elapsed, code, peak = run_child(
            ["-m", "obil.cli", "run", "--config", str(config_path), "--out", str(out)],
            work / "jobs.log")
        problems = [f"job {len(times)}: exit code {code}"] if code else \
            check_run_output(out, config)
        report = report_bytes(out)
        if first_report.setdefault(j, report) != report:
            problems.append(f"job {len(times)}: report.json differs from the first run "
                            f"of seeds {config['seeds']}")
        outcome.op(problems)
        times.append(elapsed)
        rss.append(peak)
        sizes.append(tree_bytes(out) if out.exists() else 0)
        shutil.rmtree(out, ignore_errors=True)
    # every row's decision is out only when its job exits
    row_latency_ms = [t * 1e3 for t in times for _ in range(rows_per_job)]
    outcome.metrics = {
        "setup_s": setup_s,
        "run_s": max(times),
        "queries_per_s": rows_per_job / max(times),
        "query_p99_ms": percentile(row_latency_ms, 99),
        "peak_rss_mb": median(rss),
        "out_bytes": median(sizes),
    }
    outcome.notes = {"jobs": len(times), "rows_per_job": rows_per_job,
                     "job_s": [round(t, 4) for t in times],
                     "query_p50_ms": percentile(row_latency_ms, 50)}
    return outcome


def in_process_run(argv, tracer=None):
    """`obil.cli.main(argv)` in this process with its stdout discarded.

    With a tracer, obil's functions are wrapped and main is the root span.
    Returns (wall seconds of main, exit code).
    """
    import obil.cli
    from tracing import traced
    with contextlib.ExitStack() as stack:
        main = obil.cli.main
        if tracer is not None:
            stack.enter_context(traced(tracer))
            main = tracer.wrap("cli.main", main)
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        start = time.perf_counter()
        code = main(argv)
        return time.perf_counter() - start, code


def import_seconds(work: Path, outcome: Outcome):
    times = []
    for _ in range(SETUP_REPEATS):
        log = work / "import.log"
        log.unlink(missing_ok=True)
        _, code, _ = run_child(["-c", IMPORT_CHILD], log)
        if code:
            outcome.problems.append(f"import child exited {code}")
            continue
        times.append(float(log.read_text().split()[-1]))
    return median(times)


def traced_cli_workload(base: dict, seed: int, work: Path) -> Outcome:
    from tracing import Tracer, stage_shares
    outcome = Outcome()
    config, config_path = cli_configs(base, seed, work)[0]
    tracer = Tracer()
    tracer.run = "job"
    # untraced runs before and after the traced one, so warm-up does not
    # count against tracing
    runs = {name: in_process_run(["run", "--config", str(config_path), "--out",
                                  str(work / name)], tracer if name == "traced" else None)
            for name in ("untraced_1", "traced", "untraced_2")}
    reports = set()
    for name, (_, code) in runs.items():
        out = work / name
        outcome.op([f"{name} run: exit code {code}"] if code else check_run_output(out, config))
        reports.add(report_bytes(out))
    if len(reports) != 1:
        outcome.problems.append("traced and untraced report.json differ")
    plain_s = (runs["untraced_1"][0] + runs["untraced_2"][0]) / 2
    traced_s = runs["traced"][0]
    out = work / "traced"
    report = json.loads(report_bytes(out) or b"{}")
    obil_mean = report.get("aggregate", {}).get("obil", {})
    outputs = {
        "experiment.trace_bytes": sum(p.stat().st_size for p in out.glob("seed_*/trace.jsonl")),
        "experiment.regret_bytes": sum(p.stat().st_size for p in out.glob("seed_*/regret.tsv")),
        "experiment.obil_f1": obil_mean.get("f1", {}).get("mean", 0.0),
        "experiment.obil_auprc": obil_mean.get("auprc", {}).get("mean", 0.0),
    }
    outcome.metrics = layer_metrics(tracer, plain_s, traced_s,
                                    import_seconds(work, outcome), outputs)
    outcome.notes = {"stage_shares": stage_shares(tracer, traced_s)}
    tracer.write(work / "spans.jsonl")
    return outcome


# ---------------------------------------------------------------------------
# online_stream: one query at a time through fused_log_lr and adapter.step

def online_setup(seed: int, work: Path):
    train_seed, *stream_seeds = input_seeds(seed, 1, 1 + INPUT_SETS)[0]
    config_path = write_config(dict(README_CONFIG, seeds=[train_seed]), work / "online.json")
    return config_path, stream_seeds


def make_stream(parsed: dict, stream_seed: int):
    """Features and labels of a stream whose prior drifts from 0.05 to 0.45."""
    import numpy as np
    from obil.simulate import PriorTrajectory
    trajectory = PriorTrajectory(kind="linear_drift", p_start=0.05,
                                 slope=0.4 / STREAM_QUERIES, p_cap=0.45)
    rng = np.random.default_rng(stream_seed)
    p1 = np.array([trajectory.p1_at(t) for t in range(STREAM_QUERIES)])
    labels = (rng.random(STREAM_QUERIES) < p1).astype(int)
    return parsed["problem"].sample(labels, rng), labels


def run_queries(ensemble, features, adapter_cfg, stream_seed, tracer=None):
    """One stream from a fresh adapter.

    Returns (wall s, per-query service s, records, problems).  A query's
    service time is the CPU time of this thread while it ran: the query does
    no I/O, and on a shared virtual machine the wall time of a 5 ms query also
    holds whatever the hypervisor gave to other tenants.
    """
    import numpy as np
    from obil import adapter
    state = adapter.init(adapter_cfg)
    rng = np.random.default_rng(stream_seed + 1)
    eta = adapter_cfg.prior_floor
    service, records, problems = [], [], []
    start = time.perf_counter()
    for i, x in enumerate(features):
        if tracer is not None:
            tracer.run = f"query-{i}"
        t0 = time.thread_time()
        try:
            log_lr = ensemble.fused_log_lr(x, rng)
            _, record = adapter.step(state, log_lr)
        except Exception as exc:  # a failed query is counted, the stream goes on
            record = None
            problem = [f"query {i + 1}: {type(exc).__name__}: {exc}"]
        else:
            problem = check_query(record, eta)
        service.append(time.thread_time() - t0)
        records.append(record)
        problems.append(problem)
    return time.perf_counter() - start, service, records, problems


def stream_lines(records):
    return [b"" if r is None else r.to_json().encode() + b"\n" for r in records]


def online_workload(seed: int, seconds: float, work: Path) -> Outcome:
    from obil.ensemble import load_ensemble
    from obil.experiment import load_config
    outcome = Outcome()
    config_path, stream_seeds = online_setup(seed, work)
    setup_s = setup_children(
        [["-m", "obil.cli", "train", "--config", str(config_path), "--out",
          str(work / f"setup_{i}")] for i in range(TRAIN_REPEATS)], work, outcome)
    blobs = {(work / f"setup_{i}" / "ensemble.bin").read_bytes()
             for i in range(TRAIN_REPEATS) if (work / f"setup_{i}" / "ensemble.bin").exists()}
    if len(blobs) != 1:
        outcome.problems.append(f"{len(blobs)} distinct ensembles from {TRAIN_REPEATS} "
                                "identical `obil train` runs")
    ensemble = load_ensemble(work / "setup_0" / "ensemble.bin")
    parsed = load_config(config_path)
    streams = [make_stream(parsed, s) for s in stream_seeds]

    times, service, sizes, first_lines = [], [], [], {}
    start = time.perf_counter()
    while len(times) <= INPUT_SETS or time.perf_counter() - start < seconds:
        j = len(times) % INPUT_SETS
        wall, cpu, records, problems = run_queries(ensemble, streams[j][0],
                                                   parsed["adapter"], stream_seeds[j])
        lines = stream_lines(records)
        reference = first_lines.setdefault(j, lines)
        for i, (line, ref) in enumerate(zip(lines, reference)):
            if line != ref:
                problems[i] = problems[i] + [f"query {i + 1}: record differs from the "
                                             f"first run of stream {j}"]
        for p in problems:
            outcome.op(p)
        times.append(wall)
        service.extend(cpu)
        sizes.append(sum(len(line) for line in lines))
    service_ms = [t * 1e3 for t in service]
    outcome.metrics = {
        "setup_s": setup_s,
        "run_s": max(times),
        "queries_per_s": STREAM_QUERIES / max(times),
        "query_p99_ms": percentile(service_ms, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "out_bytes": median(sizes),
    }
    outcome.notes = {"jobs": len(times), "queries": len(service),
                     "job_s": [round(t, 4) for t in times],
                     "query_p50_ms": percentile(service_ms, 50)}
    return outcome


def traced_online_workload(seed: int, work: Path) -> Outcome:
    from obil import metrics
    from obil.ensemble import load_ensemble
    from obil.experiment import load_config
    from tracing import Tracer, traced
    outcome = Outcome()
    config_path, stream_seeds = online_setup(seed, work)
    tracer = Tracer()
    _, code = in_process_run(["train", "--config", str(config_path), "--out",
                              str(work / "setup")], tracer)
    if code:
        outcome.problems.append(f"`obil train` exited {code}")
    ensemble = load_ensemble(work / "setup" / "ensemble.bin")
    parsed = load_config(config_path)
    features, labels = make_stream(parsed, stream_seeds[0])
    query_spans = len(tracer.spans)
    runs = {}
    for name in ("untraced_1", "traced", "untraced_2"):
        with traced(tracer) if name == "traced" else contextlib.nullcontext():
            runs[name] = run_queries(ensemble, features, parsed["adapter"], stream_seeds[0],
                                     tracer if name == "traced" else None)
    traced_s, _, records, problems = runs["traced"]
    plain_s = (runs["untraced_1"][0] + runs["untraced_2"][0]) / 2
    if len({b"".join(stream_lines(run[2])) for run in runs.values()}) != 1:
        outcome.problems.append("traced and untraced stream records differ")
    for p in problems:
        outcome.op(p)
    scored = [r for r in records if r is not None]
    preds = [r.prediction for r in scored]
    truth = labels[[r is not None for r in records]]
    outputs = {
        "experiment.obil_f1": metrics.f1(metrics.ConfusionCounts.from_predictions(preds, truth)).value,
        "experiment.obil_auprc": metrics.auprc([r.log_lr for r in scored], truth).value,
    }
    outcome.metrics = layer_metrics(tracer, plain_s, traced_s,
                                    import_seconds(work, outcome), outputs)
    outcome.notes = {"query_shares": query_report(tracer, query_spans, traced_s)}
    tracer.write(work / "spans.jsonl")
    return outcome


# ---------------------------------------------------------------------------
# Per-layer metrics and the predictions they test

def layer_metrics(tracer, plain_s, traced_s, import_s, outputs) -> dict:
    from tracing import layer_of, summarize
    inclusive, calls, self_s = summarize(tracer)
    counts = tracer.counts

    def per(total, n, scale=1e6):
        return total * scale / n if n else 0.0

    steps = calls["mlp.adam_step"]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_s.items():
        layer_self[layer_of(name)] += seconds
    regret_steps = counts["simulate.regret.steps"]
    metrics = {
        "mlp.train_s": inclusive["mlp.train"],
        "mlp.train.calls": calls["mlp.train"],
        "mlp.loss_and_gradients_s": inclusive["mlp.loss_and_gradients"],
        "mlp.loss_and_gradients.calls": calls["mlp.loss_and_gradients"],
        "mlp.adam_step_s": inclusive["mlp.adam_step"],
        "mlp.adam_step.calls": steps,
        # train() evaluates the loss once per step plus once per epoch
        "mlp.epochs_run": calls["mlp.loss_and_gradients"] - steps,
        "mlp.us_per_step": per(inclusive["mlp.train"], steps),
        "mlp.mc_forward_s": inclusive["mlp.mc_forward"],
        "mlp.mc_forward.calls": calls["mlp.mc_forward"],
        "mlp.mc_forward.flops": counts["mlp.mc_forward.flops"],
        "mlp.mc_forward.mask_draws": counts["mlp.mc_forward.mask_draws"],
        "ensemble.train_ensemble_s": inclusive["ensemble.train_ensemble"],
        "ensemble.fused_batch_s": inclusive["ensemble.fused_batch"],
        "ensemble.fused_batch.rows": counts["ensemble.fused_batch.rows"],
        "ensemble.fused_batch.us_per_row": per(inclusive["ensemble.fused_batch"],
                                               counts["ensemble.fused_batch.rows"]),
        "ensemble.fused_query_s": inclusive["ensemble.fused_query"],
        "ensemble.fused_query.calls": calls["ensemble.fused_query"],
        "ensemble.fused_query.us_per_call": per(inclusive["ensemble.fused_query"],
                                                calls["ensemble.fused_query"]),
        "resampling.make_associated_s": inclusive["resampling.make_associated"],
        "resampling.make_associated.calls": calls["resampling.make_associated"],
        "resampling.rows_out": counts["resampling.rows_out"],
        "adapter.step_s": inclusive["adapter.step"],
        "adapter.step.calls": calls["adapter.step"],
        "adapter.us_per_step": per(inclusive["adapter.step"], calls["adapter.step"]),
        "adapter.to_json_s": inclusive["adapter.to_json"],
        "adapter.updated_frac": per(counts["adapter.updated"], calls["adapter.step"], 1.0),
        "adapter.clamped_frac": per(counts["adapter.clamped"], calls["adapter.step"], 1.0),
        "simulate.regret_s": inclusive["simulate.regret"],
        "simulate.regret.steps": regret_steps,
        "simulate.us_per_step": per(inclusive["simulate.regret"], regret_steps),
        "simulate.sample_step.calls": calls["simulate.sample_step"],
        "simulate.cum_regret_final": per(counts["simulate.cum_regret_sum"],
                                         calls["simulate.regret"], 1.0),
        "metrics.fit_temperature_s": inclusive["metrics.fit_temperature"],
        "metrics.eval_s": inclusive["metrics.eval"],
        "baselines.s": sum(v for k, v in inclusive.items() if layer_of(k) == "baselines"),
        "cli.import_s": import_s,
        "experiment.parse_config_s": inclusive["experiment.parse_config"],
        "experiment.write_s": self_s["experiment.run_experiment"],
        "experiment.trace_bytes": 0,
        "experiment.regret_bytes": 0,
        **outputs,
        **{f"{layer}.self_s": seconds for layer, seconds in layer_self.items()},
        "trace.spans": len(tracer.spans),
        "trace.untraced_s": plain_s,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - plain_s,
    }
    return metrics


def query_report(tracer, first_span, wall_s):
    """Share of the traced stream's wall time in each top-level query span."""
    shares = {}
    for name, start, end, parent, _, _ in tracer.spans[first_span:]:
        if parent < first_span:
            shares[name] = shares.get(name, 0.0) + (end - start) / wall_s
    shares["unattributed"] = 1.0 - sum(shares.values())
    return {k: round(v, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}


def predictions(workload: str, outcome: Outcome) -> list:
    """The predictions of an earlier cProfile run for this workload, held or failed."""
    m = outcome.metrics
    if workload == "readme_run":
        layers = {layer: m[f"{layer}.self_s"] for layer in LAYERS}
        top = max(layers, key=layers.get)
        return [("mlp self time is the largest layer share", top == "mlp",
                 f"largest is {top} with {layers[top]:.3f} s")]
    if workload == "drift_long":
        shares = outcome.notes["stage_shares"]
        top2 = sorted(list(shares)[:2])
        return [("ensemble.fused_batch and simulate.regret are the two largest stages",
                 top2 == ["ensemble.fused_batch", "simulate.regret"],
                 f"stage shares {dict(list(shares.items())[:4])}")]
    shares = outcome.notes["query_shares"]
    top = next(iter(shares))
    return [("ensemble.fused_query is the largest share of query time",
             top == "ensemble.fused_query", f"query shares {shares}")]


# ---------------------------------------------------------------------------

def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=["readme_run", "online_stream", "drift_long"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through run_child so a running job is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "obil" / "__init__.py").is_file():
        print(f"error: no obil sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    obil_threads = os.environ.pop("OBIL_THREADS", None)
    import obil
    if not Path(obil.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported obil from {obil.__file__}, not {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(obil_threads)
    env["loadavg_start"] = loadavg()
    base = CLI_CONFIGS.get(args.workload)
    if base is None:
        outcome = traced_online_workload(args.seed, work) if args.trace else \
            online_workload(args.seed, args.seconds, work)
    else:
        outcome = traced_cli_workload(base, args.seed, work) if args.trace else \
            cli_workload(base, args.seed, args.seconds, work)
    env["loadavg_end"] = loadavg()

    if set(outcome.metrics) != set(units):
        print(f"error: measured metrics {sorted(set(outcome.metrics) ^ set(units))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 2
    print("env " + json.dumps(env))
    for key, value in outcome.notes.items():
        print(f"{key} {json.dumps(value)}")
    verdicts = predictions(args.workload, outcome) if args.trace else []
    for claim, held, detail in verdicts:
        print(f"prediction {'HELD' if held else 'FAILED'}: {claim} ({detail})")
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, value in outcome.metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    failed_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"ops_failed_frac = {failed_frac:.6g} ({outcome.failed} of {outcome.attempted})")

    result = {
        "correct": outcome.attempted > 0 and outcome.failed == 0 and not outcome.problems,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()},
    }
    (work / "result.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed, "env": env,
         "notes": outcome.notes, "problems": outcome.problems,
         "predictions": [{"claim": c, "held": h, "detail": d} for c, h, d in verdicts]},
        indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
