"""Sequential threshold adapter for unlabeled streams.

Each step predicts against the current threshold, estimates the minority
prior from two signals (a per-instance ratio-derived posterior and a
windowed above-unity frequency), combines them, and applies a confidence
gate plus a per-step stability clamp before refreshing the threshold.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field

from .bayes import PRIOR_FLOOR


@dataclass(frozen=True)
class AdapterConfig:
    qc: float = 1.0
    initial_p1: float = 0.5
    alpha: float = 0.05
    gamma: float = 0.9
    beta: float = 0.6
    delta_max: float = 0.02
    window_w: int = 100
    prior_floor: float = PRIOR_FLOOR

    def __post_init__(self):
        if self.qc <= 0:
            raise ValueError("qc must be positive")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if not (0.5 < self.gamma < 1.0):
            raise ValueError("gamma must lie in (0.5, 1)")
        if not (0.0 < self.beta < 1.0):
            raise ValueError("beta must lie in (0, 1)")
        if not (0.0 < self.delta_max < 1.0):
            raise ValueError("delta_max must lie in (0, 1)")
        if self.window_w < 1:
            raise ValueError("window_w must be positive")
        if not (0.0 < self.prior_floor < 0.5):
            raise ValueError("prior_floor must lie in (0, 0.5)")


@dataclass
class StepRecord:
    t: int
    log_lr: float
    prediction: int
    p_lr: float
    p_freq: float
    p_comb: float
    updated: bool
    clamped: bool
    p1_hat_after: float
    threshold_after: float

    def to_json(self) -> str:
        return json.dumps(self.__dict__)


@dataclass
class AdapterState:
    config: AdapterConfig
    p1_hat: float
    window: deque = field(default_factory=deque)
    window_sum: float = 0.0
    step_count: int = 0

    @property
    def qp_hat(self) -> float:
        return (1.0 - self.p1_hat) / self.p1_hat

    @property
    def threshold_q(self) -> float:
        return self.config.qc * self.qp_hat


def init(config: AdapterConfig) -> AdapterState:
    eta = config.prior_floor
    p1 = min(max(config.initial_p1, eta), 1.0 - eta)
    return AdapterState(config=config, p1_hat=p1,
                        window=deque(maxlen=config.window_w))


def step(state: AdapterState, log_lr: float):
    """Advance one instance; returns (prediction, StepRecord).

    Mutates state in place.  Ties at the threshold predict 0.
    """
    if not math.isfinite(log_lr):
        raise ValueError("log_lr must be finite")
    cfg = state.config
    q_hat = math.exp(log_lr)
    threshold = state.threshold_q
    prediction = 1 if q_hat > threshold else 0

    p_lr = q_hat / (q_hat + state.qp_hat)
    indicator = 1.0 if q_hat > 1.0 else 0.0
    if len(state.window) == cfg.window_w:
        state.window_sum -= state.window[0]
    state.window.append(indicator)
    state.window_sum += indicator
    p_freq = state.window_sum / len(state.window)
    p_comb = cfg.beta * p_lr + (1.0 - cfg.beta) * p_freq

    diff = p_comb - state.p1_hat
    clamped = False
    updated = False
    if abs(diff) < cfg.delta_max:
        if p_comb > cfg.gamma or p_comb < 1.0 - cfg.gamma:
            state.p1_hat = cfg.alpha * p_comb + (1.0 - cfg.alpha) * state.p1_hat
            updated = True
    else:
        state.p1_hat += math.copysign(cfg.delta_max, diff)
        clamped = True
        updated = True
    eta = cfg.prior_floor
    state.p1_hat = min(max(state.p1_hat, eta), 1.0 - eta)
    state.step_count += 1

    record = StepRecord(
        t=state.step_count,
        log_lr=float(log_lr),
        prediction=prediction,
        p_lr=p_lr,
        p_freq=p_freq,
        p_comb=p_comb,
        updated=updated,
        clamped=clamped,
        p1_hat_after=state.p1_hat,
        threshold_after=state.threshold_q,
    )
    return prediction, record


def run_stream(ensemble, features, config: AdapterConfig, rng):
    """Fuse log-LRs per instance and advance the adapter in arrival order."""
    return run_log_lr_stream((ensemble.fused_log_lr(x, rng) for x in features), config)


def run_log_lr_stream(log_lrs, config: AdapterConfig):
    """Adapter over precomputed log-LR values (e.g. an analytic oracle)."""
    state = init(config)
    trace = []
    for v in log_lrs:
        _, record = step(state, v)
        trace.append(record)
    return trace
