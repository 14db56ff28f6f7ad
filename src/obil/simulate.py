"""Synthetic streams with analytic likelihood ratios, prior trajectories,
the oracle policy, and regret accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adapter import AdapterConfig, init, step
from .bayes import PRIOR_FLOOR, cost_sensitive_loss, posterior_from_log_lr
from .data import LabeledDataset


@dataclass(frozen=True)
class GaussianProblem:
    """Two isotropic Gaussian classes with a closed-form likelihood ratio."""

    mu0: np.ndarray = field(default_factory=lambda: np.array([-1.0]))
    mu1: np.ndarray = field(default_factory=lambda: np.array([1.0]))
    sigma2: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mu0", np.atleast_1d(np.asarray(self.mu0, dtype=float)))
        object.__setattr__(self, "mu1", np.atleast_1d(np.asarray(self.mu1, dtype=float)))
        if self.mu0.shape != self.mu1.shape:
            raise ValueError("class means must share a dimension")
        if self.sigma2 <= 0:
            raise ValueError("variance must be positive")

    @property
    def dim(self) -> int:
        return self.mu0.shape[0]

    def log_lr(self, x):
        """(|x - mu0|^2 - |x - mu1|^2) / (2 sigma^2), batched or single."""
        x = np.asarray(x, dtype=float)
        d0 = np.sum((x - self.mu0) ** 2, axis=-1)
        d1 = np.sum((x - self.mu1) ** 2, axis=-1)
        return (d0 - d1) / (2.0 * self.sigma2)

    def posterior(self, x, p1: float):
        return posterior_from_log_lr(self.log_lr(x), p1)

    def sample(self, labels, rng: np.random.Generator):
        y = np.asarray(labels, dtype=int)
        mu = np.where(y[:, None] == 1, self.mu1, self.mu0)
        return mu + rng.normal(0.0, np.sqrt(self.sigma2), size=(len(y), self.dim))

    def sample_dataset(self, n: int, p1: float, rng: np.random.Generator) -> LabeledDataset:
        y = (rng.random(n) < p1).astype(int)
        return LabeledDataset(self.sample(y, rng), y)


@dataclass(frozen=True)
class PriorTrajectory:
    """Deterministic minority-prior schedule over the stream."""

    kind: str = "constant"  # constant | abrupt | linear_drift
    p_before: float = 0.5
    p_after: float = 0.5
    t_switch: int = 0
    # abrupt kind: linear decay back to p_before over this many steps after the jump
    decay_steps: int = 1000
    p_start: float = 0.2
    slope: float = 0.0
    p_cap: float = 0.8
    floor: float = PRIOR_FLOOR

    def p1_at(self, t: int) -> float:
        if self.kind == "constant":
            p = self.p_before
        elif self.kind == "abrupt":
            if t < self.t_switch:
                p = self.p_before
            elif self.decay_steps > 0 and t < self.t_switch + self.decay_steps:
                frac = (t - self.t_switch) / self.decay_steps
                p = self.p_after + (self.p_before - self.p_after) * frac
            elif self.decay_steps > 0:
                p = self.p_before
            else:
                p = self.p_after
        elif self.kind == "linear_drift":
            p = min(self.p_start + self.slope * t, self.p_cap) if self.slope >= 0 \
                else max(self.p_start + self.slope * t, self.p_cap)
        else:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        return min(max(p, self.floor), 1.0 - self.floor)


@dataclass(frozen=True)
class StreamScenario:
    problem: GaussianProblem
    trajectory: PriorTrajectory
    horizon: int
    seed: int = 0

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")


def sample_step(scenario: StreamScenario, t: int, rng: np.random.Generator):
    """Draw (x, y, true p1) for step t."""
    p1 = scenario.trajectory.p1_at(t)
    y = int(rng.random() < p1)
    x = scenario.problem.sample(np.array([y]), rng)[0]
    return x, y, p1


def oracle_threshold(qc: float, p1: float) -> float:
    return qc * (1.0 - p1) / p1


def oracle_decision(log_lr: float, qc: float, p1: float) -> int:
    """1 iff q_L exceeds the oracle threshold (strict; ties predict 0)."""
    if not (0.0 < p1 < 1.0):
        raise ValueError("p1 must lie in (0, 1)")
    return 1 if np.exp(log_lr) > oracle_threshold(qc, p1) else 0


@dataclass
class RegretLedger:
    """Per-step realized and expected losses plus cumulative expected regret."""

    t: np.ndarray
    alg_loss: np.ndarray
    oracle_loss: np.ndarray
    alg_expected: np.ndarray
    oracle_expected: np.ndarray
    cum_regret: np.ndarray

    def rows(self):
        for i in range(len(self.t)):
            yield (int(self.t[i]), float(self.alg_loss[i]), float(self.oracle_loss[i]),
                   float(self.cum_regret[i]))


def run_regret_experiment(scenario: StreamScenario, adapter_cfg: AdapterConfig,
                          rng: np.random.Generator, log_lr_source=None):
    """Stream the scenario through the adapter and the oracle policy.

    log_lr_source maps a feature vector to a log likelihood ratio; None uses
    the scenario's analytic ratio.  Cumulative regret accumulates expected
    (posterior-averaged) losses; realized losses are recorded alongside.
    Returns (RegretLedger, adapter trace).
    """
    if log_lr_source is None:
        log_lr_source = scenario.problem.log_lr
    state = init(adapter_cfg)
    T = scenario.horizon
    out = RegretLedger(np.arange(1, T + 1), np.zeros(T), np.zeros(T),
                       np.zeros(T), np.zeros(T), np.zeros(T))
    trace = []
    cum = 0.0
    qc = adapter_cfg.qc
    for i in range(T):
        x, y, p1 = sample_step(scenario, i, rng)
        log_lr = float(log_lr_source(x))
        pred, record = step(state, log_lr)
        trace.append(record)
        true_log_lr = float(scenario.problem.log_lr(x))
        pred_star = oracle_decision(true_log_lr, qc, p1)
        post = float(scenario.problem.posterior(x, p1))
        # expected cost of each policy given x, over the label posterior
        e_alg = qc * post * (pred == 0) + (1.0 - post) * (pred == 1)
        e_oracle = qc * post * (pred_star == 0) + (1.0 - post) * (pred_star == 1)
        out.alg_loss[i] = cost_sensitive_loss(pred, y, qc)
        out.oracle_loss[i] = cost_sensitive_loss(pred_star, y, qc)
        out.alg_expected[i] = e_alg
        out.oracle_expected[i] = e_oracle
        cum += e_alg - e_oracle
        out.cum_regret[i] = cum
    return out, trace
