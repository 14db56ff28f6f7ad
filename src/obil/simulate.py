"""Synthetic streams with analytic likelihood ratios, prior trajectories,
the oracle policy, and regret accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adapter import AdapterConfig, init, step
from .bayes import EXP_SAFE, PRIOR_FLOOR, cost_sensitive_loss, posterior_from_log_lr
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
        if self.mu0.ndim != 1 or self.mu1.ndim != 1:
            raise ValueError("class means must be 1-D vectors")
        if self.mu0.shape != self.mu1.shape:
            raise ValueError("class means must share a dimension")
        if self.mu0.size == 0:
            raise ValueError("class means need at least one feature")
        if not (np.all(np.isfinite(self.mu0)) and np.all(np.isfinite(self.mu1))):
            raise ValueError("class means must be finite")
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0):
            raise ValueError("variance must be finite and positive")

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

    def draw(self, p1s, rng: np.random.Generator):
        """(features, labels): labels from one rng.random against priors p1s, then features."""
        labels = (rng.random(len(p1s)) < p1s).astype(int)
        return self.sample(labels, rng), labels

    def sample_dataset(self, n: int, p1: float, rng: np.random.Generator) -> LabeledDataset:
        return LabeledDataset(*self.draw(np.full(n, p1), rng))


TRAJECTORY_KINDS = ("constant", "abrupt", "linear_drift")


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

    def __post_init__(self):
        if self.kind not in TRAJECTORY_KINDS:
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        for name in ("p_before", "p_after", "p_start", "p_cap"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
        if not np.isfinite(self.slope):
            raise ValueError("slope must be finite")

    def p1_at(self, t: int) -> float:
        return float(self._p1(np.array([t], dtype=float))[0])

    def p1_path(self, horizon: int) -> np.ndarray:
        """p1_at(t) for t = 0, ..., horizon - 1, as one array."""
        return self._p1(np.arange(horizon, dtype=float))

    def _p1(self, t: np.ndarray) -> np.ndarray:
        """The prior at each step of t, a float array of whole steps (exact
        while below 2**53 in size, as t_switch and decay_steps must be too),
        clamped to [PRIOR_FLOOR, 1 - PRIOR_FLOOR].
        """
        if self.kind == "constant":
            p = np.full(t.shape, self.p_before, dtype=float)
        elif self.kind == "abrupt":
            after = self.p_before if self.decay_steps > 0 else self.p_after
            p = np.where(t < self.t_switch, self.p_before, after)
            if self.decay_steps > 0:
                decay = (t >= self.t_switch) & (t < self.t_switch + self.decay_steps)
                frac = (t[decay] - self.t_switch) / self.decay_steps
                p[decay] = self.p_after + (self.p_before - self.p_after) * frac
        else:  # linear_drift
            p = self.p_start + self.slope * t
            p = np.minimum(p, self.p_cap) if self.slope >= 0 else np.maximum(p, self.p_cap)
        return np.minimum(np.maximum(p, PRIOR_FLOOR), 1.0 - PRIOR_FLOOR)


@dataclass(frozen=True)
class StreamScenario:
    problem: GaussianProblem
    trajectory: PriorTrajectory
    horizon: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")

    def draw(self, rng: np.random.Generator):
        """The whole stream as (features, labels, true priors), in one draw."""
        p1s = self.trajectory.p1_path(self.horizon)
        return (*self.problem.draw(p1s, rng), p1s)


def sample_step(scenario: StreamScenario, t: int, rng: np.random.Generator):
    """Draw (x, y, true p1) for step t.

    obil draws its streams with StreamScenario.draw and no longer calls this;
    it is kept because perfbench/tracing.py looks it up by name.
    """
    p1 = scenario.trajectory.p1_at(t)
    y = int(rng.random() < p1)
    x = scenario.problem.sample(np.array([y]), rng)[0]
    return x, y, p1


def oracle_threshold(qc: float, p1: float) -> float:
    """Bayes cut on q_L when a false alarm costs qc and a miss costs 1."""
    return qc * (1.0 - p1) / p1


def oracle_decision(log_lr, qc: float, p1):
    """1 iff q_L exceeds the oracle threshold (strict; ties predict 0).

    Elementwise over arrays of log_lr and p1; an int for scalar inputs.
    """
    p1 = np.asarray(p1, dtype=float)
    if np.any((p1 <= 0.0) | (p1 >= 1.0)):
        raise ValueError("p1 must lie in (0, 1)")
    out = (np.exp(np.minimum(log_lr, EXP_SAFE)) > oracle_threshold(qc, p1)).astype(int)
    return out if out.ndim else int(out)


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
                          stream, log_lrs=None):
    """Run the adapter on a drawn stream and charge it against the oracle.

    stream is scenario.draw(rng); the adapter reads log_lrs, one a row, or
    with None the analytic ratio, which the oracle reads with the true prior.
    A false alarm costs qc and a miss 1, the costs whose Bayes cut is
    oracle_threshold.  Cumulative regret sums expected (posterior-averaged)
    losses; realized losses are recorded alongside.  Returns (RegretLedger,
    adapter trace).
    """
    x, ys, p1s = stream
    T = scenario.horizon
    true_log_lr = scenario.problem.log_lr(x)
    log_lrs = true_log_lr if log_lrs is None else np.asarray(log_lrs, dtype=float)
    if not len(ys) == len(p1s) == len(true_log_lr) == len(log_lrs) == T:
        raise ValueError(f"the stream and its log-LRs must have {T} rows")
    state = init(adapter_cfg)
    trace = []
    preds = np.zeros(T, dtype=int)
    for i in range(T):
        preds[i], record = step(state, float(log_lrs[i]))
        trace.append(record)
    qc = adapter_cfg.qc
    pred_star = oracle_decision(true_log_lr, qc, p1s)
    post = posterior_from_log_lr(true_log_lr, p1s)
    alg_expected = _expected_cost(preds, post, qc)
    oracle_expected = _expected_cost(pred_star, post, qc)
    out = RegretLedger(np.arange(1, T + 1), cost_sensitive_loss(preds, ys, qc),
                       cost_sensitive_loss(pred_star, ys, qc), alg_expected,
                       oracle_expected, np.cumsum(alg_expected - oracle_expected))
    return out, trace


def _expected_cost(pred, post, qc: float):
    """Expected cost of predictions given the label posterior P(y=1 | x)."""
    return post * (pred == 0) + qc * (1.0 - post) * (pred == 1)
