"""Closed-form Bayesian decision primitives.

Everything here is a pure function of its arguments: likelihood-ratio /
posterior conversions, the combined decision threshold, the cost-sensitive
loss, and the error-propagation bound for likelihood ratios derived from
noisy posteriors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Clamp applied to network outputs before any ratio computation.
EPS_CLIP = 1e-6

# Floor keeping priors away from {0, 1}; caps the imbalance ratio at 199.
PRIOR_FLOOR = 0.005


class InvalidCostStructure(ValueError):
    pass


class UnclampedOutput(ValueError):
    pass


class PosteriorSaturation(ValueError):
    pass


class BoundUndefined(ValueError):
    pass


@dataclass(frozen=True)
class CostStructure:
    """Decision costs c_ij = cost of predicting i when the truth is j."""

    c00: float = 0.0
    c01: float = 1.0
    c10: float = 1.0
    c11: float = 0.0

    def __post_init__(self):
        if min(self.c00, self.c01, self.c10, self.c11) < 0:
            raise InvalidCostStructure("costs must be nonnegative")
        if not (self.c10 > self.c00 and self.c01 > self.c11):
            raise InvalidCostStructure(
                "error costs must exceed correct-decision costs "
                "(need c10 > c00 and c01 > c11)"
            )

    @property
    def cost_ratio(self) -> float:
        denom = self.c01 - self.c11
        if denom <= 0:
            raise InvalidCostStructure("degenerate costs: c01 must exceed c11")
        return (self.c10 - self.c00) / denom


@dataclass(frozen=True)
class PriorPair:
    """Minority-class prior p1 with the derived majority prior and ratio."""

    p1: float
    floor: float = PRIOR_FLOOR

    def __post_init__(self):
        if not (0.0 < self.floor < 0.5):
            raise ValueError("prior floor must lie in (0, 0.5)")
        object.__setattr__(self, "p1", float(min(max(self.p1, self.floor), 1.0 - self.floor)))

    @property
    def p0(self) -> float:
        return 1.0 - self.p1

    @property
    def imbalance_ratio(self) -> float:
        return self.p0 / self.p1


def combined_threshold(costs: CostStructure, priors: PriorPair) -> float:
    """Bayes decision threshold Q = Q_C * Q_P; predict 1 iff q_L(x) > Q."""
    return costs.cost_ratio * priors.imbalance_ratio


def clamp_output(o):
    """Clamp a raw network output into [-1 + EPS_CLIP, 1 - EPS_CLIP]."""
    return np.clip(o, -1.0 + EPS_CLIP, 1.0 - EPS_CLIP)


def posterior_from_output(o):
    """Map a network output in (-1, 1) to the posterior estimate (o + 1) / 2."""
    if np.any(np.abs(o) >= 1.0):
        raise UnclampedOutput("output must lie strictly inside (-1, 1)")
    return (np.asarray(o, dtype=float) + 1.0) / 2.0 if np.ndim(o) else (float(o) + 1.0) / 2.0


def lr_from_posterior(p_hat, training_qp: float):
    """Recover the likelihood ratio from a posterior learned at ratio training_qp."""
    if training_qp <= 0:
        raise ValueError("training_qp must be positive")
    p = np.asarray(p_hat, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise PosteriorSaturation("posterior must lie strictly inside (0, 1)")
    out = training_qp * p / (1.0 - p)
    return out if np.ndim(p_hat) else float(out)


def lr_from_output(o, training_qp: float):
    """Likelihood ratio straight from the (clamped) network output."""
    return lr_from_posterior(posterior_from_output(o), training_qp)


def log_lr_from_output(o, training_qp: float):
    """Natural log of lr_from_output; the representation used everywhere downstream."""
    if training_qp <= 0:
        raise ValueError("training_qp must be positive")
    arr = np.asarray(o, dtype=float)
    out = math.log(training_qp) + np.log1p(arr) - np.log1p(-arr)
    return out if np.ndim(o) else float(out)


def posterior_from_log_lr(log_lr, p1):
    """Posterior P(y=1 | x) at minority prior p1 from the log likelihood ratio."""
    q = np.exp(log_lr)
    return q * p1 / (q * p1 + (1.0 - p1))


def relative_lr_error_bound(p_true: float, eps: float) -> float:
    """Worst-case relative likelihood-ratio error from posterior error eps.

    Valid for eps < min(p_true, 1 - p_true).
    """
    if eps < 0:
        raise BoundUndefined("error magnitude must be nonnegative")
    if eps >= min(p_true, 1.0 - p_true):
        raise BoundUndefined("bound requires eps < min(p_true, 1 - p_true)")
    denom = p_true * (1.0 - p_true) - eps * (1.0 - 2.0 * p_true)
    return eps / denom


def cost_sensitive_loss(pred: int, truth: int, qc: float) -> float:
    """qc for a missed positive, 1 for a false positive, 0 otherwise."""
    if pred == 0 and truth == 1:
        return qc
    if pred == 1 and truth == 0:
        return 1.0
    return 0.0
