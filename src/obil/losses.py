"""Registered training losses with values and derivatives.

Losses operating on the bounded output o in (-1, 1) against targets
t in {-1, +1} are tagged as exact proper-scoring (``bregman_exact``) when
their derivative factors as -g(o) * (t - o) for some positive g.  The
sigmoid cross-entropy path operates on the unbounded logit instead and is
explicitly flagged non-exact; it is only used together with post-hoc
temperature scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bayes import EPS_CLIP


class InvalidWeight(ValueError):
    pass


def _arctanh(o):
    # 0.5 * log((1+o)/(1-o)) on clamped inputs
    o = np.clip(o, -1.0 + EPS_CLIP, 1.0 - EPS_CLIP)
    return 0.5 * (np.log1p(o) - np.log1p(-o))


def _softplus(z):
    # log(1 + exp(z)) without overflow
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))


@dataclass(frozen=True)
class LossSpec:
    """A loss whose fn(o, t, weight) returns elementwise (value, derivative)."""

    name: str
    fn: Callable
    bregman_exact: bool
    # For exact losses, the positive multiplier in dC/do = -g(o) (t - o).
    g_function: Optional[Callable] = None
    # True when the loss consumes the raw pre-activation logit, not tanh output.
    logit_space: bool = False

    def value(self, o, t, weight=None):
        return self.fn(o, t, weight)[0]

    def derivative(self, o, t, weight=None):
        return self.fn(o, t, weight)[1]


def squared_error(o, t):
    """0.5 (t - o)^2 with derivative -(t - o); exact with g(o) = 1."""
    o = np.asarray(o, dtype=float)
    t = np.asarray(t, dtype=float)
    return 0.5 * (t - o) ** 2, -(t - o)


def cost_weighted_squared_error(o, t, qc_tilde: float):
    """(t - o)^2 on positives, qc_tilde (t - o)^2 on negatives."""
    if qc_tilde <= 0:
        raise InvalidWeight("qc_tilde must be positive")
    o = np.asarray(o, dtype=float)
    t = np.asarray(t, dtype=float)
    w = np.where(t > 0, 1.0, qc_tilde)
    return w * (t - o) ** 2, -2.0 * w * (t - o)


def logistic_arctanh(o, t):
    """Logistic loss in the natural logit z = 2 arctanh(o).

    C(o, t) = log(1 + exp(-2 t arctanh(o))); exact with g(o) = 1 / (1 - o^2).
    The factor 2 makes sigma(z) = (1 + o) / 2, so the population minimizer
    lands at o = 2p - 1 like the other proper-scoring losses.
    """
    o = np.clip(np.asarray(o, dtype=float), -1.0 + EPS_CLIP, 1.0 - EPS_CLIP)
    t = np.asarray(t, dtype=float)
    z = 2.0 * _arctanh(o)
    value = _softplus(-t * z)
    # chain rule: d/do softplus(-2 t u) = -2 t sigma(-2 t u) / (1 - o^2),
    # and 2 sigma(-t z) = 1 - t o, giving exactly -(t - o) / (1 - o^2)
    deriv = -2.0 * t * sigmoid(-t * z) / (1.0 - o ** 2)
    return value, deriv


def cross_entropy_sigmoid(z, y, temperature: float = 1.0):
    """Binary cross-entropy on sigmoid(z / T), stable log-sum-exp form."""
    if temperature <= 0:
        raise InvalidWeight("temperature must be positive")
    z = np.asarray(z, dtype=float) / temperature
    y = np.asarray(y, dtype=float)
    # -[y log s + (1-y) log(1-s)] = softplus(z) - y z
    value = _softplus(z) - y * z
    deriv = (sigmoid(z) - y) / temperature
    return value, deriv


REGISTRY = {
    "squared": LossSpec(
        name="squared",
        fn=lambda o, t, weight: squared_error(o, t),
        bregman_exact=True,
        g_function=lambda o: np.ones_like(np.asarray(o, dtype=float)),
    ),
    "squared_costweighted": LossSpec(
        name="squared_costweighted",
        fn=lambda o, t, weight: cost_weighted_squared_error(
            o, t, weight if weight is not None else 1.0),
        # Per-sample weighting is exact per class; the population minimizer
        # shifts with the weight, so it is not tagged exact for the plain
        # 2p-1 target unless the weight is 1.
        bregman_exact=False,
    ),
    "logistic_arctanh": LossSpec(
        name="logistic_arctanh",
        fn=lambda o, t, weight: logistic_arctanh(o, t),
        bregman_exact=True,
        g_function=lambda o: 1.0 / (1.0 - np.asarray(o, dtype=float) ** 2),
    ),
    "xent_sigmoid": LossSpec(
        name="xent_sigmoid",
        fn=lambda z, y01, weight: cross_entropy_sigmoid(z, y01),
        bregman_exact=False,
        logit_space=True,
    ),
}


def get_loss(name: str) -> LossSpec:
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown loss {name!r}; registered: {sorted(REGISTRY)}") from None
