"""Evaluation metrics, calibration measurement, and temperature fitting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .losses import cross_entropy_sigmoid

DEFAULT_BINS = 15


class FitFailure(ValueError):
    pass


class MetricResult(NamedTuple):
    """Metric value plus a flag; undefined cases report 0.0 with defined=False."""

    value: float
    defined: bool = True


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("counts must be nonnegative")

    @staticmethod
    def from_predictions(preds, labels) -> "ConfusionCounts":
        p = np.asarray(preds, dtype=int)
        y = np.asarray(labels, dtype=int)
        return ConfusionCounts(
            tp=int(np.sum((p == 1) & (y == 1))),
            fp=int(np.sum((p == 1) & (y == 0))),
            tn=int(np.sum((p == 0) & (y == 0))),
            fn=int(np.sum((p == 0) & (y == 1))),
        )


def f1(counts: ConfusionCounts) -> MetricResult:
    denom = 2 * counts.tp + counts.fp + counts.fn
    if denom == 0:
        return MetricResult(0.0, False)
    return MetricResult(2 * counts.tp / denom)


def g_mean(counts: ConfusionCounts) -> MetricResult:
    pos = counts.tp + counts.fn
    neg = counts.tn + counts.fp
    if pos == 0 or neg == 0:
        return MetricResult(0.0, False)
    sens = counts.tp / pos
    spec = counts.tn / neg
    return MetricResult(float(np.sqrt(sens * spec)))


def auprc(scores, labels) -> MetricResult:
    """Area under the precision-recall step curve (non-interpolated).

    Thresholds sweep the distinct score values descending, ties grouped.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    n_pos = int(y.sum())
    if n_pos == 0:
        return MetricResult(0.0, False)
    order = np.argsort(-s, kind="stable")
    s, y = s[order], y[order]
    # group tied scores: cumulative counts at the end of each tie block
    distinct_end = np.flatnonzero(np.diff(s) != 0)
    block_ends = np.concatenate([distinct_end, [len(s) - 1]])
    tp_cum = np.cumsum(y)[block_ends]
    n_cum = block_ends + 1
    precision = tp_cum / n_cum
    recall = tp_cum / n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    return MetricResult(float(np.sum(precision * (recall - prev_recall))))


def reliability_bins(confidences, correct, bins: int = DEFAULT_BINS):
    """Per-bin (count, mean confidence, accuracy) over equal-width bins.

    Bins are right-closed except the first, which includes its left edge.
    """
    conf = np.asarray(confidences, dtype=float)
    corr = np.asarray(correct, dtype=float)
    if conf.size == 0:
        raise ValueError("empty input")
    if bins < 1:
        raise ValueError("need at least one bin")
    edges = np.linspace(0.0, 1.0, bins + 1)
    idx = np.clip(np.ceil(conf * bins).astype(int) - 1, 0, bins - 1)
    rows = []
    for b in range(bins):
        mask = idx == b
        count = int(mask.sum())
        if count:
            rows.append((edges[b], edges[b + 1], count,
                         float(conf[mask].mean()), float(corr[mask].mean())))
        else:
            rows.append((edges[b], edges[b + 1], 0, 0.0, 0.0))
    return rows


def ece(confidences, correct, bins: int = DEFAULT_BINS) -> MetricResult:
    conf = np.asarray(confidences, dtype=float)
    if conf.size == 0:
        return MetricResult(0.0, False)
    n = conf.size
    total = 0.0
    for _, _, count, mean_conf, acc in reliability_bins(conf, correct, bins):
        if count:
            total += (count / n) * abs(acc - mean_conf)
    return MetricResult(total)


def ece_from_posteriors(posteriors, labels, bins: int = DEFAULT_BINS) -> MetricResult:
    """ECE with confidence = max(p, 1-p) and correctness of the argmax label."""
    p = np.asarray(posteriors, dtype=float)
    y = np.asarray(labels, dtype=int)
    pred = (p > 0.5).astype(int)
    conf = np.where(pred == 1, p, 1.0 - p)
    return ece(conf, (pred == y).astype(float), bins)


def fit_temperature(logits, labels, lo: float = 0.05, hi: float = 20.0,
                    tol: float = 1e-4):
    """Temperature minimizing mean sigmoid cross-entropy, via golden section.

    Returns (T, at_boundary).  at_boundary flags a minimum at a search edge
    (e.g. constant logits, where the objective has no curvature).
    """
    z = np.asarray(logits, dtype=float)
    y = np.asarray(labels, dtype=int)
    if y.size == 0 or y.min() == y.max():
        raise FitFailure("temperature fit needs both classes")

    def nll(temp):
        return float(np.mean(cross_entropy_sigmoid(z, y, temp)[0]))

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = nll(c), nll(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = nll(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = nll(d)
    t_opt = (a + b) / 2.0
    at_boundary = t_opt - lo < 10 * tol or hi - t_opt < 10 * tol
    return t_opt, at_boundary

