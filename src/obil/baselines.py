"""Non-adaptive and batch shift-correction comparators."""

from __future__ import annotations

import numpy as np

from .bayes import PRIOR_FLOOR
from .metrics import FitFailure


class BBSEUnidentifiable(ValueError):
    pass


def threshold_moving_fit(scores, labels):
    """Threshold maximizing F1 over validation scores.

    Candidates are midpoints of adjacent distinct sorted scores plus
    sentinels below/above all scores; ties break toward the smaller
    threshold, the first maximum.  Decisions downstream are score > threshold.
    Each candidate's F1 is 2 tp / (2 tp + fp + fn), metrics.f1's bits, with
    tp and fp counted by searchsorted on the sorted positive and negative
    scores.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    if y.size == 0 or y.min() == y.max():
        raise FitFailure("threshold fit needs both classes")
    distinct = np.unique(s)
    if distinct.size < 2:
        raise FitFailure("all scores identical")
    span = distinct[-1] - distinct[0]
    candidates = np.concatenate([
        [distinct[0] - max(span, 1.0)],
        (distinct[:-1] + distinct[1:]) / 2.0,
        [distinct[-1] + max(span, 1.0)],
    ])
    kept = ~np.isnan(s)  # a NaN score is above no threshold
    pos, neg = np.sort(s[kept & (y == 1)]), np.sort(s[kept & (y == 0)])
    tp = len(pos) - np.searchsorted(pos, candidates, side="right")
    fp = len(neg) - np.searchsorted(neg, candidates, side="right")
    fn = np.count_nonzero(y == 1) - tp
    denom = 2 * tp + fp + fn
    scores_f1 = np.divide(2 * tp, denom, out=np.zeros(len(candidates)), where=denom > 0)
    best = int(np.argmax(scores_f1))
    return float(candidates[best]), float(scores_f1[best])


def logit_adjust(z, train_p1: float, test_p1: float):
    """Shift a logit from the training prior's odds to the test prior's.

    Decision at adjusted z > 0 matches the Bayes rule for test_p1 when the
    scorer is calibrated under train_p1.
    """
    for p in (train_p1, test_p1):
        if not (0.0 < p < 1.0):
            raise ValueError("priors must lie in (0, 1)")
    shift = np.log(test_p1 / (1.0 - test_p1)) - np.log(train_p1 / (1.0 - train_p1))
    return np.asarray(z, dtype=float) + shift if np.ndim(z) else float(z) + shift


def bbse_estimate_prior(confusion, target_pred_dist):
    """Black-box shift estimation for the binary case.

    confusion is the 2x2 column-stochastic matrix C[i, j] = P(pred=i | y=j)
    measured on source validation data; target_pred_dist is the predicted
    label distribution on an unlabeled target batch.  Solves C p = mu, clips
    negatives, renormalizes, then floors at PRIOR_FLOOR.  Returns (p0, p1).
    """
    c = np.asarray(confusion, dtype=float)
    mu = np.asarray(target_pred_dist, dtype=float)
    if c.shape != (2, 2) or mu.shape != (2,):
        raise ValueError("expected a 2x2 matrix and a 2-vector")
    if abs(np.linalg.det(c)) <= 1e-6:
        raise BBSEUnidentifiable("confusion matrix is near-singular")
    p = np.linalg.solve(c, mu)
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if total == 0:
        raise BBSEUnidentifiable("estimated prior vector collapsed to zero")
    p = p / total
    p1 = min(max(p[1], PRIOR_FLOOR), 1.0 - PRIOR_FLOOR)
    return 1.0 - p1, p1
