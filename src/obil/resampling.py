"""Rebalanced "associated" datasets: undersampling, oversampling, SMOTE.

Undersampling keeps class-conditional feature rows untouched and is the
preferred route for likelihood-ratio work; SMOTE is provided for the
distortion demonstration and baseline parity (its interpolation shrinks the
minority variance, so the synthetic class-conditional differs from the
original).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset

DEFAULT_SMOTE_NEIGHBORS = 5


class InfeasibleTarget(ValueError):
    pass


class TooFewMinority(ValueError):
    pass


RESAMPLE_METHODS = ("undersample", "oversample", "smote")


@dataclass(frozen=True)
class AssociatedProblemSpec:
    target_qp: float
    method: str = "undersample"  # undersample | oversample | smote
    seed: int = 0
    k_neighbors: int = DEFAULT_SMOTE_NEIGHBORS

    def __post_init__(self):
        if self.target_qp <= 0:
            raise InfeasibleTarget("target_qp must be positive")
        if self.method not in RESAMPLE_METHODS:
            raise ValueError(f"unknown resampling method {self.method!r}")


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def make_associated(dataset: LabeledDataset, spec: AssociatedProblemSpec) -> LabeledDataset:
    """Resample toward the target imbalance ratio.

    Undersample shrinks the larger side of the target ratio without
    replacement; oversample/smote grow the minority class instead.  A target
    matching the current ratio (within one sample) returns the dataset
    unchanged, rows in original order.
    """
    dataset.require_both_classes()
    rng = np.random.default_rng(spec.seed)
    y = dataset.labels
    pos_idx = np.flatnonzero(y == 1)
    neg_idx = np.flatnonzero(y == 0)
    n1, n0 = len(pos_idx), len(neg_idx)

    if spec.method == "undersample":
        if spec.target_qp <= n0 / n1:
            new_n0 = _round_half_up(spec.target_qp * n1)
            if new_n0 < 1:
                raise InfeasibleTarget("target majority count below 1")
            if new_n0 >= n0:
                return dataset
            keep = rng.choice(neg_idx, size=new_n0, replace=False)
        else:
            # target more imbalanced than current: shrink the minority side
            new_n1 = _round_half_up(n0 / spec.target_qp)
            if new_n1 < 1:
                raise InfeasibleTarget("target minority count below 1")
            if new_n1 >= n1:
                return dataset
            keep = rng.choice(pos_idx, size=new_n1, replace=False)
            return dataset.subset(np.sort(np.concatenate([neg_idx, keep])))
        return dataset.subset(np.sort(np.concatenate([keep, pos_idx])))

    # growth methods: bring the minority up to round(N0 / target_qp)
    new_n1 = _round_half_up(n0 / spec.target_qp)
    if new_n1 < 1:
        raise InfeasibleTarget("target minority count below 1")
    extra = new_n1 - n1
    if extra <= 0:
        return dataset
    if spec.method == "smote" and n1 < 2:
        raise TooFewMinority("SMOTE needs at least two minority points")
    if spec.method == "oversample":
        dup = rng.choice(pos_idx, size=extra, replace=True)
        feats = np.vstack([dataset.features, dataset.features[dup]])
        labels = np.concatenate([dataset.labels, np.ones(extra, dtype=int)])
    else:  # smote
        synth = smote_generate(dataset.features[pos_idx], extra,
                               min(spec.k_neighbors, n1 - 1), spec.seed + 1)
        feats = np.vstack([dataset.features, synth])
        labels = np.concatenate([dataset.labels, np.ones(extra, dtype=int)])
    return LabeledDataset(feats, labels)


def smote_generate(minority_features: np.ndarray, n_synthetic: int,
                   k_neighbors: int = DEFAULT_SMOTE_NEIGHBORS, seed: int = 0) -> np.ndarray:
    """Interpolated synthetic minority rows x_i + lam * (x_j - x_i).

    x_j is drawn among the k nearest neighbors (Euclidean) of a random base
    point x_i, lam uniform on (0, 1).
    """
    x = np.asarray(minority_features, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if k_neighbors < 1:
        raise TooFewMinority("need at least one neighbor")
    if n <= k_neighbors:
        raise TooFewMinority("need more minority points than neighbors")
    rng = np.random.default_rng(seed)
    d2 = np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    neighbors = np.argsort(d2, axis=1)[:, :k_neighbors]
    base = rng.integers(0, n, size=n_synthetic)
    pick = rng.integers(0, k_neighbors, size=n_synthetic)
    other = neighbors[base, pick]
    lam = rng.random(n_synthetic)
    return x[base] + lam[:, None] * (x[other] - x[base])
