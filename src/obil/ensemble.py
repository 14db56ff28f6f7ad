"""Likelihood-ratio ensemble: members trained on rebalanced datasets at
distinct imbalance ratios, fused per query by uncertainty-weighted geometric
averaging in log space.  One mlp.mc_dropout_log_lr call a member gives its
log-LR and MC-dropout variance.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, stratified_split
from .mlp import (NetworkConfig, ShapeError, TrainingConfig, load_scorer_bytes,
                  mc_dropout_log_lr, save_scorer_bytes, train)
from .resampling import RESAMPLE_METHODS, AssociatedProblemSpec, make_associated

MAGIC_ENSEMBLE = b"OBIL-ENS-v1"

# Golden-ratio increment for deriving member seeds from the master seed.
SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def derive_member_seed(master_seed: int, k: int) -> int:
    return (master_seed ^ ((k + 1) * SEED_STRIDE)) & _MASK64


@dataclass(frozen=True)
class EnsembleConfig:
    target_qps: tuple = (1.0, 2.0, 5.0, 10.0)
    fusion_temperature: float = 1.0
    mc_samples: int = 30
    calibration_fraction: float = 0.15
    resample_method: str = "undersample"

    def __post_init__(self):
        object.__setattr__(self, "target_qps", tuple(float(q) for q in self.target_qps))
        if len(self.target_qps) == 0:
            raise ValueError("need at least one target imbalance ratio")
        if not all(np.isfinite(q) and q > 0 for q in self.target_qps):
            raise ValueError("target imbalance ratios must be finite and positive")
        if not (np.isfinite(self.fusion_temperature) and self.fusion_temperature > 0):
            raise ValueError("fusion temperature must be finite and positive")
        if not (0.0 < self.calibration_fraction < 1.0):
            raise ValueError("calibration_fraction must lie in (0, 1)")
        if self.mc_samples < 2:
            raise ValueError("need at least two MC samples")
        if self.resample_method not in RESAMPLE_METHODS:
            raise ValueError(f"unknown resampling method {self.resample_method!r}")

    @property
    def k(self) -> int:
        return len(self.target_qps)


@dataclass
class LikelihoodRatioEnsemble:
    members: list
    config: EnsembleConfig

    def member_log_lr(self, k: int, x):
        return self.members[k].log_lr(x)

    def member_log_lrs(self, x, rng: np.random.Generator):
        """Log-LRs and MC-dropout variances, two (K, n) arrays for n rows:
        one mc_dropout_log_lr call a member, members in order.
        """
        per_member = [mc_dropout_log_lr(m, x, self.config.mc_samples, rng)
                      for m in self.members]
        return tuple(np.stack(a) for a in zip(*per_member))

    def _variance_weights(self, var):
        """Softmax of -var / tau over the member axis (axis 0)."""
        logw = -var / self.config.fusion_temperature
        logw -= logw.max(axis=0)
        w = np.exp(logw)
        return w / w.sum(axis=0)

    def fusion_weights(self, x, rng: np.random.Generator):
        """Softmax of negative MC-dropout variances, temperature tau."""
        return self._variance_weights(self.member_log_lrs(x, rng)[1])

    def _fused(self, x, rng: np.random.Generator) -> np.ndarray:
        """Weighted geometric mean of member ratios, in log space, per row."""
        logs, var = self.member_log_lrs(np.atleast_2d(np.asarray(x, dtype=float)), rng)
        return np.sum(self._variance_weights(var) * logs, axis=0)

    def fused_log_lr(self, x, rng: np.random.Generator) -> float:
        """Fused log-LR of one feature vector, shape (d,) or (1, d)."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.size != x.shape[-1]:
            raise ShapeError(f"expected one feature vector, got shape {x.shape}")
        return float(self._fused(x, rng)[0])

    def fused_log_lr_batch(self, x, rng: np.random.Generator) -> np.ndarray:
        """Fused log-LR for a whole batch, shape (n,)."""
        return self._fused(x, rng)


def train_ensemble(dataset: LabeledDataset, cfg: EnsembleConfig,
                   net_cfg: NetworkConfig, train_cfg: TrainingConfig,
                   loss_name: str = "squared", seed: int = 0) -> LikelihoodRatioEnsemble:
    """Train one member per target ratio on independent resamples.

    A calibration split is reserved before any resampling; members train on
    the remainder, each on its own rebalanced copy with a derived seed.
    """
    dataset.require_both_classes()
    _cal, train_part = stratified_split(dataset, [cfg.calibration_fraction], seed=seed)
    if train_part.n_positive == 0 or train_part.n_negative == 0:
        train_part = dataset
    members = []
    for k, target_qp in enumerate(cfg.target_qps):
        member_seed = derive_member_seed(seed, k)
        assoc = make_associated(
            train_part,
            AssociatedProblemSpec(target_qp=target_qp, method=cfg.resample_method,
                                  seed=member_seed & 0x7FFFFFFF),
        )
        member_cfg = NetworkConfig(net_cfg.input_dim, net_cfg.hidden_dims,
                                   net_cfg.activation, net_cfg.dropout_rate,
                                   seed=member_seed & 0x7FFFFFFF)
        scorer = train(assoc, member_cfg, train_cfg, loss_name)
        members.append(scorer)
    return LikelihoodRatioEnsemble(members, cfg)


def save_ensemble_bytes(ens: LikelihoodRatioEnsemble) -> bytes:
    blobs = [save_scorer_bytes(m) for m in ens.members]
    header = {
        "target_qps": list(ens.config.target_qps),
        "fusion_temperature": ens.config.fusion_temperature,
        "mc_samples": ens.config.mc_samples,
        "calibration_fraction": ens.config.calibration_fraction,
        "resample_method": ens.config.resample_method,
        "member_sizes": [len(b) for b in blobs],
    }
    buf = io.BytesIO()
    buf.write(MAGIC_ENSEMBLE + b"\n")
    buf.write(json.dumps(header).encode() + b"\n")
    for b in blobs:
        buf.write(b)
    return buf.getvalue()


def load_ensemble_bytes(data: bytes) -> LikelihoodRatioEnsemble:
    buf = io.BytesIO(data)
    magic = buf.readline().rstrip(b"\n")
    if magic != MAGIC_ENSEMBLE:
        raise ValueError("not an ensemble container")
    header = json.loads(buf.readline().decode())
    cfg = EnsembleConfig(
        target_qps=tuple(header["target_qps"]),
        fusion_temperature=header["fusion_temperature"],
        mc_samples=header["mc_samples"],
        calibration_fraction=header["calibration_fraction"],
        resample_method=header["resample_method"],
    )
    members = [load_scorer_bytes(buf.read(n)) for n in header["member_sizes"]]
    return LikelihoodRatioEnsemble(members, cfg)


def save_ensemble(ens: LikelihoodRatioEnsemble, path):
    with open(path, "wb") as fh:
        fh.write(save_ensemble_bytes(ens))


def load_ensemble(path) -> LikelihoodRatioEnsemble:
    with open(path, "rb") as fh:
        return load_ensemble_bytes(fh.read())
