"""Likelihood-ratio ensemble: members trained on rebalanced datasets at
distinct imbalance ratios, fused per query by uncertainty-weighted geometric
averaging in log space.  One mlp.mc_dropout_log_lr call a member gives its
log-LR and MC-dropout variance.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .bayes import EPS_CLIP
from .data import LabeledDataset
from .mlp import (NetworkConfig, ShapeError, TrainingConfig, load_scorer_bytes,
                  mc_dropout_log_lr, save_scorer_bytes, train)
from .resampling import RESAMPLE_METHODS, AssociatedProblemSpec, make_associated

MAGIC_ENSEMBLE = b"OBIL-ENS-v1"

# Golden-ratio increment for deriving member seeds from the master seed.
SEED_STRIDE = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

# Clamped outputs give log-LRs within a span of 2 log((2 - EPS_CLIP) / EPS_CLIP),
# about 29.0, so a member's MC variance is at most a quarter of its square,
# about 210.5.  Below twice that over the largest float, var / tau could
# overflow to -inf for every member and make the fusion weights NaN.
MIN_FUSION_TEMPERATURE = float(2.0 * np.log((2.0 - EPS_CLIP) / EPS_CLIP) ** 2
                               / np.finfo(float).max)


def derive_member_seed(master_seed: int, k: int) -> int:
    return (master_seed ^ ((k + 1) * SEED_STRIDE)) & _MASK64


@dataclass(frozen=True)
class EnsembleConfig:
    target_qps: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0)
    fusion_temperature: float = 1.0
    mc_samples: int = 30
    resample_method: str = "undersample"

    def __post_init__(self):
        object.__setattr__(self, "target_qps", tuple(float(q) for q in self.target_qps))
        if len(self.target_qps) == 0:
            raise ValueError("need at least one target imbalance ratio")
        if not all(np.isfinite(q) and q > 0 for q in self.target_qps):
            raise ValueError("target imbalance ratios must be finite and positive")
        if not MIN_FUSION_TEMPERATURE <= self.fusion_temperature < np.inf:  # NaN fails too
            raise ValueError("fusion_temperature must be finite and at least "
                             f"{MIN_FUSION_TEMPERATURE:.3g}, got {self.fusion_temperature!r}")
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

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("an ensemble needs at least one member")
        dims = [member.input_dim for member in self.members]
        if len(set(dims)) > 1:
            raise ValueError(f"members take different input dims: {dims}")

    def member_log_lrs(self, x, rng: np.random.Generator):
        """Log-LRs and MC-dropout variances, two (K, n) arrays for n rows:
        one mc_dropout_log_lr call a member, members in order.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.empty((2, len(self.members), len(x)))
        for k, member in enumerate(self.members):
            mc_dropout_log_lr(member, x, self.config.mc_samples, rng, out=out[:, k])
        return out[0], out[1]

    def _variance_weights(self, var):
        """Softmax of -var / tau over the member axis (axis 0)."""
        logw = var / -self.config.fusion_temperature
        logw -= np.maximum.reduce(logw, axis=0)
        w = np.exp(logw)
        return w / np.add.reduce(w, axis=0)

    def fusion_weights(self, x, rng: np.random.Generator):
        """Softmax of negative MC-dropout variances, temperature tau."""
        return self._variance_weights(self.member_log_lrs(x, rng)[1])

    def _fused(self, x, rng: np.random.Generator) -> np.ndarray:
        """Weighted geometric mean of member ratios, in log space, per row."""
        logs, var = self.member_log_lrs(x, rng)
        return np.add.reduce(self._variance_weights(var) * logs, axis=0)

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

    Every member trains on a rebalanced copy of the given rows, with its own
    derived seed; no rows are held out here.
    """
    dataset.require_both_classes()
    members = []
    for k, target_qp in enumerate(cfg.target_qps):
        member_seed = derive_member_seed(seed, k) & 0x7FFFFFFF
        assoc = make_associated(
            dataset,
            AssociatedProblemSpec(target_qp=target_qp, method=cfg.resample_method,
                                  seed=member_seed),
        )
        members.append(train(assoc, replace(net_cfg, seed=member_seed),
                             train_cfg, loss_name))
    return LikelihoodRatioEnsemble(members, cfg)


def save_ensemble_bytes(ens: LikelihoodRatioEnsemble) -> bytes:
    blobs = [save_scorer_bytes(m) for m in ens.members]
    # the config's fields in declaration order, then the member sizes
    header = {**asdict(ens.config), "member_sizes": [len(b) for b in blobs]}
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
    cfg = EnsembleConfig(**{f.name: header[f.name] for f in fields(EnsembleConfig)})
    members = [load_scorer_bytes(buf.read(n)) for n in header["member_sizes"]]
    return LikelihoodRatioEnsemble(members, cfg)


def save_ensemble(ens: LikelihoodRatioEnsemble, path):
    with open(path, "wb") as fh:
        fh.write(save_ensemble_bytes(ens))


def load_ensemble(path) -> LikelihoodRatioEnsemble:
    with open(path, "rb") as fh:
        return load_ensemble_bytes(fh.read())
