"""Dense feed-forward scorer with explicit backprop and Adam.

The scorer maps features to a scalar output in (-1, 1): a tanh of the final
pre-activation for losses defined on the bounded output, or tanh(z / 2T) for
the sigmoid cross-entropy path so that the implied posterior is sigma(z / T).
Training is deterministic given the configured seed.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bayes import clamp_output, log_lr_from_output
from .data import LabeledDataset, stratified_split
from .losses import LossSpec, get_loss

MAGIC_SCORER = b"OBIL-SCORER-v1"


class ShapeError(ValueError):
    pass


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int
    hidden_dims: tuple = (128, 64, 32)
    activation: str = "relu"
    dropout_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if len(self.hidden_dims) == 0:
            raise ValueError("need at least one hidden layer")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 1e-3
    max_epochs: int = 100
    batch_size: int = 32
    early_stop_patience: int = 10
    validation_fraction: float = 0.15

    def __post_init__(self):
        if self.learning_rate <= 0 or self.max_epochs < 1 or self.batch_size < 1:
            raise ValueError("invalid training configuration")
        if not (0.0 < self.validation_fraction < 1.0):
            raise ValueError("validation_fraction must lie in (0, 1)")


@dataclass
class CalibratedScorer:
    """Trained network plus the imbalance ratio of the problem it saw."""

    weights: list
    biases: list
    activation: str
    dropout_rate: float
    training_qp: float
    loss_tag: str
    temperature: float = 1.0

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def logit_space(self) -> bool:
        return get_loss(self.loss_tag).logit_space

    def _act(self, z):
        if self.activation == "relu":
            return np.maximum(z, 0.0)
        return np.tanh(z)

    def _act_grad(self, z):
        if self.activation == "relu":
            return (z > 0).astype(float)
        return 1.0 - np.tanh(z) ** 2

    def _hidden_pass(self, x, dropout_active=False, rng=None, record=None):
        """Run up to the scalar pre-activation; optionally record layer state.

        Leading axes of x (such as MC passes) broadcast; each layer draws one
        mask covering all of them.
        """
        if x.shape[-1] != self.input_dim:
            raise ShapeError(f"expected input dim {self.input_dim}, got {x.shape[-1]}")
        h = x
        keep = 1.0 - self.dropout_rate
        for i in range(len(self.weights) - 1):
            z = h @ self.weights[i] + self.biases[i]
            a = self._act(z)
            mask = None
            if dropout_active and self.dropout_rate > 0.0:
                if rng is None:
                    raise ValueError("dropout requires a random generator")
                mask = (rng.random(a.shape) < keep) / keep
                a = a * mask
            if record is not None:
                record.append((h, z, mask))
            h = a
        z_out = h @ self.weights[-1] + self.biases[-1]
        if record is not None:
            record.append((h, z_out, None))
        return z_out[..., 0]

    def logits(self, x, dropout_active=False, rng=None):
        """Raw scalar pre-activation, batched or single-vector."""
        x = np.asarray(x, dtype=float)
        z = self._hidden_pass(np.atleast_2d(x), dropout_active=dropout_active, rng=rng)
        return float(z[0]) if x.ndim == 1 else z

    def _bounded(self, z):
        """Bounded output in (-1, 1) from the scalar pre-activation z."""
        if self.logit_space:
            return np.tanh(z / (2.0 * self.temperature))
        return np.tanh(z)

    def forward(self, x, dropout_active=False, rng=None):
        """Bounded output in (-1, 1)."""
        z = self.logits(x, dropout_active=dropout_active, rng=rng)
        return self._bounded(z) if np.ndim(z) else float(self._bounded(z))

    def log_lr(self, x, dropout_active=False, rng=None):
        """Log likelihood ratio via the training imbalance ratio."""
        o = clamp_output(self.forward(x, dropout_active=dropout_active, rng=rng))
        return log_lr_from_output(o, self.training_qp)

    def parameters(self):
        return self.weights + self.biases

    def copy_parameters(self):
        return [p.copy() for p in self.parameters()]

    def set_parameters(self, params):
        n = len(self.weights)
        self.weights = [p.copy() for p in params[:n]]
        self.biases = [p.copy() for p in params[n:]]


def init_scorer(cfg: NetworkConfig, training_qp: float, loss_tag: str,
                rng: Optional[np.random.Generator] = None) -> CalibratedScorer:
    """Glorot-uniform weights, zero biases."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    dims = [cfg.input_dim, *cfg.hidden_dims, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return CalibratedScorer(weights, biases, cfg.activation, cfg.dropout_rate,
                            training_qp, loss_tag)


def _targets(labels, loss: LossSpec):
    y = np.asarray(labels, dtype=float)
    return y if loss.logit_space else 2.0 * y - 1.0


def loss_and_gradients(scorer: CalibratedScorer, x, labels, loss: LossSpec,
                       loss_weight: float = 1.0, dropout_rng=None):
    """Mean loss over the batch and gradients for every weight/bias array."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    record = []
    z_out = scorer._hidden_pass(x, dropout_active=dropout_rng is not None,
                                rng=dropout_rng, record=record)
    t = _targets(labels, loss)
    o = z_out if loss.logit_space else np.tanh(z_out)
    values, dz = loss.fn(o, t, loss_weight)
    if not loss.logit_space:
        dz = dz * (1.0 - o ** 2)
    dz = dz / n

    grads_w = [None] * len(scorer.weights)
    grads_b = [None] * len(scorer.biases)
    delta = dz[:, None]  # (n, 1) gradient at the output pre-activation
    h_in, _, _ = record[-1]
    grads_w[-1] = h_in.T @ delta
    grads_b[-1] = delta.sum(axis=0)
    upstream = delta @ scorer.weights[-1].T
    for i in range(len(scorer.weights) - 2, -1, -1):
        h_in, z, mask = record[i]
        if mask is not None:
            upstream = upstream * mask
        delta = upstream * scorer._act_grad(z)
        grads_w[i] = h_in.T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            upstream = delta @ scorer.weights[i].T
    return float(np.mean(values)), grads_w + grads_b


class AdamState:
    """Adam moments for a list of parameter arrays (beta 0.9/0.999, eps 1e-8)."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def train(dataset: LabeledDataset, net_cfg: NetworkConfig, train_cfg: TrainingConfig,
          loss_name: str = "squared", loss_weight: float = 1.0) -> CalibratedScorer:
    """Fit a scorer with Adam, early-stopping on a stratified validation split."""
    dataset.require_both_classes()
    loss = get_loss(loss_name)
    rng = np.random.default_rng(net_cfg.seed)
    scorer = init_scorer(net_cfg, dataset.imbalance_ratio, loss_name, rng=rng)

    val, tr = stratified_split(dataset, [train_cfg.validation_fraction], seed=net_cfg.seed)
    if val.n_positive == 0 or val.n_negative == 0 or len(tr) == 0:
        # validation split infeasible at this size; fall back to training loss
        tr, val = dataset, dataset
    x_tr, y_tr = tr.features, tr.labels
    x_val, y_val = val.features, val.labels

    opt = AdamState(scorer.parameters(), train_cfg.learning_rate)
    best_val = np.inf
    best_params = scorer.copy_parameters()
    stale = 0
    n = len(x_tr)
    for _ in range(train_cfg.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, train_cfg.batch_size):
            idx = order[start:start + train_cfg.batch_size]
            drop_rng = rng if scorer.dropout_rate > 0 else None
            _, grads = loss_and_gradients(scorer, x_tr[idx], y_tr[idx], loss,
                                          loss_weight, dropout_rng=drop_rng)
            opt.step(scorer.parameters(), grads)
        val_loss, _ = loss_and_gradients(scorer, x_val, y_val, loss, loss_weight)
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_params = scorer.copy_parameters()
            stale = 0
        else:
            stale += 1
            if stale > train_cfg.early_stop_patience:
                break
    scorer.set_parameters(best_params)
    return scorer


def mc_dropout_log_lr_variance(scorer: CalibratedScorer, x, m: int,
                               rng: np.random.Generator) -> float:
    """Variance (1/m normalization) of log-LR over m stochastic passes."""
    if m < 2:
        raise ValueError("need at least two passes")
    if scorer.dropout_rate == 0.0:
        return 0.0
    samples = np.array([scorer.log_lr(x, dropout_active=True, rng=rng) for _ in range(m)])
    return float(np.mean((samples - samples.mean()) ** 2))


def mc_dropout_outputs(scorer: CalibratedScorer, x, m: int,
                       rng: np.random.Generator) -> np.ndarray:
    """m stochastic outputs for a batch, shape (m, n); one mask per layer over all m passes."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = scorer._hidden_pass(np.broadcast_to(x, (m, *x.shape)), dropout_active=True, rng=rng)
    return scorer._bounded(z)


def mc_dropout_log_lr_variance_batch(scorer: CalibratedScorer, x, m: int,
                                     rng: np.random.Generator) -> np.ndarray:
    """Per-input MC-dropout variance of the log-LR, shape (n,)."""
    x = np.asarray(x, dtype=float)
    n = 1 if x.ndim == 1 else x.shape[0]
    if scorer.dropout_rate == 0.0:
        return np.zeros(n)
    outs = clamp_output(mc_dropout_outputs(scorer, x, m, rng))
    logs = log_lr_from_output(outs, scorer.training_qp)
    return np.mean((logs - logs.mean(axis=0)) ** 2, axis=0)


def gradient_check(scorer: CalibratedScorer, x, labels, loss_name: str,
                   loss_weight: float = 1.0, step: float = 1e-5) -> float:
    """Max relative gap between backprop and central-difference gradients."""
    loss = get_loss(loss_name)
    _, grads = loss_and_gradients(scorer, x, labels, loss, loss_weight)
    worst = 0.0
    for p, g in zip(scorer.parameters(), grads):
        flat = p.ravel()
        gflat = g.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            lo_plus, _ = loss_and_gradients(scorer, x, labels, loss, loss_weight)
            flat[j] = orig - step
            lo_minus, _ = loss_and_gradients(scorer, x, labels, loss, loss_weight)
            flat[j] = orig
            fd = (lo_plus - lo_minus) / (2.0 * step)
            denom = max(abs(gflat[j]), abs(fd), 1e-8)
            worst = max(worst, abs(gflat[j] - fd) / denom)
    return worst


def save_scorer_bytes(scorer: CalibratedScorer) -> bytes:
    header = {
        "activation": scorer.activation,
        "dropout_rate": scorer.dropout_rate,
        "training_qp": scorer.training_qp,
        "loss_tag": scorer.loss_tag,
        "temperature": scorer.temperature,
        "shapes": [list(w.shape) for w in scorer.weights],
    }
    buf = io.BytesIO()
    buf.write(MAGIC_SCORER + b"\n")
    buf.write(json.dumps(header).encode() + b"\n")
    for arr in scorer.weights + scorer.biases:
        buf.write(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
    return buf.getvalue()


def load_scorer_bytes(data: bytes) -> CalibratedScorer:
    buf = io.BytesIO(data)
    magic = buf.readline().rstrip(b"\n")
    if magic != MAGIC_SCORER:
        raise ValueError("not a scorer container")
    header = json.loads(buf.readline().decode())
    shapes = [tuple(s) for s in header["shapes"]]
    weights, biases = [], []
    for shp in shapes:
        n = shp[0] * shp[1]
        weights.append(np.frombuffer(buf.read(8 * n), dtype=np.float64).reshape(shp).copy())
    for shp in shapes:
        n = shp[1]
        biases.append(np.frombuffer(buf.read(8 * n), dtype=np.float64).copy())
    return CalibratedScorer(weights, biases, header["activation"], header["dropout_rate"],
                            header["training_qp"], header["loss_tag"], header["temperature"])


def save_scorer(scorer: CalibratedScorer, path):
    with open(path, "wb") as fh:
        fh.write(save_scorer_bytes(scorer))


def load_scorer(path) -> CalibratedScorer:
    with open(path, "rb") as fh:
        return load_scorer_bytes(fh.read())
