"""Dense feed-forward scorer with explicit backprop and Adam.

The scorer maps features to a scalar output in (-1, 1): a tanh of the final
pre-activation for losses defined on the bounded output, or tanh(z / 2T) for
the sigmoid cross-entropy path so that the implied posterior is sigma(z / T).
Training is deterministic given the configured seed.  mc_dropout_log_lr gives
a batch's log-LR and its MC-dropout variance from one forward call.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bayes import clamp_output, log_lr_from_output
from .cpus import one_blas_thread, usable_cpus
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
        if min(self.hidden_dims) < 1:
            raise ValueError("hidden layer widths must be at least 1")
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
        if not np.isfinite(self.learning_rate) or self.learning_rate <= 0:
            raise ValueError("learning_rate must be finite and positive")
        if self.max_epochs < 1 or self.batch_size < 1:
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

    def _act(self, z, out=None):
        if self.activation == "relu":
            return np.maximum(z, 0.0, out=out)
        return np.tanh(z, out=out)

    def _act_grad(self, z):
        if self.activation == "relu":
            return z > 0
        return 1.0 - np.tanh(z) ** 2

    def _check_input(self, x):
        if x.shape[-1] != self.input_dim:
            raise ShapeError(f"expected input dim {self.input_dim}, got {x.shape[-1]}")

    def _hidden_pass(self, x, record=None, masks=None, first=None):
        """Run up to the scalar pre-activation; optionally record layer state.

        Leading axes of x (such as MC passes) broadcast.  Dropout is on
        exactly when `masks` supplies the boolean keep-masks, one per hidden
        layer, broadcasting against that layer's activation; this method
        draws no random numbers.  `first` is layer 1's unmasked activation
        act(x @ W1 + b1) when the caller has already computed it; x is then
        only checked.  Without a record, each layer's bias, activation and
        mask are applied in place on its matmul output, so a layer holds one
        array, not z, act(z) and their product; large temporaries freed and
        reallocated every pass are what make the allocator return and
        re-fault their pages.  A mask entry is exactly 1/keep or 0, so
        multiplying by the boolean mask and then by 1/keep gives the same
        bits as multiplying by the float mask.  With a record, each
        layer's input, z and float mask masks[i] / keep (None without
        dropout) are kept for backprop.
        """
        self._check_input(x)
        h = x
        keep = 1.0 - self.dropout_rate
        for i in range(len(self.weights) - 1):
            if i == 0 and first is not None:
                z, a = None, first
            elif record is not None:
                z = h @ self.weights[i] + self.biases[i]
                a = self._act(z)
            else:
                z, a = None, h @ self.weights[i]
                a += self.biases[i]
                self._act(a, out=a)
            mask = None
            if masks is not None:
                if record is not None:
                    mask = masks[i] / keep
                    a = a * mask
                else:
                    if a is first:
                        a = a * masks[i]
                    else:
                        a *= masks[i]
                    a *= 1.0 / keep
            if record is not None:
                record.append((h, z, mask))
            h = a
        z_out = h @ self.weights[-1] + self.biases[-1]
        if record is not None:
            record.append((h, z_out, None))
        return z_out[..., 0]

    def logits(self, x):
        """Raw scalar pre-activation, batched or single-vector."""
        x = np.asarray(x, dtype=float)
        z = self._hidden_pass(np.atleast_2d(x))
        return float(z[0]) if x.ndim == 1 else z

    def _bounded(self, z):
        """Bounded output in (-1, 1) from the scalar pre-activation z."""
        if self.logit_space:
            return np.tanh(z / (2.0 * self.temperature))
        return np.tanh(z)

    def forward(self, x):
        """Bounded output in (-1, 1)."""
        z = self.logits(x)
        return self._bounded(z) if np.ndim(z) else float(self._bounded(z))

    def log_lr(self, x):
        """Log likelihood ratio via the training imbalance ratio."""
        o = clamp_output(self.forward(x))
        return log_lr_from_output(o, self.training_qp)

    def parameters(self):
        return self.weights + self.biases

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


def _flat_views(flat, scorer: CalibratedScorer) -> list:
    """Views into the 1-D `flat`, shaped and ordered like scorer.parameters()."""
    views, start = [], 0
    for p in scorer.parameters():
        views.append(flat[start:start + p.size].reshape(p.shape))
        start += p.size
    return views


def loss_and_gradients(scorer: CalibratedScorer, x, labels, loss: LossSpec,
                       loss_weight: float = 1.0, masks=None, out=None, gradients=True):
    """Mean loss over the batch and gradients for every weight/bias array.

    `masks` are the batch's boolean keep-masks, one (n, h) array per hidden
    layer; without them dropout is off.  The gradients are written into
    `out`, arrays shaped and ordered as scorer.parameters() (by default
    views into one new flat buffer), and `out` is returned.  With
    gradients=False only the loss is computed, and None stands for them.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    record = [] if gradients else None
    z_out = scorer._hidden_pass(x, masks=masks, record=record)
    t = _targets(labels, loss)
    o = z_out if loss.logit_space else np.tanh(z_out)
    values, dz = loss.fn(o, t, loss_weight)
    if not gradients:
        return float(np.mean(values)), None
    if not loss.logit_space:
        dz = dz * (1.0 - o ** 2)
    dz = dz / n

    if out is None:
        out = _flat_views(np.empty(sum(p.size for p in scorer.parameters())), scorer)
    n_layers = len(scorer.weights)
    delta = dz[:, None]  # (n, 1) gradient at the output pre-activation
    for i in range(n_layers - 1, -1, -1):
        h_in, z, mask = record[i]
        if i < n_layers - 1:
            if mask is not None:
                upstream = upstream * mask
            delta = upstream * scorer._act_grad(z)
        np.matmul(h_in.T, delta, out=out[i])
        delta.sum(axis=0, out=out[n_layers + i])
        if i > 0:
            upstream = delta @ scorer.weights[i].T
    return float(np.mean(values)), out


class AdamState:
    """Adam moments for one flat parameter vector (beta 0.9/0.999, eps 1e-8)."""

    def __init__(self, theta, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self.t = 0

    def step(self, theta, grad):
        """One Adam update of `theta` in place from the flat gradient `grad`."""
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        m, v = self.m, self.v
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        theta -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)


def _batch_masks(rng: np.random.Generator, b: int, hidden: list, keep: float) -> list:
    """Boolean keep-masks (b, h) for each hidden width, from one draw.

    Generator.random fills in order, so one rng.random(b * sum(hidden))
    cut layer after layer is the stream of one rng.random((b, h)) per layer.
    """
    kept = rng.random(b * sum(hidden)) < keep
    masks, start = [], 0
    for h in hidden:
        masks.append(kept[start:start + b * h].reshape(b, h))
        start += b * h
    return masks


def train(dataset: LabeledDataset, net_cfg: NetworkConfig, train_cfg: TrainingConfig,
          loss_name: str = "squared", loss_weight: float = 1.0) -> CalibratedScorer:
    """Fit a scorer with Adam, early-stopping on a stratified validation split.

    Every random draw comes from one default_rng(net_cfg.seed), in this
    order: the initial weights; then, per epoch, one permutation of the
    training rows; then, for each batch in turn, its hidden-layer dropout
    masks layer by layer (none without dropout).  The weights and biases
    live in one flat vector while training runs, and so do their gradients
    and Adam moments; the returned scorer holds its own arrays.
    """
    dataset.require_both_classes()
    loss = get_loss(loss_name)
    rng = np.random.default_rng(net_cfg.seed)
    scorer = init_scorer(net_cfg, dataset.imbalance_ratio, loss_name, rng=rng)
    theta = np.concatenate([p.ravel() for p in scorer.parameters()])
    params = _flat_views(theta, scorer)
    scorer.weights, scorer.biases = params[:len(scorer.weights)], params[len(scorer.weights):]
    grad = np.empty_like(theta)
    grads = _flat_views(grad, scorer)
    hidden = [w.shape[1] for w in scorer.weights[:-1]]
    keep = 1.0 - scorer.dropout_rate

    val, tr = stratified_split(dataset, [train_cfg.validation_fraction], seed=net_cfg.seed)
    if val.n_positive == 0 or val.n_negative == 0 or len(tr) == 0:
        # validation split infeasible at this size; fall back to training loss
        tr, val = dataset, dataset
    x_tr, y_tr = tr.features, tr.labels
    x_val, y_val = val.features, val.labels

    opt = AdamState(theta, train_cfg.learning_rate)
    best_val = np.inf
    best_theta = theta.copy()
    stale = 0
    n = len(x_tr)
    for _ in range(train_cfg.max_epochs):
        order = rng.permutation(n)
        for start in range(0, n, train_cfg.batch_size):
            idx = order[start:start + train_cfg.batch_size]
            masks = (_batch_masks(rng, len(idx), hidden, keep)
                     if scorer.dropout_rate > 0 else None)
            loss_and_gradients(scorer, x_tr[idx], y_tr[idx], loss, loss_weight,
                               masks=masks, out=grads)
            opt.step(theta, grad)
        val_loss, _ = loss_and_gradients(scorer, x_val, y_val, loss, loss_weight,
                                         gradients=False)
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_theta = theta.copy()
            stale = 0
        else:
            stale += 1
            if stale > train_cfg.early_stop_patience:
                break
    scorer.set_parameters(_flat_views(best_theta, scorer))
    return scorer


# Floats (1 MiB) the blocks of MC passes in flight may hold per hidden layer.
_MC_BLOCK_FLOATS = 2 ** 17
# Floats one draw call fills at most.
_DRAW_FLOATS = 2 ** 16


def _draw_masks(gens: list, widths: list, b: int, n: int, keep: float) -> list:
    """Boolean keep-masks (b, n, h) for b passes, layer i's drawn from gens[i].

    Each mask is filled in C order, slab by slab, through one float slab
    of at most _DRAW_FLOATS (2**16) floats that every layer reuses: one
    gens[i].random(out=...) call and one compare a slab.  So a layer of at
    most 2**16 entries takes one draw call, and the float scratch does not
    grow with n.  Generator.random fills in C order too, so layer i takes
    exactly the stream of one gens[i].random((b, n, h)).
    """
    masks = [np.empty((b, n, h), dtype=bool) for h in widths]
    u = np.empty(min(max(mask.size for mask in masks), _DRAW_FLOATS))
    for gen, mask in zip(gens, masks):
        flat = mask.reshape(-1)
        for s in range(0, flat.size, _DRAW_FLOATS):
            slab = u[:min(flat.size - s, _DRAW_FLOATS)]
            gen.random(out=slab)
            np.less(slab, keep, out=flat[s:s + len(slab)])
    return masks


def _cursor(rng: np.random.Generator, skip: int) -> np.random.Generator:
    """A new Generator where rng will be after `skip` more float64 draws."""
    bit_gen = type(rng.bit_generator)(0)  # seeded, so no OS entropy is read
    bit_gen.state = rng.bit_generator.state
    gen = np.random.Generator(bit_gen)
    if isinstance(bit_gen, (np.random.PCG64, np.random.PCG64DXSM)):
        bit_gen.advance(skip)  # one step per float64 draw
        return gen
    # Philox.advance counts other units, MT19937 and SFC64 have no advance:
    # draw and discard
    buf = np.empty(min(skip, _DRAW_FLOATS))
    while skip:
        k = min(skip, len(buf))
        gen.random(out=buf[:k])
        skip -= k
    return gen


def mc_dropout_outputs(scorer: CalibratedScorer, x, m: int,
                       rng: np.random.Generator) -> tuple:
    """The plain output and m stochastic outputs for a batch: (n,) and (m, n).

    act(x @ W1 + b1) does not depend on the pass, so it is computed once;
    the passes, then the plain output (no dropout: scorer.forward's bits
    for a 2-D x), run on from it.  The draws are those of one float mask
    per hidden layer over all m passes, layer after layer, as
    rng.random((m, n, h)) would make them, kept as boolean keep-masks; each
    block of passes is one stacked (b, n, h) product on masks drawn just
    before it.  With b1 = max(1, _MC_BLOCK_FLOATS // (n * widest hidden
    layer)) >= m, as for a query (n = 1), all passes are one block whose
    masks come straight from rng, one draw call a layer while
    m * n * h <= _DRAW_FLOATS.  Otherwise the passes are cut into
    t = min(usable_cpus(), ceil(m / b1)) contiguous ranges, one a thread
    (none when t = 1; OpenBLAS is first capped at one thread), in blocks of
    b = max(1, _MC_BLOCK_FLOATS // (t * n * widest)), so all threads
    together hold at most one block.  Each range draws each layer's masks
    from its own stream cursor, a Generator on a copy of rng's state moved
    to where that layer's masks for the range's first pass start; rng is
    moved to the end of the stream (its buffered 32-bit half kept) once
    every block has finished.  Held at once: the outputs, layer 1's
    activation and, per range, one block's boolean masks, one float slab of
    at most _DRAW_FLOATS floats and a few float arrays, the blocks of all
    ranges together at most max(_MC_BLOCK_FLOATS, t * n * widest) floats
    each.  Every output bit, and rng's end state, is that of running all m
    passes at once, whatever the CPU count.  Without dropout or rows
    (n = 0) nothing is drawn: the passes are a read-only broadcast of plain.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    scorer._check_input(x)
    n = x.shape[0]
    if scorer.dropout_rate == 0.0 or n == 0:  # nothing to draw
        plain = scorer._bounded(scorer._hidden_pass(x))
        return plain, np.broadcast_to(plain, (m, n))
    first = scorer._act(x @ scorer.weights[0] + scorer.biases[0])
    keep = 1.0 - scorer.dropout_rate
    widths = [w.shape[1] for w in scorer.weights[:-1]]
    per_pass = n * max(widths)
    b = max(1, _MC_BLOCK_FLOATS // per_pass)
    if b >= m:
        masks = _draw_masks([rng] * len(widths), widths, m, n, keep)
        z = scorer._hidden_pass(x, first=first, masks=masks)
        return scorer._bounded(scorer._hidden_pass(x, first=first)), scorer._bounded(z)
    t = min(usable_cpus(), -(-m // b))
    b = max(1, _MC_BLOCK_FLOATS // (t * per_pass))
    bounds = [m * j // t for j in range(t + 1)]
    layer_starts = [m * n * sum(widths[:i]) for i in range(len(widths))]
    cursors = [[_cursor(rng, start + s * n * h) for start, h in zip(layer_starts, widths)]
               for s in bounds[:-1]]
    z = np.empty((m, n))

    def run_range(j):
        # each block stays a stacked (b, n, h) product: a 2-D (b * n, h)
        # product lets BLAS pick other kernels and changes the last bits
        for s in range(bounds[j], bounds[j + 1], b):
            e = min(s + b, bounds[j + 1])
            masks = _draw_masks(cursors[j], widths, e - s, n, keep)
            z[s:e] = scorer._hidden_pass(x, first=first, masks=masks)

    if t == 1:
        run_range(0)
    else:
        from concurrent.futures import ThreadPoolExecutor
        one_blas_thread()
        with ThreadPoolExecutor(t) as pool:
            list(pool.map(run_range, range(t)))
    state = rng.bit_generator.state
    end = cursors[-1][-1].bit_generator.state  # the last mask's last draw
    for key in ("has_uint32", "uinteger"):
        if key in state:
            end[key] = state[key]
    rng.bit_generator.state = end
    return scorer._bounded(scorer._hidden_pass(x, first=first)), scorer._bounded(z)


def mc_dropout_log_lr(scorer: CalibratedScorer, x, m: int,
                      rng: np.random.Generator) -> tuple:
    """A batch's log-LR (scorer.log_lr's bits) and the 1/m-normalized
    variance of its m MC passes' log-LRs (exactly 0 without dropout), each
    (n,), from one mc_dropout_outputs call.
    """
    if m < 2:
        raise ValueError("need at least two passes")
    plain, passes = mc_dropout_outputs(scorer, x, m, rng)
    log_lr = log_lr_from_output(clamp_output(plain), scorer.training_qp)
    if scorer.dropout_rate == 0.0:
        return log_lr, np.zeros(len(log_lr))
    logs = log_lr_from_output(clamp_output(passes), scorer.training_qp)
    logs -= np.add.reduce(logs, axis=0) / m
    logs *= logs
    return log_lr, np.add.reduce(logs, axis=0) / m


def mc_dropout_log_lr_variance(scorer: CalibratedScorer, x, m: int,
                               rng: np.random.Generator) -> float:
    """mc_dropout_log_lr's variance for one vector.  obil does not call it;
    it is kept because perfbench/tracing.py looks it up by name.
    """
    return float(mc_dropout_log_lr(scorer, x, m, rng)[1][0])


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
    arrays = []
    for n in [r * c for r, c in shapes] + [c for _, c in shapes]:
        raw = buf.read(8 * n)
        if len(raw) != 8 * n:
            raise ValueError("truncated scorer container")
        arrays.append(np.frombuffer(raw, dtype=np.float64).copy())
    weights = [a.reshape(shp) for a, shp in zip(arrays, shapes)]
    biases = arrays[len(shapes):]
    return CalibratedScorer(weights, biases, header["activation"], header["dropout_rate"],
                            header["training_qp"], header["loss_tag"], header["temperature"])
