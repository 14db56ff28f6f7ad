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
from functools import lru_cache, partial
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
    hidden_dims: tuple[int, ...] = (128, 64, 32)
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

    def _act_grad(self, a):
        """d act / dz from the unmasked activation a = act(z): a > 0 for
        relu, 1 - a**2 for tanh (the bits of 1 - tanh(z)**2)."""
        if self.activation == "relu":
            return a > 0
        return 1.0 - a ** 2

    def _check_input(self, x):
        if x.ndim > 2:
            raise ShapeError(f"expected a vector or a 2-D batch, got shape {x.shape}")
        if x.shape[-1] != self.input_dim:
            raise ShapeError(f"expected input dim {self.input_dim}, got {x.shape[-1]}")

    def _layer(self, i, h, out=None):
        """Layer i of h: h @ W_i (into `out`), then b_i and (for a hidden
        layer) the activation applied in place, so the layer holds one array."""
        a = np.matmul(h, self.weights[i], out=out)
        a += self.biases[i]
        if i < len(self.weights) - 1:
            self._act(a, out=a)
        return a

    def _hidden_pass(self, x, masks=None, scale=None, record=None, first=None, out=None):
        """Run up to the scalar pre-activation; optionally record layer state.

        Leading axes of x (such as MC passes) broadcast.  Dropout is on
        exactly when `masks` supplies the boolean keep-masks, one per hidden
        layer, broadcasting against that layer's activation; this method
        draws no random numbers.  The one mask rule: a layer's activation is
        multiplied by its boolean mask, then by the caller's `scale` (1/keep
        for training's _batch_masks, 2**16 / _lane_keep(keep) for
        _draw_masks' lane masks).  `first` is layer 1's unmasked activation
        act(x @ W1 + b1) when the caller has already computed it (and checked
        x; without it x is checked here); `out` takes the output layer's
        (..., 1) product.  Each layer's bias, activation and mask are applied in
        place on its matmul output, so a layer holds one array, not z, act(z)
        and their product; large temporaries freed and reallocated every pass
        are what make the allocator return and re-fault their pages.  Only an
        activation that must outlive the pass, `first` or a recorded one, is
        masked on a copy.  A record gets each layer's input and unmasked
        activation (None for the output layer), which is all backprop needs.
        """
        if first is None:
            self._check_input(x)
        h = x
        n_hidden = len(self.weights) - 1
        for i in range(n_hidden):
            a = first if i == 0 and first is not None else self._layer(i, h)
            if record is not None:
                record.append((h, a))
            if masks is not None:
                if a is first or record is not None:
                    a = a * masks[i]
                else:
                    a *= masks[i]
                a *= scale
            h = a
        if record is not None:
            record.append((h, None))
        return self._layer(n_hidden, h, out)[..., 0]

    def _tiles(self, n):
        """The row tiles of n rows for this net: _row_tiles(n, _TILE_FLOATS //
        widest layer), 512 rows at width 64."""
        return _row_tiles(n, _TILE_FLOATS // max([w.shape[1] for w in self.weights]))

    def logits(self, x):
        """Raw scalar pre-activation, batched or single-vector.

        The net runs over the row tiles of _tiles into one (n,) array, so a
        batch holds one tile's layers, not (n, h) arrays; by the tile rule
        (see mc_dropout_outputs) these are the bits of one pass over all rows.
        """
        x = np.asarray(x, dtype=float)
        x2 = np.atleast_2d(x)
        z = np.empty(len(x2))
        for r in self._tiles(len(x2)):
            self._hidden_pass(x2[r], out=z[r, None])
        return float(z[0]) if x.ndim == 1 else z

    def _bounded(self, z, out=None):
        """Bounded output in (-1, 1) from the scalar pre-activation z; with
        `out` (which may be z) the result is written there."""
        if self.logit_space:
            z = np.divide(z, 2.0 * self.temperature, out=out)
        return np.tanh(z, out=out)

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
    layer (_batch_masks'); without them dropout is off.  The forward pass
    and backprop apply them by the one mask rule: multiply by the boolean
    mask, then by 1/keep.  The gradients are written into `out`, arrays
    shaped and ordered as scorer.parameters() (by default views into one new
    flat buffer), and `out` is returned.  The pass is recorded only for
    them: with gradients=False only the loss is computed, and None stands
    for them.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n = x.shape[0]
    scale = 1.0 / (1.0 - scorer.dropout_rate)
    record = [] if gradients else None
    z_out = scorer._hidden_pass(x, masks=masks, scale=scale, record=record)
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
        h_in, a = record[i]
        if i < n_layers - 1:
            if masks is not None:
                upstream *= masks[i]
                upstream *= scale
            delta = upstream * scorer._act_grad(a)
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


# Floats (256 KiB) a row tile of MC passes holds per hidden layer.  Its tile
# edges are part of the mask stream: changing it changes multi-tile MC bits.
_TILE_FLOATS = 2 ** 15
# Row tiles start at multiples of this many rows.
_TILE_ROWS = 64
# 64-bit words (128 KiB) one draw call returns at most.
_DRAW_WORDS = 2 ** 14
# Lanes a word holds, and the values a 16-bit lane takes.
_LANES = 4
_LANE_VALUES = 2 ** 16
# Bit generators whose random_raw is one next_uint64 a word (not MT19937).
_RAW64 = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64)


@lru_cache
def _lane_keep(keep: float) -> int:
    """k = round(keep * 2**16) clamped to [1, 2**16]: an inference mask
    entry is kept iff its 16-bit lane is below k, with probability k / 2**16.
    """
    return min(max(round(keep * _LANE_VALUES), 1), _LANE_VALUES)


def _draw_lanes(gen: np.random.Generator, size) -> np.ndarray:
    """The 16-bit lanes of `size` raw 64-bit words, lane j of a word its bits
    16j..16j+15, as uint16 with 4 times the last axis.  Each word is one
    next_uint64 of gen's bit generator (the draw a float64 takes): random_raw
    on _RAW64, integers(0, 2**64 - 1, endpoint=True)'s words without its
    argument handling, and that call on any other (MT19937's random_raw
    gives 32 bits).
    """
    if isinstance(gen.bit_generator, _RAW64):
        words = gen.bit_generator.random_raw(size)
    else:
        words = gen.integers(0, 2 ** 64 - 1, size=size, dtype=np.uint64, endpoint=True)
    return words.astype("<u8", copy=False).view("<u2")  # little-endian: lane j is uint16 j


def _skip(gen: np.random.Generator, words: int):
    """Move gen `words` 64-bit words forward (_draw_lanes' words, or float64
    draws: one next_uint64 each)."""
    if isinstance(gen.bit_generator, (np.random.PCG64, np.random.PCG64DXSM)):
        gen.bit_generator.advance(words)  # one step per 64-bit word
        return
    # Philox.advance counts other units, MT19937 and SFC64 have no advance:
    # draw and discard
    for s in range(0, words, _DRAW_WORDS):
        _draw_lanes(gen, min(words - s, _DRAW_WORDS))


def _pass_words(rows: int, widths: list) -> int:
    return -(-(rows * sum(widths)) // _LANES)  # a pass's words: ceil(rows * sum(widths) / 4)


def _draw_masks(gen: np.random.Generator, widths: list, b: int, n: int,
                keep: float) -> list:
    """Boolean keep-masks (b, n, h) for b passes, one per hidden width, from gen.

    The stream is pass after pass: each pass takes _pass_words(n, widths)
    fresh 64-bit words, and their 16-bit lanes, lane j of a word being its
    bits 16j..16j+15, are cut in C order layer after layer, each layer's
    n * h entries after the layer before; the unused lanes of a pass's last
    word are dropped.  An entry is kept iff its lane is below
    _lane_keep(keep) = k, so the realised keep is k / 2**16 (0.899994 for
    keep 0.9).  The b passes' words are one contiguous run of the stream,
    drawn in calls of at most _DRAW_WORDS (2**14) words into one boolean
    (b, 4 * words) array that the masks view.  So the word scratch is at most
    128 KiB whatever n is, and gen ends b * words on.  mc_dropout_outputs
    reads its whole mask stream this way, one call a block.
    """
    below = _lane_keep(keep) - 1
    words = _pass_words(n, widths)
    kept = np.empty((b, _LANES * words), dtype=bool)
    flat = kept.reshape(-1)
    for w in range(0, b * words, _DRAW_WORDS):
        c = min(_DRAW_WORDS, b * words - w)
        # one expression, so no earlier draw is held beside this one
        np.less_equal(_draw_lanes(gen, c), below, out=flat[_LANES * w:_LANES * (w + c)])
    masks, start = [], 0
    for h in widths:
        masks.append(kept[:, start:start + n * h].reshape(b, n, h))
        start += n * h
    return masks


def _row_tiles(n: int, rows: int) -> list:
    """Slices of n rows into tiles of at most `rows` rows: one slice when
    rows >= n, else tiles of rows cut down to a multiple of _TILE_ROWS (at
    least _TILE_ROWS), the last tile taking what is left.  A 1-row last
    tile would change the bits of the products on OpenBLAS, so the tile
    before it gives it its last _TILE_ROWS rows, or joins it when it has
    no more.
    """
    if rows >= n:
        return [slice(0, n)]
    rows = max(_TILE_ROWS, rows - rows % _TILE_ROWS)
    edges = list(range(0, n, rows)) + [n]
    if n - edges[-2] == 1:
        edges[-2] -= _TILE_ROWS
        if edges[-2] == edges[-3]:
            del edges[-2]
    return [slice(r0, r1) for r0, r1 in zip(edges[:-1], edges[1:])]


def mc_dropout_outputs(scorer: CalibratedScorer, x, m: int,
                       rng: np.random.Generator, reduce) -> None:
    """Hand reduce(outputs, r) each row tile's m stochastic outputs and its
    plain output, in one (m + 1, rows) array: the passes its rows 0..m-1,
    plain (no dropout: scorer.forward's bits) its last row.  This is the one
    fusion path, for a query, a batch, a dropout-free net and 0 rows alike.

    The work runs tile-major over the row tiles r of scorer._tiles (512 rows
    at width 64; a query, and any batch of up to a tile's rows, is one
    tile).  For each tile, act(x @ W1 + b1) is computed once; the m passes
    run on from it in blocks of b = max(1, _TILE_FLOATS // (rows * widest
    layer)) passes, one stacked (b, rows, h) product a layer, and then the
    plain output, into the tile's outputs, to which tanh is applied in
    place.  The outputs are a new array a tile, freed before the thread's
    next tile.  Without dropout every pass would be plain, so none runs
    (m = 0): reduce gets the plain row alone and nothing is drawn.

    The mask stream is tile-major, in the order of the work: tile after
    tile, each the stream of a batch of its rows (_draw_masks: pass after
    pass, each _pass_words(rows, widths) fresh 64-bit words cut layer after
    layer), so every block is one contiguous run of words; 0 rows take no
    words.  An entry is kept with probability k / 2**16,
    k = _lane_keep(1 - dropout_rate), and kept activations are scaled by
    2**16 / k.  On one thread every block is drawn straight from rng, with
    no generator copy.  Otherwise t = min(usable_cpus(), tiles) threads
    (OpenBLAS first capped at one thread) take contiguous ranges of tiles,
    each drawing from one copy of rng moved once (_skip) past the words of
    the tiles before its first; rng is then set to where the last thread's
    copy ended, its buffered 32-bit half kept.  Held at once, per thread:
    one tile's layer 1, block masks, layer arrays, word draw (at most
    128 KiB) and outputs, and what reduce makes of them.

    Every output bit, and rng's end state, is the same whatever the CPU
    count; the tile edges are part of the stream.  Given the masks, the
    products over the tiles are the bits of the full-row products on
    OpenBLAS 0.3.31 (Haswell kernels), by the tile rule (README, Fusion):
    tiles start at multiples of 64 rows and none is 1 row.  A query is a
    one-row batch, bit for bit.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    scorer._check_input(x)
    if scorer.dropout_rate == 0.0:
        m = 0
    tiles = scorer._tiles(x.shape[0])
    # one tile asks for no CPU count: a system call that costs a query several microseconds
    t = 1 if len(tiles) == 1 else min(usable_cpus(), len(tiles))
    if t == 1:
        _run_tiles(scorer, x, m, reduce, tiles, rng)
        return
    run = partial(_run_tiles, scorer, x, m, reduce)
    from concurrent.futures import ThreadPoolExecutor
    widths = [w.shape[1] for w in scorer.weights[:-1]]
    edges = [len(tiles) * j // t for j in range(t + 1)]
    skips = [m * sum(_pass_words(r.stop - r.start, widths) for r in tiles[:i])
             for i in edges[:-1]]
    start = rng.bit_generator.state
    # seeded, so no OS entropy is read; each is then set to `start`
    gens = [np.random.Generator(type(rng.bit_generator)(0)) for _ in range(t)]
    for gen in gens:
        gen.bit_generator.state = start
    one_blas_thread()
    with ThreadPoolExecutor(t) as pool:
        list(pool.map(run, [tiles[i:j] for i, j in zip(edges, edges[1:])], gens, skips))
    end = gens[-1].bit_generator.state  # the last tile's last draw
    for key in ("has_uint32", "uinteger"):  # PCG64's advance drops the buffered half
        if key in start:
            end[key] = start[key]
    rng.bit_generator.state = end


def _run_tiles(scorer, x, m, reduce, tiles, gen, skip=0):
    """mc_dropout_outputs' work on `tiles`, in order: each tile's (m + 1,
    rows) outputs, handed to reduce, with masks drawn from gen once it is
    moved `skip` words on.  A block stays a stacked (b, rows, h) product: a
    2-D (b * rows, h) one lets BLAS pick kernels with other bits."""
    if skip:
        _skip(gen, skip)
    widths = [w.shape[1] for w in scorer.weights[:-1]]
    widest = max(widths or [1])  # _tiles' widest layer; a net without hidden layers has 1
    keep = 1.0 - scorer.dropout_rate
    scale = _LANE_VALUES / _lane_keep(keep)
    for r in tiles:
        rows = r.stop - r.start
        out = np.empty((m + 1, rows))
        products = out[:, :, None]
        xr = x[r]
        first = scorer._layer(0, xr)
        b = max(1, _TILE_FLOATS // (rows * widest or 1))  # 0 rows: one block that draws nothing
        for s in range(0, m, b):
            e = min(s + b, m)
            masks = _draw_masks(gen, widths, e - s, rows, keep)
            scorer._hidden_pass(xr, masks=masks, scale=scale, first=first, out=products[s:e])
            del masks  # so the next block's draw does not hold two blocks' masks
        scorer._hidden_pass(xr, first=first, out=products[m])
        scorer._bounded(out, out=out)
        reduce(out, r)
        del out, products, first  # before the next tile's are made


def mc_dropout_log_lr(scorer: CalibratedScorer, x, m: int,
                      rng: np.random.Generator, out=None) -> np.ndarray:
    """A batch's log-LR (scorer.log_lr's bits) and the 1/m-normalized
    variance of its m MC passes' log-LRs, the two rows of one (2, n) array:
    `out`, or a new one.  They come from one mc_dropout_outputs call: each
    row tile's outputs become log-LRs in place (with one more such array),
    in the operations and order of scorer.log_lr, and then the tile's
    columns of the result, so the call holds one tile's outputs a thread,
    not (m + 1, n) arrays.  Without dropout a tile has no passes, and the
    variance is 0 / m, exactly 0.
    """
    if m < 2:
        raise ValueError("need at least two passes")
    if out is None:
        x = np.asarray(x, dtype=float)
        out = np.empty((2, len(x) if x.ndim == 2 else 1))

    def reduce(z, r):
        log_lr_from_output(clamp_output(z, out=z), scorer.training_qp, out=z)
        passes = z[:-1]
        passes -= np.add.reduce(passes, axis=0) / m
        passes *= passes
        out[0, r] = z[-1]
        out[1, r] = np.add.reduce(passes, axis=0) / m

    mc_dropout_outputs(scorer, x, m, rng, reduce)
    return out


def mc_dropout_log_lr_variance(scorer: CalibratedScorer, x, m: int,
                               rng: np.random.Generator) -> float:
    """mc_dropout_log_lr's variance for one vector.  obil does not call it;
    it is kept because perfbench/tracing.py looks it up by name.
    """
    return float(mc_dropout_log_lr(scorer, x, m, rng)[1][0])


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
