import itertools
import threading
import tracemalloc

import numpy as np
import pytest

from obil import mlp
from obil.bayes import clamp_output, log_lr_from_output
from obil.data import DegenerateData, LabeledDataset, stratified_split
from obil.losses import get_loss
from obil.mlp import (CalibratedScorer, NetworkConfig, ShapeError,
                      TrainingConfig, init_scorer,
                      load_scorer_bytes, loss_and_gradients,
                      mc_dropout_log_lr, mc_dropout_log_lr_variance,
                      save_scorer_bytes, train)
from support import collect_outputs, gradient_check


def single_layer_scorer(weight, bias=0.0, training_qp=1.0, dropout=0.0):
    return CalibratedScorer(weights=[np.array([[weight]])],
                            biases=[np.array([bias])],
                            activation="relu", dropout_rate=dropout,
                            training_qp=training_qp, loss_tag="squared")


def small_dataset(n=60, seed=0, p1=0.5):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < p1).astype(int)
    x = np.where(y[:, None] == 1, 1.0, -1.0) + rng.normal(0, 1, (n, 1))
    return LabeledDataset(x, y)


def lane_keep(keep):
    """k = round(keep * 2**16) clamped to [1, 2**16]."""
    return min(max(round(keep * 65536), 1), 65536)


def pass_masks(rng, m, n, widths, keep):
    """Replay of the inference mask stream: pass after pass, one rng.integers
    draw of ceil(n * sum(widths) / 4) fresh 64-bit words, lane j of a word
    its bits 16j..16j+15, cut by shifts and then layer after layer, each
    layer's n * h lanes after the layer before; an entry is kept iff its
    lane is below k.  A boolean (m, n, h) array per width."""
    shifts = np.array([0, 16, 32, 48], dtype=np.uint64)
    masks = [np.empty((m, n, h), dtype=bool) for h in widths]
    for k in range(m):
        words = rng.integers(0, 2 ** 64 - 1, size=-(-(n * sum(widths)) // 4),
                             dtype=np.uint64, endpoint=True)
        lanes = ((words[:, None] >> shifts) & np.uint64(0xFFFF)).reshape(-1)
        start = 0
        for mask, h in zip(masks, widths):
            mask[k] = (lanes[start:start + n * h] < lane_keep(keep)).reshape(n, h)
            start += n * h
    return masks


# Row-tile edges of an n-row batch through a net whose widest hidden layer
# is 64: tiles of 512 rows, where a 1-row last tile takes the last 64 rows
# of the tile before it.  A net whose widest layer is 6 (tiles of up to
# 5,461 rows) runs every n here as one tile.
TILES_AT_64 = {0: [0, 0], 1: [0, 1], 250: [0, 250], 513: [0, 448, 513],
               1025: [0, 512, 960, 1025], 2048: [0, 512, 1024, 1536, 2048],
               2049: [0, 512, 1024, 1536, 1984, 2049],
               4000: [0, 512, 1024, 1536, 2048, 2560, 3072, 3584, 4000]}


def tile_edges(hidden_dims, n):
    return TILES_AT_64[n] if max(hidden_dims) == 64 else [0, n]


class TestForward:
    def test_all_zero_parameters(self):
        cfg = NetworkConfig(input_dim=3, hidden_dims=(4,))
        scorer = init_scorer(cfg, 1.0, "squared")
        scorer.weights = [np.zeros_like(w) for w in scorer.weights]
        assert scorer.forward(np.array([0.7, -2.0, 5.0])) == 0.0

    def test_single_linear_layer(self):
        scorer = single_layer_scorer(1.0)
        assert scorer.forward(np.array([0.5])) == pytest.approx(np.tanh(0.5))

    def test_zero_dropout_is_noop(self):
        # without dropout every MC pass would be the deterministic forward,
        # so none runs: the reducer gets the plain output alone, bit for
        # bit, and no random number is drawn
        cfg = NetworkConfig(input_dim=2, hidden_dims=(8, 4), seed=3)
        scorer = init_scorer(cfg, 1.0, "squared")
        xs = np.array([[0.4, -1.2], [2.0, 0.1], [-0.3, 0.7]])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for x in (xs, xs[0]):
            plain, outs = collect_outputs(scorer, x, 4, rng)
            want = np.atleast_1d(scorer.forward(x))
            assert plain.tobytes() == want.tobytes()
            assert outs.shape == (0, want.size)
        assert rng.bit_generator.state == state

    def test_shape_error(self):
        cfg = NetworkConfig(input_dim=2, hidden_dims=(4,))
        scorer = init_scorer(cfg, 1.0, "squared")
        with pytest.raises(ShapeError):
            scorer.forward(np.array([1.0, 2.0, 3.0]))

    def test_output_boundedness_fuzz(self):
        rng = np.random.default_rng(11)
        cfg = NetworkConfig(input_dim=5, hidden_dims=(16, 8), seed=7)
        scorer = init_scorer(cfg, 1.0, "squared")
        # exaggerate the weights to push toward saturation; tanh can round to
        # exactly +-1.0 in double precision, the clamp downstream keeps the
        # ratio finite
        scorer.weights = [10.0 * w for w in scorer.weights]
        for _ in range(200):
            x = rng.normal(0, 50, 5)
            assert abs(scorer.forward(x)) <= 1.0
            assert np.isfinite(scorer.log_lr(x))

    def test_forward_holds_one_tile(self):
        # forward runs over row tiles: at n = 20 000 and hidden (64, 32) it
        # holds one tile's layers, at most 2**15 floats for layer 1 and half
        # that for layer 2, beside its (n,) pre-activations and outputs, not
        # (n, 64) and (n, 32) arrays (15.4 MB), and gives the bits of one
        # pass over all rows
        n = 20_000
        for activation in ("relu", "tanh"):
            cfg = NetworkConfig(input_dim=4, hidden_dims=(64, 32), seed=2, activation=activation)
            scorer = init_scorer(cfg, 1.0, "squared")
            xs = np.random.default_rng(1).normal(0, 1, (n, 4))
            tracemalloc.start()
            try:
                got = scorer.forward(xs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * n + 2 * mlp._TILE_FLOATS * 8 + 65_536, (activation, peak)
            act = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh}[activation]
            h = xs
            for w, b in zip(scorer.weights[:-1], scorer.biases[:-1]):
                h = act(h @ w + b)
            want = np.tanh((h @ scorer.weights[-1] + scorer.biases[-1])[:, 0])
            assert got.tobytes() == want.tobytes(), activation

    def test_layer1_tile_rule(self):
        # layer 1's x[r] @ W1 over the row tiles gives the bits of the full
        # product x @ W1, for input dims 1, 2 and 4 and batches whose tiles
        # straddle 512 rows, a 65-row last tile among them
        rng = np.random.default_rng(5)
        for d in (1, 2, 4):
            scorer = init_scorer(NetworkConfig(input_dim=d, hidden_dims=(64, 32), seed=d),
                                 1.0, "squared")
            w = scorer.weights[0]
            for n in (513, 1025, 2049, 10_000):
                xs = rng.normal(0, 1, (n, d))
                tiles = scorer._tiles(n)
                assert len(tiles) > 1, (d, n)
                got = np.concatenate([xs[r] @ w for r in tiles])
                assert got.tobytes() == (xs @ w).tobytes(), (d, n)

    def test_batched_matches_single(self):
        cfg = NetworkConfig(input_dim=3, hidden_dims=(6,), seed=5)
        scorer = init_scorer(cfg, 1.0, "squared")
        xs = np.random.default_rng(2).normal(0, 1, (10, 3))
        batch = scorer.forward(xs)
        singles = np.array([scorer.forward(x) for x in xs])
        np.testing.assert_allclose(batch, singles, rtol=1e-15)


class TestTrain:
    def test_two_point_sign_ordering(self):
        ds = LabeledDataset(np.array([[-1.0], [1.0]]), np.array([0, 1]))
        cfg = NetworkConfig(input_dim=1, hidden_dims=(8,), seed=0)
        scorer = train(ds, cfg, TrainingConfig(max_epochs=200, batch_size=2))
        assert scorer.forward(np.array([-1.0])) < 0 < scorer.forward(np.array([1.0]))

    def test_balanced_gaussian_posterior_at_origin(self):
        rng = np.random.default_rng(42)
        y = (rng.random(2000) < 0.5).astype(int)
        x = np.where(y[:, None] == 1, 1.0, -1.0) + rng.normal(0, 1, (2000, 1))
        ds = LabeledDataset(x, y)
        cfg = NetworkConfig(input_dim=1, hidden_dims=(32, 16), seed=1)
        scorer = train(ds, cfg, TrainingConfig(max_epochs=40))
        implied = (clamp_output(scorer.forward(np.array([0.0]))) + 1.0) / 2.0
        assert abs(implied - 0.5) < 0.05

    def test_determinism(self):
        ds = small_dataset()
        cfg = NetworkConfig(input_dim=1, hidden_dims=(8, 4), seed=9)
        tc = TrainingConfig(max_epochs=5)
        a = train(ds, cfg, tc)
        b = train(ds, cfg, tc)
        for wa, wb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(wa, wb)

    def test_training_qp_recorded(self):
        ds = small_dataset(n=90, p1=0.25, seed=4)
        cfg = NetworkConfig(input_dim=1, hidden_dims=(4,), seed=0)
        scorer = train(ds, cfg, TrainingConfig(max_epochs=2))
        assert scorer.training_qp == pytest.approx(ds.imbalance_ratio)

    def test_single_class_raises(self):
        ds = LabeledDataset(np.zeros((5, 1)), np.ones(5, dtype=int))
        cfg = NetworkConfig(input_dim=1, hidden_dims=(4,))
        with pytest.raises(DegenerateData):
            train(ds, cfg, TrainingConfig())


def replay_train(dataset, net_cfg, train_cfg, loss_name, loss_weight):
    """Plain reference for train(): array-by-array backprop and Adam, with one
    rng.random((b, h)) mask draw per hidden layer per batch.

    Returns (parameters, epochs run, training rows, whether the validation
    split fell back to the whole dataset).
    """
    loss = get_loss(loss_name)
    rng = np.random.default_rng(net_cfg.seed)
    scorer = init_scorer(net_cfg, dataset.imbalance_ratio, loss_name, rng=rng)
    ws, bs = scorer.weights, scorer.biases
    keep = 1.0 - net_cfg.dropout_rate
    relu = net_cfg.activation == "relu"

    def pass_(x, y, drop):
        layers, h = [], x
        for w, b in zip(ws[:-1], bs[:-1]):
            z = h @ w + b
            a = np.maximum(z, 0.0) if relu else np.tanh(z)
            mask = (rng.random(a.shape) < keep) / keep if drop else None
            if mask is not None:
                a = a * mask
            layers.append((h, z, mask))
            h = a
        z_out = (h @ ws[-1] + bs[-1])[:, 0]
        t = np.asarray(y, dtype=float)
        if not loss.logit_space:
            t = 2.0 * t - 1.0
        o = z_out if loss.logit_space else np.tanh(z_out)
        values, dz = loss.fn(o, t, loss_weight)
        if not loss.logit_space:
            dz = dz * (1.0 - o ** 2)
        delta = (dz / len(x))[:, None]
        gw, gb = [h.T @ delta], [delta.sum(axis=0)]
        upstream = delta @ ws[-1].T
        for i in range(len(layers) - 1, -1, -1):
            h_in, z, mask = layers[i]
            if mask is not None:
                upstream = upstream * mask
            grad = (z > 0).astype(float) if relu else 1.0 - np.tanh(z) ** 2
            delta = upstream * grad
            gw.insert(0, h_in.T @ delta)
            gb.insert(0, delta.sum(axis=0))
            if i > 0:
                upstream = delta @ ws[i].T
        return float(np.mean(values)), gw + gb

    val, tr = stratified_split(dataset, [train_cfg.validation_fraction], seed=net_cfg.seed)
    fell_back = val.n_positive == 0 or val.n_negative == 0 or len(tr) == 0
    if fell_back:
        tr, val = dataset, dataset
    params = ws + bs
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    t_adam, best, best_params, stale, epochs = 0, np.inf, [p.copy() for p in params], 0, 0
    for _ in range(train_cfg.max_epochs):
        epochs += 1
        order = rng.permutation(len(tr))
        for start in range(0, len(tr), train_cfg.batch_size):
            idx = order[start:start + train_cfg.batch_size]
            _, grads = pass_(tr.features[idx], tr.labels[idx], net_cfg.dropout_rate > 0)
            t_adam += 1
            b1t, b2t = 1.0 - 0.9 ** t_adam, 1.0 - 0.999 ** t_adam
            for p, g, m, v in zip(params, grads, ms, vs):
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * g * g
                p -= train_cfg.learning_rate * (m / b1t) / (np.sqrt(v / b2t) + 1e-8)
        val_loss, _ = pass_(val.features, val.labels, False)
        if val_loss < best - 1e-12:
            best, best_params, stale = val_loss, [p.copy() for p in params], 0
        else:
            stale += 1
            if stale > train_cfg.early_stop_patience:
                break
    return best_params, epochs, len(tr), fell_back


class TestTrainReplay:
    def test_matches_plain_reference_bytes(self):
        # train() runs on one flat parameter vector and draws each batch's
        # masks in one call; the reference does neither, and every trained
        # parameter must still have the same bytes
        rng = np.random.default_rng(12)
        y = (rng.random(75) < 0.4).astype(int)
        x = np.where(y[:, None] == 1, 0.7, -0.7) + rng.normal(0, 1, (75, 2))
        ds = LabeledDataset(x, y)
        y_rare = np.zeros(30, dtype=int)
        y_rare[[4, 17]] = 1  # round(0.15 * 2) = 0 positives in validation
        rare = LabeledDataset(rng.normal(0, 1, (30, 2)) + y_rare[:, None], y_rare)
        cases = [  # (data, activation, dropout, loss, weight, patience, expect)
            (ds, "relu", 0.0, "squared", 1.0, 50, "full"),
            (ds, "relu", 0.3, "squared", 1.0, 50, "full"),
            (ds, "tanh", 0.0, "squared_costweighted", 2.0, 50, "full"),
            (ds, "tanh", 0.3, "logistic_arctanh", 1.0, 50, "full"),
            (ds, "relu", 0.3, "xent_sigmoid", 1.0, 50, "full"),
            (ds, "tanh", 0.3, "squared", 1.0, 0, "early stop"),
            (rare, "relu", 0.3, "squared", 1.0, 50, "fallback"),
        ]
        for data, activation, dropout, loss_name, weight, patience, expect in cases:
            net = NetworkConfig(input_dim=2, hidden_dims=(6, 5, 4), activation=activation,
                                dropout_rate=dropout, seed=31)
            fit = TrainingConfig(learning_rate=0.05, max_epochs=12, batch_size=16,
                                 early_stop_patience=patience)
            got = train(data, net, fit, loss_name, weight)
            want, epochs, n_train, fell_back = replay_train(data, net, fit, loss_name, weight)
            case = (activation, dropout, loss_name, expect)
            assert n_train % fit.batch_size != 0, case  # a last partial batch runs
            assert (epochs < fit.max_epochs) == (expect == "early stop"), case
            assert fell_back == (expect == "fallback"), case
            for g, w in zip(got.parameters(), want):
                assert g.tobytes() == w.tobytes(), case
                assert g.base is None, case  # the returned scorer owns its arrays


class TestGradientCheck:
    def test_fresh_network_all_losses(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, (6, 3))
        y = np.array([0, 1, 0, 1, 1, 0])
        for loss_name in ("squared", "squared_costweighted",
                          "logistic_arctanh", "xent_sigmoid"):
            cfg = NetworkConfig(input_dim=3, hidden_dims=(5, 4), seed=17)
            scorer = init_scorer(cfg, 1.0, loss_name)
            weight = 3.0 if loss_name == "squared_costweighted" else 1.0
            assert gradient_check(scorer, x, y, loss_name, weight) <= 1e-5

    def test_loss_alone_matches_loss_with_gradients(self):
        # train() scores its validation split without backprop; with
        # training masks the loss alone still scales them by 1/keep
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (9, 3))
        y = np.array([0, 1, 0, 1, 1, 0, 0, 1, 0])
        for loss_name in ("squared", "squared_costweighted",
                          "logistic_arctanh", "xent_sigmoid"):
            for dropout in (0.0, 0.3):
                scorer = init_scorer(NetworkConfig(input_dim=3, hidden_dims=(5, 4), seed=2,
                                                   dropout_rate=dropout), 1.0, loss_name)
                masks = (mlp._batch_masks(np.random.default_rng(1), 9, [5, 4], 0.7)
                         if dropout else None)
                alone, none = loss_and_gradients(scorer, x, y, get_loss(loss_name), 2.0,
                                                 masks=masks, gradients=False)
                assert none is None
                assert alone == loss_and_gradients(scorer, x, y, get_loss(loss_name), 2.0,
                                                   masks=masks)[0], (loss_name, dropout)

    def test_gradient_vanishes_at_saturation(self):
        # with outputs saturated toward the matching labels the squared-loss
        # gradient at the output goes through (t - o)(1 - o^2) -> 0
        scorer = single_layer_scorer(50.0)
        x = np.array([[1.0], [-1.0]])
        y = np.array([1, 0])
        _, grads = loss_and_gradients(scorer, x, y, get_loss("squared"))
        assert max(np.max(np.abs(g)) for g in grads) <= 1e-10


class TestMcDropout:
    def test_zero_dropout_zero_variance(self):
        scorer = single_layer_scorer(1.0)
        rng = np.random.default_rng(0)
        assert mc_dropout_log_lr_variance(scorer, np.array([0.5]), 10, rng) == 0.0

    def test_requires_two_passes(self):
        # checked before any draw, with dropout on or off, for one vector
        # and for a batch
        for dropout in (0.0, 0.2):
            scorer = init_scorer(NetworkConfig(input_dim=1, hidden_dims=(4,),
                                               dropout_rate=dropout), 1.0, "squared")
            for m in (0, 1):
                for fn, x in ((mc_dropout_log_lr_variance, np.array([0.5])),
                              (mc_dropout_log_lr, np.array([[0.5], [1.0]]))):
                    gen = np.random.default_rng(0)
                    state = gen.bit_generator.state
                    with pytest.raises(ValueError, match="two passes"):
                        fn(scorer, x, m, gen)
                    assert gen.bit_generator.state == state, (dropout, m, fn.__name__)

    def test_replay_oracle(self):
        # recompute the same stochastic passes with a twin generator and an
        # independent forward implementation: the lane masks of all passes,
        # pass after pass and within a pass layer after layer, as float
        # masks 2**16 / k or 0, then each pass alone.  The variances must match bit for
        # bit, for one vector and for a batch, and the generators must end
        # together.  The log-LR beside the batch variance is scorer.log_lr's,
        # bit for bit.
        cfg = NetworkConfig(input_dim=2, hidden_dims=(6, 4), seed=8,
                            dropout_rate=0.3)
        scorer = init_scorer(cfg, 2.0, "squared")
        xs = np.array([[0.3, -0.8], [1.1, 0.4], [-0.5, -1.5]])
        m = 50
        keep = 1.0 - scorer.dropout_rate
        for x in (xs[0], xs):
            gen = np.random.default_rng(123)
            x2 = np.atleast_2d(x)
            if x.ndim == 1:
                got = np.array([mc_dropout_log_lr_variance(scorer, x, m, gen)])
            else:
                log_lr, got = mc_dropout_log_lr(scorer, x, m, gen)
                assert log_lr.tobytes() == scorer.log_lr(x2).tobytes()

            rng = np.random.default_rng(123)
            masks = [mask * (65536 / lane_keep(keep))
                     for mask in pass_masks(rng, m, len(x2), cfg.hidden_dims, keep)]
            samples = []
            for s in range(m):
                h = x2
                for w, b, mask in zip(scorer.weights[:-1], scorer.biases[:-1], masks):
                    h = np.maximum(h @ w + b, 0.0) * mask[s]
                z = (h @ scorer.weights[-1] + scorer.biases[-1])[:, 0]
                samples.append(log_lr_from_output(clamp_output(np.tanh(z)),
                                                  scorer.training_qp))
            samples = np.array(samples)
            want = np.mean((samples - samples.mean(axis=0)) ** 2, axis=0)
            assert got.shape == (len(x2),)
            assert got.tobytes() == want.tobytes(), x.shape
            assert gen.bit_generator.state == rng.bit_generator.state, x.shape
            assert got.min() > 0.0  # dropout really varied the passes

    def test_batch_outputs_shape_and_determinism_without_dropout(self):
        cfg = NetworkConfig(input_dim=2, hidden_dims=(4,), seed=1)
        scorer = init_scorer(cfg, 1.0, "squared")
        xs = np.random.default_rng(5).normal(0, 1, (7, 2))
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        first = collect_outputs(scorer, xs, 3, gen)
        again = collect_outputs(scorer, xs, 3, gen)
        for plain, outs in (first, again):
            assert outs.shape == (0, 7)
            assert plain.tobytes() == scorer.forward(xs).tobytes()
        assert gen.bit_generator.state == state

    def test_batch_replay_oracle(self, monkeypatch):
        # replay the batch passes with a twin generator (replay_passes): tile
        # after tile, the lane masks of all passes over the tile's rows, pass
        # after pass, then each pass separately over all rows; the tile-major
        # passes (layer 1 once a tile, blocks of
        # b = max(1, 2**15 // (rows * widest)) passes) must give the same
        # bits and leave the generator where the twin is, on 1, 2 or 3 CPUs.
        # With hidden (64, 32) and m = 30, n = 1 is one block of 30 and
        # n = 250 one tile in blocks of 2; n = 513, 1025, 2049 and 4000 run
        # over the tiles of TILES_AT_64, where a naive split would leave a
        # 1-row tile, the same on every CPU count.  The plain output is
        # scorer.forward's, bit for bit.
        rows = np.random.default_rng(7).normal(0, 1, (4000, 2))
        cases = [((6, 4), "relu", rows[:5], 8), ((6, 4), "tanh", rows[:5], 8),
                 ((6, 5, 4), "relu", rows[:5], 8), ((6, 5, 4), "tanh", rows[:5], 8),
                 ((6, 4), "tanh", rows[1], 8),
                 ((64, 32), "relu", rows[:250], 30), ((64, 32), "tanh", rows[:250], 30),
                 ((64, 32), "relu", rows[:1], 30), ((64, 32), "tanh", rows[:1], 30),
                 ((64, 32), "tanh", rows[:513], 30),
                 ((64, 32), "relu", rows[:1025], 30), ((64, 32), "tanh", rows[:2049], 30),
                 ((64, 32), "relu", rows[:4000], 30)]
        for hidden_dims, activation, xs, m in cases:
            x2 = np.atleast_2d(xs)
            cfg = NetworkConfig(input_dim=2, hidden_dims=hidden_dims, seed=9,
                                activation=activation, dropout_rate=0.3)
            scorer = init_scorer(cfg, 2.0, "squared")
            rng = np.random.default_rng(321)
            want = replay_passes(scorer, x2, m, rng, tile_edges(hidden_dims, len(x2)))
            for cpus in (1, 2, 3):
                monkeypatch.setattr(mlp, "usable_cpus", lambda: cpus)
                gen = np.random.default_rng(321)
                plain, got = collect_outputs(scorer, xs, m, gen)
                case = (hidden_dims, activation, x2.shape, m, cpus)
                assert plain.tobytes() == scorer.forward(x2).tobytes(), case
                assert got.shape == (m, len(x2)), case
                assert got.tobytes() == want.tobytes(), case
                assert gen.bit_generator.state == rng.bit_generator.state, case
                assert np.ptp(got, axis=0).min() > 0.0, case  # dropout really varied the passes

    def test_batch_wrong_input_dim(self):
        # layer 1 runs outside the pass loop; the input is still checked
        # first, before any mask is drawn
        cfg = NetworkConfig(input_dim=2, hidden_dims=(4, 3), dropout_rate=0.2)
        scorer = init_scorer(cfg, 1.0, "squared")
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        for xs in (np.ones(3), np.ones((4, 3)), np.ones((4, 1))):
            with pytest.raises(ShapeError):
                collect_outputs(scorer, xs, 5, gen)
        assert gen.bit_generator.state == state

    def test_batch_memory_below_one_float_block(self, monkeypatch):
        # one mc_dropout_log_lr call holds, per thread, one row tile's
        # working set: at most 2**15 floats (256 KiB) a layer for layer 1,
        # a block's masked copy of it and (half that) its layer 2, the
        # block's boolean masks (96 bytes a row-pass, 2**15 * 1.5 bytes),
        # one word draw (128 KiB), and the tile's (m + 1, rows) outputs,
        # turned into log-LRs in place beside one more such array, rows
        # <= 512; over all rows only the (2, n) result, 16 bytes a row.
        # The bound does not grow with n beyond that: not with layer 1's
        # (n, 64) activation (5.1 MB at n = 10 000) nor with the (m + 1, n)
        # outputs and their log-LR scratch (32.2 MB at m = 200)
        cfg = NetworkConfig(input_dim=3, hidden_dims=(64, 32), seed=4, dropout_rate=0.1)
        scorer = init_scorer(cfg, 1.0, "squared")
        rows = mlp._TILE_FLOATS // 64
        mlp.one_blas_thread()  # once a process: its read of /proc/self/maps is no tile's
        for cpus in (1, 2, 3):
            monkeypatch.setattr(mlp, "usable_cpus", lambda: cpus)
            for n, m in ((10_000, 30), (4000, 200), (250, 200)):
                xs = np.random.default_rng(2).normal(0, 1, (n, 3))
                tracemalloc.start()
                try:
                    _, var = mc_dropout_log_lr(scorer, xs, m, np.random.default_rng(0))
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                tile = (3 * mlp._TILE_FLOATS * 8 + mlp._TILE_FLOATS * 3 // 2
                        + mlp._DRAW_WORDS * 8 + 2 * (m + 1) * rows * 8)
                bound = cpus * tile + 16 * n + 65_536
                assert var.shape == (n,)
                assert peak < bound, (cpus, n, m, peak, bound)

    def test_empty_batch_draws_nothing(self):
        # a (0, d) batch gives (0,) plain and (m, 0) outputs with dropout,
        # (0, 0) without, and (0,) log-LRs and variances either way, and
        # leaves the generator where it was
        for dropout in (0.0, 0.2):
            cfg = NetworkConfig(input_dim=2, hidden_dims=(6, 4), dropout_rate=dropout)
            scorer = init_scorer(cfg, 1.0, "squared")
            gen = np.random.default_rng(0)
            state = gen.bit_generator.state
            plain, outs = collect_outputs(scorer, np.ones((0, 2)), 5, gen)
            assert (plain.shape, outs.shape) == ((0,), (5 if dropout else 0, 0)), dropout
            log_lr, var = mc_dropout_log_lr(scorer, np.ones((0, 2)), 5, gen)
            assert (log_lr.shape, var.shape) == ((0,), (0,)), dropout
            assert gen.bit_generator.state == state, dropout

    def test_dropout_free_and_empty_calls_run_the_tile_loop(self, monkeypatch, thread_pools):
        # a dropout-free call runs the one tile loop with no passes: reduce
        # gets one (1, rows) array a row tile, holding scorer.forward's bits,
        # and nothing is drawn on any CPU count (a multi-tile batch takes
        # the thread split, its generator copies left as they were).
        # mc_dropout_log_lr then gives scorer.log_lr's bits and variances of
        # exactly 0.  A 0-row call with dropout hands reduce one (m + 1, 0)
        # tile and draws nothing either
        real = mlp._draw_lanes
        draws = []

        def counted(gen, size):
            draws.append(size)
            return real(gen, size)

        monkeypatch.setattr(mlp, "_draw_lanes", counted)
        rows = np.random.default_rng(5).normal(0, 1, (2049, 2))
        for loss_tag, hidden_dims, activation in itertools.product(
                ("squared", "xent_sigmoid"), ((64, 32), (64, 7, 3), (6,)), ("relu", "tanh")):
            scorer = init_scorer(NetworkConfig(input_dim=2, hidden_dims=hidden_dims, seed=4,
                                               activation=activation), 3.0, loss_tag)
            scorer.temperature = 1.3
            for n in (0, 1, 250, 1025, 2049):
                edges = tile_edges(hidden_dims, n)
                for cpus in (1, 2, 3):
                    case = (loss_tag, hidden_dims, activation, n, cpus)
                    monkeypatch.setattr(mlp, "usable_cpus", lambda: cpus)
                    draws.clear()
                    thread_pools.clear()
                    gen = np.random.default_rng(9)
                    state = gen.bit_generator.state
                    tiles = []
                    mlp.mc_dropout_outputs(scorer, rows[:n], 30, gen,
                                           lambda z, r: tiles.append((r.start, r.stop, z.copy())))
                    tiles.sort(key=lambda tile: tile[0])
                    assert [tile[:2] for tile in tiles] == list(zip(edges, edges[1:])), case
                    assert all(z.shape == (1, r1 - r0) for r0, r1, z in tiles), case
                    plain = np.concatenate([z[0] for _, _, z in tiles])
                    assert plain.tobytes() == scorer.forward(rows[:n]).tobytes(), case
                    log_lr, var = mc_dropout_log_lr(scorer, rows[:n], 30, gen)
                    assert log_lr.tobytes() == scorer.log_lr(rows[:n]).tobytes(), case
                    assert var.tobytes() == np.zeros(n).tobytes(), case
                    assert draws == [] and gen.bit_generator.state == state, case
                    t = min(cpus, len(edges) - 1)
                    assert thread_pools == ([t, t] if t > 1 else []), case
        scorer = init_scorer(NetworkConfig(input_dim=2, hidden_dims=(64, 32),
                                           dropout_rate=0.3), 1.0, "squared")
        gen = np.random.default_rng(9)
        state = gen.bit_generator.state
        tiles = []
        mlp.mc_dropout_outputs(scorer, rows[:0], 30, gen, lambda z, r: tiles.append((r, z.shape)))
        assert tiles == [(slice(0, 0), (31, 0))]
        assert draws == [] and gen.bit_generator.state == state

    def test_zero_or_one_pass(self, monkeypatch):
        # m = 0 gives (n,) plain and (0, n) outputs and draws nothing; m = 1
        # is one pass, the replay's bits; on one CPU or two
        cfg = NetworkConfig(input_dim=2, hidden_dims=(64, 32), seed=3, dropout_rate=0.2)
        scorer = init_scorer(cfg, 1.0, "squared")
        xs = np.random.default_rng(4).normal(0, 1, (250, 2))
        for cpus in (1, 2):
            monkeypatch.setattr(mlp, "usable_cpus", lambda: cpus)
            gen = np.random.default_rng(0)
            state = gen.bit_generator.state
            plain, outs = collect_outputs(scorer, xs, 0, gen)
            assert (plain.shape, outs.shape) == ((250,), (0, 250)), cpus
            assert plain.tobytes() == scorer.forward(xs).tobytes(), cpus
            assert gen.bit_generator.state == state, cpus
            want_gen = np.random.default_rng(0)
            _, got = collect_outputs(scorer, xs, 1, gen)
            assert got.tobytes() == replay_passes(scorer, xs, 1, want_gen).tobytes(), cpus
            assert gen.bit_generator.state == want_gen.bit_generator.state, cpus

    def test_query_draws_once_a_member(self, monkeypatch):
        # a one-row query is one tile of one block, drawn straight from the
        # generator: its 30 passes are one run of 30 * 24 words (a pass
        # takes 16 words for width 64, then 8 for width 32), one word draw
        real = mlp._draw_lanes
        draws = []

        def counted(gen, size):
            draws.append((gen, size))
            return real(gen, size)

        monkeypatch.setattr(mlp, "_draw_lanes", counted)
        cfg = NetworkConfig(input_dim=2, hidden_dims=(64, 32), seed=3, dropout_rate=0.1)
        scorer = init_scorer(cfg, 1.0, "squared")
        x = np.array([[0.4, -1.2]])
        gen = np.random.default_rng(5)
        _, got = collect_outputs(scorer, x, 30, gen)
        assert draws == [(gen, 30 * 24)]
        want_gen = np.random.default_rng(5)
        assert got.tobytes() == replay_passes(scorer, x, 30, want_gen).tobytes()
        assert gen.bit_generator.state == want_gen.bit_generator.state

    def test_pass_holds_one_array_a_layer(self):
        # without a record, a masked pass applies bias, activation and mask
        # in place: at n = 10 000 and hidden (64, 32) it holds one (n, 64)
        # and one (n, 32) float array besides two (n,) outputs, not z,
        # act(z) and their product (10.2 MB), and gives the bits of a plain
        # pass that scales the lane masks' kept entries by 2**16 / k
        n = 10_000
        acts = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh}
        for activation in ("relu", "tanh"):
            cfg = NetworkConfig(input_dim=4, hidden_dims=(64, 32), seed=2,
                                activation=activation, dropout_rate=0.1)
            scorer = init_scorer(cfg, 1.0, "squared")
            xs = np.random.default_rng(1).normal(0, 1, (n, 4))
            rng = np.random.default_rng(0)
            masks = pass_masks(rng, 1, n, (64, 32), 0.9)
            first = scorer._act(xs @ scorer.weights[0] + scorer.biases[0])
            tracemalloc.start()
            try:
                z = scorer._hidden_pass(xs, masks=masks, scale=65536 / lane_keep(0.9),
                                        first=first)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < n * (64 + 32 + 2) * 8 + 16_384, (activation, peak)
            h = xs
            for w, b, mask in zip(scorer.weights, scorer.biases, masks):
                h = acts[activation](h @ w + b) * mask * (65536 / lane_keep(0.9))
            want = (h @ scorer.weights[-1] + scorer.biases[-1])[..., 0]
            assert z.shape == (1, n), activation
            assert z.tobytes() == want.tobytes(), activation

    def test_recorded_and_in_place_passes_share_one_mask_rule(self):
        # training's recorded pass and the MC passes' in-place one apply the
        # same boolean masks and scale the same way: multiply by the mask,
        # then by the scale.  They give the same z bytes, with layer 1 given
        # or not, and a given layer 1 is left as it was.  The record keeps
        # each layer's input and unmasked activation act(h @ W + b)
        acts = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh}
        xs = np.random.default_rng(1).normal(0, 1, (40, 3))
        masks = mlp._batch_masks(np.random.default_rng(0), 40, [6, 5, 4], 0.7)
        for activation in ("relu", "tanh"):
            cfg = NetworkConfig(input_dim=3, hidden_dims=(6, 5, 4), seed=2,
                                activation=activation, dropout_rate=0.3)
            scorer = init_scorer(cfg, 1.0, "squared")
            act = acts[activation]
            for scale in (1 / 0.7, 65536 / lane_keep(0.7)):
                h = xs
                for w, b, mask in zip(scorer.weights, scorer.biases, masks):
                    h = act(h @ w + b) * mask * scale
                want = (h @ scorer.weights[-1] + scorer.biases[-1])[..., 0]
                for given in (False, True):
                    case = (activation, scale, given)
                    first = act(xs @ scorer.weights[0] + scorer.biases[0]) if given else None
                    kept = None if first is None else first.copy()
                    record = []
                    recorded = scorer._hidden_pass(xs, masks=masks, scale=scale,
                                                   record=record, first=first)
                    in_place = scorer._hidden_pass(xs, masks=masks, scale=scale, first=first)
                    assert recorded.tobytes() == in_place.tobytes() == want.tobytes(), case
                    if given:
                        assert first.tobytes() == kept.tobytes(), case
                    assert len(record) == len(scorer.weights), case
                    assert record[0][0] is xs and record[-1][1] is None, case
                    for i, (h_in, a) in enumerate(record[:-1]):
                        unmasked = act(h_in @ scorer.weights[i] + scorer.biases[i])
                        assert a.tobytes() == unmasked.tobytes(), (case, i)
                        masked = record[i + 1][0]
                        assert masked.tobytes() == (a * masks[i] * scale).tobytes(), (case, i)

    def test_batch_variance_nonnegative_and_shaped(self):
        cfg = NetworkConfig(input_dim=2, hidden_dims=(8,), seed=2,
                            dropout_rate=0.2)
        scorer = init_scorer(cfg, 1.0, "squared")
        xs = np.random.default_rng(6).normal(0, 1, (9, 2))
        log_lr, var = mc_dropout_log_lr(scorer, xs, 20, np.random.default_rng(1))
        assert log_lr.shape == var.shape == (9,)
        assert np.all(var >= 0.0)


def replay_passes(scorer, x2, m, rng, edges=None):
    """Independent replay of mc_dropout_outputs' tile-major stream: for the
    row tiles between `edges` (default: one tile of all rows) in turn, the
    lane masks of all m passes over that tile's rows, drawn from rng pass
    after pass, each cut layer after layer (pass_masks); then each pass
    alone over all rows as 2-D products, kept entries scaled by 2**16 / k."""
    keep = 1.0 - scorer.dropout_rate
    scale = 65536 / lane_keep(keep)
    act = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh}[scorer.activation]
    widths = [w.shape[1] for w in scorer.weights[:-1]]
    edges = [0, len(x2)] if edges is None else edges
    tiles = [pass_masks(rng, m, r1 - r0, widths, keep) for r0, r1 in zip(edges, edges[1:])]
    masks = [np.concatenate(layer, axis=1) for layer in zip(*tiles)]
    out = []
    for k in range(m):
        h = x2
        for w, b, mask in zip(scorer.weights[:-1], scorer.biases[:-1], masks):
            h = act(h @ w + b) * (mask[k] * scale)
        out.append(np.tanh(h @ scorer.weights[-1] + scorer.biases[-1])[:, 0])
    return np.array(out)


class TestMcThreads:
    # the row tiles (2**15 // widest layer rows: 512 at width 64) run on
    # t = min(usable CPUs, tiles) threads, each a contiguous range of
    # tiles, or in this thread when t = 1 or the batch is one tile
    def scorer(self, hidden_dims, activation="relu"):
        cfg = NetworkConfig(input_dim=2, hidden_dims=hidden_dims, seed=9,
                            activation=activation, dropout_rate=0.3)
        return init_scorer(cfg, 2.0, "squared")

    def test_split_replay_oracle(self, monkeypatch, thread_pools):
        # every CPU count gives the tile-major replay's bits and leaves the
        # generator where the replay's is: one tile (n = 1 and 250 at
        # (64, 32); every n at (6, 5, 4)) and 2, 3, 4, 5 or 8 tiles of at
        # most 512 rows (n = 513, 1025, 2048, 2049 and 4000 at (64, 32)), on
        # t = min(CPUs, tiles) threads.  n = 513, 1025 and 2049 are where a
        # naive split leaves a 1-row tile.  The plain output is
        # scorer.forward's, bit for bit.
        m = 30
        rows = np.random.default_rng(7).normal(0, 1, (4000, 2))
        for hidden_dims in ((64, 32), (6, 5, 4)):
            for activation in ("relu", "tanh"):
                scorer = self.scorer(hidden_dims, activation)
                for n in (1, 250, 513, 1025, 2048, 2049, 4000):
                    edges = tile_edges(hidden_dims, n)
                    want_gen = np.random.default_rng(321)
                    want = replay_passes(scorer, rows[:n], m, want_gen, edges)
                    for cpus in (1, 2, 3):
                        monkeypatch.setattr(mlp, "usable_cpus", lambda: cpus)
                        thread_pools.clear()
                        gen = np.random.default_rng(321)
                        plain, got = collect_outputs(scorer, rows[:n], m, gen)
                        case = (hidden_dims, activation, n, cpus)
                        assert plain.tobytes() == scorer.forward(rows[:n]).tobytes(), case
                        assert got.tobytes() == want.tobytes(), case
                        assert gen.bit_generator.state == want_gen.bit_generator.state, case
                        t = min(cpus, len(edges) - 1)
                        assert thread_pools == ([t] if t > 1 else []), case

    def test_keeps_buffered_half_and_other_bit_generators(self, monkeypatch):
        # a one-tile call draws straight from the generator: one holding a
        # buffered 32-bit half keeps it, and Philox, MT19937, SFC64 and
        # PCG64DXSM give the replay's bits too
        scorer = self.scorer((64, 32))
        xs = np.random.default_rng(3).normal(0, 1, (250, 2))
        m = 30
        makers = [lambda: np.random.default_rng(11)]
        makers += [lambda bg=bg: np.random.Generator(bg(11)) for bg in
                   (np.random.Philox, np.random.MT19937, np.random.SFC64, np.random.PCG64DXSM)]
        for make in makers:
            for cpus in (1, 2, 3):
                monkeypatch.setattr(mlp, "usable_cpus", lambda: cpus)
                gen, want_gen = make(), make()
                for g in (gen, want_gen):
                    g.integers(0, 10, dtype=np.int32)
                state = gen.bit_generator.state
                assert state.get("has_uint32", 1) == 1
                want = replay_passes(scorer, xs, m, want_gen)
                _, got = collect_outputs(scorer, xs, m, gen)
                case = (state["bit_generator"], cpus)
                assert got.tobytes() == want.tobytes(), case
                # Philox and MT19937 states hold arrays
                np.testing.assert_equal(gen.bit_generator.state,
                                        want_gen.bit_generator.state, err_msg=str(case))

    def test_multi_tile_replay_over_bit_generators(self, monkeypatch, thread_pools):
        # on one thread every tile draws straight from the generator; on
        # more, each thread draws from one copy moved to its first tile's
        # word: PCG64 and PCG64DXSM by advance, Philox, MT19937 and SFC64 by
        # drawing and discarding.  Hidden (64, 7, 3) gives 74 lanes a row,
        # so at odd rows a pass ends inside a word, and n = 513, 1025, 2049
        # and 4000 make 2, 3, 5 and 8 tiles of at most 512 rows; (6, 5, 4)
        # runs every n as one tile.  On 1, 2 or 3 CPUs the passes are the
        # tile-major replay's bits, plain is scorer.forward's, and the
        # generator, holding a buffered 32-bit half, ends where the
        # replay's does, the half kept
        rows = np.random.default_rng(8).normal(0, 1, (4000, 2))
        m = 6
        makers = [lambda: np.random.default_rng(11)]
        makers += [lambda bg=bg: np.random.Generator(bg(11)) for bg in
                   (np.random.PCG64DXSM, np.random.Philox, np.random.MT19937, np.random.SFC64)]
        for hidden_dims in ((64, 7, 3), (6, 5, 4)):
            scorer = self.scorer(hidden_dims)
            for make in makers:
                for n in (1, 250, 513, 1025, 2049, 4000):
                    edges = tile_edges(hidden_dims, n)
                    want_gen = make()
                    want_gen.integers(0, 10, dtype=np.int32)
                    want = replay_passes(scorer, rows[:n], m, want_gen, edges)
                    for cpus in (1, 2, 3):
                        monkeypatch.setattr(mlp, "usable_cpus", lambda: cpus)
                        thread_pools.clear()
                        gen = make()
                        gen.integers(0, 10, dtype=np.int32)
                        assert gen.bit_generator.state.get("has_uint32", 1) == 1
                        plain, got = collect_outputs(scorer, rows[:n], m, gen)
                        case = (hidden_dims, type(gen.bit_generator).__name__, n, cpus)
                        t = min(cpus, len(edges) - 1)
                        assert thread_pools == ([t] if t > 1 else []), case
                        assert plain.tobytes() == scorer.forward(rows[:n]).tobytes(), case
                        assert got.tobytes() == want.tobytes(), case
                        np.testing.assert_equal(gen.bit_generator.state,
                                                want_gen.bit_generator.state, err_msg=str(case))

    def test_blocks_do_not_depend_on_threads(self, monkeypatch):
        # a tile of `rows` rows runs blocks of b = max(1, 2**15 // (rows *
        # widest)) passes whatever the CPU count, so a block holds at most
        # 2**15 floats a layer, or one pass of a tile: at n = 250 and width
        # 64 one tile in blocks of 2; at n = 1025 tiles of 512, 448 and 65
        # rows in blocks of 1, 1 and 7.  Each tile's plain output is one
        # more pass, without masks (recorded as b = 0)
        scorer = self.scorer((64, 32))
        real = scorer._hidden_pass
        blocks = []

        def recorded(x, masks=None, **kwargs):
            blocks.append((0 if masks is None else masks[0].shape[0], x.shape[0]))
            return real(x, masks=masks, **kwargs)

        monkeypatch.setattr(scorer, "_hidden_pass", recorded)
        cases = [(250, [(0, 250)] + [(2, 250)] * 15),
                 (1025, [(0, 512), (0, 448), (0, 65)] + [(1, 512)] * 30 + [(1, 448)] * 30
                  + [(7, 65)] * 4 + [(2, 65)])]
        for n, sizes in cases:
            xs = np.random.default_rng(3).normal(0, 1, (n, 2))
            for cpus in (1, 2, 3):
                monkeypatch.setattr(mlp, "usable_cpus", lambda: cpus)
                blocks.clear()
                collect_outputs(scorer, xs, 30, np.random.default_rng(0))
                assert sorted(blocks) == sorted(sizes), (n, cpus)

    def test_tiles_hold_one_block_a_layer(self, monkeypatch):
        # whatever n is, every masked product of a block is a tile of rows
        # with b * rows * widest <= 2**15: each thread's tile holds at most
        # one block of floats a layer.  The tiles are the same on every CPU
        # count, start at multiples of 64 rows, none is 1 row (but a 1-row
        # batch), and they cover the n rows once a pass.  The order is
        # tile-major: a thread runs one tile's m passes and then its plain
        # pass (recorded with b = 0) before its next tile, and its tiles
        # are a contiguous range
        scorer = self.scorer((64, 32))
        real = scorer._hidden_pass
        calls = []

        def recorded(x, masks=None, **kwargs):
            start = (x.ctypes.data - xs.ctypes.data) // xs.strides[0]
            calls.append((threading.get_ident(), 0 if masks is None else masks[0].shape[0],
                          start, x.shape[0]))
            return real(x, masks=masks, **kwargs)

        monkeypatch.setattr(scorer, "_hidden_pass", recorded)
        m = 6
        tilings = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(mlp, "usable_cpus", lambda: cpus)
            for n in (1, 250, 1025, 2049, 4000, 10_000, 20_000):
                xs = np.random.default_rng(3).normal(0, 1, (n, 2))
                calls.clear()
                collect_outputs(scorer, xs, m, np.random.default_rng(0))
                masked = [c for c in calls if c[1] > 0]
                tiles = sorted({(start, rows) for _, _, start, rows in calls})
                case = (cpus, n)
                assert max(b * rows * 64 for _, b, _, rows in masked) <= mlp._TILE_FLOATS, case
                assert sorted((start, rows) for _, b, start, rows in calls if b == 0) == tiles, case
                assert sum(b * rows for _, b, _, rows in masked) == m * n, case
                assert [start for start, _ in tiles] == \
                    [0] + list(np.cumsum([rows for _, rows in tiles])[:-1]), case
                assert all(start % 64 == 0 for start, _ in tiles), case
                assert all(rows > 1 for _, rows in tiles) or n == 1, case
                assert tilings.setdefault(n, tiles) == tiles, case
                for thread in {c[0] for c in calls}:
                    mine = [(b, (start, rows)) for t, b, start, rows in calls if t == thread]
                    runs = [list(run) for _, run in itertools.groupby(mine, lambda c: c[1])]
                    ran = [run[0][1] for run in runs]
                    assert ran == tiles[tiles.index(ran[0]):tiles.index(ran[0]) + len(ran)], case
                    assert all(run[-1][0] == 0 and sum(b for b, _ in run) == m
                               for run in runs), case
        assert [len(tilings[n]) for n in (1, 250, 1025, 2049, 4000, 10_000, 20_000)] == \
            [1, 1, 3, 5, 8, 20, 40]
        # no 1-row last tile
        assert tilings[2049] == [(0, 512), (512, 512), (1024, 512), (1536, 448), (1984, 65)]

    def test_one_generator_copy_a_thread(self, monkeypatch):
        # on one thread (a one-tile call, n = 250, on any CPU count; or
        # n = 1025, 3 tiles, on one CPU) every block is drawn straight from
        # the generator and no Generator is made: 15 blocks of 2 passes, or
        # 30 + 30 + 5 blocks for tiles of 512, 448 and 65 rows.  At n = 1025
        # two CPUs make two private copies, one a thread, whatever the
        # tile, pass and layer count, and every draw comes from them
        scorer = self.scorer((64, 32))
        made, draws = [], []

        class Counted(np.random.Generator):
            def __init__(self, bit_gen):
                made.append(self)
                super().__init__(bit_gen)

        real_draw = mlp._draw_lanes

        def recorded_draw(gen, size):
            draws.append(gen)
            return real_draw(gen, size)

        monkeypatch.setattr(np.random, "Generator", Counted)
        monkeypatch.setattr(mlp, "_draw_lanes", recorded_draw)
        for n, cpus, copies, blocks in ((250, 1, 0, 15), (250, 2, 0, 15), (1025, 1, 0, 65),
                                        (1025, 2, 2, 65)):
            monkeypatch.setattr(mlp, "usable_cpus", lambda: cpus)
            xs = np.random.default_rng(3).normal(0, 1, (n, 2))
            gen = np.random.default_rng(0)
            made.clear()
            draws.clear()
            collect_outputs(scorer, xs, 30, gen)
            case = (n, cpus)
            assert len(made) == copies, case
            assert len(draws) == blocks, case  # each block's words fit one draw call
            if copies == 0:
                assert all(d is gen for d in draws), case
            else:
                assert {id(d) for d in draws} == {id(g) for g in made}, case

    def test_draws_and_skips_a_member_call(self, monkeypatch):
        # a drift_long-sized member call (n = 10 000, hidden (64, 32),
        # m = 30: 19 tiles of 512 rows and one of 272, one pass a block)
        # makes 600 mask draws, one a block, and no skip on one CPU; on 2
        # or 3 CPUs at most one skip a thread, to its first tile's word.
        # On PCG64 a skip is one advance and draws nothing; on Philox it
        # draws and discards at most one call's words a thread
        scorer = self.scorer((64, 32))
        xs = np.random.default_rng(3).normal(0, 1, (10_000, 2))
        call_words = 30 * (19 * 512 + 272) * 96 // 4
        real_draw, real_skip = mlp._draw_lanes, mlp._skip
        draws, skips = [], []

        def recorded_draw(gen, size):
            draws.append(size)
            return real_draw(gen, size)

        def recorded_skip(gen, words):
            skips.append(words)
            return real_skip(gen, words)

        monkeypatch.setattr(mlp, "_draw_lanes", recorded_draw)
        monkeypatch.setattr(mlp, "_skip", recorded_skip)
        for bit_gen in (np.random.PCG64, np.random.Philox):
            for cpus in (1, 2, 3):
                monkeypatch.setattr(mlp, "usable_cpus", lambda: cpus)
                draws.clear()
                skips.clear()
                collect_outputs(scorer, xs, 30, np.random.Generator(bit_gen(0)))
                case = (bit_gen.__name__, cpus, len(draws), skips)
                assert len(skips) <= cpus - 1, case
                assert all(0 < words <= call_words for words in skips), case
                discards = skips if bit_gen is np.random.Philox else []  # PCG64 advances
                assert sum(draws) == call_words + sum(discards), case
                assert len(draws) == 600 + sum(-(-words // 2 ** 14) for words in discards), case

    def test_thread_error_propagates_and_leaves_generator(self, monkeypatch, thread_pools):
        scorer = self.scorer((64, 32))
        monkeypatch.setattr(mlp, "usable_cpus", lambda: 2)

        def broken(*args, **kwargs):
            raise RuntimeError("pass failed")

        monkeypatch.setattr(scorer, "_hidden_pass", broken)
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        with pytest.raises(RuntimeError, match="pass failed"):
            collect_outputs(scorer, np.ones((2048, 2)), 30, gen)
        assert thread_pools == [2]
        assert gen.bit_generator.state == state


class TestDrawMasks:
    # _draw_masks draws the masks of b passes from one generator, pass after
    # pass: each pass takes ceil(n * sum(widths) / 4) fresh 64-bit words,
    # whose 16-bit lanes are cut layer after layer, in draw calls of at most
    # 2**14 words over the block's one run of words.  A training batch's
    # masks could be one pass of this stream,
    # _draw_masks(rng, hidden, 1, len(idx), keep); training keeps its float
    # draws (_batch_masks) on purpose, since switching moves every trained
    # weight and where early stopping falls
    BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                      np.random.MT19937, np.random.SFC64)

    def test_lane_keep(self):
        # round(keep * 2**16), clamped to [1, 2**16]
        assert mlp._lane_keep(0.9) == 58982
        assert mlp._lane_keep(1.0 - 1e-6) == 65536
        assert mlp._lane_keep(5e-6) == 1
        assert mlp._lane_keep(0.5) == 32768

    def test_slab_boundaries_keep_the_stream(self):
        # widths (h, 7): a pass of ceil(n * (h + 7) / 4) words just below,
        # at and just above one call's 2**14 words, over two calls with a
        # padded last word, several passes a call, and calls that end
        # inside a pass; layer 2 starts mid-word where n * h is not a
        # multiple of 4.  The masks are the replayed lanes, bit for bit, and
        # the generator ends where the replay leaves it
        keep = 0.7
        shapes = [(3, 4, 16376), (1, 1, 65529), (2, 1, 65530), (2, 1, 131077),
                  (4, 256, 64), (5, 3, 7), (9, 4, 1000)]
        for bit_gen in self.BIT_GENERATORS:
            for b, n, h in shapes:
                gen, want_gen = np.random.Generator(bit_gen(17)), np.random.Generator(bit_gen(17))
                got = mlp._draw_masks(gen, [h, 7], b, n, keep)
                want = pass_masks(want_gen, b, n, (h, 7), keep)
                case = (bit_gen.__name__, b, n * (h + 7))
                assert [g.shape for g in got] == [(b, n, h), (b, n, 7)], case
                assert all(np.array_equal(g, w) for g, w in zip(got, want)), case
                np.testing.assert_equal(gen.bit_generator.state,
                                        want_gen.bit_generator.state, err_msg=str(case))

    def test_pass_pads_to_a_whole_word(self):
        # widths (2, 2, 1) at n = 1 are 5 lanes a pass: each pass takes 2
        # words, layer 2 its first word's lanes 2 and 3, layer 3 its second
        # word's lane 0, and drops that word's last 3 lanes; so 3 passes
        # take 6 words, not ceil(15 / 4) nor the 9 of a word a layer
        gen, twin = np.random.default_rng(4), np.random.default_rng(4)
        got = mlp._draw_masks(gen, [2, 2, 1], 3, 1, 0.5)
        words = twin.integers(0, 2 ** 64 - 1, size=(3, 2), dtype=np.uint64, endpoint=True)
        assert gen.bit_generator.state == twin.bit_generator.state
        for k in range(3):
            lanes = [int(words[k, j // 4]) >> (16 * (j % 4)) & 0xFFFF for j in range(5)]
            kept = [lane < 32768 for lane in lanes]
            assert [g[k, 0].tolist() for g in got] == [kept[:2], kept[2:4], kept[4:]], k

    def test_keep_rate_uses_all_64_bits(self):
        # over 2**20 lanes the kept share of each lane position is within
        # 5 binomial sigmas of k / 2**16; words with 32 random bits (as
        # MT19937's random_raw gives) would keep every lane 2 and 3
        keep = 0.9
        p = mlp._lane_keep(keep) / 65536
        for bit_gen in self.BIT_GENERATORS:
            mask = mlp._draw_masks(np.random.Generator(bit_gen(5)), [1024], 1, 1024, keep)[0]
            per_lane = mask.reshape(-1, 4).sum(axis=0)
            n = mask.size // 4
            sigma = np.sqrt(n * p * (1.0 - p))
            assert np.all(np.abs(per_lane - n * p) < 5 * sigma), (bit_gen.__name__, per_lane)
            assert abs(mask.sum() - mask.size * p) < 5 * 2 * sigma, bit_gen.__name__

    def test_word_scratch_does_not_grow_with_n(self):
        # one drift_long-sized pass (n = 10 000, widths 64 and 32) holds its
        # boolean masks and one draw of at most 2**14 words (128 KiB), not
        # the pass's 240 000 words (1.9 MB)
        n, widths = 10_000, [64, 32]
        gen = np.random.default_rng(0)
        tracemalloc.start()
        try:
            masks = mlp._draw_masks(gen, widths, 1, n, 0.9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [mask.shape for mask in masks] == [(1, n, 64), (1, n, 32)]
        assert peak < n * sum(widths) + 2 ** 14 * 8 + 16_384, peak


class TestSerialization:
    def test_round_trip_identical_outputs(self):
        cfg = NetworkConfig(input_dim=3, hidden_dims=(6, 5), seed=21,
                            dropout_rate=0.1)
        scorer = init_scorer(cfg, 4.0, "xent_sigmoid")
        scorer.temperature = 1.7
        clone = load_scorer_bytes(save_scorer_bytes(scorer))
        assert clone.training_qp == scorer.training_qp
        assert clone.loss_tag == scorer.loss_tag
        assert clone.temperature == scorer.temperature
        xs = np.random.default_rng(9).normal(0, 1, (20, 3))
        np.testing.assert_array_equal(clone.forward(xs), scorer.forward(xs))

    def test_magic_guard(self):
        with pytest.raises(ValueError):
            load_scorer_bytes(b"not-a-container\n{}\n")


class TestConfigs:
    def test_network_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig(input_dim=1, hidden_dims=())
        with pytest.raises(ValueError):
            NetworkConfig(input_dim=1, hidden_dims=(4,), dropout_rate=1.0)
        for widths in ((0,), (4, -3)):
            with pytest.raises(ValueError):
                NetworkConfig(input_dim=1, hidden_dims=widths)

    def test_training_config_validation(self):
        for lr in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                TrainingConfig(learning_rate=lr)

    def test_defaults(self):
        cfg = NetworkConfig(input_dim=2)
        assert cfg.hidden_dims == (128, 64, 32)
        tc = TrainingConfig()
        assert tc.learning_rate == 1e-3
        assert tc.max_epochs == 100
        assert tc.early_stop_patience == 10
