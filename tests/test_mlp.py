import tracemalloc

import numpy as np
import pytest

from obil import mlp
from obil.bayes import clamp_output, log_lr_from_output
from obil.data import DegenerateData, LabeledDataset, stratified_split
from obil.losses import get_loss
from obil.mlp import (CalibratedScorer, NetworkConfig, ShapeError,
                      TrainingConfig, gradient_check, init_scorer,
                      load_scorer_bytes, loss_and_gradients,
                      mc_dropout_log_lr, mc_dropout_log_lr_variance,
                      mc_dropout_outputs,
                      save_scorer_bytes, train)


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
        # without dropout every MC pass is the deterministic forward, bit for
        # bit, and no random number is drawn
        cfg = NetworkConfig(input_dim=2, hidden_dims=(8, 4), seed=3)
        scorer = init_scorer(cfg, 1.0, "squared")
        xs = np.array([[0.4, -1.2], [2.0, 0.1], [-0.3, 0.7]])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for x in (xs, xs[0]):
            plain, outs = mc_dropout_outputs(scorer, x, 4, rng)
            want = np.atleast_1d(scorer.forward(x))
            assert plain.tobytes() == want.tobytes()
            assert outs.tobytes() == np.broadcast_to(want, (4, want.size)).tobytes()
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
        # train() scores its validation split without backprop
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (9, 3))
        y = np.array([0, 1, 0, 1, 1, 0, 0, 1, 0])
        for loss_name in ("squared", "squared_costweighted",
                          "logistic_arctanh", "xent_sigmoid"):
            scorer = init_scorer(NetworkConfig(input_dim=3, hidden_dims=(5, 4), seed=2),
                                 1.0, loss_name)
            alone, none = loss_and_gradients(scorer, x, y, get_loss(loss_name), 2.0,
                                             gradients=False)
            assert none is None
            assert alone == loss_and_gradients(scorer, x, y, get_loss(loss_name), 2.0)[0]

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
        # independent forward implementation: per hidden layer, one float
        # mask block over all (pass, row, unit) entries, layer after layer,
        # then each pass alone.  The variances must match bit for bit, for
        # one vector and for a batch, and the generators must end together.
        # The log-LR beside the batch variance is scorer.log_lr's, bit for bit.
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
            masks = [(rng.random((m, len(x2), w.shape[1])) < keep) / keep
                     for w in scorer.weights[:-1]]
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
        _, outs = mc_dropout_outputs(scorer, xs, 3, np.random.default_rng(0))
        assert outs.shape == (3, 7)
        np.testing.assert_allclose(outs[0], scorer.forward(xs), rtol=1e-15)

    def test_batch_replay_oracle(self):
        # replay the batch passes with a twin generator: per layer, one float
        # mask block over all (pass, row, unit) entries, then each pass
        # separately; the blocked passes (boolean masks drawn up front,
        # layer 1 once, b = max(1, 2**17 // (n * widest layer)) passes at a
        # time) must give the same bits and leave the generator where the
        # twin is.  With hidden (64, 32) and m = 30, n = 250 runs blocks of
        # 8/8/8/6 and n = 1 one block of 30.  The plain output is
        # scorer.forward's, bit for bit.
        acts = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh}
        rows = np.random.default_rng(7).normal(0, 1, (250, 2))
        cases = [((6, 4), "relu", rows[:5], 8), ((6, 4), "tanh", rows[:5], 8),
                 ((6, 5, 4), "relu", rows[:5], 8), ((6, 5, 4), "tanh", rows[:5], 8),
                 ((6, 4), "tanh", rows[1], 8),
                 ((64, 32), "relu", rows, 30), ((64, 32), "tanh", rows, 30),
                 ((64, 32), "relu", rows[:1], 30), ((64, 32), "tanh", rows[:1], 30)]
        for hidden_dims, activation, xs, m in cases:
            x2 = np.atleast_2d(xs)
            cfg = NetworkConfig(input_dim=2, hidden_dims=hidden_dims, seed=9,
                                activation=activation, dropout_rate=0.3)
            scorer = init_scorer(cfg, 2.0, "squared")
            gen = np.random.default_rng(321)
            plain, got = mc_dropout_outputs(scorer, xs, m, gen)

            rng = np.random.default_rng(321)
            keep = 1.0 - scorer.dropout_rate
            act = acts[activation]
            hs = [x2] * m
            for w, b in zip(scorer.weights[:-1], scorer.biases[:-1]):
                masks = (rng.random((m, len(x2), w.shape[1])) < keep) / keep
                hs = [act(h @ w + b) * masks[k] for k, h in enumerate(hs)]
            want = np.array([np.tanh(h @ scorer.weights[-1] + scorer.biases[-1])[:, 0]
                             for h in hs])
            case = (hidden_dims, activation, x2.shape, m)
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
                mc_dropout_outputs(scorer, xs, 5, gen)
        assert gen.bit_generator.state == state

    def test_batch_memory_below_one_float_block(self, monkeypatch):
        # one call holds one block of passes and its boolean masks, on one
        # thread or spread over two: at most 2**17 floats a layer or one
        # pass a thread when that is larger (one pass at n = 4000; 8 passes
        # at n = 250 on one thread, 4 on each of two), never a float
        # (m, n, h1) block over all passes: 30 * n * 64 * 8 bytes, 58.6 MiB
        # at n = 4000
        cfg = NetworkConfig(input_dim=3, hidden_dims=(64, 32), seed=4, dropout_rate=0.1)
        scorer = init_scorer(cfg, 1.0, "squared")
        m = 30
        for cpus in (1, 2):
            monkeypatch.setattr(mlp, "usable_cpus", lambda: cpus)
            for n in (4000, 250):
                xs = np.random.default_rng(2).normal(0, 1, (n, 3))
                tracemalloc.start()
                try:
                    _, outs = mc_dropout_outputs(scorer, xs, m, np.random.default_rng(0))
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert outs.shape == (m, n)
                assert peak < m * n * 64 * 8, (cpus, n, peak)

    def test_empty_batch_draws_nothing(self):
        # a (0, d) batch gives (0,) plain and (m, 0) outputs and (0,)
        # log-LRs and variances with dropout on or off, and leaves the
        # generator where it was
        for dropout in (0.0, 0.2):
            cfg = NetworkConfig(input_dim=2, hidden_dims=(6, 4), dropout_rate=dropout)
            scorer = init_scorer(cfg, 1.0, "squared")
            gen = np.random.default_rng(0)
            state = gen.bit_generator.state
            plain, outs = mc_dropout_outputs(scorer, np.ones((0, 2)), 5, gen)
            assert (plain.shape, outs.shape) == ((0,), (5, 0)), dropout
            log_lr, var = mc_dropout_log_lr(scorer, np.ones((0, 2)), 5, gen)
            assert (log_lr.shape, var.shape) == ((0,), (0,)), dropout
            assert gen.bit_generator.state == state, dropout

    def test_query_draws_once_a_layer(self):
        # a one-row query runs its m passes as one block, and each hidden
        # layer's masks for all of them take one draw call
        class CountingGenerator:
            def __init__(self, gen):
                self.gen, self.calls = gen, 0

            def random(self, *args, **kwargs):
                self.calls += 1
                return self.gen.random(*args, **kwargs)

        cfg = NetworkConfig(input_dim=2, hidden_dims=(64, 32), seed=3, dropout_rate=0.1)
        scorer = init_scorer(cfg, 1.0, "squared")
        x = np.array([[0.4, -1.2]])
        gen = CountingGenerator(np.random.default_rng(5))
        _, got = mc_dropout_outputs(scorer, x, 30, gen)
        assert gen.calls == 2
        want_gen = np.random.default_rng(5)
        assert got.tobytes() == replay_passes(scorer, x, 30, want_gen).tobytes()
        assert gen.gen.bit_generator.state == want_gen.bit_generator.state

    def test_pass_holds_one_array_a_layer(self):
        # without a record, a masked pass applies bias, activation and mask
        # in place: at n = 10 000 and hidden (64, 32) it holds one (n, 64)
        # and one (n, 32) float array besides two (n,) outputs, not z,
        # act(z) and their product (10.2 MB), and gives the bits of the
        # recorded path
        n = 10_000
        for activation in ("relu", "tanh"):
            cfg = NetworkConfig(input_dim=4, hidden_dims=(64, 32), seed=2,
                                activation=activation, dropout_rate=0.1)
            scorer = init_scorer(cfg, 1.0, "squared")
            xs = np.random.default_rng(1).normal(0, 1, (n, 4))
            masks = mlp._draw_masks([np.random.default_rng(0)] * 2, [64, 32], 1, n, 0.9)
            first = scorer._act(xs @ scorer.weights[0] + scorer.biases[0])
            tracemalloc.start()
            try:
                z = scorer._hidden_pass(xs, masks=masks, first=first)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < n * (64 + 32 + 2) * 8 + 16_384, (activation, peak)
            want = scorer._hidden_pass(xs, masks=masks, record=[])
            assert z.tobytes() == want.tobytes(), activation

    def test_batch_variance_nonnegative_and_shaped(self):
        cfg = NetworkConfig(input_dim=2, hidden_dims=(8,), seed=2,
                            dropout_rate=0.2)
        scorer = init_scorer(cfg, 1.0, "squared")
        xs = np.random.default_rng(6).normal(0, 1, (9, 2))
        log_lr, var = mc_dropout_log_lr(scorer, xs, 20, np.random.default_rng(1))
        assert log_lr.shape == var.shape == (9,)
        assert np.all(var >= 0.0)


def replay_passes(scorer, x2, m, rng):
    """Independent replay of mc_dropout_outputs: per layer, the boolean masks
    of all m passes drawn pass after pass from rng, layer after layer; then
    each pass alone as 2-D products."""
    keep = 1.0 - scorer.dropout_rate
    act = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh}[scorer.activation]
    masks = [np.array([rng.random((len(x2), w.shape[1])) < keep for _ in range(m)])
             for w in scorer.weights[:-1]]
    out = []
    for k in range(m):
        h = x2
        for w, b, mask in zip(scorer.weights[:-1], scorer.biases[:-1], masks):
            h = act(h @ w + b) * (mask[k] / keep)
        out.append(np.tanh(h @ scorer.weights[-1] + scorer.biases[-1])[:, 0])
    return np.array(out)


class TestMcThreads:
    # with b1 = max(1, 2**17 // (n * widest layer)) passes a block on one
    # thread, the m passes run on t = min(usable CPUs, ceil(m / b1)) threads,
    # or in this thread when t = 1 or b1 >= m
    def scorer(self, hidden_dims, activation="relu"):
        cfg = NetworkConfig(input_dim=2, hidden_dims=hidden_dims, seed=9,
                            activation=activation, dropout_rate=0.3)
        return init_scorer(cfg, 2.0, "squared")

    def test_split_replay_oracle(self, monkeypatch, thread_pools):
        # every CPU count gives the oracle's bits and leaves the generator
        # where the oracle's is: one block (n = 1; n = 250 at (6, 5, 4)),
        # up to 4 blocks (n = 250 at (64, 32): 2 threads of 4, 4, 4, 3
        # passes, or 3 of 3, 3, 3, 1) and one pass a block (n >= 2048).
        # The plain output is scorer.forward's, bit for bit.
        m = 30
        rows = np.random.default_rng(7).normal(0, 1, (4000, 2))
        for hidden_dims in ((64, 32), (6, 5, 4)):
            for activation in ("relu", "tanh"):
                scorer = self.scorer(hidden_dims, activation)
                for n in (1, 250, 2048, 4000):
                    want_gen = np.random.default_rng(321)
                    want = replay_passes(scorer, rows[:n], m, want_gen)
                    b1 = max(1, 2 ** 17 // (n * max(hidden_dims)))
                    for cpus in (1, 2, 3):
                        monkeypatch.setattr(mlp, "usable_cpus", lambda: cpus)
                        thread_pools.clear()
                        gen = np.random.default_rng(321)
                        plain, got = mc_dropout_outputs(scorer, rows[:n], m, gen)
                        case = (hidden_dims, activation, n, cpus)
                        assert plain.tobytes() == scorer.forward(rows[:n]).tobytes(), case
                        assert got.tobytes() == want.tobytes(), case
                        assert gen.bit_generator.state == want_gen.bit_generator.state, case
                        t = min(cpus, -(-m // b1))
                        assert thread_pools == ([t] if t > 1 else []), case

    def test_keeps_buffered_half_and_other_bit_generators(self, monkeypatch):
        # a generator holding a buffered 32-bit half keeps it; Philox,
        # MT19937 and SFC64 cursors skip by drawing, PCG64DXSM by advance
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
                _, got = mc_dropout_outputs(scorer, xs, m, gen)
                case = (state["bit_generator"], cpus)
                assert got.tobytes() == want.tobytes(), case
                # Philox and MT19937 states hold arrays
                np.testing.assert_equal(gen.bit_generator.state,
                                        want_gen.bit_generator.state, err_msg=str(case))

    def test_threads_share_one_block(self, monkeypatch):
        # t threads run blocks of max(1, 2**17 // (t * n * widest)) passes,
        # so together they hold at most one block: at n = 250 and width 64,
        # 8 passes on one thread, 4 on each of two, 2 on each of three; the
        # plain output is one more pass, without masks (recorded as 0)
        scorer = self.scorer((64, 32))
        real = scorer._hidden_pass
        blocks = []

        def recorded(x, masks=None, **kwargs):
            blocks.append(0 if masks is None else masks[0].shape[0])
            return real(x, masks=masks, **kwargs)

        monkeypatch.setattr(scorer, "_hidden_pass", recorded)
        xs = np.random.default_rng(3).normal(0, 1, (250, 2))
        for cpus, sizes in ((1, [0, 8, 8, 8, 6]), (2, [0] + [4, 4, 4, 3] * 2),
                            (3, [0] + [2, 2, 2, 2, 2] * 3)):
            monkeypatch.setattr(mlp, "usable_cpus", lambda: cpus)
            blocks.clear()
            mc_dropout_outputs(scorer, xs, 30, np.random.default_rng(0))
            assert sorted(blocks) == sorted(sizes), cpus

    def test_thread_error_propagates_and_leaves_generator(self, monkeypatch, thread_pools):
        scorer = self.scorer((64, 32))
        monkeypatch.setattr(mlp, "usable_cpus", lambda: 2)

        def broken(*args, **kwargs):
            raise RuntimeError("pass failed")

        monkeypatch.setattr(scorer, "_hidden_pass", broken)
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        with pytest.raises(RuntimeError, match="pass failed"):
            mc_dropout_outputs(scorer, np.ones((2048, 2)), 30, gen)
        assert thread_pools == [2]
        assert gen.bit_generator.state == state


class TestDrawMasks:
    # _draw_masks fills each layer's boolean (b, n, h) mask in slabs of at
    # most 2**16 floats
    BIT_GENERATORS = (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                      np.random.MT19937, np.random.SFC64)

    def test_slab_boundaries_keep_the_stream(self):
        # b * n * h just below, at and just above one slab, and just above
        # two: the masks are those of one random((b, n, h)) call a layer,
        # bit for bit, and the generator ends where that call leaves it;
        # a narrower second layer reuses the first one's slab
        keep = 0.7
        shapes = [(3, 5, 4369), (4, 256, 64), (1, 65537, 1), (3, 1, 43691)]
        for bit_gen in self.BIT_GENERATORS:
            for b, n, h in shapes:
                gen, want_gen = np.random.Generator(bit_gen(17)), np.random.Generator(bit_gen(17))
                got = mlp._draw_masks([gen, gen], [h, 7], b, n, keep)
                want = [want_gen.random((b, n, w)) < keep for w in (h, 7)]
                case = (bit_gen.__name__, b * n * h)
                assert [g.shape for g in got] == [(b, n, h), (b, n, 7)], case
                assert all(np.array_equal(g, w) for g, w in zip(got, want)), case
                np.testing.assert_equal(gen.bit_generator.state,
                                        want_gen.bit_generator.state, err_msg=str(case))

    def test_float_scratch_does_not_grow_with_n(self):
        # one drift_long-sized layer-1 pass (n = 10 000, h = 64) holds its
        # boolean mask and one slab of 2**16 floats, not an (n, h) float
        # buffer of 5.1 MB
        n, h = 10_000, 64
        gen = np.random.default_rng(0)
        tracemalloc.start()
        try:
            masks = mlp._draw_masks([gen], [h], 1, n, 0.9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert masks[0].shape == (1, n, h)
        assert peak < n * h + 2 ** 16 * 8 + 16_384, peak


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
