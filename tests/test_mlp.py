import numpy as np
import pytest

from obil.bayes import clamp_output, log_lr_from_output
from obil.data import DegenerateData, LabeledDataset
from obil.losses import get_loss
from obil.mlp import (CalibratedScorer, NetworkConfig, ShapeError,
                      TrainingConfig, gradient_check, init_scorer,
                      load_scorer_bytes, loss_and_gradients,
                      mc_dropout_log_lr_variance,
                      mc_dropout_log_lr_variance_batch, mc_dropout_outputs,
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
        cfg = NetworkConfig(input_dim=2, hidden_dims=(8, 4), seed=3)
        scorer = init_scorer(cfg, 1.0, "squared")
        x = np.array([0.4, -1.2])
        rng = np.random.default_rng(0)
        assert scorer.forward(x, dropout_active=True, rng=rng) == \
            scorer.forward(x, dropout_active=False)

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
        scorer = single_layer_scorer(1.0, dropout=0.2)
        with pytest.raises(ValueError):
            mc_dropout_log_lr_variance(scorer, np.array([0.5]), 1,
                                       np.random.default_rng(0))

    def test_replay_oracle(self):
        # recompute the same stochastic passes with a twin generator and an
        # independent forward implementation, then compare variances
        cfg = NetworkConfig(input_dim=2, hidden_dims=(6, 4), seed=8,
                            dropout_rate=0.3)
        scorer = init_scorer(cfg, 2.0, "squared")
        x = np.array([0.3, -0.8])
        m = 50
        got = mc_dropout_log_lr_variance(scorer, x, m, np.random.default_rng(123))

        rng = np.random.default_rng(123)
        keep = 1.0 - scorer.dropout_rate
        samples = []
        for _ in range(m):
            h = x[None, :]
            for w, b in zip(scorer.weights[:-1], scorer.biases[:-1]):
                a = np.maximum(h @ w + b, 0.0)
                mask = (rng.random(a.shape) < keep) / keep
                h = a * mask
            z = float((h @ scorer.weights[-1] + scorer.biases[-1])[0, 0])
            o = float(clamp_output(np.tanh(z)))
            samples.append(log_lr_from_output(o, scorer.training_qp))
        samples = np.array(samples)
        want = float(np.mean((samples - samples.mean()) ** 2))
        assert abs(got - want) < 1e-10

    def test_batch_outputs_shape_and_determinism_without_dropout(self):
        cfg = NetworkConfig(input_dim=2, hidden_dims=(4,), seed=1)
        scorer = init_scorer(cfg, 1.0, "squared")
        xs = np.random.default_rng(5).normal(0, 1, (7, 2))
        outs = mc_dropout_outputs(scorer, xs, 3, np.random.default_rng(0))
        assert outs.shape == (3, 7)
        np.testing.assert_allclose(outs[0], scorer.forward(xs), rtol=1e-15)

    def test_batch_replay_oracle(self):
        # replay the batch passes with a twin generator: per layer, one mask
        # block over all (pass, row, unit) entries, then each pass separately
        cfg = NetworkConfig(input_dim=2, hidden_dims=(6, 4), seed=9,
                            dropout_rate=0.3)
        scorer = init_scorer(cfg, 2.0, "squared")
        xs = np.random.default_rng(7).normal(0, 1, (5, 2))
        m = 8
        got = mc_dropout_outputs(scorer, xs, m, np.random.default_rng(321))

        rng = np.random.default_rng(321)
        keep = 1.0 - scorer.dropout_rate
        hs = [xs] * m
        for w, b in zip(scorer.weights[:-1], scorer.biases[:-1]):
            masks = (rng.random((m, len(xs), w.shape[1])) < keep) / keep
            hs = [np.maximum(h @ w + b, 0.0) * masks[k] for k, h in enumerate(hs)]
        want = np.array([np.tanh(h @ scorer.weights[-1] + scorer.biases[-1])[:, 0]
                         for h in hs])
        assert got.shape == (m, len(xs))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
        assert np.ptp(got, axis=0).min() > 0.0  # dropout really varied the passes

    def test_batch_variance_nonnegative_and_shaped(self):
        cfg = NetworkConfig(input_dim=2, hidden_dims=(8,), seed=2,
                            dropout_rate=0.2)
        scorer = init_scorer(cfg, 1.0, "squared")
        xs = np.random.default_rng(6).normal(0, 1, (9, 2))
        var = mc_dropout_log_lr_variance_batch(scorer, xs, 20,
                                               np.random.default_rng(1))
        assert var.shape == (9,)
        assert np.all(var >= 0.0)


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

    def test_defaults(self):
        cfg = NetworkConfig(input_dim=2)
        assert cfg.hidden_dims == (128, 64, 32)
        tc = TrainingConfig()
        assert tc.learning_rate == 1e-3
        assert tc.max_epochs == 100
        assert tc.early_stop_patience == 10
