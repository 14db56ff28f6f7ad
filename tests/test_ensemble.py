import numpy as np
import pytest

from obil import mlp
from obil.data import LabeledDataset
from obil.ensemble import (EnsembleConfig, LikelihoodRatioEnsemble,
                           derive_member_seed, load_ensemble_bytes,
                           save_ensemble_bytes, train_ensemble)
from obil.mlp import (CalibratedScorer, NetworkConfig, ShapeError,
                      TrainingConfig, init_scorer)


def constant_scorer(output, training_qp=1.0, dropout=0.0):
    # single linear layer with zero weight; the bias pins tanh(z) = output
    z = np.arctanh(output)
    return CalibratedScorer(weights=[np.zeros((1, 1))], biases=[np.array([z])],
                            activation="relu", dropout_rate=dropout,
                            training_qp=training_qp, loss_tag="squared")


def patch_variances(monkeypatch, variances):
    """member_log_lrs keeps the members' own log-LRs and returns `variances`."""
    real = LikelihoodRatioEnsemble.member_log_lrs
    monkeypatch.setattr(LikelihoodRatioEnsemble, "member_log_lrs",
                        lambda self, x, rng: (real(self, x, rng)[0], variances))


def imbalanced_dataset(n0=300, n1=60, seed=0):
    rng = np.random.default_rng(seed)
    x = np.concatenate([rng.normal(-1, 1, n0), rng.normal(1, 1, n1)])[:, None]
    y = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    return LabeledDataset(x, y)


class TestSeedDerivation:
    def test_deterministic_and_distinct(self):
        seeds = [derive_member_seed(1234, k) for k in range(8)]
        assert seeds == [derive_member_seed(1234, k) for k in range(8)]
        assert len(set(seeds)) == 8

    def test_64_bit_range(self):
        for k in range(4):
            s = derive_member_seed(2 ** 63, k)
            assert 0 <= s < 2 ** 64


class TestMemberLogLr:
    def test_zero_output_unit_ratio(self):
        ens = LikelihoodRatioEnsemble([constant_scorer(0.0)],
                                      EnsembleConfig(target_qps=(1.0,)))
        assert ens.member_log_lr(0, np.array([0.0])) == pytest.approx(0.0)

    def test_formula(self):
        ens = LikelihoodRatioEnsemble(
            [constant_scorer(0.5, 1.0), constant_scorer(0.5, 2.0)],
            EnsembleConfig(target_qps=(1.0, 2.0)))
        x = np.array([0.0])
        assert ens.member_log_lr(0, x) == pytest.approx(np.log(3.0))
        assert ens.member_log_lr(1, x) == pytest.approx(np.log(6.0))


class TestFusionWeights:
    def test_equal_variances_give_uniform_weights(self):
        members = [constant_scorer(0.1 * k) for k in range(4)]
        ens = LikelihoodRatioEnsemble(members, EnsembleConfig(
            target_qps=(1.0,) * 4))
        w = ens.fusion_weights(np.array([0.0]), np.random.default_rng(0))
        np.testing.assert_allclose(w, 0.25)

    def test_softmax_of_negative_variances(self, monkeypatch):
        patch_variances(monkeypatch, np.array([[0.0], [np.log(4.0)]]))
        ens = LikelihoodRatioEnsemble(
            [constant_scorer(0.0), constant_scorer(0.0)],
            EnsembleConfig(target_qps=(1.0, 1.0), fusion_temperature=1.0))
        w = ens.fusion_weights(np.array([0.0]), np.random.default_rng(0))
        np.testing.assert_allclose(w, [[0.8], [0.2]], rtol=1e-12)

    def test_huge_variance_weight_vanishes(self, monkeypatch):
        patch_variances(monkeypatch, np.array([[0.0], [1e6]]))
        ens = LikelihoodRatioEnsemble(
            [constant_scorer(0.0), constant_scorer(0.0)],
            EnsembleConfig(target_qps=(1.0, 1.0)))
        w = ens.fusion_weights(np.array([0.0]), np.random.default_rng(0))
        assert w[1] < 1e-300
        assert w[0] == pytest.approx(1.0)

    def test_simplex_on_fuzz(self):
        rng = np.random.default_rng(17)
        cfgs = [NetworkConfig(input_dim=2, hidden_dims=(6,), seed=s,
                              dropout_rate=0.3) for s in range(3)]
        members = [init_scorer(c, qp, "squared")
                   for c, qp in zip(cfgs, (1.0, 2.0, 5.0))]
        ens = LikelihoodRatioEnsemble(members, EnsembleConfig(
            target_qps=(1.0, 2.0, 5.0)))
        for _ in range(25):
            x = rng.normal(0, 2, 2)
            w = ens.fusion_weights(x, rng)
            assert np.all(w >= 0.0)
            assert abs(w.sum() - 1.0) <= 1e-12


class TestFusedLogLr:
    def test_geometric_mean_of_equal_weights(self):
        # ratios 2 and 8 with equal (zero) variances fuse to sqrt(16) = 4
        members = [constant_scorer(1.0 / 3.0), constant_scorer(7.0 / 9.0)]
        ens = LikelihoodRatioEnsemble(members, EnsembleConfig(
            target_qps=(1.0, 1.0)))
        fused = ens.fused_log_lr(np.array([0.0]), np.random.default_rng(0))
        assert fused == pytest.approx(np.log(4.0), rel=1e-9)

    def test_single_member_is_identity(self):
        ens = LikelihoodRatioEnsemble([constant_scorer(0.3)],
                                      EnsembleConfig(target_qps=(1.0,)))
        x = np.array([0.0])
        assert ens.fused_log_lr(x, np.random.default_rng(0)) == pytest.approx(
            float(ens.member_log_lr(0, x)))

    def test_masked_member(self, monkeypatch):
        # the variances are (K, n); one query is n = 1.  Fusion reads the
        # members' own log-LRs from member_log_lrs
        patch_variances(monkeypatch, np.array([[0.0], [1e6]]))
        members = [constant_scorer(2.0 / 3.0), constant_scorer(0.9)]  # ratios 5, 19
        ens = LikelihoodRatioEnsemble(members, EnsembleConfig(
            target_qps=(1.0, 1.0)))
        fused = ens.fused_log_lr(np.array([0.0]), np.random.default_rng(0))
        assert fused == pytest.approx(np.log(5.0), rel=1e-9)

    def test_bounded_by_member_range(self):
        rng = np.random.default_rng(23)
        members = [init_scorer(NetworkConfig(input_dim=1, hidden_dims=(8,),
                                             seed=s, dropout_rate=0.2),
                               qp, "squared")
                   for s, qp in ((0, 1.0), (1, 2.0), (2, 5.0))]
        ens = LikelihoodRatioEnsemble(members, EnsembleConfig(
            target_qps=(1.0, 2.0, 5.0)))
        for _ in range(25):
            x = rng.normal(0, 2, 1)
            logs = [float(ens.member_log_lr(k, x)) for k in range(3)]
            fused = ens.fused_log_lr(x, rng)
            assert min(logs) - 1e-12 <= fused <= max(logs) + 1e-12

    def test_query_is_batch_of_one(self):
        # one query draws exactly what a one-row batch draws, in the same
        # order: twin generators give the same bits and end in one state
        members = [init_scorer(NetworkConfig(input_dim=2, hidden_dims=(6, 4),
                                             dropout_rate=0.3, seed=s), qp, "squared")
                   for s, qp in ((0, 1.0), (1, 2.0), (2, 5.0))]
        ens = LikelihoodRatioEnsemble(members, EnsembleConfig(
            target_qps=(1.0, 2.0, 5.0), mc_samples=7))
        g1, g2 = np.random.default_rng(31), np.random.default_rng(31)
        for x in np.random.default_rng(8).normal(0, 1, (10, 2)):
            single = ens.fused_log_lr(x, g1)
            batch = ens.fused_log_lr_batch(x[None], g2)
            assert isinstance(single, float) and batch.shape == (1,)
            assert np.float64(single).tobytes() == batch[0].tobytes()
            assert g1.bit_generator.state == g2.bit_generator.state
        x = np.array([0.2, -0.4])
        assert ens.fused_log_lr(x[None], np.random.default_rng(3)) == \
            ens.fused_log_lr(x, np.random.default_rng(3))

    def test_query_takes_one_feature_vector(self):
        members = [init_scorer(NetworkConfig(input_dim=2, hidden_dims=(4,),
                                             dropout_rate=0.3, seed=s), 1.0, "squared")
                   for s in (0, 1)]
        ens = LikelihoodRatioEnsemble(members, EnsembleConfig(target_qps=(1.0, 1.0)))
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        for x in (np.ones((3, 2)), np.ones((0, 2)), np.ones((1, 1, 2)), np.array(0.5),
                  np.ones(3), np.ones((1, 3))):
            with pytest.raises(ShapeError):
                ens.fused_log_lr(x, gen)
        assert gen.bit_generator.state == state

    def test_empty_batch_draws_nothing(self):
        # a (0, d) batch gives a (0,) result with dropout on or off, and
        # leaves the generator where it was
        for dropout in (0.0, 0.3):
            members = [init_scorer(NetworkConfig(input_dim=2, hidden_dims=(6, 4),
                                                 dropout_rate=dropout, seed=s), 1.0, "squared")
                       for s in (0, 1)]
            ens = LikelihoodRatioEnsemble(members, EnsembleConfig(target_qps=(1.0, 1.0)))
            gen = np.random.default_rng(0)
            state = gen.bit_generator.state
            fused = ens.fused_log_lr_batch(np.ones((0, 2)), gen)
            assert fused.shape == (0,), dropout
            assert gen.bit_generator.state == state, dropout

    def test_one_layer1_product_per_member(self, monkeypatch, layer1_products,
                                           thread_pools):
        # a member's log-LR and its MC passes share one x @ W1, on the
        # threaded batch path (n = 250, hidden (64, 32), two CPUs) and for
        # one query
        monkeypatch.setattr(mlp, "usable_cpus", lambda: 2)
        members = [init_scorer(NetworkConfig(input_dim=2, hidden_dims=(64, 32),
                                             dropout_rate=0.1, seed=s), qp, "squared")
                   for s, qp in ((0, 1.0), (1, 2.0))]
        ens = LikelihoodRatioEnsemble(members, EnsembleConfig(target_qps=(1.0, 2.0)))
        rows = [layer1_products(m) for m in members]
        xs = np.random.default_rng(4).normal(0, 1, (250, 2))
        ens.fused_log_lr_batch(xs, np.random.default_rng(0))
        assert rows == [[250], [250]]
        assert thread_pools == [2, 2]
        for r in rows:
            r.clear()
        ens.fused_log_lr(xs[0], np.random.default_rng(1))
        assert rows == [[1], [1]]

    def test_batch_agrees_with_scalar_for_zero_dropout(self):
        members = [constant_scorer(0.2, 1.0), constant_scorer(-0.4, 2.0)]
        ens = LikelihoodRatioEnsemble(members, EnsembleConfig(
            target_qps=(1.0, 2.0)))
        xs = np.random.default_rng(3).normal(0, 1, (6, 1))
        batch = ens.fused_log_lr_batch(xs, np.random.default_rng(0))
        singles = [ens.fused_log_lr(x, np.random.default_rng(0)) for x in xs]
        np.testing.assert_allclose(batch, singles, rtol=1e-12)


class TestTrainEnsemble:
    def test_members_carry_target_ratios(self):
        ds = imbalanced_dataset()
        cfg = EnsembleConfig(target_qps=(1.0, 2.0), mc_samples=5)
        net = NetworkConfig(input_dim=1, hidden_dims=(6,), dropout_rate=0.1)
        ens = train_ensemble(ds, cfg, net, TrainingConfig(max_epochs=2), seed=1)
        assert len(ens.members) == 2
        for member, target in zip(ens.members, cfg.target_qps):
            assert member.training_qp == pytest.approx(target, abs=0.25)

    def test_determinism(self):
        ds = imbalanced_dataset()
        cfg = EnsembleConfig(target_qps=(1.0, 3.0), mc_samples=5)
        net = NetworkConfig(input_dim=1, hidden_dims=(6,), dropout_rate=0.1)
        tc = TrainingConfig(max_epochs=2)
        a = train_ensemble(ds, cfg, net, tc, seed=5)
        b = train_ensemble(ds, cfg, net, tc, seed=5)
        assert save_ensemble_bytes(a) == save_ensemble_bytes(b)


class TestSerialization:
    def test_round_trip_identical_predictions(self):
        members = [constant_scorer(0.2, 1.0), constant_scorer(-0.1, 3.0)]
        ens = LikelihoodRatioEnsemble(members, EnsembleConfig(
            target_qps=(1.0, 3.0), fusion_temperature=0.7, mc_samples=11,
            calibration_fraction=0.2, resample_method="oversample"))
        clone = load_ensemble_bytes(save_ensemble_bytes(ens))
        assert clone.config == ens.config
        xs = np.random.default_rng(1).normal(0, 1, (1000, 1))
        a = ens.fused_log_lr_batch(xs, np.random.default_rng(0))
        b = clone.fused_log_lr_batch(xs, np.random.default_rng(0))
        np.testing.assert_array_equal(a, b)

    def test_magic_guard(self):
        with pytest.raises(ValueError):
            load_ensemble_bytes(b"garbage\n{}\n")


class TestEnsembleConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(target_qps=())
        with pytest.raises(ValueError):
            EnsembleConfig(target_qps=(1.0,), fusion_temperature=0.0)
        with pytest.raises(ValueError):
            EnsembleConfig(target_qps=(1.0,), mc_samples=1)

    def test_k_property(self):
        assert EnsembleConfig(target_qps=(1, 2, 5)).k == 3
