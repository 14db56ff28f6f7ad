import json
import re
from dataclasses import replace

import numpy as np
import pytest

from obil import mlp
from obil.bayes import EPS_CLIP
from obil.data import LabeledDataset
from obil.ensemble import (MIN_FUSION_TEMPERATURE, EnsembleConfig,
                           LikelihoodRatioEnsemble, derive_member_seed,
                           load_ensemble_bytes, save_ensemble_bytes,
                           train_ensemble)
from obil.mlp import (CalibratedScorer, NetworkConfig, ShapeError,
                      TrainingConfig, init_scorer, train)
from support import collect_outputs


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
        assert ens.members[0].log_lr(np.array([0.0])) == pytest.approx(0.0)

    def test_formula(self):
        ens = LikelihoodRatioEnsemble(
            [constant_scorer(0.5, 1.0), constant_scorer(0.5, 2.0)],
            EnsembleConfig(target_qps=(1.0, 2.0)))
        x = np.array([0.0])
        assert ens.members[0].log_lr(x) == pytest.approx(np.log(3.0))
        assert ens.members[1].log_lr(x) == pytest.approx(np.log(6.0))


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
            float(ens.members[0].log_lr(x)))

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
            logs = [float(ens.members[k].log_lr(x)) for k in range(3)]
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

    def test_more_than_two_axes_is_a_shape_error(self):
        # an input of three axes raises ShapeError naming its shape, before
        # any draw, from the plain forward, a member's MC call and batch
        # fusion, with dropout on or off
        for dropout in (0.0, 0.3):
            members = [init_scorer(NetworkConfig(input_dim=2, hidden_dims=(6, 4),
                                                 dropout_rate=dropout, seed=s), 1.0, "squared")
                       for s in (0, 1)]
            ens = LikelihoodRatioEnsemble(members, EnsembleConfig(target_qps=(1.0, 1.0)))
            gen = np.random.default_rng(0)
            state = gen.bit_generator.state
            for shape in ((2, 3, 2), (1, 1, 2), (0, 3, 2)):
                x = np.ones(shape)
                for call in (lambda: members[0].forward(x), lambda: members[0].logits(x),
                             lambda: mlp.mc_dropout_log_lr(members[0], x, 5, gen),
                             lambda: ens.fused_log_lr_batch(x, gen)):
                    with pytest.raises(ShapeError, match=re.escape(str(shape))):
                        call()
            assert gen.bit_generator.state == state, dropout

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

    def test_extreme_dropout_rates_fuse_finitely(self):
        # dropout 1e-6 gives k = 2**16: every lane is kept at scale 1, so
        # each pass is the plain output, bit for bit, and the variances are
        # 0 up to rounding.  Dropout 0.999995 clamps k to 1: a lane is kept
        # only at value 0 and scaled by 2**16, about 9 of the 600 000 lanes
        # here, so some pass moves.  Both fuse to finite log-LRs, as a batch
        # and per query
        xs = np.random.default_rng(6).normal(0, 1, (2000, 2))
        for dropout in (1e-6, 0.999995):
            members = [init_scorer(NetworkConfig(input_dim=2, hidden_dims=(6, 4),
                                                 dropout_rate=dropout, seed=s), qp, "squared")
                       for s, qp in ((0, 1.0), (1, 3.0))]
            ens = LikelihoodRatioEnsemble(members, EnsembleConfig(target_qps=(1.0, 3.0)))
            moved = [np.any(passes != plain) for plain, passes in
                     (collect_outputs(m, xs, 30, np.random.default_rng(2)) for m in members)]
            assert any(moved) == (dropout != 1e-6), (dropout, moved)
            assert np.all(np.isfinite(ens.fused_log_lr_batch(xs, np.random.default_rng(2))))
            assert np.isfinite(ens.fused_log_lr(xs[0], np.random.default_rng(2))), dropout

    def test_one_layer1_product_per_member(self, monkeypatch, layer1_products,
                                           thread_pools):
        # a member's log-LR and its MC passes share each row's x @ W1, once
        # a call: on the threaded batch path (n = 1100, hidden (64, 32), two
        # CPUs) one product a row tile, 512 + 512 + 76 rows, and for one
        # query one product of one row
        monkeypatch.setattr(mlp, "usable_cpus", lambda: 2)
        members = [init_scorer(NetworkConfig(input_dim=2, hidden_dims=(64, 32),
                                             dropout_rate=0.1, seed=s), qp, "squared")
                   for s, qp in ((0, 1.0), (1, 2.0))]
        ens = LikelihoodRatioEnsemble(members, EnsembleConfig(target_qps=(1.0, 2.0)))
        rows = [layer1_products(m) for m in members]
        xs = np.random.default_rng(4).normal(0, 1, (1100, 2))
        ens.fused_log_lr_batch(xs, np.random.default_rng(0))
        assert [sorted(r) for r in rows] == [[76, 512, 512]] * 2
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

    def test_member_trains_on_every_given_row(self):
        # a target at the data's own ratio leaves the rows as they are, so
        # the member is the net that train fits on all of them with the
        # member's seed: no rows are held out
        ds = imbalanced_dataset(n0=300, n1=100, seed=3)
        net = NetworkConfig(input_dim=1, hidden_dims=(6,), dropout_rate=0.1)
        tc = TrainingConfig(max_epochs=3)
        ens = train_ensemble(ds, EnsembleConfig(target_qps=(ds.imbalance_ratio,)),
                             net, tc, seed=7)
        ref = train(ds, replace(net, seed=derive_member_seed(7, 0) & 0x7FFFFFFF), tc)
        member = ens.members[0]
        assert np.float64(member.training_qp).tobytes() == \
            np.float64(ref.training_qp).tobytes()
        for got, want in zip(member.parameters(), ref.parameters(), strict=True):
            assert got.tobytes() == want.tobytes()


class TestSerialization:
    def test_round_trip_identical_predictions(self):
        members = [constant_scorer(0.2, 1.0), constant_scorer(-0.1, 3.0)]
        ens = LikelihoodRatioEnsemble(members, EnsembleConfig(
            target_qps=(1.0, 3.0), fusion_temperature=0.7, mc_samples=11,
            resample_method="oversample"))
        clone = load_ensemble_bytes(save_ensemble_bytes(ens))
        assert clone.config == ens.config
        xs = np.random.default_rng(1).normal(0, 1, (1000, 1))
        a = ens.fused_log_lr_batch(xs, np.random.default_rng(0))
        b = clone.fused_log_lr_batch(xs, np.random.default_rng(0))
        np.testing.assert_array_equal(a, b)

    def test_magic_guard(self):
        with pytest.raises(ValueError):
            load_ensemble_bytes(b"garbage\n{}\n")

    def test_header_with_retired_field_loads(self):
        # files written while EnsembleConfig had calibration_fraction carry
        # it in the header; the loader reads only the fields it knows
        members = [constant_scorer(0.2, 1.0), init_scorer(NetworkConfig(
            input_dim=1, hidden_dims=(6,), dropout_rate=0.3, seed=2), 3.0, "squared")]
        data = save_ensemble_bytes(LikelihoodRatioEnsemble(members, EnsembleConfig(
            target_qps=(1.0, 3.0), mc_samples=11)))
        magic, header, blobs = data.split(b"\n", 2)
        old = {**json.loads(header), "calibration_fraction": 0.15}
        old_data = b"\n".join([magic, json.dumps(old).encode(), blobs])
        clone, older = load_ensemble_bytes(data), load_ensemble_bytes(old_data)
        assert older.config == clone.config
        xs = np.random.default_rng(1).normal(0, 1, (200, 1))
        np.testing.assert_array_equal(
            older.fused_log_lr_batch(xs, np.random.default_rng(0)),
            clone.fused_log_lr_batch(xs, np.random.default_rng(0)))


class TestEnsembleConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleConfig(target_qps=())
        with pytest.raises(ValueError):
            EnsembleConfig(target_qps=(1.0,), fusion_temperature=0.0)
        with pytest.raises(ValueError):
            EnsembleConfig(target_qps=(1.0,), mc_samples=1)

    def test_fusion_temperature_floor(self, monkeypatch):
        # clamped log-LRs span 2 log((2 - EPS_CLIP) / EPS_CLIP), so a
        # member's variance is at most a quarter of its square: at the
        # floor, two members at that variance still get finite, equal
        # weights.  Below it var / tau could overflow to -inf for every
        # member and give NaN weights, so such a temperature is refused,
        # naming the key
        span = 2.0 * np.log((2.0 - EPS_CLIP) / EPS_CLIP)
        assert 29.0 < span < 29.1
        assert 1e-306 < MIN_FUSION_TEMPERATURE < 1e-305
        most = span ** 2 / 4.0
        with np.errstate(over="ignore"):
            assert most / -(MIN_FUSION_TEMPERATURE / 4.0) == -np.inf
        patch_variances(monkeypatch, np.array([[most], [most]]))
        ens = LikelihoodRatioEnsemble([constant_scorer(0.0), constant_scorer(0.0)], EnsembleConfig(
            target_qps=(1.0, 1.0), fusion_temperature=MIN_FUSION_TEMPERATURE))
        assert ens.fusion_weights(np.array([0.0]), np.random.default_rng(0)).tolist() == \
            [[0.5], [0.5]]
        for tau in (5e-324, 1e-310, np.nextafter(MIN_FUSION_TEMPERATURE, 0.0)):
            with pytest.raises(ValueError, match="fusion_temperature must be"):
                EnsembleConfig(target_qps=(1.0,), fusion_temperature=tau)

    def test_k_property(self):
        assert EnsembleConfig(target_qps=(1, 2, 5)).k == 3
