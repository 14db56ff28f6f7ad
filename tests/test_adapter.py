import math

import numpy as np
import pytest

from obil.adapter import (AdapterConfig, init, run_log_lr_stream, run_stream,
                          step)
from obil.ensemble import EnsembleConfig, LikelihoodRatioEnsemble
from obil.mlp import CalibratedScorer, NetworkConfig, init_scorer


class TestInit:
    def test_balanced_threshold(self):
        state = init(AdapterConfig(qc=1.0, initial_p1=0.5))
        assert state.threshold_q == pytest.approx(1.0)

    def test_imbalanced_threshold(self):
        state = init(AdapterConfig(qc=1.0, initial_p1=0.2))
        assert state.threshold_q == pytest.approx(4.0)

    def test_floor_clip(self):
        state = init(AdapterConfig(qc=1.0, initial_p1=0.0, prior_floor=0.005))
        assert state.p1_hat == 0.005
        assert state.threshold_q == pytest.approx(199.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AdapterConfig(qc=0.0)
        with pytest.raises(ValueError):
            AdapterConfig(gamma=0.4)
        with pytest.raises(ValueError):
            AdapterConfig(beta=1.0)
        with pytest.raises(ValueError):
            AdapterConfig(delta_max=0.0)
        with pytest.raises(ValueError):
            AdapterConfig(window_w=0)


class TestStep:
    def test_tie_predicts_zero(self):
        state = init(AdapterConfig(qc=1.0, initial_p1=0.5))
        prediction, record = step(state, 0.0)
        assert prediction == 0
        assert record.p_lr == pytest.approx(0.5)

    def test_ema_update_on_confident_signal(self):
        # q = 11 with p1_hat = 0.5 gives p_lr = 11/12, first-step p_freq = 1,
        # so p_comb = 0.6 (11/12) + 0.4 = 0.95; gate passes and the EMA fires
        cfg = AdapterConfig(qc=1.0, initial_p1=0.5, alpha=0.1, gamma=0.9,
                            beta=0.6, delta_max=0.46)
        state = init(cfg)
        _, record = step(state, math.log(11.0))
        assert record.p_comb == pytest.approx(0.95)
        assert record.updated and not record.clamped
        assert state.p1_hat == pytest.approx(0.545)

    def test_clamped_branch(self):
        # q = 5 gives p_lr = 5/6, p_freq = 1, p_comb = 0.9; the gap 0.4
        # exceeds delta_max so the clamp fires
        cfg = AdapterConfig(qc=1.0, initial_p1=0.5, alpha=0.1, delta_max=0.02)
        state = init(cfg)
        _, record = step(state, math.log(5.0))
        assert record.p_comb == pytest.approx(0.9)
        assert record.clamped
        assert state.p1_hat == pytest.approx(0.52)

    def test_no_update_inside_gate_band(self):
        # p_comb in (1 - gamma, gamma) and within delta_max leaves p1_hat alone
        cfg = AdapterConfig(qc=1.0, initial_p1=0.5, gamma=0.9, delta_max=0.25)
        state = init(cfg)
        # q = 1.5: p_lr = 0.6, p_freq = 1, p_comb = 0.76 -> outside delta?
        # gap 0.26 > 0.25 clamps; use q just above 1 for a small gap instead
        _, record = step(state, math.log(1.2))
        assert abs(record.p_comb - state.p1_hat) < 1  # sanity
        assert not record.updated or record.clamped

    def test_rejects_nonfinite(self):
        state = init(AdapterConfig())
        with pytest.raises(ValueError):
            step(state, float("nan"))

    def test_threshold_consistency_every_step(self):
        cfg = AdapterConfig(qc=2.5, initial_p1=0.3)
        state = init(cfg)
        rng = np.random.default_rng(0)
        for _ in range(500):
            _, record = step(state, rng.normal(0, 3))
            want = cfg.qc * (1.0 - state.p1_hat) / state.p1_hat
            assert abs(record.threshold_after - want) <= 1e-12 * want

    def test_prediction_uses_pre_update_threshold(self):
        cfg = AdapterConfig(qc=1.0, initial_p1=0.5)
        state = init(cfg)
        before = state.threshold_q
        log_lr = math.log(before) + 0.1
        prediction, _ = step(state, log_lr)
        assert prediction == 1


class TestRunStream:
    def test_empty_stream(self):
        assert run_log_lr_stream([], AdapterConfig()) == []

    def test_monotone_increase_under_positive_evidence(self):
        # q > 1 always with a permissive gate pushes p1_hat up monotonically
        cfg = AdapterConfig(qc=1.0, initial_p1=0.3, gamma=0.6, beta=0.6)
        trace = run_log_lr_stream([math.log(4.0)] * 300, cfg)
        vals = [r.p1_hat_after for r in trace]
        deltas = np.diff([0.3] + vals)
        assert np.all(deltas >= -1e-15)
        assert vals[-1] > 0.6

    def test_trace_length_and_step_index(self):
        trace = run_log_lr_stream([0.5, -0.5, 1.0], AdapterConfig())
        assert [r.t for r in trace] == [1, 2, 3]

    def test_run_stream_uses_fused_ratio(self):
        # a constant-output one-member ensemble reduces run_stream to
        # run_log_lr_stream on its member ratio
        scorer = CalibratedScorer(weights=[np.zeros((1, 1))],
                                  biases=[np.array([np.arctanh(0.5)])],
                                  activation="relu", dropout_rate=0.0,
                                  training_qp=1.0, loss_tag="squared")
        ens = LikelihoodRatioEnsemble([scorer], EnsembleConfig(target_qps=(1.0,)))
        cfg = AdapterConfig()
        feats = np.zeros((20, 1))
        trace = run_stream(ens, feats, cfg, np.random.default_rng(0))
        want = run_log_lr_stream([math.log(3.0)] * 20, cfg)
        assert [r.p1_hat_after for r in trace] == pytest.approx(
            [r.p1_hat_after for r in want])

        # with dropout, run_stream equals run_log_lr_stream over fused_log_lr
        # values drawn in arrival order from a twin generator
        members = [init_scorer(NetworkConfig(input_dim=2, hidden_dims=(5,),
                                             dropout_rate=0.3, seed=s), qp, "squared")
                   for s, qp in ((1, 1.0), (2, 3.0))]
        ens = LikelihoodRatioEnsemble(members, EnsembleConfig(target_qps=(1.0, 3.0),
                                                              mc_samples=6))
        cfg = AdapterConfig(initial_p1=0.3)
        feats = np.random.default_rng(11).normal(0, 1, (15, 2))
        trace = run_stream(ens, feats, cfg, np.random.default_rng(4))
        twin = np.random.default_rng(4)
        log_lrs = [ens.fused_log_lr(x, twin) for x in feats]
        want = run_log_lr_stream(log_lrs, cfg)
        assert [r.to_json() for r in trace] == [r.to_json() for r in want]
        # the dropout draws are live: a different generator changes the fusion
        other = [ens.fused_log_lr(x, np.random.default_rng(5)) for x in feats]
        assert other != log_lrs


class TestInvariants:
    def test_boundedness_under_adversarial_inputs(self):
        cfg = AdapterConfig(qc=1.0, initial_p1=0.5)
        state = init(cfg)
        rng = np.random.default_rng(99)
        eta = cfg.prior_floor
        for _ in range(10000):
            log_lr = rng.choice([-50.0, 50.0, 0.0]) + rng.normal(0, 1)
            prev = state.p1_hat
            _, record = step(state, float(log_lr))
            assert eta <= state.p1_hat <= 1.0 - eta
            if record.clamped:
                assert abs(state.p1_hat - prev) <= cfg.delta_max + 1e-15

    def test_p_freq_recomputable_from_window(self):
        cfg = AdapterConfig(window_w=25)
        rng = np.random.default_rng(4)
        log_lrs = rng.normal(0, 2, 400)
        trace = run_log_lr_stream(log_lrs, cfg)
        indicators = (np.exp(log_lrs) > 1.0).astype(float)
        for i, record in enumerate(trace):
            lo = max(0, i - cfg.window_w + 1)
            assert record.p_freq == pytest.approx(indicators[lo:i + 1].mean())

    def test_warm_up_averages_available_entries(self):
        cfg = AdapterConfig(window_w=100)
        trace = run_log_lr_stream([2.0, -2.0, 2.0], cfg)
        assert trace[0].p_freq == pytest.approx(1.0)
        assert trace[1].p_freq == pytest.approx(0.5)
        assert trace[2].p_freq == pytest.approx(2.0 / 3.0)

    def test_step_record_serializes_to_json(self):
        import json
        trace = run_log_lr_stream([0.3], AdapterConfig())
        parsed = json.loads(trace[0].to_json())
        assert parsed["t"] == 1
        assert parsed["prediction"] in (0, 1)
