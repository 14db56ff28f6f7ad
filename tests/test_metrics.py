import itertools

import numpy as np
import pytest

from obil.metrics import (ConfusionCounts, FitFailure, auprc, ece,
                          ece_from_posteriors, f1, fit_temperature, g_mean,
                          reliability_bins)
from obil.mlp import CalibratedScorer


def tempered_posterior(logits, temperature):
    """sigma(z / T) from CalibratedScorer.forward of a logit-space scorer
    whose logit is its input: forward gives tanh(z / 2T) = 2 sigma(z / T) - 1.
    """
    scorer = CalibratedScorer(weights=[np.ones((1, 1))], biases=[np.zeros(1)],
                              activation="relu", dropout_rate=0.0, training_qp=1.0,
                              loss_tag="xent_sigmoid", temperature=temperature)
    return (1.0 + scorer.forward(np.asarray(logits, dtype=float)[..., None])) / 2.0


def brute_force_auprc(scores, labels):
    # O(n^2) reference: sweep the distinct scores descending as thresholds
    # and integrate the precision-recall step curve directly
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    n_pos = y.sum()
    area, prev_recall = 0.0, 0.0
    for thr in sorted(set(s), reverse=True):
        preds = s >= thr
        tp = int(np.sum(preds & (y == 1)))
        precision = tp / preds.sum()
        recall = tp / n_pos
        area += precision * (recall - prev_recall)
        prev_recall = recall
    return area


class TestConfusionCounts:
    def test_from_predictions(self):
        c = ConfusionCounts.from_predictions([1, 1, 0, 0, 1], [1, 0, 0, 1, 1])
        assert (c.tp, c.fp, c.tn, c.fn) == (2, 1, 1, 1)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ConfusionCounts(tp=-1)


class TestF1:
    def test_examples(self):
        assert f1(ConfusionCounts(tp=2, fp=1, tn=1, fn=0)) == (0.8, True)
        assert f1(ConfusionCounts(tp=5, fp=0, tn=5, fn=0)) == (1.0, True)

    def test_undefined(self):
        assert f1(ConfusionCounts(tn=10)) == (0.0, False)

    def test_exhaustive_against_formula(self):
        for tp, fp, tn, fn in itertools.product(range(3), repeat=4):
            c = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
            got = f1(c)
            if tp + fp + fn == 0:
                assert not got.defined
                continue
            if tp == 0:
                want = 0.0
            else:
                precision = tp / (tp + fp)
                recall = tp / (tp + fn)
                want = 2 * precision * recall / (precision + recall)
            assert got.value == pytest.approx(want)


class TestGMean:
    def test_examples(self):
        got = g_mean(ConfusionCounts(tp=8, fn=2, tn=9, fp=1))
        assert got.value == pytest.approx(np.sqrt(0.8 * 0.9))
        assert g_mean(ConfusionCounts(tp=5, tn=5)) == (1.0, True)

    def test_undefined_without_both_classes(self):
        assert not g_mean(ConfusionCounts(tp=3, fn=1)).defined
        assert not g_mean(ConfusionCounts(tn=3, fp=1)).defined

    def test_exhaustive_against_formula(self):
        for tp, fp, tn, fn in itertools.product(range(3), repeat=4):
            c = ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)
            got = g_mean(c)
            if tp + fn == 0 or tn + fp == 0:
                assert not got.defined
                continue
            want = np.sqrt((tp / (tp + fn)) * (tn / (tn + fp)))
            assert got.value == pytest.approx(want)


class TestAuprc:
    def test_perfect_ranking(self):
        assert auprc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]).value == pytest.approx(1.0)

    def test_three_point_example(self):
        # thresholds 3, 2, 1: precision 1, 1/2, 2/3 at recalls 1/2, 1/2, 1
        assert auprc([3.0, 2.0, 1.0], [1, 0, 1]).value == pytest.approx(5.0 / 6.0)

    def test_single_positive_ranked_last(self):
        assert auprc([0.4, 0.3, 0.2, 0.1], [0, 0, 0, 1]).value == pytest.approx(0.25)

    def test_all_tied_scores(self):
        # one block: precision = base rate at recall 1
        assert auprc([0.5] * 4, [1, 0, 1, 0]).value == pytest.approx(0.5)

    def test_no_positives_undefined(self):
        assert auprc([0.2, 0.8], [0, 0]) == (0.0, False)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for trial in range(200):
            n = int(rng.integers(2, 13))
            scores = rng.choice([0.1, 0.25, 0.5, 0.75], size=n)
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[int(rng.integers(n))] = 1
            got = auprc(scores, labels)
            assert got.value == pytest.approx(brute_force_auprc(scores, labels))


class TestReliabilityBins:
    def test_bin_assignment_right_closed(self):
        # with 10 bins, 0.1 belongs to the first bin and 0.1000001 to the second
        rows = reliability_bins([0.05, 0.1, 0.1000001, 1.0], [1, 0, 1, 1], bins=10)
        assert rows[0][2] == 2
        assert rows[1][2] == 1
        assert rows[9][2] == 1

    def test_zero_confidence_lands_in_first_bin(self):
        rows = reliability_bins([0.0], [0], bins=15)
        assert rows[0][2] == 1

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(2)
        conf = rng.random(500)
        rows = reliability_bins(conf, rng.integers(0, 2, 500), bins=15)
        assert sum(r[2] for r in rows) == 500

    def test_bin_statistics(self):
        rows = reliability_bins([0.62, 0.64, 0.66], [1, 0, 1], bins=10)
        lo, hi, count, mean_conf, acc = rows[6]
        assert (lo, hi) == pytest.approx((0.6, 0.7))
        assert count == 3
        assert mean_conf == pytest.approx(0.64)
        assert acc == pytest.approx(2.0 / 3.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            reliability_bins([], [], bins=10)
        with pytest.raises(ValueError):
            reliability_bins([0.5], [1], bins=0)


class TestEce:
    def test_single_bin_example(self):
        # all confidences in one bin: |accuracy - mean confidence|
        got = ece([0.8, 0.8, 0.8, 0.8], [1, 1, 1, 0], bins=1)
        assert got.value == pytest.approx(0.05)

    def test_perfectly_calibrated_single_bin(self):
        assert ece([0.75] * 4, [1, 1, 1, 0], bins=1).value == pytest.approx(0.0)

    def test_weighted_two_bins(self):
        # bin means 0.3 (acc 0) and 0.9 (acc 1): 0.5*0.3 + 0.5*0.1 = 0.2
        got = ece([0.3, 0.3, 0.9, 0.9], [0, 0, 1, 1], bins=5)
        assert got.value == pytest.approx(0.5 * 0.3 + 0.5 * 0.1)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        conf = rng.random(300)
        corr = rng.integers(0, 2, 300)
        base = ece(conf, corr).value
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(300)
            assert ece(conf[perm], corr[perm]).value == pytest.approx(base)

    def test_empty_undefined(self):
        assert ece([], []) == (0.0, False)

    def test_from_posteriors(self):
        # p = 0.2 predicts class 0 with confidence 0.8
        got = ece_from_posteriors([0.2, 0.2], [0, 1], bins=1)
        assert got.value == pytest.approx(abs(0.5 - 0.8))


class TestFitTemperature:
    def sample_logits(self, n=4000, scale=1.0, seed=0):
        rng = np.random.default_rng(seed)
        z_true = rng.normal(0, 2, n)
        p = 1.0 / (1.0 + np.exp(-z_true))
        y = (rng.random(n) < p).astype(int)
        return scale * z_true, y

    def test_calibrated_logits_near_unit_temperature(self):
        z, y = self.sample_logits()
        t, at_boundary = fit_temperature(z, y)
        assert 0.9 <= t <= 1.1
        assert not at_boundary

    def test_doubled_logits_need_t_near_two(self):
        z, y = self.sample_logits(scale=2.0, seed=1)
        t, at_boundary = fit_temperature(z, y)
        assert 1.8 <= t <= 2.2
        assert not at_boundary

    def test_constant_logits_hit_boundary(self):
        z = np.full(50, 0.7)
        y = np.array([0, 1] * 25)
        _, at_boundary = fit_temperature(z, y)
        assert at_boundary

    def test_single_class_raises(self):
        with pytest.raises(FitFailure):
            fit_temperature([0.1, 0.2, 0.3], [1, 1, 1])
        with pytest.raises(FitFailure):  # no labels: no class at all
            fit_temperature([], [])

    def test_temperature_preserves_ranking_and_auprc(self):
        rng = np.random.default_rng(5)
        z = rng.normal(0, 3, 200)
        y = rng.integers(0, 2, 200)
        base = auprc(z, y).value
        for temp in (0.3, 1.0, 4.0):
            p = tempered_posterior(z, temp)
            assert np.all(np.diff(p[np.argsort(z)]) >= 0)
            assert auprc(p, y).value == pytest.approx(base)


class TestApplyTemperature:
    def test_examples(self):
        assert tempered_posterior(0.0, 1.0) == pytest.approx(0.5)
        assert tempered_posterior(np.array([2.0]), 2.0)[0] == pytest.approx(
            1.0 / (1.0 + np.exp(-1.0)))

    def test_high_temperature_shrinks_toward_half(self):
        p = tempered_posterior(np.array([-5.0, 5.0]), 100.0)
        assert np.all(np.abs(p - 0.5) < 0.02)
