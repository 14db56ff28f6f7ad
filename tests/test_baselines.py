import numpy as np
import pytest

import obil.baselines
import obil.metrics
from obil.baselines import (BBSEUnidentifiable, FitFailure,
                            bbse_estimate_prior, logit_adjust,
                            threshold_moving_fit)
from obil.bayes import PriorPair, combined_threshold, CostStructure
from obil.metrics import ConfusionCounts, f1


def threshold_moving_loop(scores, labels):
    """threshold_moving_fit as a loop over its candidates: ConfusionCounts
    and f1 at each, a later candidate winning only when its F1 is higher by
    more than 1e-15."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=int)
    distinct = np.unique(s)
    span = distinct[-1] - distinct[0]
    candidates = np.concatenate([
        [distinct[0] - max(span, 1.0)],
        (distinct[:-1] + distinct[1:]) / 2.0,
        [distinct[-1] + max(span, 1.0)],
    ])
    best_thr, best_f1 = None, -1.0
    for thr in candidates:
        preds = (s > thr).astype(int)
        score = f1(ConfusionCounts.from_predictions(preds, y)).value
        if score > best_f1 + 1e-15:
            best_thr, best_f1 = thr, score
    return float(best_thr), float(best_f1)


class TestThresholdMoving:
    def test_matches_candidate_loop(self):
        # the counted fit returns the loop's threshold and F1, bit for bit:
        # random scores (455 candidates at n = 454, as on a README seed),
        # scores rounded to one decimal (ties), calibration sets with one
        # positive, and NaN and infinite scores
        rng = np.random.default_rng(17)
        cases = []
        for n in (2, 3, 40, 454):
            y = (rng.random(n) < 0.3).astype(int)
            y[:2] = [1, 0]
            cases.append((rng.normal(0, 2, n), y))
        for n in (30, 300):
            y = (rng.random(n) < 0.4).astype(int)
            y[:2] = [1, 0]
            cases.append((np.round(rng.normal(0, 1, n), 1), y))
        for n in (2, 25, 454):
            y = np.zeros(n, dtype=int)
            y[rng.integers(n)] = 1
            cases.append((rng.normal(0, 1, n), y))
            cases.append((np.round(rng.normal(0, 1, n), 1), y))
        cases.append(([0.3, np.nan, 0.9, 0.1, np.nan], [1, 1, 0, 1, 0]))
        cases.append(([-np.inf, 0.2, np.inf, 0.7], [0, 1, 1, 0]))
        cases.append(([np.inf, 0.5, 0.5, 0.1], [1, 0, 1, 0]))
        for k, (s, y) in enumerate(cases):
            got = threshold_moving_fit(s, y)
            want = threshold_moving_loop(s, y)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (k, got, want)

    def test_four_point_example(self):
        thr, best = threshold_moving_fit([0.1, 0.4, 0.6, 0.9], [0, 1, 0, 1])
        assert thr == pytest.approx(0.25)
        assert best == pytest.approx(0.8)

    def test_separable_scores(self):
        thr, best = threshold_moving_fit([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
        assert 0.2 < thr < 0.8
        assert best == pytest.approx(1.0)

    def test_tie_breaks_toward_smaller_threshold(self):
        # both midpoints below the positives give F1 = 1; keep the smaller
        thr, best = threshold_moving_fit([0.1, 0.5, 0.7], [0, 1, 1])
        assert thr == pytest.approx(0.3)
        assert best == pytest.approx(1.0)

    def test_all_identical_scores(self):
        with pytest.raises(FitFailure):
            threshold_moving_fit([0.5, 0.5, 0.5], [0, 1, 0])

    def test_single_class(self):
        with pytest.raises(FitFailure):
            threshold_moving_fit([0.1, 0.9], [1, 1])
        with pytest.raises(FitFailure):  # no labels: no class at all
            threshold_moving_fit([], [])
        # one exception type for every fit failure in the package
        assert obil.baselines.FitFailure is obil.metrics.FitFailure

    def test_sentinel_when_predicting_everything(self):
        # all-positive labels with any split loses to predicting 1 everywhere
        thr, best = threshold_moving_fit([0.2, 0.8, 0.5, 0.9], [1, 1, 0, 1])
        preds = (np.array([0.2, 0.8, 0.5, 0.9]) > thr).astype(int)
        got = f1(ConfusionCounts.from_predictions(preds, [1, 1, 0, 1])).value
        assert got == pytest.approx(best)

    def test_exhaustive_optimality(self):
        # the returned F1 matches a dense sweep over every possible cut
        rng = np.random.default_rng(21)
        for trial in range(25):
            n = int(rng.integers(5, 200))
            s = np.round(rng.random(n), 2)
            y = rng.integers(0, 2, n)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            if np.unique(s).size < 2:
                continue
            thr, best = threshold_moving_fit(s, y)
            cuts = np.concatenate([np.unique(s) - 1e-9, np.unique(s) + 1e-9,
                                   [s.min() - 1, s.max() + 1]])
            sweep = max(f1(ConfusionCounts.from_predictions(
                (s > c).astype(int), y)).value for c in cuts)
            assert best == pytest.approx(sweep)
            got = f1(ConfusionCounts.from_predictions(
                (s > thr).astype(int), y)).value
            assert got == pytest.approx(best)


class TestLogitAdjust:
    def test_no_shift_identity(self):
        assert logit_adjust(1.3, 0.2, 0.2) == pytest.approx(1.3)

    def test_example(self):
        # moving from a balanced to a 1:3 prior subtracts log 3
        assert logit_adjust(0.0, 0.5, 0.25) == pytest.approx(-np.log(3.0))

    def test_composition(self):
        z = np.array([-1.0, 0.0, 2.0])
        step1 = logit_adjust(z, 0.5, 0.2)
        step2 = logit_adjust(step1, 0.2, 0.05)
        direct = logit_adjust(z, 0.5, 0.05)
        np.testing.assert_allclose(step2, direct, rtol=1e-12)

    def test_inverse_round_trip(self):
        z = np.linspace(-4, 4, 9)
        back = logit_adjust(logit_adjust(z, 0.3, 0.7), 0.7, 0.3)
        np.testing.assert_allclose(back, z, atol=1e-12)

    def test_bayes_threshold_equivalence(self):
        # deciding adjusted-z > 0 equals comparing the likelihood ratio to the
        # combined threshold for the test prior, for a scorer whose logit is
        # the true log posterior odds under the training prior
        rng = np.random.default_rng(6)
        for _ in range(100):
            train_p1 = float(rng.uniform(0.05, 0.95))
            test_p1 = float(rng.uniform(0.05, 0.95))
            log_q = float(rng.normal(0, 3))
            z = log_q + np.log(train_p1 / (1.0 - train_p1))
            via_logit = logit_adjust(z, train_p1, test_p1) > 0
            thr = combined_threshold(CostStructure(), PriorPair(test_p1))
            via_threshold = np.exp(log_q) > thr
            assert via_logit == via_threshold

    def test_rejects_degenerate_priors(self):
        with pytest.raises(ValueError):
            logit_adjust(0.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            logit_adjust(0.0, 0.5, 1.0)


class TestBbse:
    def test_identity_confusion(self):
        p0, p1 = bbse_estimate_prior(np.eye(2), np.array([0.7, 0.3]))
        assert (p0, p1) == pytest.approx((0.7, 0.3))

    def test_worked_example(self):
        c = np.array([[0.9, 0.2], [0.1, 0.8]])
        mu = c @ np.array([0.8, 0.2])  # = (0.76, 0.24)
        p0, p1 = bbse_estimate_prior(c, mu)
        assert (p0, p1) == pytest.approx((0.8, 0.2))

    def test_negative_solution_clipped_and_renormalized(self):
        c = np.array([[0.9, 0.2], [0.1, 0.8]])
        # mu outside the simplex image forces a negative component
        p0, p1 = bbse_estimate_prior(c, np.array([0.99, 0.01]))
        assert p0 + p1 == pytest.approx(1.0)
        assert p1 >= 0.005

    def test_floor_applies(self):
        c = np.array([[0.9, 0.2], [0.1, 0.8]])
        mu = c @ np.array([1.0, 0.0])
        _, p1 = bbse_estimate_prior(c, mu)
        assert p1 == pytest.approx(0.005)

    def test_singular_confusion_unidentifiable(self):
        with pytest.raises(BBSEUnidentifiable):
            bbse_estimate_prior(np.array([[0.5, 0.5], [0.5, 0.5]]),
                                np.array([0.5, 0.5]))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            bbse_estimate_prior(np.eye(3), np.array([0.5, 0.5, 0.0]))

    def test_recovers_random_invertible_instances(self):
        rng = np.random.default_rng(11)
        count = 0
        while count < 100:
            acc0 = float(rng.uniform(0.55, 0.99))
            acc1 = float(rng.uniform(0.55, 0.99))
            c = np.array([[acc0, 1.0 - acc1], [1.0 - acc0, acc1]])
            if abs(np.linalg.det(c)) <= 1e-6:
                continue
            p1_true = float(rng.uniform(0.01, 0.99))
            mu = c @ np.array([1.0 - p1_true, p1_true])
            p0, p1 = bbse_estimate_prior(c, mu)
            assert abs(p1 - p1_true) <= 1e-10
            assert abs(p0 - (1.0 - p1_true)) <= 1e-10
            count += 1
