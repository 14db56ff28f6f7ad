import math

import numpy as np
import pytest

from obil.bayes import (EPS_CLIP, EXP_SAFE, BoundUndefined, CostStructure,
                        InvalidCostStructure, PosteriorSaturation, PriorPair,
                        UnclampedOutput, clamp_output, combined_threshold,
                        cost_sensitive_loss, log_lr_from_output,
                        lr_from_output, lr_from_posterior,
                        posterior_from_log_lr, posterior_from_output,
                        relative_lr_error_bound)


class TestCostStructure:
    def test_cost_ratio(self):
        assert CostStructure(c10=2, c00=0, c01=1, c11=0).cost_ratio == 2.0

    def test_rejects_degenerate_costs(self):
        with pytest.raises(InvalidCostStructure):
            CostStructure(c00=1.0, c01=1.0, c10=1.0, c11=1.0)
        with pytest.raises(InvalidCostStructure):
            CostStructure(c00=0.0, c01=0.5, c10=1.0, c11=0.5)

    def test_rejects_negative_costs(self):
        with pytest.raises(InvalidCostStructure):
            CostStructure(c00=-0.1, c01=1.0, c10=1.0, c11=0.0)


class TestPriorPair:
    def test_ratio(self):
        assert PriorPair(0.2).imbalance_ratio == pytest.approx(4.0)
        assert PriorPair(0.2).p0 == pytest.approx(0.8)

    def test_floor_clip(self):
        pair = PriorPair(0.0)
        assert pair.p1 == 0.005
        assert PriorPair(1.0).p1 == 0.995

    def test_ratio_capped_by_floor(self):
        assert PriorPair(1e-9).imbalance_ratio == pytest.approx(199.0)


class TestCombinedThreshold:
    def test_balanced_symmetric(self):
        assert combined_threshold(CostStructure(), PriorPair(0.5)) == pytest.approx(1.0)

    def test_zero_one_costs(self):
        assert combined_threshold(CostStructure(), PriorPair(0.2)) == pytest.approx(4.0)

    def test_asymmetric_costs(self):
        costs = CostStructure(c10=2, c00=0, c01=1, c11=0)
        assert combined_threshold(costs, PriorPair(0.25)) == pytest.approx(6.0)

    def test_cost_scale_invariance(self):
        priors = PriorPair(0.3)
        base = CostStructure(c00=0.1, c01=2.0, c10=1.5, c11=0.2)
        reference = combined_threshold(base, priors)
        for lam in (1e-3, 0.5, 7.0, 1e4):
            scaled = CostStructure(c00=0.1 * lam, c01=2.0 * lam,
                                   c10=1.5 * lam, c11=0.2 * lam)
            assert combined_threshold(scaled, priors) == pytest.approx(
                reference, rel=1e-12)


class TestPosteriorFromOutput:
    def test_symmetry(self):
        assert posterior_from_output(0.0) == 0.5

    def test_formula(self):
        assert posterior_from_output(0.6) == pytest.approx(0.8)

    def test_boundary_after_clamp(self):
        assert posterior_from_output(-1 + 1e-6) == pytest.approx(5e-7)

    def test_unclamped_raises(self):
        with pytest.raises(UnclampedOutput):
            posterior_from_output(1.0)
        with pytest.raises(UnclampedOutput):
            posterior_from_output(-1.5)


class TestPosteriorFromLogLr:
    def test_bits_unchanged_below_exp_safe(self):
        # clamping at EXP_SAFE leaves every value below it bit-identical to
        # the plain formula, for arrays and scalars
        rng = np.random.default_rng(20)
        log_lr = rng.uniform(-EXP_SAFE, EXP_SAFE, 100_000)
        log_lr[:50_000] /= 100.0  # dense near 0, where real log-LRs live
        p1 = rng.uniform(0.005, 0.995, 100_000)
        q = np.exp(log_lr)
        want = q * p1 / (q * p1 + (1.0 - p1))
        assert posterior_from_log_lr(log_lr, p1).tobytes() == want.tobytes()
        assert posterior_from_log_lr(float(log_lr[0]), float(p1[0])) == want[0]

    def test_huge_log_lr_is_certain(self):
        # exp overflows past about 709.78; the posterior is 1.0, not inf / inf
        got = posterior_from_log_lr(np.array([709.0, 709.9, 1e4, -1e4]), 0.2)
        assert np.all(np.isfinite(got))
        np.testing.assert_array_equal(got[1:], [1.0, 1.0, 0.0])
        assert posterior_from_log_lr(800.0, 0.5) == 1.0


class TestLrFromPosterior:
    def test_balanced_uninformative(self):
        assert lr_from_posterior(0.5, 1.0) == pytest.approx(1.0)

    def test_formula(self):
        assert lr_from_posterior(0.8, 2.0) == pytest.approx(8.0)
        assert lr_from_posterior(0.2, 4.0) == pytest.approx(1.0)

    def test_saturation_raises(self):
        with pytest.raises(PosteriorSaturation):
            lr_from_posterior(0.0, 1.0)
        with pytest.raises(PosteriorSaturation):
            lr_from_posterior(1.0, 1.0)


class TestLrFromOutput:
    def test_examples(self):
        assert lr_from_output(0.0, 1.0) == pytest.approx(1.0)
        assert lr_from_output(0.5, 1.0) == pytest.approx(3.0)
        assert lr_from_output(0.6, 2.0) == pytest.approx(
            lr_from_posterior(0.8, 2.0))

    def test_composition_identity(self):
        grid = np.linspace(-1 + EPS_CLIP, 1 - EPS_CLIP, 401)
        for qp in (0.5, 1.0, 2.0, 5.0, 10.0):
            for o in grid:
                direct = lr_from_output(o, qp)
                composed = lr_from_posterior(posterior_from_output(o), qp)
                assert abs(direct - composed) <= 1e-15 * max(1.0, abs(direct))

    def test_log_form_agrees(self):
        grid = np.linspace(-0.999, 0.999, 101)
        for qp in (0.5, 3.0):
            np.testing.assert_allclose(
                log_lr_from_output(grid, qp),
                np.log(lr_from_output(grid, qp)), rtol=1e-12)

    def test_in_place_form_has_the_same_bits(self):
        # the log-LR has the bits of log(qp) + log1p(o) - log1p(-o), computed
        # here step by step: into a new array, into out (another array or o
        # itself, which is then returned), and as a float for a 0-d array, a
        # numpy scalar or a Python float
        rng = np.random.default_rng(5)
        for shape in ((), (1,), (30, 1), (7, 250)):
            o = clamp_output(np.tanh(rng.normal(0, 3, shape)))
            for qp in (0.25, 1.0, 7.0):
                case = (shape, qp)
                want = np.float64(math.log(qp)) + np.log1p(o) - np.log1p(-o)
                kept = o.copy()
                got = log_lr_from_output(o, qp)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), case
                assert o.tobytes() == kept.tobytes(), case
                if not shape:
                    for scalar in (np.array(o), np.float64(o), float(o)):
                        got = log_lr_from_output(scalar, qp)
                        assert type(got) is float, case
                        assert np.float64(got).tobytes() == want.tobytes(), case
                    continue
                assert got is not o and got.shape == shape, case
                other = np.empty(shape)
                assert log_lr_from_output(o, qp, out=other) is other
                assert other.tobytes() == want.tobytes(), case
                assert o.tobytes() == kept.tobytes(), case
                same = o.copy()
                assert log_lr_from_output(same, qp, out=same) is same
                assert same.tobytes() == want.tobytes(), case


def analytic_posterior(q_l, qp_tilde):
    # posterior under a modified prior pair with the same class conditionals
    p1 = 1.0 / (1.0 + qp_tilde)
    return q_l * p1 / (q_l * p1 + (1.0 - p1))


class TestExactTransfer:
    def test_identical_recovery_across_priors(self):
        ratios = np.exp(np.linspace(-6, 6, 50))
        for q_l in ratios:
            for qp in (0.5, 1.0, 2.0, 5.0, 10.0):
                recovered = lr_from_posterior(analytic_posterior(q_l, qp), qp)
                assert abs(recovered - q_l) <= 1e-12 * q_l


class TestRelativeLrErrorBound:
    def test_center(self):
        assert relative_lr_error_bound(0.5, 0.1) == pytest.approx(0.4)

    def test_formula(self):
        assert relative_lr_error_bound(0.8, 0.05) == pytest.approx(0.05 / 0.19)

    def test_zero_error(self):
        assert relative_lr_error_bound(0.5, 0.0) == 0.0

    def test_undefined_raises(self):
        with pytest.raises(BoundUndefined):
            relative_lr_error_bound(0.9, 0.2)
        with pytest.raises(BoundUndefined):
            relative_lr_error_bound(0.5, -0.01)

    def test_exact_error_expressions(self):
        # the relative LR error from a signed posterior perturbation is
        # eps / (p (1 - p -+ eps)); the bound covers the downward direction
        # everywhere and the upward direction on p <= 1/3
        for p in np.linspace(0.05, 0.95, 100):
            q_true = p / (1.0 - p)
            for frac in np.linspace(0.01, 0.99, 50):
                eps = frac * min(p, 1.0 - p) / 2.0
                bound = relative_lr_error_bound(p, eps)
                err_up = abs((p + eps) / (1.0 - p - eps) - q_true) / q_true
                err_dn = abs((p - eps) / (1.0 - p + eps) - q_true) / q_true
                assert err_up == pytest.approx(eps / (p * (1 - p - eps)), rel=1e-9)
                assert err_dn == pytest.approx(eps / (p * (1 - p + eps)), rel=1e-9)
                assert err_dn <= bound + 1e-12
                if p <= 1.0 / 3.0:
                    assert err_up <= bound + 1e-12

    def test_u_shape(self):
        # at fixed eps the bound is unimodal with its minimum at p = 0.5 + eps
        eps = 0.02
        grid = np.linspace(0.05, 0.95, 901)
        vals = np.array([relative_lr_error_bound(p, eps) for p in grid])
        center = np.argmin(np.abs(grid - (0.5 + eps)))
        assert vals.argmin() == center
        assert np.all(np.diff(vals[center:]) > 0)
        assert np.all(np.diff(vals[:center + 1]) < 0)


class TestCostSensitiveLoss:
    def test_examples(self):
        # qc is the false-alarm cost, as in the threshold qc (1 - p1) / p1
        assert cost_sensitive_loss(1, 1, 5.0) == 0.0
        assert cost_sensitive_loss(0, 1, 5.0) == 1.0
        assert cost_sensitive_loss(1, 0, 5.0) == 5.0
        assert cost_sensitive_loss(0, 0, 5.0) == 0.0
        np.testing.assert_array_equal(
            cost_sensitive_loss(np.array([1, 0, 1, 0]), np.array([1, 1, 0, 0]), 5.0),
            [0.0, 1.0, 5.0, 0.0])


class TestClampOutput:
    def test_clamps_saturated_values(self):
        assert clamp_output(1.0) == 1.0 - EPS_CLIP
        assert clamp_output(-2.0) == -1.0 + EPS_CLIP
        assert clamp_output(0.3) == 0.3

    def test_vectorized(self):
        out = clamp_output(np.array([-5.0, 0.0, 5.0]))
        np.testing.assert_allclose(out, [-1 + EPS_CLIP, 0.0, 1 - EPS_CLIP])

    def test_edge_values_match_np_clip_bit_for_bit(self):
        # NaN passes through, the sign of zero stays, infinities clamp
        edges = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0,
                          5e300, -5e300])
        expected = np.clip(edges, -1.0 + EPS_CLIP, 1.0 - EPS_CLIP)
        assert clamp_output(edges).tobytes() == expected.tobytes()
        for x in edges:
            assert np.float64(clamp_output(x)).tobytes() == \
                np.clip(x, -1.0 + EPS_CLIP, 1.0 - EPS_CLIP).tobytes()
