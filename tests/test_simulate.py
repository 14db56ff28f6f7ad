import numpy as np
import pytest

from obil.adapter import AdapterConfig, init, step
from obil.bayes import PRIOR_FLOOR, cost_sensitive_loss
from obil.simulate import (GaussianProblem, PriorTrajectory, RegretLedger,
                           StreamScenario, oracle_decision, oracle_threshold,
                           run_regret_experiment, sample_step)


def scalar_p1(traj, t: int) -> float:
    """The per-step prior formula PriorTrajectory used before it had an
    array form, kept here as the reference for its bits.
    """
    if traj.kind == "constant":
        p = traj.p_before
    elif traj.kind == "abrupt":
        if t < traj.t_switch:
            p = traj.p_before
        elif traj.decay_steps > 0 and t < traj.t_switch + traj.decay_steps:
            frac = (t - traj.t_switch) / traj.decay_steps
            p = traj.p_after + (traj.p_before - traj.p_after) * frac
        elif traj.decay_steps > 0:
            p = traj.p_before
        else:
            p = traj.p_after
    else:  # linear_drift
        p = min(traj.p_start + traj.slope * t, traj.p_cap) if traj.slope >= 0 \
            else max(traj.p_start + traj.slope * t, traj.p_cap)
    return min(max(p, PRIOR_FLOOR), 1.0 - PRIOR_FLOOR)


def unit_problem():
    return GaussianProblem(mu0=np.array([-1.0]), mu1=np.array([1.0]), sigma2=1.0)


class TestGaussianProblem:
    def test_log_lr_is_two_x(self):
        prob = unit_problem()
        for x in (-2.0, 0.0, 0.7, 3.5):
            assert prob.log_lr(np.array([x])) == pytest.approx(2.0 * x)

    def test_log_lr_batched(self):
        prob = unit_problem()
        xs = np.array([[-1.0], [0.5]])
        np.testing.assert_allclose(prob.log_lr(xs), [-2.0, 1.0])

    def test_posterior_balanced_origin(self):
        assert unit_problem().posterior(np.array([0.0]), 0.5) == pytest.approx(0.5)

    def test_posterior_formula(self):
        # q = e^2 at x = 1 with p1 = 0.2
        q = np.exp(2.0)
        want = q * 0.2 / (q * 0.2 + 0.8)
        assert unit_problem().posterior(np.array([1.0]), 0.2) == pytest.approx(want)

    def test_sample_means(self):
        prob = unit_problem()
        rng = np.random.default_rng(0)
        y = np.array([0] * 5000 + [1] * 5000)
        x = prob.sample(y, rng)
        assert abs(x[:5000].mean() + 1.0) < 0.05
        assert abs(x[5000:].mean() - 1.0) < 0.05

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            GaussianProblem(mu0=np.zeros(2), mu1=np.zeros(3))
        with pytest.raises(ValueError):
            GaussianProblem(sigma2=0.0)

    def test_sample_dataset_prior(self):
        ds = unit_problem().sample_dataset(20000, 0.1, np.random.default_rng(1))
        assert abs(ds.labels.mean() - 0.1) < 0.01

    def test_sample_dataset_is_a_constant_prior_stream(self):
        # one drawer: a dataset is the stream of a constant prior, bit for bit
        ds = unit_problem().sample_dataset(500, 0.2, np.random.default_rng(6))
        scenario = StreamScenario(unit_problem(), PriorTrajectory(p_before=0.2), horizon=500)
        feats, labels, p1s = scenario.draw(np.random.default_rng(6))
        assert ds.features.tobytes() == feats.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()
        assert np.all(p1s == 0.2)


class TestPriorTrajectory:
    def test_constant(self):
        traj = PriorTrajectory(kind="constant", p_before=0.07)
        assert traj.p1_at(0) == 0.07
        assert traj.p1_at(10_000) == 0.07

    def test_abrupt_jump_and_decay(self):
        traj = PriorTrajectory(kind="abrupt", p_before=0.03, p_after=0.12,
                               t_switch=500, decay_steps=1000)
        assert traj.p1_at(499) == pytest.approx(0.03)
        assert traj.p1_at(500) == pytest.approx(0.12)
        assert traj.p1_at(1000) == pytest.approx(0.075)
        assert traj.p1_at(1500) == pytest.approx(0.03)
        assert traj.p1_at(5000) == pytest.approx(0.03)

    def test_abrupt_without_decay_holds(self):
        traj = PriorTrajectory(kind="abrupt", p_before=0.03, p_after=0.12,
                               t_switch=500, decay_steps=0)
        assert traj.p1_at(499) == pytest.approx(0.03)
        assert traj.p1_at(10_000) == pytest.approx(0.12)

    def test_linear_drift_cap(self):
        traj = PriorTrajectory(kind="linear_drift", p_start=0.2, slope=1e-3,
                               p_cap=0.8)
        assert traj.p1_at(100) == pytest.approx(0.3)
        assert traj.p1_at(600) == pytest.approx(0.8)
        assert traj.p1_at(5000) == pytest.approx(0.8)

    def test_negative_drift_floor(self):
        traj = PriorTrajectory(kind="linear_drift", p_start=0.3, slope=-1e-3,
                               p_cap=0.1)
        assert traj.p1_at(100) == pytest.approx(0.2)
        assert traj.p1_at(1000) == pytest.approx(0.1)

    def test_global_floor(self):
        traj = PriorTrajectory(kind="constant", p_before=0.0)
        assert traj.p1_at(0) == pytest.approx(0.005)

    def test_rejects_bad_probabilities_and_slope(self):
        # each probability must be finite and lie in [0, 1]; the slope finite
        for field_name in ("p_before", "p_after", "p_start", "p_cap"):
            for bad in (float("nan"), float("inf"), -0.1, 1.5):
                with pytest.raises(ValueError, match=field_name):
                    PriorTrajectory(kind="linear_drift", **{field_name: bad})
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="slope"):
                PriorTrajectory(kind="linear_drift", slope=bad)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            PriorTrajectory(kind="sinusoid").p1_at(0)

    def test_path_is_scalar_formula_bit_for_bit(self):
        # p1_path(T) and p1_at(t) hold the scalar formula's p1 for t < T,
        # floor included, for every kind
        trajectories = [
            PriorTrajectory(kind="constant", p_before=0.07),
            PriorTrajectory(kind="constant", p_before=0.0),
            PriorTrajectory(kind="constant", p_before=1.0),
            PriorTrajectory(kind="abrupt", p_before=0.03, p_after=0.12, t_switch=500,
                            decay_steps=0),
            PriorTrajectory(kind="abrupt", p_before=0.03, p_after=0.12, t_switch=0,
                            decay_steps=0),
            PriorTrajectory(kind="abrupt", p_before=0.03, p_after=0.12, t_switch=500,
                            decay_steps=1000),
            PriorTrajectory(kind="abrupt", p_before=0.3, p_after=0.001, t_switch=0,
                            decay_steps=777),
            PriorTrajectory(kind="abrupt", p_before=0.2, p_after=0.7, t_switch=1900,
                            decay_steps=3),
            PriorTrajectory(kind="abrupt", p_before=0.2, p_after=0.7, t_switch=5000,
                            decay_steps=10),
            PriorTrajectory(kind="abrupt", p_before=0.2, p_after=0.7, t_switch=-40,
                            decay_steps=100),
            PriorTrajectory(kind="linear_drift", p_start=0.05, slope=3e-5, p_cap=0.4),
            PriorTrajectory(kind="linear_drift", p_start=0.2, slope=1e-3, p_cap=0.8),
            PriorTrajectory(kind="linear_drift", p_start=0.3, slope=-1e-3, p_cap=0.1),
            PriorTrajectory(kind="linear_drift", p_start=0.9, slope=-7e-4, p_cap=0.0),
            PriorTrajectory(kind="linear_drift", p_start=0.1, slope=0.0, p_cap=0.8),
        ]
        horizon = 2000
        for traj in trajectories:
            want = np.array([scalar_p1(traj, t) for t in range(horizon)])
            got = traj.p1_path(horizon)
            assert got.dtype == np.float64 and got.shape == (horizon,), traj
            assert got.tobytes() == want.tobytes(), traj
            for t in (-3, 0, 1, 499, 500, 1999, 10**9):
                assert traj.p1_at(t) == scalar_p1(traj, t), (traj, t)
                assert type(traj.p1_at(t)) is float, (traj, t)
        # the cap is reached and the floor holds where the trajectories say
        assert trajectories[11].p1_path(horizon)[-1] == 0.8
        assert trajectories[12].p1_path(horizon)[-1] == 0.1
        assert trajectories[13].p1_path(horizon)[-1] == PRIOR_FLOOR
        assert trajectories[1].p1_path(1)[0] == PRIOR_FLOOR


class TestSampleStep:
    def test_label_frequency_matches_prior(self):
        scenario = StreamScenario(unit_problem(),
                                  PriorTrajectory(kind="constant", p_before=0.25),
                                  horizon=1)
        rng = np.random.default_rng(8)
        draws = [sample_step(scenario, 0, rng)[1] for _ in range(5000)]
        assert abs(np.mean(draws) - 0.25) < 0.02

    def test_reports_true_prior(self):
        traj = PriorTrajectory(kind="abrupt", p_before=0.1, p_after=0.4,
                               t_switch=3, decay_steps=0)
        scenario = StreamScenario(unit_problem(), traj, horizon=10)
        rng = np.random.default_rng(0)
        assert sample_step(scenario, 2, rng)[2] == pytest.approx(0.1)
        assert sample_step(scenario, 3, rng)[2] == pytest.approx(0.4)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            StreamScenario(unit_problem(), PriorTrajectory(), horizon=0)


class TestOracle:
    def test_threshold(self):
        assert oracle_threshold(1.0, 0.5) == pytest.approx(1.0)
        assert oracle_threshold(2.0, 0.2) == pytest.approx(8.0)

    def test_decision_examples(self):
        assert oracle_decision(np.log(1.5), 1.0, 0.5) == 1
        assert oracle_decision(np.log(0.5), 1.0, 0.5) == 0
        assert oracle_decision(0.0, 1.0, 0.5) == 0  # tie goes to 0

    def test_rejects_degenerate_prior(self):
        with pytest.raises(ValueError):
            oracle_decision(0.0, 1.0, 0.0)

    def test_minimizes_expected_cost(self):
        # the threshold qc (1 - p1) / p1 is the Bayes rule for the cost
        # structure with unit miss cost and false-alarm cost qc, so on random
        # instances the oracle action never has higher expected cost than the
        # alternative under that structure
        rng = np.random.default_rng(13)
        prob = unit_problem()
        for _ in range(50):
            qc = float(rng.uniform(0.2, 5.0))
            p1 = float(rng.uniform(0.05, 0.95))
            x = np.array([rng.normal(0, 2)])
            pred = oracle_decision(float(prob.log_lr(x)), qc, p1)
            post = float(prob.posterior(x, p1))
            cost = {0: post, 1: qc * (1.0 - post)}
            assert cost[pred] <= min(cost.values()) + 1e-12


class TestRunRegretExperiment:
    def scenario(self, horizon=300):
        traj = PriorTrajectory(kind="constant", p_before=0.3)
        return StreamScenario(unit_problem(), traj, horizon=horizon)

    def run(self, scenario, cfg, seed, log_lrs=None):
        stream = scenario.draw(np.random.default_rng(seed))
        return run_regret_experiment(scenario, cfg, stream, log_lrs)

    def test_ledger_shapes(self):
        ledger, trace = self.run(self.scenario(), AdapterConfig(), 0)
        assert len(trace) == 300
        for arr in (ledger.alg_loss, ledger.oracle_loss, ledger.cum_regret):
            assert arr.shape == (300,)
        assert list(ledger.t[:3]) == [1, 2, 3]

    def test_expected_regret_nonnegative_and_monotone(self):
        # the oracle minimizes per-step expected cost, so cumulative expected
        # regret never decreases, for every seed and cost ratio
        for qc in (1.0, 0.3, 3.0):
            for seed in range(20):
                ledger, _ = self.run(self.scenario(horizon=150),
                                     AdapterConfig(qc=qc, initial_p1=0.5), seed)
                increments = np.diff(np.concatenate([[0.0], ledger.cum_regret]))
                assert np.all(increments >= -1e-12), (qc, seed)

    def test_realized_losses_are_cost_values(self):
        ledger, _ = self.run(self.scenario(horizon=200), AdapterConfig(qc=3.0), 2)
        assert set(np.unique(ledger.alg_loss)) <= {0.0, 1.0, 3.0}
        assert set(np.unique(ledger.oracle_loss)) <= {0.0, 1.0, 3.0}

    def test_oracle_tracking_adapter_agrees_with_oracle(self):
        # an adapter pinned at the true prior with no updates reproduces the
        # oracle decisions exactly, so regret is identically zero
        cfg = AdapterConfig(initial_p1=0.3, gamma=0.999999, delta_max=1e-12,
                            alpha=1e-12)
        ledger, _ = self.run(self.scenario(horizon=200), cfg, 3)
        np.testing.assert_allclose(ledger.cum_regret, 0.0, atol=1e-12)

    def test_custom_log_lr_source(self):
        # an inverted ratio makes the algorithm strictly worse
        scenario = self.scenario(horizon=400)
        stream = scenario.draw(np.random.default_rng(4))
        bad = -scenario.problem.log_lr(stream[0])
        ledger, _ = run_regret_experiment(scenario, AdapterConfig(initial_p1=0.3),
                                          stream, bad)
        assert ledger.cum_regret[-1] > 1.0

    def test_log_lrs_must_cover_the_stream(self):
        scenario = self.scenario(horizon=20)
        stream = scenario.draw(np.random.default_rng(5))
        with pytest.raises(ValueError, match="20 rows"):
            run_regret_experiment(scenario, AdapterConfig(), stream, np.zeros(19))

    @pytest.mark.parametrize("qc", [1.0, 3.0])
    @pytest.mark.parametrize("source", ["analytic", "custom"])
    def test_matches_per_step_reference(self, qc, source):
        # the ledger computed over the whole stream equals a step-by-step
        # reference over the drawn stream's rows, bit for bit
        scenario = StreamScenario(
            GaussianProblem(mu0=np.full(3, -0.5), mu1=np.full(3, 0.5)),
            PriorTrajectory(kind="linear_drift", p_start=0.05, slope=1e-3, p_cap=0.4),
            horizon=400)
        stream = scenario.draw(np.random.default_rng(11))
        custom = lambda x: 0.7 * scenario.problem.log_lr(x) - 0.2
        source_fn = scenario.problem.log_lr if source == "analytic" else custom
        cfg = AdapterConfig(qc=qc, initial_p1=0.2)
        got, got_trace = run_regret_experiment(
            scenario, cfg, stream, None if source == "analytic" else custom(stream[0]))

        state = init(cfg)
        rows, trace, cum = [], [], 0.0
        for x, y, p1 in zip(*stream):
            pred, record = step(state, float(source_fn(x)))
            trace.append(record)
            pred_star = oracle_decision(float(scenario.problem.log_lr(x)), qc, p1)
            post = float(scenario.problem.posterior(x, p1))
            cost = lambda d: post if d == 0 else qc * (1.0 - post)
            cum += cost(pred) - cost(pred_star)
            rows.append((cost_sensitive_loss(pred, y, qc),
                         cost_sensitive_loss(pred_star, y, qc),
                         cost(pred), cost(pred_star), cum))
        want = np.array(rows).T
        for arr, ref in zip((got.alg_loss, got.oracle_loss, got.alg_expected,
                             got.oracle_expected, got.cum_regret), want):
            assert arr.tobytes() == ref.tobytes()
        assert [r.to_json() for r in got_trace] == [r.to_json() for r in trace]
        assert got.cum_regret[-1] > 0.0

    def test_well_separated_problem_ledger_finite(self):
        # class means +-40 give log-LRs far beyond exp's range; the expected
        # losses and the regret must stay finite
        scenario = StreamScenario(
            GaussianProblem(mu0=np.array([-40.0]), mu1=np.array([40.0]), sigma2=1.0),
            PriorTrajectory(kind="constant", p_before=0.3), horizon=50)
        ledger, _ = self.run(scenario, AdapterConfig(), 0)
        for arr in (ledger.alg_expected, ledger.oracle_expected, ledger.cum_regret):
            assert np.all(np.isfinite(arr))

    def test_deterministic_given_rng_seed(self):
        a, _ = self.run(self.scenario(), AdapterConfig(), 7)
        b, _ = self.run(self.scenario(), AdapterConfig(), 7)
        np.testing.assert_array_equal(a.cum_regret, b.cum_regret)

    def test_rows_iteration(self):
        ledger = RegretLedger(np.array([1]), np.array([1.0]), np.array([0.0]),
                              np.array([0.6]), np.array([0.4]), np.array([0.2]))
        assert list(ledger.rows()) == [(1, 1.0, 0.0, 0.2)]

