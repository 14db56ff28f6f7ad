"""Acceptance gate: one check per release criterion, one report line each.

Each test prints `[criterion NN] PASS/FAIL — detail` before asserting, so the
captured output doubles as the release checklist.  Criteria that the design
cannot meet are asserted at their stated tolerances anyway and left red; why
each one is red is in the "Tests" section of the README, not here.
"""

import math

import numpy as np
import pytest

from obil.adapter import AdapterConfig, init, run_log_lr_stream, step
from obil.baselines import (bbse_estimate_prior, logit_adjust,
                            threshold_moving_fit)
from obil.bayes import (CostStructure, PriorPair, combined_threshold,
                        relative_lr_error_bound)
from obil.data import LabeledDataset, stratified_split
from obil.ensemble import EnsembleConfig, train_ensemble
from obil.experiment import fit_scorer_temperature, scorer_posteriors
from obil.losses import REGISTRY, get_loss
from obil.metrics import ConfusionCounts, ece_from_posteriors, f1
from obil.mlp import NetworkConfig, TrainingConfig, gradient_check, init_scorer, train
from obil.resampling import AssociatedProblemSpec, make_associated, smote_generate
from obil.simulate import (GaussianProblem, PriorTrajectory, StreamScenario,
                           oracle_threshold, run_regret_experiment)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def golden_min(fn, lo, hi, tol=1e-9):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return (a + b) / 2.0


def gaussian_problem():
    return GaussianProblem(mu0=np.array([-1.0]), mu1=np.array([1.0]), sigma2=1.0)


def test_criterion_01_bregman_population_minimizer():
    exact = [name for name, spec in REGISTRY.items() if spec.bregman_exact]
    worst = 0.0
    for name in exact:
        loss = get_loss(name)
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            def expected(o):
                return p * loss.value(o, 1) + (1.0 - p) * loss.value(o, -1)
            o_star = golden_min(expected, -1 + 1e-9, 1 - 1e-9)
            worst = max(worst, abs(o_star - (2.0 * p - 1.0)))
    ok = worst <= 1e-6
    assert report(1, ok, f"losses {exact}: max |argmin - (2p-1)| = {worst:.2e} "
                         f"(tolerance 1e-6)")


def test_criterion_02_gradient_correctness():
    rng = np.random.default_rng(2)
    x = rng.normal(0, 1, (8, 3))
    y = rng.integers(0, 2, 8)
    worst = {}
    for name in REGISTRY:
        cfg = NetworkConfig(input_dim=3, hidden_dims=(6, 5), seed=11)
        scorer = init_scorer(cfg, 1.0, name)
        weight = 3.0 if name == "squared_costweighted" else 1.0
        worst[name] = gradient_check(scorer, x, y, name, weight)
    ok = max(worst.values()) <= 1e-5
    assert report(2, ok, "max relative finite-difference error "
                         f"{max(worst.values()):.2e} over {sorted(worst)}")


def test_criterion_03_exact_transfer_identity():
    from obil.bayes import lr_from_posterior
    worst = 0.0
    for q_l in np.exp(np.linspace(-6, 6, 100)):
        for qp in (0.5, 1.0, 2.0, 5.0, 10.0):
            p1 = 1.0 / (1.0 + qp)
            post = q_l * p1 / (q_l * p1 + 1.0 - p1)
            worst = max(worst, abs(lr_from_posterior(post, qp) - q_l) / q_l)
    ok = worst <= 1e-12
    assert report(3, ok, f"max relative recovery error {worst:.2e} across "
                         "ratio grids at five modified priors")


def test_criterion_04_learned_transfer():
    problem = gaussian_problem()
    rng = np.random.default_rng(4)
    ds = problem.sample_dataset(6000, 1.0 / 6.0, rng)
    cfg = EnsembleConfig(target_qps=(1.0, 2.0, 5.0), mc_samples=10)
    net = NetworkConfig(input_dim=1, hidden_dims=(32, 16), dropout_rate=0.1)
    tc = TrainingConfig(max_epochs=60, batch_size=64)
    ens = train_ensemble(ds, cfg, net, tc, "squared", seed=4)
    grid = np.linspace(-1.5, 1.5, 121)[:, None]
    truth = 2.0 * grid[:, 0]
    rmses = []
    for k in range(3):
        got = np.atleast_1d(ens.member_log_lr(k, grid))
        rmses.append(float(np.sqrt(np.mean((got - truth) ** 2))))
    fused = ens.fused_log_lr_batch(grid, np.random.default_rng(0))
    fused_rmse = float(np.sqrt(np.mean((fused - truth) ** 2)))
    ok = max(rmses) < 0.35 and fused_rmse <= max(rmses) + 1e-12
    assert report(4, ok, f"member RMSEs {[round(r, 3) for r in rmses]} "
                         f"(< 0.35), fused {fused_rmse:.3f} (<= worst member)")


def test_criterion_05_error_propagation_bound():
    # exhaustive check of the published bound against the realized relative
    # LR error from a signed posterior perturbation of magnitude eps
    violations = 0
    checked = 0
    u_shape_misses = 0
    p_grid = np.linspace(0.05, 0.95, 100)
    for frac in np.linspace(0.01, 0.99, 100):
        vals = []
        for p in p_grid:
            eps = frac * min(p, 1.0 - p) / 2.0
            bound = relative_lr_error_bound(p, eps)
            vals.append(bound)
            q = p / (1.0 - p)
            for p_hat in (p + eps, p - eps):
                err = abs(p_hat / (1.0 - p_hat) - q) / q
                checked += 1
                if err > bound + 1e-12:
                    violations += 1
        # the criterion claims a U shape with minimum at p = 0.5
        center = int(np.argmin(np.abs(p_grid - 0.5)))
        if int(np.argmin(vals)) != center:
            u_shape_misses += 1
    ok = violations == 0 and u_shape_misses == 0
    assert report(5, ok, f"{violations}/{checked} grid points exceed the bound; "
                         f"U-shape minimum off p=0.5 for {u_shape_misses}/100 "
                         "epsilon rows")


def test_criterion_06_calibration_gate():
    problem = gaussian_problem()
    rng = np.random.default_rng(6)
    train_set = problem.sample_dataset(4000, 0.5, rng)
    test_set = problem.sample_dataset(5000, 0.5, rng)
    net = NetworkConfig(input_dim=1, hidden_dims=(32, 16), seed=6)
    tc = TrainingConfig(max_epochs=40, batch_size=64)

    sq = train(train_set, net, tc, "squared")
    ece_sq = ece_from_posteriors(scorer_posteriors(sq, test_set.features),
                                 test_set.labels).value

    fit_part, cal_part = stratified_split(train_set, [0.8], seed=6)
    xe = train(fit_part, net, tc, "xent_sigmoid")
    fit_scorer_temperature(xe, cal_part)
    ece_xe = ece_from_posteriors(scorer_posteriors(xe, test_set.features),
                                 test_set.labels).value
    ok = ece_sq < 0.05 and ece_xe < 0.05
    assert report(6, ok, f"squared ECE {ece_sq:.4f}, cross-entropy ECE after "
                         f"temperature fitting {ece_xe:.4f} (gate 0.05, 15 bins)")


def test_criterion_07_resampling_fidelity():
    rng = np.random.default_rng(7)
    n0 = 2000
    x = np.concatenate([rng.normal(-1, 1, n0), rng.normal(1, 1, 100)])[:, None]
    y = np.concatenate([np.zeros(n0, dtype=int), np.ones(100, dtype=int)])
    ds = LabeledDataset(x, y)
    edges = np.linspace(-4, 2, 21)
    full = np.histogram(x[:n0, 0], bins=edges)[0] / n0
    reps = 100
    acc = np.zeros(20)
    for r in range(reps):
        out = make_associated(ds, AssociatedProblemSpec(target_qp=2.0, seed=r))
        kept = out.features[out.labels == 0, 0]
        acc += np.histogram(kept, bins=edges)[0] / len(kept)
    se = np.sqrt(np.maximum(full * (1 - full), 1e-12) / (200 * reps))
    hist_ok = bool(np.all(np.abs(acc / reps - full) <= 3 * se + 1e-3))

    base = rng.normal(0, 1, (400, 1))
    synth = smote_generate(base, 100000, k_neighbors=399, seed=7)
    ratio = float(np.var(synth) / np.var(base))
    smote_ok = abs(ratio - 2.0 / 3.0) < 0.02
    ok = hist_ok and smote_ok
    assert report(7, ok, f"undersampling histogram within 3 SE: {hist_ok}; "
                         f"SMOTE variance ratio {ratio:.4f} vs 2/3")


def test_criterion_08_stationary_consistency():
    problem = gaussian_problem()
    results = {}
    for p1 in (0.1, 0.25, 0.5):
        averages = []
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            labels = (rng.random(4000) < p1).astype(int)
            feats = problem.sample(labels, rng)
            trace = run_log_lr_stream(problem.log_lr(feats), AdapterConfig())
            hats = np.array([r.p1_hat_after for r in trace])
            averages.append(float(hats[2000:4000].mean()))
        results[p1] = float(np.mean(averages))
    errs = {p1: abs(v - p1) for p1, v in results.items()}
    ok = max(errs.values()) <= 0.03
    detail = ", ".join(f"P1={p1}: mean p1_hat {results[p1]:.3f} "
                       f"(err {errs[p1]:.3f})" for p1 in results)
    assert report(8, ok, detail + "; tolerance 0.03 on steps 2000-4000")


def test_criterion_09_abrupt_shift_tracking():
    problem = gaussian_problem()
    traj = PriorTrajectory(kind="abrupt", p_before=0.03, p_after=0.12,
                           t_switch=500, decay_steps=0)
    half = (0.03 + 0.12) / 2.0
    lags = []
    for seed in range(10):
        rng = np.random.default_rng(900 + seed)
        p1s = np.array([traj.p1_at(t) for t in range(1500)])
        labels = (rng.random(1500) < p1s).astype(int)
        feats = problem.sample(labels, rng)
        trace = run_log_lr_stream(problem.log_lr(feats),
                                  AdapterConfig(alpha=0.05))
        hats = np.array([r.p1_hat_after for r in trace])
        crossed = np.flatnonzero(hats[500:] >= half)
        lags.append(int(crossed[0]) if crossed.size else 1000)
    med = float(np.median(lags))
    ok = med <= 100
    assert report(9, ok, f"half-recovery lags {lags}; median {med:.0f} "
                         "(limit 100)")


def test_criterion_10_sublinear_regret():
    problem = gaussian_problem()
    traj = PriorTrajectory(kind="linear_drift", p_start=0.2, slope=0.002,
                           p_cap=0.8)
    T = 2000
    curves = []
    for seed in range(15):
        scenario = StreamScenario(problem, traj, horizon=T)
        ledger, _ = run_regret_experiment(
            scenario, AdapterConfig(initial_p1=0.2),
            scenario.draw(np.random.default_rng(1000 + seed)))
        curves.append(ledger.cum_regret)
    mean_curve = np.mean(curves, axis=0)
    t = np.arange(1, T + 1)
    window = (t >= 200) & (t <= 2000)
    slope = np.polyfit(np.log(t[window]), np.log(np.maximum(mean_curve[window],
                                                            1e-9)), 1)[0]
    steps = np.diff(np.concatenate([[0.0], mean_curve]))
    early = float(steps[199:400].mean())
    late = float(steps[1799:2000].mean())
    ok = slope < 0.85 and late < early
    assert report(10, ok, f"log-log regret slope {slope:.3f} (< 0.85); "
                          f"per-step regret early {early:.4f} vs late {late:.4f}")


def test_criterion_11_directional_shift_advantage():
    # training ratio 4; test priors at 4x and 1/4 of the training minority odds.
    # At the x4 shift the F1-optimal cut is not the Bayes cut: on this problem
    # the population F1 of vanilla's stale cut (0.530) beats the oracle's
    # (0.471), so that half is judged by the qc = 1 risk the adapter minimises,
    # the misclassification rate, against the analytic oracle on the same rows.
    problem = gaussian_problem()
    train_p1 = 0.2
    targets = {"x4": 1.0 / 17.0, "div4": 0.5}
    gaps = {k: [] for k in targets}
    x4_err = {k: [] for k in ("vanilla", "obil", "oracle")}
    for seed in range(10):
        rng = np.random.default_rng(1100 + seed)
        ds = problem.sample_dataset(3000, train_p1, rng)
        net = NetworkConfig(input_dim=1, hidden_dims=(64, 32),
                            dropout_rate=0.1, seed=seed)
        tc = TrainingConfig(max_epochs=40, batch_size=64)
        ens = train_ensemble(ds, EnsembleConfig(target_qps=(1.0, 2.0, 4.0),
                                                mc_samples=10),
                             net, tc, "squared", seed=seed)
        vanilla = train(ds, net, tc, "squared")
        fixed_threshold = vanilla.training_qp  # qc = 1
        for name, test_p1 in targets.items():
            labels = (rng.random(2000) < test_p1).astype(int)
            feats = problem.sample(labels, rng)
            fused = ens.fused_log_lr_batch(feats, rng)
            trace = run_log_lr_stream(fused, AdapterConfig(initial_p1=train_p1))
            obil_pred = np.array([r.prediction for r in trace])
            van_pred = (np.exp(np.atleast_1d(vanilla.log_lr(feats)))
                        > fixed_threshold).astype(int)
            obil_f1 = f1(ConfusionCounts.from_predictions(obil_pred, labels)).value
            van_f1 = f1(ConfusionCounts.from_predictions(van_pred, labels)).value
            gaps[name].append(obil_f1 - van_f1)
            if name == "x4":
                oracle_pred = (problem.log_lr(feats)
                               > math.log(oracle_threshold(1.0, test_p1))).astype(int)
                for key, pred in (("vanilla", van_pred), ("obil", obil_pred),
                                  ("oracle", oracle_pred)):
                    x4_err[key].append(float(np.mean(pred != labels)))
    means = {k: float(np.mean(v)) for k, v in gaps.items()}
    err = {k: float(np.mean(v)) for k, v in x4_err.items()}
    risk_gain = err["vanilla"] - err["obil"]
    oracle_gain = err["vanilla"] - err["oracle"]
    ok = risk_gain >= 0.5 * oracle_gain and means["div4"] >= 0.05
    assert report(11, ok, f"mean F1 advantage over vanilla: x4 shift "
                          f"{means['x4']:+.3f} (reported), /4 shift "
                          f"{means['div4']:+.3f} (needed >= +0.05); x4 error "
                          f"rate vanilla {err['vanilla']:.4f}, OBIL "
                          f"{err['obil']:.4f}, oracle {err['oracle']:.4f} "
                          "(OBIL must close >= half of vanilla's excess)")


def test_criterion_12_baseline_identities():
    rng = np.random.default_rng(12)
    la_ok = True
    for _ in range(200):
        train_p1 = float(rng.uniform(0.05, 0.95))
        test_p1 = float(rng.uniform(0.05, 0.95))
        log_q = float(rng.normal(0, 3))
        z = log_q + math.log(train_p1 / (1.0 - train_p1))
        via_logit = logit_adjust(z, train_p1, test_p1) > 0
        thr = combined_threshold(CostStructure(), PriorPair(test_p1))
        if via_logit != (math.exp(log_q) > thr):
            la_ok = False

    bbse_worst = 0.0
    for _ in range(100):
        acc0, acc1 = rng.uniform(0.55, 0.99, 2)
        c = np.array([[acc0, 1.0 - acc1], [1.0 - acc0, acc1]])
        p1_true = float(rng.uniform(0.01, 0.99))
        mu = c @ np.array([1.0 - p1_true, p1_true])
        _, p1 = bbse_estimate_prior(c, mu)
        bbse_worst = max(bbse_worst, abs(p1 - p1_true))
    bbse_ok = bbse_worst <= 1e-10

    tm_ok = True
    for _ in range(30):
        n = int(rng.integers(5, 120))
        s = np.round(rng.random(n), 2)
        y = rng.integers(0, 2, n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        if np.unique(s).size < 2:
            continue
        thr, best = threshold_moving_fit(s, y)
        cuts = np.concatenate([np.unique(s) - 1e-9, np.unique(s) + 1e-9])
        sweep = max(f1(ConfusionCounts.from_predictions((s > c_).astype(int),
                                                        y)).value for c_ in cuts)
        if abs(best - sweep) > 1e-12:
            tm_ok = False
    ok = la_ok and bbse_ok and tm_ok
    assert report(12, ok, f"LA==Bayes decisions: {la_ok}; BBSE max error "
                          f"{bbse_worst:.1e} (<= 1e-10); threshold-moving "
                          f"matches sweep: {tm_ok}")


def test_criterion_13_adapter_safety():
    cfg = AdapterConfig()
    state = init(cfg)
    rng = np.random.default_rng(13)
    eta = cfg.prior_floor
    bounded = clamped_ok = threshold_ok = True
    for _ in range(100000):
        log_lr = float(rng.uniform(-50.0, 50.0))
        prev = state.p1_hat
        _, record = step(state, log_lr)
        if not (eta <= state.p1_hat <= 1.0 - eta):
            bounded = False
        if record.clamped and abs(state.p1_hat - prev) > cfg.delta_max + 1e-15:
            clamped_ok = False
        want = cfg.qc * (1.0 - state.p1_hat) / state.p1_hat
        if abs(record.threshold_after - want) > 1e-12 * want:
            threshold_ok = False
    ok = bounded and clamped_ok and threshold_ok
    assert report(13, ok, f"bounds kept: {bounded}; clamp contract: "
                          f"{clamped_ok}; threshold consistency 1e-12: "
                          f"{threshold_ok} over 1e5 adversarial steps")
