"""Trajectory runner, replication engine, diagnostics, CADR baseline."""

from dataclasses import fields

import numpy as np
import pytest

from banditlab.env import build_environment
from banditlab.estimator import ScoreTarget, TargetPolicy, write_log_csv
from banditlab.harness import (
    ExperimentConfig,
    _run_block,
    _run_trajectory_core,
    cadr_ope,
    convergence_diagnostic,
    oracle_thetas,
    qq_points,
    replicate,
    run_trajectory,
)
from banditlab.inference import norm_ppf, ope_value
from banditlab.policy import POLICY_KINDS, PolicyConfig, PolicyState

MISSPEC = ScoreTarget(family="misspec_linear")
OPE_UNIFORM = ScoreTarget(family="ope", target_policy=TargetPolicy(kind="uniform"))
LOOPED_KINDS = tuple(k for k in POLICY_KINDS if k != "random")


class TestRunTrajectory:
    def test_zero_horizon_empty_log(self):
        env = build_environment("nonconv_demo")
        log = run_trajectory(env, PolicyConfig(kind="random"), None, 0, seed=1)
        assert log.horizon == 0

    def test_random_policy_logs_half(self):
        env = build_environment("nonconv_demo")
        log = run_trajectory(env, PolicyConfig(kind="random"), None, 100, seed=2)
        assert np.all(log.propensities == 0.5)
        np.testing.assert_allclose(log.distributions, 0.5)

    def test_byte_identical_csv_for_same_seed(self, tmp_path):
        env = build_environment("nc_hard1")
        config = PolicyConfig(kind="boltzmann_ridge", gamma=4.0)
        for name in ("a.csv", "b.csv"):
            log = run_trajectory(env, config, MISSPEC, 300, seed=5)
            write_log_csv(log, tmp_path / name)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_different_seeds_differ(self):
        env = build_environment("nonconv_demo")
        a = run_trajectory(env, PolicyConfig(kind="random"), None, 50, seed=1)
        b = run_trajectory(env, PolicyConfig(kind="random"), None, 50, seed=2)
        assert not np.array_equal(a.outcomes, b.outcomes)

    def test_only_chosen_arm_outcome_logged(self):
        env = build_environment("nonconv_demo", {"sigma_eta": 0.0})
        log = run_trajectory(env, PolicyConfig(kind="random"), None, 40, seed=3)
        means = np.array([0.5, 1.0 / 12.0])
        np.testing.assert_allclose(log.outcomes, means[log.arms])

    def test_ucb_forced_initialization_rounds(self):
        env = build_environment("nonconv_demo")
        log = run_trajectory(env, PolicyConfig(kind="ucb_mab", pi_min=0.05), None, 10, seed=4)
        assert log.arms[0] == 0 and log.arms[1] == 1
        assert log.propensities[0] == 1.0 and log.propensities[1] == 1.0
        assert np.all(log.propensities[2:] >= 0.05)


def _block_cases():
    targets = {
        "nc_hard1": {"misspec_linear": MISSPEC,
                     "noisy_context": ScoreTarget(family="noisy_context", sigma_e=[[2.0]]),
                     "ope": OPE_UNIFORM},
        "nc_gaussian": {"misspec_linear": MISSPEC,
                        "noisy_context": ScoreTarget(family="noisy_context",
                                                     sigma_e=[[1.0, 0.0], [0.0, 1.0]]),
                        "ope": OPE_UNIFORM},
    }
    for env_name, by_family in targets.items():
        for kind in LOOPED_KINDS:
            families = ("misspec_linear", "noisy_context", "ope") \
                if kind in ("boltzmann_sgd", "ipwz_greedy") else ("misspec_linear",)
            for family in families:
                if kind == "boltzmann_sgd" and family == "ope" and env_name == "nc_gaussian":
                    continue  # a one-coefficient working model cannot score a 2-d context
                yield pytest.param(env_name, kind, by_family[family],
                                   id=f"{env_name}-{kind}-{family}")


def _assert_states_equal(got: PolicyState, want: PolicyState, what: str):
    for f in fields(PolicyState):
        if f.name in ("target", "block"):
            continue
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert (a is None) == (b is None), f"{what}: {f.name}"
        if a is not None:
            np.testing.assert_array_equal(a, b, err_msg=f"{what}: {f.name}")


@pytest.mark.parametrize("env_name, kind, target", _block_cases())
def test_block_layout_invariance(env_name, kind, target):
    # Each replication's log and final state are the same bits whether it
    # runs alone or in a lockstep block of 1, 3 or all R.
    env = build_environment(env_name)
    policy = PolicyConfig(kind=kind, pi_min=0.05, gamma=2.0)
    R, T, seed = 5, 150, 41
    reference = [_run_trajectory_core(env, policy, target, T, seed, (rep,)) for rep in range(R)]
    for rep, (log, _) in enumerate(reference):
        alone = run_trajectory(env, policy, target, T, seed, stream_path=(rep,))
        for name in ("contexts", "arms", "propensities", "outcomes", "distributions"):
            np.testing.assert_array_equal(getattr(alone, name), getattr(log, name))
    for size in (1, 3, R):
        for start in range(0, R, size):
            reps = range(start, min(start + size, R))
            logs, state = _run_block(env, policy, target, T, seed, [(rep,) for rep in reps])
            for i, rep in enumerate(reps):
                want_log, want_state = reference[rep]
                what = f"block of {size}, rep {rep}"
                for name in ("contexts", "arms", "propensities", "outcomes", "distributions",
                             "latents"):
                    np.testing.assert_array_equal(getattr(logs[i], name),
                                                  getattr(want_log, name), err_msg=what)
                _assert_states_equal(state.row(i), want_state, what)


class TestReplicate:
    def test_single_replication_indicator_coverage(self):
        env = build_environment("nonconv_demo")
        config = ExperimentConfig(env=env, policy=PolicyConfig(kind="random"),
                                  target=MISSPEC, horizon=500, replications=1, seed=11)
        summary = replicate(config)
        for row in summary.coverage_table():
            assert row["coverage"] in (0.0, 1.0)

    def test_degenerate_noiseless_linear_env(self):
        env = build_environment("ms_polynomial",
                                {"degree": 1, "theta": [[2.0], [-1.0]], "sigma_eta": 0.0})
        config = ExperimentConfig(env=env, policy=PolicyConfig(kind="random"),
                                  target=MISSPEC, horizon=400, replications=5, seed=12)
        summary = replicate(config)
        assert np.all(summary.covered)          # zero-width CIs contain theta* exactly
        assert np.all(summary.sigma_diag < 1e-12)

    def test_serial_equals_parallel(self):
        # One block of 8 serially, two blocks of 4 on the pool; random runs
        # one replication per task.
        env = build_environment("nc_hard1")
        for kind in POLICY_KINDS:
            base = dict(env=env, policy=PolicyConfig(kind=kind, gamma=2.0), target=MISSPEC,
                        horizon=300, replications=8, seed=13,
                        diagnostic_contexts=((1.0,), (-2.0,)))
            serial = replicate(ExperimentConfig(**base, workers=1))
            parallel = replicate(ExperimentConfig(**base, workers=2))
            np.testing.assert_array_equal(serial.theta_hat, parallel.theta_hat, err_msg=kind)
            np.testing.assert_array_equal(serial.covered, parallel.covered, err_msg=kind)
            np.testing.assert_array_equal(serial.last_step_probs, parallel.last_step_probs,
                                          err_msg=kind)
            assert serial.failures == parallel.failures

    def test_serial_equals_parallel_ope_with_cadr(self):
        env = build_environment("nonconv_demo")
        base = dict(env=env, policy=PolicyConfig(kind="boltzmann_ridge", gamma=20.0),
                    target=OPE_UNIFORM, horizon=200, replications=6, seed=18,
                    levels=(0.5, 0.95))
        serial = replicate(ExperimentConfig(**base, workers=1), cadr_regressions=("zero",))
        parallel = replicate(ExperimentConfig(**base, workers=2), cadr_regressions=("zero",))
        np.testing.assert_array_equal(serial.ope_values, parallel.ope_values)
        np.testing.assert_array_equal(serial.ope_covered, parallel.ope_covered)
        np.testing.assert_array_equal(serial.cadr_values["zero"], parallel.cadr_values["zero"])
        np.testing.assert_array_equal(serial.cadr_covered["zero"],
                                      parallel.cadr_covered["zero"])

    def test_coverage_monotone_in_level(self):
        env = build_environment("nc_gaussian", seed=3)
        config = ExperimentConfig(env=env, policy=PolicyConfig(kind="random"),
                                  target=MISSPEC, horizon=1000, replications=60,
                                  seed=14, levels=(0.5, 0.8, 0.95))
        summary = replicate(config)
        R = summary.replications_used
        table = {(r["level"], r["arm"], r["coord"]): r["coverage"]
                 for r in summary.coverage_table()}
        slack = 2.0 / np.sqrt(R)
        for arm in range(2):
            for coord in range(2):
                assert table[(0.5, arm, coord)] <= table[(0.8, arm, coord)] + slack
                assert table[(0.8, arm, coord)] <= table[(0.95, arm, coord)] + slack

    def test_diagnostic_context_outside_support_rejected(self):
        env = build_environment("nonconv_demo")
        with pytest.raises(ValueError, match="support"):
            ExperimentConfig(env=env, policy=PolicyConfig(kind="random"),
                             target=MISSPEC, horizon=10, replications=1,
                             diagnostic_contexts=((3.0,),))


class TestQqPoints:
    def test_two_point_example(self):
        pts = qq_points([-1.0, 1.0])
        assert pts[0][0] == pytest.approx(norm_ppf(0.25))
        assert pts[1][0] == pytest.approx(0.67449, abs=5e-6)
        assert pts[0][1] == -1.0 and pts[1][1] == 1.0

    def test_constant_input(self):
        pts = qq_points([2.0, 2.0, 2.0])
        assert all(e == 2.0 for _, e in pts)

    def test_exact_quantiles_on_diagonal(self):
        n = 101
        values = norm_ppf((np.arange(1, n + 1) - 0.5) / n)
        pts = qq_points(values)
        assert max(abs(t - e) for t, e in pts) < 1e-9

    def test_too_few_values(self):
        with pytest.raises(ValueError):
            qq_points([1.0])


class TestConvergenceDiagnostic:
    def test_random_policy_mass_at_half(self):
        env = build_environment("nonconv_demo")
        config = ExperimentConfig(env=env, policy=PolicyConfig(kind="random"),
                                  target=MISSPEC, horizon=50, replications=20,
                                  seed=15, diagnostic_contexts=((-4.0,),))
        summary = replicate(config)
        diag = convergence_diagnostic(summary, np.array([-4.0]), arm=1)
        assert diag.spread == 0.0
        assert diag.low_mass == 0.0 and diag.high_mass == 0.0
        assert diag.counts.sum() == 20
        assert diag.counts[25] == 20  # bin [0.50, 0.52)

    def test_unregistered_context_rejected(self):
        env = build_environment("nonconv_demo")
        config = ExperimentConfig(env=env, policy=PolicyConfig(kind="random"),
                                  target=MISSPEC, horizon=20, replications=2,
                                  seed=16, diagnostic_contexts=((-4.0,),))
        summary = replicate(config)
        with pytest.raises(ValueError, match="not registered"):
            convergence_diagnostic(summary, np.array([1.0]), arm=0)

    def test_boltzmann_spread_small(self):
        # Convergent policy: across-replication spread of the last-step
        # probability is small.
        env = build_environment("nonconv_demo")
        config = ExperimentConfig(
            env=env, policy=PolicyConfig(kind="boltzmann_ridge", gamma=50.0),
            target=MISSPEC, horizon=4000, replications=60, seed=17,
            diagnostic_contexts=((-4.0,),))
        summary = replicate(config)
        diag = convergence_diagnostic(summary, np.array([-4.0]), arm=1)
        assert diag.spread < 0.05


class TestCadr:
    def test_logging_equals_target_weights_cancel(self):
        # pi_e == logging policy and a zero outcome model: every D' is Y_t and
        # with equal sigma_t the estimate collapses to the sample mean.
        env = build_environment("nonconv_demo")
        log = run_trajectory(env, PolicyConfig(kind="random"), None, 400, seed=21)
        result = cadr_ope(log, TargetPolicy(kind="uniform"), regression="zero",
                          variance_floor=1e-12)
        dprime = log.outcomes  # ratio g*/g = 1
        sigmas = np.ones(400)
        for t in range(10, 400):
            past = dprime[:t]
            sigmas[t] = max(np.sqrt(past.var()), np.sqrt(1e-12))
        gamma = 1.0 / np.mean(1.0 / sigmas)
        want = gamma * np.mean(dprime / sigmas)
        assert result.value == pytest.approx(want, rel=1e-12)

    def test_constant_outcomes_recover_constant(self):
        env = build_environment("nonconv_demo", {"sigma_eta": 0.0,
                                                 "arm_means": (3.0, 3.0)})
        log = run_trajectory(env, PolicyConfig(kind="random"), None, 200, seed=22)
        result = cadr_ope(log, TargetPolicy(kind="uniform"), regression="zero",
                          variance_floor=1e-8)
        assert result.value == pytest.approx(3.0, abs=1e-9)
        # zero dispersion: every post-burn-in step hits the variance floor
        assert result.floored == 200 - 10

    def test_missing_distributions_rejected(self):
        env = build_environment("nonconv_demo")
        log = run_trajectory(env, PolicyConfig(kind="random"), None, 50, seed=23)
        log.distributions = None
        with pytest.raises(ValueError, match="distributions"):
            cadr_ope(log, TargetPolicy(kind="uniform"))

    def test_horizon_below_burn_in_rejected(self):
        env = build_environment("nonconv_demo")
        log = run_trajectory(env, PolicyConfig(kind="random"), None, 8, seed=24)
        with pytest.raises(ValueError, match="burn-in"):
            cadr_ope(log, TargetPolicy(kind="uniform"))

    def test_online_linear_regression_runs_and_covers(self):
        env = build_environment("nonconv_demo")
        log = run_trajectory(env, PolicyConfig(kind="boltzmann_ridge", gamma=20.0),
                             OPE_UNIFORM, 1500, seed=25)
        result = cadr_ope(log, TargetPolicy(kind="uniform"), regression="online_linear",
                          behavior_policy=PolicyConfig(kind="boltzmann_ridge", gamma=20.0))
        lo, hi = result.cis[0.95]
        assert lo < 7.0 / 24.0 < hi

    def test_replayed_weights_match_ratio_one_at_convergence(self):
        # For the random logging policy the replayed ratio is exactly 1, so
        # both paths agree to the last bit.
        env = build_environment("nonconv_demo")
        log = run_trajectory(env, PolicyConfig(kind="random"), None, 300, seed=26)
        without = cadr_ope(log, TargetPolicy(kind="uniform"))
        with_replay = cadr_ope(log, TargetPolicy(kind="uniform"),
                               behavior_policy=PolicyConfig(kind="random"))
        assert without.value == with_replay.value


def test_compare_ope_smoke():
    env = build_environment("nonconv_demo")
    config = ExperimentConfig(env=env, policy=PolicyConfig(kind="boltzmann_ridge", gamma=20.0),
                              target=OPE_UNIFORM, horizon=400, replications=10,
                              seed=27, levels=(0.95,))
    summary = replicate(config, cadr_regressions=("zero",))
    assert summary.v_star == pytest.approx(7.0 / 24.0)
    assert summary.ope_values.shape == (10,)
    assert summary.cadr_values["zero"].shape == (10,)
    assert 0.0 <= summary.ope_covered.mean() <= 1.0


def _reference_ope_loop(config: ExperimentConfig, regressions):
    """IPW-Z and CADR per replication in a plain serial loop over fresh trajectories."""
    v_star = float(oracle_thetas(config.env, config.target, n_oracle=config.n_oracle,
                                 seed=config.seed).sum())
    R, L = config.replications, len(config.levels)
    ipwz_values = np.zeros(R)
    ipwz_covered = np.zeros((L, R), dtype=bool)
    cadr_values = {reg: np.zeros(R) for reg in regressions}
    cadr_covered = {reg: np.zeros((L, R), dtype=bool) for reg in regressions}
    for rep in range(R):
        log = run_trajectory(config.env, config.policy, config.target,
                             config.horizon, config.seed, (rep,))
        report = ope_value(log, config.target, mode=config.variance_mode,
                           levels=config.levels)
        ipwz_values[rep] = report.value
        for li, level in enumerate(config.levels):
            lo, hi = report.cis[float(level)]
            ipwz_covered[li, rep] = lo <= v_star <= hi
        for reg in regressions:
            res = cadr_ope(log, config.target.target_policy, regression=reg,
                           levels=config.levels, behavior_policy=config.policy,
                           behavior_target=config.target)
            cadr_values[reg][rep] = res.value
            for li, level in enumerate(config.levels):
                lo, hi = res.cis[float(level)]
                cadr_covered[reg][li, rep] = lo <= v_star <= hi
    return v_star, ipwz_values, ipwz_covered, cadr_values, cadr_covered


class TestCadrInReplicate:
    REGRESSIONS = ("zero", "online_linear")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_reference_loop_bit_for_bit(self, workers):
        env = build_environment("nonconv_demo")
        config = ExperimentConfig(
            env=env, policy=PolicyConfig(kind="boltzmann_ridge", gamma=20.0, pi_min=0.05),
            target=OPE_UNIFORM, horizon=300, replications=6, seed=28,
            levels=(0.5, 0.95), workers=workers)
        v_star, ipwz_values, ipwz_covered, cadr_values, cadr_covered = \
            _reference_ope_loop(config, self.REGRESSIONS)
        summary = replicate(config, cadr_regressions=self.REGRESSIONS)
        assert summary.failures == []
        assert summary.v_star == v_star
        np.testing.assert_array_equal(summary.ope_values, ipwz_values)
        np.testing.assert_array_equal(summary.ope_covered, ipwz_covered)
        assert set(summary.cadr_values) == set(self.REGRESSIONS)
        for reg in self.REGRESSIONS:
            np.testing.assert_array_equal(summary.cadr_values[reg], cadr_values[reg])
            np.testing.assert_array_equal(summary.cadr_covered[reg], cadr_covered[reg])

    def test_failed_replications_drop_cadr_too(self):
        # Four arms over 12 rounds leave an arm unpulled in some replications;
        # those drop out of every estimator's arrays alike.
        env = build_environment("nc_gaussian", {"num_arms": 4}, seed=1)
        config = ExperimentConfig(env=env, policy=PolicyConfig(kind="random"),
                                  target=OPE_UNIFORM, horizon=12, replications=20,
                                  seed=29, levels=(0.95,), failure_tolerance=1.0)
        summary = replicate(config, cadr_regressions=("zero",))
        used = summary.replications_used
        assert summary.failures and used + len(summary.failures) == 20
        assert summary.ope_values.shape == (used,)
        assert summary.cadr_values["zero"].shape == (used,)
        assert summary.cadr_covered["zero"].shape == (1, used)

    def test_requires_ope_target(self):
        env = build_environment("nonconv_demo")
        config = ExperimentConfig(env=env, policy=PolicyConfig(kind="random"),
                                  target=MISSPEC, horizon=50, replications=1, seed=30)
        with pytest.raises(ValueError, match="ope-family"):
            replicate(config, cadr_regressions=("zero",))

    def test_no_regressions_no_cadr(self):
        env = build_environment("nonconv_demo")
        config = ExperimentConfig(env=env, policy=PolicyConfig(kind="random"),
                                  target=OPE_UNIFORM, horizon=50, replications=2, seed=31)
        summary = replicate(config)
        assert summary.cadr_values == {} and summary.cadr_covered == {}


def test_replicate_solves_each_arm_once(monkeypatch):
    # The OPE value reuses the per-arm estimates: K * R solves, not 2 * K * R.
    import banditlab.harness as harness
    import banditlab.inference as inference

    calls = []
    solve = inference.ipwz_solve

    def counting(*args, **kw):
        calls.append(args[2])
        return solve(*args, **kw)

    # Wherever the engine looks the solver up, the count sees it.
    monkeypatch.setattr(inference, "ipwz_solve", counting)
    monkeypatch.setattr(harness, "ipwz_solve", counting, raising=False)
    env = build_environment("nonconv_demo")
    config = ExperimentConfig(env=env, policy=PolicyConfig(kind="boltzmann_ridge", gamma=20.0),
                              target=OPE_UNIFORM, horizon=100, replications=3, seed=32)
    summary = replicate(config, cadr_regressions=("zero",))
    assert summary.failures == []
    assert calls == [0, 1] * 3


def test_unknown_cadr_regression_rejected_before_oracle(monkeypatch):
    import banditlab.harness as harness

    def no_oracle(*args, **kw):
        raise AssertionError("oracle computed before the regression names were checked")

    monkeypatch.setattr(harness, "oracle_thetas", no_oracle)
    env = build_environment("nonconv_demo")
    config = ExperimentConfig(env=env, policy=PolicyConfig(kind="random"),
                              target=OPE_UNIFORM, horizon=50, replications=1, seed=33)
    with pytest.raises(ValueError, match="unknown regression 'z'"):
        replicate(config, cadr_regressions="zero")
