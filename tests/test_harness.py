"""Trajectory runner, replication engine, diagnostics, CADR baseline."""

import hashlib
import json
import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import assert_logs_equal, one_round, reference_cadr_loop, run_block_digest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditlab.cli import build_experiment
from banditlab.env import EnvironmentSpec, RewardModel, build_environment, distinct_rows, support
from banditlab.estimator import (NoDataForArm, ScoreTarget, SingularDesign, TargetPolicy,
                                 read_log_csv, write_log_csv)
from banditlab.harness import (
    BehaviorTable,
    ExperimentConfig,
    _analyse,
    _replicate_block,
    _run_block,
    _stack,
    cadr_ope,
    convergence_diagnostic,
    oracle_thetas,
    qq_points,
    replicate,
    run_trajectory,
)
from banditlab.inference import norm_ppf, ope_value
from banditlab.policy import POLICY_KINDS, PolicyConfig, new_policy

MISSPEC = ScoreTarget(family="misspec_linear")
OPE_UNIFORM = ScoreTarget(family="ope", target_policy=TargetPolicy(kind="uniform"))
LOOPED_KINDS = tuple(k for k in POLICY_KINDS if k != "random")
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestRunTrajectory:
    def test_zero_horizon_empty_log(self, tmp_path):
        # A zero horizon takes the general path and gives an empty log of the
        # right shapes, probed or not, for every kind; it writes and reads back.
        for env_name in ("nonconv_demo", "nc_hard1"):
            env = build_environment(env_name)
            K, d = env.num_arms, env.context_dim
            probes = np.unique(np.array([x for _, _, x in support(env)]), axis=0)
            for kind in POLICY_KINDS:
                policy = PolicyConfig(kind=kind, pi_min=0.05, gamma=2.0)
                for probed in (None, probes):
                    what = f"{env_name} {kind} probed={probed is not None}"
                    (log,), _, table = _run_block(env, policy, OPE_UNIFORM, 0, 1, [(0,)],
                                                  probes=probed)
                    assert log.num_arms == K and log.contexts.shape == (0, d), what
                    assert log.arms.dtype == np.int64, what
                    for name in ("arms", "propensities", "outcomes"):
                        assert getattr(log, name).shape == (0,), what
                    if env.has_latent:
                        assert log.latents.shape == (0, d), what
                    else:
                        assert log.latents is None, what
                    if probed is None:
                        assert table is None, what
                    else:
                        assert table.shape == (1, 0, len(probes), K), what
                    write_log_csv(log, tmp_path / "log.csv")
                    # A header-only log cannot say whether latents exist: it reads without.
                    assert_logs_equal(read_log_csv(tmp_path / "log.csv", K),
                                      replace(log, latents=None), what)

    def test_random_policy_logs_half(self):
        env = build_environment("nonconv_demo")
        log = run_trajectory(env, PolicyConfig(kind="random"), None, 100, seed=2)
        assert np.all(log.propensities == 0.5)

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
                yield pytest.param(env_name, kind, by_family[family],
                                   id=f"{env_name}-{kind}-{family}")


def _assert_states_equal(got, i: int, want, what: str):
    """Row ``i`` of block policy ``got``'s statistics equals block-of-one policy ``want``'s."""
    assert (got.t, got.num_arms) == (want.t, want.num_arms), what
    assert list(got.stats) == list(want.stats), what
    for name, array in want.stats.items():
        np.testing.assert_array_equal(got.stats[name][i], array[0], err_msg=f"{what}: {name}")


@pytest.mark.parametrize("env_name, kind, target", _block_cases())
def test_block_layout_invariance(env_name, kind, target):
    # Each replication's log and final state are the same bits whether it
    # runs alone or in a lockstep block of 1, 3 or all R.
    env = build_environment(env_name)
    policy = PolicyConfig(kind=kind, pi_min=0.05, gamma=2.0)
    R, T, seed = 5, 150, 41
    reference = [_run_block(env, policy, target, T, seed, [(rep,)]) for rep in range(R)]
    for rep, ((log,), _, _) in enumerate(reference):
        assert_logs_equal(run_trajectory(env, policy, target, T, seed, stream_path=(rep,)), log)
    for size in (1, 3, R):
        for start in range(0, R, size):
            reps = range(start, min(start + size, R))
            logs, block, _ = _run_block(env, policy, target, T, seed, [(rep,) for rep in reps])
            for i, rep in enumerate(reps):
                (want_log,), want_policy, _ = reference[rep]
                what = f"block of {size}, rep {rep}"
                assert_logs_equal(logs[i], want_log, what)
                _assert_states_equal(block, i, want_policy, what)



def _assert_bits_equal(got, want, what):
    """Nested dicts of arrays or numbers (or None) are equal bit for bit, dtype included."""
    if isinstance(want, dict):
        assert list(got) == list(want), what
        for key in want:
            _assert_bits_equal(got[key], want[key], f"{what}[{key}]")
    elif want is None:
        assert got is None, what
    else:
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype and got.shape == want.shape, what
        assert got.tobytes() == want.tobytes(), what


def test_unpickled_config_gives_the_same_records():
    # A pool worker runs on an unpickled config. nonconv_demo's outcomes come
    # from constant per-arm means, tiled from the unpickled parameter array, so
    # they carry NumPy's unpickled float64 descriptor (equal to the canonical
    # one, but not that object) into every estimate made from the log.
    config = ExperimentConfig(
        env=build_environment("nonconv_demo"), policy=PolicyConfig(kind="random"),
        target=OPE_UNIFORM, horizon=300, replications=4, seed=45, levels=(0.5, 0.95),
        diagnostic_contexts=((-4.0,), (1.0,)), n_oracle=10_000,
        cadr_regressions=("zero", "online_linear"))
    thetas_star = oracle_thetas(config.env, config.target, n_oracle=config.n_oracle,
                                seed=config.seed)
    v_star = float(thetas_star.sum())
    blocks = [range(0, 2), range(2, 4)]
    want = _replicate_block(config, blocks, thetas_star, v_star)
    got = _replicate_block(pickle.loads(pickle.dumps(config)), blocks, thetas_star, v_star)
    assert got[2] == want[2] == []
    _assert_bits_equal(got[1], want[1], "diag_probs")
    _assert_bits_equal(got[0], want[0], "record")
    assert want[0]["theta_hat"].shape[0] == want[1].shape[0] == 4


def _replication_by_replication(config: ExperimentConfig):
    """A summary's record, last-step distributions and failures, built one
    replication at a time (a block of one each) and folded with ``_stack``."""
    thetas_star = oracle_thetas(config.env, config.target, n_oracle=config.n_oracle,
                                seed=config.seed)
    v_star = float(thetas_star.sum())
    sup = support(config.env)
    probes = None if sup is None else np.unique(np.array([x for _, _, x in sup]), axis=0)
    points = np.array(config.diagnostic_contexts, dtype=float)
    records, diags, failures = [], [], []
    for rep in range(config.replications):
        (log,), policy, table = _run_block(config.env, config.policy, config.target,
                                           config.horizon, config.seed, [(rep,)], probes=probes)
        diags.append(policy.distribution(points[None])[0])
        behavior = None if table is None else BehaviorTable(probes, table[0])
        try:
            records.append(_analyse(config, log, thetas_star, v_star, behavior))
        except (NoDataForArm, SingularDesign) as exc:
            failures.append((rep, str(exc)))
    return _stack(records), _stack(diags), failures


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", ["random_nc_gaussian", "ridge_nc_hard1_blocks_of_one"])
def test_task_folds_join_to_the_per_replication_fold(monkeypatch, case, workers):
    # 20 blocks of one replication each: 5 per task on one worker, 2 per task
    # on two. The tasks' folded records, joined, are the per-replication fold.
    import banditlab.harness as harness

    regressions = ("zero", "online_linear")
    if case == "random_nc_gaussian":
        # Replication 10 leaves an arm unpulled and fails; the continuous
        # contexts make CADR replay the policy at the log's distinct contexts.
        config = ExperimentConfig(
            env=build_environment("nc_gaussian", {"num_arms": 4}, seed=1),
            policy=PolicyConfig(kind="random"), target=OPE_UNIFORM, horizon=12,
            replications=20, seed=31, levels=(0.95,), diagnostic_contexts=((0.0, 0.0),),
            cadr_regressions=regressions, workers=workers)
    else:
        monkeypatch.setattr(harness, "BLOCK_CAP", 1)
        config = ExperimentConfig(
            env=build_environment("nc_hard1"),
            policy=PolicyConfig(kind="boltzmann_ridge", gamma=5.0, pi_min=0.05),
            target=OPE_UNIFORM, horizon=60, replications=20, seed=47, levels=(0.5, 0.95),
            diagnostic_contexts=((1.0,), (-2.0,)), cadr_regressions=regressions,
            workers=workers)
    record, diag, failures = _replication_by_replication(config)
    summary = replicate(config)
    for name in ("theta_hat", "sigma_diag", "std_errors", "covered", "values",
                 "value_covered", "value_floored"):
        _assert_bits_equal(getattr(summary, name), record[name], name)
    _assert_bits_equal(summary.last_step_probs, diag, "last_step_probs")
    assert summary.failures == failures
    assert [rep for rep, _ in failures] == ([10] if case == "random_nc_gaussian" else [])


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
        regressions = ("zero", "online_linear")
        serial = replicate(ExperimentConfig(**base, workers=1, cadr_regressions=regressions))
        parallel = replicate(ExperimentConfig(**base, workers=2, cadr_regressions=regressions))
        assert list(serial.values) == list(parallel.values) == \
            ["ipwz", "cadr_zero", "cadr_online_linear"]
        for method in serial.values:
            np.testing.assert_array_equal(serial.values[method], parallel.values[method])
            np.testing.assert_array_equal(serial.value_covered[method],
                                          parallel.value_covered[method])
        for method in serial.value_floored:
            np.testing.assert_array_equal(serial.value_floored[method],
                                          parallel.value_floored[method])

    def test_serial_equals_parallel_several_blocks_per_chunk(self):
        # 40 random replications are 40 blocks of one, mapped on 2 workers in
        # chunks of 5: each chunk's one copy of the config, theta*, v* and the
        # regressions serves several blocks.
        env = build_environment("nonconv_demo")
        base = dict(env=env, policy=PolicyConfig(kind="random"), target=OPE_UNIFORM,
                    horizon=150, replications=40, seed=19, levels=(0.5, 0.95))
        regressions = ("zero", "online_linear")
        serial = replicate(ExperimentConfig(**base, workers=1, cadr_regressions=regressions))
        parallel = replicate(ExperimentConfig(**base, workers=2, cadr_regressions=regressions))
        np.testing.assert_array_equal(serial.theta_hat, parallel.theta_hat)
        np.testing.assert_array_equal(serial.covered, parallel.covered)
        assert serial.failures == parallel.failures
        for table in ("values", "value_covered", "value_floored"):
            got, want = getattr(parallel, table), getattr(serial, table)
            assert list(got) == list(want)
            for method in want:
                np.testing.assert_array_equal(got[method], want[method],
                                              err_msg=f"{table}[{method}]")
        assert list(serial.values) == ["ipwz", "cadr_zero", "cadr_online_linear"]

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
                          behavior_policy=PolicyConfig(kind="random"))
        dprime = log.outcomes  # ratio g*/g = 1
        sigmas = np.ones(400)
        for t in range(10, 400):
            past = dprime[:t]
            sigmas[t] = max(np.sqrt(past.var()), np.sqrt(1e-6))
        gamma = 1.0 / np.mean(1.0 / sigmas)
        want = gamma * np.mean(dprime / sigmas)
        assert result.value == pytest.approx(want, rel=1e-12)

    def test_constant_outcomes_recover_constant(self):
        env = build_environment("nonconv_demo", {"sigma_eta": 0.0,
                                                 "arm_means": (3.0, 3.0)})
        log = run_trajectory(env, PolicyConfig(kind="random"), None, 200, seed=22)
        result = cadr_ope(log, TargetPolicy(kind="uniform"), regression="zero",
                          behavior_policy=PolicyConfig(kind="random"))
        assert result.value == pytest.approx(3.0, abs=1e-9)
        # zero dispersion: every post-burn-in step hits the variance floor
        assert result.floored == 200 - 10

    def test_cadr_on_a_saved_log(self, tmp_path):
        # A fig4 log read back from disk, given K and the behavior config,
        # gives the bits of the in-memory CADR that reads the recorded table.
        exp = build_experiment(json.loads(
            (CONFIGS / "fig4_ope_nonconv_boltzmann.json").read_text()))
        probes = np.unique(np.array([x for _, _, x in support(exp.env)]), axis=0)
        logs, _, table = _run_block(exp.env, exp.policy, exp.target, exp.horizon, exp.seed,
                                    [(0,), (1,)], probes=probes)
        behavior = dict(levels=exp.levels, behavior_policy=exp.policy,
                        behavior_target=exp.target)
        for i, log in enumerate(logs):
            write_log_csv(log, tmp_path / f"log{i}.csv")
            saved = read_log_csv(tmp_path / f"log{i}.csv", exp.env.num_arms)
            assert_logs_equal(saved, log)
            for regression in ("zero", "online_linear"):
                want = cadr_ope(log, exp.target.target_policy, regression=regression,
                                behavior_table=BehaviorTable(probes, table[i]), **behavior)
                got = cadr_ope(saved, exp.target.target_policy, regression=regression,
                               **behavior)
                assert got == want, (i, regression)

    def test_horizon_below_burn_in_rejected(self):
        env = build_environment("nonconv_demo")
        log = run_trajectory(env, PolicyConfig(kind="random"), None, 8, seed=24)
        with pytest.raises(ValueError, match="burn-in"):
            cadr_ope(log, TargetPolicy(kind="uniform"), behavior_policy=PolicyConfig(kind="random"))

    def test_behavior_policy_required(self):
        # The stabilization weights use the exact round-t behavior policy.
        env = build_environment("nonconv_demo")
        log = run_trajectory(env, PolicyConfig(kind="random"), None, 50, seed=24)
        with pytest.raises(ValueError, match="needs the behavior policy"):
            cadr_ope(log, TargetPolicy(kind="uniform"))

    def test_online_linear_regression_runs_and_covers(self):
        env = build_environment("nonconv_demo")
        log = run_trajectory(env, PolicyConfig(kind="boltzmann_ridge", gamma=20.0),
                             OPE_UNIFORM, 1500, seed=25)
        result = cadr_ope(log, TargetPolicy(kind="uniform"), regression="online_linear",
                          behavior_policy=PolicyConfig(kind="boltzmann_ridge", gamma=20.0))
        lo, hi = result.cis[0.95]
        assert lo < 7.0 / 24.0 < hi


def test_compare_ope_smoke():
    env = build_environment("nonconv_demo")
    config = ExperimentConfig(env=env, policy=PolicyConfig(kind="boltzmann_ridge", gamma=20.0),
                              target=OPE_UNIFORM, horizon=400, replications=10,
                              seed=27, levels=(0.95,), cadr_regressions=("zero",))
    summary = replicate(config)
    assert summary.v_star == pytest.approx(7.0 / 24.0)
    assert summary.values["ipwz"].shape == (10,)
    assert summary.values["cadr_zero"].shape == (10,)
    assert 0.0 <= summary.value_covered["ipwz"].mean() <= 1.0


def _reference_ope_loop(config: ExperimentConfig, regressions):
    """IPW-Z and CADR per replication in a plain serial loop over fresh trajectories.

    CADR comes from ``reference_cadr_loop``, which replays the behavior policy.
    """
    v_star = float(oracle_thetas(config.env, config.target, n_oracle=config.n_oracle,
                                 seed=config.seed).sum())
    R, L = config.replications, len(config.levels)
    ipwz_values = np.zeros(R)
    ipwz_covered = np.zeros((R, L), dtype=bool)
    cadr_values = {reg: np.zeros(R) for reg in regressions}
    cadr_covered = {reg: np.zeros((R, L), dtype=bool) for reg in regressions}
    cadr_floored = {reg: np.zeros(R, dtype=np.int64) for reg in regressions}
    for rep in range(R):
        log = run_trajectory(config.env, config.policy, config.target,
                             config.horizon, config.seed, (rep,))
        report = ope_value(log, config.target, levels=config.levels)
        ipwz_values[rep] = report.value
        for li, level in enumerate(config.levels):
            lo, hi = report.cis[float(level)]
            ipwz_covered[rep, li] = lo <= v_star <= hi
        for reg in regressions:
            res = reference_cadr_loop(log, config.target.target_policy, regression=reg,
                                      levels=config.levels, behavior_policy=config.policy,
                                      behavior_target=config.target)
            cadr_values[reg][rep] = res.value
            cadr_floored[reg][rep] = res.floored
            for li, level in enumerate(config.levels):
                lo, hi = res.cis[float(level)]
                cadr_covered[reg][rep, li] = lo <= v_star <= hi
    return v_star, ipwz_values, ipwz_covered, cadr_values, cadr_covered, cadr_floored


class TestCadrInReplicate:
    REGRESSIONS = ("zero", "online_linear")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_reference_loop(self, workers):
        # CADR sums its moments in another order than the loop, so its values
        # agree to 1e-12 relative; IPW-Z and every coverage flag are exact.
        env = build_environment("nonconv_demo")
        config = ExperimentConfig(
            env=env, policy=PolicyConfig(kind="boltzmann_ridge", gamma=20.0, pi_min=0.05),
            target=OPE_UNIFORM, horizon=300, replications=6, seed=28,
            levels=(0.5, 0.95), workers=workers, cadr_regressions=self.REGRESSIONS)
        v_star, ipwz_values, ipwz_covered, cadr_values, cadr_covered, cadr_floored = \
            _reference_ope_loop(config, self.REGRESSIONS)
        summary = replicate(config)
        assert summary.failures == []
        assert summary.v_star == v_star
        np.testing.assert_array_equal(summary.values["ipwz"], ipwz_values)
        np.testing.assert_array_equal(summary.value_covered["ipwz"], ipwz_covered)
        assert list(summary.values) == ["ipwz"] + [f"cadr_{reg}" for reg in self.REGRESSIONS]
        assert list(summary.value_floored) == [f"cadr_{reg}" for reg in self.REGRESSIONS]
        for reg in self.REGRESSIONS:
            np.testing.assert_allclose(summary.values[f"cadr_{reg}"], cadr_values[reg],
                                       rtol=1e-12, atol=0)
            np.testing.assert_array_equal(summary.value_covered[f"cadr_{reg}"],
                                          cadr_covered[reg])
            np.testing.assert_array_equal(summary.value_floored[f"cadr_{reg}"],
                                          cadr_floored[reg])

    def test_failed_replications_drop_cadr_too(self):
        # Four arms over 12 rounds leave an arm unpulled in one of these 20
        # replications, the most the 5% tolerance allows; it drops out of
        # every estimator's arrays alike.
        env = build_environment("nc_gaussian", {"num_arms": 4}, seed=1)
        config = ExperimentConfig(env=env, policy=PolicyConfig(kind="random"),
                                  target=OPE_UNIFORM, horizon=12, replications=20,
                                  seed=31, levels=(0.95,), cadr_regressions=("zero",))
        summary = replicate(config)
        used = summary.replications_used
        assert [rep for rep, _ in summary.failures] == [10] and used == 19
        for name in ("theta_hat", "sigma_diag", "std_errors", "covered"):
            assert getattr(summary, name).shape[0] == used, name
        assert set(summary.values) == set(summary.value_covered) == {"ipwz", "cadr_zero"}
        for method in summary.values:
            assert summary.values[method].shape == (used,)
            assert summary.value_covered[method].shape == (used, 1)
        assert summary.value_floored["cadr_zero"].shape == (used,)

    def test_requires_ope_target(self):
        env = build_environment("nonconv_demo")
        with pytest.raises(ValueError, match="ope-family"):
            ExperimentConfig(env=env, policy=PolicyConfig(kind="random"), target=MISSPEC,
                             horizon=50, replications=1, seed=30, cadr_regressions=("zero",))

    def test_no_regressions_no_cadr(self):
        env = build_environment("nonconv_demo")
        config = ExperimentConfig(env=env, policy=PolicyConfig(kind="random"),
                                  target=OPE_UNIFORM, horizon=50, replications=2, seed=31)
        summary = replicate(config)
        assert list(summary.values) == list(summary.value_covered) == ["ipwz"]
        assert summary.value_floored == {}

    def test_floors_reach_the_record(self):
        # Constant outcomes have zero dispersion: every post-burn-in step of
        # every replication hits the variance floor.
        env = build_environment("nonconv_demo", {"sigma_eta": 0.0, "arm_means": (3.0, 3.0)})
        config = ExperimentConfig(env=env, policy=PolicyConfig(kind="random"),
                                  target=OPE_UNIFORM, horizon=60, replications=3, seed=36,
                                  cadr_regressions=("zero",))
        summary = replicate(config)
        np.testing.assert_array_equal(summary.value_floored["cadr_zero"], [50, 50, 50])

    def test_duplicate_regressions_run_once(self, monkeypatch):
        import banditlab.harness as harness

        calls = []
        cadr = harness.cadr_ope

        def counting(*args, **kw):
            calls.append(kw["regression"])
            return cadr(*args, **kw)

        monkeypatch.setattr(harness, "cadr_ope", counting)
        env = build_environment("nonconv_demo")
        config = ExperimentConfig(env=env, policy=PolicyConfig(kind="boltzmann_ridge", gamma=20.0),
                                  target=OPE_UNIFORM, horizon=60, replications=4, seed=37,
                                  cadr_regressions=["zero", "zero"])
        summary = replicate(config)
        assert calls == ["zero"] * 4
        assert list(summary.values) == ["ipwz", "cadr_zero"]

    @pytest.mark.parametrize("env_name", ["nonconv_demo", "nc_hard1"])
    def test_block_layout_and_pool_invariance(self, monkeypatch, env_name):
        # CADR reads each replication's recorded policy table, which must not
        # depend on the block the replication ran in or on the worker count.
        import banditlab.harness as harness

        config = ExperimentConfig(
            env=build_environment(env_name),
            policy=PolicyConfig(kind="boltzmann_ridge", gamma=5.0, pi_min=0.05),
            target=OPE_UNIFORM, horizon=150, replications=7, seed=38, levels=(0.5, 0.95),
            cadr_regressions=self.REGRESSIONS)
        runs = []
        for cap in (1, 3, harness.BLOCK_CAP):
            monkeypatch.setattr(harness, "BLOCK_CAP", cap)
            for workers in (1, 2):
                runs.append(replicate(replace(config, workers=workers)))
        first = runs[0]
        for run in runs[1:]:
            for table in ("values", "value_covered", "value_floored"):
                got, want = getattr(run, table), getattr(first, table)
                assert list(got) == list(want)
                for method in want:
                    np.testing.assert_array_equal(got[method], want[method],
                                                  err_msg=f"{table}[{method}]")


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_probe_table_is_the_replayed_policy(kind):
    # Probing leaves logs and final states as they are, and each table entry
    # is the bits of the policy replayed alone from the log at that context.
    env = build_environment("nc_hard1")
    policy = PolicyConfig(kind=kind, pi_min=0.05, gamma=2.0)
    probes = np.unique(np.array([x for _, _, x in support(env)]), axis=0)
    paths = [(rep,) for rep in range(3)]
    logs, block, table = _run_block(env, policy, OPE_UNIFORM, 80, 39, paths, probes=probes)
    plain_logs, plain_block, none = _run_block(env, policy, OPE_UNIFORM, 80, 39, paths)
    assert none is None and table.shape == (3, 80, len(probes), env.num_arms)
    assert block.t == plain_block.t
    assert list(block.stats) == list(plain_block.stats)
    for name, array in block.stats.items():
        np.testing.assert_array_equal(array, plain_block.stats[name], err_msg=name)
    for i, (log, plain) in enumerate(zip(logs, plain_logs)):
        assert_logs_equal(log, plain, f"rep {i}")
        replay = new_policy(policy, env.num_arms, env.context_dim, target=OPE_UNIFORM)
        for t in range(log.horizon):
            np.testing.assert_array_equal(table[i, t], replay.distribution(probes),
                                          err_msg=f"{kind} rep {i} round {t}")
            replay.fold(*one_round(log.contexts[t], log.arms[t],
                                   log.propensities[t], log.outcomes[t]))


@pytest.mark.parametrize("kind", ["boltzmann_ridge", "ts_mab"])
def test_probed_block_makes_one_policy_call_per_round(monkeypatch, kind):
    # One (B, C, d) call fills a round's whole table row, and the round's own
    # distribution is read from it: T calls for T rounds, whatever C is.
    import banditlab.harness as harness

    env = build_environment("nc_hard1")
    probes = np.unique(np.array([x for _, _, x in support(env)]), axis=0)
    assert len(probes) > 1
    shapes = []

    def counting(*args, **kw):
        made = new_policy(*args, **kw)
        distribution = made.distribution

        def counted(context):
            shapes.append(context.shape)
            return distribution(context)

        made.distribution = counted
        return made

    monkeypatch.setattr(harness, "new_policy", counting)
    policy = PolicyConfig(kind=kind, pi_min=0.05, gamma=2.0)
    _run_block(env, policy, OPE_UNIFORM, 60, 9, [(0,), (1,), (2,)], probes=probes)
    assert shapes == [(3, len(probes), env.context_dim)] * 60


def _cadr_env(name: str, K: int, points: list) -> EnvironmentSpec:
    """A finite-support environment with K arms and outcome means away from zero."""
    if name == "nonconv_demo":
        env = build_environment(name, {"context_points": points,
                                       "context_weights": [1.0 / len(points)] * len(points)})
        return replace(env, num_arms=K,
                       reward=RewardModel("constant_per_arm", 2.0 + np.arange(K) / K))
    env = build_environment(name)
    theta = 1.0 + np.arange(K, dtype=float)[:, None]
    return replace(env, num_arms=K, reward=RewardModel("linear_latent", theta),
                   true_params=theta)


# SHA-256 of the logs, final statistics and probe tables of a block of three at
# a fixed seed, under a noisy_context and an ope target (see ``_pinned_digest``),
# taken from the per-round engine that preceded the block-wide rounds, which
# evaluated a fresh distribution and applied one update per call. A rewrite of
# the round must keep these bits.
PINNED_BLOCK_DIGESTS = {
    ("random", 2): "a584a5f69f8b792b33f01a072a07279f4d724359b6f9c0c1d88b24b4f11d2875",
    ("random", 3): "7f53b9f33ad8addbf529822a2e7a4339a3c140572f4e158a358c718ce0d3ffba",
    ("eps_greedy_mab", 2): "dbd92f51f009cd6e58a4dffb6d77691f5b7588862d80f0036a1592fec5bd0153",
    ("eps_greedy_mab", 3): "5bd8c7fc15d1cb94f179721bdfe0e1ed652d039aeaf0d43c8ae877d369ecbd41",
    ("ucb_mab", 2): "777d6508a0e6e80a2bff8e0af274763ce1f0298539bba1ca1bbf56f6db05b156",
    ("ucb_mab", 3): "3431476ecbe2ffd73536e91978121cd2d1949f2a2caecb187fb92e7446bdc076",
    ("ts_mab", 2): "145c1e2da63c6066277550112cb6726451244e44cef54a32c60fa66b9058d32f",
    ("ts_mab", 3): "e09c0d63cf1165d36fc71b6ba7750c70189dcd3c978fe27ca93494476c8bd0c1",
    ("boltzmann_ridge", 2): "de0c6a87dab0615342c076a463768042fc4c0ebed2cdb04ba39953b0d2a15c86",
    ("boltzmann_ridge", 3): "30643cf2751552b0932ad92c0d7728ef8b7ac24c0f53126fa683696b813dfb4d",
    ("boltzmann_sgd", 2): "64b186ecacd64d678b641f729c0be7d974cb0df3bca7e1e864c4c1c88aa13061",
    ("boltzmann_sgd", 3): "dd04a370aa55a55ac9cdbbecbd5b0fb80b3f15e5919885a9a021551c8d3f4e46",
    ("ipwz_greedy", 2): "183891c2f89342c5c491aa4b827d011d9cc7081488b488364a0165af27362d5b",
    ("ipwz_greedy", 3): "0d49c58134fbd22d45fe446e30d1d7b40212bc1caf3d2d4714402eda9c3cc0c8",
    ("linucb", 2): "9ccd8f8485b295f678f1582a98589823185894054b028920ec3997ee6d286eb6",
    ("linucb", 3): "ecd3e50fe9f183d5cf55a06ee3aac98689a7e15fe8245c2d23c51ac2775392d1",
}


def _pinned_digest(kind: str, K: int) -> str:
    env = _cadr_env("nc_hard1", K, [])
    probes = distinct_rows(np.array([x for _, _, x in support(env)]))
    # Settings away from round numbers, so that no reassociation is exact.
    policy = PolicyConfig(kind=kind, pi_min=0.05, gamma=3.0, ts_prior=(0.3, 2.0, 0.7),
                          ridge_lambda=0.7, linucb_alpha=1.3)
    parts = [run_block_digest(*_run_block(env, policy, target, 150, 2026, [(0,), (1,), (2,)],
                                          probes=probes))
             for target in (ScoreTarget("noisy_context", sigma_e=[[2.0]]), OPE_UNIFORM)]
    return hashlib.sha256("".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("kind, K", list(PINNED_BLOCK_DIGESTS))
def test_block_bits_are_pinned(kind, K):
    assert _pinned_digest(kind, K) == PINNED_BLOCK_DIGESTS[kind, K]


@pytest.mark.parametrize("kind", POLICY_KINDS)
@settings(max_examples=10)
@given(K=st.integers(2, 4), env_name=st.sampled_from(["nonconv_demo", "nc_hard1", "nc_hard2"]),
       points=st.lists(st.integers(-8, 8).map(lambda v: v / 2.0), min_size=1, max_size=4,
                       unique=True),
       T=st.integers(11, 300), regression=st.sampled_from(["zero", "online_linear"]),
       seed=st.integers(0, 2**16))
def test_closed_form_cadr_matches_reference_loop(kind, K, env_name, points, T, regression, seed):
    env = _cadr_env(env_name, K, points)
    policy = PolicyConfig(kind=kind, pi_min=0.05, gamma=2.0)
    probes = np.unique(np.array([x for _, _, x in support(env)]), axis=0)
    logs, _, table = _run_block(env, policy, OPE_UNIFORM, T, seed, [(0,), (1,)], probes=probes)
    uniform = OPE_UNIFORM.target_policy
    kw = dict(behavior_policy=policy, behavior_target=OPE_UNIFORM)
    for log, recorded in zip(logs, table):
        want = reference_cadr_loop(log, uniform, regression=regression, **kw)
        for got in (cadr_ope(log, uniform, regression=regression, **kw),
                    cadr_ope(log, uniform, regression=regression,
                             behavior_table=BehaviorTable(probes, recorded))):
            assert got.value == pytest.approx(want.value, rel=1e-12, abs=0)
            assert got.gamma == pytest.approx(want.gamma, rel=1e-12, abs=0)
            assert got.floored == want.floored


def test_replicate_solves_each_arm_once(monkeypatch):
    # The OPE value reuses the per-arm estimates: K * R solves, not 2 * K * R.
    # The names counted are the ones the benchmark's tracer wraps
    # (perfbench/shim.py), so its per-call timings cannot silently read zero.
    import banditlab.harness as harness
    import banditlab.inference as inference

    calls = {name: [] for name in ("ipwz_solve", "sandwich_variance", "confidence_intervals")}
    for name, seen in calls.items():
        original = getattr(inference, name)

        def counting(*args, _seen=seen, _original=original, **kw):
            _seen.append(args[2])  # the arm; the horizon for confidence_intervals
            return _original(*args, **kw)

        # Wherever the engine looks the name up, the count sees it.
        monkeypatch.setattr(inference, name, counting)
        monkeypatch.setattr(harness, name, counting, raising=False)
    env = build_environment("nonconv_demo")
    config = ExperimentConfig(env=env, policy=PolicyConfig(kind="boltzmann_ridge", gamma=20.0),
                              target=OPE_UNIFORM, horizon=100, replications=3, seed=32,
                              cadr_regressions=("zero",))
    summary = replicate(config)
    assert summary.failures == []
    assert calls["ipwz_solve"] == [0, 1] * 3
    assert calls["sandwich_variance"] == [0, 1] * 3
    # Per replication, one interval call per arm and one for the OPE value.
    assert calls["confidence_intervals"] == [100] * (3 * 3)


def test_unknown_cadr_regression_rejected_before_oracle(monkeypatch):
    import banditlab.harness as harness

    def no_oracle(*args, **kw):
        raise AssertionError("oracle computed before the regression names were checked")

    monkeypatch.setattr(harness, "oracle_thetas", no_oracle)
    env = build_environment("nonconv_demo")
    with pytest.raises(ValueError, match="unknown regression 'z'"):
        replicate(ExperimentConfig(env=env, policy=PolicyConfig(kind="random"),
                                   target=OPE_UNIFORM, horizon=50, replications=1, seed=33,
                                   cadr_regressions=["z"]))


def test_summaries_do_not_share_theta_star():
    # Each replicate computes its own oracle: writing into one summary's
    # theta* leaves a later run in the same process at the oracle's value.
    config = ExperimentConfig(env=build_environment("nonconv_demo"),
                              policy=PolicyConfig(kind="random"), target=MISSPEC,
                              horizon=200, replications=4, seed=47)
    first = replicate(config)
    want, covered = first.thetas_star.copy(), first.covered.copy()
    first.thetas_star[:] = 99.0
    second = replicate(config)
    assert second.thetas_star is not first.thetas_star
    np.testing.assert_array_equal(second.thetas_star, want)
    np.testing.assert_array_equal(second.covered, covered)


def test_config_normalises_its_settings():
    config = ExperimentConfig(
        env=build_environment("nonconv_demo"), policy=PolicyConfig(kind="random"),
        target=OPE_UNIFORM, horizon=50.0, replications=np.int64(2), seed=3, levels=[0.5, 0.95],
        diagnostic_contexts=[[-4.0], 1.0], n_oracle=1e4,
        cadr_regressions=["online_linear", "zero", "online_linear"])
    for name in ("horizon", "replications", "seed", "workers", "n_oracle"):
        assert type(getattr(config, name)) is int, name
    assert (config.horizon, config.replications, config.n_oracle) == (50, 2, 10_000)
    assert config.levels == (0.5, 0.95)
    assert config.diagnostic_contexts == ((-4.0,), (1.0,))
    assert config.cadr_regressions == ("online_linear", "zero")
    assert replace(config, cadr_regressions=()).cadr_regressions == ()


@pytest.mark.parametrize("bad, message", [
    ({"seed": 1.5}, "seed must be a whole number, got 1.5"),
    ({"replications": True}, "replications must be a whole number, got True"),
    ({"horizon": "50"}, "horizon must be a whole number, got '50'"),
    ({"n_oracle": 1000.9}, "n_oracle must be a whole number, got 1000.9"),
    ({"levels": 0.95}, r"levels must be a non-empty list in \(0, 1\), got 0.95"),
    ({"levels": ["0.5"]}, r"levels must be a non-empty list in \(0, 1\), got \['0.5'\]"),
    ({"diagnostic_contexts": 5}, "diagnostics.contexts must be a list of contexts, got 5"),
    ({"cadr_regressions": "zero"}, "cadr_regressions must be a list of names from .*, got 'zero'"),
    ({"cadr_regressions": [["zero"]]}, r"unknown regression \['zero'\] in cadr_regressions"),
    ({"horizon": 10, "cadr_regressions": ("zero",)},
     "horizon 10 must exceed the CADR burn-in 10"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"n_oracle": 0}, "n_oracle must be >= 1, got 0"),
], ids=["seed", "replications", "horizon", "n_oracle", "levels_number", "levels_string",
        "contexts", "regressions_string", "regressions_nested", "horizon_burn_in",
        "seed_negative", "n_oracle_zero"])
def test_bad_setting_rejected_before_oracle(monkeypatch, bad, message):
    import banditlab.harness as harness

    def no_oracle(*args, **kw):
        raise AssertionError("oracle computed before the config was checked")

    monkeypatch.setattr(harness, "oracle_thetas", no_oracle)
    settings = dict(env=build_environment("nonconv_demo"), policy=PolicyConfig(kind="random"),
                    target=OPE_UNIFORM, horizon=50, replications=1, seed=34)
    with pytest.raises(ValueError, match=message):
        replicate(ExperimentConfig(**{**settings, **bad}))


@pytest.mark.parametrize("env_name, target, contexts, message", [
    ("nonconv_demo", MISSPEC, ((1.0, 1.0),), r"diagnostic context \[1.0, 1.0\] has shape"),
    ("ms_polynomial", MISSPEC, ((0.5, 0.5),), r"diagnostic context \[0.5, 0.5\] has shape"),
    ("nc_gaussian", ScoreTarget(family="noisy_context", sigma_e=1.0), (),
     r"target.sigma_e must be a 2x2 matrix, got shape \(1, 1\)"),
], ids=["finite_support_context", "continuous_context", "sigma_e_size"])
def test_shape_mismatch_rejected_before_oracle(monkeypatch, env_name, target, contexts, message):
    import banditlab.harness as harness

    def no_oracle(*args, **kw):
        raise AssertionError("oracle computed before the shapes were checked")

    monkeypatch.setattr(harness, "oracle_thetas", no_oracle)
    env = build_environment(env_name)
    with pytest.raises(ValueError, match=message):
        replicate(ExperimentConfig(env=env, policy=PolicyConfig(kind="random"), target=target,
                                   horizon=50, replications=1, seed=36,
                                   diagnostic_contexts=contexts))


@pytest.mark.parametrize("bad", [{"levels": ()}, {"levels": (0.95, 1.5)}])
def test_bad_levels_and_variance_mode_rejected_before_oracle(monkeypatch, bad):
    import banditlab.harness as harness

    def no_oracle(*args, **kw):
        raise AssertionError("oracle computed before the config was checked")

    monkeypatch.setattr(harness, "oracle_thetas", no_oracle)
    env = build_environment("nonconv_demo")
    with pytest.raises(ValueError, match="levels"):
        replicate(ExperimentConfig(env=env, policy=PolicyConfig(kind="random"),
                                   target=MISSPEC, horizon=50, replications=1, seed=34, **bad))


def test_all_replications_failed_names_first_failure():
    # Three rounds over four arms leave an arm unpulled in every replication.
    env = build_environment("nc_gaussian", {"num_arms": 4}, seed=1)
    config = ExperimentConfig(env=env, policy=PolicyConfig(kind="random"),
                              target=MISSPEC, horizon=3, replications=4, seed=35)
    with pytest.raises(RuntimeError, match=r"4 of 4 replications failed .*first: rep 0: "):
        replicate(config)


@pytest.mark.parametrize("replay", [False, True], ids=["no_replay", "replay"])
@pytest.mark.parametrize("regression", ["zero", "online_linear"])
def test_continuous_contexts_match_reference_loop(regression, replay):
    # Every row of an nc_gaussian log is its own cell, so the prefix sums run
    # in several chunks that carry their running sums. Without replay CADR
    # reads the policy recorded at every context of the log: the contexts do
    # not depend on the policy, so a second run can record it there.
    env = build_environment("nc_gaussian", {"num_arms": 3}, seed=2)
    policy = PolicyConfig(kind="boltzmann_ridge", gamma=2.0, pi_min=0.05)
    log = run_trajectory(env, policy, OPE_UNIFORM, 400, seed=40)
    kw = dict(behavior_policy=policy, behavior_target=OPE_UNIFORM)
    uniform = OPE_UNIFORM.target_policy
    want = reference_cadr_loop(log, uniform, regression=regression, **kw)
    if not replay:
        probes = np.unique(log.contexts, axis=0)
        _, _, table = _run_block(env, policy, OPE_UNIFORM, 400, 40, [()], probes=probes)
        kw = dict(behavior_table=BehaviorTable(probes, table[0]))
    got = cadr_ope(log, uniform, regression=regression, **kw)
    assert got.value == pytest.approx(want.value, rel=1e-12, abs=0)
    assert got.gamma == pytest.approx(want.gamma, rel=1e-12, abs=0)
    assert got.floored == want.floored
