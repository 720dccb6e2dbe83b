"""Policy zoo: clipping, distribution construction, state updates."""

import numpy as np
import pytest
from scipy.stats import norm

from banditlab.env import build_environment
from banditlab.estimator import ScoreTarget, TargetPolicy, ipwz_solve
from banditlab.harness import _run_trajectory_core
from banditlab.policy import (
    InfeasibleClipError,
    PolicyConfig,
    Transition,
    action_distribution,
    action_distribution_batch,
    boltzmann_distribution,
    clip_simplex,
    clip_simplex_rows,
    init_state,
    linucb_distribution,
    mab_distribution,
    ts_optimal_prob,
    update_state,
)
from banditlab.rng import stream

from helpers import qp_project, select_action


class TestClipSimplex:
    def test_already_feasible(self):
        np.testing.assert_allclose(clip_simplex(np.array([0.5, 0.5]), 0.05), [0.5, 0.5])

    def test_two_arm_hand_solution(self):
        np.testing.assert_allclose(clip_simplex(np.array([0.9, 0.1]), 0.25), [0.75, 0.25])

    def test_three_arm_hand_solution(self):
        np.testing.assert_allclose(
            clip_simplex(np.array([1.0, 0.0, 0.0]), 0.1), [0.8, 0.1, 0.1])

    def test_infeasible_floor(self):
        with pytest.raises(InfeasibleClipError):
            clip_simplex(np.array([0.5, 0.3, 0.2]), 0.4)

    def test_matches_qp_oracle_on_random_inputs(self):
        rng = stream(2024)
        worst = 0.0
        for _ in range(1000):
            K = int(rng.integers(2, 6))
            v = rng.dirichlet(np.ones(K) * rng.uniform(0.2, 3.0))
            pi_min = rng.uniform(0.0, 1.0 / K) * 0.95 + 1e-4
            got = clip_simplex(v, pi_min)
            want = qp_project(v, pi_min)
            worst = max(worst, float(np.linalg.norm(got - want)))
            assert abs(got.sum() - 1.0) < 1e-12
            assert got.min() >= pi_min - 1e-12
        assert worst < 1e-8

    def test_lipschitz_bound(self):
        rng = stream(77)
        for _ in range(10_000):
            K = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(K))
            q = rng.dirichlet(np.ones(K))
            pi_min = rng.uniform(1e-4, 1.0 / K * 0.9)
            lhs = np.linalg.norm(clip_simplex(p, pi_min) - clip_simplex(q, pi_min))
            assert lhs <= (K + 1) * np.linalg.norm(p - q) + 1e-12

    def test_rows_matches_scalar(self):
        rng = stream(5)
        P = rng.dirichlet(np.ones(4), size=200)
        got = clip_simplex_rows(P, 0.12)
        want = np.stack([clip_simplex(row, 0.12) for row in P])
        np.testing.assert_array_equal(got, want)


class TestTsOptimalProb:
    def test_two_arm_gaussian_cdf(self):
        probs = ts_optimal_prob(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        assert probs[1] == pytest.approx(norm.cdf(1 / np.sqrt(2)), abs=1e-6)
        assert probs[0] == pytest.approx(1 - norm.cdf(1 / np.sqrt(2)), abs=1e-6)

    def test_symmetric_arms(self):
        probs = ts_optimal_prob(np.zeros(3), np.ones(3))
        np.testing.assert_allclose(probs, [1 / 3] * 3, atol=1e-6)

    def test_degenerate_variance_limit(self):
        probs = ts_optimal_prob(np.array([1.0, 0.0]), np.array([1e-12, 1e-12]))
        np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-6)

    def test_mixed_degenerate_variance(self):
        # One sharp posterior below a diffuse one: step-like integrand.
        probs = ts_optimal_prob(np.array([0.0, 0.5]), np.array([1.0, 1e-10]))
        assert probs[0] == pytest.approx(1 - norm.cdf(0.5), abs=1e-6)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            ts_optimal_prob(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_against_monte_carlo_oracle(self):
        rng = stream(404)
        for _ in range(6):
            K = int(rng.integers(2, 5))
            means = rng.normal(size=K)
            variances = rng.uniform(0.05, 2.0, size=K)
            draws = rng.normal(means, np.sqrt(variances), size=(200_000, K))
            mc = np.bincount(np.argmax(draws, axis=1), minlength=K) / draws.shape[0]
            np.testing.assert_allclose(ts_optimal_prob(means, variances), mc, atol=0.01)


def _state_with(config, means, counts, d=1, target=None):
    state = init_state(config, len(means), d, target=target)
    state.counts = np.asarray(counts, dtype=np.int64)
    state.sums = np.asarray(means, dtype=float) * state.counts
    state.t = int(state.counts.sum())
    return state


class TestMabDistributions:
    def test_eps_greedy_example(self):
        config = PolicyConfig(kind="eps_greedy_mab", epsilon=0.2)
        state = _state_with(config, [1.0, 0.5], [5, 5])
        np.testing.assert_allclose(mab_distribution("eps_greedy", state, config), [0.9, 0.1])

    def test_ucb_hand_index(self):
        config = PolicyConfig(kind="ucb_mab", pi_min=0.05,
                              ucb_radius_fn=lambda t: 2.0)
        state = _state_with(config, [1.0, 0.5], [100, 1])
        dist = mab_distribution("ucb", state, config)
        # indices (1 + sqrt(0.02), 0.5 + sqrt(2)) -> arm 2 wins
        np.testing.assert_allclose(dist, [0.05, 0.95])

    def test_ucb_forced_initialization(self):
        config = PolicyConfig(kind="ucb_mab", pi_min=0.05)
        state = init_state(config, 3, 1)
        np.testing.assert_array_equal(mab_distribution("ucb", state, config), [1, 0, 0])
        state.t = 1
        np.testing.assert_array_equal(mab_distribution("ucb", state, config), [0, 1, 0])

    def test_ts_symmetric(self):
        config = PolicyConfig(kind="ts_mab", pi_min=0.05)
        state = init_state(config, 2, 1)
        np.testing.assert_allclose(mab_distribution("ts", state, config), [0.5, 0.5], atol=1e-6)

    def test_eps_schedule_applied_per_round(self):
        config = PolicyConfig(kind="eps_greedy_mab", epsilon=lambda t: 1.0 / (1 + t))
        state = _state_with(config, [1.0, 0.0], [3, 3])  # t = 6, so round 7
        np.testing.assert_allclose(
            mab_distribution("eps_greedy", state, config), [1 - 0.5 / 8, 0.5 / 8])

    def test_argmax_invariance_to_common_shift(self):
        config = PolicyConfig(kind="eps_greedy_mab", epsilon=0.3)
        ucb_config = PolicyConfig(kind="ucb_mab", pi_min=0.1)
        for shift in (0.0, 5.0, -11.0):
            state = _state_with(config, np.array([0.2, 0.9, 0.4]) + shift, [7, 7, 7])
            np.testing.assert_allclose(
                mab_distribution("eps_greedy", state, config),
                mab_distribution("eps_greedy", _state_with(config, [0.2, 0.9, 0.4], [7, 7, 7]),
                                 config))
            np.testing.assert_allclose(
                mab_distribution("ucb", state, ucb_config),
                mab_distribution("ucb", _state_with(config, [0.2, 0.9, 0.4], [7, 7, 7]),
                                 ucb_config))


class TestBoltzmann:
    def test_equal_coefficients_uniform(self):
        beta = np.full((3, 2), 0.7)
        dist = boltzmann_distribution(beta, np.array([1.0, -2.0]), 5.0, 0.05)
        np.testing.assert_allclose(dist, [1 / 3] * 3, atol=1e-12)

    def test_softmax_hand_value(self):
        gamma = 2.5
        beta = np.array([[0.0], [gamma * np.log(3.0)]])
        dist = boltzmann_distribution(beta, np.array([1.0]), gamma, 0.2)
        np.testing.assert_allclose(dist, [0.25, 0.75], atol=1e-12)

    def test_high_temperature_limit(self):
        beta = np.array([[3.0], [-2.0]])
        dist = boltzmann_distribution(beta, np.array([1.0]), 1e9, 0.05)
        np.testing.assert_allclose(dist, [0.5, 0.5], atol=1e-6)


class TestLinUCB:
    def test_tie_breaks_to_lowest_arm(self):
        config = PolicyConfig(kind="linucb", pi_min=0.05)
        state = init_state(config, 2, 1)
        dist = linucb_distribution(state, np.array([1.0]), config.linucb_alpha, config.pi_min)
        np.testing.assert_allclose(dist, [0.95, 0.05])

    def test_hand_ridge_index(self):
        config = PolicyConfig(kind="linucb", ridge_lambda=1.0)
        state = init_state(config, 2, 1)
        update_state(config, state, Transition(np.array([2.0]), 0, 0.99, 3.0))
        assert state.ridge_beta[0, 0] == pytest.approx(6.0 / 5.0)
        index = state.ridge_beta[0] @ np.array([2.0])  # alpha = 0 contribution
        assert index == pytest.approx(2.4)

    def test_pi_min_bound(self):
        config = PolicyConfig(kind="linucb", pi_min=0.01)
        state = init_state(config, 2, 1)
        update_state(config, state, Transition(np.array([1.0]), 0, 0.99, 1.0))
        dist = linucb_distribution(state, np.array([-4.0]), 1.0, 0.01)
        assert dist.min() == pytest.approx(0.01)


class TestSelectAction:
    def test_random_policy_quarter(self):
        config = PolicyConfig(kind="random")
        state = init_state(config, 4, 1)
        for _ in range(10):
            _, prob, dist = select_action(config, state, np.array([0.3]), stream(9))
            assert prob == 0.25
            np.testing.assert_allclose(dist, 0.25)

    def test_clipped_policies_respect_floor(self):
        rng = stream(33)
        target = ScoreTarget(family="misspec_linear")
        for kind in ("ts_mab", "boltzmann_ridge", "boltzmann_sgd", "ipwz_greedy", "linucb"):
            config = PolicyConfig(kind=kind, pi_min=0.07, gamma=0.5)
            state = init_state(config, 3, 1, target=target)
            for t in range(40):
                x = rng.normal(size=1)
                arm, prob, dist = select_action(config, state, x, rng)
                assert prob >= 0.07 - 1e-12
                assert abs(dist.sum() - 1.0) < 1e-12
                update_state(config, state, Transition(x, arm, prob, float(rng.normal())))

    def test_same_stream_same_action(self):
        config = PolicyConfig(kind="random")
        state = init_state(config, 5, 1)
        a1 = select_action(config, state, np.array([0.0]), stream(4, 1))
        a2 = select_action(config, state, np.array([0.0]), stream(4, 1))
        assert a1[0] == a2[0]


class TestUpdateState:
    def test_sgd_one_step(self):
        target = ScoreTarget(family="misspec_linear")
        config = PolicyConfig(kind="boltzmann_sgd", sgd_rate_fn=lambda t: 0.1)
        state = init_state(config, 2, 1, target=target)
        update_state(config, state, Transition(np.array([1.0]), 0, 0.5, 2.0))
        assert state.sgd_beta[0, 0] == pytest.approx(0.2)
        assert state.sgd_beta[1, 0] == 0.0  # unpulled arm untouched

    def test_ridge_recursive_equals_batch_first_step(self):
        config = PolicyConfig(kind="boltzmann_ridge", ridge_lambda=1.0)
        state = init_state(config, 2, 1)
        update_state(config, state, Transition(np.array([2.0]), 0, 0.9, 3.0))
        assert state.ridge_beta[0, 0] == pytest.approx(1.2)

    def test_ridge_recursive_equals_batch_trajectory(self):
        # Acceptance criterion: 1000 steps, every step within 1e-10 of the
        # batch formula (lambda I + sum x x')^{-1} (sum x y).
        rng = stream(88)
        config = PolicyConfig(kind="boltzmann_ridge", ridge_lambda=0.7)
        d, K = 2, 2
        state = init_state(config, K, d)
        grams = [0.7 * np.eye(d) for _ in range(K)]
        moments = [np.zeros(d) for _ in range(K)]
        worst = 0.0
        for t in range(1000):
            x = rng.normal(size=d)
            arm = int(rng.integers(K))
            y = float(rng.normal())
            update_state(config, state, Transition(x, arm, 0.5, y))
            grams[arm] = grams[arm] + np.outer(x, x)
            moments[arm] = moments[arm] + x * y
            for a in range(K):
                batch = np.linalg.solve(grams[a], moments[a])
                worst = max(worst, float(np.max(np.abs(batch - state.ridge_beta[a]))))
        assert worst < 1e-10

    def test_counts_sum_to_t(self):
        config = PolicyConfig(kind="eps_greedy_mab", epsilon=0.5)
        state = init_state(config, 3, 1)
        rng = stream(3)
        for t in range(50):
            x = rng.normal(size=1)
            arm, prob, _ = select_action(config, state, x, rng)
            update_state(config, state, Transition(x, arm, prob, 0.0))
        assert state.counts.sum() == state.t == 50

    def test_arm_out_of_range(self):
        config = PolicyConfig(kind="random")
        state = init_state(config, 2, 1)
        with pytest.raises(ValueError):
            update_state(config, state, Transition(np.array([0.0]), 5, 0.5, 0.0))

    def test_ipwz_refresh_has_no_lag(self):
        target = ScoreTarget(family="misspec_linear")
        config = PolicyConfig(kind="ipwz_greedy", pi_min=0.1)
        state = init_state(config, 2, 1, target=target)
        update_state(config, state, Transition(np.array([1.0]), 0, 0.5, 2.0))
        update_state(config, state, Transition(np.array([1.0]), 1, 0.5, -1.0))
        # theta_a = (sum w x y) / (sum w x^2), exact from the incremental stats
        assert state.ipw_theta[0, 0] == pytest.approx(2.0)
        assert state.ipw_theta[1, 0] == pytest.approx(-1.0)
        assert state.ipw_ready

    def test_ipwz_uniform_fallback_before_ready(self):
        target = ScoreTarget(family="misspec_linear")
        config = PolicyConfig(kind="ipwz_greedy", pi_min=0.1)
        state = init_state(config, 2, 1, target=target)
        np.testing.assert_allclose(
            action_distribution(config, state, np.array([1.0])), [0.5, 0.5])
        update_state(config, state, Transition(np.array([1.0]), 0, 0.5, 2.0))
        np.testing.assert_allclose(
            action_distribution(config, state, np.array([1.0])), [0.5, 0.5])


@pytest.mark.parametrize("env_name, target", [
    ("nc_gaussian", ScoreTarget(family="misspec_linear")),
    ("nc_hard2", ScoreTarget(family="noisy_context", sigma_e=[[2.0]])),
    ("nonconv_demo", ScoreTarget(family="ope", target_policy=TargetPolicy(kind="uniform"))),
], ids=["misspec_linear", "noisy_context", "ope"])
def test_ipwz_incremental_equals_batch(env_name, target):
    # The running per-arm estimate the policy acts on is the batch IPW-Z
    # root of the same trajectory's log.
    env = build_environment(env_name)
    config = PolicyConfig(kind="ipwz_greedy", pi_min=0.05)
    log, state = _run_trajectory_core(env, config, target, 1500, seed=41)
    assert state.ipw_ok.all()
    for arm in range(env.num_arms):
        np.testing.assert_allclose(state.ipw_theta[arm], ipwz_solve(log, target, arm),
                                   rtol=1e-10)


def test_infeasible_pi_min_at_init():
    with pytest.raises(InfeasibleClipError):
        init_state(PolicyConfig(kind="ts_mab", pi_min=0.4), 3, 1)


def test_batch_distribution_matches_single():
    rng = stream(314)
    target = ScoreTarget(family="misspec_linear")
    for kind in ("random", "eps_greedy_mab", "ucb_mab", "ts_mab", "boltzmann_ridge",
                 "boltzmann_sgd", "linucb", "ipwz_greedy"):
        config = PolicyConfig(kind=kind, pi_min=0.05, gamma=2.0)
        state = init_state(config, 2, 2, target=target)
        for _ in range(30):
            x = rng.normal(size=2)
            arm, prob, _ = select_action(config, state, x, rng)
            update_state(config, state, Transition(x, arm, prob, float(rng.normal())))
        X = rng.normal(size=(20, 2))
        batch = action_distribution_batch(config, state, X)
        single = np.stack([action_distribution(config, state, x) for x in X])
        np.testing.assert_array_equal(batch, single, err_msg=kind)
