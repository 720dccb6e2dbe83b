"""Policy zoo: clipping, distribution construction, state updates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import norm

from banditlab.env import build_environment
from banditlab.estimator import ScoreTarget, TargetPolicy, ipwz_solve
from banditlab.harness import _run_block, run_trajectory
from banditlab.policy import (
    POLICY_KINDS,
    InfeasibleClipError,
    PolicyConfig,
    _greedy_table,
    _ts_quadrature,
    clip_simplex,
    new_policy,
    ts_optimal_prob,
)
from banditlab.rng import stream

from helpers import (
    one_round,
    qp_project,
    reference_clip_simplex,
    reference_greedy_rows,
    reference_ts_entry,
    reference_ts_quadrature,
    select_action,
)


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

    @given(st.data())
    def test_rows_matches_scalar(self, data):
        # Each row of a stacked call is the one-row call bit for bit, feasible,
        # and the QP oracle's projection; K * pi_min = 1 included.
        K = data.draw(st.integers(2, 6), label="K")
        pi_min = data.draw(st.one_of(st.just(1.0 / K), st.floats(1e-6, 1.0 / K)), label="pi_min")
        rows = data.draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=K, max_size=K),
                                  min_size=1, max_size=8), label="rows")
        P = np.array(rows)
        got = clip_simplex(P, pi_min)
        for row, out in zip(P, got):
            np.testing.assert_array_equal(out, clip_simplex(row, pi_min))
            assert abs(out.sum() - 1.0) < 1e-12
            assert out.min() >= pi_min - 1e-12
            assert np.abs(out - qp_project(row, pi_min)).max() < 1e-8

    def test_equals_reference_bit_for_bit(self):
        # The one-pass feasibility test and the cached sort-path constants
        # change no bit: feasible, normalized and raw rows, mixed in a block.
        rng = stream(2031)
        for _ in range(20_000):
            K = int(rng.integers(2, 6))
            pi_min = (0.005, 0.05, 0.2, 1.0 / K)[int(rng.integers(4))]
            n = int(rng.integers(1, 9))
            shape = rng.dirichlet(np.ones(K) * rng.uniform(0.2, 3.0), size=n)
            rows = (shape, pi_min + (1.0 - K * pi_min) * shape, rng.uniform(0.0, 1.0, (n, K)))
            P = np.choose(rng.integers(3, size=(n, 1)), rows)
            got, want = clip_simplex(P, pi_min), reference_clip_simplex(P, pi_min)
            assert got.tobytes() == want.tobytes(), (P.tolist(), pi_min)
        # Two arms take max and min instead of the sort: rows where its
        # tolerances bite, alone and as one block. Entries at pi_min and one
        # ulp either side, row sums at 1, 1 +- 1e-12 and one ulp either side
        # of those, the smaller entry within a few 1e-15 of where the
        # candidate roots' tests flip, exact 0 and 1, and K * pi_min = 1.
        for pi_min in (0.005, 0.05, 0.2, 0.5, np.nextafter(0.5, 0.0)):
            floors = (0.0, np.nextafter(pi_min, 0.0), pi_min, np.nextafter(pi_min, 1.0))
            sums = [s for c in (1.0 - 1e-12, 1.0, 1.0 + 1e-12)
                    for s in (np.nextafter(c, 0.0), c, np.nextafter(c, 2.0))]
            near = [pi_min + (s - 1.0) / 2 + k * 1e-15 for s in sums for k in range(-3, 4)]
            rows = [[lo, s - lo] for lo in floors + tuple(near) for s in sums]
            rows += [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [pi_min, pi_min]]
            rows += [row[::-1] for row in rows]
            P = np.array(rows)
            got, want = clip_simplex(P, pi_min), reference_clip_simplex(P, pi_min)
            assert got.tobytes() == want.tobytes(), pi_min
            for row in P:
                got, want = clip_simplex(row, pi_min), reference_clip_simplex(row, pi_min)
                assert got.tobytes() == want.tobytes(), (row.tolist(), pi_min)


class TestTsOptimalProb:
    def test_two_arm_gaussian_cdf(self):
        probs = ts_optimal_prob(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        assert probs[1] == pytest.approx(norm.cdf(1 / np.sqrt(2)), abs=1e-15)
        assert probs[0] == pytest.approx(1 - norm.cdf(1 / np.sqrt(2)), abs=1e-15)

    @given(st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0),
                              st.floats(-12.0, 1.0), st.floats(-12.0, 1.0)),
                    min_size=1, max_size=6))
    def test_two_arm_closed_form(self, rows):
        # Means in [-5, 5], variances log-uniform in [1e-12, 10].
        drawn = np.array(rows)
        means, variances = drawn[:, :2], 10.0 ** drawn[:, 2:]
        probs = ts_optimal_prob(means, variances)
        z = (means[:, 0] - means[:, 1]) / np.sqrt(variances.sum(axis=1))
        assert np.abs(probs - np.column_stack([ndtr(z), ndtr(-z)])).max() <= 1e-15
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-15
        assert np.abs(probs - _ts_quadrature(means, np.sqrt(variances))).max() <= 1e-12

    @given(st.integers(3, 5).flatmap(lambda K: st.lists(
        st.tuples(st.floats(-5.0, 5.0), st.floats(-12.0, 1.0)), min_size=K, max_size=K)))
    def test_three_or_more_arms_against_adaptive_quadrature(self, arms):
        # Means in [-5, 5], variances log-uniform in [1e-12, 10].
        drawn = np.array(arms)
        means, sds = drawn[:, 0], np.sqrt(10.0 ** drawn[:, 1])
        probs = ts_optimal_prob(means, sds ** 2)
        want = [reference_ts_entry(a, means, sds) for a in range(means.size)]
        assert np.abs(probs - want).max() <= 1e-9
        assert abs(probs.sum() - 1.0) <= 1e-12

    @given(st.integers(3, 5).flatmap(lambda K: st.lists(
        st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-12.0, 1.0)), min_size=K, max_size=K),
        min_size=1, max_size=4)))
    def test_quadrature_skips_no_bit_on_collapsed_pieces(self, rows):
        # The random rows above, in blocks: leaving the CDFs of zero-width
        # pieces at 1.0 gives the bits of evaluating every piece's CDFs.
        drawn = np.array(rows)
        means, sds = drawn[..., 0], np.sqrt(10.0 ** drawn[..., 1])
        got, want = _ts_quadrature(means, sds), reference_ts_quadrature(means, sds)
        assert got.tobytes() == want.tobytes()

    def test_symmetric_arms(self):
        probs = ts_optimal_prob(np.zeros(3), np.ones(3))
        np.testing.assert_allclose(probs, [1 / 3] * 3, rtol=0, atol=1e-12)

    def test_degenerate_variance_limit(self):
        probs = ts_optimal_prob(np.array([1.0, 0.0]), np.array([1e-12, 1e-12]))
        np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-6)

    def test_mixed_degenerate_variance(self):
        # One sharp posterior below a diffuse one: step-like integrand.
        probs = ts_optimal_prob(np.array([0.0, 0.5]), np.array([1.0, 1e-10]))
        assert probs[0] == pytest.approx(1 - norm.cdf(0.5), abs=1e-6)

    def test_sharp_posterior_against_a_diffuse_one(self):
        # The sharp arm's CDF is a step on the diffuse arm's scale, which a
        # rule placed by the diffuse arm's density alone misses (Gauss-Hermite
        # by 0.069). A third arm far below changes no probability.
        means = np.array([3.7321435358471273, 4.158817106358033])
        variances = np.array([1.016101190198141e-07, 6.00941335792174])
        z = (means[0] - means[1]) / np.sqrt(variances.sum())
        three = ts_optimal_prob(np.append(means, -50.0), np.append(variances, 1.0))
        np.testing.assert_allclose(three, [ndtr(z), ndtr(-z), 0.0], rtol=0, atol=1e-12)

    def test_lone_arm_is_best_with_probability_one(self):
        np.testing.assert_array_equal(ts_optimal_prob([[0.3]], [[1.0]]), [[1.0]])
        np.testing.assert_array_equal(ts_optimal_prob(np.array([-2.0]), np.array([1e-12])), [1.0])

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


def _policy_with(config, means, counts, d=1, target=None):
    """A block-of-one MAB policy whose statistics hold ``counts`` pulls at ``means``."""
    policy = new_policy(config, len(means), d, target=target)
    stats = policy.stats
    stats["counts"][:] = np.asarray(counts, dtype=np.int64)[None]
    stats["sums"][:] = np.asarray(means, dtype=float) * stats["counts"]
    np.divide(stats["sums"], stats["counts"], out=stats["means"], where=stats["counts"] > 0)
    policy.t = int(stats["counts"].sum())
    return policy


def _rows(policy):
    """A context-free block-of-one policy's one distribution."""
    return policy.distribution(np.zeros((1, 1)))[0]


class TestMabDistributions:
    def test_eps_greedy_example(self):
        config = PolicyConfig(kind="eps_greedy_mab", epsilon=0.2)
        policy = _policy_with(config, [1.0, 0.5], [5, 5])
        np.testing.assert_allclose(_rows(policy), [0.9, 0.1])

    def test_ucb_hand_index(self):
        config = PolicyConfig(kind="ucb_mab", pi_min=0.05)
        policy = _policy_with(config, [1.0, 0.5], [100, 1])  # t = 101, so round 102
        dist = _rows(policy)
        # radius 2 log 102 = 9.25: indices (1 + sqrt(0.0925), 0.5 + sqrt(9.25)) -> arm 2 wins
        np.testing.assert_allclose(dist, [0.05, 0.95])

    def test_ucb_forced_initialization(self):
        config = PolicyConfig(kind="ucb_mab", pi_min=0.05)
        policy = new_policy(config, 3, 1)
        np.testing.assert_array_equal(_rows(policy), [1, 0, 0])
        policy.t = 1
        np.testing.assert_array_equal(_rows(policy), [0, 1, 0])

    def test_ts_symmetric(self):
        config = PolicyConfig(kind="ts_mab", pi_min=0.05)
        policy = new_policy(config, 2, 1)
        np.testing.assert_allclose(_rows(policy), [0.5, 0.5], atol=1e-6)

    def test_argmax_invariance_to_common_shift(self):
        config = PolicyConfig(kind="eps_greedy_mab", epsilon=0.3)
        ucb_config = PolicyConfig(kind="ucb_mab", pi_min=0.1)
        for shift in (0.0, 5.0, -11.0):
            shifted = np.array([0.2, 0.9, 0.4]) + shift
            np.testing.assert_allclose(
                _rows(_policy_with(config, shifted, [7, 7, 7])),
                _rows(_policy_with(config, [0.2, 0.9, 0.4], [7, 7, 7])))
            np.testing.assert_allclose(
                _rows(_policy_with(ucb_config, shifted, [7, 7, 7])),
                _rows(_policy_with(ucb_config, [0.2, 0.9, 0.4], [7, 7, 7])))


@pytest.mark.parametrize("K", [2, 3, 5])
def test_greedy_table_rows_are_the_filled_and_scattered_rows(K):
    # Each greedy kind's rows come from one cached (K, K) table; a row is the
    # fill-and-scatter row bit for bit, clipped for ipwz_greedy, for one or C
    # contexts per trajectory.
    best = stream(K).integers(K, size=(6, 4))
    for pi_min in (0.005, 0.05, 1.0 / K):
        explore = {
            "eps_greedy_mab": PolicyConfig(kind="eps_greedy_mab", pi_min=pi_min).epsilon_for(K) / K,
            "eps_greedy_mab epsilon": 0.3 / K,
            "ucb_mab": pi_min,
            "ucb_mab forced": 0.0,
            "linucb": pi_min,
        }
        for kind, each in explore.items():
            for rows in (best[:, 0], best):
                got = _greedy_table(K, each, None).take(rows, axis=0)
                want = reference_greedy_rows(rows, K, each)
                assert got.tobytes() == want.tobytes() and got.shape == want.shape, kind
        eps = PolicyConfig(kind="ipwz_greedy", pi_min=pi_min).epsilon_for(K)
        for rows in (best[:, 0], best):
            got = _greedy_table(K, eps / K, pi_min).take(rows, axis=0)
            want = reference_clip_simplex(reference_greedy_rows(rows, K, eps / K).reshape(-1, K),
                                          pi_min).reshape(got.shape)
            assert got.tobytes() == want.tobytes(), ("ipwz_greedy", pi_min)
        got[...] = 0.0  # a fresh array: the shared table is not written through it
        assert not np.all(_greedy_table(K, eps / K, pi_min) == 0.0)


def _boltzmann_probs(beta, contexts, gamma, pi_min):
    """A boltzmann_ridge policy's distribution with its coefficients set to ``beta`` (1, K, d)."""
    config = PolicyConfig(kind="boltzmann_ridge", gamma=gamma, pi_min=pi_min)
    policy = new_policy(config, beta.shape[1], beta.shape[2])
    policy.stats["ridge_beta"][:] = beta
    return policy.distribution(contexts)


class TestBoltzmann:
    def test_equal_coefficients_uniform(self):
        beta = np.full((1, 3, 2), 0.7)
        dist = _boltzmann_probs(beta, np.array([[1.0, -2.0]]), 5.0, 0.05)[0]
        np.testing.assert_allclose(dist, [1 / 3] * 3, atol=1e-12)

    def test_softmax_hand_value(self):
        gamma = 2.5
        beta = np.array([[[0.0], [gamma * np.log(3.0)]]])
        dist = _boltzmann_probs(beta, np.array([[1.0]]), gamma, 0.2)[0]
        np.testing.assert_allclose(dist, [0.25, 0.75], atol=1e-12)

    def test_high_temperature_limit(self):
        beta = np.array([[[3.0], [-2.0]]])
        dist = _boltzmann_probs(beta, np.array([[1.0]]), 1e9, 0.05)[0]
        np.testing.assert_allclose(dist, [0.5, 0.5], atol=1e-6)


class TestLinUCB:
    def test_tie_breaks_to_lowest_arm(self):
        config = PolicyConfig(kind="linucb", pi_min=0.05)
        policy = new_policy(config, 2, 1)
        dist = policy.distribution(np.array([[1.0]]))[0]
        np.testing.assert_allclose(dist, [0.95, 0.05])

    def test_hand_ridge_index(self):
        config = PolicyConfig(kind="linucb", ridge_lambda=1.0)
        policy = new_policy(config, 2, 1)
        policy.fold(*one_round([2.0], 0, 0.99, 3.0))
        beta = policy.stats["ridge_beta"]
        assert beta[0, 0, 0] == pytest.approx(6.0 / 5.0)
        index = beta[0, 0] @ np.array([2.0])  # alpha = 0 contribution
        assert index == pytest.approx(2.4)

    def test_pi_min_bound(self):
        config = PolicyConfig(kind="linucb", pi_min=0.01)
        policy = new_policy(config, 2, 1)
        policy.fold(*one_round([1.0], 0, 0.99, 1.0))
        dist = policy.distribution(np.array([[-4.0]]))
        assert dist.min() == pytest.approx(0.01)


class TestSelectAction:
    def test_random_policy_quarter(self):
        config = PolicyConfig(kind="random")
        policy = new_policy(config, 4, 1)
        for _ in range(10):
            _, prob, dist = select_action(policy, np.array([0.3]), stream(9))
            assert prob == 0.25
            np.testing.assert_allclose(dist, 0.25)

    def test_clipped_policies_respect_floor(self):
        rng = stream(33)
        target = ScoreTarget(family="misspec_linear")
        for kind in ("ts_mab", "boltzmann_ridge", "boltzmann_sgd", "ipwz_greedy", "linucb"):
            config = PolicyConfig(kind=kind, pi_min=0.07, gamma=0.5)
            policy = new_policy(config, 3, 1, target=target)
            for t in range(40):
                x = rng.normal(size=1)
                arm, prob, dist = select_action(policy, x, rng)
                assert prob >= 0.07 - 1e-12
                assert abs(dist.sum() - 1.0) < 1e-12
                policy.fold(*one_round(x, arm, prob, float(rng.normal())))

    def test_same_stream_same_action(self):
        config = PolicyConfig(kind="random")
        policy = new_policy(config, 5, 1)
        a1 = select_action(policy, np.array([0.0]), stream(4, 1))
        a2 = select_action(policy, np.array([0.0]), stream(4, 1))
        assert a1[0] == a2[0]


class TestUpdateState:
    def test_sgd_one_step(self):
        target = ScoreTarget(family="misspec_linear")
        config = PolicyConfig(kind="boltzmann_sgd")
        policy = new_policy(config, 2, 1, target=target)
        policy.fold(*one_round([1.0], 0, 0.5, 2.0))  # rate 0.5 * 1^(-2/3)
        assert policy.stats["sgd_beta"][0, 0, 0] == pytest.approx(1.0)
        assert policy.stats["sgd_beta"][0, 1, 0] == 0.0  # unpulled arm untouched

    def test_ridge_recursive_equals_batch_first_step(self):
        config = PolicyConfig(kind="boltzmann_ridge", ridge_lambda=1.0)
        policy = new_policy(config, 2, 1)
        policy.fold(*one_round([2.0], 0, 0.9, 3.0))
        assert policy.stats["ridge_beta"][0, 0, 0] == pytest.approx(1.2)

    def test_ridge_recursive_equals_batch_trajectory(self):
        # Acceptance criterion: 1000 steps, every step within 1e-10 of the
        # batch formula (lambda I + sum x x')^{-1} (sum x y).
        rng = stream(88)
        config = PolicyConfig(kind="boltzmann_ridge", ridge_lambda=0.7)
        d, K = 2, 2
        policy = new_policy(config, K, d)
        grams = [0.7 * np.eye(d) for _ in range(K)]
        moments = [np.zeros(d) for _ in range(K)]
        worst = 0.0
        for t in range(1000):
            x = rng.normal(size=d)
            arm = int(rng.integers(K))
            y = float(rng.normal())
            policy.fold(*one_round(x, arm, 0.5, y))
            grams[arm] = grams[arm] + np.outer(x, x)
            moments[arm] = moments[arm] + x * y
            for a in range(K):
                batch = np.linalg.solve(grams[a], moments[a])
                worst = max(worst, float(np.max(np.abs(batch - policy.stats["ridge_beta"][0, a]))))
        assert worst < 1e-10

    def test_counts_sum_to_t(self):
        config = PolicyConfig(kind="eps_greedy_mab", epsilon=0.5)
        policy = new_policy(config, 3, 1)
        rng = stream(3)
        for t in range(50):
            x = rng.normal(size=1)
            arm, prob, _ = select_action(policy, x, rng)
            policy.fold(*one_round(x, arm, prob, 0.0))
        assert policy.stats["counts"].sum() == policy.t == 50

    @pytest.mark.parametrize("kind", ["eps_greedy_mab", "ucb_mab", "ts_mab"])
    @pytest.mark.parametrize("K", [2, 3])
    def test_kept_means_are_sums_over_counts(self, kind, K):
        # The MAB kinds set the pulled entries of ``means`` each round; after
        # every round of a block it equals sums / counts, zero where unpulled.
        config = PolicyConfig(kind=kind, pi_min=0.05)
        B, rng = 4, stream(K, 5)
        policy = new_policy(config, K, 1, block=B)
        counts, sums, means = (policy.stats[name] for name in ("counts", "sums", "means"))
        for t in range(120):
            probs = policy.distribution(np.zeros((B, 1)))
            arms = np.minimum((rng.random((B, 1)) > probs.cumsum(axis=1)).sum(axis=1), K - 1)
            ys = rng.normal(size=B) * 10.0 ** rng.integers(-3, 4, size=B)
            policy.fold(np.zeros((B, 1)), arms, probs[np.arange(B), arms], ys)
            want = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
            assert means.tobytes() == want.tobytes(), f"round {t}"
        assert (counts > 0).all()

    def test_arm_out_of_range(self):
        config = PolicyConfig(kind="random")
        policy = new_policy(config, 2, 1)
        with pytest.raises(ValueError):
            policy.fold(*one_round([0.0], 5, 0.5, 0.0))
        # A negative arm would otherwise count as the last arm.
        block = new_policy(config, 2, 1, block=2)
        with pytest.raises(ValueError):
            block.fold(np.zeros((2, 1)), np.array([0, -1]), np.full(2, 0.5), np.zeros(2))
        assert block.t == 0

    def test_refuses_a_transition_with_too_few_rows(self):
        # One row for a block of three would broadcast into every row.
        config = PolicyConfig(kind="boltzmann_ridge")
        policy = new_policy(config, 2, 1, block=3)
        before = {name: np.copy(array) for name, array in policy.stats.items()}
        with pytest.raises(ValueError, match=r"block of 3 .* contexts 1, arms 1, "
                                             r"propensities 1, outcomes 1"):
            policy.fold(*one_round([2.0], 0, 0.9, 3.0))
        assert policy.t == 0
        for name, array in before.items():
            np.testing.assert_array_equal(policy.stats[name], array, err_msg=name)

    def test_ipwz_refresh_has_no_lag(self):
        target = ScoreTarget(family="misspec_linear")
        config = PolicyConfig(kind="ipwz_greedy", pi_min=0.1)
        policy = new_policy(config, 2, 1, target=target)
        policy.fold(*one_round([1.0], 0, 0.5, 2.0))
        policy.fold(*one_round([1.0], 1, 0.5, -1.0))
        # theta_a = (sum w x y) / (sum w x^2), exact from the incremental stats
        assert policy.stats["ipw_theta"][0, 0, 0] == pytest.approx(2.0)
        assert policy.stats["ipw_theta"][0, 1, 0] == pytest.approx(-1.0)
        assert policy.stats["ipw_ready"][0]

    def test_ipwz_uniform_fallback_before_ready(self):
        target = ScoreTarget(family="misspec_linear")
        config = PolicyConfig(kind="ipwz_greedy", pi_min=0.1)
        policy = new_policy(config, 2, 1, target=target)
        np.testing.assert_allclose(policy.distribution(np.array([[1.0]]))[0], [0.5, 0.5])
        policy.fold(*one_round([1.0], 0, 0.5, 2.0))
        np.testing.assert_allclose(policy.distribution(np.array([[1.0]]))[0], [0.5, 0.5])


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
    (log,), policy, _ = _run_block(env, config, target, 1500, 41, [()])
    assert policy.stats["ipw_ok"].all()
    for arm in range(env.num_arms):
        np.testing.assert_allclose(policy.stats["ipw_theta"][0, arm], ipwz_solve(log, target, arm),
                                   rtol=1e-10)


# The statistics each kind keeps; every kind also reports sgd_clip_count and ipw_ready.
KIND_STATS = {
    "random": (),
    "eps_greedy_mab": ("counts", "sums", "means"),
    "ucb_mab": ("counts", "sums", "means"),
    "ts_mab": ("counts", "sums", "means"),
    "boltzmann_ridge": ("ridge_gram", "ridge_moment", "ridge_beta"),
    "boltzmann_sgd": ("sgd_beta",),
    "ipwz_greedy": ("counts", "ipw_weight", "ipw_gram", "ipw_moment", "ipw_theta", "ipw_ok"),
    "linucb": ("ridge_gram", "ridge_moment", "ridge_beta", "ridge_gram_inv"),
}


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_stats_are_the_kind_statistics(kind):
    policy = new_policy(PolicyConfig(kind=kind), 2, 2,
                        target=ScoreTarget(family="misspec_linear"), block=3)
    assert set(policy.stats) == set(KIND_STATS[kind]) | {"sgd_clip_count", "ipw_ready"}
    for name, array in policy.stats.items():
        assert array.shape[0] == 3 and array.flags.c_contiguous, name


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_stats_entries_cannot_be_rebound(kind):
    # The round scatters through views of the arrays it allocated: no entry
    # can be replaced by another array, nor a new one added.
    policy = new_policy(PolicyConfig(kind=kind), 2, 2,
                        target=ScoreTarget(family="misspec_linear"), block=3)
    for name, array in policy.stats.items():
        with pytest.raises(TypeError):
            policy.stats[name] = array.copy()
        assert policy.stats[name] is array
    with pytest.raises(TypeError):
        policy.stats["counts"] = np.zeros((3, 2), dtype=np.int64)


def test_infeasible_pi_min_at_init():
    with pytest.raises(InfeasibleClipError):
        new_policy(PolicyConfig(kind="ts_mab", pi_min=0.4), 3, 1)


@pytest.mark.parametrize("prior", [(0.0, 1.0), (0.0, float("nan"), 1.0), 5, ("a", 1.0, 1.0),
                                   (True, 1.0, 1.0)],
                         ids=["two_numbers", "nan", "scalar", "string", "bool"])
def test_ts_prior_must_be_three_finite_numbers(prior):
    with pytest.raises(ValueError, match="ts_prior must be three finite numbers"):
        PolicyConfig(kind="ts_mab", ts_prior=prior)


@pytest.mark.parametrize("field, value", [
    ("pi_min", "0.05"), ("gamma", "hot"), ("gamma", True), ("ridge_lambda", [1]),
    ("linucb_alpha", "a"), ("linucb_alpha", float("inf")), ("epsilon", float("nan")),
    ("epsilon", lambda t: 0.1),
])
def test_numeric_fields_must_be_finite_numbers(field, value):
    # Checked on every kind, also one that never reads the field.
    with pytest.raises(ValueError, match=f"policy.{field} must be a finite number, got "):
        PolicyConfig(kind="random", **{field: value})


@pytest.mark.parametrize("kind", ["ipwz_greedy", "boltzmann_sgd"])
def test_sigma_e_of_the_wrong_size_rejected_at_init(kind):
    # A 1x1 Sigma_e on d = 2 contexts would broadcast through every update.
    env = build_environment("nc_gaussian", {"d": 2})
    target = ScoreTarget("noisy_context", sigma_e=[[1.0]])
    with pytest.raises(ValueError, match=r"sigma_e must be a 2x2 matrix, got shape \(1, 1\)"):
        run_trajectory(env, PolicyConfig(kind=kind, pi_min=0.1), target, 200, seed=1)
    new_policy(PolicyConfig(kind=kind, pi_min=0.1), 2, 2,
               target=ScoreTarget("noisy_context", sigma_e=np.eye(2)))


def test_batch_distribution_matches_single():
    rng = stream(314)
    target = ScoreTarget(family="misspec_linear")
    for kind in ("random", "eps_greedy_mab", "ucb_mab", "ts_mab", "boltzmann_ridge",
                 "boltzmann_sgd", "linucb", "ipwz_greedy"):
        config = PolicyConfig(kind=kind, pi_min=0.05, gamma=2.0)
        policy = new_policy(config, 2, 2, target=target)
        for _ in range(30):
            x = rng.normal(size=2)
            arm, prob, _ = select_action(policy, x, rng)
            policy.fold(*one_round(x, arm, prob, float(rng.normal())))
        X = rng.normal(size=(20, 2))
        batch = policy.distribution(X)  # a block of one over 20 contexts
        single = np.stack([policy.distribution(x[None])[0] for x in X])
        np.testing.assert_array_equal(batch, single, err_msg=kind)


@pytest.mark.parametrize("kind", POLICY_KINDS)
@settings(max_examples=15)
@given(family=st.sampled_from(["misspec_linear", "ope"]), d=st.integers(1, 3),
       block=st.sampled_from([1, 4]), C=st.sampled_from([1, 3]), rows=st.sampled_from([1, 4]),
       rounds=st.integers(0, 120), seed=st.integers(0, 2**16))
def test_probe_axis_equals_per_context_calls(kind, family, d, block, C, rows, rounds, seed):
    # A (B, C, d) call is the stack of the C per-context (B, d) calls, bit for
    # bit, on a state advanced some rounds; a block of one broadcasts over axis 0.
    env = build_environment("nc_gaussian", {"d": d})
    target = ScoreTarget(family=family, target_policy=TargetPolicy(kind="uniform"))
    config = PolicyConfig(kind=kind, pi_min=0.05, gamma=2.0)
    _, policy, _ = _run_block(env, config, target, rounds, seed, [(b,) for b in range(block)])
    n = rows if block == 1 else block
    contexts = stream(seed, 1).normal(size=(n, C, d))
    got = policy.distribution(contexts)
    want = np.stack([policy.distribution(np.ascontiguousarray(contexts[:, c]))
                     for c in range(C)], axis=1)
    assert got.shape == (n, C, env.num_arms)
    np.testing.assert_array_equal(got, want)


@settings(max_examples=40)
@given(kind=st.sampled_from(["boltzmann_ridge", "linucb"]), block=st.integers(1, 6),
       K=st.integers(2, 4), d=st.integers(1, 3), lam=st.floats(0.5, 2.0),
       horizon=st.integers(1, 300), seed=st.integers(0, 2**16))
def test_recursive_ridge_equals_batch_on_blocks(kind, block, K, d, lam, horizon, seed):
    # Every row of a lockstep block holds, for each arm, the batch ridge fit
    # (lambda I + X_a'X_a)^{-1} X_a'Y_a of its own log (and LinUCB the inverse).
    env = build_environment("nc_gaussian", {"d": d, "num_arms": K})
    config = PolicyConfig(kind=kind, pi_min=0.05, gamma=2.0, ridge_lambda=lam)
    logs, policy, _ = _run_block(env, config, None, horizon, seed, [(b,) for b in range(block)])
    ridge_beta, ridge_gram_inv = policy.stats["ridge_beta"], policy.stats.get("ridge_gram_inv")
    for b, log in enumerate(logs):
        for a in range(K):
            X, Y = log.contexts[log.arms == a], log.outcomes[log.arms == a]
            gram = lam * np.eye(d) + X.T @ X
            beta = np.linalg.solve(gram, X.T @ Y)
            assert np.abs(ridge_beta[b, a] - beta).max() <= 1e-10 * max(
                1.0, np.abs(beta).max()), f"row {b} arm {a}"
            if kind == "linucb":
                inv = np.linalg.inv(gram)
                assert np.abs(ridge_gram_inv[b, a] - inv).max() <= 1e-10 * max(
                    1.0, np.abs(inv).max()), f"row {b} arm {a}"
