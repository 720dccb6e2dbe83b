"""Score functions, IPW-Z solving, log serialization, martingale property."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from banditlab.env import InvalidParameterError, build_environment, oracle_target
from banditlab.estimator import (
    _WRITE_CHUNK_ROWS,
    FAMILIES,
    AuxiliaryData,
    BanditLog,
    LogFormatError,
    NoDataForArm,
    ScoreTarget,
    TargetPolicy,
    ipwz_solve,
    read_log_csv,
    score_g,
    write_log_csv,
)
from banditlab.harness import run_trajectory
from banditlab.policy import POLICY_KINDS, PolicyConfig
from banditlab.rng import stream

from helpers import (
    assert_logs_equal,
    family_target,
    ipwz_residual,
    martingale_zscores,
    reference_write_log_csv,
    synthetic_log,
)


def _log(contexts, arms, pis, ys, K=2, **kw):
    return BanditLog(contexts=np.asarray(contexts, dtype=float).reshape(len(arms), -1),
                     arms=np.asarray(arms), propensities=np.asarray(pis, dtype=float),
                     outcomes=np.asarray(ys, dtype=float), num_arms=K, **kw)


class TestScoreG:
    def test_misspec_linear(self):
        target = ScoreTarget(family="misspec_linear")
        got = score_g(target, np.array([0]), np.array([[1.0, 2.0]]), np.array([3.0]),
                      np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(got, [[2.0, 4.0]])

    def test_noisy_context(self):
        target = ScoreTarget(family="noisy_context", sigma_e=[[0.5]])
        got = score_g(target, np.array([0]), np.array([[2.0]]), np.array([1.0]),
                      np.array([[1.0]]))
        np.testing.assert_allclose(got, [[-1.5]])

    def test_ope(self):
        target = ScoreTarget(family="ope",
                             target_policy=TargetPolicy(kind="constant", probs=[0.3, 0.7]))
        got = score_g(target, np.array([0]), np.array([[0.0]]), np.array([10.0]),
                      np.array([[2.0]]), num_arms=2)
        np.testing.assert_allclose(got, [[1.0]])

    def test_dimension_mismatch(self):
        target = ScoreTarget(family="misspec_linear")
        with pytest.raises(ValueError):
            score_g(target, np.array([0]), np.array([[1.0, 2.0]]), np.array([3.0]),
                    np.array([[1.0]]))

    def test_sigma_e_size_must_match_context(self):
        # A 1x1 Sigma_e would broadcast over a 2x2 z z'.
        target = ScoreTarget(family="noisy_context", sigma_e=[[1.0]])
        with pytest.raises(ValueError, match=r"sigma_e must be a 2x2 matrix, got shape \(1, 1\)"):
            score_g(target, np.array([0]), np.array([[1.0, 2.0]]), np.array([3.0]),
                    np.array([[1.0, 0.0]]))


class TestTargetPolicy:
    def test_point_mass_negative_arm_rejected(self):
        # -1 would otherwise index the last arm silently.
        with pytest.raises(ValueError, match="negative"):
            TargetPolicy(kind="point_mass", arm=-1)

    def test_point_mass_arm_beyond_num_arms_rejected(self):
        policy = TargetPolicy(kind="point_mass", arm=2)
        with pytest.raises(ValueError, match="out of range"):
            policy.vector(2)


class TestIpwzSolve:
    def test_ope_weighted_mean(self):
        target = ScoreTarget(family="ope", target_policy=TargetPolicy(kind="point_mass", arm=0))
        log = _log([[0.0], [0.0]], [0, 0], [0.5, 0.5], [1.0, 3.0])
        np.testing.assert_allclose(ipwz_solve(log, target, 0), [2.0])

    def test_misspec_linear_equals_ols_when_unweighted(self):
        target = ScoreTarget(family="misspec_linear")
        log = _log([[1.0], [2.0]], [0, 0], [1.0, 1.0], [2.0, 4.0])
        np.testing.assert_allclose(ipwz_solve(log, target, 0), [2.0])
        # generic OLS oracle on random data with all weights one
        rng = stream(10)
        X = rng.normal(size=(200, 3))
        Y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=200)
        log = BanditLog(contexts=X, arms=np.zeros(200, dtype=int),
                        propensities=np.ones(200), outcomes=Y, num_arms=2)
        ols = np.linalg.lstsq(X, Y, rcond=None)[0]
        np.testing.assert_allclose(ipwz_solve(log, target, 0), ols, atol=1e-10)

    def test_no_data_for_arm(self):
        target = ScoreTarget(family="misspec_linear")
        log = _log([[1.0]], [0], [1.0], [1.0])
        with pytest.raises(NoDataForArm):
            ipwz_solve(log, target, 1)

    @given(family=st.sampled_from(FAMILIES), d=st.integers(1, 3), K=st.integers(2, 3),
           T=st.integers(50, 400), drawn=st.booleans(), seed=st.integers(0, 2**16))
    def test_root_residual_below_tolerance(self, family, d, K, T, drawn, seed):
        # The solve is a root of the weighted estimating equation, checked by the
        # boolean-mask residual built from the family definitions.
        env = build_environment("nc_gaussian", {"d": d, "num_arms": K}, seed=seed)
        target = family_target(family, d)
        log = synthetic_log(env, T, seed, drawn=drawn)
        for arm in range(K):
            theta = ipwz_solve(log, target, arm)
            moment = ipwz_residual(log, target, arm, np.zeros_like(theta))
            res = ipwz_residual(log, target, arm, theta)
            assert np.linalg.norm(res) < 1e-8 * max(1.0, np.linalg.norm(moment))

    def test_ope_invariant_to_constant_propensity(self):
        # Self-normalization cancels any constant logging propensity exactly.
        target = ScoreTarget(family="ope", target_policy=TargetPolicy(kind="uniform"))
        rng = stream(13)
        X = rng.normal(size=(100, 1))
        Y = rng.normal(size=100)
        arms = rng.integers(0, 2, size=100)
        t1 = ipwz_solve(_log(X, arms, np.full(100, 0.5), Y), target, 0)
        t2 = ipwz_solve(_log(X, arms, np.full(100, 0.125), Y), target, 0)
        np.testing.assert_allclose(t1, t2, atol=1e-14)


class TestEstimatedSigma:
    def test_zero_error_reduces_to_misspec_linear(self):
        rng = stream(14)
        X = rng.normal(size=(60, 2))
        Y = rng.normal(size=60)
        log = BanditLog(contexts=X, arms=np.zeros(60, dtype=int),
                        propensities=np.full(60, 0.7), outcomes=Y, num_arms=2)
        aux = AuxiliaryData(observed=np.array([[1.0, 0.0], [0.0, 2.0]]),
                            latent=np.array([[1.0, 0.0], [0.0, 2.0]]))
        sigma_e = aux.sigma_e_hat()
        theta = ipwz_solve(log, ScoreTarget(family="noisy_context", sigma_e=sigma_e), 0)
        np.testing.assert_allclose(sigma_e, np.zeros((2, 2)))
        np.testing.assert_allclose(
            theta, ipwz_solve(log, ScoreTarget(family="misspec_linear"), 0), atol=1e-12)

    def test_hand_sigma_e(self):
        aux = AuxiliaryData(observed=[[1.0], [-1.0]], latent=[[0.0], [0.0]])
        np.testing.assert_allclose(aux.sigma_e_hat(), [[1.0]])

    def test_single_row_aux_allowed(self):
        aux = AuxiliaryData(observed=[[2.0]], latent=[[2.0]])
        np.testing.assert_allclose(aux.sigma_e_hat(), [[0.0]])


# Each is rejected by the one covariance check, in a target or an environment
# override alike, with the message fragment given.
BAD_COVARIANCES = {
    "non_square": ([[1.0, 0.0]], r"must be a (square|2x2) matrix, got shape \(1, 2\)"),
    "wrong_size": (np.eye(3), r"must be a 2x2 matrix, got shape \(3, 3\)"),
    "asymmetric": ([[1.0, 0.5], [0.0, 1.0]], "must be symmetric"),
    "indefinite": ([[1.0, 2.0], [2.0, 1.0]], "must be positive semi-definite"),
    "marker": ("estimate-from-aux", "must be a number or a matrix of numbers"),
}


@pytest.mark.parametrize("where, case", [
    (where, case) for where in ("target", "sigma_s", "sigma_e") for case in BAD_COVARIANCES
    if (where, case) != ("target", "wrong_size")  # a target alone has no dimension
])
def test_covariance_check_rejects(where, case):
    bad, message = BAD_COVARIANCES[case]
    if where == "target":
        with pytest.raises(ValueError, match=f"sigma_e {message}"):
            ScoreTarget(family="noisy_context", sigma_e=bad)
    else:
        with pytest.raises(InvalidParameterError, match=f"'{where}': {where} {message}"):
            build_environment("nc_gaussian", {"d": 2, where: bad})


def test_sigma_e_size_must_match_regressors():
    rng = stream(15)
    log = _log(rng.normal(size=(20, 2)), np.zeros(20, dtype=int), np.full(20, 0.5),
               rng.normal(size=20))
    target = ScoreTarget(family="noisy_context", sigma_e=[[1.0]])
    with pytest.raises(ValueError, match=r"sigma_e must be a 2x2 matrix, got shape \(1, 1\)"):
        ipwz_solve(log, target, 0)


class TestMartingaleProperty:
    def test_weighted_score_centered_for_representative_policies(self):
        env = build_environment("nc_hard1")
        targets = {
            "misspec_linear": ScoreTarget(family="misspec_linear"),
            "noisy_context": ScoreTarget(family="noisy_context", sigma_e=[[2.0]]),
            "ope": ScoreTarget(family="ope", target_policy=TargetPolicy(kind="uniform")),
        }
        for kind in ("random", "ucb_mab", "boltzmann_ridge"):
            for name, target in targets.items():
                theta_star = oracle_target(env, target, 0).theta
                config = PolicyConfig(kind=kind, pi_min=0.05, gamma=5.0)
                z = martingale_zscores(env, config, target, theta_star, arm=0,
                                       n_draws=10_000, warmup=300, seed=17)
                assert np.all(z < 3.0), f"{kind}/{name}: z={z}"


class TestConsistency:
    def test_error_shrinks_with_horizon_under_random_policy(self):
        # Error of the full stacked estimate (both arms) at T=20,000 beats the
        # T=2,000 value in at least 90 of 100 replications.
        env = build_environment("nc_gaussian", seed=8)
        target = ScoreTarget(family="misspec_linear")
        theta_star = np.stack([oracle_target(env, target, a).theta for a in range(2)])
        config = PolicyConfig(kind="random")
        closer = 0
        for rep in range(100):
            log = run_trajectory(env, config, target, 20_000, seed=900, stream_path=(rep,))
            short = BanditLog(contexts=log.contexts[:2000], arms=log.arms[:2000],
                              propensities=log.propensities[:2000],
                              outcomes=log.outcomes[:2000], num_arms=2)
            err_long = np.linalg.norm(
                np.stack([ipwz_solve(log, target, a) for a in range(2)]) - theta_star)
            err_short = np.linalg.norm(
                np.stack([ipwz_solve(short, target, a) for a in range(2)]) - theta_star)
            closer += err_long < err_short
        assert closer >= 90

    def test_cross_arm_errors_uncorrelated(self):
        env = build_environment("nonconv_demo")
        target = ScoreTarget(family="misspec_linear")
        theta_star = np.array([oracle_target(env, target, a).theta[0] for a in range(2)])
        config = PolicyConfig(kind="random")
        errs = np.zeros((500, 2))
        for rep in range(500):
            log = run_trajectory(env, config, target, 10_000, seed=901, stream_path=(rep,))
            for arm in range(2):
                errs[rep, arm] = np.sqrt(10_000) * (
                    ipwz_solve(log, target, arm)[0] - theta_star[arm])
        corr = np.corrcoef(errs[:, 0], errs[:, 1])[0, 1]
        assert abs(corr) < 0.1


class TestCsvRoundTrip:
    def test_round_trip_preserves_propensities_exactly(self, tmp_path):
        env = build_environment("nc_hard1")
        log = run_trajectory(env, PolicyConfig(kind="boltzmann_ridge", gamma=3.0),
                             ScoreTarget(family="misspec_linear"), 200, seed=19)
        path = tmp_path / "log.csv"
        write_log_csv(log, path)
        assert_logs_equal(read_log_csv(path, env.num_arms), log)

    def test_csv_schema(self, tmp_path):
        env = build_environment("nonconv_demo")
        log = run_trajectory(env, PolicyConfig(kind="random"), None, 3, seed=1)
        path = tmp_path / "log.csv"
        write_log_csv(log, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x_1,s_1,a,pi,y"
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[2] == ""          # no latent state -> blank cell
        assert first[3] in ("1", "2")  # arms are 1-based on disk
        assert len(lines) == 4

    # Cells every writer must spell with all 17 digits, or at the ends of the
    # double range; -0.0 keeps its sign only if written as "-0".
    SPECIAL = (-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               0.1 + 0.2, np.nextafter(1.0, 2.0), 2.2250738585072014e-308)
    SPECIAL_PI = (5e-324, 1.0, np.nextafter(1.0, 0.0), 0.1 + 0.2, 2.2250738585072014e-308)

    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(2, 6), d=st.sampled_from([1, 2, 3]),
           latent=st.booleans(), T=st.sampled_from([0, 1, 7, _WRITE_CHUNK_ROWS + 3]),
           cell=st.floats(allow_nan=False, allow_infinity=False), data=st.data())
    def test_round_trip_property(self, tmp_path_factory, seed, K, d, latent, T, cell, data):
        # Any log, unpulled arms included, reads back bit for bit (the sign of
        # -0.0 too), and the chunked writer's bytes are the csv.writer loop's.
        pulled = sorted(data.draw(st.sets(st.integers(0, K - 1), min_size=1), label="pulled"))
        rng = np.random.default_rng(seed)

        def floats(*shape):
            # Uniform over bit patterns, so most cells need all 17 digits.
            v = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
            v[~np.isfinite(v)] = 0.5
            flat = v.reshape(-1)
            if flat.size:
                flat[rng.integers(0, flat.size, size=len(self.SPECIAL) + 1)] = \
                    [*self.SPECIAL, cell]
            return v

        pis = 1.0 - rng.random(T)
        if T:
            pis[rng.integers(0, T, size=len(self.SPECIAL_PI))] = self.SPECIAL_PI
        log = BanditLog(contexts=floats(T, d), arms=rng.choice(pulled, size=T),
                        propensities=pis, outcomes=floats(T), num_arms=K,
                        latents=floats(T, d) if latent else None)
        out = tmp_path_factory.mktemp("log")
        write_log_csv(log, out / "new.csv")
        reference_write_log_csv(log, out / "ref.csv")
        assert (out / "new.csv").read_bytes() == (out / "ref.csv").read_bytes()

        # Every field bit for bit, except that a header-only log cannot say
        # whether latents exist: it reads with None either way.
        assert_logs_equal(read_log_csv(out / "new.csv", num_arms=K),
                          log if T else replace(log, latents=None))

    @pytest.mark.parametrize("env_name", ["nonconv_demo", "nc_gaussian"])
    @pytest.mark.parametrize("kind", [k for k in POLICY_KINDS if k != "random"])
    def test_writer_bytes_equal_csv_writer_loop(self, tmp_path, env_name, kind):
        env = build_environment(env_name)
        log = run_trajectory(env, PolicyConfig(kind=kind), ScoreTarget(family="misspec_linear"),
                             300, seed=11)
        write_log_csv(log, tmp_path / "new.csv")
        reference_write_log_csv(log, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_reads_hand_written_log(self, tmp_path):
        # "\n" line endings, shortest-repr floats, a whole-number arm as "2.0".
        path = tmp_path / "log.csv"
        path.write_text("t,x_1,x_2,s_1,s_2,a,pi,y\n1,0.1,-0,1e-3,2,1,0.5,3\n\n"
                        "2,1,2,3,4,2.0,1,-1.5\n")
        log = read_log_csv(path)
        assert log.num_arms == 2 and log.horizon == 2
        np.testing.assert_array_equal(log.arms, [0, 1])
        np.testing.assert_array_equal(log.contexts, [[0.1, -0.0], [1.0, 2.0]])
        assert np.signbit(log.contexts[0, 1])
        np.testing.assert_array_equal(log.latents, [[1e-3, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(log.propensities, [0.5, 1.0])
        np.testing.assert_array_equal(log.outcomes, [3.0, -1.5])

    @pytest.mark.parametrize("body, message", [
        ("2,0.5,,1,0.5\n", "column"),                     # short row
        ("2,0.5,,1,0.5,oops\n", "oops"),                  # non-numeric cell
        ("2,0.5,,1.5,0.5,1\n", "arm 1.5"),                # non-integer arm
        ("2,0.5,,0,0.5,1\n", "arm indices out of range"),  # arm 0 on disk
        ("2,0.5,,1,0,1\n", "propensities"),               # zero propensity
    ])
    def test_malformed_log_names_file(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("t,x_1,s_1,a,pi,y\n1,0.25,,2,0.5,1\n" + body)
        with pytest.raises(LogFormatError, match=message) as info:
            read_log_csv(path)
        assert str(path) in str(info.value)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x_1,a,pi,y\n1,0.5,1,0.5,1\n")
        with pytest.raises(LogFormatError, match="header"):
            read_log_csv(path)

    def test_invalid_log_rejected(self):
        with pytest.raises(ValueError):
            _log([[1.0]], [0], [0.0], [1.0])   # zero propensity
        with pytest.raises(ValueError):
            _log([[1.0]], [3], [0.5], [1.0])   # arm out of range
