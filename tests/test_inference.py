"""Sandwich variances, confidence intervals, OPE aggregation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri

from banditlab.env import build_environment, oracle_target
from banditlab.estimator import (
    FAMILIES,
    AuxiliaryData,
    BanditLog,
    NoDataForArm,
    ScoreTarget,
    SingularDesign,
    TargetPolicy,
    ipwz_solve,
)
from banditlab.harness import _run_block, run_trajectory
from banditlab.inference import (
    confidence_intervals,
    estimate_report,
    norm_ppf,
    ope_value,
    sandwich_variance,
    variance_estimated_sigma,
)
from banditlab.policy import PolicyConfig
from banditlab.rng import stream

from helpers import family_target, reference_estimate_report, score_batch, synthetic_log


def _ope_log(pis, ys, arms=None, K=1):
    n = len(ys)
    arms = np.zeros(n, dtype=int) if arms is None else np.asarray(arms)
    return BanditLog(contexts=np.zeros((n, 1)), arms=arms,
                     propensities=np.asarray(pis, dtype=float),
                     outcomes=np.asarray(ys, dtype=float), num_arms=K)


UNIFORM_1 = TargetPolicy(kind="constant", probs=[1.0])


class TestNormPpf:
    def test_against_scipy_grid(self):
        grid = np.concatenate([
            np.linspace(1e-12, 1e-3, 200), np.linspace(1e-3, 1 - 1e-3, 2001),
            np.linspace(1 - 1e-3, 1 - 1e-12, 200)])
        assert np.max(np.abs(norm_ppf(grid) - ndtri(grid))) < 1e-9

    def test_documented_value(self):
        assert norm_ppf(0.975) == pytest.approx(1.959964, abs=5e-7)

    def test_domain(self):
        with pytest.raises(ValueError):
            norm_ppf(0.0)
        with pytest.raises(ValueError):
            norm_ppf(1.5)


class TestSandwichVariance:
    def test_zero_residuals_give_zero_variance(self):
        target = ScoreTarget(family="ope", target_policy=UNIFORM_1)
        log = _ope_log([0.5, 0.25, 0.5], [3.0, 3.0, 3.0])
        theta = ipwz_solve(log, target, 0)
        sigma, _, imat = sandwich_variance(log, target, 0, theta)
        assert sigma[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert imat[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_ope_hand_example(self):
        target = ScoreTarget(family="ope", target_policy=UNIFORM_1)
        log = _ope_log([0.5, 0.5], [1.0, 3.0])
        theta = ipwz_solve(log, target, 0)
        assert theta[0] == pytest.approx(2.0)
        sigma, gdot, imat = sandwich_variance(log, target, 0, theta)
        assert gdot[0, 0] == pytest.approx(2.0)
        assert imat[0, 0] == pytest.approx(4.0)
        assert sigma[0, 0] == pytest.approx(1.0)

    def test_noiseless_linear_environment(self):
        env = build_environment("ms_polynomial",
                                {"degree": 1, "theta": [[2.0], [-1.0]], "sigma_eta": 0.0})
        target = ScoreTarget(family="misspec_linear")
        log = run_trajectory(env, PolicyConfig(kind="random"), target, 500, seed=3)
        theta = ipwz_solve(log, target, 0)
        assert theta[0] == pytest.approx(2.0, abs=1e-10)
        sigma, _, _ = sandwich_variance(log, target, 0, theta)
        assert sigma[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        # The hard-coded grad g must match a central difference of g per family.
        rng = stream(55)
        X = rng.normal(size=(40, 2))
        Y = rng.normal(size=40)
        targets = [
            ScoreTarget(family="misspec_linear"),
            ScoreTarget(family="noisy_context", sigma_e=0.3 * np.eye(2)),
        ]
        grads = {
            "misspec_linear": lambda x: -np.outer(x, x),
            "noisy_context": lambda x: -(np.outer(x, x) - 0.3 * np.eye(2)),
        }
        theta = np.array([0.4, -0.2])
        eps = 1e-6
        for target in targets:
            for i in range(5):
                num = np.zeros((2, 2))
                for j in range(2):
                    up, dn = theta.copy(), theta.copy()
                    up[j] += eps
                    dn[j] -= eps
                    num[:, j] = (score_batch(target, 0, X[i:i + 1], Y[i:i + 1], up, 2)[0]
                                 - score_batch(target, 0, X[i:i + 1], Y[i:i + 1], dn, 2)[0]) / (2 * eps)
                np.testing.assert_allclose(num, grads[target.family](X[i]), atol=1e-6)
        # ope gradient is the constant -1
        target = ScoreTarget(family="ope", target_policy=TargetPolicy(kind="uniform"))
        up = score_batch(target, 0, X[:1], Y[:1], np.array([0.1 + eps]), 2)
        dn = score_batch(target, 0, X[:1], Y[:1], np.array([0.1 - eps]), 2)
        assert (up - dn)[0, 0] / (2 * eps) == pytest.approx(-1.0)

    def test_row_order_invariance(self):
        env = build_environment("nc_hard1")
        target = ScoreTarget(family="noisy_context", sigma_e=[[2.0]])
        log = run_trajectory(env, PolicyConfig(kind="random"), target, 400, seed=9)
        perm = stream(61).permutation(400)
        shuffled = BanditLog(contexts=log.contexts[perm], arms=log.arms[perm],
                             propensities=log.propensities[perm],
                             outcomes=log.outcomes[perm], num_arms=2)
        theta = ipwz_solve(log, target, 0)
        s1, _, _ = sandwich_variance(log, target, 0, theta)
        s2, _, _ = sandwich_variance(shuffled, target, 0, theta)
        np.testing.assert_allclose(s1, s2, rtol=1e-10)


class TestConfidenceIntervals:
    def test_documented_example(self):
        cis = confidence_intervals(np.array([2.0]), np.array([[1.0]]), 100, [0.95])
        lo, hi = cis[0.95][0]
        assert lo == pytest.approx(1.80400, abs=5e-6)
        assert hi == pytest.approx(2.19600, abs=5e-6)

    def test_zero_variance_degenerate(self):
        cis = confidence_intervals(np.array([1.5]), np.array([[0.0]]), 10, [0.5, 0.95])
        for level in (0.5, 0.95):
            np.testing.assert_allclose(cis[level][0], [1.5, 1.5])

    def test_nesting(self):
        cis = confidence_intervals(np.array([0.0]), np.array([[2.0]]), 50, [0.5, 0.95])
        assert cis[0.5][0, 0] > cis[0.95][0, 0]
        assert cis[0.5][0, 1] < cis[0.95][0, 1]

    def test_level_domain(self):
        with pytest.raises(ValueError):
            confidence_intervals(np.array([0.0]), np.array([[1.0]]), 10, [1.2])


class TestOpeValue:
    def test_point_mass_target_reduces_to_single_arm(self):
        target = ScoreTarget(family="ope", target_policy=TargetPolicy(kind="point_mass", arm=0))
        log = _ope_log([0.5, 0.5, 0.5, 0.5], [1.0, 3.0, 7.0, 9.0],
                       arms=[0, 0, 1, 1], K=2)
        report = ope_value(log, target)
        theta0 = ipwz_solve(log, target, 0)
        sigma0, _, _ = sandwich_variance(log, target, 0, theta0)
        # arm 1 contributes theta_1 = 0 (pi_e = 0) and zero variance
        assert report.value == pytest.approx(theta0[0])
        assert report.variance == pytest.approx(sigma0[0, 0])

    def test_nonconv_demo_value_near_oracle(self):
        env = build_environment("nonconv_demo")
        target = ScoreTarget(family="ope", target_policy=TargetPolicy(kind="uniform"))
        log = run_trajectory(env, PolicyConfig(kind="random"), target, 20_000, seed=23)
        report = ope_value(log, target)
        assert report.value == pytest.approx(7.0 / 24.0, abs=0.02)
        lo, hi = report.cis[0.95]
        assert lo < 7.0 / 24.0 < hi

    def test_additivity_across_identical_arms(self):
        target = ScoreTarget(family="ope", target_policy=TargetPolicy(kind="uniform"))
        log = _ope_log([0.5, 0.5, 0.5, 0.5], [1.0, 3.0, 1.0, 3.0],
                       arms=[0, 0, 1, 1], K=2)
        report = ope_value(log, target)
        theta0 = ipwz_solve(log, target, 0)
        assert report.value == pytest.approx(2 * theta0[0])
        sigma0, _, _ = sandwich_variance(log, target, 0, theta0)
        assert report.variance == pytest.approx(2 * sigma0[0, 0])

    def test_missing_arm_propagates(self):
        target = ScoreTarget(family="ope", target_policy=TargetPolicy(kind="uniform"))
        log = _ope_log([0.5, 0.5], [1.0, 2.0], arms=[0, 0], K=2)
        with pytest.raises(NoDataForArm) as err:
            ope_value(log, target)
        assert err.value.arm == 1

    def test_self_normalization_limit(self):
        # (1/T) sum w 1{A=a} concentrates at 1 for clipped policies.
        env = build_environment("nonconv_demo")
        target = ScoreTarget(family="ope", target_policy=TargetPolicy(kind="uniform"))
        inside = 0
        reps = 40
        # One lockstep block; each log is the same bits as its lone run_trajectory.
        logs, _, _ = _run_block(env, PolicyConfig(kind="boltzmann_ridge", gamma=5.0), target,
                             10_000, 77, [(rep,) for rep in range(reps)])
        for log in logs:
            theta = ipwz_solve(log, target, 0)
            _, gdot, _ = sandwich_variance(log, target, 0, theta)
            inside += 0.9 < gdot[0, 0] < 1.1
        assert inside >= 0.95 * reps


class TestVarianceEstimatedSigma:
    def _setup(self):
        env = build_environment("nc_hard1")
        log = run_trajectory(env, PolicyConfig(kind="random"),
                             ScoreTarget(family="noisy_context", sigma_e=[[2.0]]),
                             2000, seed=31)
        return log

    def test_zero_measurement_error_reduces_to_known_sigma(self):
        log = self._setup()
        aux = AuxiliaryData(observed=np.ones((50, 1)), latent=np.ones((50, 1)))
        theta = np.array([1.0])
        prop, scale = variance_estimated_sigma(log, aux, 0, theta, regime="proportional")
        ndom, _ = variance_estimated_sigma(log, aux, 0, theta, regime="n_dominant")
        np.testing.assert_allclose(prop, ndom, rtol=1e-12)
        assert scale == "sqrt_T"

    def test_kappa_ordering(self):
        log = self._setup()
        rng = stream(41)
        err = rng.normal(size=(40, 1))
        aux = AuxiliaryData(observed=err, latent=np.zeros((40, 1)))
        theta = np.array([1.5])
        sig_small_kappa, _ = variance_estimated_sigma(
            log, aux, 0, theta, regime="proportional")
        # Same data treated as if n were large relative to T: drop the H term.
        sig_known, _ = variance_estimated_sigma(
            log, aux, 0, theta, regime="n_dominant")
        assert sig_small_kappa[0, 0] >= sig_known[0, 0]

    def test_hand_h_bar_zero(self):
        # aux errors {+1, -1}: V_i = 1 = sigma_e_hat for both rows, so H = 0.
        log = self._setup()
        aux = AuxiliaryData(observed=[[1.0], [-1.0]], latent=[[0.0], [0.0]])
        assert aux.sigma_e_hat()[0, 0] == pytest.approx(1.0)
        prop, _ = variance_estimated_sigma(log, aux, 0, np.array([1.0]), regime="proportional")
        ndom, _ = variance_estimated_sigma(log, aux, 0, np.array([1.0]), regime="n_dominant")
        np.testing.assert_allclose(prop, ndom, atol=1e-12)

    def test_t_dominant_scaling(self):
        log = self._setup()
        aux = AuxiliaryData(observed=[[1.0], [-1.0], [0.5]], latent=[[0.0], [0.0], [0.0]])
        _, scale = variance_estimated_sigma(log, aux, 0, np.array([1.0]), regime="t_dominant")
        assert scale == "sqrt_n"

    def test_auto_regime_thresholds(self):
        log = self._setup()  # T = 2000
        theta = np.array([1.0])
        big = AuxiliaryData(observed=np.ones((30_000, 1)), latent=np.ones((30_000, 1)))
        small = AuxiliaryData(observed=np.ones((50, 1)), latent=np.ones((50, 1)))
        mid = AuxiliaryData(observed=np.ones((2000, 1)), latent=np.ones((2000, 1)))
        assert variance_estimated_sigma(log, big, 0, theta)[1] == "sqrt_T"
        assert variance_estimated_sigma(log, small, 0, theta)[1] == "sqrt_n"
        prop, scale = variance_estimated_sigma(log, mid, 0, theta)
        assert scale == "sqrt_T"


class TestEstimatedSigmaEndToEnd:
    def test_proportional_regime_intervals_cover_true_coefficient(self):
        from banditlab.env import sample_rounds

        env = build_environment("nc_hard1")
        true_theta = env.true_params[0, 0]
        T, n_aux, R = 3000, 3000, 80
        hits = 0
        for rep in range(R):
            log = run_trajectory(env, PolicyConfig(kind="random"), None, T,
                                 seed=606, stream_path=(rep,))
            aux_batch = sample_rounds(env, stream(607, rep), n_aux)
            aux = AuxiliaryData(observed=aux_batch.contexts, latent=aux_batch.latents)
            target = ScoreTarget(family="noisy_context", sigma_e=aux.sigma_e_hat())
            theta_t = ipwz_solve(log, target, 0)
            var, scaling = variance_estimated_sigma(log, aux, 0, theta_t, regime="proportional")
            assert scaling == "sqrt_T"
            half = norm_ppf(0.975) * np.sqrt(var[0, 0] / T)
            hits += theta_t[0] - half <= true_theta <= theta_t[0] + half
        assert hits >= 0.9 * R


class TestVarianceConsistencySmall:
    def test_sandwich_tracks_sampling_variance(self):
        # Desk-scale variance-tracking check (full scale in acceptance).
        env = build_environment("nc_hard1")
        target = ScoreTarget(family="noisy_context", sigma_e=[[2.0]])
        theta_star = oracle_target(env, target, 0).theta
        R, T = 120, 4000
        errs = np.zeros(R)
        sigmas = np.zeros(R)
        for rep in range(R):
            log = run_trajectory(env, PolicyConfig(kind="random"), target, T,
                                 seed=47, stream_path=(rep,))
            theta = ipwz_solve(log, target, 0)
            sig, _, _ = sandwich_variance(log, target, 0, theta)
            errs[rep] = np.sqrt(T) * (theta[0] - theta_star[0])
            sigmas[rep] = sig[0, 0]
        assert abs(sigmas.mean() / errs.var(ddof=1) - 1.0) < 0.25


def _report_or_error(report, log, target, arm):
    try:
        return report(log, target, arm, levels=(0.5, 0.95))
    except (NoDataForArm, SingularDesign) as exc:
        return exc


def _assert_bits_equal(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), what


class TestEstimateReport:
    @given(family=st.sampled_from(FAMILIES), d=st.integers(1, 3), K=st.integers(2, 3), T=st.integers(5, 400),
           drawn=st.booleans(), defect=st.sampled_from((None, "unpulled", "singular")),
           seed=st.integers(0, 2**16))
    def test_matches_reference_bit_for_bit(self, family, d, K, T, drawn, defect, seed):
        # The one-pass report against the mask-gathering, twice-designing one.
        env = build_environment("nc_gaussian", {"d": d, "num_arms": K}, seed=seed)
        log = synthetic_log(env, T, seed, drawn=drawn, skip_last_arm=defect == "unpulled")
        target = family_target(family, d, sigma_e_scale=0.0 if defect == "singular" else 0.5)
        if defect == "singular":  # arm 0's design is zero unless the regressor is constant
            log.contexts[log.arms == 0] = 0.0
        for arm in range(K):
            got = _report_or_error(estimate_report, log, target, arm)
            want = _report_or_error(reference_estimate_report, log, target, arm)
            if isinstance(want, Exception):
                assert type(got) is type(want) and str(got) == str(want)
                continue
            assert not isinstance(got, Exception), got
            for field in ("theta", "sigma", "gdot", "imat"):
                _assert_bits_equal(getattr(got, field), getattr(want, field), field)
            assert got.cis.keys() == want.cis.keys()
            for level in want.cis:
                _assert_bits_equal(got.cis[level], want.cis[level], f"ci {level}")

    def test_design_built_and_checked_once_per_arm(self, monkeypatch):
        # The solve's design is the sandwich's Gdot, so one design and one
        # condition check per (log, arm).
        import banditlab.estimator as estimator
        import banditlab.inference as inference

        calls = {"normal_equations": 0, "_require_conditioned": 0}
        for name in calls:
            original = getattr(estimator, name)

            def counting(*args, _name=name, _original=original, **kw):
                calls[_name] += 1
                return _original(*args, **kw)

            # The solver and the sandwich look the helper up in estimator only.
            assert not hasattr(inference, name)
            monkeypatch.setattr(estimator, name, counting)
        log = synthetic_log(build_environment("nc_gaussian", {"num_arms": 3}), 300, seed=4)
        for arm in range(3):
            estimate_report(log, ScoreTarget(family="misspec_linear"), arm)
        assert calls == {"normal_equations": 3, "_require_conditioned": 3}
