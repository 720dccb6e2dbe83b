"""Acceptance suite: one test per criterion, each printing a pass/fail line.

These are the desk-scale versions of the headline experiments (the full runs
use R = 2,500). Seeds are pinned in the checked-in configs; every tolerance
is stated inline. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest
from scipy.stats import kstest

from banditlab.env import build_environment, oracle_target
from banditlab.estimator import ScoreTarget, TargetPolicy
from banditlab.harness import (
    ExperimentConfig,
    convergence_diagnostic,
    replicate,
)
from banditlab.policy import (
    PolicyConfig,
    clip_simplex,
    new_policy,
    ts_optimal_prob,
)
from banditlab.rng import stream

from helpers import martingale_zscores, qp_project

MISSPEC = ScoreTarget(family="misspec_linear")
NC2 = ScoreTarget(family="noisy_context", sigma_e=[[2.0]])
OPE_UNIFORM = ScoreTarget(family="ope", target_policy=TargetPolicy(kind="uniform"))
WORKERS = 2


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_coverage_converging_policy():
    started = time.time()
    env = build_environment("nc_gaussian", seed=5)
    config = ExperimentConfig(env=env, policy=PolicyConfig(kind="random"),
                              target=MISSPEC, horizon=5000, replications=500,
                              seed=303, levels=(0.5, 0.95), workers=WORKERS)
    summary = replicate(config)
    elapsed = time.time() - started
    cov95 = summary.covered[:, 1].mean(axis=0).ravel()
    cov50 = summary.covered[:, 0].mean(axis=0).ravel()
    ok = (np.all((cov95 >= 0.92) & (cov95 <= 0.975))
          and np.all((cov50 >= 0.44) & (cov50 <= 0.56))
          and elapsed <= 120.0)
    _report(1, "coverage under random policy", ok,
            f"95%: {np.round(cov95, 3).tolist()} in [0.92, 0.975]; "
            f"50%: {np.round(cov50, 3).tolist()} in [0.44, 0.56]; {elapsed:.0f}s <= 120s")


def test_criterion_02_nonlinear_environment_band():
    env = build_environment("ms_polynomial", seed=5)
    config = ExperimentConfig(
        env=env, policy=PolicyConfig(kind="boltzmann_ridge", gamma=100.0, pi_min=0.05),
        target=MISSPEC, horizon=5000, replications=500, seed=304,
        levels=(0.95,), workers=WORKERS)
    summary = replicate(config)
    cov95 = summary.covered[:, 0].mean(axis=0).ravel()
    ok = np.all((cov95 >= 0.87) & (cov95 <= 0.975))
    _report(2, "nonlinear-environment undercoverage band", ok,
            f"95% coverage {np.round(cov95, 3).tolist()} in [0.87, 0.975]")


def test_criterion_03_nonconvergence_pathology():
    env = build_environment("nonconv_demo", seed=0)
    linucb = ExperimentConfig(
        env=env, policy=PolicyConfig(kind="linucb", pi_min=0.01),
        target=MISSPEC, horizon=10_000, replications=200, seed=301,
        levels=(0.5, 0.95), diagnostic_contexts=((-4.0,),), workers=WORKERS)
    s_lin = replicate(linucb)
    diag = convergence_diagnostic(s_lin, np.array([-4.0]), arm=1)

    random = ExperimentConfig(
        env=env, policy=PolicyConfig(kind="random"),
        target=MISSPEC, horizon=10_000, replications=200, seed=302,
        levels=(0.5, 0.95), diagnostic_contexts=((-4.0,),), workers=WORKERS)
    s_rand = replicate(random)
    random_probs = s_rand.last_step_probs[:, 0, 1]

    ks_p = [kstest(s_rand.std_errors[:, arm, 0], "norm").pvalue for arm in range(2)]
    ok = (diag.low_mass >= 0.15 and diag.high_mass >= 0.15
          and np.all(random_probs == 0.5)
          and min(ks_p) > 0.01)
    _report(3, "non-convergence pathology", ok,
            f"LinUCB tail masses {diag.low_mass:.2f}/{diag.high_mass:.2f} >= 0.15; "
            f"random last-step prob == 0.5 in all reps: {bool(np.all(random_probs == 0.5))}; "
            f"random KS p-values {np.round(ks_p, 3).tolist()} > 0.01")


def test_criterion_04_variance_estimator_consistency():
    env = build_environment("nc_gaussian", seed=5)
    config = ExperimentConfig(env=env, policy=PolicyConfig(kind="random"),
                              target=MISSPEC, horizon=10_000, replications=500,
                              seed=401, levels=(0.95,), workers=WORKERS)
    summary = replicate(config)
    scaled = np.sqrt(config.horizon) * (summary.theta_hat - summary.thetas_star[None])
    empirical = scaled.var(axis=0, ddof=1)
    rel = np.abs(summary.sigma_diag.mean(axis=0) / empirical - 1.0)
    ok = np.all(rel < 0.15)
    _report(4, "sandwich variance consistency", ok,
            f"max relative error {rel.max():.3f} < 0.15 "
            f"(per cell: {np.round(rel.ravel(), 3).tolist()})")


def test_criterion_05_clip_oracle_equivalence():
    rng = stream(2025)
    worst = 0.0
    for _ in range(1000):
        K = int(rng.integers(2, 6))
        v = rng.dirichlet(np.ones(K) * rng.uniform(0.2, 3.0))
        pi_min = rng.uniform(0.0, 1.0 / K) * 0.95 + 1e-4
        worst = max(worst, float(np.linalg.norm(
            clip_simplex(v, pi_min) - qp_project(v, pi_min))))
    lipschitz_ok = True
    for _ in range(10_000):
        K = int(rng.integers(2, 6))
        p, q = rng.dirichlet(np.ones(K)), rng.dirichlet(np.ones(K))
        pi_min = rng.uniform(1e-4, 0.9 / K)
        lhs = np.linalg.norm(clip_simplex(p, pi_min) - clip_simplex(q, pi_min))
        if lhs > (K + 1) * np.linalg.norm(p - q) + 1e-12:
            lipschitz_ok = False
            break
    ok = worst < 1e-8 and lipschitz_ok
    _report(5, "clip oracle equivalence", ok,
            f"max distance to QP oracle {worst:.2e} < 1e-8; "
            f"(K+1)-Lipschitz bound held on 10^4 pairs: {lipschitz_ok}")


def test_criterion_06_ridge_recursive_batch_equivalence():
    rng = stream(606)
    config = PolicyConfig(kind="boltzmann_ridge", ridge_lambda=1.0)
    d, K = 2, 2
    policy = new_policy(config, K, d)
    grams = [np.eye(d) for _ in range(K)]
    moments = [np.zeros(d) for _ in range(K)]
    worst = 0.0
    for _ in range(1000):
        x = rng.normal(size=d)
        arm = int(rng.integers(K))
        y = float(x.sum() + rng.normal())
        policy.fold(x[None], np.array([arm]), np.array([0.5]), np.array([y]))
        grams[arm] += np.outer(x, x)
        moments[arm] += x * y
        for a in range(K):
            batch = np.linalg.solve(grams[a], moments[a])
            worst = max(worst, float(np.max(np.abs(batch - policy.stats["ridge_beta"][0, a]))))
    ok = worst < 1e-10
    _report(6, "ridge recursive/batch equivalence", ok,
            f"max discrepancy over 1000 steps {worst:.2e} < 1e-10")


def test_criterion_07_ope_head_to_head():
    env = build_environment("nonconv_demo", seed=0)
    config = ExperimentConfig(
        env=env, policy=PolicyConfig(kind="boltzmann_ridge", gamma=20.0, pi_min=0.05),
        target=OPE_UNIFORM, horizon=2500, replications=500, seed=307, levels=(0.95,),
        workers=WORKERS, cadr_regressions=("zero",))
    summary = replicate(config)
    cov_ipwz = float(summary.value_covered["ipwz"][:, 0].mean())
    cov_cadr = float(summary.value_covered["cadr_zero"][:, 0].mean())
    var_ipwz = float(summary.values["ipwz"].var(ddof=1))
    var_cadr = float(summary.values["cadr_zero"].var(ddof=1))
    ok = (abs(summary.v_star - 7.0 / 24.0) < 1e-12
          and cov_ipwz >= 0.92 and cov_cadr >= 0.92
          and var_ipwz <= 1.5 * var_cadr)
    _report(7, "OPE head-to-head", ok,
            f"coverage IPW-Z {cov_ipwz:.3f} / CADR(zero) {cov_cadr:.3f} >= 0.92 "
            f"against V* = 7/24; variance ratio {var_ipwz / var_cadr:.2f} <= 1.5")


def test_criterion_08_temperature_and_pi_min_monotonicity():
    env1 = build_environment("nc_hard1", seed=0)
    variances = {}
    for gamma in (10.0, 100.0):
        config = ExperimentConfig(
            env=env1, policy=PolicyConfig(kind="boltzmann_ridge", gamma=gamma, pi_min=0.05),
            target=NC2, horizon=10_000, replications=200, seed=305,
            levels=(0.95,), workers=WORKERS)
        summary = replicate(config)
        variances[gamma] = float(summary.theta_hat.var(axis=0, ddof=1).sum())
    temp_ok = variances[100.0] < variances[10.0]

    # The pi_min clause runs at the desk scale T=2500, R=800: by T=10^4 on
    # nc_hard2 the coverage gap has converged away (measured 0.002 +/- 0.009
    # at R=1200), while at T=2500 it is 0.035 +/- 0.009, so the shorter
    # horizon is where the effect is testable at the >= 0.01 threshold.
    env2 = build_environment("nc_hard2", seed=0)
    coverage = {}
    for pi_min in (0.05, 0.005):
        config = ExperimentConfig(
            env=env2, policy=PolicyConfig(kind="ipwz_greedy", pi_min=pi_min),
            target=NC2, horizon=2500, replications=800, seed=306,
            levels=(0.95,), workers=WORKERS)
        summary = replicate(config)
        coverage[pi_min] = float(summary.covered[:, 0].mean())
    gap = coverage[0.05] - coverage[0.005]
    pi_ok = gap >= 0.01
    ok = temp_ok and pi_ok
    _report(8, "temperature and pi_min monotonicity", ok,
            f"variance gamma=100 {variances[100.0]:.4f} < gamma=10 {variances[10.0]:.4f}: "
            f"{temp_ok}; 95% coverage pi_min=0.05 {coverage[0.05]:.3f} exceeds "
            f"pi_min=0.005 {coverage[0.005]:.3f} by {gap:.3f} >= 0.01: {pi_ok}")


def test_criterion_09_oracle_cross_checks():
    env = build_environment("nonconv_demo", seed=0)
    exact = oracle_target(env, MISSPEC, 0)
    mc = oracle_target(env, MISSPEC, 0, n_oracle=1_000_000, seed=42, method="mc")
    theta_ok = (abs(exact.theta[0] + 3.0 / 34.0) < 1e-12
                and abs(exact.theta[0] - mc.theta[0]) <= 3 * mc.stderr[0])

    rng = stream(777)
    worst = 0.0
    for _ in range(20):
        K = int(rng.integers(2, 5))
        means = rng.normal(size=K) * rng.uniform(0.5, 2.0)
        variances = rng.uniform(0.02, 3.0, size=K)
        draws = rng.normal(means, np.sqrt(variances), size=(1_000_000, K))
        mc_probs = np.bincount(np.argmax(draws, axis=1), minlength=K) / 1e6
        worst = max(worst, float(np.max(np.abs(
            ts_optimal_prob(means, variances) - mc_probs))))
    ts_ok = worst < 0.01
    ok = theta_ok and ts_ok
    _report(9, "oracle cross-checks", ok,
            f"theta*(a0) = -3/34 exact, |exact - MC| <= 3 SE: {theta_ok}; "
            f"TS quadrature vs 10^6-draw MC worst error {worst:.4f} < 0.01")


def test_criterion_10_martingale_property():
    env = build_environment("nc_hard1", seed=0)
    targets = {
        "misspec_linear": MISSPEC,
        "noisy_context": NC2,
        "ope": OPE_UNIFORM,
    }
    kinds = ("random", "eps_greedy_mab", "ucb_mab", "ts_mab",
             "boltzmann_ridge", "boltzmann_sgd", "ipwz_greedy", "linucb")
    worst, worst_cell = 0.0, ""
    for kind in kinds:
        config = PolicyConfig(kind=kind, pi_min=0.05, gamma=5.0, epsilon=0.2)
        for name, target in targets.items():
            theta_star = oracle_target(env, target, 0).theta
            z = martingale_zscores(env, config, target, theta_star, arm=0,
                                   n_draws=10_000, warmup=300, seed=510)
            if z.max() > worst:
                worst, worst_cell = float(z.max()), f"{kind}/{name}"
    ok = worst < 3.0
    _report(10, "martingale property", ok,
            f"worst |mean|/stderr {worst:.2f} < 3 over "
            f"{len(kinds)}x{len(targets)} policy/target cells (at {worst_cell})")
