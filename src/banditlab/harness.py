"""Trajectory runner, Monte Carlo replication engine and diagnostics.

``run_trajectory`` executes the data-collection protocol: observe a context,
sample an action from the behavior policy, record the realized propensity and
the chosen arm's outcome, fold the transition into the policy state. Only the
chosen arm's potential outcome ever enters the log, so unconfoundedness holds
by construction.

``replicate`` runs R independent trajectories on split random substreams and
aggregates estimator coverage against ground truth from ``oracle_target``.
Replications are independent work units; executing them serially or on a
process pool yields identical summaries because every stream is keyed by
(master seed, replication index), never by execution order.

``cadr_ope`` implements the contextual adaptive doubly-robust baseline with
variance-stabilization weights, with the behavior policy replayed from the
log so the stabilization weights use the exact round-t policy. It is one more
per-replication estimator: ``replicate(config, cadr_regressions=...)`` runs it
on each replication's log next to IPW-Z, on the same pool, fold and failure
rule.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, is_dataclass
from typing import NamedTuple

import numpy as np

from .env import EnvironmentSpec, oracle_target, sample_rounds, support
from .estimator import BanditLog, NoDataForArm, ScoreTarget, SingularDesign, TargetPolicy
from .inference import estimate_report, norm_ppf, ope_value
from .policy import (
    PolicyConfig,
    Transition,
    action_distribution,
    action_distribution_batch,
    init_state,
    update_state,
)
from .rng import PURPOSE_ENV, PURPOSE_POLICY, stream

MAX_WORKERS_ENV_VAR = "BANDITLAB_MAX_WORKERS"

CADR_REGRESSIONS = ("zero", "online_linear")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one coverage experiment needs, in picklable form."""

    env: EnvironmentSpec
    policy: PolicyConfig
    target: ScoreTarget
    horizon: int
    replications: int
    seed: int = 0
    levels: tuple = (0.5, 0.95)
    diagnostic_contexts: tuple = ()
    variance_mode: str = "full"
    workers: int = 1
    n_oracle: int = 1_000_000
    failure_tolerance: float = 0.05

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        sup = support(self.env)
        if sup is not None:
            xs = np.array([x for _, _, x in sup])
            for ctx in self.diagnostic_contexts:
                ctx = np.atleast_1d(np.asarray(ctx, dtype=float))
                if not np.any(np.all(np.isclose(xs, ctx), axis=1)):
                    raise ValueError(
                        f"diagnostic context {ctx.tolist()} is outside the environment support")


def config_fingerprint(obj) -> str:
    """Stable content hash for configs (dataclasses, arrays, callables by name)."""

    def canon(o):
        if is_dataclass(o) and not isinstance(o, type):
            return {f.name: canon(getattr(o, f.name)) for f in fields(o)}
        if isinstance(o, np.ndarray):
            return ["ndarray", o.shape, o.astype(float).ravel().tolist()] \
                if o.dtype != bool else ["ndarray", o.shape, o.ravel().tolist()]
        if isinstance(o, (list, tuple)):
            return [canon(v) for v in o]
        if isinstance(o, dict):
            return {str(k): canon(v) for k, v in sorted(o.items())}
        if callable(o):
            return f"callable:{getattr(o, '__module__', '?')}.{getattr(o, '__qualname__', repr(o))}"
        return o

    blob = json.dumps(canon(obj), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


_ORACLE_CACHE: dict[str, np.ndarray] = {}


def oracle_thetas(env: EnvironmentSpec, target: ScoreTarget,
                  n_oracle: int = 1_000_000, seed: int = 0) -> np.ndarray:
    """Ground-truth theta* for every arm, cached by configuration hash."""
    key = config_fingerprint([env, target, n_oracle, seed])
    if key not in _ORACLE_CACHE:
        cols = [oracle_target(env, target, arm, n_oracle=n_oracle, seed=seed).theta
                for arm in range(env.num_arms)]
        _ORACLE_CACHE[key] = np.stack(cols)
    return _ORACLE_CACHE[key]


# --- single trajectory ----------------------------------------------------------


def _empty_log(env: EnvironmentSpec) -> BanditLog:
    d, K = env.context_dim, env.num_arms
    return BanditLog(
        contexts=np.zeros((0, d)), arms=np.zeros(0, dtype=np.int64),
        propensities=np.zeros(0), outcomes=np.zeros(0), num_arms=K,
        latents=np.zeros((0, d)) if env.has_latent else None,
        distributions=np.zeros((0, K)),
    )


def _run_trajectory_core(env: EnvironmentSpec, policy: PolicyConfig,
                         target: ScoreTarget | None, horizon: int,
                         seed: int, stream_path: tuple = ()):
    """Run the sequential data-collection loop; returns (log, final policy state)."""
    K, d = env.num_arms, env.context_dim
    state = init_state(policy, K, d, target=target)
    if horizon == 0:
        return _empty_log(env), state
    env_rng = stream(seed, *stream_path, PURPOSE_ENV)
    pol_rng = stream(seed, *stream_path, PURPOSE_POLICY)
    rounds = sample_rounds(env, env_rng, horizon)
    uniforms = pol_rng.random(horizon)

    if policy.kind == "random":
        arms = np.minimum((uniforms * K).astype(np.int64), K - 1)
        propensities = np.full(horizon, 1.0 / K)
        outcomes = rounds.potentials[np.arange(horizon), arms]
        distributions = np.full((horizon, K), 1.0 / K)
        state.t = horizon
        np.add.at(state.counts, arms, 1)
        np.add.at(state.sums, arms, outcomes)
    else:
        arms = np.zeros(horizon, dtype=np.int64)
        propensities = np.zeros(horizon)
        outcomes = np.zeros(horizon)
        distributions = np.zeros((horizon, K))
        contexts = rounds.contexts
        potentials = rounds.potentials
        for t in range(horizon):
            x = contexts[t]
            probs = action_distribution(policy, state, x)
            arm = int(np.searchsorted(np.cumsum(probs), uniforms[t], side="right"))
            arm = min(arm, K - 1)
            y = float(potentials[t, arm])
            arms[t] = arm
            propensities[t] = probs[arm]
            outcomes[t] = y
            distributions[t] = probs
            update_state(policy, state, Transition(x, arm, float(probs[arm]), y))

    log = BanditLog(
        contexts=rounds.contexts, arms=arms, propensities=propensities,
        outcomes=outcomes, num_arms=K, latents=rounds.latents,
        distributions=distributions,
    )
    return log, state


def run_trajectory(env: EnvironmentSpec, policy: PolicyConfig,
                   target: ScoreTarget | None, horizon: int, seed: int,
                   stream_path: tuple = ()) -> BanditLog:
    """Collect one adaptive dataset; bit-identical for identical seeds."""
    log, _ = _run_trajectory_core(env, policy, target, horizon, seed, stream_path)
    return log


# --- replication engine ---------------------------------------------------------


class _RepResult(NamedTuple):
    rep: int
    theta: np.ndarray | None = None          # (K, d_theta)
    sigma_diag: np.ndarray | None = None     # (K, d_theta)
    covered: np.ndarray | None = None        # (L, K, d_theta) bool
    std_err: np.ndarray | None = None        # (K, d_theta)
    diag_probs: np.ndarray | None = None     # (n_ctx, K)
    ope_value: float | None = None
    ope_var: float | None = None
    ope_covered: np.ndarray | None = None    # (L,) bool
    cadr_values: np.ndarray | None = None    # (n_reg,)
    cadr_covered: np.ndarray | None = None   # (n_reg, L) bool
    error: str | None = None


def _covers(cis: dict, levels, value: float) -> np.ndarray:
    """(L,) bool: does each level's (lo, hi) interval contain ``value``?"""
    return np.array([cis[float(level)][0] <= value <= cis[float(level)][1]
                     for level in levels])


def _replicate_one(config: ExperimentConfig, rep: int, thetas_star: np.ndarray,
                   v_star: float | None, cadr_regressions: tuple = ()) -> _RepResult:
    env, target = config.env, config.target
    log, state = _run_trajectory_core(env, config.policy, target,
                                      config.horizon, config.seed, (rep,))
    n_ctx = len(config.diagnostic_contexts)
    diag = None
    if n_ctx:
        diag = np.stack([action_distribution(config.policy, state, np.atleast_1d(np.asarray(c, dtype=float)))
                         for c in config.diagnostic_contexts])
    try:
        reports = [estimate_report(log, target, arm, levels=config.levels,
                                   mode=config.variance_mode) for arm in range(env.num_arms)]
        theta = np.stack([r.theta for r in reports])                  # (K, d_theta)
        sigma_diag = np.stack([np.diag(r.sigma) for r in reports])
        lo, hi = (np.array([[r.cis[float(level)][:, side] for r in reports]
                            for level in config.levels]) for side in (0, 1))
        covered = (lo <= thetas_star) & (thetas_star <= hi)           # (L, K, d_theta)
        err = theta - thetas_star
        scale = np.sqrt(np.maximum(sigma_diag, 0.0))
        degenerate = np.where(err > 0, np.inf, np.where(err < 0, -np.inf, 0.0))
        std_err = np.where(
            scale > 0, math.sqrt(log.horizon) * err / np.where(scale > 0, scale, 1.0), degenerate)
        o_value = o_var = o_covered = c_values = c_covered = None
        if target.family == "ope":
            ope = ope_value(log, target, levels=config.levels, reports=reports)
            o_value, o_var = ope.value, ope.variance
            o_covered = _covers(ope.cis, config.levels, v_star)
            cadr = [cadr_ope(log, target.target_policy, regression=reg, levels=config.levels,
                             behavior_policy=config.policy, behavior_target=target)
                    for reg in cadr_regressions]
            c_values = np.array([res.value for res in cadr])
            c_covered = np.array([_covers(res.cis, config.levels, v_star) for res in cadr])
    except (NoDataForArm, SingularDesign) as exc:
        return _RepResult(rep, diag_probs=diag, error=str(exc))
    return _RepResult(rep, theta, sigma_diag, covered, std_err, diag,
                      o_value, o_var, o_covered, c_values, c_covered)


@dataclass
class ReplicationSummary:
    """Across-replication arrays backing coverage tables and diagnostics."""

    config: ExperimentConfig
    thetas_star: np.ndarray
    v_star: float | None
    theta_hat: np.ndarray          # (R_ok, K, d_theta)
    sigma_diag: np.ndarray
    covered: np.ndarray            # (L, R_ok, K, d_theta)
    std_errors: np.ndarray         # (R_ok, K, d_theta)
    last_step_probs: np.ndarray | None  # (R_all, n_ctx, K)
    ope_values: np.ndarray | None
    ope_vars: np.ndarray | None
    ope_covered: np.ndarray | None
    cadr_values: dict              # regression -> (R_ok,)
    cadr_covered: dict             # regression -> (L, R_ok) bool
    failures: list

    @property
    def replications_used(self) -> int:
        return self.theta_hat.shape[0]

    def coverage_table(self) -> list[dict]:
        rows = []
        R = self.replications_used
        for li, level in enumerate(self.config.levels):
            for arm in range(self.theta_hat.shape[1]):
                for coord in range(self.theta_hat.shape[2]):
                    p = float(self.covered[li, :, arm, coord].mean())
                    rows.append({
                        "level": float(level), "arm": arm, "coord": coord,
                        "coverage": p,
                        "mc_stderr": math.sqrt(max(p * (1 - p), 0.0) / R),
                    })
        return rows

    def ope_coverage_table(self) -> list[dict]:
        if self.ope_covered is None:
            return []
        rows = []
        R = self.ope_covered.shape[1]
        for li, level in enumerate(self.config.levels):
            p = float(self.ope_covered[li].mean())
            rows.append({"level": float(level), "coverage": p,
                         "mc_stderr": math.sqrt(max(p * (1 - p), 0.0) / R)})
        return rows


def _resolve_workers(requested: int) -> int:
    cap = os.environ.get(MAX_WORKERS_ENV_VAR)
    workers = max(1, int(requested))
    if cap is not None:
        workers = min(workers, max(1, int(cap)))
    return workers


def replicate(config: ExperimentConfig, cadr_regressions=()) -> ReplicationSummary:
    """Run R independent replications and aggregate coverage against theta*.

    Each name in ``cadr_regressions`` ("zero", "online_linear") adds a CADR
    estimate of the target-policy value per replication, computed on the same
    log as the IPW-Z value; it requires an ope-family target.
    """
    cadr_regressions = tuple(cadr_regressions)
    if cadr_regressions and config.target.family != "ope":
        raise ValueError("CADR requires an ope-family target")
    for reg in cadr_regressions:
        if reg not in CADR_REGRESSIONS:
            raise ValueError(f"unknown regression {reg!r}; expected one of {CADR_REGRESSIONS}")
    thetas_star = oracle_thetas(config.env, config.target,
                                n_oracle=config.n_oracle, seed=config.seed)
    v_star = float(thetas_star.sum()) if config.target.family == "ope" else None

    R = config.replications
    workers = _resolve_workers(config.workers)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate_one, [config] * R, range(R),
                                    [thetas_star] * R, [v_star] * R, [cadr_regressions] * R,
                                    chunksize=max(1, R // (workers * 4))))
    else:
        results = [_replicate_one(config, rep, thetas_star, v_star, cadr_regressions)
                   for rep in range(R)]
    results.sort(key=lambda r: r.rep)  # deterministic fold regardless of pool order

    failures = [(r.rep, r.error) for r in results if r.error is not None]
    if len(failures) > config.failure_tolerance * R:
        raise RuntimeError(
            f"{len(failures)} of {R} replications failed "
            f"(> {config.failure_tolerance:.0%}); first: rep {failures[0][0]}: {failures[0][1]}")
    ok = [r for r in results if r.error is None]

    theta_hat = np.stack([r.theta for r in ok])
    sigma_diag = np.stack([r.sigma_diag for r in ok])
    covered = np.stack([r.covered for r in ok], axis=1)
    std_errors = np.stack([r.std_err for r in ok])
    diag = None
    if config.diagnostic_contexts:
        diag = np.stack([r.diag_probs for r in results])
    ope_vals = ope_vars = ope_cov = None
    if config.target.family == "ope":
        ope_vals = np.array([r.ope_value for r in ok])
        ope_vars = np.array([r.ope_var for r in ok])
        ope_cov = np.stack([r.ope_covered for r in ok], axis=1)
    cadr_values = {reg: np.array([r.cadr_values[i] for r in ok])
                   for i, reg in enumerate(cadr_regressions)}
    cadr_covered = {reg: np.stack([r.cadr_covered[i] for r in ok], axis=1)
                    for i, reg in enumerate(cadr_regressions)}
    return ReplicationSummary(
        config=config, thetas_star=thetas_star, v_star=v_star,
        theta_hat=theta_hat, sigma_diag=sigma_diag, covered=covered,
        std_errors=std_errors, last_step_probs=diag,
        ope_values=ope_vals, ope_vars=ope_vars, ope_covered=ope_cov,
        cadr_values=cadr_values, cadr_covered=cadr_covered,
        failures=failures,
    )


# --- diagnostics ----------------------------------------------------------------


def qq_points(standardized_errors) -> list[tuple[float, float]]:
    """(standard-normal quantile, empirical quantile) pairs at (i - 0.5)/n."""
    values = np.sort(np.asarray(standardized_errors, dtype=float))
    n = values.shape[0]
    if n < 2:
        raise ValueError("need at least 2 values for a QQ construction")
    theo = norm_ppf((np.arange(1, n + 1) - 0.5) / n)
    return list(zip(theo.tolist(), values.tolist()))


class DiagnosticResult(NamedTuple):
    counts: np.ndarray      # (50,) histogram of last-step probabilities
    bin_edges: np.ndarray   # (51,)
    spread: float           # across-replication standard deviation
    low_mass: float         # fraction of replications in [0, 0.2]
    high_mass: float        # fraction in [0.8, 1.0]


def convergence_diagnostic(summary: ReplicationSummary, context, arm: int) -> DiagnosticResult:
    """Across-replication distribution of the last-step probability pi_T(arm | context)."""
    if summary.last_step_probs is None:
        raise ValueError("no diagnostic contexts were registered in the config")
    ctx = np.atleast_1d(np.asarray(context, dtype=float))
    registered = [np.atleast_1d(np.asarray(c, dtype=float))
                  for c in summary.config.diagnostic_contexts]
    idx = next((i for i, c in enumerate(registered) if np.allclose(c, ctx)), None)
    if idx is None:
        raise ValueError(f"context {ctx.tolist()} was not registered as a diagnostic point")
    values = summary.last_step_probs[:, idx, arm]
    counts, edges = np.histogram(values, bins=50, range=(0.0, 1.0))
    return DiagnosticResult(
        counts=counts, bin_edges=edges, spread=float(values.std()),
        low_mass=float(np.mean(values <= 0.2)), high_mass=float(np.mean(values >= 0.8)),
    )


# --- CADR off-policy-evaluation baseline ------------------------------------------


class CadrResult(NamedTuple):
    value: float
    gamma: float                  # stabilization scale Gamma_T
    cis: dict                     # level -> (lo, hi)
    floored: int                  # steps whose variance estimate hit the floor


def cadr_ope(
    log: BanditLog,
    target_policy: TargetPolicy,
    regression: str = "zero",
    variance_floor: float = 1e-6,
    levels=(0.95,),
    behavior_policy: PolicyConfig | None = None,
    behavior_target: ScoreTarget | None = None,
    burn_in: int = 10,
) -> CadrResult:
    """Contextual adaptive doubly-robust estimate of the target-policy value.

    Per step t: fit the outcome regression on rows < t (``zero`` model or a
    recursive per-arm ridge), form the uncentered doubly-robust scores
    D'_{t,s} at past rows, estimate the step's conditional variance from them
    with stabilization weights g_t(A_s|X_s)/g_s(A_s|X_s), floor it, and weight
    the step's own score by 1/sigma_t. When ``behavior_policy`` is given, the
    round-t policy g_t is replayed exactly from the log to evaluate the
    stabilization weights; otherwise the ratio is taken as 1 (its limit under
    policy convergence). The first ``burn_in`` steps use sigma_t = 1.
    """
    if regression not in CADR_REGRESSIONS:
        raise ValueError(f"unknown regression {regression!r}; expected one of {CADR_REGRESSIONS}")
    if log.distributions is None:
        raise ValueError("cadr_ope requires a log that stores full action distributions")
    T, K, d = log.horizon, log.num_arms, log.context_dim
    if T <= burn_in:
        raise ValueError(f"horizon {T} is below the CADR burn-in {burn_in}")
    X, A, Y, pi = log.contexts, log.arms, log.outcomes, log.propensities
    gstar_vec = target_policy.vector(K)
    gstar_realized = gstar_vec[A]
    ratio_star = gstar_realized / pi  # g*(A_s|X_s) / g_s(A_s|X_s)

    replay_state = None
    uniq_inv = None
    uniq_X = None
    if behavior_policy is not None:
        replay_state = init_state(behavior_policy, K, d, target=behavior_target)
        uniq_X, uniq_inv = np.unique(X, axis=0, return_inverse=True)

    # Recursive ridge accumulators for the online_linear regression.
    lam = 1.0
    reg_gram = np.stack([lam * np.eye(d)] * K)
    reg_moment = np.zeros((K, d))
    reg_beta = np.zeros((K, d))

    inv_sigma = np.zeros(T)
    own_scores = np.zeros(T)
    floored = 0

    for t in range(T):
        if regression == "zero":
            q_realized = np.zeros(t + 1)
            q_mean_star = np.zeros(t + 1)
        else:
            qmat = X[:t + 1] @ reg_beta.T           # (t+1, K) fitted on rows < t
            q_realized = qmat[np.arange(t + 1), A[:t + 1]]
            q_mean_star = qmat @ gstar_vec
        dprime = ratio_star[:t + 1] * (Y[:t + 1] - q_realized) + q_mean_star

        if t < burn_in:
            sigma_t = 1.0
        else:
            if replay_state is not None:
                g_t_unique = action_distribution_batch(behavior_policy, replay_state,
                                                       uniq_X)
                g_t_realized = g_t_unique[uniq_inv[:t], A[:t]]
                wts = g_t_realized / pi[:t]
            else:
                wts = np.ones(t)
            m1 = float(wts @ dprime[:t]) / t
            m2 = float(wts @ (dprime[:t] ** 2)) / t
            var_t = m2 - m1 * m1
            if var_t < variance_floor:
                var_t = variance_floor
                floored += 1
            sigma_t = math.sqrt(var_t)
        inv_sigma[t] = 1.0 / sigma_t
        own_scores[t] = dprime[t] / sigma_t

        if regression == "online_linear":
            a = A[t]
            reg_gram[a] += np.outer(X[t], X[t])
            reg_moment[a] += X[t] * Y[t]
            reg_beta[a] = np.linalg.solve(reg_gram[a], reg_moment[a])
        if replay_state is not None:
            update_state(behavior_policy, replay_state,
                         Transition(X[t], int(A[t]), float(pi[t]), float(Y[t])))

    gamma = 1.0 / float(inv_sigma.mean())
    psi = gamma * float(own_scores.mean())
    cis = {}
    for level in levels:
        z = norm_ppf((1.0 + level) / 2.0)
        half = z * gamma / math.sqrt(T)
        cis[float(level)] = (psi - half, psi + half)
    return CadrResult(value=psi, gamma=gamma, cis=cis, floored=floored)
