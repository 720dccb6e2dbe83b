"""Trajectory runner, Monte Carlo replication engine and diagnostics.

``run_trajectory`` executes the data-collection protocol: observe a context,
sample an action from the behavior policy, record the realized propensity and
the chosen arm's outcome, fold the transition into the policy state. Only the
chosen arm's potential outcome ever enters the log, so unconfoundedness holds
by construction.

``replicate`` runs R independent trajectories on split random substreams and
aggregates estimator coverage against ground truth from ``oracle_target``.
Every stream is keyed by (master seed, replication index), never by execution
order, so serial, process-parallel and blocked execution give identical
summaries.

The block engine (``_run_block``) simulates B trajectories in lockstep. Each
pre-draws its rounds and action uniforms from its own streams; then every
round makes one row-wise ``action_distribution`` call on the (B, ...) block
state, draws B arms by inverse CDF, and makes one row-wise ``update_state``.
The policy computes each row exactly as for a lone trajectory, so a log does
not depend on the block it ran in, and ``run_trajectory`` is a block of one.
``replicate`` splits the R replications of a looped policy into contiguous
blocks of at most ``BLOCK_CAP``, as many as a multiple of the worker count,
and maps them over the process pool; inference, CADR, diagnostics (read from
the final block state) and failure isolation stay per replication. The
``random`` policy needs no step loop and keeps one replication per task.

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
from .inference import estimate_report, norm_ppf, ope_value, two_sided_z
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

# Most replications one worker advances in lockstep. On boltzmann_ridge at
# T = 10^4 (2-vCPU Xeon) a replication's trajectory took 31 / 17 / 13 ms in
# blocks of 32 / 64 / 128 (670 ms alone), while the block's arrays took 37 /
# 74 / 147 MB; inference adds about 2 ms a replication.
BLOCK_CAP = 64

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


# --- trajectories ---------------------------------------------------------------


def _empty_log(env: EnvironmentSpec) -> BanditLog:
    d, K = env.context_dim, env.num_arms
    return BanditLog(
        contexts=np.zeros((0, d)), arms=np.zeros(0, dtype=np.int64),
        propensities=np.zeros(0), outcomes=np.zeros(0), num_arms=K,
        latents=np.zeros((0, d)) if env.has_latent else None,
        distributions=np.zeros((0, K)),
    )


def _run_block(env: EnvironmentSpec, policy: PolicyConfig, target: ScoreTarget | None,
               horizon: int, seed: int, paths: list[tuple]):
    """Run one trajectory per stream path in lockstep; returns (logs, final block state).

    Each trajectory pre-draws its rounds and uniforms from its own streams, so
    its log does not depend on the block it runs in. The looped kinds then make
    one block-wide distribution call and one block-wide update per round;
    ``random`` draws every arm at once.
    """
    K, d, B = env.num_arms, env.context_dim, len(paths)
    state = init_state(policy, K, d, target=target, block=B)
    if horizon == 0:
        return [_empty_log(env) for _ in paths], state
    draws = [(sample_rounds(env, stream(seed, *path, PURPOSE_ENV), horizon),
              stream(seed, *path, PURPOSE_POLICY).random(horizon)) for path in paths]

    if policy.kind == "random":
        arms = np.minimum((np.stack([u for _, u in draws]) * K).astype(np.int64), K - 1)
        distributions = np.full((B, horizon, K), 1.0 / K)
        state.t = horizon
        for b, (rounds, _) in enumerate(draws):
            np.add.at(state.counts[b], arms[b], 1)
            np.add.at(state.sums[b], arms[b], rounds.potentials[np.arange(horizon), arms[b]])
    else:
        # Round-major copies, so that each round's B rows are contiguous.
        contexts = np.stack([r.contexts for r, _ in draws], axis=1)      # (T, B, d)
        potentials = np.stack([r.potentials for r, _ in draws], axis=1)  # (T, B, K)
        uniforms = np.stack([u for _, u in draws], axis=1)               # (T, B)
        rows = np.arange(B)
        arms = np.empty((B, horizon), dtype=np.int64)
        distributions = np.empty((B, horizon, K))
        for t in range(horizon):
            x = contexts[t]
            probs = action_distribution(policy, state, x)
            # The searchsorted(cumsum(probs), u, side="right") of each row.
            arm = np.minimum((np.cumsum(probs, axis=1) <= uniforms[t][:, None]).sum(axis=1),
                             K - 1)
            arms[:, t] = arm
            distributions[:, t] = probs
            update_state(policy, state, Transition(x, arm, probs[rows, arm],
                                                   potentials[t, rows, arm]))

    steps = np.arange(horizon)
    logs = [BanditLog(contexts=rounds.contexts, arms=arms[b],
                      propensities=distributions[b, steps, arms[b]],
                      outcomes=rounds.potentials[steps, arms[b]], num_arms=K,
                      latents=rounds.latents, distributions=distributions[b])
            for b, (rounds, _) in enumerate(draws)]
    return logs, state


def _run_trajectory_core(env: EnvironmentSpec, policy: PolicyConfig,
                         target: ScoreTarget | None, horizon: int,
                         seed: int, stream_path: tuple = ()):
    """One trajectory as a block of one; returns (log, final single-trajectory state)."""
    logs, state = _run_block(env, policy, target, horizon, seed, [stream_path])
    return logs[0], state.row(0)


def run_trajectory(env: EnvironmentSpec, policy: PolicyConfig,
                   target: ScoreTarget | None, horizon: int, seed: int,
                   stream_path: tuple = ()) -> BanditLog:
    """Collect one adaptive dataset; bit-identical for identical seeds."""
    logs, _ = _run_block(env, policy, target, horizon, seed, [stream_path])
    return logs[0]


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


def _analyse(config: ExperimentConfig, rep: int, log: BanditLog, diag: np.ndarray | None,
             thetas_star: np.ndarray, v_star: float | None, cadr_regressions: tuple) -> _RepResult:
    """Inference (and CADR) on one replication's log; estimator failures stay with it."""
    target = config.target
    try:
        reports = [estimate_report(log, target, arm, levels=config.levels,
                                   mode=config.variance_mode) for arm in range(log.num_arms)]
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


def _replicate_block(config: ExperimentConfig, reps: range, thetas_star: np.ndarray,
                     v_star: float | None, cadr_regressions: tuple = ()) -> list[_RepResult]:
    """Simulate the replications ``reps`` as one lockstep block, then analyse each alone."""
    logs, state = _run_block(config.env, config.policy, config.target, config.horizon,
                             config.seed, [(rep,) for rep in reps])
    diag = [None] * len(reps)
    if config.diagnostic_contexts:
        # Last-step distributions at each diagnostic context: (B, n_ctx, K).
        diag = np.stack([action_distribution(config.policy, state,
                                             np.tile(np.atleast_1d(np.asarray(c, dtype=float)),
                                                     (len(reps), 1)))
                         for c in config.diagnostic_contexts], axis=1)
    return [_analyse(config, rep, log, diag[i], thetas_star, v_star, cadr_regressions)
            for i, (rep, log) in enumerate(zip(reps, logs))]


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


def _blocks(R: int, workers: int, cap: int) -> list[range]:
    """Contiguous, near-equal replication blocks of at most ``cap``; a multiple of ``workers``."""
    n = min(R, workers * math.ceil(R / (workers * cap)))
    return [range(i * R // n, (i + 1) * R // n) for i in range(n)]


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
    blocks = _blocks(R, workers, 1 if config.policy.kind == "random" else BLOCK_CAP)
    if workers > 1:
        n = len(blocks)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_replicate_block, [config] * n, blocks, [thetas_star] * n,
                                 [v_star] * n, [cadr_regressions] * n,
                                 chunksize=max(1, n // (workers * 4))))
    else:
        done = [_replicate_block(config, block, thetas_star, v_star, cadr_regressions)
                for block in blocks]
    results = [r for block in done for r in block]
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
        replay_state = init_state(behavior_policy, K, d, target=behavior_target, block=1)
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
                         Transition(X[t:t + 1], A[t:t + 1], pi[t:t + 1], Y[t:t + 1]))

    gamma = 1.0 / float(inv_sigma.mean())
    psi = gamma * float(own_scores.mean())
    cis = {}
    for level in levels:
        half = two_sided_z(float(level)) * gamma / math.sqrt(T)
        cis[float(level)] = (psi - half, psi + half)
    return CadrResult(value=psi, gamma=gamma, cis=cis, floored=floored)
