"""Independent test oracles shared across the suite.

These deliberately avoid the code paths they check: the simplex projection
is solved by exhaustive active-set enumeration (an exact brute-force QP for
small K), scores are recomputed from their definitions, and the martingale
check draws fresh rounds against a frozen policy state. ``reference_cadr_loop``
is CADR as its definition reads: a loop over steps that replays the behavior
policy and rescans every past row. ``reference_write_log_csv`` is the log
writer as a ``csv.writer`` loop, one row at a time: the byte oracle for the
chunked writer. The single-draw
helpers (``sample_round``, ``select_action``) exist only for tests; the
package itself draws rounds and actions in batches.
"""

from __future__ import annotations

import csv
import itertools
import math
from typing import NamedTuple

import numpy as np

from banditlab.env import EnvironmentSpec, sample_rounds
from banditlab.estimator import BanditLog, ScoreTarget, TargetPolicy
from banditlab.harness import CadrResult, _run_block
from banditlab.inference import two_sided_z
from banditlab.policy import (
    PolicyConfig,
    PolicyState,
    Transition,
    action_distribution,
    init_state,
    update_state,
)
from banditlab.rng import stream


class RoundDraw(NamedTuple):
    context: np.ndarray
    latent_state: np.ndarray | None
    potential_outcomes: np.ndarray


def sample_round(env: EnvironmentSpec, rng: np.random.Generator) -> RoundDraw:
    """Draw a single round from the stream."""
    batch = sample_rounds(env, rng, 1)
    return RoundDraw(
        context=batch.contexts[0],
        latent_state=None if batch.latents is None else batch.latents[0],
        potential_outcomes=batch.potentials[0],
    )


def select_action(config: PolicyConfig, state: PolicyState, context: np.ndarray,
                  rng: np.random.Generator) -> tuple[int, float, np.ndarray]:
    """Sample an arm for a block-of-one state: (arm, realized probability, distribution)."""
    probs = action_distribution(config, state, context[None])[0]
    arm = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
    arm = min(arm, state.num_arms - 1)
    return arm, float(probs[arm]), probs


def one_round(context, arm: int, prob: float, outcome: float) -> Transition:
    """One observed round as the ``Transition`` of a block of one."""
    return Transition(np.asarray(context, dtype=float)[None], np.array([arm]),
                      np.array([prob]), np.array([outcome]))


def qp_project(v: np.ndarray, pi_min: float) -> np.ndarray:
    """Exact projection onto {p: sum p = 1, p >= pi_min} by active-set enumeration.

    Every candidate active set yields the unique stationary point with those
    coordinates clamped; the projection is the feasible candidate closest to v.
    Exact to machine precision for the small K used in tests.
    """
    v = np.asarray(v, dtype=float)
    K = v.shape[0]
    best, best_dist = None, np.inf
    for clamped in itertools.chain.from_iterable(
            itertools.combinations(range(K), r) for r in range(K + 1)):
        clamped = set(clamped)
        free = [i for i in range(K) if i not in clamped]
        p = np.full(K, pi_min)
        if free:
            nu = (v[free].sum() + len(clamped) * pi_min - 1.0) / len(free)
            p[free] = v[free] - nu
        elif abs(K * pi_min - 1.0) > 1e-9:
            continue
        if p.min() < pi_min - 1e-10:
            continue
        dist = float(np.sum((p - v) ** 2))
        if dist < best_dist:
            best, best_dist = p, dist
    return best


def score_batch(target: ScoreTarget, arm: int, X: np.ndarray, Y: np.ndarray,
                theta: np.ndarray, num_arms: int) -> np.ndarray:
    """Vectorized score g over rows, straight from the family definitions."""
    theta = np.asarray(theta, dtype=float).ravel()
    if target.family == "misspec_linear":
        return X * (Y - X @ theta)[:, None]
    if target.family == "noisy_context":
        sigma_e = np.asarray(target.sigma_e, dtype=float)
        return X * Y[:, None] - (X @ theta)[:, None] * X + sigma_e @ theta
    pe = target.target_policy.vector(num_arms)[arm]
    return (pe * Y - theta[0])[:, None]


def martingale_zscores(env: EnvironmentSpec, policy: PolicyConfig,
                       target: ScoreTarget, theta_star: np.ndarray, arm: int,
                       n_draws: int = 10_000, warmup: int = 200,
                       seed: int = 0) -> np.ndarray:
    """|mean| / stderr of the weighted score at theta* over fresh draws.

    Freezes the policy state after a warmup trajectory, then draws fresh
    (X, A ~ pi_t, Y(arm)) triples and evaluates w * g at the true parameter;
    under the martingale property each coordinate's mean is 0.
    """
    _, state, _ = _run_block(env, policy, target, warmup, seed, [()])
    batch = sample_rounds(env, stream(seed, 101), n_draws)
    dists = action_distribution(policy, state, batch.contexts)
    u = stream(seed, 102).random(n_draws)
    arms = (u[:, None] > np.cumsum(dists, axis=1)).sum(axis=1)
    arms = np.minimum(arms, env.num_arms - 1)
    realized = dists[np.arange(n_draws), arms]
    w = (arms == arm) / realized
    g = score_batch(target, arm, batch.contexts, batch.potentials[:, arm],
                    theta_star, env.num_arms)
    z = g * w[:, None]
    mean = z.mean(axis=0)
    stderr = z.std(axis=0, ddof=1) / np.sqrt(n_draws)
    return np.abs(mean) / stderr


def ipwz_residual(log: BanditLog, target: ScoreTarget, arm: int,
                  theta: np.ndarray) -> np.ndarray:
    """(1/T) sum_t (1{A_t = arm} / pi_t) g(X_t, Y_t; theta): the estimating equation at theta."""
    mask = log.arms == arm
    w = 1.0 / log.propensities[mask]
    g = score_batch(target, arm, log.contexts[mask], log.outcomes[mask], theta, log.num_arms)
    return (w[:, None] * g).sum(axis=0) / log.horizon


def reference_cadr_loop(log: BanditLog, target_policy: TargetPolicy, regression: str = "zero",
                        variance_floor: float = 1e-6, levels=(0.95,),
                        behavior_policy: PolicyConfig | None = None,
                        behavior_target: ScoreTarget | None = None,
                        burn_in: int = 10) -> CadrResult:
    """CADR by a plain O(T^2) loop over steps, the oracle for ``harness.cadr_ope``.

    Per step t it refits the outcome regression on rows < t, recomputes the
    doubly-robust scores D'_{t,s} of every past row, evaluates the replayed
    round-t policy at the log's distinct contexts for the stabilization
    weights g_t(A_s|X_s)/g_s(A_s|X_s) (taken as 1 without ``behavior_policy``),
    and takes the step's variance from two dot products over those rows.
    """
    T, K, d = log.horizon, log.num_arms, log.context_dim
    X, A, Y, pi = log.contexts, log.arms, log.outcomes, log.propensities
    gstar_vec = target_policy.vector(K)
    gstar_realized = gstar_vec[A]
    ratio_star = gstar_realized / pi  # g*(A_s|X_s) / g_s(A_s|X_s)

    replay_state = None
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
                g_t = action_distribution(behavior_policy, replay_state, uniq_X)
                wts = g_t[uniq_inv[:t], A[:t]] / pi[:t]
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


def reference_write_log_csv(log: BanditLog, path) -> None:
    """The log CSV written row by row through ``csv.writer``."""
    d = log.context_dim
    header = (["t"] + [f"x_{j}" for j in range(1, d + 1)]
              + [f"s_{j}" for j in range(1, d + 1)] + ["a", "pi", "y"])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(log.horizon):
            row = [str(i + 1)]
            row += [f"{v:.17g}" for v in log.contexts[i]]
            if log.latents is not None:
                row += [f"{v:.17g}" for v in log.latents[i]]
            else:
                row += [""] * d
            row += [str(int(log.arms[i]) + 1),
                    f"{log.propensities[i]:.17g}",
                    f"{log.outcomes[i]:.17g}"]
            writer.writerow(row)
