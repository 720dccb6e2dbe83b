"""Independent test oracles shared across the suite.

These deliberately avoid the code paths they check: the simplex projection
is solved by exhaustive active-set enumeration (an exact brute-force QP for
small K), scores are recomputed from their definitions, and the martingale
check draws fresh rounds against a frozen policy state. The single-draw
helpers (``sample_round``, ``select_action``) exist only for tests; the
package itself draws rounds and actions in batches.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from banditlab.env import EnvironmentSpec, sample_rounds
from banditlab.estimator import BanditLog, ScoreTarget
from banditlab.harness import _run_block
from banditlab.policy import PolicyConfig, PolicyState, Transition, action_distribution
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
    _, state = _run_block(env, policy, target, warmup, seed, [()])
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
