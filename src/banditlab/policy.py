"""The behavior-policy zoo: action distributions, state updates, clipping.

Every policy here is a summary-statistic policy: the action distribution at
round t is a fixed function of the current context and a finite-dimensional
statistic of the past (arm counts and means, ridge or SGD coefficients, or
incremental IPW-Z estimates). Distribution construction is pure; state lives
in a mutable ``PolicyState`` owned by exactly one trajectory.

Clipped policies floor every action probability at ``pi_min`` via the exact
L2 projection onto the constrained simplex (``clip_simplex``), keeping
inverse propensity weights bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr

from .estimator import ScoreTarget, score_g

POLICY_KINDS = (
    "random", "eps_greedy_mab", "ucb_mab", "ts_mab",
    "boltzmann_ridge", "boltzmann_sgd", "ipwz_greedy", "linucb",
)

# Hard L2 cap on SGD coefficients; a numerical safeguard that should never
# bind for the three supported scores (state.sgd_clip_count records if it does).
SGD_COEF_RADIUS = 1e3


class InfeasibleClipError(ValueError):
    """K * pi_min > 1: the floored simplex is empty."""


@lru_cache(maxsize=None)
def _hermgauss(n: int):
    return np.polynomial.hermite.hermgauss(n)


def default_ucb_radius(t: int) -> float:
    return 2.0 * math.log(t)


def default_sgd_rate(t: int) -> float:
    # Satisfies sum eta_t = inf, sum eta_t^2 < inf.
    return 0.5 * t ** (-2.0 / 3.0)


@dataclass(frozen=True)
class PolicyConfig:
    """Static configuration of a behavior policy."""

    kind: str
    pi_min: float = 0.05
    # Exploration mass for eps_greedy_mab / ipwz_greedy: a constant, or a
    # schedule t -> eps_t (must converge for the greedy policies to converge).
    epsilon: float | Callable[[int], float] | None = None
    ucb_radius_fn: Callable[[int], float] = default_ucb_radius
    ts_prior: tuple[float, float, float] = (0.0, 1.0, 1.0)  # (mu0, sigma0^2, sigma^2)
    gamma: float = 1.0                    # boltzmann temperature
    ridge_lambda: float = 1.0
    sgd_rate_fn: Callable[[int], float] = default_sgd_rate
    linucb_alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if not (0.0 < self.pi_min <= 0.5):
            raise ValueError("pi_min must lie in (0, 1/K] (checked against K at init)")
        if (self.epsilon is not None and not callable(self.epsilon)
                and not (0.0 < self.epsilon <= 1.0)):
            raise ValueError("epsilon must lie in (0, 1]")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.ridge_lambda <= 0:
            raise ValueError("ridge_lambda must be positive")
        mu0, s0, s = self.ts_prior
        if s0 <= 0 or s <= 0:
            raise ValueError("ts prior variances must be positive")

    def epsilon_for(self, num_arms: int, t: int) -> float:
        """Exploration mass at round t; defaults to K * pi_min as the floor."""
        if self.epsilon is None:
            return min(1.0, num_arms * self.pi_min)
        eps = self.epsilon(t) if callable(self.epsilon) else self.epsilon
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"epsilon schedule produced {eps} outside (0, 1]")
        return eps


@dataclass
class PolicyState:
    """Mutable summary statistics owned by one trajectory."""

    num_arms: int
    context_dim: int
    t: int = 0
    counts: np.ndarray = None           # (K,) pulls per arm
    sums: np.ndarray = None             # (K,) outcome sums per arm
    # Ridge sufficient statistics and their solved coefficients.
    ridge_gram: np.ndarray = None       # (K, d, d) lambda*I + sum x x'
    ridge_moment: np.ndarray = None     # (K, d) sum x y
    ridge_beta: np.ndarray = None       # (K, d)
    ridge_gram_inv: np.ndarray = None   # (K, d, d)
    # SGD coefficients.
    sgd_beta: np.ndarray = None         # (K, d_theta)
    sgd_clip_count: int = 0
    # Incremental inverse-propensity-weighted sufficient statistics.
    # In the score's terms (estimator module docstring), z = regressors(x).
    ipw_weight: np.ndarray = None       # (K,) sum of weights
    ipw_gram: np.ndarray = None         # (K, d_theta, d_theta) sum w z z'
    ipw_moment: np.ndarray = None       # (K, d_theta) sum w z c_a y
    ipw_theta: np.ndarray = None        # (K, d_theta) current estimates
    ipw_ok: np.ndarray = None           # (K,) per-arm solve succeeded
    ipw_ready: bool = False
    target: ScoreTarget | None = None

    @property
    def means(self) -> np.ndarray:
        """Per-arm running mean outcomes (zero before the first pull)."""
        return np.divide(self.sums, self.counts,
                         out=np.zeros_like(self.sums), where=self.counts > 0)


class Transition(NamedTuple):
    context: np.ndarray
    arm: int
    realized_prob: float
    outcome: float


def init_state(config: PolicyConfig, num_arms: int, context_dim: int,
               target: ScoreTarget | None = None) -> PolicyState:
    """Fresh state for a trajectory; validates K-dependent config constraints."""
    if num_arms * config.pi_min > 1.0 + 1e-12:
        raise InfeasibleClipError(
            f"K * pi_min = {num_arms * config.pi_min:.4f} > 1 is infeasible")
    K, d = num_arms, context_dim
    state = PolicyState(num_arms=K, context_dim=d,
                        counts=np.zeros(K, dtype=np.int64), sums=np.zeros(K))
    if config.kind in ("boltzmann_ridge", "linucb"):
        lam = config.ridge_lambda
        state.ridge_gram = np.stack([lam * np.eye(d)] * K)
        state.ridge_moment = np.zeros((K, d))
        state.ridge_beta = np.zeros((K, d))
        state.ridge_gram_inv = np.stack([np.eye(d) / lam] * K)
    if config.kind == "boltzmann_sgd":
        if target is None:
            raise ValueError("boltzmann_sgd requires a ScoreTarget for its update rule")
        state.sgd_beta = np.zeros((K, target.theta_dim(d)))
        state.target = target
    if config.kind == "ipwz_greedy":
        if target is None:
            raise ValueError("ipwz_greedy requires a ScoreTarget")
        dt = target.theta_dim(d)
        state.ipw_weight = np.zeros(K)
        state.ipw_gram = np.zeros((K, dt, dt))
        state.ipw_moment = np.zeros((K, dt))
        state.ipw_theta = np.zeros((K, dt))
        state.ipw_ok = np.zeros(K, dtype=bool)
        state.target = target
    return state


# --- clipping -----------------------------------------------------------------


def clip_simplex(probs: np.ndarray, pi_min: float) -> np.ndarray:
    """L2 projection of ``probs`` onto {p : sum p = 1, p >= pi_min}.

    The projection is max(probs - nu, pi_min) where nu is the unique root of
    q(nu) = sum_a max(probs_a - nu, pi_min) = 1; q is piecewise linear in nu,
    so the root is found exactly by sorting, with no iteration.
    """
    p = np.asarray(probs, dtype=float)
    K = p.shape[0]
    if K * pi_min > 1.0 + 1e-12:
        raise InfeasibleClipError(f"K * pi_min = {K * pi_min:.4f} > 1 is infeasible")
    total = p.sum()
    if abs(total - 1.0) <= 1e-12 and p.min() >= pi_min:
        return p.copy()
    desc = np.sort(p)[::-1]
    prefix = np.cumsum(desc)
    for m in range(K, 0, -1):
        nu = (prefix[m - 1] + (K - m) * pi_min - 1.0) / m
        if desc[m - 1] - nu >= pi_min - 1e-15 and (m == K or desc[m] - nu <= pi_min + 1e-15):
            return np.maximum(p - nu, pi_min)
    # Reachable only when K * pi_min == 1: every coordinate is floored.
    return np.full(K, pi_min)


def clip_simplex_rows(P: np.ndarray, pi_min: float) -> np.ndarray:
    """Row-wise clip_simplex, vectorized for batch policy evaluation."""
    P = np.asarray(P, dtype=float)
    n, K = P.shape
    if K * pi_min > 1.0 + 1e-12:
        raise InfeasibleClipError(f"K * pi_min = {K * pi_min:.4f} > 1 is infeasible")
    ok = (np.abs(P.sum(axis=1) - 1.0) <= 1e-12) & (P.min(axis=1) >= pi_min)
    if ok.all():
        return P.copy()
    desc = np.sort(P, axis=1)[:, ::-1]
    prefix = np.cumsum(desc, axis=1)
    ms = np.arange(1, K + 1)
    nus = (prefix + (K - ms) * pi_min - 1.0) / ms              # (n, K) candidate roots
    lower_ok = desc - nus >= pi_min - 1e-15                    # m-th largest stays unclipped
    upper_ok = np.ones_like(lower_ok)
    upper_ok[:, :-1] = desc[:, 1:] - nus[:, :-1] <= pi_min + 1e-15
    valid = lower_ok & upper_ok
    # Largest valid m per row; rows with none (K*pi_min == 1) get all-pi_min.
    any_valid = valid.any(axis=1)
    m_idx = np.where(any_valid, K - 1 - np.argmax(valid[:, ::-1], axis=1), 0)
    nu = nus[np.arange(n), m_idx]
    out = np.maximum(P - nu[:, None], pi_min)
    out[~any_valid] = pi_min
    out[ok] = P[ok]
    return out


# --- Thompson sampling optimal-arm probabilities -------------------------------


def _ts_entry_gh(a: int, means: np.ndarray, sds: np.ndarray, nodes, weights) -> float:
    u = means[a] + math.sqrt(2.0) * sds[a] * nodes
    others = [i for i in range(means.shape[0]) if i != a]
    prod = np.ones_like(u)
    for i in others:
        prod *= ndtr((u - means[i]) / sds[i])
    return float(weights @ prod) / math.sqrt(math.pi)


def _ts_entry_quad(a: int, means: np.ndarray, sds: np.ndarray) -> float:
    others = [i for i in range(means.shape[0]) if i != a]

    def integrand(u):
        dens = math.exp(-0.5 * ((u - means[a]) / sds[a]) ** 2) / (sds[a] * math.sqrt(2 * math.pi))
        for i in others:
            dens *= ndtr((u - means[i]) / sds[i])
        return dens

    lo, hi = means[a] - 12 * sds[a], means[a] + 12 * sds[a]
    breaks = sorted({m for m in means[others] if lo < m < hi})
    val, _ = quad(integrand, lo, hi, points=breaks or None, limit=200, epsabs=1e-9)
    return val


def ts_optimal_prob(post_means: np.ndarray, post_vars: np.ndarray) -> np.ndarray:
    """P(arm a is best) under independent Gaussian posteriors.

    Deterministic quadrature of P(all other arms below u) against each arm's
    posterior density: a nested Gauss-Hermite ladder, falling back to adaptive
    quadrature with breakpoints when posteriors are near-degenerate. Absolute
    accuracy <= 1e-6 per entry.
    """
    means = np.asarray(post_means, dtype=float)
    variances = np.asarray(post_vars, dtype=float)
    if np.any(variances <= 0):
        raise ValueError("posterior variances must be positive")
    sds = np.sqrt(variances)
    K = means.shape[0]
    out = np.empty(K)
    for a in range(K):
        prev = None
        value = None
        for n in (40, 80, 160):
            nodes, weights = _hermgauss(n)
            value = _ts_entry_gh(a, means, sds, nodes, weights)
            if prev is not None and abs(value - prev) < 5e-7:
                break
            prev = value
        else:
            value = _ts_entry_quad(a, means, sds)
        out[a] = value
    return out


# --- distribution constructors --------------------------------------------------


def _greedy_vector(best: int, num_arms: int, explore_each: float) -> np.ndarray:
    out = np.full(num_arms, explore_each)
    out[best] = 1.0 - (num_arms - 1) * explore_each
    return out


def mab_distribution(kind: str, state: PolicyState, config: PolicyConfig) -> np.ndarray:
    """Distributions for the context-ignoring multi-armed bandit algorithms."""
    K = state.num_arms
    if kind == "eps_greedy":
        eps = config.epsilon_for(K, state.t + 1)
        return _greedy_vector(int(np.argmax(state.means)), K, eps / K)
    if kind == "ucb":
        if state.t < K:  # forced initialization: rounds 1..K pull each arm once
            out = np.zeros(K)
            out[state.t] = 1.0
            return out
        radius = config.ucb_radius_fn(state.t + 1)
        index = np.where(state.counts > 0,
                         state.means + np.sqrt(radius / np.maximum(state.counts, 1)),
                         np.inf)
        return _greedy_vector(int(np.argmax(index)), K, config.pi_min)
    if kind == "ts":
        mu0, s0, s2 = config.ts_prior
        precision = 1.0 / s0 + state.counts / s2
        post_var = 1.0 / precision
        post_mean = post_var * (mu0 / s0 + state.counts * state.means / s2)
        return clip_simplex(ts_optimal_prob(post_mean, post_var), config.pi_min)
    raise ValueError(f"unknown MAB kind {kind!r}")


def boltzmann_distribution(beta: np.ndarray, context: np.ndarray,
                           gamma: float, pi_min: float) -> np.ndarray:
    """Clipped softmax of the working-model action values <beta_a, x> / gamma."""
    scores = beta @ context / gamma
    scores -= scores.max()
    expd = np.exp(scores)
    return clip_simplex(expd / expd.sum(), pi_min)


def linucb_distribution(state: PolicyState, context: np.ndarray,
                        alpha: float, pi_min: float) -> np.ndarray:
    """Optimism index over per-arm ridge fits; argmax gets the lion's share."""
    widths = np.sqrt(np.einsum("i,aij,j->a", context, state.ridge_gram_inv, context))
    index = state.ridge_beta @ context + alpha * widths
    return _greedy_vector(int(np.argmax(index)), state.num_arms, pi_min)


def action_distribution(config: PolicyConfig, state: PolicyState,
                        context: np.ndarray) -> np.ndarray:
    """The policy's action distribution at ``context`` given current state."""
    kind = config.kind
    K = state.num_arms
    if kind == "random":
        return np.full(K, 1.0 / K)
    if kind == "eps_greedy_mab":
        return mab_distribution("eps_greedy", state, config)
    if kind == "ucb_mab":
        return mab_distribution("ucb", state, config)
    if kind == "ts_mab":
        return mab_distribution("ts", state, config)
    if kind == "boltzmann_ridge":
        return boltzmann_distribution(state.ridge_beta, context, config.gamma, config.pi_min)
    if kind == "boltzmann_sgd":
        return boltzmann_distribution(state.sgd_beta, context, config.gamma, config.pi_min)
    if kind == "linucb":
        return linucb_distribution(state, context, config.linucb_alpha, config.pi_min)
    if kind == "ipwz_greedy":
        if not state.ipw_ready:
            return np.full(K, 1.0 / K)
        eps = config.epsilon_for(K, state.t + 1)
        best = int(np.argmax(state.ipw_theta @ state.target.regressors(context)))
        return clip_simplex(_greedy_vector(best, K, eps / K), config.pi_min)
    raise ValueError(f"unknown policy kind {kind!r}")


def action_distribution_batch(config: PolicyConfig, state: PolicyState,
                              contexts: np.ndarray) -> np.ndarray:
    """Vectorized ``action_distribution`` over rows of ``contexts``; (n, K)."""
    contexts = np.atleast_2d(np.asarray(contexts, dtype=float))
    n = contexts.shape[0]
    K = state.num_arms
    kind = config.kind
    if kind in ("random", "eps_greedy_mab", "ucb_mab", "ts_mab"):
        return np.tile(action_distribution(config, state, contexts[0]), (n, 1))
    if kind in ("boltzmann_ridge", "boltzmann_sgd"):
        beta = state.ridge_beta if kind == "boltzmann_ridge" else state.sgd_beta
        scores = contexts @ beta.T / config.gamma
        scores -= scores.max(axis=1, keepdims=True)
        expd = np.exp(scores)
        return clip_simplex_rows(expd / expd.sum(axis=1, keepdims=True), config.pi_min)
    if kind == "linucb":
        widths = np.sqrt(np.einsum("ni,aij,nj->na", contexts, state.ridge_gram_inv, contexts))
        index = contexts @ state.ridge_beta.T + config.linucb_alpha * widths
        best = np.argmax(index, axis=1)
        out = np.full((n, K), config.pi_min)
        out[np.arange(n), best] = 1.0 - (K - 1) * config.pi_min
        return out
    if kind == "ipwz_greedy":
        if not state.ipw_ready:
            return np.full((n, K), 1.0 / K)
        eps = config.epsilon_for(K, state.t + 1)
        best = np.argmax(state.target.regressors(contexts) @ state.ipw_theta.T, axis=1)
        out = np.full((n, K), eps / K)
        out[np.arange(n), best] = 1.0 - (K - 1) * eps / K
        return clip_simplex_rows(out, config.pi_min)
    raise ValueError(f"unknown policy kind {kind!r}")


# --- state updates --------------------------------------------------------------


def _solve_small(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact solve for the tiny symmetric systems in the hot loop."""
    d = G.shape[0]
    if d == 1:
        return b / G[0, 0]
    if d == 2:
        det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
        return np.array([(G[1, 1] * b[0] - G[0, 1] * b[1]) / det,
                         (G[0, 0] * b[1] - G[1, 0] * b[0]) / det])
    return np.linalg.solve(G, b)


def _inv_small(G: np.ndarray) -> np.ndarray:
    d = G.shape[0]
    if d == 1:
        return np.array([[1.0 / G[0, 0]]])
    if d == 2:
        det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
        return np.array([[G[1, 1], -G[0, 1]], [-G[1, 0], G[0, 0]]]) / det
    return np.linalg.inv(G)


def _well_conditioned(G: np.ndarray, threshold: float = 1e12) -> bool:
    """Cheap invertibility screen for the per-step policy solves."""
    d = G.shape[0]
    if d == 1:  # any nonzero finite scalar passes the scale-relative test below
        g = float(G[0, 0])
        return g != 0.0 and math.isfinite(g)
    scale = float(np.max(np.abs(G)))
    if scale == 0.0 or not np.isfinite(scale):
        return False
    if d == 2:
        det = G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]
        return abs(det) > scale ** 2 / threshold
    try:
        cond = np.linalg.cond(G)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(cond) and cond < threshold)


def _refresh_ipwz(state: PolicyState, arm: int) -> None:
    """Re-solve the pulled arm's IPW-Z estimate; flag readiness."""
    target = state.target
    gram = state.ipw_gram[arm] - state.ipw_weight[arm] * target.shift
    state.ipw_ok[arm] = _well_conditioned(gram)
    if state.ipw_ok[arm]:
        state.ipw_theta[arm] = _solve_small(gram, state.ipw_moment[arm])
    need = target.theta_dim(state.context_dim)
    state.ipw_ready = bool(np.all(state.counts >= need) and state.ipw_ok.all())


def update_state(config: PolicyConfig, state: PolicyState,
                 transition: Transition) -> PolicyState:
    """Fold one observed transition into the summary statistics (in place)."""
    x, arm, prob, y = transition
    if not 0 <= arm < state.num_arms:
        raise ValueError(f"arm {arm} out of range for K={state.num_arms}")
    x = np.asarray(x, dtype=float)
    state.t += 1
    state.counts[arm] += 1
    state.sums[arm] += y

    if state.ridge_gram is not None:
        state.ridge_gram[arm] += np.outer(x, x)
        state.ridge_moment[arm] += x * y
        state.ridge_gram_inv[arm] = _inv_small(state.ridge_gram[arm])
        state.ridge_beta[arm] = _solve_small(state.ridge_gram[arm], state.ridge_moment[arm])

    if config.kind == "boltzmann_sgd":
        rate = config.sgd_rate_fn(state.t)
        step = score_g(state.target, arm, x, y, state.sgd_beta[arm],
                       num_arms=state.num_arms)
        beta = state.sgd_beta[arm] + rate * step
        norm = np.linalg.norm(beta)
        if norm > SGD_COEF_RADIUS:
            beta *= SGD_COEF_RADIUS / norm
            state.sgd_clip_count += 1
        state.sgd_beta[arm] = beta

    if config.kind == "ipwz_greedy":
        w = 1.0 / prob
        target = state.target
        z = target.regressors(x)
        state.ipw_weight[arm] += w
        state.ipw_gram[arm] += w * np.outer(z, z)
        state.ipw_moment[arm] += w * z * (target.outcome_scale(arm, state.num_arms) * y)
        _refresh_ipwz(state, arm)

    return state
