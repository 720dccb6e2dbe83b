"""The behavior-policy zoo: action distributions, state updates, clipping.

Every policy here is a summary-statistic policy: the action distribution at
round t is a fixed function of the current context and a finite-dimensional
statistic of the past (arm counts and means, ridge or SGD coefficients, or
incremental IPW-Z estimates). Distribution construction is pure; state lives
in a mutable ``PolicyState`` owned by one trajectory, or by a block of B
trajectories that advance in lockstep.

Each policy kind has one implementation, written row-wise: its distribution
maps a block state and B contexts to B distributions, and its update folds B
transitions into the block state. A single trajectory is a block of one
(``PolicyState.as_block``), and ``action_distribution_batch`` broadcasts one
state over many contexts. Every per-row reduction is computed exactly as it
would be for that row alone (elementwise arithmetic, or one BLAS call per
row through a stacked ``np.matmul``), so a row's result does not depend on
the block it runs in.

Clipped policies floor every action probability at ``pi_min`` via the exact
L2 projection onto the constrained simplex (``clip_simplex_rows``), keeping
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


# Fields holding one value per trajectory; a block state gives each a leading axis.
_PER_TRAJECTORY = (
    "counts", "sums", "ridge_gram", "ridge_moment", "ridge_beta", "ridge_gram_inv",
    "sgd_beta", "sgd_clip_count", "ipw_weight", "ipw_gram", "ipw_moment", "ipw_theta",
    "ipw_ok", "ipw_ready",
)


@dataclass
class PolicyState:
    """Mutable summary statistics of one trajectory, or of a block of them.

    The shapes below are a single trajectory's (``block`` is None). A block
    state (``block = B``) holds B trajectories advanced in lockstep: every
    per-trajectory field, ``sgd_clip_count`` and ``ipw_ready`` included, gains
    a leading axis of length B, while the round counter ``t`` is shared.
    """

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
    block: int | None = None

    @property
    def means(self) -> np.ndarray:
        """Per-arm running mean outcomes (zero before the first pull)."""
        return np.divide(self.sums, self.counts,
                         out=np.zeros_like(self.sums), where=self.counts > 0)

    def _with(self, per_trajectory, block: int | None) -> PolicyState:
        view = object.__new__(PolicyState)
        view.__dict__ = {name: per_trajectory(value)
                         if name in _PER_TRAJECTORY and value is not None else value
                         for name, value in self.__dict__.items()}
        view.block = block
        return view

    def as_block(self) -> PolicyState:
        """This single trajectory as a block of one; array writes reach ``self``.

        ``t``, ``sgd_clip_count`` and ``ipw_ready`` are copies: ``update_state``
        writes them back.
        """
        return self._with(lambda value: np.asarray(value)[None], 1)

    def row(self, b: int) -> PolicyState:
        """Trajectory ``b`` of a block state as a single-trajectory state (array views)."""
        view = self._with(lambda value: value[b], None)
        view.sgd_clip_count = int(view.sgd_clip_count)
        view.ipw_ready = bool(view.ipw_ready)
        return view


class Transition(NamedTuple):
    """One observed round, or one per trajectory of a block (then every field has a leading axis)."""

    context: np.ndarray
    arm: int
    realized_prob: float
    outcome: float


def init_state(config: PolicyConfig, num_arms: int, context_dim: int,
               target: ScoreTarget | None = None, block: int | None = None) -> PolicyState:
    """Fresh state for a trajectory, or for ``block`` trajectories in lockstep.

    Validates the K-dependent config constraints.
    """
    if num_arms * config.pi_min > 1.0 + 1e-12:
        raise InfeasibleClipError(
            f"K * pi_min = {num_arms * config.pi_min:.4f} > 1 is infeasible")
    K, d = num_arms, context_dim
    lead = () if block is None else (block,)
    state = PolicyState(num_arms=K, context_dim=d, block=block,
                        counts=np.zeros(lead + (K,), dtype=np.int64), sums=np.zeros(lead + (K,)))
    if block is not None:
        state.sgd_clip_count = np.zeros(block, dtype=np.int64)
        state.ipw_ready = np.zeros(block, dtype=bool)
    if config.kind in ("boltzmann_ridge", "linucb"):
        lam = config.ridge_lambda
        state.ridge_gram = np.tile(lam * np.eye(d), lead + (K, 1, 1))
        state.ridge_moment = np.zeros(lead + (K, d))
        state.ridge_beta = np.zeros(lead + (K, d))
        state.ridge_gram_inv = np.tile(np.eye(d) / lam, lead + (K, 1, 1))
    if config.kind == "boltzmann_sgd":
        if target is None:
            raise ValueError("boltzmann_sgd requires a ScoreTarget for its update rule")
        state.sgd_beta = np.zeros(lead + (K, target.theta_dim(d)))
        state.target = target
    if config.kind == "ipwz_greedy":
        if target is None:
            raise ValueError("ipwz_greedy requires a ScoreTarget")
        dt = target.theta_dim(d)
        state.ipw_weight = np.zeros(lead + (K,))
        state.ipw_gram = np.zeros(lead + (K, dt, dt))
        state.ipw_moment = np.zeros(lead + (K, dt))
        state.ipw_theta = np.zeros(lead + (K, dt))
        state.ipw_ok = np.zeros(lead + (K,), dtype=bool)
        state.target = target
    return state


# --- clipping -----------------------------------------------------------------


def clip_simplex(probs: np.ndarray, pi_min: float) -> np.ndarray:
    """L2 projection of ``probs`` onto {p : sum p = 1, p >= pi_min}; one row of ``clip_simplex_rows``."""
    return clip_simplex_rows(np.asarray(probs, dtype=float)[None], pi_min)[0]


def clip_simplex_rows(P: np.ndarray, pi_min: float) -> np.ndarray:
    """Row-wise L2 projection onto {p : sum p = 1, p >= pi_min}.

    Each row's projection is max(p - nu, pi_min) where nu is the unique root of
    q(nu) = sum_a max(p_a - nu, pi_min) = 1; q is piecewise linear in nu, so
    the root is found exactly by sorting, with no iteration.
    """
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


def _ts_entries_gh(means: np.ndarray, sds: np.ndarray, rows: np.ndarray, arms: np.ndarray,
                   n: int) -> np.ndarray:
    """Gauss-Hermite P(arm is best) for each (row, arm) entry, with ``n`` nodes."""
    nodes, weights = _hermgauss(n)
    u = means[rows, arms][:, None] + (math.sqrt(2.0) * sds[rows, arms])[:, None] * nodes
    prod = np.ones_like(u)
    for j in range(means.shape[1] - 1):  # the other arms, in ascending order
        i = np.where(j < arms, j, j + 1)
        prod *= ndtr((u - means[rows, i][:, None]) / sds[rows, i][:, None])
    return (prod * weights).sum(axis=1) / math.sqrt(math.pi)


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
    """P(arm a is best) under independent Gaussian posteriors, row-wise over (B, K).

    Deterministic quadrature of P(all other arms below u) against each arm's
    posterior density: a nested Gauss-Hermite ladder (40, 80, 160 nodes, until
    two rungs agree to 5e-7), falling back to adaptive quadrature with
    breakpoints when posteriors are near-degenerate. Absolute accuracy <= 1e-6
    per entry. One (K,) pair of arrays gives one (K,) row.
    """
    means = np.asarray(post_means, dtype=float)
    variances = np.asarray(post_vars, dtype=float)
    if means.ndim == 1:
        return ts_optimal_prob(means[None], variances[None])[0]
    if np.any(variances <= 0):
        raise ValueError("posterior variances must be positive")
    sds = np.sqrt(variances)
    out = np.empty(means.shape)
    rows, arms = (idx.ravel() for idx in np.indices(means.shape))
    prev = _ts_entries_gh(means, sds, rows, arms, 40)
    for n in (80, 160):
        if not rows.size:
            break
        value = _ts_entries_gh(means, sds, rows, arms, n)
        done = np.abs(value - prev) < 5e-7
        out[rows[done], arms[done]] = value[done]
        rows, arms, prev = rows[~done], arms[~done], value[~done]
    for b, a in zip(rows.tolist(), arms.tolist()):
        out[b, a] = _ts_entry_quad(a, means[b], sds[b])
    return out


# --- distribution constructors --------------------------------------------------


def _apply(coefs: np.ndarray, contexts: np.ndarray) -> np.ndarray:
    """(B, K): row b's (K, p) coefficients times its (p,) context.

    A stacked matmul makes one BLAS call per row, so each row equals the
    one-trajectory product ``coefs[b] @ contexts[b]`` bit for bit.
    """
    return np.matmul(coefs, contexts[..., None])[..., 0]


def _greedy_rows(best: np.ndarray, num_arms: int, explore_each: float) -> np.ndarray:
    out = np.full((best.shape[0], num_arms), explore_each)
    out[np.arange(best.shape[0]), best] = 1.0 - (num_arms - 1) * explore_each
    return out


def mab_distribution(kind: str, state: PolicyState, config: PolicyConfig) -> np.ndarray:
    """Distributions for the context-ignoring multi-armed bandit algorithms.

    One row per trajectory of a block state; a single state gives one (K,) row.
    """
    if state.block is None:
        return mab_distribution(kind, state.as_block(), config)[0]
    K = state.num_arms
    if kind == "eps_greedy":
        eps = config.epsilon_for(K, state.t + 1)
        return _greedy_rows(np.argmax(state.means, axis=1), K, eps / K)
    if kind == "ucb":
        if state.t < K:  # forced initialization: rounds 1..K pull each arm once
            out = np.zeros((state.block, K))
            out[:, state.t] = 1.0
            return out
        radius = config.ucb_radius_fn(state.t + 1)
        index = np.where(state.counts > 0,
                         state.means + np.sqrt(radius / np.maximum(state.counts, 1)),
                         np.inf)
        return _greedy_rows(np.argmax(index, axis=1), K, config.pi_min)
    if kind == "ts":
        mu0, s0, s2 = config.ts_prior
        precision = 1.0 / s0 + state.counts / s2
        post_var = 1.0 / precision
        post_mean = post_var * (mu0 / s0 + state.counts * state.means / s2)
        return clip_simplex_rows(ts_optimal_prob(post_mean, post_var), config.pi_min)
    raise ValueError(f"unknown MAB kind {kind!r}")


def boltzmann_distribution(beta: np.ndarray, contexts: np.ndarray,
                           gamma: float, pi_min: float) -> np.ndarray:
    """Clipped softmax of the working-model action values <beta_a, x> / gamma.

    Row-wise over ``beta`` (B, K, d) and ``contexts`` (B, d); a block of one
    coefficient set broadcasts over B contexts, and one (K, d), (d,) pair gives
    one (K,) distribution.
    """
    if np.ndim(contexts) == 1:
        return boltzmann_distribution(beta[None], contexts[None], gamma, pi_min)[0]
    scores = _apply(beta, contexts) / gamma
    scores -= scores.max(axis=1, keepdims=True)
    expd = np.exp(scores)
    return clip_simplex_rows(expd / expd.sum(axis=1, keepdims=True), pi_min)


def linucb_distribution(state: PolicyState, contexts: np.ndarray,
                        alpha: float, pi_min: float) -> np.ndarray:
    """Optimism index over per-arm ridge fits; argmax gets the lion's share.

    Row-wise like ``boltzmann_distribution``; a single state and one context
    give one (K,) distribution.
    """
    if state.block is None:
        return linucb_distribution(state.as_block(), np.asarray(contexts, dtype=float)[None],
                                   alpha, pi_min)[0]
    widths = np.sqrt(np.einsum("bi,baij,bj->ba", contexts, state.ridge_gram_inv, contexts))
    index = _apply(state.ridge_beta, contexts) + alpha * widths
    return _greedy_rows(np.argmax(index, axis=1), state.num_arms, pi_min)


def _ipwz_distribution(config: PolicyConfig, state: PolicyState,
                       contexts: np.ndarray) -> np.ndarray:
    """Uniform until every arm's estimate is ready, then clipped eps-greedy on them."""
    K = state.num_arms
    out = np.full((contexts.shape[0], K), 1.0 / K)
    if not state.ipw_ready.any():
        return out
    eps = config.epsilon_for(K, state.t + 1)
    best = np.argmax(_apply(state.ipw_theta, state.target.regressors(contexts)), axis=1)
    greedy = clip_simplex_rows(_greedy_rows(best, K, eps / K), config.pi_min)
    return np.where(state.ipw_ready[:, None], greedy, out)


def action_distribution(config: PolicyConfig, state: PolicyState,
                        context: np.ndarray) -> np.ndarray:
    """The policy's action distribution at ``context`` given the current state.

    For a block state, ``context`` holds one row per trajectory (B, d) and the
    result is (B, K); for a single state, one (d,) context gives one (K,) row.
    """
    if state.block is None:
        return action_distribution(config, state.as_block(),
                                   np.asarray(context, dtype=float)[None])[0]
    kind = config.kind
    if kind == "random":
        return np.full((context.shape[0], state.num_arms), 1.0 / state.num_arms)
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
        return _ipwz_distribution(config, state, context)
    raise ValueError(f"unknown policy kind {kind!r}")


def action_distribution_batch(config: PolicyConfig, state: PolicyState,
                              contexts: np.ndarray) -> np.ndarray:
    """``action_distribution`` of one trajectory's state at each row of ``contexts``; (n, K).

    ``state`` is a single-trajectory state or a block of one.
    """
    contexts = np.atleast_2d(np.asarray(contexts, dtype=float))
    probs = action_distribution(config, state if state.block == 1 else state.as_block(), contexts)
    if probs.shape[0] != contexts.shape[0]:  # context-free kinds give one row
        probs = np.repeat(probs, contexts.shape[0], axis=0)
    return probs


# --- state updates --------------------------------------------------------------


def _solve_small(G: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact row-wise solves G[i] x = b[i] for the tiny symmetric systems in the hot loop."""
    d = G.shape[-1]
    if d == 1:
        return b / G[:, 0]
    if d == 2:
        det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0]
        return np.stack([(G[:, 1, 1] * b[:, 0] - G[:, 0, 1] * b[:, 1]) / det,
                         (G[:, 0, 0] * b[:, 1] - G[:, 1, 0] * b[:, 0]) / det], axis=1)
    return np.linalg.solve(G, b[..., None])[..., 0]


def _inv_small(G: np.ndarray) -> np.ndarray:
    """Exact row-wise inverses of the tiny symmetric matrices G[i]."""
    d = G.shape[-1]
    if d == 1:
        return 1.0 / G
    if d == 2:
        det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0]
        adj = np.stack([G[:, 1, 1], -G[:, 0, 1], -G[:, 1, 0], G[:, 0, 0]], axis=1)
        return adj.reshape(-1, 2, 2) / det[:, None, None]
    return np.linalg.inv(G)


def _cond_below(G: np.ndarray, threshold: float) -> bool:
    try:
        cond = np.linalg.cond(G)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(cond) and cond < threshold)


def _well_conditioned(G: np.ndarray, threshold: float = 1e12) -> np.ndarray:
    """Cheap invertibility screen for the per-step policy solves; one bool per G[i]."""
    d = G.shape[-1]
    if d == 1:  # any nonzero finite scalar passes the scale-relative test below
        g = G[:, 0, 0]
        return (g != 0.0) & np.isfinite(g)
    scale = np.abs(G).max(axis=(1, 2))
    ok = (scale != 0.0) & np.isfinite(scale)
    if d == 2:
        det = G[:, 0, 0] * G[:, 1, 1] - G[:, 0, 1] * G[:, 1, 0]
        return ok & (np.abs(det) > scale ** 2 / threshold)
    return ok & np.array([_cond_below(g, threshold) for g in G], dtype=bool)


def _refresh_ipwz(state: PolicyState, rows: np.ndarray, arms: np.ndarray) -> None:
    """Re-solve each row's pulled-arm IPW-Z estimate; flag readiness."""
    target = state.target
    gram = state.ipw_gram[rows, arms] - state.ipw_weight[rows, arms][:, None, None] * target.shift
    ok = _well_conditioned(gram)
    state.ipw_ok[rows, arms] = ok
    if ok.any():
        state.ipw_theta[rows[ok], arms[ok]] = _solve_small(gram[ok],
                                                           state.ipw_moment[rows[ok], arms[ok]])
    need = target.theta_dim(state.context_dim)
    state.ipw_ready[:] = np.all(state.counts >= need, axis=1) & state.ipw_ok.all(axis=1)


def update_state(config: PolicyConfig, state: PolicyState,
                 transition: Transition) -> PolicyState:
    """Fold observed transitions into the summary statistics (in place).

    For a block state, every field of ``transition`` carries one entry per
    trajectory: contexts (B, d), arms, realized probabilities and outcomes (B,).
    """
    if state.block is None:
        x, arm, prob, y = transition
        if not 0 <= arm < state.num_arms:
            raise ValueError(f"arm {arm} out of range for K={state.num_arms}")
        rows = state.as_block()
        update_state(config, rows, Transition(np.asarray(x, dtype=float)[None], np.array([arm]),
                                               np.array([prob], dtype=float),
                                               np.array([y], dtype=float)))
        state.t = rows.t
        state.sgd_clip_count = int(rows.sgd_clip_count[0])
        state.ipw_ready = bool(rows.ipw_ready[0])
        return state

    X, arms, probs, ys = transition
    rows = np.arange(state.block)
    pulled = (rows, arms)
    state.t += 1
    np.add.at(state.counts, pulled, 1)
    np.add.at(state.sums, pulled, ys)

    if state.ridge_gram is not None:
        gram = state.ridge_gram[rows, arms] + X[:, :, None] * X[:, None, :]
        moment = state.ridge_moment[rows, arms] + X * ys[:, None]
        state.ridge_gram[rows, arms] = gram
        state.ridge_moment[rows, arms] = moment
        state.ridge_gram_inv[rows, arms] = _inv_small(gram)
        state.ridge_beta[rows, arms] = _solve_small(gram, moment)

    if config.kind == "boltzmann_sgd":
        rate = config.sgd_rate_fn(state.t)
        beta = state.sgd_beta[rows, arms]
        beta = beta + rate * score_g(state.target, arms, X, ys, beta, num_arms=state.num_arms)
        # One dot per row, as np.linalg.norm computes it for one vector.
        norm = np.sqrt(np.matmul(beta[:, None, :], beta[:, :, None])[:, 0, 0])
        clipped = norm > SGD_COEF_RADIUS
        if clipped.any():
            beta[clipped] *= (SGD_COEF_RADIUS / norm[clipped])[:, None]
            state.sgd_clip_count[clipped] += 1
        state.sgd_beta[rows, arms] = beta

    if config.kind == "ipwz_greedy":
        w = 1.0 / probs
        target = state.target
        Z = target.regressors(X)
        c = target.outcome_scale(arms, state.num_arms)
        np.add.at(state.ipw_weight, pulled, w)
        np.add.at(state.ipw_gram, pulled, w[:, None, None] * (Z[:, :, None] * Z[:, None, :]))
        np.add.at(state.ipw_moment, pulled, w[:, None] * Z * (c * ys)[:, None])
        _refresh_ipwz(state, rows, arms)

    return state
