"""The behavior-policy zoo: action distributions, state updates, clipping.

Every policy here is a summary-statistic policy: the action distribution at
round t is a fixed function of the current context and a finite-dimensional
statistic of the past (arm counts and means, ridge or SGD coefficients, or
incremental IPW-Z estimates). Distribution construction is pure; state lives
in a mutable ``PolicyState`` owned by a block of B trajectories that advance
in lockstep. A lone trajectory is a block of one.

Each policy kind has one implementation, written row-wise: its distribution
maps a block state and B contexts (B, d), or C contexts per row (B, C, d), to
one distribution per context, and its update folds B transitions into the
block state through flat indices b * K + arm. A block of one broadcasts over
any number of contexts. Every per-row reduction is computed exactly as it
would be for that row alone (elementwise arithmetic, or one BLAS call per
context through a stacked ``np.matmul``), so a row's result does not depend
on the block it runs in, nor on the other contexts evaluated with it.

That implementation is the kind's round, bound to one block state by
``bind_round``: a ``Round(distribution, fold)`` whose closures hold what no
round changes (the flat (B * K, ...) views of the state arrays, the row
offsets, the greedy tables, epsilon, the Thompson prior terms, the UCB tables
and the target's regressor rule, c_a vector and Sigma_e). The block engine
binds once per block and a CADR replay once per replay; ``action_distribution``
and ``update_state`` bind for one call. Binding checks that the arrays it
views are C-contiguous; every fold checks its row counts and arm range, and
raises if a state array was replaced after binding.

Clipped policies floor every action probability at ``pi_min`` via the exact
L2 projection onto the constrained simplex (``clip_simplex``), keeping
inverse propensity weights bounded.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .estimator import ScoreTarget, _score_rows, _shift, check_covariance

POLICY_KINDS = (
    "random", "eps_greedy_mab", "ucb_mab", "ts_mab",
    "boltzmann_ridge", "boltzmann_sgd", "ipwz_greedy", "linucb",
)

# Hard L2 cap on SGD coefficients; a numerical safeguard that should never
# bind for the three supported scores (state.sgd_clip_count records if it does).
SGD_COEF_RADIUS = 1e3


class InfeasibleClipError(ValueError):
    """K * pi_min > 1: the floored simplex is empty."""


# Gauss-Legendre nodes per piece of the Thompson-sampling quadrature.
_TS_NODES = 32


@lru_cache(maxsize=None)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def _is_number(x) -> bool:
    """A finite real number, not a bool."""
    return not isinstance(x, bool) and isinstance(x, numbers.Real) and math.isfinite(x)


@dataclass(frozen=True)
class PolicyConfig:
    """Static configuration of a behavior policy: plain data a config file states in full."""

    kind: str
    pi_min: float = 0.05
    # Constant exploration mass for eps_greedy_mab / ipwz_greedy; None means K * pi_min.
    epsilon: float | None = None
    ts_prior: tuple[float, float, float] = (0.0, 1.0, 1.0)  # (mu0, sigma0^2, sigma^2)
    gamma: float = 1.0                    # boltzmann temperature
    ridge_lambda: float = 1.0
    linucb_alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        optional = () if self.epsilon is None else ("epsilon",)
        for name in ("pi_min", "gamma", "ridge_lambda", "linucb_alpha") + optional:
            value = getattr(self, name)
            if not _is_number(value):
                raise ValueError(f"policy.{name} must be a finite number, got {value!r}")
        if not (0.0 < self.pi_min <= 0.5):
            raise ValueError("pi_min must lie in (0, 1/K] (checked against K at init)")
        if self.epsilon is not None and not (0.0 < self.epsilon <= 1.0):
            raise ValueError("epsilon must lie in (0, 1]")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.ridge_lambda <= 0:
            raise ValueError("ridge_lambda must be positive")
        prior = self.ts_prior
        if not (isinstance(prior, (tuple, list)) and len(prior) == 3
                and all(_is_number(x) for x in prior)):
            raise ValueError(f"ts_prior must be three finite numbers, got {prior!r}")
        if prior[1] <= 0 or prior[2] <= 0:
            raise ValueError("ts prior variances must be positive")

    def epsilon_for(self, num_arms: int) -> float:
        """Exploration mass; defaults to K * pi_min as the floor."""
        if self.epsilon is None:
            return min(1.0, num_arms * self.pi_min)
        return self.epsilon


@dataclass
class PolicyState:
    """Mutable summary statistics of a block of B trajectories advanced in lockstep.

    Every per-trajectory field has a leading axis of length B; the round
    counter ``t`` is shared. A lone trajectory is a block of one. Each kind
    keeps only the statistics its distribution reads; the others stay None.
    """

    num_arms: int
    context_dim: int
    t: int = 0
    counts: np.ndarray = None           # (B, K) pulls per arm: the MAB kinds and ipwz_greedy
    sums: np.ndarray = None             # (B, K) outcome sums per arm: the MAB kinds
    means: np.ndarray = None            # (B, K) sums / counts, zero before the first pull: MAB
    # Ridge sufficient statistics and their solved coefficients.
    ridge_gram: np.ndarray = None       # (B, K, d, d) lambda*I + sum x x'
    ridge_moment: np.ndarray = None     # (B, K, d) sum x y
    ridge_beta: np.ndarray = None       # (B, K, d)
    ridge_gram_inv: np.ndarray = None   # (B, K, d, d), LinUCB's confidence widths only
    # SGD coefficients.
    sgd_beta: np.ndarray = None         # (B, K, d_theta)
    sgd_clip_count: np.ndarray = None   # (B,) steps the coefficient cap bound; every kind
    # Incremental inverse-propensity-weighted sufficient statistics.
    # In the score's terms (estimator module docstring), z = regressors(x).
    ipw_weight: np.ndarray = None       # (B, K) sum of weights
    ipw_gram: np.ndarray = None         # (B, K, d_theta, d_theta) sum w z z'
    ipw_moment: np.ndarray = None       # (B, K, d_theta) sum w z c_a y
    ipw_theta: np.ndarray = None        # (B, K, d_theta) current estimates
    ipw_ok: np.ndarray = None           # (B, K) per-arm solve succeeded
    ipw_ready: np.ndarray = None        # (B,) every arm's estimate is usable; every kind
    target: ScoreTarget | None = None

    @property
    def block(self) -> int:
        """Number of trajectories B in the block."""
        return self.sgd_clip_count.shape[0]


class Transition(NamedTuple):
    """One observed round per trajectory of a block: contexts (B, d), the rest (B,)."""

    context: np.ndarray
    arm: np.ndarray
    realized_prob: np.ndarray
    outcome: np.ndarray


def init_state(config: PolicyConfig, num_arms: int, context_dim: int,
               target: ScoreTarget | None = None, block: int = 1) -> PolicyState:
    """Fresh state for ``block`` trajectories in lockstep.

    Validates the K-dependent config constraints, and that a noisy_context
    target's Sigma_e is d x d for the kinds that hold the target.
    """
    _check_floor(num_arms, config.pi_min)
    B, K, d = block, num_arms, context_dim
    state = PolicyState(num_arms=K, context_dim=d,
                        sgd_clip_count=np.zeros(B, dtype=np.int64),
                        ipw_ready=np.zeros(B, dtype=bool))
    if config.kind.endswith("_mab") or config.kind == "ipwz_greedy":
        state.counts = np.zeros((B, K), dtype=np.int64)
    if config.kind.endswith("_mab"):
        state.sums = np.zeros((B, K))
        state.means = np.zeros((B, K))
    if config.kind in ("boltzmann_ridge", "linucb"):
        lam = config.ridge_lambda
        state.ridge_gram = np.tile(lam * np.eye(d), (B, K, 1, 1))
        state.ridge_moment = np.zeros((B, K, d))
        state.ridge_beta = np.zeros((B, K, d))
    if config.kind == "linucb":
        state.ridge_gram_inv = np.tile(np.eye(d) / config.ridge_lambda, (B, K, 1, 1))
    if config.kind in ("boltzmann_sgd", "ipwz_greedy"):
        if target is None:
            raise ValueError(f"{config.kind} requires a ScoreTarget")
        if target.family == "noisy_context":
            check_covariance(target.sigma_e, "sigma_e", dim=d)
        state.target = target
    if config.kind == "boltzmann_sgd":
        state.sgd_beta = np.zeros((B, K, target.theta_dim(d)))
    if config.kind == "ipwz_greedy":
        dt = target.theta_dim(d)
        state.ipw_weight = np.zeros((B, K))
        state.ipw_gram = np.zeros((B, K, dt, dt))
        state.ipw_moment = np.zeros((B, K, dt))
        state.ipw_theta = np.zeros((B, K, dt))
        state.ipw_ok = np.zeros((B, K), dtype=bool)
    return state


# --- flat indices -------------------------------------------------------------
# Entry (b, a) of a (B, K, ...) array is row b * K + a of its (B * K, ...) view:
# one index array gathers or scatters one entry per row.


@lru_cache(maxsize=64)
def row_offsets(rows: int, width: int) -> np.ndarray:
    """b * width for each row b of a (rows, width) array. Read-only, shared."""
    offsets = np.arange(rows) * width
    offsets.flags.writeable = False
    return offsets


def _by_row(a: np.ndarray) -> np.ndarray:
    """The (B * K, ...) view of a (B, K, ...) state array.

    Raises on a non-contiguous array, whose reshape would be a copy that a
    scatter silently misses.
    """
    if not a.flags.c_contiguous:
        raise ValueError("state arrays must be C-contiguous to scatter through a flat view")
    return a.reshape((-1,) + a.shape[2:])


# --- clipping -----------------------------------------------------------------


def _check_floor(num_arms: int, pi_min: float) -> None:
    if num_arms * pi_min > 1.0 + 1e-12:
        raise InfeasibleClipError(f"K * pi_min = {num_arms * pi_min:.4f} > 1 is infeasible")


@lru_cache(maxsize=None)
def _clip_ladder(num_arms: int, pi_min: float) -> tuple[np.ndarray, np.ndarray]:
    """The sizes m = 1..K of a candidate unclipped set, and the floor mass (K - m) * pi_min.

    Read-only, shared.
    """
    ms = np.arange(1, num_arms + 1)
    floor_mass = (num_arms - ms) * pi_min
    ms.flags.writeable = floor_mass.flags.writeable = False
    return ms, floor_mass


def clip_simplex(P: np.ndarray, pi_min: float) -> np.ndarray:
    """Row-wise L2 projection onto {p : sum p = 1, p >= pi_min}, over the last axis.

    Each row's projection is max(p - nu, pi_min) where nu is the unique root of
    q(nu) = sum_a max(p_a - nu, pi_min) = 1; q is piecewise linear in nu, so
    the root is found exactly by sorting, with no iteration (at K = 2 the
    sort is a max and a min). Rows that are already feasible come back
    unchanged, and the result is a new array of P's shape.
    """
    P = np.asarray(P, dtype=float)
    _check_floor(P.shape[-1], pi_min)
    rows = P.reshape(-1, P.shape[-1])
    out = _clip_rows(rows, pi_min)
    return (out.copy() if out is rows else out).reshape(P.shape)


def _clip_rows(P: np.ndarray, pi_min: float) -> np.ndarray:
    """``clip_simplex`` on an (n, K) array whose K * pi_min <= 1 is checked already.

    Returns P itself when every row is feasible, else a new array.
    """
    K = P.shape[1]
    if K == 2:
        # The sorted path below at K = 2, read off the two columns: each row's
        # larger entry hi and smaller entry lo, the same candidate roots and
        # tests, so the same bits.
        first, second = P[:, 0], P[:, 1]
        excess = (first + second) - 1.0         # row sum less one
        lo = np.minimum(first, second)
    else:
        excess = np.add.reduce(P, axis=1) - 1.0
        lo = np.minimum.reduce(P, axis=1)
    # Every clipped round runs this test: ufunc reductions give ndarray.min /
    # max / any / all bit for bit without their Python wrappers.
    off = np.abs(excess)
    if (np.minimum.reduce(lo, initial=math.inf) >= pi_min
            and np.maximum.reduce(off, initial=0.0) <= 1e-12):
        return P
    if K == 2:
        hi = np.maximum(first, second)
        nu_one = (hi + pi_min) - 1.0             # lo clipped
        nu_two = excess / 2                      # ((hi + lo) - 1.0) / 2: neither clipped
        two = lo - nu_two >= pi_min - 1e-15
        any_valid = two | ((hi - nu_one >= pi_min - 1e-15) & (lo - nu_one <= pi_min + 1e-15))
        nu = np.where(two, nu_two, nu_one)
    else:
        desc = np.sort(P, axis=1)[:, ::-1]
        ms, floor_mass = _clip_ladder(K, pi_min)
        nus = (desc.cumsum(axis=1) + floor_mass - 1.0) / ms       # (n, K) candidate roots
        valid = desc - nus >= pi_min - 1e-15                       # m-th largest stays unclipped
        valid[:, :-1] &= desc[:, 1:] - nus[:, :-1] <= pi_min + 1e-15
        # Largest valid m per row; rows with none (K*pi_min == 1) get all-pi_min.
        any_valid = np.logical_or.reduce(valid, axis=1)
        m_idx = np.where(any_valid, K - 1 - valid[:, ::-1].argmax(axis=1), 0)
        nu = nus.take(row_offsets(P.shape[0], K) + m_idx)
    out = np.maximum(P - nu[:, None], pi_min)
    if not np.logical_and.reduce(any_valid):
        out[~any_valid] = pi_min
    ok = (off <= 1e-12) & (lo >= pi_min)
    if np.logical_or.reduce(ok):
        np.copyto(out, P, where=ok[:, None])
    return out


def _clip(P: np.ndarray, pi_min: float) -> np.ndarray:
    """``_clip_rows`` over the last axis of a (B, K) or (B, C, K) array."""
    if P.ndim == 2:
        return _clip_rows(P, pi_min)
    return _clip_rows(P.reshape(-1, P.shape[-1]), pi_min).reshape(P.shape)


# --- Thompson sampling optimal-arm probabilities -------------------------------


def _ts_quadrature(means: np.ndarray, sds: np.ndarray) -> np.ndarray:
    """(B, K) P(arm a is best) by composite Gauss-Legendre quadrature, all entries at once.

    Entry (b, a) integrates phi(z) prod_{j != a} Phi((m_a - m_j + s_a z) / s_j)
    over |z| <= 8 in arm a's standard coordinate z = (u - m_a) / s_a (in u
    itself, u - m_a cancels when s_a is tiny). Cuts at every arm's mean and
    mean +- 8 sd give 3K - 1 pieces, collapsed ones of zero width. A
    collapsed piece's density factor is +0.0, so its CDF factor is left at
    1.0 instead of evaluated: its terms are +0.0 either way.
    """
    K = means.shape[1]
    others = np.array([[j for j in range(K) if j != a] for a in range(K)])   # (K, K - 1)
    nodes, weights = _leggauss(_TS_NODES)
    cuts = (means[:, None, :, None] - means[:, :, None, None]
            + sds[:, None, :, None] * np.array([-8.0, 0.0, 8.0])) / sds[:, :, None, None]
    cuts = np.sort(np.clip(cuts.reshape(means.shape + (3 * K,)), -8.0, 8.0), axis=-1)
    half = 0.5 * np.diff(cuts, axis=-1)                                  # (B, K, 3K - 1)
    z = (cuts[..., :-1] + half)[..., None] + half[..., None] * nodes     # (B, K, 3K - 1, n)
    x = (((means[:, :, None] - means[:, others])[:, :, None, None]
          + sds[:, :, None, None, None] * z[..., None]) / sds[:, others][:, :, None, None])
    live = half > 0
    cdfs = np.ones(x.shape)
    cdfs[live] = 0.5 * np.frompyfunc(math.erfc, 1, 1)(x[live] * -math.sqrt(0.5)).astype(float)
    dens = np.exp(-0.5 * z * z) * (half[..., None] * weights / math.sqrt(2.0 * math.pi))
    return (dens * cdfs.prod(axis=-1)).sum(axis=(-2, -1))


def ts_optimal_prob(post_means: np.ndarray, post_vars: np.ndarray) -> np.ndarray:
    """P(arm a is best) under independent Gaussian posteriors, row-wise over (B, K).

    Two arms have the closed form P(0 is best) = Phi((m_0 - m_1) / sqrt(v_0 + v_1)),
    each entry taken from its own tail with ``math.erfc`` (never as one minus
    the other), so a row sums to 1 within rounding. Three or more arms take
    ``_ts_quadrature``: within 2e-15 of 30-digit quadrature on random rows of
    3 to 5 arms (means in [-5, 5], variances 1e-12 to 10), and row sums within
    2e-12 of 1 for up to 16 equal arms. One (K,) pair gives one (K,) row.
    """
    means = np.asarray(post_means, dtype=float)
    variances = np.asarray(post_vars, dtype=float)
    if means.ndim == 1:
        return ts_optimal_prob(means[None], variances[None])[0]
    if np.logical_or.reduce(variances <= 0, axis=None):
        raise ValueError("posterior variances must be positive")
    if means.shape[1] != 2:
        return _ts_quadrature(means, np.sqrt(variances))
    # x = z / sqrt(2) with z = (m_0 - m_1) / sqrt(v_0 + v_1); Phi(z) = erfc(-x) / 2.
    xs = [(m0 - m1) / math.sqrt(2.0 * (v0 + v1))
          for (m0, m1), (v0, v1) in zip(means.tolist(), variances.tolist())]
    return np.array([[0.5 * math.erfc(-x), 0.5 * math.erfc(x)] for x in xs])


# --- distribution constructors --------------------------------------------------


def _per_row(a: np.ndarray, contexts: np.ndarray) -> np.ndarray:
    """The (B, ...) array ``a`` with a length-one axis for each context axis of ``contexts``.

    So row b of ``a`` broadcasts against row b's contexts, (B, d) or (B, C, d).
    """
    if contexts.ndim == 2:
        return a
    return a.reshape(a.shape[:1] + (1,) * (contexts.ndim - 2) + a.shape[1:])


def _apply(coefs: np.ndarray, contexts: np.ndarray) -> np.ndarray:
    """(B, ..., K): row b's (K, p) coefficients times each of its (p,) contexts.

    A stacked matmul makes one BLAS call per context, so each entry equals
    the one-trajectory product ``coefs[b] @ contexts[b, ...]`` bit for bit.
    """
    return np.matmul(_per_row(coefs, contexts), contexts[..., None])[..., 0]


@lru_cache(maxsize=64)
def _greedy_table(num_arms: int, explore_each: float, pi_min: float | None) -> np.ndarray:
    """(K, K): row a puts ``explore_each`` on every arm but a, the rest on a.

    Clipped at ``pi_min`` when given; ``clip_simplex`` works row by row, so a
    row of the clipped table is that row clipped alone. Read-only, shared.
    """
    table = np.full((num_arms, num_arms), explore_each)
    np.fill_diagonal(table, 1.0 - (num_arms - 1) * explore_each)
    if pi_min is not None:
        table = clip_simplex(table, pi_min)
    table.flags.writeable = False
    return table


def _mab_rows(kind: str, config: PolicyConfig, state: PolicyState):
    """The (B, K) rows of a context-free MAB kind, bound to ``state``: a function of no arguments."""
    K, B = state.num_arms, state.block
    counts, means = state.counts, state.means
    if kind == "eps_greedy":
        table = _greedy_table(K, config.epsilon_for(K) / K, None)
        return lambda: table.take(means.argmax(axis=1), axis=0)
    if kind == "ucb":
        forced, table = _greedy_table(K, 0.0, None), _greedy_table(K, config.pi_min, None)

        def ucb_rows():
            t = state.t
            if t < K:  # forced initialization: rounds 1..K pull each arm once
                return forced.take(np.full(B, t), axis=0)
            radius = 2.0 * math.log(t + 1)  # squared radius 2 log t at round t
            index = np.where(counts > 0, means + np.sqrt(radius / np.maximum(counts, 1)), np.inf)
            return table.take(index.argmax(axis=1), axis=0)

        return ucb_rows
    mu0, s0, s2 = config.ts_prior
    prior_precision, prior_mean, pi_min = 1.0 / s0, mu0 / s0, config.pi_min
    _check_floor(K, pi_min)

    def ts_rows():
        post_var = 1.0 / (prior_precision + counts / s2)
        post_mean = post_var * (prior_mean + counts * means / s2)
        return _clip_rows(ts_optimal_prob(post_mean, post_var), pi_min)

    return ts_rows


def mab_distribution(kind: str, state: PolicyState, config: PolicyConfig) -> np.ndarray:
    """Distributions of the context-free multi-armed bandit algorithms; one row per trajectory."""
    if kind not in ("eps_greedy", "ucb", "ts"):
        raise ValueError(f"unknown MAB kind {kind!r}")
    return _mab_rows(kind, config, state)()


def _boltzmann(beta: np.ndarray, gamma: float, pi_min: float, contexts: np.ndarray) -> np.ndarray:
    scores = _apply(beta, contexts) / gamma
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    expd = np.exp(scores)
    return _clip(expd / np.add.reduce(expd, axis=-1, keepdims=True), pi_min)


def boltzmann_distribution(beta: np.ndarray, contexts: np.ndarray,
                           gamma: float, pi_min: float) -> np.ndarray:
    """Clipped softmax of the working-model action values <beta_a, x> / gamma.

    Row-wise over ``beta`` (B, K, d) and ``contexts`` (B, d) or (B, C, d),
    by ``action_distribution``'s shape rule.
    """
    _check_floor(beta.shape[1], pi_min)
    return _boltzmann(beta, gamma, pi_min, contexts)


def _linucb(gram_inv: np.ndarray, beta: np.ndarray, alpha: float, table: np.ndarray,
            contexts: np.ndarray) -> np.ndarray:
    widths = np.sqrt(np.einsum("b...i,baij,b...j->b...a", contexts, gram_inv, contexts))
    index = _apply(beta, contexts) + alpha * widths
    return table.take(index.argmax(axis=-1), axis=0)


def linucb_distribution(state: PolicyState, contexts: np.ndarray,
                        alpha: float, pi_min: float) -> np.ndarray:
    """Optimism index over per-arm ridge fits; argmax gets the lion's share.

    Row-wise like ``boltzmann_distribution``.
    """
    return _linucb(state.ridge_gram_inv, state.ridge_beta, alpha,
                   _greedy_table(state.num_arms, pi_min, None), contexts)


# --- update kernels -------------------------------------------------------------


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


def _score_pieces(target: ScoreTarget, num_arms: int, width: int):
    """A target's score pieces, fixed for a block: its regressor rule, its c_a per
    arm (None when every c_a is 1) and S, checked against ``width`` columns."""
    scale = target.target_policy.vector(num_arms) if target.family == "ope" else None
    return target.regressors, scale, _shift(target, width)


# --- bound rounds -----------------------------------------------------------------
# Each kind's binder resolves everything a block's rounds share (flat views,
# tables, prior terms, the target's score pieces) and returns
# (distribution, update, names): the distribution at (B, d) or (B, C, d)
# contexts, the kind's fold of one transition per row given flat indices
# b * K + arm (None when it keeps no statistics), and the names of the state
# fields the two hold, which they read and write in place.


def _bind_random(config: PolicyConfig, state: PolicyState):
    K = state.num_arms

    def distribution(contexts):
        return np.full(contexts.shape[:-1] + (K,), 1.0 / K)

    return distribution, None, ()


def _bind_mab(config: PolicyConfig, state: PolicyState):
    rows = _mab_rows(config.kind.removesuffix("_mab"), config, state)
    K, counts, sums, means = state.num_arms, state.counts, state.sums, state.means

    def distribution(contexts):
        probs, shape = rows(), contexts.shape[:-1] + (K,)
        return probs if probs.shape == shape else np.broadcast_to(_per_row(probs, contexts), shape)

    def update(flat, x, arm, prob, y):
        pulls = counts.take(flat) + 1
        counts.put(flat, pulls)
        total = sums.take(flat) + y
        sums.put(flat, total)
        means.put(flat, total / pulls)  # the pulled entries of sums / counts

    return distribution, update, ("counts", "sums", "means")


def _bind_ridge(config: PolicyConfig, state: PolicyState):
    grams, moments = _by_row(state.ridge_gram), _by_row(state.ridge_moment)
    betas = _by_row(state.ridge_beta)
    names = ("ridge_gram", "ridge_moment", "ridge_beta")
    if config.kind == "linucb":
        inverses = _by_row(state.ridge_gram_inv)
        names += ("ridge_gram_inv",)
        distribution = partial(_linucb, state.ridge_gram_inv, state.ridge_beta,
                               config.linucb_alpha,
                               _greedy_table(state.num_arms, config.pi_min, None))
    else:
        inverses = None
        _check_floor(state.num_arms, config.pi_min)
        distribution = partial(_boltzmann, state.ridge_beta, config.gamma, config.pi_min)

    def update(flat, x, arm, prob, y):
        gram = grams.take(flat, axis=0) + x[:, :, None] * x[:, None, :]
        moment = moments.take(flat, axis=0) + x * y[:, None]
        grams[flat] = gram
        moments[flat] = moment
        if inverses is not None:
            inverses[flat] = _inv_small(gram)
        betas[flat] = _solve_small(gram, moment)

    return distribution, update, names


def _bind_sgd(config: PolicyConfig, state: PolicyState):
    beta_all, clip_counts = state.sgd_beta, state.sgd_clip_count
    if beta_all.shape[-1] != state.target.theta_dim(state.context_dim):
        raise ValueError("theta dimension must match the score dimension")
    regressors, scale, shift = _score_pieces(state.target, state.num_arms, beta_all.shape[-1])
    betas = _by_row(beta_all)
    gamma, pi_min = config.gamma, config.pi_min
    _check_floor(state.num_arms, pi_min)

    def distribution(contexts):
        return _boltzmann(beta_all, gamma, pi_min, regressors(contexts))

    def update(flat, x, arm, prob, y):
        rate = 0.5 * state.t ** (-2.0 / 3.0)  # sum eta_t = inf, sum eta_t^2 < inf
        beta = betas.take(flat, axis=0)
        beta = beta + rate * _score_rows(regressors(x), 1.0 if scale is None else scale[arm],
                                         shift, y, beta)
        # One dot per row, as np.linalg.norm computes it for one vector.
        norm = np.sqrt(np.matmul(beta[:, None, :], beta[:, :, None])[:, 0, 0])
        clipped = norm > SGD_COEF_RADIUS
        if np.logical_or.reduce(clipped):
            beta[clipped] *= (SGD_COEF_RADIUS / norm[clipped])[:, None]
            clip_counts[clipped] += 1
        betas[flat] = beta

    return distribution, update, ("sgd_beta", "sgd_clip_count")


def _bind_ipwz(config: PolicyConfig, state: PolicyState):
    """Uniform until every arm's estimate is ready, then clipped eps-greedy on them."""
    K, target = state.num_arms, state.target
    theta_all = state.ipw_theta
    regressors, scale, shift = _score_pieces(target, K, theta_all.shape[-1])
    need = target.theta_dim(state.context_dim)
    counts, weights, solved_ok, ready = (state.counts, state.ipw_weight, state.ipw_ok,
                                         state.ipw_ready)
    grams, moments, thetas = _by_row(state.ipw_gram), _by_row(state.ipw_moment), _by_row(theta_all)
    table = _greedy_table(K, config.epsilon_for(K) / K, config.pi_min)

    def distribution(contexts):
        if not np.logical_or.reduce(ready):
            return np.full(contexts.shape[:-1] + (K,), 1.0 / K)
        greedy = table.take(_apply(theta_all, regressors(contexts)).argmax(axis=-1), axis=0)
        if np.logical_and.reduce(ready):
            return greedy
        return np.where(_per_row(ready, contexts)[..., None], greedy, 1.0 / K)

    def update(flat, x, arm, prob, y):
        counts.put(flat, counts.take(flat) + 1)
        w = 1.0 / prob
        Z = regressors(x)
        c = 1.0 if scale is None else scale[arm]
        weights.put(flat, weights.take(flat) + w)
        grams[flat] = grams.take(flat, axis=0) + w[:, None, None] * (Z[:, :, None] * Z[:, None, :])
        moments[flat] = moments.take(flat, axis=0) + w[:, None] * Z * (c * y)[:, None]
        # Re-solve each row's pulled-arm estimate, then flag readiness.
        gram = grams.take(flat, axis=0) - weights.take(flat)[:, None, None] * shift
        ok = _well_conditioned(gram)
        solved_ok.put(flat, ok)
        if np.logical_or.reduce(ok):
            solved = flat[ok]
            thetas[solved] = _solve_small(gram[ok], moments.take(solved, axis=0))
        ready[:] = (np.logical_and.reduce(counts >= need, axis=1)
                    & np.logical_and.reduce(solved_ok, axis=1))

    return distribution, update, ("counts", "ipw_weight", "ipw_gram", "ipw_moment",
                                  "ipw_theta", "ipw_ok", "ipw_ready")


_BINDERS = {
    "random": _bind_random,
    "eps_greedy_mab": _bind_mab, "ucb_mab": _bind_mab, "ts_mab": _bind_mab,
    "boltzmann_ridge": _bind_ridge, "linucb": _bind_ridge,
    "boltzmann_sgd": _bind_sgd,
    "ipwz_greedy": _bind_ipwz,
}


class Round(NamedTuple):
    """A policy kind's round bound to one block state (see ``bind_round``)."""

    distribution: Callable[[np.ndarray], np.ndarray]
    fold: Callable[..., None]


def bind_round(config: PolicyConfig, state: PolicyState) -> Round:
    """The policy's round on ``state``, with everything fixed for the block resolved once.

    ``distribution(contexts)`` is ``action_distribution`` at the state as it
    stands. ``fold(x, arm, prob, y, flat=None)`` is ``update_state`` on one
    transition per trajectory; ``flat`` is ``row_offsets(B, K) + arm``,
    computed when not given. Binding checks that every state array the
    round scatters into through a flat view is C-contiguous; each fold
    checks the transition's row counts and arm range, and raises if a state
    array the round holds was replaced since binding, before it changes
    anything.
    """
    binder = _BINDERS.get(config.kind)
    if binder is None:
        raise ValueError(f"unknown policy kind {config.kind!r}")
    distribution, update, names = binder(config, state)
    held = tuple((name, getattr(state, name)) for name in names)
    B, K = state.block, state.num_arms
    offsets = row_offsets(B, K)

    def fold(x, arm, prob, y, flat=None):
        if not len(x) == len(arm) == len(prob) == len(y) == B:
            raise ValueError(
                f"a block of {B} needs one transition row per trajectory, got contexts "
                f"{len(x)}, arms {len(arm)}, propensities {len(prob)}, outcomes {len(y)}")
        arm_list = arm.tolist()  # Python's min/max beat two numpy reductions on small blocks
        if min(arm_list) < 0 or max(arm_list) >= K:
            raise ValueError(f"arms {arm_list} out of range for K={K}")
        for name, array in held:
            if getattr(state, name) is not array:
                raise ValueError(f"state.{name} was replaced after the round was bound; "
                                 f"bind the round again")
        state.t += 1
        if update is not None:
            update(offsets + arm if flat is None else flat, x, arm, prob, y)

    return Round(distribution, fold)


def action_distribution(config: PolicyConfig, state: PolicyState,
                        context: np.ndarray) -> np.ndarray:
    """The policy's action distribution at ``context`` given the current state.

    Shape rule: axis 0 of ``context`` is the block axis and its last axis is
    the context dimension d. ``context`` (B, d) gives (B, K), one context per
    trajectory; (B, C, d) gives (B, C, K), C contexts evaluated under each
    trajectory's state. Entry (b, c) equals the (B, d) call at the contexts
    ``context[:, c]`` bit for bit. A block of one broadcasts over axis 0, so
    it evaluates any number of contexts. The context-free MAB kinds return a
    read-only broadcast of their (B, K) rows.
    """
    return bind_round(config, state).distribution(context)


def update_state(config: PolicyConfig, state: PolicyState,
                 transition: Transition) -> PolicyState:
    """Fold one transition per trajectory into the block's summary statistics (in place).

    Row b's pulled arm is entry b * K + arm of each (B, K, ...) statistic, so
    every gather is one ``take`` and every scatter one flat assignment.
    """
    bind_round(config, state).fold(*transition)
    return state
