"""The behavior-policy zoo: action distributions, state updates, clipping.

Every policy here is a summary-statistic policy: the action distribution at
round t is a fixed function of the current context and a finite-dimensional
statistic of the past (arm counts and means, ridge or SGD coefficients, or
incremental IPW-Z estimates). ``new_policy`` makes the ``Policy`` of a block
of B trajectories that advance in lockstep; a lone trajectory is a block of
one. The policy owns its statistics, (B, ...) arrays named in the read-only
mapping ``Policy.stats``, and its round: ``distribution`` and ``fold``.

Each policy kind is one function here, written row-wise. It allocates the
kind's statistics and returns its round: a distribution that maps B contexts
(B, d), or C contexts per row (B, C, d), to one distribution per context, and
an update that folds B transitions into the statistics through flat indices
b * K + arm. Its closures hold what no round changes (the flat (B * K, ...)
views of the statistics, the greedy tables, epsilon, the Thompson prior
terms, the UCB tables and the target's regressor rule, c_a vector and
Sigma_e). A block of one broadcasts over any number of contexts. Every
per-row reduction is computed exactly as it would be for that row alone
(elementwise arithmetic, or one BLAS call per context through a stacked
``np.matmul``), so a row's result does not depend on the block it runs in,
nor on the other contexts evaluated with it. The arrays are allocated
C-contiguous and no mapping entry can be rebound, so every flat view stays a
view of its statistic; each fold checks its row counts and arm range.

Clipped policies floor every action probability at ``pi_min`` via the exact
L2 projection onto the constrained simplex (``clip_simplex``), keeping
inverse propensity weights bounded.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, partial
from types import MappingProxyType

import numpy as np

from .estimator import ScoreTarget, _score_rows, check_covariance

POLICY_KINDS = (
    "random", "eps_greedy_mab", "ucb_mab", "ts_mab",
    "boltzmann_ridge", "boltzmann_sgd", "ipwz_greedy", "linucb",
)

# Hard L2 cap on SGD coefficients; a numerical safeguard that should never
# bind for the three supported scores (stats["sgd_clip_count"] records if it does).
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


class Policy:
    """The policy of a block of B trajectories advanced in lockstep; made by ``new_policy``.

    ``stats`` maps the name of each statistic the kind keeps to its (B, ...)
    array, row b for trajectory b. Every kind also reports ``sgd_clip_count``
    (steps the SGD coefficient cap bound) and ``ipw_ready`` (every arm's IPW-Z
    estimate is usable), zero where it keeps no such thing. The mapping is
    read-only; ``fold`` changes its arrays in place. ``t`` counts the rounds
    folded. A lone trajectory is a block of one.

    ``distribution(contexts)`` is the action distribution at the statistics as
    they stand. Axis 0 of ``contexts`` is the block axis and its last axis the
    context dimension d: (B, d) gives (B, K), one context per trajectory;
    (B, C, d) gives (B, C, K), C contexts evaluated under each trajectory's
    statistics, entry (b, c) equal to the (B, d) call at ``contexts[:, c]``
    bit for bit. A block of one broadcasts over axis 0, so it evaluates any
    number of contexts. The context-free MAB kinds return a read-only
    broadcast of their (B, K) rows.

    ``fold(x, arm, prob, y, flat=None)`` folds one observed round per
    trajectory: contexts (B, d), then arms, realized propensities and outcomes
    (B,). ``flat`` is ``row_offsets(B, K) + arm``, computed when not given.
    Each fold checks the row counts and the arm range before it changes
    anything.
    """

    __slots__ = ("num_arms", "block", "t", "stats", "distribution", "fold")

    def __init__(self, num_arms: int, block: int):
        self.num_arms, self.block, self.t = num_arms, block, 0


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
    """The (B * K, ...) view of a C-contiguous (B, K, ...) array."""
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
    2e-12 of 1 for up to 16 equal arms. A lone arm is best with probability
    1. One (K,) pair gives one (K,) row.
    """
    means = np.asarray(post_means, dtype=float)
    variances = np.asarray(post_vars, dtype=float)
    if means.ndim == 1:
        return ts_optimal_prob(means[None], variances[None])[0]
    if np.logical_or.reduce(variances <= 0, axis=None):
        raise ValueError("posterior variances must be positive")
    if means.shape[1] == 1:
        return np.ones(means.shape)
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


def _boltzmann(beta: np.ndarray, gamma: float, pi_min: float, contexts: np.ndarray) -> np.ndarray:
    scores = _apply(beta, contexts) / gamma
    scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    expd = np.exp(scores)
    return _clip(expd / np.add.reduce(expd, axis=-1, keepdims=True), pi_min)


def _linucb(gram_inv: np.ndarray, beta: np.ndarray, alpha: float, table: np.ndarray,
            contexts: np.ndarray) -> np.ndarray:
    widths = np.sqrt(np.einsum("b...i,baij,b...j->b...a", contexts, gram_inv, contexts))
    index = _apply(beta, contexts) + alpha * widths
    return table.take(index.argmax(axis=-1), axis=0)


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


def _score_pieces(kind: str, target: ScoreTarget | None, num_arms: int, context_dim: int):
    """A target's score pieces, fixed for a block: its regressor rule, its c_a per
    arm (None when every c_a is 1), S, and the coefficient width d_theta.

    Checks that there is a target, and that a noisy_context target's Sigma_e is d x d.
    """
    if target is None:
        raise ValueError(f"{kind} requires a ScoreTarget")
    if target.family == "noisy_context":
        check_covariance(target.sigma_e, "sigma_e", dim=context_dim)
    scale = target.target_policy.vector(num_arms) if target.family == "ope" else None
    return target.regressors, scale, target.shift, target.theta_dim(context_dim)


# --- policy kinds -------------------------------------------------------------
# Each kind's function allocates the statistics of ``policy`` (whose num_arms
# and block are set; its closures read t as the rounds pass) and returns
# (stats, distribution, update): the statistics by name, the distribution at
# (B, d) or (B, C, d) contexts, and the kind's fold of one transition per row
# given flat indices b * K + arm (None when it keeps no statistics). Its
# closures hold what no round changes: flat views, tables, prior terms and the
# target's score pieces.


def _random(config: PolicyConfig, policy: Policy, context_dim: int, target):
    K = policy.num_arms

    def distribution(contexts):
        return np.full(contexts.shape[:-1] + (K,), 1.0 / K)

    return {}, distribution, None


def _mab(config: PolicyConfig, policy: Policy, context_dim: int, target):
    """The context-free multi-armed bandit kinds: pulls, outcome sums and means per arm."""
    K, B = policy.num_arms, policy.block
    counts = np.zeros((B, K), dtype=np.int64)
    sums = np.zeros((B, K))
    means = np.zeros((B, K))  # sums / counts, zero before the first pull
    if config.kind == "eps_greedy_mab":
        table = _greedy_table(K, config.epsilon_for(K) / K, None)

        def rows():
            return table.take(means.argmax(axis=1), axis=0)
    elif config.kind == "ucb_mab":
        forced, table = _greedy_table(K, 0.0, None), _greedy_table(K, config.pi_min, None)

        def rows():
            t = policy.t
            if t < K:  # forced initialization: rounds 1..K pull each arm once
                return forced.take(np.full(B, t), axis=0)
            radius = 2.0 * math.log(t + 1)  # squared radius 2 log t at round t
            index = np.where(counts > 0, means + np.sqrt(radius / np.maximum(counts, 1)), np.inf)
            return table.take(index.argmax(axis=1), axis=0)
    else:
        mu0, s0, s2 = config.ts_prior
        prior_precision, prior_mean, pi_min = 1.0 / s0, mu0 / s0, config.pi_min

        def rows():
            post_var = 1.0 / (prior_precision + counts / s2)
            post_mean = post_var * (prior_mean + counts * means / s2)
            return _clip_rows(ts_optimal_prob(post_mean, post_var), pi_min)

    def distribution(contexts):
        probs, shape = rows(), contexts.shape[:-1] + (K,)
        return probs if probs.shape == shape else np.broadcast_to(_per_row(probs, contexts), shape)

    def update(flat, x, arm, prob, y):
        pulls = counts.take(flat) + 1
        counts.put(flat, pulls)
        total = sums.take(flat) + y
        sums.put(flat, total)
        means.put(flat, total / pulls)  # the pulled entries of sums / counts

    return {"counts": counts, "sums": sums, "means": means}, distribution, update


def _ridge(config: PolicyConfig, policy: Policy, context_dim: int, target):
    """boltzmann_ridge and linucb: per-arm ridge fits, and LinUCB's Gram inverses."""
    K, B, d, lam = policy.num_arms, policy.block, context_dim, config.ridge_lambda
    stats = {"ridge_gram": np.tile(lam * np.eye(d), (B, K, 1, 1)),  # lambda*I + sum x x'
             "ridge_moment": np.zeros((B, K, d)),                   # sum x y
             "ridge_beta": np.zeros((B, K, d))}
    grams, moments, betas = (_by_row(stats[name])
                             for name in ("ridge_gram", "ridge_moment", "ridge_beta"))
    if config.kind == "linucb":
        stats["ridge_gram_inv"] = np.tile(np.eye(d) / lam, (B, K, 1, 1))  # confidence widths
        inverses = _by_row(stats["ridge_gram_inv"])
        distribution = partial(_linucb, stats["ridge_gram_inv"], stats["ridge_beta"],
                               config.linucb_alpha, _greedy_table(K, config.pi_min, None))
    else:
        inverses = None
        distribution = partial(_boltzmann, stats["ridge_beta"], config.gamma, config.pi_min)

    def update(flat, x, arm, prob, y):
        gram = grams.take(flat, axis=0) + x[:, :, None] * x[:, None, :]
        moment = moments.take(flat, axis=0) + x * y[:, None]
        grams[flat] = gram
        moments[flat] = moment
        if inverses is not None:
            inverses[flat] = _inv_small(gram)
        betas[flat] = _solve_small(gram, moment)

    return stats, distribution, update


def _sgd(config: PolicyConfig, policy: Policy, context_dim: int, target):
    """boltzmann_sgd: per-arm coefficients, one SGD step on the pulled arm's score a round."""
    regressors, scale, shift, width = _score_pieces(config.kind, target, policy.num_arms,
                                                    context_dim)
    beta_all = np.zeros((policy.block, policy.num_arms, width))
    clip_counts = np.zeros(policy.block, dtype=np.int64)
    betas = _by_row(beta_all)
    gamma, pi_min = config.gamma, config.pi_min

    def distribution(contexts):
        return _boltzmann(beta_all, gamma, pi_min, regressors(contexts))

    def update(flat, x, arm, prob, y):
        rate = 0.5 * policy.t ** (-2.0 / 3.0)  # sum eta_t = inf, sum eta_t^2 < inf
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

    return {"sgd_beta": beta_all, "sgd_clip_count": clip_counts}, distribution, update


def _ipwz(config: PolicyConfig, policy: Policy, context_dim: int, target):
    """Uniform until every arm's estimate is ready, then clipped eps-greedy on them.

    It keeps incremental inverse-propensity-weighted sufficient statistics; in
    the score's terms (estimator module docstring), z = regressors(x).
    """
    K, B = policy.num_arms, policy.block
    regressors, scale, shift, width = _score_pieces(config.kind, target, K, context_dim)
    stats = {"counts": np.zeros((B, K), dtype=np.int64),      # pulls per arm
             "ipw_weight": np.zeros((B, K)),                  # sum of weights
             "ipw_gram": np.zeros((B, K, width, width)),      # sum w z z'
             "ipw_moment": np.zeros((B, K, width)),           # sum w z c_a y
             "ipw_theta": np.zeros((B, K, width)),            # current estimates
             "ipw_ok": np.zeros((B, K), dtype=bool),          # per-arm solve succeeded
             "ipw_ready": np.zeros(B, dtype=bool)}            # every arm's estimate is usable
    counts, weights, solved_ok, ready, theta_all = (
        stats[name] for name in ("counts", "ipw_weight", "ipw_ok", "ipw_ready", "ipw_theta"))
    grams, moments, thetas = (_by_row(stats[name])
                              for name in ("ipw_gram", "ipw_moment", "ipw_theta"))
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
        ready[:] = (np.logical_and.reduce(counts >= width, axis=1)
                    & np.logical_and.reduce(solved_ok, axis=1))

    return stats, distribution, update


_KINDS = {
    "random": _random,
    "eps_greedy_mab": _mab, "ucb_mab": _mab, "ts_mab": _mab,
    "boltzmann_ridge": _ridge, "linucb": _ridge,
    "boltzmann_sgd": _sgd,
    "ipwz_greedy": _ipwz,
}


def new_policy(config: PolicyConfig, num_arms: int, context_dim: int,
               target: ScoreTarget | None = None, block: int = 1) -> Policy:
    """A fresh ``Policy`` of ``config``'s kind for ``block`` trajectories in lockstep.

    Validates the K-dependent config constraints, and that a noisy_context
    target's Sigma_e is d x d for the kinds that hold the target.
    """
    _check_floor(num_arms, config.pi_min)
    policy = Policy(num_arms, block)
    stats, policy.distribution, update = _KINDS[config.kind](config, policy, context_dim, target)
    stats.setdefault("sgd_clip_count", np.zeros(block, dtype=np.int64))
    stats.setdefault("ipw_ready", np.zeros(block, dtype=bool))
    policy.stats = MappingProxyType(stats)
    offsets = row_offsets(block, num_arms)

    def fold(x, arm, prob, y, flat=None):
        if not len(x) == len(arm) == len(prob) == len(y) == block:
            raise ValueError(
                f"a block of {block} needs one transition row per trajectory, got contexts "
                f"{len(x)}, arms {len(arm)}, propensities {len(prob)}, outcomes {len(y)}")
        arm_list = arm.tolist()  # Python's min/max beat two numpy reductions on small blocks
        if min(arm_list) < 0 or max(arm_list) >= num_arms:
            raise ValueError(f"arms {arm_list} out of range for K={num_arms}")
        policy.t += 1
        if update is not None:
            update(offsets + arm if flat is None else flat, x, arm, prob, y)

    policy.fold = fold
    return policy
