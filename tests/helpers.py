"""Independent test oracles shared across the suite.

These deliberately avoid the code paths they check: the simplex projection
is solved by exhaustive active-set enumeration (an exact brute-force QP for
small K), scores are recomputed from their definitions, and the martingale
check draws fresh rounds against a frozen policy. ``reference_cadr_loop``
is CADR as its definition reads: a loop over steps that replays the behavior
policy (one ``new_policy``, its ``distribution`` and ``fold`` each step) and
rescans every past row. ``reference_write_log_csv`` is the log
writer as a ``csv.writer`` loop, one row at a time: the byte oracle for the
chunked writer. ``reference_clip_simplex`` is the simplex projection as first
written, with a row-wise feasibility mask: the bit oracle for the faster one.
``reference_ts_entry`` is one Thompson-sampling probability by SciPy's
adaptive quadrature in absolute units: the oracle for the fixed numpy rule.
``reference_ts_quadrature`` is that rule as first written, evaluating every
piece's CDFs, collapsed pieces included: the bit oracle for the one that
skips them. ``reference_greedy_rows`` builds greedy distributions as first
written, a fill and a scatter per call: the bit oracle for the cached table.
``reference_estimate_report`` is the per-arm solve, sandwich and intervals as
first written, gathering the arm's rows by boolean mask and building and
checking the design once for the solve and again for the sandwich: the bit
oracle for the one-pass ``estimate_report``.
``assert_logs_equal`` compares every field of two logs, so no field can be
left out of a comparison. ``run_block_digest`` is the SHA-256 of everything a
lockstep block leaves behind (logs, the final ``Policy.stats`` and ``t``,
probe table), so a rewrite of the round can be checked against the bits of
an earlier version. The single-draw helpers (``sample_round``,
``select_action``, ``one_round``) exist only for tests; the package itself
draws rounds and actions in batches.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import math
from typing import NamedTuple

import numpy as np

from banditlab.env import EnvironmentSpec, sample_rounds
from banditlab.estimator import (
    BanditLog,
    NoDataForArm,
    ScoreTarget,
    TargetPolicy,
    _solve,
    normal_equations,
    scores,
)
from banditlab.harness import CADR_BURN_IN, CADR_VARIANCE_FLOOR, CadrResult, _run_block
from banditlab.inference import EstimateReport, confidence_intervals, two_sided_z
from banditlab.policy import (
    _TS_NODES,
    InfeasibleClipError,
    Policy,
    PolicyConfig,
    _leggauss,
    new_policy,
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


def select_action(policy: Policy, context: np.ndarray,
                  rng: np.random.Generator) -> tuple[int, float, np.ndarray]:
    """Sample an arm for a block-of-one policy: (arm, realized probability, distribution)."""
    probs = policy.distribution(context[None])[0]
    arm = int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))
    arm = min(arm, policy.num_arms - 1)
    return arm, float(probs[arm]), probs


def one_round(context, arm: int, prob: float, outcome: float) -> tuple:
    """One observed round as the ``fold`` arguments of a block of one: (x, arm, prob, y)."""
    return (np.asarray(context, dtype=float)[None], np.array([arm]),
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

    Freezes the policy after a warmup trajectory, then draws fresh
    (X, A ~ pi_t, Y(arm)) triples and evaluates w * g at the true parameter;
    under the martingale property each coordinate's mean is 0.
    """
    _, frozen, _ = _run_block(env, policy, target, warmup, seed, [()])
    batch = sample_rounds(env, stream(seed, 101), n_draws)
    dists = frozen.distribution(batch.contexts)
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


def family_target(family: str, d: int, sigma_e_scale: float = 0.5) -> ScoreTarget:
    """A target of ``family`` on d-dimensional contexts: Sigma_e = ``sigma_e_scale`` * I for
    noisy_context, the uniform target policy for ope."""
    if family == "noisy_context":
        return ScoreTarget(family=family, sigma_e=sigma_e_scale * np.eye(d))
    if family == "ope":
        return ScoreTarget(family=family, target_policy=TargetPolicy(kind="uniform"))
    return ScoreTarget(family=family)


def synthetic_log(env: EnvironmentSpec, horizon: int, seed: int, drawn: bool = True,
                  skip_last_arm: bool = False) -> BanditLog:
    """Rounds of ``env`` with arms drawn uniformly and, if ``drawn``, propensities
    drawn from [0.05, 1) (else 1/K): any positive propensities make a valid log
    for the estimator. ``skip_last_arm`` leaves arm K - 1 unpulled."""
    rng = stream(seed, 7)
    rounds = sample_rounds(env, rng, horizon)
    K = env.num_arms
    arms = rng.integers(0, K - 1 if skip_last_arm else K, size=horizon)
    pis = rng.uniform(0.05, 1.0, size=horizon) if drawn else np.full(horizon, 1.0 / K)
    return BanditLog(contexts=rounds.contexts, arms=arms, propensities=pis,
                     outcomes=rounds.potentials[np.arange(horizon), arms], num_arms=K,
                     latents=rounds.latents)


def ipwz_residual(log: BanditLog, target: ScoreTarget, arm: int,
                  theta: np.ndarray) -> np.ndarray:
    """(1/T) sum_t (1{A_t = arm} / pi_t) g(X_t, Y_t; theta): the estimating equation at theta."""
    mask = log.arms == arm
    w = 1.0 / log.propensities[mask]
    g = score_batch(target, arm, log.contexts[mask], log.outcomes[mask], theta, log.num_arms)
    return (w[:, None] * g).sum(axis=0) / log.horizon


def reference_cadr_loop(log: BanditLog, target_policy: TargetPolicy, regression: str = "zero",
                        levels=(0.95,), *, behavior_policy: PolicyConfig,
                        behavior_target: ScoreTarget | None = None) -> CadrResult:
    """CADR by a plain O(T^2) loop over steps, the oracle for ``harness.cadr_ope``.

    Per step t it refits the outcome regression on rows < t, recomputes the
    doubly-robust scores D'_{t,s} of every past row, evaluates the replayed
    round-t policy at the log's distinct contexts for the stabilization
    weights g_t(A_s|X_s)/g_s(A_s|X_s), and takes the step's variance from two
    dot products over those rows.
    """
    T, K, d = log.horizon, log.num_arms, log.context_dim
    X, A, Y, pi = log.contexts, log.arms, log.outcomes, log.propensities
    gstar_vec = target_policy.vector(K)
    gstar_realized = gstar_vec[A]
    ratio_star = gstar_realized / pi  # g*(A_s|X_s) / g_s(A_s|X_s)

    replay = new_policy(behavior_policy, K, d, target=behavior_target)
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

        if t < CADR_BURN_IN:
            sigma_t = 1.0
        else:
            g_t = replay.distribution(uniq_X)
            wts = g_t[uniq_inv[:t], A[:t]] / pi[:t]
            m1 = float(wts @ dprime[:t]) / t
            m2 = float(wts @ (dprime[:t] ** 2)) / t
            var_t = m2 - m1 * m1
            if var_t < CADR_VARIANCE_FLOOR:
                var_t = CADR_VARIANCE_FLOOR
                floored += 1
            sigma_t = math.sqrt(var_t)
        inv_sigma[t] = 1.0 / sigma_t
        own_scores[t] = dprime[t] / sigma_t

        if regression == "online_linear":
            a = A[t]
            reg_gram[a] += np.outer(X[t], X[t])
            reg_moment[a] += X[t] * Y[t]
            reg_beta[a] = np.linalg.solve(reg_gram[a], reg_moment[a])
        replay.fold(X[t:t + 1], A[t:t + 1], pi[t:t + 1], Y[t:t + 1])

    gamma = 1.0 / float(inv_sigma.mean())
    psi = gamma * float(own_scores.mean())
    cis = {}
    for level in levels:
        half = two_sided_z(float(level)) * gamma / math.sqrt(T)
        cis[float(level)] = (psi - half, psi + half)
    return CadrResult(value=psi, gamma=gamma, cis=cis, floored=floored)


def assert_logs_equal(a: BanditLog, b: BanditLog, what: str = "") -> None:
    """Every field of ``BanditLog`` is equal in ``a`` and ``b``: arrays bit for bit, with dtype."""
    for f in dataclasses.fields(BanditLog):
        x, y = getattr(a, f.name), getattr(b, f.name)
        where = f"{what}: {f.name}" if what else f.name
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            assert isinstance(x, np.ndarray) and isinstance(y, np.ndarray), where
            np.testing.assert_array_equal(x, y, err_msg=where)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), where
        else:
            assert x == y, where


# Every name a policy's ``stats`` may hold, in the order ``run_block_digest``
# hashes them: the fields of the per-block state record the pinned digests
# were taken from, in that record's order.
STATS_ORDER = ("counts", "sums", "means", "ridge_gram", "ridge_moment", "ridge_beta",
               "ridge_gram_inv", "sgd_beta", "sgd_clip_count", "ipw_weight", "ipw_gram",
               "ipw_moment", "ipw_theta", "ipw_ok", "ipw_ready")


def run_block_digest(logs, policy: Policy, table) -> str:
    """SHA-256 of ``_run_block``'s logs, every statistic of its final policy, and its table.

    Each array enters with its name, dtype and shape, so no two layouts collide.
    """
    digest = hashlib.sha256()

    def add(name, array):
        if array is not None:
            array = np.ascontiguousarray(array)
            digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
            digest.update(array.tobytes())

    for b, log in enumerate(logs):
        for f in dataclasses.fields(BanditLog):
            if isinstance(getattr(log, f.name), np.ndarray):
                add(f"log{b}.{f.name}", getattr(log, f.name))
    assert set(policy.stats) <= set(STATS_ORDER), sorted(policy.stats)
    for name in STATS_ORDER:
        add(f"state.{name}", policy.stats.get(name))
    digest.update(f"state.t:{policy.t}".encode())
    add("table", table)
    return digest.hexdigest()


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


def reference_clip_simplex(P: np.ndarray, pi_min: float) -> np.ndarray:
    """Row-wise L2 projection onto {p : sum p = 1, p >= pi_min}.

    Each row's projection is max(p - nu, pi_min) where nu is the unique root of
    q(nu) = sum_a max(p_a - nu, pi_min) = 1; q is piecewise linear in nu, so
    the root is found exactly by sorting, with no iteration. One (K,) row
    gives one (K,) row.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim == 1:
        return reference_clip_simplex(P[None], pi_min)[0]
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


def reference_ts_entry(a: int, means: np.ndarray, sds: np.ndarray) -> float:
    """P(arm a is best) under independent normal posteriors, by SciPy's adaptive ``quad``.

    One entry of one (K,) row, integrated in absolute u with breakpoints at
    each other arm's mean and mean +- 8 sd; accurate to about 1e-9.
    """
    from scipy.integrate import quad
    from scipy.special import ndtr

    others = [i for i in range(means.shape[0]) if i != a]

    def integrand(u):
        dens = math.exp(-0.5 * ((u - means[a]) / sds[a]) ** 2) / (sds[a] * math.sqrt(2 * math.pi))
        for i in others:
            dens *= ndtr((u - means[i]) / sds[i])
        return dens

    lo, hi = means[a] - 12 * sds[a], means[a] + 12 * sds[a]
    # Each other arm's CDF climbs within +-8 sd of its mean: give the climb its own pieces.
    edges = [m + k * sd for m, sd in zip(means[others], sds[others]) for k in (-8, 0, 8)]
    breaks = sorted({e for e in edges if lo < e < hi})
    val, _ = quad(integrand, lo, hi, points=breaks or None, limit=200, epsabs=1e-9)
    return val


def reference_ts_quadrature(means: np.ndarray, sds: np.ndarray) -> np.ndarray:
    """(B, K) P(arm a is best) by the composite Gauss-Legendre rule, erfc on every piece."""
    K = means.shape[1]
    others = np.array([[j for j in range(K) if j != a] for a in range(K)])
    nodes, weights = _leggauss(_TS_NODES)
    cuts = (means[:, None, :, None] - means[:, :, None, None]
            + sds[:, None, :, None] * np.array([-8.0, 0.0, 8.0])) / sds[:, :, None, None]
    cuts = np.sort(np.clip(cuts.reshape(means.shape + (3 * K,)), -8.0, 8.0), axis=-1)
    half = 0.5 * np.diff(cuts, axis=-1)
    z = (cuts[..., :-1] + half)[..., None] + half[..., None] * nodes
    x = (((means[:, :, None] - means[:, others])[:, :, None, None]
          + sds[:, :, None, None, None] * z[..., None]) / sds[:, others][:, :, None, None])
    cdfs = 0.5 * np.frompyfunc(math.erfc, 1, 1)(x * -math.sqrt(0.5)).astype(float)
    dens = np.exp(-0.5 * z * z) * (half[..., None] * weights / math.sqrt(2.0 * math.pi))
    return (dens * cdfs.prod(axis=-1)).sum(axis=(-2, -1))


def reference_greedy_rows(best: np.ndarray, num_arms: int, explore_each: float) -> np.ndarray:
    """``explore_each`` on every arm but ``best``, the rest on ``best``: fill, then scatter."""
    out = np.full(best.shape + (num_arms,), explore_each)
    out.reshape(-1)[np.arange(best.size) * num_arms + best.reshape(-1)] = \
        1.0 - (num_arms - 1) * explore_each
    return out


def _reference_arm_rows(log: BanditLog, arm: int):
    """(contexts, outcomes, inverse propensities) of the rounds that pulled ``arm``."""
    mask = log.arms == arm
    if not mask.any():
        raise NoDataForArm(arm)
    return log.contexts[mask], log.outcomes[mask], 1.0 / log.propensities[mask]


def _reference_ipwz_solve(log: BanditLog, target: ScoreTarget, arm: int, rows=None) -> np.ndarray:
    X, Y, w = _reference_arm_rows(log, arm) if rows is None else rows
    return _solve(normal_equations(target, arm, X, Y, w, log.num_arms, log.horizon))


def _reference_sandwich_variance(log: BanditLog, target: ScoreTarget, arm: int,
                                 theta_hat: np.ndarray, rows=None):
    theta = np.asarray(theta_hat, dtype=float).ravel()
    X, Y, w = _reference_arm_rows(log, arm) if rows is None else rows
    T = log.horizon
    gdot = normal_equations(target, arm, X, Y, w, log.num_arms, T).design
    gw = scores(target, arm, X, Y, theta, log.num_arms, w)
    imat = gw.T @ gw / T

    ginv = np.linalg.inv(gdot)
    sigma = ginv @ imat @ ginv.T
    sigma = (sigma + sigma.T) / 2.0
    neg = np.diag(sigma) < 0
    if neg.any():
        sigma[np.diag_indices_from(sigma)] = np.maximum(np.diag(sigma), 0.0)
    return sigma, gdot, imat


def reference_estimate_report(log: BanditLog, target: ScoreTarget, arm: int,
                              levels=(0.95,)) -> EstimateReport:
    """Solve, estimate variance and build intervals for one arm, the rows gathered by mask."""
    rows = _reference_arm_rows(log, arm)
    theta = _reference_ipwz_solve(log, target, arm, rows=rows)
    sigma, gdot, imat = _reference_sandwich_variance(log, target, arm, theta, rows=rows)
    cis = confidence_intervals(theta, sigma, log.horizon, levels)
    return EstimateReport(arm=arm, theta=theta, sigma=sigma, gdot=gdot,
                          imat=imat, cis=cis, horizon=log.horizon)
