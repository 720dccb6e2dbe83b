"""Generative bandit environments and ground-truth parameter oracles.

Each environment produces i.i.d. rounds of (observed context, optional latent
state, potential outcomes for every arm). Six named benchmarks are built in:

* ``nonconv_demo`` -- two arms with context-free mean rewards 1/2 and 1/12 on
  contexts uniform over {-4, 1}; the working linear model any ridge-based
  policy fits here is misspecified, which is what drives LinUCB into its
  bimodal, non-convergent regime.
* ``nc_hard1`` / ``nc_hard2`` -- one-dimensional noisy-context environments
  with latent states uniform over {0, -1}, a two-point conditional error
  table, and per-arm coefficients (3, 1) / (-3, -1).
* ``nc_gaussian`` -- jointly Gaussian latent states, measurement errors and
  coefficients.
* ``ms_polynomial`` / ``ms_neural`` -- direct context-to-outcome environments
  with polynomial and ReLU mean reward functions.

``support`` gives a finite-support environment's joint law as one ``Support``
of row-aligned arrays: the probabilities P(s, x), the latent states s (None
without noise) and the observed contexts x.

``oracle_target`` returns the ground-truth parameter for any score family,
using an exact enumeration path on finite-support environments and a brute
force Monte Carlo path (with a reported standard error) elsewhere.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimator import ScoreTarget, _sandwich, _solve, check_covariance, normal_equations, scores
from .rng import PURPOSE_ORACLE, PURPOSE_PARAMS, stream, whole_number

ENVIRONMENT_NAMES = (
    "nonconv_demo", "nc_hard1", "nc_hard2", "nc_gaussian", "ms_polynomial", "ms_neural",
)


class UnknownEnvironmentError(ValueError):
    pass


class InvalidParameterError(ValueError):
    """An override touched an undeclared key or carried an invalid value."""

    def __init__(self, key: str, reason: str):
        self.key = key
        super().__init__(f"invalid parameter {key!r}: {reason}")


@dataclass(frozen=True)
class ContextLaw:
    """Marginal law of the primitive context draw (latent state if noisy)."""

    kind: str  # "finite" | "gaussian"
    points: np.ndarray | None = None   # (m, d) support, finite kind
    weights: np.ndarray | None = None  # (m,) probabilities, finite kind
    cov: np.ndarray | None = None      # (d, d), gaussian kind (mean zero)


@dataclass(frozen=True)
class NoiseLaw:
    """Conditional law of the observed context given the latent state."""

    kind: str  # "table" | "gaussian"
    # Table kind: row i says P(observed = values[i] | latent = given[i]) = probs[i].
    given: np.ndarray | None = None    # (n_rows, d)
    values: np.ndarray | None = None   # (n_rows, d)
    probs: np.ndarray | None = None    # (n_rows,)
    cov: np.ndarray | None = None      # (d, d), gaussian kind


@dataclass(frozen=True)
class RewardModel:
    """Mean reward y(x, a) (or y(s, a) through the latent state)."""

    kind: str  # "constant_per_arm" | "linear_latent" | "polynomial" | "relu_linear"
    params: np.ndarray  # constant: (K,); linear/relu: (K, d); polynomial: (K, degree)

    def mean_batch(self, contexts: np.ndarray, latents: np.ndarray | None) -> np.ndarray:
        """Mean rewards for every arm, shape (n, K)."""
        if self.kind == "constant_per_arm":
            return np.tile(self.params, (contexts.shape[0], 1))
        if self.kind == "linear_latent":
            return latents @ self.params.T
        if self.kind == "polynomial":
            x = contexts[:, 0]
            degree = self.params.shape[1]
            powers = np.vander(x, degree + 1, increasing=True)[:, 1:]  # x^1..x^degree
            return powers @ self.params.T
        if self.kind == "relu_linear":
            return np.maximum(contexts @ self.params.T, 0.0)
        raise ValueError(f"unknown reward kind {self.kind!r}")


@dataclass(frozen=True)
class EnvironmentSpec:
    """A fully resolved generative model; immutable and safe to share."""

    name: str
    num_arms: int
    context_dim: int
    context_law: ContextLaw
    noise_law: NoiseLaw | None
    reward: RewardModel
    reward_noise_sd: float
    true_params: np.ndarray | None = None  # (K, d) per-arm coefficients, when defined

    @property
    def has_latent(self) -> bool:
        return self.noise_law is not None


class RoundBatch(NamedTuple):
    contexts: np.ndarray            # (n, d)
    latents: np.ndarray | None      # (n, d) or None
    potentials: np.ndarray          # (n, K)


class Support(NamedTuple):
    """A finite-support environment's joint law of (latent, context), row by row."""

    probs: np.ndarray               # (n,) probability of each row
    latents: np.ndarray | None      # (n, d), or None without a latent state
    contexts: np.ndarray            # (n, d) observed contexts


class OracleResult(NamedTuple):
    theta: np.ndarray
    stderr: np.ndarray
    exact: bool


# --- validation helpers -------------------------------------------------------


def _check_cov(mat, key: str, dim: int) -> np.ndarray:
    try:
        return check_covariance(mat, key, dim)
    except ValueError as exc:
        raise InvalidParameterError(key, str(exc)) from exc


def _numbers(value, key: str, shape: tuple) -> np.ndarray:
    """``value`` as finite floats reshaped to ``shape`` (-1: any length); else an
    InvalidParameterError naming ``key``. Bools, strings, empty and ragged input fail."""
    try:
        leaves = np.asarray(value, dtype=object)
    except ValueError:  # too ragged for an object array
        leaves = np.array([None])
    if leaves.size == 0 or not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                                   and math.isfinite(v) for v in leaves.flat):
        raise InvalidParameterError(key, f"must be finite numbers, got {value!r}")
    try:
        return leaves.astype(float).reshape(shape)
    except ValueError:
        raise InvalidParameterError(key, f"expected shape {shape}, got {leaves.shape}") from None


def implied_sigma_e(env: EnvironmentSpec) -> np.ndarray | None:
    """Marginal second moment of the measurement error, if the env has one."""
    if env.noise_law is None:
        return None
    if env.noise_law.kind == "gaussian":
        return env.noise_law.cov
    sup = support(env)
    err = sup.contexts - sup.latents
    return (err * sup.probs[:, None]).T @ err


# --- builders -----------------------------------------------------------------


def _count(params: dict, key: str) -> int:
    """Integer parameter ``key``: a whole number of at least 1, never a bool or a fraction."""
    try:
        value = whole_number(params[key], key)
    except ValueError as exc:
        raise InvalidParameterError(key, str(exc)) from exc
    if value < 1:
        raise InvalidParameterError(key, "must be >= 1")
    return value


def _scale(params: dict, key: str) -> float:
    """Scale parameter ``key``: a finite, non-negative number, never a bool."""
    value = params[key]
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value < 0):
        raise InvalidParameterError(
            key, f"{key} must be a finite, non-negative number, got {value!r}")
    return float(value)


def _take(params: dict, allowed: dict) -> dict:
    """Merge overrides into defaults, rejecting undeclared keys."""
    out = dict(allowed)
    for key, value in params.items():
        if key not in allowed:
            raise InvalidParameterError(key, f"not a declared parameter (declared: {sorted(allowed)})")
        out[key] = value
    return out


def _build_nonconv_demo(params: dict, rng: np.random.Generator) -> EnvironmentSpec:
    p = _take(params, {"sigma_eta": 1.0, "context_points": (-4.0, 1.0),
                       "context_weights": (0.5, 0.5), "arm_means": (0.5, 1.0 / 12.0)})
    points = _numbers(p["context_points"], "context_points", (-1, 1))
    weights = _numbers(p["context_weights"], "context_weights", (len(points),))
    if abs(weights.sum() - 1.0) > 1e-9 or np.any(weights < 0):
        raise InvalidParameterError("context_weights", "must be a probability vector")
    means = _numbers(p["arm_means"], "arm_means", (2,))
    return EnvironmentSpec(
        name="nonconv_demo", num_arms=2, context_dim=1,
        context_law=ContextLaw(kind="finite", points=points, weights=weights),
        noise_law=None,
        reward=RewardModel(kind="constant_per_arm", params=means),
        reward_noise_sd=_scale(p, "sigma_eta"),
    )


# The nc_hard conditional error table, in the JSON form a noise_table override takes.
_NC_HARD_TABLE = [
    {"given": [0.0], "value": [1.0], "prob": 2.0 / 3.0},
    {"given": [0.0], "value": [-2.0], "prob": 1.0 / 3.0},
    {"given": [-1.0], "value": [-2.0], "prob": 2.0 / 3.0},
    {"given": [-1.0], "value": [1.0], "prob": 1.0 / 3.0},
]


def parse_noise_table(rows, d: int) -> NoiseLaw:
    """Finite conditional table from its JSON form, a non-empty list of {given, value, prob}:
    each latent state's probabilities sum to one, and its errors value - given have mean zero."""
    if not (isinstance(rows, list) and rows and all(
            isinstance(row, dict) and row.keys() == {"given", "value", "prob"} for row in rows)):
        raise InvalidParameterError("noise_table", f"must be a non-empty list of "
                                    f"{{given, value, prob}} objects, got {rows!r}")
    given = _numbers([row["given"] for row in rows], "noise_table", (len(rows), d))
    values = _numbers([row["value"] for row in rows], "noise_table", (len(rows), d))
    probs = _numbers([row["prob"] for row in rows], "noise_table", (len(rows),))
    if np.any(probs < 0):
        raise InvalidParameterError("noise_table", "probabilities must be nonnegative")
    for g in distinct_rows(given):
        mask = np.all(given == g, axis=1)
        p = probs[mask]
        if abs(p.sum() - 1.0) > 1e-9:
            raise InvalidParameterError(
                "noise_table", f"probabilities for latent {g.tolist()} sum to {p.sum()}")
        drift = p @ (values[mask] - g)
        if np.max(np.abs(drift)) > 1e-9:
            raise InvalidParameterError(
                "noise_table",
                f"conditional error mean for latent {g.tolist()} is {drift.tolist()}, not zero")
    return NoiseLaw(kind="table", given=given, values=values, probs=probs)


def _build_nc_hard(theta: tuple, name: str):
    def build(params: dict, rng: np.random.Generator) -> EnvironmentSpec:
        p = _take(params, {"sigma_eta": 1.0, "theta": theta, "noise_table": None})
        th = _numbers(p["theta"], "theta", (2, 1))
        noise = parse_noise_table(
            _NC_HARD_TABLE if p["noise_table"] is None else p["noise_table"], d=1)
        points = np.array([[0.0], [-1.0]])
        given = distinct_rows(noise.given)
        if not np.array_equal(given, distinct_rows(points)):
            raise InvalidParameterError("noise_table", f"given states {given.ravel().tolist()} "
                                        "are not the latent states [0.0, -1.0]")
        return EnvironmentSpec(
            name=name, num_arms=2, context_dim=1,
            context_law=ContextLaw(kind="finite", points=points, weights=np.array([0.5, 0.5])),
            noise_law=noise,
            reward=RewardModel(kind="linear_latent", params=th),
            reward_noise_sd=_scale(p, "sigma_eta"),
            true_params=th,
        )
    return build


def _build_nc_gaussian(params: dict, rng: np.random.Generator) -> EnvironmentSpec:
    p = _take(params, {"d": 2, "num_arms": 2, "sigma_eta": 1.0,
                       "sigma_s": None, "sigma_e": None, "sigma_theta": None,
                       "theta": None})
    d = _count(p, "d")
    K = _count(p, "num_arms")
    sigma_s, sigma_e, sigma_th = (_check_cov(np.eye(d) if p[key] is None else p[key], key, d)
                                  for key in ("sigma_s", "sigma_e", "sigma_theta"))
    if p["theta"] is not None:
        theta = _numbers(p["theta"], "theta", (K, d))
    else:
        theta = rng.standard_normal((K, d)) @ np.linalg.cholesky(
            sigma_th + 1e-12 * np.eye(d)).T
    return EnvironmentSpec(
        name="nc_gaussian", num_arms=K, context_dim=d,
        context_law=ContextLaw(kind="gaussian", cov=sigma_s),
        noise_law=NoiseLaw(kind="gaussian", cov=sigma_e),
        reward=RewardModel(kind="linear_latent", params=theta),
        reward_noise_sd=_scale(p, "sigma_eta"),
        true_params=theta,
    )


def _build_ms(name: str, kind: str):
    """Direct context-to-outcome builder for reward ``kind``: ``polynomial`` coefficients
    (K, degree), or ``relu_linear`` slopes (K, 1), which alone are also ``true_params``."""
    def build(params: dict, rng: np.random.Generator) -> EnvironmentSpec:
        declared = {"num_arms": 2, "sigma_eta": 1.0, "sigma_x": 1.0, "sigma_theta": 1.0,
                    "theta": None}
        p = _take(params, {"degree": 3, **declared} if kind == "polynomial" else declared)
        width = _count(p, "degree") if kind == "polynomial" else 1
        K = _count(p, "num_arms")
        sigma_theta = _scale(p, "sigma_theta")
        if p["theta"] is not None:
            theta = _numbers(p["theta"], "theta", (K, width))
        else:
            theta = np.sqrt(sigma_theta) * rng.standard_normal((K, width))
        return EnvironmentSpec(
            name=name, num_arms=K, context_dim=1,
            context_law=ContextLaw(kind="gaussian", cov=np.array([[_scale(p, "sigma_x")]])),
            noise_law=None,
            reward=RewardModel(kind=kind, params=theta),
            reward_noise_sd=_scale(p, "sigma_eta"),
            true_params=None if kind == "polynomial" else theta,
        )
    return build


_BUILDERS = {
    "nonconv_demo": _build_nonconv_demo,
    "nc_hard1": _build_nc_hard((3.0, 1.0), "nc_hard1"),
    "nc_hard2": _build_nc_hard((-3.0, -1.0), "nc_hard2"),
    "nc_gaussian": _build_nc_gaussian,
    "ms_polynomial": _build_ms("ms_polynomial", "polynomial"),
    "ms_neural": _build_ms("ms_neural", "relu_linear"),
}


def build_environment(name: str, params: dict | None = None, seed: int = 0) -> EnvironmentSpec:
    """Resolve a named environment; randomly drawn parameters depend only on ``seed``."""
    if not isinstance(name, str) or name not in _BUILDERS:
        raise UnknownEnvironmentError(
            f"unknown environment {name!r} in env.name; expected one of {ENVIRONMENT_NAMES}")
    if params is not None and not isinstance(params, dict):
        raise InvalidParameterError("env.params", f"must be an object of overrides, got {params!r}")
    seed = whole_number(seed, "env.seed")
    if seed < 0:
        raise ValueError(f"env.seed must be >= 0, got {seed}")
    rng = stream(seed, PURPOSE_PARAMS)
    return _BUILDERS[name]({} if params is None else params, rng)


# --- sampling -----------------------------------------------------------------


def sample_rounds(env: EnvironmentSpec, rng: np.random.Generator, n: int) -> RoundBatch:
    """Draw ``n`` i.i.d. rounds. Stream consumption order: base, noise, reward."""
    law = env.context_law
    d = env.context_dim
    if law.kind == "finite":
        idx = rng.choice(law.points.shape[0], size=n, p=law.weights)
        base = law.points[idx]
    else:
        chol = np.linalg.cholesky(law.cov + 1e-15 * np.eye(d))
        base = rng.standard_normal((n, d)) @ chol.T

    if env.noise_law is None:
        latents, contexts = None, base
    elif env.noise_law.kind == "gaussian":
        chol = np.linalg.cholesky(env.noise_law.cov + 1e-15 * np.eye(d))
        latents = base
        contexts = base + rng.standard_normal((n, d)) @ chol.T
    else:
        latents = base
        contexts = np.empty_like(base)
        noise = env.noise_law
        for g in distinct_rows(noise.given):
            rows = np.all(noise.given == g, axis=1)
            at = np.all(latents == g, axis=1)
            if not at.any():
                continue
            pick = rng.choice(int(rows.sum()), size=int(at.sum()), p=noise.probs[rows])
            contexts[at] = noise.values[rows][pick]

    means = env.reward.mean_batch(contexts, latents)
    if env.reward_noise_sd > 0:
        # One reward-noise draw per round, shared across potential outcomes.
        means = means + env.reward_noise_sd * rng.standard_normal(n)[:, None]
    return RoundBatch(contexts=contexts, latents=latents, potentials=means)


def support(env: EnvironmentSpec) -> Support | None:
    """The joint finite support, or None if continuous: one row per context-law point, or
    per (point, noise-table row) in that order, with the product of their probabilities."""
    law, noise = env.context_law, env.noise_law
    if law.kind != "finite":
        return None
    if noise is None:
        return Support(law.weights, None, law.points)
    if noise.kind != "table":
        return None
    point, row = np.nonzero(np.all(law.points[:, None, :] == noise.given[None, :, :], axis=2))
    return Support(law.weights[point] * noise.probs[row], law.points[point], noise.values[row])


def distinct_rows(X: np.ndarray, return_inverse: bool = False):
    """The distinct rows of a 2-d array X, in ``numpy.unique(X, axis=0)`` order.

    With ``return_inverse``, also each row's index among them. One lexsort
    (first column as primary key) and a mask of rows that differ from their
    predecessor do the work, without ``numpy.unique``, whose first call in a
    process imports ``numpy.ma`` (several milliseconds).
    """
    order = np.lexsort(X.T[::-1])
    ordered = X[order]
    new = np.empty(len(X), dtype=bool)
    new[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=new[1:])
    if not return_inverse:
        return ordered[new]
    inverse = np.empty(len(X), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], inverse


# --- ground-truth oracles -----------------------------------------------------


def _enumerate_oracle(env: EnvironmentSpec, target: ScoreTarget, arm: int) -> np.ndarray:
    """Exact target parameter on finite-support environments.

    The normal equations are weighted by the support probabilities, with each
    point's mean reward as its outcome: reward noise has mean zero given
    (latent, context), so it drops out of every moment the score uses.
    """
    sup = support(env)
    means = env.reward.mean_batch(sup.contexts, sup.latents)[:, arm]
    return _solve(normal_equations(target, arm, sup.contexts, means, sup.probs, env.num_arms, 1.0))


def _mc_oracle(env: EnvironmentSpec, target: ScoreTarget, arm: int,
               n_oracle: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force oracle over fresh i.i.d. draws, with a delta-method stderr."""
    batch = sample_rounds(env, stream(seed, PURPOSE_ORACLE), n_oracle)
    X = batch.contexts
    Y = batch.potentials[:, arm]
    rows = normal_equations(target, arm, X, Y, None, env.num_arms, n_oracle)
    theta = _solve(rows)
    g = scores(target, arm, X, Y, theta, env.num_arms)
    cov_g = np.cov(g, rowvar=False).reshape(theta.size, theta.size)
    return theta, np.sqrt(np.diag(_sandwich(rows.design, cov_g)) / n_oracle)


def _gaussian_moment(variance: float, k: int) -> float:
    """k-th central moment of N(0, variance): 0 for odd k, sigma^k (k-1)!! even."""
    if k % 2 == 1:
        return 0.0
    out = 1.0
    for j in range(k - 1, 0, -2):
        out *= j
    return out * variance ** (k // 2)


def _closed_form_oracle(env: EnvironmentSpec, target: ScoreTarget, arm: int):
    """Exact target parameters for the Gaussian-context environments, or None."""
    law = env.context_law
    if law.kind != "gaussian":
        return None
    kind = env.reward.kind

    if target.family == "ope":
        pe = target.target_policy.vector(env.num_arms)[arm]
        if kind == "linear_latent":
            mean_y = 0.0  # latent states are mean zero
        elif kind == "polynomial":
            var = law.cov[0, 0]
            mean_y = sum(c * _gaussian_moment(var, j + 1)
                         for j, c in enumerate(env.reward.params[arm]))
        elif kind == "relu_linear":
            theta = env.reward.params[arm]
            sd_z = math.sqrt(float(theta @ law.cov @ theta))
            mean_y = sd_z / math.sqrt(2.0 * math.pi)
        else:
            return None
        return np.array([pe * mean_y])

    if target.family == "misspec_linear":
        if kind == "linear_latent":
            if env.noise_law is None or env.noise_law.kind != "gaussian":
                return None
            sigma_x = law.cov + env.noise_law.cov
            return np.linalg.solve(sigma_x, law.cov @ env.reward.params[arm])
        if kind == "polynomial":
            var = law.cov[0, 0]
            num = sum(c * _gaussian_moment(var, j + 2)
                      for j, c in enumerate(env.reward.params[arm]))
            return np.array([num / var])
        if kind == "relu_linear":
            # E[x relu(theta'x)] = Sigma theta / 2 for centered Gaussian x.
            return env.reward.params[arm] / 2.0
    return None


def oracle_target(env: EnvironmentSpec, target: ScoreTarget, arm: int,
                  n_oracle: int = 1_000_000, seed: int = 0,
                  method: str = "auto") -> OracleResult:
    """Ground-truth parameter for (environment, family, arm).

    ``auto`` prefers an exact path: enumeration on finite-support
    environments, the true generating coefficient for the measurement-error
    family when the target's Sigma_e matches the environment's, and closed
    forms for the Gaussian benchmarks; it falls back to brute-force Monte
    Carlo over ``n_oracle`` fresh draws. ``method='mc'`` forces Monte Carlo.
    """
    if method not in ("auto", "mc"):
        raise ValueError(f"unknown oracle method {method!r}")
    if method == "auto":
        if support(env) is not None:
            theta = _enumerate_oracle(env, target, arm)
            return OracleResult(theta=theta, stderr=np.zeros_like(theta), exact=True)
        if (target.family == "noisy_context" and env.reward.kind == "linear_latent"
                and env.true_params is not None):
            implied = implied_sigma_e(env)
            if implied is not None and np.allclose(implied, target.sigma_e, atol=1e-12):
                theta = env.true_params[arm].astype(float).copy()
                return OracleResult(theta=theta, stderr=np.zeros_like(theta), exact=True)
        closed = _closed_form_oracle(env, target, arm)
        if closed is not None:
            return OracleResult(theta=closed, stderr=np.zeros_like(closed), exact=True)
    theta, stderr = _mc_oracle(env, target, arm, n_oracle, seed)
    return OracleResult(theta=theta, stderr=stderr, exact=False)
