"""Post-experiment inference: sandwich variances and confidence intervals.

The asymptotic variance of the per-arm weighted Z-estimator has the sandwich
form Gdot^-1 I Gdot^-T, estimated by plugging the fitted theta into

    Gdot = (1/T) sum_t w_t  grad_g(X_t, Y_t; theta_hat)
    I    = (1/T) sum_t w_t^2 g g' (X_t, Y_t; theta_hat)

with w_t = 1{A_t = a} / pi_t. Every family's score is linear in theta,
g = z (c_a y) - (z z' - S) theta (the table of z, c_a and S is in the
``estimator`` module docstring), so its gradient is the constant -(z z' - S)
and Gdot is the design of ``estimator.normal_equations``, coded directly
rather than differentiated numerically; a finite-difference guard lives in
the test suite.

``estimate_report`` makes one pass per arm: ``estimator.arm_rows`` gathers the
arm's rows once and builds and checks their design once, and both the solve
and the sandwich's Gdot use them.

Confidence intervals take their normal quantile from the standard library's
``statistics.NormalDist``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .estimator import (
    ArmRows,
    AuxiliaryData,
    BanditLog,
    ScoreTarget,
    arm_rows,
    ipwz_solve,
    scores,
)

# Incremented whenever a negative variance diagonal (floating error) is floored.
counters = {"negative_variance_floored": 0}


_STANDARD_NORMAL = NormalDist()


def norm_ppf(p):
    """Standard normal quantile (stdlib ``NormalDist.inv_cdf``) on the open interval (0, 1).

    A scalar gives a float, an array an array of its shape.
    """
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("quantile argument must lie strictly in (0, 1)")
    if p.ndim == 0:
        return _STANDARD_NORMAL.inv_cdf(float(p))
    return np.array([_STANDARD_NORMAL.inv_cdf(v) for v in p.ravel().tolist()]).reshape(p.shape)


def sandwich_variance(
    log: BanditLog,
    target: ScoreTarget,
    arm: int,
    theta_hat: np.ndarray,
    rows: ArmRows | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plug-in sandwich estimate; returns (Sigma_hat, Gdot_hat, I_hat).

    ``rows`` are ``arm_rows(log, target, arm)`` when the caller has them; their
    design, already checked, is Gdot.
    """
    theta = np.asarray(theta_hat, dtype=float).ravel()
    X, Y, w, gdot = arm_rows(log, target, arm) if rows is None else rows
    T = log.horizon
    gw = scores(target, arm, X, Y, theta, log.num_arms, w)
    imat = gw.T @ gw / T

    ginv = np.linalg.inv(gdot)
    sigma = ginv @ imat @ ginv.T
    sigma = (sigma + sigma.T) / 2.0
    neg = np.diag(sigma) < 0
    if neg.any():
        counters["negative_variance_floored"] += int(neg.sum())
        sigma[np.diag_indices_from(sigma)] = np.maximum(np.diag(sigma), 0.0)
    return sigma, gdot, imat


@lru_cache(maxsize=64)
def two_sided_z(level: float) -> float:
    """The normal quantile z with P(|N(0, 1)| <= z) = ``level``, computed once per level."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"confidence level {level} outside (0, 1)")
    return norm_ppf((1.0 + level) / 2.0)


def confidence_intervals(
    theta_hat: np.ndarray,
    sigma_hat: np.ndarray,
    horizon: int,
    levels,
) -> dict[float, np.ndarray]:
    """Per-coordinate normal intervals theta_i +/- z * sqrt(sigma_ii / T)."""
    theta = np.atleast_1d(np.asarray(theta_hat, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma_hat, dtype=float))
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    half_widths = np.sqrt(np.maximum(np.diag(sigma), 0.0) / horizon)
    out = {}
    for level in levels:
        z = two_sided_z(float(level))
        out[float(level)] = np.column_stack([theta - z * half_widths,
                                             theta + z * half_widths])
    return out


@dataclass
class EstimateReport:
    """Per-arm estimate with its sandwich variance and intervals."""

    arm: int
    theta: np.ndarray
    sigma: np.ndarray
    gdot: np.ndarray
    imat: np.ndarray
    cis: dict[float, np.ndarray]
    horizon: int

    def to_json_dict(self) -> dict:
        return {
            "arm": self.arm,
            "theta": self.theta.tolist(),
            "sigma": self.sigma.tolist(),
            "ci": {f"{lvl:g}": ci.tolist() for lvl, ci in self.cis.items()},
            "T": self.horizon,
        }


@dataclass
class OPEReport:
    """Aggregated target-policy value with per-arm breakdown."""

    value: float
    variance: float
    cis: dict[float, tuple[float, float]]
    per_arm: np.ndarray
    horizon: int

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "variance": self.variance,
            "ci": {f"{lvl:g}": list(ci) for lvl, ci in self.cis.items()},
            "per_arm": self.per_arm.tolist(),
            "T": self.horizon,
        }


def estimate_report(
    log: BanditLog,
    target: ScoreTarget,
    arm: int,
    levels=(0.95,),
) -> EstimateReport:
    """Solve, estimate variance and build intervals for one arm.

    The arm's rows are gathered, and its design built and checked, once for
    both the solve and the sandwich.
    """
    rows = arm_rows(log, target, arm)
    theta = ipwz_solve(log, target, arm, rows=rows)
    sigma, gdot, imat = sandwich_variance(log, target, arm, theta, rows=rows)
    cis = confidence_intervals(theta, sigma, log.horizon, levels)
    return EstimateReport(arm=arm, theta=theta, sigma=sigma, gdot=gdot,
                          imat=imat, cis=cis, horizon=log.horizon)


def ope_value(log: BanditLog, target: ScoreTarget, levels=(0.95,),
              reports: list[EstimateReport] | None = None) -> OPEReport:
    """Target-policy value V_hat = sum_a theta_hat_a with its scalar variance.

    ``reports`` are the per-arm ``estimate_report`` results already computed
    on ``log`` (in arm order); without them each arm is solved here.
    """
    if target.family != "ope":
        raise ValueError("ope_value requires an ope-family target")
    if reports is None:
        reports = [estimate_report(log, target, arm, levels=levels) for arm in range(log.num_arms)]
    per_arm = np.array([r.theta[0] for r in reports])
    variance = sum(float(r.imat[0, 0]) / float(r.gdot[0, 0]) ** 2 for r in reports)
    value = float(per_arm.sum())
    cis = {level: tuple(ci[0]) for level, ci in confidence_intervals(
        value, np.array([[variance]]), log.horizon, levels).items()}
    return OPEReport(value=value, variance=variance, cis=cis,
                     per_arm=per_arm, horizon=log.horizon)


def variance_estimated_sigma(
    log: BanditLog,
    aux: AuxiliaryData,
    arm: int,
    theta_tilde: np.ndarray,
    regime: str = "auto",
) -> tuple[np.ndarray, str]:
    """Asymptotic variance when Sigma_e itself is estimated from auxiliary data.

    Regimes follow the relative sizes of the auxiliary sample n and the
    horizon T: with much more auxiliary data the known-Sigma_e sandwich
    applies (sqrt(T) scaling); with comparable sizes an extra term H/kappa
    from the Sigma_e estimate enters; with much less auxiliary data that term
    dominates and the rate drops to sqrt(n). ``theta_tilde`` solves the
    noisy_context target whose ``sigma_e`` is ``aux.sigma_e_hat()``.
    """
    valid = ("auto", "n_dominant", "proportional", "t_dominant")
    if regime not in valid:
        raise ValueError(f"regime must be one of {valid}")
    n, T = aux.size, log.horizon
    if regime == "auto":
        ratio = n / T
        regime = "n_dominant" if ratio > 10 else ("t_dominant" if ratio < 0.1 else "proportional")

    theta = np.asarray(theta_tilde, dtype=float).ravel()
    sigma_e_hat = aux.sigma_e_hat()
    target = ScoreTarget(family="noisy_context", sigma_e=sigma_e_hat)
    # sandwich_variance has already rejected an ill-conditioned gdot.
    _, gdot, imat = sandwich_variance(log, target, arm, theta)

    # H = mean over aux rows of (V_i - Sigma_e) theta theta' (V_i - Sigma_e),
    # with V_i the outer product of the i-th measurement error.
    err = aux.observed - aux.latent
    vt = err * (err @ theta)[:, None] - sigma_e_hat @ theta
    h_bar = vt.T @ vt / n

    ginv = np.linalg.inv(gdot)
    if regime == "n_dominant":
        middle, scaling = imat, "sqrt_T"
    elif regime == "proportional":
        middle, scaling = imat + h_bar / (n / T), "sqrt_T"
    else:
        middle, scaling = h_bar, "sqrt_n"
    sigma = ginv @ middle @ ginv.T
    return (sigma + sigma.T) / 2.0, scaling


def write_reports_json(reports: list[EstimateReport], path,
                       ope_report: OPEReport | None = None) -> None:
    doc = {"arms": [r.to_json_dict() for r in reports]}
    if ope_report is not None:
        doc["ope"] = ope_report.to_json_dict()
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
