"""Trajectory runner, Monte Carlo replication engine and diagnostics.

``run_trajectory`` executes the data-collection protocol: observe a context,
sample an action from the behavior policy, record the realized propensity and
the chosen arm's outcome, fold the transition into the policy's statistics.
Only the chosen arm's potential outcome ever enters the log, so
unconfoundedness holds by construction.

``replicate`` runs R independent trajectories on split random substreams and
aggregates estimator coverage against ground truth from ``oracle_target``.
Every stream is keyed by (master seed, replication index), never by execution
order, so serial, process-parallel and blocked execution give identical
summaries.

The block engine (``_run_block``) simulates B trajectories in lockstep. Each
pre-draws its rounds and action uniforms from its own streams; the block makes
its policy once (``policy.new_policy``), and every round makes one row-wise
``distribution`` call on the block's (B, ...) statistics (at the B drawn
contexts, or at all C probe contexts as one (B, C, d) call), draws B arms by
inverse CDF, records each drawn arm's probability as its realized propensity,
and makes one row-wise ``fold`` of the round's transitions. A log holds
exactly the columns of its CSV. The policy computes each row exactly as for a
lone trajectory, so a log does not depend on the block it ran in;
``run_trajectory`` is a block of one, as is every policy outside the engine,
and a zero horizon gives an empty log by the same path.
``replicate`` splits the R replications of a looped policy into contiguous
blocks of at most ``BLOCK_CAP``, as many as a multiple of the worker count
(the ``random`` policy needs no step loop and makes each replication its own
block). A task is a run of consecutive blocks, about four per worker;
``replicate`` maps the tasks over the process pool, or runs the same tasks
in turn with one worker. Inference, CADR, diagnostics (the block policy's
last-step ``distribution``) and failure isolation stay per replication. The
pool receives the config and theta* bound into one ``functools.partial``,
pickled once per task.

Each replication's estimates form one record, a dict of named arrays built by
``_analyse``. A task folds its successful records by one rule, dicts key by
key and arrays on a new leading replication axis, and returns that one folded
record with its replications' diagnostics and failures; ``replicate`` joins
the tasks' folds in task order, which is replication order, into the
``ReplicationSummary``. A new per-replication quantity is one more record
entry.

``cadr_ope`` implements the contextual adaptive doubly-robust baseline with
variance-stabilization weights, which use the exact round-t behavior policy.
It is one more per-replication value estimator: each name in the config's
``cadr_regressions`` runs it on each replication's log, and its values sit
next to IPW-Z's in the record's ``values`` table as
``cadr_<regression>`` (its floored-variance counts in ``value_floored``). On a
finite context support the block engine records every replication's policy at
the support's distinct contexts each round (the round's own distribution is
its context's row), and CADR reads g_t from that table; on continuous
contexts, or on a log read back from disk, CADR replays the policy from the
log, with one ``new_policy`` per replay. Either way its step
variances come from prefix sums per (context, arm), not from a rescan of the
past.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, is_dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .env import EnvironmentSpec, distinct_rows, oracle_target, sample_rounds, support
from .estimator import (BanditLog, NoDataForArm, ScoreTarget, SingularDesign, TargetPolicy,
                        check_covariance)
from .inference import estimate_report, norm_ppf, ope_value, two_sided_z
from .policy import PolicyConfig, new_policy, row_offsets
from .rng import PURPOSE_ENV, PURPOSE_POLICY, stream, whole_number

MAX_WORKERS_ENV_VAR = "BANDITLAB_MAX_WORKERS"

# Most replications one worker advances in lockstep. On boltzmann_ridge at
# T = 10^4 (fig3c, 2-vCPU AMD EPYC) a replication's trajectory took 5.6 / 3.5 /
# 2.5 ms in blocks of 32 / 64 / 128 (127 ms alone), while the block's arrays
# peaked at 31 / 62 / 123 MB (tracemalloc); inference adds about 0.15 ms a
# replication.
BLOCK_CAP = 64

CADR_REGRESSIONS = ("zero", "online_linear")
CADR_BURN_IN = 10  # CADR's first steps, weighted 1 before any variance estimate
CADR_VARIANCE_FLOOR = 1e-6  # least step variance CADR weights by

# Largest share of failed replications a run tolerates; beyond it ``replicate`` raises.
FAILURE_TOLERANCE = 0.05


def check_levels(levels) -> tuple:
    """The levels as a tuple, if a non-empty list in (0, 1)."""
    if not (isinstance(levels, (list, tuple)) and levels and all(
            isinstance(level, numbers.Real) and 0.0 < level < 1.0 for level in levels)):
        raise ValueError(f"levels must be a non-empty list in (0, 1), got {levels!r}")
    return tuple(levels)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one coverage experiment needs, in picklable form, checked on creation."""

    env: EnvironmentSpec
    policy: PolicyConfig
    target: ScoreTarget
    horizon: int
    replications: int = 1
    seed: int = 0
    levels: tuple = (0.5, 0.95)
    diagnostic_contexts: tuple = ()
    workers: int = 1
    n_oracle: int = 1_000_000
    cadr_regressions: tuple = ()

    def __post_init__(self):
        for name in ("horizon", "replications", "seed", "workers", "n_oracle"):
            object.__setattr__(self, name, whole_number(getattr(self, name), name))
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.n_oracle < 1:
            raise ValueError(f"n_oracle must be >= 1, got {self.n_oracle}")
        object.__setattr__(self, "levels", check_levels(self.levels))
        _resolve_workers(self.workers)
        K, pi_min = self.env.num_arms, self.policy.pi_min
        if K * pi_min > 1.0 + 1e-12:  # new_policy's test, made before any output
            raise ValueError(f"env.num_arms * policy.pi_min must be at most 1, "
                             f"got {K} * {pi_min!r} = {K * pi_min!r}")
        d = self.env.context_dim
        if self.target.family == "noisy_context":
            check_covariance(self.target.sigma_e, "target.sigma_e", dim=d)
        if self.target.target_policy is not None:
            self.target.target_policy.vector(K)
        if not isinstance(self.diagnostic_contexts, (list, tuple)):
            raise ValueError(f"diagnostics.contexts must be a list of contexts, "
                             f"got {self.diagnostic_contexts!r}")
        object.__setattr__(self, "diagnostic_contexts", tuple(
            tuple(np.atleast_1d(c).tolist()) for c in self.diagnostic_contexts))
        sup = support(self.env)
        xs = None if sup is None else np.array([x for _, _, x in sup])
        for raw in self.diagnostic_contexts:
            try:
                ctx = np.asarray(raw, dtype=float)
            except (TypeError, ValueError):
                ctx = None
            if ctx is None or not np.isfinite(ctx).all():
                raise ValueError(f"diagnostics.contexts must be contexts of finite numbers, "
                                 f"got {list(raw)!r}")
            if ctx.shape != (d,):
                raise ValueError(f"diagnostic context {ctx.tolist()} has shape {ctx.shape}, "
                                 f"but the environment's context dimension is {d}")
            if xs is not None and not np.any(np.all(np.isclose(xs, ctx), axis=1)):
                raise ValueError(
                    f"diagnostic context {ctx.tolist()} is outside the environment support")
        if not isinstance(self.cadr_regressions, (list, tuple)):
            raise ValueError(f"cadr_regressions must be a list of names from "
                             f"{CADR_REGRESSIONS}, got {self.cadr_regressions!r}")
        for reg in self.cadr_regressions:
            if reg not in CADR_REGRESSIONS:
                raise ValueError(f"unknown regression {reg!r} in cadr_regressions; "
                                 f"expected one of {CADR_REGRESSIONS}")
        object.__setattr__(self, "cadr_regressions", tuple(dict.fromkeys(self.cadr_regressions)))
        if self.cadr_regressions and self.target.family != "ope":
            raise ValueError("CADR requires an ope-family target")
        if self.cadr_regressions and self.horizon <= CADR_BURN_IN:
            raise ValueError(f"horizon {self.horizon} must exceed the CADR burn-in {CADR_BURN_IN}")


def config_fingerprint(obj) -> str:
    """Stable content hash of a list of dataclasses, float arrays and scalars."""

    def canon(o):
        if is_dataclass(o):
            return {f.name: canon(getattr(o, f.name)) for f in fields(o)}
        if isinstance(o, np.ndarray):
            return ["ndarray", o.shape, o.astype(float).ravel().tolist()]
        if isinstance(o, (list, tuple)):
            return [canon(v) for v in o]
        return o

    blob = json.dumps(canon(obj), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def oracle_thetas(env: EnvironmentSpec, target: ScoreTarget,
                  n_oracle: int = 1_000_000, seed: int = 0) -> np.ndarray:
    """Ground-truth theta* for every arm, (K, d_theta), a new array on every call."""
    return np.stack([oracle_target(env, target, arm, n_oracle=n_oracle, seed=seed).theta
                     for arm in range(env.num_arms)])


# --- trajectories ---------------------------------------------------------------


def _run_block(env: EnvironmentSpec, policy: PolicyConfig, target: ScoreTarget | None,
               horizon: int, seed: int, paths: list[tuple], probes: np.ndarray | None = None):
    """Run one trajectory per stream path in lockstep.

    Returns (logs, the block's policy after the last round, probe table). Each
    trajectory pre-draws its rounds and uniforms from its own streams, so its
    log does not depend on the block it runs in. The looped kinds then make
    one block-wide distribution call and one block-wide fold per round;
    ``random``, whose policy keeps no statistics, draws every arm at once and
    gathers each trajectory's outcomes once, with flat indices t * K + arm.
    The drawn arms' probabilities and outcomes fill (B, T) arrays (a list of B
    outcome rows for ``random``), and log b takes their row b. Given (C, d)
    ``probes``, the table (B, T, C, K) holds each trajectory's round-t
    distribution at every probe context, filled by the round's one call on
    the (B, C, d) grid of probes; otherwise it is None. The probes must cover
    every context the environment draws: each round's own distribution is
    then its context's row of the table, with no further call. The round's
    gathers (the drawn arm's probability and outcome) take flat indices
    b * K + arm.
    """
    K, d, B = env.num_arms, env.context_dim, len(paths)
    block_policy = new_policy(policy, K, d, target=target, block=B)
    table = None if probes is None else np.full((B, horizon, len(probes), K), 1.0 / K)
    draws = [(sample_rounds(env, stream(seed, *path, PURPOSE_ENV), horizon),
              stream(seed, *path, PURPOSE_POLICY).random(horizon)) for path in paths]

    if policy.kind == "random":
        arms = np.minimum((np.stack([u for _, u in draws]) * K).astype(np.int64), K - 1)
        propensities = np.full((B, horizon), 1.0 / K)
        outcomes = [rounds.potentials.take(arm + np.arange(0, horizon * K, K))
                    for (rounds, _), arm in zip(draws, arms)]
        block_policy.t = horizon
    else:
        # Round-major copies, so that each round's B rows are contiguous.
        contexts = np.stack([r.contexts for r, _ in draws], axis=1)      # (T, B, d)
        potentials = np.stack([r.potentials for r, _ in draws], axis=1)  # (T, B, K)
        uniforms = np.stack([u for _, u in draws], axis=1)               # (T, B)
        offsets = row_offsets(B, K)
        distribution, fold = block_policy.distribution, block_policy.fold
        arms = np.empty((B, horizon), dtype=np.int64)
        propensities = np.empty((B, horizon))
        outcomes = np.empty((B, horizon))
        if probes is not None:
            grid = np.tile(probes, (B, 1, 1))                            # (B, C, d)
            # Every drawn context is a probe: its round's distribution is a row
            # of the table, row b * C + cell of the round's (B * C, K) block.
            cells = (_cells(contexts.reshape(-1, d), probes).reshape(horizon, B)
                     + row_offsets(B, len(probes)))
        for t in range(horizon):
            x = contexts[t]
            if probes is None:
                probs = distribution(x)
            else:
                table[:, t] = dist = distribution(grid)
                probs = dist.reshape(-1, K).take(cells[t], axis=0)
            # The searchsorted(cumsum(probs), u, side="right") of each row: partial
            # sums never decrease, so counting the first K - 1 caps the arm at K - 1.
            # With two arms the one partial sum is probs[:, 0].
            if K == 2:
                arm = (probs[:, 0] <= uniforms[t]).astype(np.intp)
            else:
                arm = np.add.reduce(probs[:, :-1].cumsum(1) <= uniforms[t][:, None],
                                    axis=1, dtype=np.intp)
            flat = offsets + arm
            arms[:, t] = arm
            propensities[:, t] = prob = probs.take(flat)
            outcomes[:, t] = y = potentials[t].take(flat)
            fold(x, arm, prob, y, flat)

    logs = [BanditLog(contexts=rounds.contexts, arms=arms[b], propensities=propensities[b],
                      outcomes=outcomes[b], num_arms=K, latents=rounds.latents)
            for b, (rounds, _) in enumerate(draws)]
    return logs, block_policy, table


def run_trajectory(env: EnvironmentSpec, policy: PolicyConfig,
                   target: ScoreTarget | None, horizon: int, seed: int,
                   stream_path: tuple = ()) -> BanditLog:
    """Collect one adaptive dataset; bit-identical for identical seeds."""
    logs, _, _ = _run_block(env, policy, target, horizon, seed, [stream_path])
    return logs[0]


# --- replication engine ---------------------------------------------------------


def _covers(cis: dict, levels, value: float) -> np.ndarray:
    """(L,) bool: does each level's (lo, hi) interval contain ``value``?"""
    return np.array([cis[float(level)][0] <= value <= cis[float(level)][1]
                     for level in levels])


def _analyse(config: ExperimentConfig, log: BanditLog, thetas_star: np.ndarray,
             v_star: float | None, behavior_table: BehaviorTable | None = None) -> dict:
    """One replication's estimates as named arrays; estimator failures raise.

    ``values`` and ``value_covered`` hold one entry per value estimator of an
    ope-family target: ``ipwz``, then ``cadr_<regression>`` in request order;
    ``value_floored`` holds each CADR entry's count of floored variances.
    """
    target = config.target
    reports = [estimate_report(log, target, arm, levels=config.levels)
               for arm in range(log.num_arms)]
    theta = np.stack([r.theta for r in reports])                  # (K, d_theta)
    sigma_diag = np.stack([np.diag(r.sigma) for r in reports])
    lo, hi = (np.array([[r.cis[float(level)][:, side] for r in reports]
                        for level in config.levels]) for side in (0, 1))
    err = theta - thetas_star
    scale = np.sqrt(np.maximum(sigma_diag, 0.0))
    degenerate = np.where(err > 0, np.inf, np.where(err < 0, -np.inf, 0.0))
    std_err = np.where(
        scale > 0, math.sqrt(log.horizon) * err / np.where(scale > 0, scale, 1.0), degenerate)
    values, value_covered, value_floored = {}, {}, {}
    if target.family == "ope":
        estimates = {"ipwz": ope_value(log, target, levels=config.levels, reports=reports)}
        for reg in config.cadr_regressions:
            estimates[f"cadr_{reg}"] = est = cadr_ope(
                log, target.target_policy, regression=reg, levels=config.levels,
                behavior_policy=config.policy, behavior_target=target,
                behavior_table=behavior_table)
            value_floored[f"cadr_{reg}"] = est.floored
        for name, est in estimates.items():
            values[name] = est.value
            value_covered[name] = _covers(est.cis, config.levels, v_star)
    return {"theta_hat": theta, "sigma_diag": sigma_diag, "std_errors": std_err,
            "covered": (lo <= thetas_star) & (thetas_star <= hi),  # (L, K, d_theta)
            "values": values, "value_covered": value_covered, "value_floored": value_floored}


def _replicate_block(config: ExperimentConfig, blocks: list[range], thetas_star: np.ndarray,
                     v_star: float | None) -> tuple:
    """Run one task, a run of consecutive replication blocks, into one folded record.

    Each block is simulated as one lockstep block, in order, and each of its
    replications is analysed alone. Returns (the ``_stack`` of the successful
    records, or None if none succeeded; the last-step distributions
    (n, n_ctx, K) of all n replications, failed ones too, or None without
    diagnostic contexts; the failures as (rep, message)), each in replication
    order. When CADR is requested on a finite context support, each block also
    records its replications' behavior policy at the support's distinct
    contexts, so CADR needs no replay of the policy.
    """
    sup = support(config.env) if config.cadr_regressions else None
    probes = None if sup is None else distinct_rows(np.array([x for _, _, x in sup]))
    points = np.array(config.diagnostic_contexts, dtype=float)
    records, diags, failures = [], [], []
    for reps in blocks:
        logs, policy, table = _run_block(config.env, config.policy, config.target,
                                         config.horizon, config.seed, [(rep,) for rep in reps],
                                         probes=probes)
        if config.diagnostic_contexts:
            # Last-step distributions at each diagnostic context: (B, n_ctx, K).
            diags.append(policy.distribution(np.tile(points, (len(reps), 1, 1))))
        for i, (rep, log) in enumerate(zip(reps, logs)):
            behavior = None if table is None else BehaviorTable(probes, table[i])
            try:
                records.append(_analyse(config, log, thetas_star, v_star, behavior))
            except (NoDataForArm, SingularDesign) as exc:
                failures.append((rep, str(exc)))
    return (_stack(records) if records else None,
            np.concatenate(diags) if diags else None, failures)


def _stack(records: list, join=np.stack):
    """Fold records key by key (dicts) with ``join`` on their arrays.

    ``np.stack`` folds per-replication records on a new leading axis;
    ``np.concatenate`` joins folds along their replication axis.
    """
    if isinstance(records[0], dict):
        return {key: _stack([r[key] for r in records], join) for key in records[0]}
    return join(records)


def _coverage(hits: np.ndarray) -> dict:
    """Empirical coverage of (R,) interval hits and its Monte Carlo standard error."""
    p = float(hits.mean())
    return {"coverage": p, "mc_stderr": math.sqrt(max(p * (1 - p), 0.0) / len(hits))}


@dataclass
class ReplicationSummary:
    """Across-replication arrays backing coverage tables and diagnostics.

    Every array puts the replication axis first. All but ``last_step_probs``
    hold only the R_ok replications whose estimators succeeded.
    """

    config: ExperimentConfig
    thetas_star: np.ndarray
    v_star: float | None
    theta_hat: np.ndarray          # (R_ok, K, d_theta)
    sigma_diag: np.ndarray         # (R_ok, K, d_theta)
    std_errors: np.ndarray         # (R_ok, K, d_theta)
    covered: np.ndarray            # (R_ok, L, K, d_theta) bool
    values: dict                   # method -> (R_ok,): "ipwz", then "cadr_<regression>"
    value_covered: dict            # method -> (R_ok, L) bool
    value_floored: dict            # "cadr_<regression>" -> (R_ok,) floored step variances
    last_step_probs: np.ndarray | None  # (R_all, n_ctx, K)
    failures: list

    @property
    def replications_used(self) -> int:
        return self.theta_hat.shape[0]

    def coverage_table(self) -> list[dict]:
        _, _, K, d_theta = self.covered.shape
        return [{"level": float(level), "arm": arm, "coord": coord,
                 **_coverage(self.covered[:, li, arm, coord])}
                for li, level in enumerate(self.config.levels)
                for arm in range(K) for coord in range(d_theta)]

    def value_coverage_table(self, method: str) -> list[dict]:
        """Coverage per level of one value estimator (a key of ``values``)."""
        return [{"level": float(level), **_coverage(self.value_covered[method][:, li])}
                for li, level in enumerate(self.config.levels)]


def _resolve_workers(requested: int) -> int:
    """``requested`` capped by ``BANDITLAB_MAX_WORKERS``, each clamped to at least 1."""
    cap = os.environ.get(MAX_WORKERS_ENV_VAR)
    workers = max(1, requested)
    if cap is not None:
        try:
            cap = int(cap)
        except ValueError:
            raise ValueError(f"{MAX_WORKERS_ENV_VAR} must be an integer, got {cap!r}") from None
        workers = min(workers, max(1, cap))
    return workers


def _blocks(R: int, workers: int, cap: int) -> list[range]:
    """Contiguous, near-equal replication blocks of at most ``cap``; a multiple of ``workers``."""
    n = min(R, workers * math.ceil(R / (workers * cap)))
    return [range(i * R // n, (i + 1) * R // n) for i in range(n)]


def replicate(config: ExperimentConfig) -> ReplicationSummary:
    """Run R independent replications and aggregate coverage against theta*.

    The replications run as tasks, each a run of consecutive blocks that
    returns one folded record (``_replicate_block``); the summary joins the
    folds in task order. Each name in ``config.cadr_regressions`` ("zero",
    "online_linear") adds a CADR estimate of the target-policy value per
    replication, computed on the same log as the IPW-Z value.
    """
    thetas_star = oracle_thetas(config.env, config.target,
                                n_oracle=config.n_oracle, seed=config.seed)
    v_star = float(thetas_star.sum()) if config.target.family == "ope" else None

    R = config.replications
    workers = _resolve_workers(config.workers)
    blocks = _blocks(R, workers, 1 if config.policy.kind == "random" else BLOCK_CAP)
    per_task = max(1, len(blocks) // (workers * 4))
    tasks = [blocks[i:i + per_task] for i in range(0, len(blocks), per_task)]
    run = partial(_replicate_block, config, thetas_star=thetas_star, v_star=v_star)
    if workers > 1:
        # The pool pickles ``run``, config included, once per task.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            folds = list(pool.map(run, tasks))
    else:
        folds = [run(task) for task in tasks]

    failures = [failure for _, _, task_failures in folds for failure in task_failures]
    if len(failures) > FAILURE_TOLERANCE * R:
        raise RuntimeError(
            f"{len(failures)} of {R} replications failed (tolerance "
            f"{FAILURE_TOLERANCE:.0%}); first: rep {failures[0][0]}: {failures[0][1]}")
    diag = (np.concatenate([d for _, d, _ in folds]) if config.diagnostic_contexts
            else None)
    return ReplicationSummary(
        config=config, thetas_star=thetas_star, v_star=v_star, last_step_probs=diag,
        failures=failures,
        **_stack([r for r, _, _ in folds if r is not None], join=np.concatenate))


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
    idx = next((i for i, c in enumerate(summary.config.diagnostic_contexts)
                if np.allclose(c, ctx)), None)
    if idx is None:
        raise ValueError(f"context {ctx.tolist()} was not registered as a diagnostic point")
    values = summary.last_step_probs[:, idx, arm]
    counts, edges = np.histogram(values, bins=50, range=(0.0, 1.0))
    return DiagnosticResult(
        counts=counts, bin_edges=edges, spread=float(values.std()),
        low_mass=float(np.mean(values <= 0.2)), high_mass=float(np.mean(values >= 0.8)),
    )


# --- CADR off-policy-evaluation baseline ------------------------------------------

# Most (row, cell, arm) entries one chunk of CADR's prefix sums holds. It bounds
# the memory of a replay on continuous contexts, where each row is its own cell.
_CADR_CHUNK = 1 << 16


class BehaviorTable(NamedTuple):
    """A trajectory's behavior policy at fixed contexts, recorded by ``_run_block``."""

    contexts: np.ndarray          # (C, d) distinct contexts
    probs: np.ndarray             # (T, C, K) round-t action distribution at each context


class CadrResult(NamedTuple):
    value: float
    gamma: float                  # stabilization scale Gamma_T
    cis: dict                     # level -> (lo, hi)
    floored: int                  # steps whose variance estimate hit the floor


def _cells(X: np.ndarray, contexts: np.ndarray) -> np.ndarray:
    """Index into the distinct ``contexts`` (C, d) of each row of X."""
    match = np.all(X[:, None, :] == contexts[None, :, :], axis=2)  # (T, C)
    if not match.any(axis=1).all():
        raise ValueError("the log has contexts outside the behavior table's contexts")
    return match.argmax(axis=1)


def _online_ridge(X: np.ndarray, A: np.ndarray, Y: np.ndarray, K: int,
                  lam: float = 1.0) -> np.ndarray:
    """(T, K, d): row t holds each arm's ridge fit on rows < t (zero before its first pull).

    The Grams accumulate from lam * I in row order, as a recursive fit adds them.
    """
    T, d = X.shape
    rows = np.arange(1, T + 1)
    gram = np.zeros((T + 1, K, d, d))
    gram[0] = lam * np.eye(d)
    gram[rows, A] = X[:, :, None] * X[:, None, :]
    moment = np.zeros((T + 1, K, d))
    moment[rows, A] = X * Y[:, None]
    return np.linalg.solve(np.cumsum(gram, axis=0)[:-1],
                           np.cumsum(moment, axis=0)[:-1, :, :, None])[..., 0]


def cadr_ope(
    log: BanditLog,
    target_policy: TargetPolicy,
    regression: str = "zero",
    levels=(0.95,),
    behavior_policy: PolicyConfig | None = None,
    behavior_target: ScoreTarget | None = None,
    behavior_table: BehaviorTable | None = None,
) -> CadrResult:
    """Contextual adaptive doubly-robust estimate of the target-policy value.

    Per step t: fit the outcome regression on rows < t (``zero`` model or a
    per-arm ridge), form the uncentered doubly-robust scores
    D'_{t,s} = r_s Y_s - r_s q_t(X_s, A_s) + m_t(X_s) at past rows, with
    r = g*/pi, q_t the fit and m_t its g*-mean, estimate the step's
    conditional variance from them with stabilization weights
    g_t(A_s|X_s)/g_s(A_s|X_s), floor it at ``CADR_VARIANCE_FLOOR``, and weight
    the step's own score by 1/sigma_t. The first ``CADR_BURN_IN`` steps use
    sigma_t = 1.

    No step rescans the past: rows are grouped into cells of equal context,
    and the weighted moments of D'_{t,s} over rows s < t expand into prefix
    sums per (cell, arm), so m_k(t) = sum_{c,a} g_t(a|c) S_k(t; c, a) / t.
    The round-t policy g_t comes from ``behavior_table`` (recorded during the
    simulation) when given; else from replaying ``behavior_policy`` on the log
    at its distinct contexts. One of the two is required: the weights use the
    exact round-t behavior policy.
    """
    if regression not in CADR_REGRESSIONS:
        raise ValueError(f"unknown regression {regression!r}; expected one of {CADR_REGRESSIONS}")
    T, K, d = log.horizon, log.num_arms, log.context_dim
    if T <= CADR_BURN_IN:
        raise ValueError(f"horizon {T} must exceed the CADR burn-in {CADR_BURN_IN}")
    if behavior_table is None and behavior_policy is None:
        raise ValueError("cadr_ope needs the behavior policy: a behavior_table or a "
                         "behavior_policy to replay")
    X, A, Y, pi = log.contexts, log.arms, log.outcomes, log.propensities
    gstar = target_policy.vector(K)
    r = gstar[A] / pi  # g*(A_s|X_s) / g_s(A_s|X_s)
    beta = (_online_ridge(X, A, Y, K) if regression == "online_linear"
            else np.zeros((T, K, d)))
    q_own = np.einsum("tkd,td->tk", beta, X)                # (T, K) q_t at X_t
    own = r * (Y - q_own[np.arange(T), A]) + q_own @ gstar  # D'_{t,t}

    if behavior_table is not None:
        contexts, cells = behavior_table.contexts, _cells(X, behavior_table.contexts)
    else:
        contexts, cells = distinct_rows(X, return_inverse=True)
        replay = new_policy(behavior_policy, K, d, target=behavior_target)
    w = 1.0 / pi

    def policy_at(t0, t1):
        """(t1 - t0, C, K): g_t at each cell for steps t0 <= t < t1."""
        if behavior_table is not None:
            return behavior_table.probs[t0:t1]
        out = np.empty((t1 - t0, len(contexts), K))
        for t in range(t0, t1):
            out[t - t0] = replay.distribution(contexts)
            replay.fold(X[t:t + 1], A[t:t + 1], pi[t:t + 1], Y[t:t + 1])
        return out

    # Per-row terms of w D' and w D'^2: w, w r, w r Y, w r^2, w r^2 Y, w r^2 Y^2.
    wr = w * r
    wr2 = wr * r
    terms = np.stack([w, wr, wr * Y, wr2, wr2 * Y, wr2 * Y * Y])  # (6, T)
    C = len(contexts)
    chunk = max(1, _CADR_CHUNK // (C * K))
    running = np.zeros((len(terms), C, K))  # sums over the rows before the chunk
    first, second = np.zeros(T), np.zeros(T)
    for t0 in range(0, T, chunk):
        t1 = min(T, t0 + chunk)
        steps = np.zeros((len(terms), C, K, t1 - t0 + 1))
        steps[..., 0] = running
        steps[:, cells[t0:t1], A[t0:t1], np.arange(1, t1 - t0 + 1)] = terms[:, t0:t1]
        sums = np.cumsum(steps, axis=-1)
        running = sums[..., -1]
        S = sums[..., :-1]                                   # (6, C, K, n): rows s < t
        q = np.einsum("cd,tkd->ckt", contexts, beta[t0:t1])  # (C, K, n)
        m = np.einsum("k,ckt->ct", gstar, q)[:, None]        # (C, 1, n)
        g = np.moveaxis(policy_at(t0, t1), 0, -1)            # (C, K, n)
        first[t0:t1] = (g * (S[2] - q * S[1] + m * S[0])).sum(axis=(0, 1))
        second[t0:t1] = (g * (S[5] + q * q * S[3] + m * m * S[0] - 2.0 * q * S[4]
                              + 2.0 * m * S[2] - 2.0 * q * m * S[1])).sum(axis=(0, 1))

    past = np.arange(CADR_BURN_IN, T)  # rows before each post-burn-in step
    m1 = first[CADR_BURN_IN:] / past
    var = second[CADR_BURN_IN:] / past - m1 * m1
    floored = var < CADR_VARIANCE_FLOOR
    sigma = np.ones(T)
    sigma[CADR_BURN_IN:] = np.sqrt(np.where(floored, CADR_VARIANCE_FLOOR, var))
    gamma = 1.0 / float((1.0 / sigma).mean())
    psi = gamma * float((own / sigma).mean())
    cis = {}
    for level in levels:
        half = two_sided_z(float(level)) * gamma / math.sqrt(T)
        cis[float(level)] = (psi - half, psi + half)
    return CadrResult(value=psi, gamma=gamma, cis=cis, floored=int(floored.sum()))
