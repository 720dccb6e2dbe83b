"""Score functions and inverse-probability-weighted Z-estimation.

Three estimand families are supported, each defined by a moment condition
``E[g(X, Y(a); theta)] = 0`` on a generic draw of context and potential
outcome. All three scores are linear in theta,

    g(x, y; theta) = z (c_a y) - (z z' - S) theta,

with the pieces ``ScoreTarget`` supplies (``regressors``, ``outcome_scale``,
``shift``):

    family          z   c_a       S         theta
    misspec_linear  x   1         0         best linear approximation of y by x
    noisy_context   x   1         Sigma_e   coefficient on the latent context
    ope             1   pi_e(a)   0         arm a's term of the value of pi_e

Given an adaptively collected log, the estimator for arm ``a`` is the exact
root of the empirical weighted estimating equation

    (1/T) sum_t (1{A_t = a} / pi_t) g(X_t, Y_t; theta) = 0,

where ``pi_t`` is the realized propensity recorded at collection time: one
linear solve of ``normal_equations``. The solver, the sandwich variance, the
oracles and the ``ipwz_greedy`` policy are all written on this one form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import whole_number

FAMILIES = ("misspec_linear", "noisy_context", "ope")

MAX_CONDITION = 1e12


class NoDataForArm(ValueError):
    """The requested arm was never pulled in the log."""

    def __init__(self, arm: int):
        self.arm = arm
        super().__init__(f"arm {arm} has no observations in the log")


class SingularDesign(np.linalg.LinAlgError):
    """The weighted design matrix is numerically singular."""

    def __init__(self, arm: int, cond: float):
        self.arm = arm
        self.cond = cond
        super().__init__(
            f"weighted design for arm {arm} is singular "
            f"(condition estimate {cond:.3e} exceeds {MAX_CONDITION:.0e})"
        )


def check_covariance(matrix, name: str, dim: int | None = None) -> np.ndarray:
    """``matrix`` (a number is 1x1) as a float array if it is a square (``dim`` x ``dim``
    when given), symmetric, positive semi-definite matrix; else a ValueError naming ``name``."""
    try:
        cov = np.atleast_2d(np.asarray(matrix, dtype=float))
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number or a matrix of numbers, got {matrix!r}") from None
    n = cov.shape[0] if dim is None else dim
    if cov.shape != (n, n):
        size = "square" if dim is None else f"{n}x{n}"
        raise ValueError(f"{name} must be a {size} matrix, got shape {cov.shape}")
    if not np.allclose(cov, cov.T, atol=1e-10):
        raise ValueError(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh((cov + cov.T) / 2)) < -1e-10:
        raise ValueError(f"{name} must be positive semi-definite")
    return cov


@dataclass(frozen=True)
class TargetPolicy:
    """A fixed evaluation policy pi_e mapping contexts to action probabilities.

    Supported kinds are context-free: ``uniform`` (1/K each), ``constant``
    (an explicit probability vector) and ``point_mass`` (all mass on one arm).
    """

    kind: str = "uniform"
    probs: np.ndarray | None = None
    arm: int | None = None

    def __post_init__(self):
        if self.kind not in ("uniform", "constant", "point_mass"):
            raise ValueError(f"unknown target policy kind {self.kind!r}")
        for name, kind in (("probs", "constant"), ("arm", "point_mass")):
            if getattr(self, name) is not None and self.kind != kind:
                raise ValueError(
                    f"target_policy.{name} is not used by a {self.kind} target policy")
        if self.kind == "constant":
            if self.probs is None:
                raise ValueError("a constant target policy requires target_policy.probs")
            try:
                p = np.asarray(self.probs, dtype=float)
            except (TypeError, ValueError):
                raise ValueError(
                    f"target_policy.probs must be numbers, got {self.probs!r}") from None
            if p.ndim != 1 or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
                raise ValueError("target_policy.probs must lie on the simplex")
            object.__setattr__(self, "probs", p)
        if self.kind == "point_mass":
            if self.arm is None:
                raise ValueError("a point_mass target policy requires target_policy.arm")
            object.__setattr__(self, "arm", whole_number(self.arm, "target_policy.arm"))
            if self.arm < 0:
                raise ValueError(f"target_policy.arm: point_mass arm {self.arm} is negative")

    def vector(self, num_arms: int) -> np.ndarray:
        """Probability over arms (identical at every context)."""
        if self.kind == "uniform":
            return np.full(num_arms, 1.0 / num_arms)
        if self.kind == "constant":
            if len(self.probs) != num_arms:
                raise ValueError(f"target_policy.probs has {len(self.probs)} entries, "
                                 f"but there are {num_arms} arms")
            return np.asarray(self.probs, dtype=float)
        if self.arm >= num_arms:
            raise ValueError(f"target_policy.arm: point_mass arm {self.arm} is out of range "
                             f"for {num_arms} arms")
        out = np.zeros(num_arms)
        out[self.arm] = 1.0
        return out


@dataclass(frozen=True)
class ScoreTarget:
    """Which estimand family is in play plus its fixed inputs."""

    family: str
    sigma_e: np.ndarray | None = None
    target_policy: TargetPolicy | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown score family {self.family!r}")
        if self.family == "noisy_context":
            if self.sigma_e is None:
                raise ValueError("noisy_context target requires sigma_e")
            object.__setattr__(self, "sigma_e", check_covariance(self.sigma_e, "sigma_e"))
        if self.family == "ope" and self.target_policy is None:
            raise ValueError("ope target requires a target_policy")

    def theta_dim(self, context_dim: int) -> int:
        return 1 if self.family == "ope" else context_dim

    def regressors(self, contexts: np.ndarray) -> np.ndarray:
        """z: the context itself, or a column of ones for the value target."""
        if self.family == "ope":
            return np.ones(contexts.shape[:-1] + (1,))
        return contexts

    def outcome_scale(self, arm, num_arms: int | None):
        """c_a: the target policy's probability of ``arm`` (one per entry of an arm array) for ope, else 1."""
        if self.family != "ope":
            return 1.0
        if num_arms is None:
            raise ValueError("num_arms required for the ope score")
        return self.target_policy.vector(num_arms)[arm]

    @property
    def shift(self):
        """S: Sigma_e for noisy_context, else 0."""
        return self.sigma_e if self.family == "noisy_context" else 0.0


@dataclass
class BanditLog:
    """The adaptively collected dataset: one row per round.

    Arrays are aligned over rounds t = 1..T. ``latents`` is present only for
    environments with a latent state. The fields are exactly the columns of
    the CSV serialization, so ``read_log_csv(path, num_arms=K)`` gives back the
    log ``write_log_csv`` wrote, bit for bit (a header-only log reads without
    latents). Arms are 0-based in memory and 1-based in the CSV.
    """

    contexts: np.ndarray          # (T, d)
    arms: np.ndarray              # (T,) int
    propensities: np.ndarray      # (T,) realized selection probabilities
    outcomes: np.ndarray          # (T,)
    num_arms: int
    latents: np.ndarray | None = None  # (T, d) or None

    def __post_init__(self):
        contexts = np.asarray(self.contexts, dtype=float)
        if contexts.ndim == 1:  # a single-feature log: one column, T rows
            contexts = contexts[:, None]
        self.contexts = contexts
        self.arms = np.asarray(self.arms, dtype=np.int64)
        self.propensities = np.asarray(self.propensities, dtype=float)
        self.outcomes = np.asarray(self.outcomes, dtype=float)
        T = self.contexts.shape[0]
        if not (self.arms.shape[0] == self.propensities.shape[0] == self.outcomes.shape[0] == T):
            raise ValueError("log columns have mismatched lengths")
        if T and (self.arms.min() < 0 or self.arms.max() >= self.num_arms):
            raise ValueError("arm indices out of range")
        if T and (self.propensities.min() <= 0.0 or self.propensities.max() > 1.0 + 1e-12):
            raise ValueError("propensities must lie in (0, 1]")

    @property
    def horizon(self) -> int:
        return self.contexts.shape[0]

    @property
    def context_dim(self) -> int:
        return self.contexts.shape[1]


@dataclass(frozen=True)
class AuxiliaryData:
    """Offline paired observations of (observed context, true latent state)."""

    observed: np.ndarray  # (n, d)
    latent: np.ndarray    # (n, d)

    def __post_init__(self):
        obs = np.atleast_2d(np.asarray(self.observed, dtype=float))
        lat = np.atleast_2d(np.asarray(self.latent, dtype=float))
        if obs.shape != lat.shape or obs.shape[0] < 1:
            raise ValueError("auxiliary data must pair observed/latent rows of equal shape")
        object.__setattr__(self, "observed", obs)
        object.__setattr__(self, "latent", lat)

    @property
    def size(self) -> int:
        return self.observed.shape[0]

    def sigma_e_hat(self) -> np.ndarray:
        """Mean outer product of the paired measurement errors."""
        err = self.observed - self.latent
        return err.T @ err / self.size


def score_g(target: ScoreTarget, arm: np.ndarray, x: np.ndarray, y: np.ndarray,
            theta: np.ndarray, num_arms: int | None = None) -> np.ndarray:
    """Evaluate the family score g(x, y; theta) row-wise, one row per observation.

    Each observation has its own arm and theta: ``arm`` (B,), ``x`` (B, d),
    ``y`` (B,) and ``theta`` (B, p) give (B, p). Each row's (z z' - S) theta
    is one BLAS call, as for a single observation.
    """
    Z = target.regressors(x)
    if theta.shape != Z.shape:
        raise ValueError("theta dimension must match the score dimension")
    return _score_rows(Z, target.outcome_scale(arm, num_arms), _shift(target, Z.shape[-1]),
                       y, theta)


def _score_rows(Z: np.ndarray, c, S, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """``score_g`` from its pieces: regressor rows Z, c_a per row (or 1.0) and S."""
    zz = Z[:, :, None] * Z[:, None, :] - S
    return Z * (c * y)[:, None] - np.matmul(zz, theta[:, :, None])[:, :, 0]


def _shift(target: ScoreTarget, width: int):
    """S for ``width`` regressor columns; a ValueError if Sigma_e has another size."""
    S = target.shift
    if isinstance(S, np.ndarray) and S.shape != (width, width):
        raise ValueError(f"sigma_e has shape {S.shape}, but Z has {width} columns")
    return S


def _design(target: ScoreTarget, Z: np.ndarray, w: np.ndarray | None, scale: float) -> np.ndarray:
    """sum_t w_t (z_t z_t' - S) / scale over regressor rows ``Z``: the score's gradient."""
    design = (Z.T @ Z if w is None else (Z * w[:, None]).T @ Z) / scale
    S = _shift(target, Z.shape[1])
    if isinstance(S, np.ndarray):  # the scalar zero shift adds nothing
        design = design - ((Z.shape[0] if w is None else w.sum()) / scale) * S
    return design


def _moment(target: ScoreTarget, arm: int, Z: np.ndarray, Y: np.ndarray,
            w: np.ndarray | None, num_arms: int, scale: float) -> np.ndarray:
    """sum_t w_t z_t c_a y_t / scale; unit weights if ``w`` is None."""
    moment = Z.T @ (Y if w is None else w * Y)
    return target.outcome_scale(arm, num_arms) * moment / scale


def normal_equations(target: ScoreTarget, arm: int, X: np.ndarray, Y: np.ndarray,
                     w: np.ndarray | None, num_arms: int, scale: float):
    """(sum_t w_t (z_t z_t' - S), sum_t w_t z_t c_a y_t) / scale; unit weights if ``w`` is None."""
    Z = target.regressors(X)
    return _design(target, Z, w, scale), _moment(target, arm, Z, Y, w, num_arms, scale)


def scores(target: ScoreTarget, arm: int, X: np.ndarray, Y: np.ndarray,
           theta: np.ndarray, num_arms: int, w: np.ndarray | None = None) -> np.ndarray:
    """Rows g(X_t, Y_t; theta), each times w_t when weights are given; (n, p)."""
    Z = target.regressors(X)
    c = target.outcome_scale(arm, num_arms)
    resid = (Y if c == 1.0 else c * Y) - Z @ theta
    if w is not None:
        resid = w * resid
    rows = Z * resid[:, None]
    S = target.shift
    if isinstance(S, np.ndarray):  # the scalar zero shift adds nothing
        shift = S @ theta
        rows += shift if w is None else w[:, None] * shift
    return rows


def _require_conditioned(matrix: np.ndarray, arm: int) -> None:
    """Raise SingularDesign unless ``matrix`` has a finite condition number <= MAX_CONDITION."""
    if matrix.shape == (1, 1):  # cond of a nonzero finite scalar is 1
        cond = 1.0 if np.isfinite(matrix[0, 0]) and matrix[0, 0] != 0.0 else np.inf
    else:
        cond = np.linalg.cond(matrix)
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise SingularDesign(arm, cond)


def _solve(design: np.ndarray, moment: np.ndarray) -> np.ndarray:
    """Root of the normal equations for a design already checked by ``_require_conditioned``."""
    if design.shape == (1, 1):
        return moment / design[0, 0]
    return np.linalg.solve(design, moment)


def _solve_checked(design: np.ndarray, moment: np.ndarray, arm: int) -> np.ndarray:
    """Root of the normal equations, raising SingularDesign on an ill-conditioned design."""
    _require_conditioned(design, arm)
    return _solve(design, moment)


class ArmRows(NamedTuple):
    """One arm's rounds of a log and its weighted design, built once by ``arm_rows``."""

    X: np.ndarray       # (n, d) contexts of the rounds that pulled the arm
    Y: np.ndarray       # (n,) their outcomes
    w: np.ndarray       # (n,) their inverse propensities
    design: np.ndarray  # (p, p) sum_t w_t (z_t z_t' - S) / T, checked by _require_conditioned


def arm_rows(log: BanditLog, target: ScoreTarget, arm: int) -> ArmRows:
    """The rows of ``arm`` in ``log`` with their design: the input of the solve and its sandwich.

    Raises NoDataForArm if the arm was never pulled, then SingularDesign if
    its design is ill-conditioned.
    """
    idx = np.flatnonzero(log.arms == arm)
    if idx.size == 0:
        raise NoDataForArm(arm)
    X = log.contexts.take(idx, axis=0)
    w = 1.0 / log.propensities.take(idx)
    design = _design(target, target.regressors(X), w, log.horizon)
    _require_conditioned(design, arm)
    return ArmRows(X, log.outcomes.take(idx), w, design)


def ipwz_solve(log: BanditLog, target: ScoreTarget, arm: int,
               rows: ArmRows | None = None) -> np.ndarray:
    """Exact root of the weighted estimating equation for one arm.

    ``rows`` are ``arm_rows(log, target, arm)`` when the caller has them.
    """
    X, Y, w, design = arm_rows(log, target, arm) if rows is None else rows
    return _solve(design, _moment(target, arm, target.regressors(X), Y, w,
                                  log.num_arms, log.horizon))


# --- CSV serialization -------------------------------------------------------
#
# Schema: t, x_1..x_d, s_1..s_d, a, pi, y, one row per round, each line ending
# in "\r\n" (the ``csv`` module's terminator). Latent cells are blank when the
# environment has no latent state; arms are written 1-based; every float is
# written with 17 significant digits (``%.17g``), which reads back as the same
# double, since inverse weights are sensitive to the last bit.

# Rows formatted per ``write`` call: bounds the writer's memory at a few MB.
_WRITE_CHUNK_ROWS = 4096


def _log_header(d: int) -> list[str]:
    return (["t"] + [f"x_{j}" for j in range(1, d + 1)]
            + [f"s_{j}" for j in range(1, d + 1)] + ["a", "pi", "y"])


class LogFormatError(ValueError):
    """A log CSV that does not follow the schema; the message names the file."""


def write_log_csv(log: BanditLog, path) -> None:
    r"""Write ``log`` to ``path`` as CSV in the schema above.

    The rows are formatted ``_WRITE_CHUNK_ROWS`` at a time from one ``%``
    template and written with one ``write`` per chunk. The bytes are those of
    a ``csv.writer`` loop writing ``f"{v:.17g}"`` cells: ``"\r\n"`` line
    endings and no quoting, since no cell holds a comma or a quote.
    """
    d = log.context_dim
    floats = ",%.17g" * d
    template = "%d" + floats + (floats if log.latents is not None else "," * d) \
        + ",%d,%.17g,%.17g\r\n"
    columns = [np.arange(1, log.horizon + 1), *log.contexts.T]
    if log.latents is not None:
        columns += list(np.asarray(log.latents).T)
    columns += [log.arms + 1, log.propensities, log.outcomes]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_log_header(d)) + "\r\n")
        for start in range(0, log.horizon, _WRITE_CHUNK_ROWS):
            chunk = [col[start:start + _WRITE_CHUNK_ROWS].tolist() for col in columns]
            fh.write("".join([template % row for row in zip(*chunk)]))


def read_log_csv(path, num_arms: int | None = None) -> BanditLog:
    r"""Read a log written by ``write_log_csv``.

    ``num_arms`` is the experiment's K: an arm outside 0..K-1 is rejected, and
    an arm that was never pulled stays in the log (``infer`` then reports it).
    Without it K is taken as the largest arm seen plus one, so an unpulled
    last arm cannot be told from a smaller experiment.

    The header and the first data row fix d and whether latents are present;
    one ``np.loadtxt`` call then parses the rest, straight from the file.
    Hand-written logs with ``"\n"`` line endings, blank lines and short float
    spellings ("0.5", "-0", "2.0" for an arm) read too. A header-only log
    (T = 0) cannot say whether latents exist and reads with ``latents=None``.
    A log that breaks the schema (wrong header, a short row, a cell that is
    not a number, an arm that is not a whole number, a propensity outside
    (0, 1]) raises ``LogFormatError`` naming ``path``.
    """
    try:
        return _read_log(path, num_arms)
    except ValueError as exc:
        raise LogFormatError(f"log {path}: {exc}") from exc


def _read_log(path, num_arms: int | None) -> BanditLog:
    with open(path, newline="") as fh:
        names = fh.readline().rstrip("\r\n").split(",")
        first = next((line for line in fh if line.strip()), "")
    d = sum(1 for name in names if name.startswith("x_"))
    if names != _log_header(d):
        raise ValueError(f"header {','.join(names)!r} is not t,x_1..x_d,s_1..s_d,a,pi,y")
    if not first:
        return BanditLog(contexts=np.zeros((0, d)), arms=np.zeros(0, dtype=np.int64),
                         propensities=np.zeros(0), outcomes=np.zeros(0),
                         num_arms=1 if num_arms is None else num_arms)
    cells = first.rstrip("\r\n").split(",")
    have_latent = len(cells) > 1 + d and cells[1 + d] != ""
    usecols = [*range(1, 1 + d), *(range(1 + d, 1 + 2 * d) if have_latent else ()),
               1 + 2 * d, 2 + 2 * d, 3 + 2 * d]
    data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=usecols, ndmin=2)
    width = 2 * d if have_latent else d
    arm_cells = data[:, width]
    whole = np.isfinite(arm_cells) & (np.floor(arm_cells) == arm_cells) \
        & (np.abs(arm_cells) < 2.0 ** 53)
    if not whole.all():
        row = int(np.argmin(whole))
        raise ValueError(f"arm {float(arm_cells[row])!r} in data row {row + 1} "
                         "is not a whole number")
    arms = arm_cells.astype(np.int64) - 1
    if num_arms is None:
        num_arms = int(arms.max()) + 1
    elif arms.min() < 0 or arms.max() >= num_arms:
        bad = int(arms[(arms < 0) | (arms >= num_arms)][0]) + 1
        raise ValueError(f"arm {bad} (1-based) is outside 1..{num_arms}")
    # Contiguous copies: strided views of ``data`` could change the summation
    # order of later reductions, and so the last bits of the estimates.
    return BanditLog(
        contexts=data[:, :d].copy(), arms=arms, propensities=data[:, width + 1].copy(),
        outcomes=data[:, width + 2].copy(), num_arms=num_arms,
        latents=data[:, d:width].copy() if have_latent else None,
    )
