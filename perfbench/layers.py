"""Per-layer metrics from the spans of a traced, serial pass.

Each traced CLI call leaves an ``.npz`` file of spans (see ``shim.Tracer``).
Times are inclusive of child spans unless a name says ``self``; a span's self
time is its duration minus the durations of its direct children, which run
one after another in a serial process and so never overlap.

Per-round and per-row figures are divided by the rounds ``sample_rounds`` drew
or the rows written or read, never by the number of calls, so they keep their
meaning when a later change batches those calls. A metric whose layer the
workload never reaches reads 0 and its ``.calls`` count, where it has one,
reads 0 too.

The recorder's own cost stays in the figures: about 0.6 us inside each span
and 1.3 us in its parent's self time on a 2-vCPU Xeon (see BASELINE.md).
Compare traced figures with traced figures only.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

LOOPED_KINDS = ("eps_greedy_mab", "ucb_mab", "ts_mab", "boltzmann_ridge",
                "boltzmann_sgd", "ipwz_greedy", "linucb")

# (name, unit, better, what it should move). The last field is documentation
# only: the end-to-end metric and workload each layer metric predicts.
PER_LAYER = [
    *[(f"policy.{k}.us_per_round", "us", "lower",
       "reps_per_s on panel_loop (and ope_compare for boltzmann_ridge)") for k in LOOPED_KINDS],
    *[(f"policy.{k}.calls", "count", "lower", "reps_per_s on panel_loop") for k in LOOPED_KINDS],
    ("policy.clip_simplex.us_per_call", "us", "lower", "reps_per_s on panel_loop"),
    ("policy.clip_simplex.calls", "count", "lower", "reps_per_s on panel_loop"),
    ("policy.action_distribution_batch.us_per_call", "us", "lower",
     "reps_per_s on ope_compare (CADR replay)"),
    ("harness.loop.us_per_round", "us", "lower", "reps_per_s on panel_loop"),
    ("harness.replicate.self_ms", "ms", "lower", "reps_per_s on panel_vectorized"),
    ("cli.write_outputs_ms", "ms", "lower", "reps_per_s on panel_vectorized"),
    ("harness.pool.efficiency", "ratio", "higher",
     "reps_per_s on panel_loop and panel_vectorized"),
    ("harness.cadr_ope.ms_per_call", "ms", "lower", "reps_per_s on ope_compare"),
    ("harness.cadr_ope.replay_share", "ratio", "lower", "reps_per_s on ope_compare"),
    ("harness.cadr_ope.rows_scanned", "count", "lower", "reps_per_s on ope_compare"),
    ("env.sample_rounds.us_per_round", "us", "lower",
     "reps_per_s on panel_vectorized; log_rows_per_s on log_roundtrip"),
    ("rng.stream.us_per_call", "us", "lower", "reps_per_s on panel_vectorized"),
    ("estimator.ipwz_solve.us_per_call", "us", "lower", "reps_per_s on panel_vectorized"),
    ("inference.sandwich_variance.us_per_call", "us", "lower",
     "reps_per_s on panel_vectorized"),
    ("inference.confidence_intervals.us_per_call", "us", "lower",
     "reps_per_s on panel_vectorized"),
    ("inference.ope_value.us_per_call", "us", "lower",
     "reps_per_s on panel_vectorized and ope_compare"),
    ("estimator.write_log_csv.us_per_row", "us", "lower", "log_rows_per_s on log_roundtrip"),
    ("estimator.read_log_csv.us_per_row", "us", "lower", "log_rows_per_s on log_roundtrip"),
    ("estimator.log_csv.bytes_per_row", "B", "lower", "log_rows_per_s on log_roundtrip"),
    ("estimator.failures.no_data_for_arm", "count", "lower", "success_ratio on all"),
    ("estimator.failures.singular_design", "count", "lower", "success_ratio on all"),
    ("inference.negative_variance_floored", "count", "lower", "success_ratio on all"),
    ("env.oracle_target_ms", "ms", "lower", "setup_s on all"),
    ("cli.import_s", "s", "lower", "setup_s on all"),
    ("harness.log_bytes_per_rep", "B", "lower", "peak_rss_mb on panel_vectorized"),
    ("coverage_gap_95", "abs", "lower", "none: a correctness figure for panel_vectorized"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced serial wall"),
]

# Spans that start the analysis of a finished trajectory. A trajectory window
# runs from a ``stream`` call to the start of the next of these spans; the
# loop's self time is what the windows hold outside their top-level spans.
_WINDOW_END = ("ipwz_solve", "sandwich_variance", "confidence_intervals", "ope_value",
               "write_log_csv", "cadr_ope")
_POLICY = ("action_distribution", "update_state")
_FAILURES = {"NoDataForArm": "no_data_for_arm", "SingularDesign": "singular_design"}


class CallSpans:
    """Spans of one traced CLI call, with derived columns."""

    def __init__(self, path: str):
        with np.load(path) as z:
            self.names = [str(n) for n in z["names"]]
            self.kind = z["kind"]
            self.start = z["start"]
            self.end = z["end"]
            self.parent = z["parent"]
            self.rep = z["rep"]
            self.attr = z["attr"]
            self.errors = dict(zip(z["error_idx"].tolist(), z["error_type"].tolist()))
        self.dur = self.end - self.start
        n = len(self.kind)
        has_parent = self.parent >= 0
        self.child_time = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                                      minlength=n)
        cadr = self.is_("cadr_ope")
        under = np.zeros(n, dtype=bool)
        for i in np.flatnonzero(has_parent):  # parents precede children
            p = self.parent[i]
            under[i] = under[p] or cadr[p]
        self.under_cadr = under

    def is_(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.kind, ids)

    def total(self, mask) -> float:
        return float(self.dur[mask].sum())

    def trajectory_windows(self) -> np.ndarray:
        """Merged [start, end) intervals in which trajectories were simulated."""
        opens = self.start[self.is_("stream")]
        closes = np.sort(np.concatenate([self.start[self.is_(*_WINDOW_END)],
                                         self.end[self.parent < 0]]))
        if opens.size == 0 or closes.size == 0:
            return np.zeros((0, 2), dtype=np.int64)
        ends = closes[np.minimum(np.searchsorted(closes, opens, side="right"), closes.size - 1)]
        merged: list[list[int]] = []
        for s, e in sorted(zip(opens.tolist(), ends.tolist())):
            if merged and s <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        return np.array(merged, dtype=np.int64).reshape(-1, 2)

    def window_self(self, windows: np.ndarray) -> np.ndarray:
        """Per window: its length minus the spans that start directly inside it."""
        if windows.size == 0:
            return np.zeros(0)
        which = np.searchsorted(windows[:, 0], self.start, side="right") - 1
        inside = (which >= 0) & (self.start < windows[np.maximum(which, 0), 1])
        parent_inside = np.zeros_like(inside)
        has_parent = self.parent >= 0
        parent_inside[has_parent] = inside[self.parent[has_parent]]
        top = inside & ~parent_inside
        covered = np.bincount(which[top], weights=self.dur[top], minlength=len(windows))
        return (windows[:, 1] - windows[:, 0]) - covered


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def per_layer_metrics(traced: list[tuple[CallSpans, str]], *, serial_work_s: float,
                      parallel_work_s: float, serial_wall_s: float, traced_wall_s: float,
                      workers: int, import_s: float, negative_variance_floored: int,
                      csv_bytes_per_row: float, coverage_gap_95: float) -> dict[str, float]:
    """Every PER_LAYER metric from the traced calls, each given with its policy kind."""
    acc = defaultdict(float)
    log_bytes: dict[tuple[int, int], int] = {}
    for ci, (sp, kind) in enumerate(traced):
        outside = ~sp.under_cadr
        policy = sp.is_(*_POLICY) & outside
        rounds = float(sp.attr[sp.is_("sample_rounds")].sum())
        if kind in LOOPED_KINDS:
            acc[f"{kind}.ns"] += sp.total(policy)
            acc[f"{kind}.calls"] += int(policy.sum())
            acc[f"{kind}.rounds"] += rounds
        acc["rounds"] += rounds
        for name in ("clip_simplex", "action_distribution_batch", "stream", "ipwz_solve",
                     "sandwich_variance", "confidence_intervals", "ope_value", "cadr_ope",
                     "oracle_target", "sample_rounds", "write_log_csv", "read_log_csv"):
            mask = sp.is_(name)
            acc[f"{name}.ns"] += sp.total(mask)
            acc[f"{name}.calls"] += int(mask.sum())
            acc[f"{name}.attr"] += float(sp.attr[mask].sum())

        windows = sp.trajectory_windows()
        loop_self = sp.window_self(windows)
        acc["loop.ns"] += float(loop_self.sum())
        for r in np.flatnonzero(sp.is_("replicate")):
            inner = (windows[:, 0] >= sp.start[r]) & (windows[:, 1] <= sp.end[r])
            acc["replicate.self_ns"] += (sp.dur[r] - sp.child_time[r]
                                         - float(loop_self[inner].sum()))
            acc["replicate.calls"] += 1

        roots = np.flatnonzero(sp.parent < 0)
        for r in roots:
            children = sp.parent == r
            last = sp.end[children].max() if children.any() else sp.start[r]
            acc["write_outputs.ns"] += float(sp.end[r] - last)
        acc["cli_calls"] += len(roots)

        cadr = sp.is_("cadr_ope")
        replay = sp.is_("action_distribution_batch", "update_state") & np.isin(
            sp.parent, np.flatnonzero(cadr))
        acc["cadr.replay_ns"] += sp.total(replay)
        horizons = sp.attr[cadr].astype(float)
        acc["cadr.rows_scanned"] += float((horizons * (horizons - 1) / 2).sum())

        for idx, etype in sp.errors.items():
            if etype in _FAILURES and sp.names[sp.kind[idx]] in ("ipwz_solve",
                                                                 "sandwich_variance"):
                acc[f"failures.{_FAILURES[etype]}"] += 1
        for i in np.flatnonzero(sp.is_("ipwz_solve", "ope_value") & outside):
            key = (ci, int(sp.rep[i]))
            log_bytes[key] = max(log_bytes.get(key, 0), int(sp.attr[i]))

    out = {}
    for k in LOOPED_KINDS:
        out[f"policy.{k}.us_per_round"] = _per(acc[f"{k}.ns"], acc[f"{k}.rounds"], 1e-3)
        out[f"policy.{k}.calls"] = int(acc[f"{k}.calls"])
    out["policy.clip_simplex.us_per_call"] = _per(acc["clip_simplex.ns"],
                                                  acc["clip_simplex.calls"], 1e-3)
    out["policy.clip_simplex.calls"] = int(acc["clip_simplex.calls"])
    out["policy.action_distribution_batch.us_per_call"] = _per(
        acc["action_distribution_batch.ns"], acc["action_distribution_batch.calls"], 1e-3)
    out["harness.loop.us_per_round"] = _per(acc["loop.ns"], acc["rounds"], 1e-3)
    out["harness.replicate.self_ms"] = _per(acc["replicate.self_ns"],
                                            acc["replicate.calls"], 1e-6)
    out["cli.write_outputs_ms"] = _per(acc["write_outputs.ns"], acc["cli_calls"], 1e-6)
    out["harness.pool.efficiency"] = _per(serial_work_s, workers * parallel_work_s)
    out["harness.cadr_ope.ms_per_call"] = _per(acc["cadr_ope.ns"], acc["cadr_ope.calls"], 1e-6)
    out["harness.cadr_ope.replay_share"] = _per(acc["cadr.replay_ns"], acc["cadr_ope.ns"])
    out["harness.cadr_ope.rows_scanned"] = _per(acc["cadr.rows_scanned"], acc["cadr_ope.calls"])
    out["env.sample_rounds.us_per_round"] = _per(acc["sample_rounds.ns"],
                                                 acc["sample_rounds.attr"], 1e-3)
    out["rng.stream.us_per_call"] = _per(acc["stream.ns"], acc["stream.calls"], 1e-3)
    out["estimator.ipwz_solve.us_per_call"] = _per(acc["ipwz_solve.ns"],
                                                   acc["ipwz_solve.calls"], 1e-3)
    for name in ("sandwich_variance", "confidence_intervals", "ope_value"):
        out[f"inference.{name}.us_per_call"] = _per(acc[f"{name}.ns"], acc[f"{name}.calls"], 1e-3)
    for name in ("write_log_csv", "read_log_csv"):
        out[f"estimator.{name}.us_per_row"] = _per(acc[f"{name}.ns"], acc[f"{name}.attr"], 1e-3)
    out["estimator.log_csv.bytes_per_row"] = csv_bytes_per_row
    for name in _FAILURES.values():
        out[f"estimator.failures.{name}"] = int(acc[f"failures.{name}"])
    out["inference.negative_variance_floored"] = int(negative_variance_floored)
    out["env.oracle_target_ms"] = _per(acc["oracle_target.ns"], acc["cli_calls"], 1e-6)
    out["cli.import_s"] = import_s
    out["harness.log_bytes_per_rep"] = (float(np.mean(list(log_bytes.values())))
                                        if log_bytes else 0.0)
    out["coverage_gap_95"] = coverage_gap_95
    out["trace.overhead_s"] = traced_wall_s - serial_wall_s
    return out
