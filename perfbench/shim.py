"""Run one ``banditlab`` CLI command in a child process and time it.

Usage (started by ``run.py``, never by hand)::

    python3 perfbench/shim.py MODE TIMING_JSON SPAWN_TIME -- <banditlab argv>

MODE is one of

* ``run``: run the command untraced;
* ``probe``: stop the process the moment the command's set-up ends, so the
  parent can time set-up alone;
* ``trace``: run the command with span-recording wrappers installed on the
  public names the CLI and the harness call, and write the spans next to
  TIMING_JSON (``.npz``) when the command returns.

Set-up ends at the first of these *ready markers*: the return of
``harness.oracle_thetas`` (``coverage``, ``diagnose``, ``compare-ope``), the
entry of ``cli.run_trajectory`` (``simulate``) or the entry of
``cli.read_log_csv`` (``infer``). The markers wrap a handful of calls per
command, so they cost nothing measurable. SPAWN_TIME is the parent's
``time.monotonic()`` just before it started this process; CLOCK_MONOTONIC is
shared by all processes, so ``ready - SPAWN_TIME`` covers interpreter start,
imports, config parsing, ``build_environment`` and the oracle.

The package is imported from ``src/`` of the working directory, never from an
installed copy; the parent checks ``banditlab_file`` to be sure.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time
from array import array

# Public names wrapped in each module's namespace: the names ``harness`` and
# ``cli`` import, plus the ones ``inference`` calls inside ``ope_value`` and
# ``estimate_report``, plus ``policy.clip_simplex``. A name a module does not
# have is skipped, so the tracer survives a refactor that drops one.
TRACED_NAMES = {
    "banditlab.harness": (
        "sample_rounds", "stream", "action_distribution", "update_state",
        "action_distribution_batch", "ipwz_solve", "sandwich_variance",
        "confidence_intervals", "ope_value", "oracle_target", "cadr_ope",
    ),
    "banditlab.cli": (
        "replicate", "compare_ope", "write_log_csv", "read_log_csv", "ope_value",
    ),
    "banditlab.inference": ("ipwz_solve", "sandwich_variance", "confidence_intervals"),
    "banditlab.policy": ("clip_simplex",),
}
ROOT_SPAN = "cli.main"


def _log_nbytes(log) -> int:
    total = 0
    for name in ("contexts", "arms", "propensities", "outcomes", "latents", "distributions"):
        arr = getattr(log, name, None)
        if arr is not None:
            total += int(arr.nbytes)
    return total


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Integer attribute recorded per span, by span name: rounds drawn, rows
# written or read, the CADR horizon, or the size of the log analysed.
SPAN_ATTRS = {
    "sample_rounds": lambda a, k, r: int(_arg(a, k, 2, "n")),
    "write_log_csv": lambda a, k, r: int(_arg(a, k, 0, "log").horizon),
    "read_log_csv": lambda a, k, r: int(r.horizon),
    "cadr_ope": lambda a, k, r: int(_arg(a, k, 0, "log").horizon),
    "ipwz_solve": lambda a, k, r: _log_nbytes(_arg(a, k, 0, "log")),
    "ope_value": lambda a, k, r: _log_nbytes(_arg(a, k, 0, "log")),
}


class Tracer:
    """In-memory span recorder: name, start, end, parent, replication id."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.kind = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.rep = array("q")
        self.attr = array("q")
        self.errors: dict[int, str] = {}
        self.stack = [-1]
        self.current_rep = -1

    def open(self, name: str) -> int:
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.start)
        self.kind.append(nid)
        self.parent.append(self.stack[-1])
        self.rep.append(self.current_rep)
        self.attr.append(0)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, name: str, fn):
        attr_of = SPAN_ATTRS.get(name)
        is_stream = name == "stream"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_stream:
                # stream(seed, rep, purpose) inside a replication; the path is
                # (seed, purpose) for a lone trajectory, which gets id -1.
                self.current_rep = int(args[1]) if len(args) >= 3 else -1
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[idx] = type(exc).__name__
                raise
            finally:
                self.close(idx)
            if attr_of is not None:
                self.attr[idx] = attr_of(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        import importlib

        for module_name, names in TRACED_NAMES.items():
            module = importlib.import_module(module_name)
            for name in names:
                if callable(getattr(module, name, None)):
                    setattr(module, name, self.wrap(name, getattr(module, name)))

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            kind=np.frombuffer(self.kind, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            rep=np.frombuffer(self.rep, dtype=np.int64),
            attr=np.frombuffer(self.attr, dtype=np.int64),
            error_idx=np.array(sorted(self.errors), dtype=np.int64),
            error_type=np.array([self.errors[i] for i in sorted(self.errors)], dtype=str),
        )


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[0] not in ("run", "probe", "trace") or argv[3] != "--":
        print("usage: shim.py {run,probe,trace} TIMING_JSON SPAWN_TIME -- ARGV", file=sys.stderr)
        return 1
    mode, timing_path, spawn, cli_argv = argv[0], argv[1], float(argv[2]), argv[4:]
    t_import = time.monotonic()
    import banditlab
    from banditlab import cli, harness, inference

    record = {
        "spawn": spawn,
        "import_s": time.monotonic() - t_import,
        "banditlab_file": os.path.abspath(banditlab.__file__),
        "ready": None,
        "ready_marker": None,
    }

    def write_record():
        with open(timing_path, "w") as fh:
            json.dump(record, fh)

    def mark(name):
        if record["ready"] is None:
            record["ready"] = time.monotonic()
            record["ready_marker"] = name
            if mode == "probe":
                write_record()
                os._exit(0)

    def after(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            mark(name)
            return result
        return wrapper

    def before(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mark(name)
            return fn(*args, **kwargs)
        return wrapper

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    if hasattr(harness, "oracle_thetas"):
        harness.oracle_thetas = after("oracle_thetas", harness.oracle_thetas)
    for name in ("run_trajectory", "read_log_csv"):
        if hasattr(cli, name):
            setattr(cli, name, before(name, getattr(cli, name)))

    record["main_start"] = time.monotonic()
    if tracer is not None:
        root = tracer.open(ROOT_SPAN)
    try:
        rc = cli.main(cli_argv)
    finally:
        if tracer is not None:
            tracer.close(root)
    record["end"] = time.monotonic()
    record["rc"] = rc
    if record["ready"] is None:
        record["ready"] = record["main_start"]
        record["ready_marker"] = "main"
    record["maxrss_self_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["maxrss_children_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    counters = getattr(inference, "counters", {})
    record["negative_variance_floored"] = int(counters.get("negative_variance_floored", 0))
    if tracer is not None:
        tracer.save(os.path.splitext(timing_path)[0] + ".npz")
    write_record()
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
