"""banditlab benchmark: four CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (it needs ``src/banditlab`` and
``configs/``)::

    python3 perfbench/run.py --workload panel_loop --seconds 18 --trace 0
    python3 perfbench/run.py --workload ope_compare --seed 7 --trace 1

``--seed`` is passed to every CLI call as ``--set seed=N``; without it each
config keeps its pinned seed. Every CLI call is a fresh ``banditlab``
process (``perfbench/shim.py`` around ``banditlab.cli.main``); parallel
passes use ``--workers 2`` (the machine this was written on has 2 cores).

``--trace 0`` times the workload untraced. It runs whole passes over the
workload's calls until the time measured after set-up is within half a pass
of ``--seconds`` (one pass at least, and no new pass that would end after
4 x ``--seconds``). Throughput is work divided by the time after set-up,
summed over calls. ``setup_s`` is the median of five
probes, each a start of the workload's first CLI call stopped at the end of
its set-up (imports, config parse, ``build_environment``, oracle). One probe
runs before each of the first five calls, the rest after the last pass, so
that the probes sample different moments of a run on a noisy machine.

The times behind ``setup_s``, ``reps_per_s`` and ``log_rows_per_s`` are
seconds at a reference machine speed: the run's wall times are divided by the
machine's median slowdown during the run, which ``SpeedSampler`` measures with
a fixed burst of the benchmark's own code. On a shared host the cores' speed
drifts by 20-40% within minutes, which would otherwise swamp the program's own
changes. The wall-clock figures are printed too (``*_wall_s``) and kept per
call in the results file.

``--trace 1`` runs one pass three ways: untraced with 2 workers, untraced
with 1 worker, and traced with 1 worker (spans recorded in pool children
would be lost). It reports the per-layer metrics of ``layers.py``, the pool
efficiency and the tracing overhead.

Every run checks the outputs (see ``check_*``), records SHA-256 digests of
the output files and the run environment in
``.perfbench/results/<workload>-seed<S>-trace<T>-<pid>.json``, and prints as
its last line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``failed / attempted`` is the fail ratio: failed
replications plus CLI calls that exit non-zero or fail a check, over
replications plus CLI calls; ``success_ratio`` is one minus it, because an
end-to-end metric must never read 0.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402

WORKERS = 2
SETUP_PROBES = 5
MAX_RUN_FACTOR = 4  # no new pass that would end after 4 x --seconds
RUN_DEADLINE_S = 170.0  # every CLI call ends by then; a run must exit within 180 s

# (name, unit, better, bound) -- mirrored in BENCHMARK.json.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("reps_per_s", "1/s", "higher", 0.24),
    ("log_rows_per_s", "1/s", "higher", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("success_ratio", "ratio", "higher", 0.001),
]

# Machine-speed sampling (see ``SpeedSampler``).
SPEED_REF_S = 1.2e-3   # CPU time of one burst at the reference machine speed
SPEED_PERIOD_S = 0.05  # one burst every 50 ms: about 1% of a 2-core machine

# The 95% coverage band of acceptance criterion 1, checked at R = 2,500.
COVERAGE_BAND = (0.92, 0.975)
COVERAGE_BAND_REPS = 2500


@dataclass(frozen=True)
class Call:
    """One ``banditlab`` invocation of a workload pass."""

    command: str
    config: str
    sets: tuple = ()
    log_from: int | None = None  # ``infer`` reads the log.csv of this call


@dataclass(frozen=True)
class Workload:
    calls: tuple
    replications: int | None  # --set replications=R on every call when set
    horizon: int | None       # --set horizon=T on every call when set
    traced: dict = field(default_factory=dict)  # smaller sizes for --trace 1
    smoke: dict = field(default_factory=dict)   # tiny sizes for --smoke


LOOP_KINDS = ("eps_greedy_mab", "ucb_mab", "ts_mab", "boltzmann_sgd")

WORKLOADS = {
    # The six configs whose policy runs the per-step Python loop, plus the
    # four other looped kinds on fig3c: all seven looped kinds are timed.
    "panel_loop": Workload(
        calls=(
            Call("diagnose", "fig1_nonconv_linucb"),
            Call("coverage", "fig2a_ms_polynomial_boltzmann"),
            Call("coverage", "fig3c_nc_hard1_boltzmann_gamma10"),
            Call("coverage", "fig3c_nc_hard1_boltzmann_gamma100"),
            Call("coverage", "fig3d_nc_hard2_ipwz_pimin0005"),
            Call("coverage", "fig3d_nc_hard2_ipwz_pimin005"),
            *(Call("coverage", "fig3c_nc_hard1_boltzmann_gamma10", (f"policy.kind={k}",))
              for k in LOOP_KINDS),
        ),
        replications=8, horizon=None,
        traced={"replications": 4},
        smoke={"replications": 2, "horizon": 200},
    ),
    # The random policy skips the step loop: env sampling, per-arm inference,
    # the pool, aggregation and CSV output, at the paper's R = 2,500.
    "panel_vectorized": Workload(
        calls=(Call("coverage", "fig2a_nc_gaussian_random"),
               Call("coverage", "fig1_nonconv_random")),
        replications=2500, horizon=None,
        smoke={"replications": 40, "horizon": 200},
    ),
    # The only workload where CADR (O(T^2) with policy replay) runs.
    "ope_compare": Workload(
        calls=(Call("compare-ope", "fig4_ope_nonconv_boltzmann"),),
        replications=24, horizon=None,
        traced={"replications": 40},
        smoke={"replications": 2, "horizon": 100},
    ),
    # The only path that writes and reads the log CSV.
    "log_roundtrip": Workload(
        calls=(Call("simulate", "fig2a_nc_gaussian_random"),
               Call("infer", "fig2a_nc_gaussian_random", log_from=0)),
        replications=None, horizon=200_000,
        smoke={"horizon": 2000},
    ),
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no checkout, a call hung, ...)."""


@dataclass
class CallResult:
    call: Call
    argv: list
    out_dir: Path
    rc: int
    stdout: str
    stderr: str
    record: dict
    horizon: int
    replications: int
    failed_reps: int = 0
    digest: str = ""
    checks: list = field(default_factory=list)  # (name, ok, detail)

    @property
    def work_s(self) -> float:
        """Wall time after set-up; 0 for a call that did not finish."""
        return self.record["end"] - self.record["ready"] if "end" in self.record else 0.0

    @property
    def wall_s(self) -> float:
        return self.record["end"] - self.record["spawn"] if "end" in self.record else 0.0

    @property
    def setup_s(self) -> float:
        return self.record["ready"] - self.record["spawn"] if "end" in self.record else 0.0

    @property
    def ok(self) -> bool:
        return self.rc == 0 and all(ok for _, ok, _ in self.checks)


# --- machine speed -----------------------------------------------------------


def speed_burst() -> float:
    """CPU seconds of one fixed burst of interpreter and small-array numpy work."""
    import numpy as np

    start = time.thread_time()
    acc, total = np.zeros(4), 0.0
    for i in range(500):
        acc[i & 3] += 1.0
        total += float(acc.sum()) * 0.5
    return time.thread_time() - start


class SpeedSampler(threading.Thread):
    """Samples this machine's speed while a run measures.

    The cores of a shared host run the same code 20-40% faster or slower from
    one minute to the next, and CPU time drifts with wall time (the time is
    not stolen, the cores are slower). So every ``SPEED_PERIOD_S`` this
    thread runs ``speed_burst`` on each allowed core in turn and records its
    CPU time. ``slowdown()`` is the median burst time over ``SPEED_REF_S``;
    dividing the run's times by it gives the times at the reference speed.
    The median over the whole run follows the drift from minute to minute
    without chasing the burst's own jitter. The burst is fixed code of the
    benchmark's own, so a change to the program moves the calls' times and
    not the burst's.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples: list[float] = []  # burst CPU seconds
        self.halt = threading.Event()

    def run(self):
        for k in itertools.count():
            os.sched_setaffinity(0, {self.cpus[k % len(self.cpus)]})  # this thread only
            self.samples.append(speed_burst())
            if self.halt.wait(SPEED_PERIOD_S):
                return

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.halt.set()
        self.join()

    def slowdown(self) -> float:
        return statistics.median(self.samples) / SPEED_REF_S


# --- running calls -----------------------------------------------------------


class Runner:
    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.counter = 0

    def spawn(self, mode: str, argv: list) -> tuple[int, str, str, dict]:
        self.counter += 1
        timing = self.work / f"timing-{self.counter:04d}.json"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before starting a CLI call")
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "shim.py"), mode, str(timing), repr(spawn), "--", *argv],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"CLI call timed out: {' '.join(argv)}")
        record = json.loads(timing.read_text()) if timing.exists() else {}
        record["timing_path"] = str(timing)
        return proc.returncode, out, err, record


def call_argv(call: Call, out_dir: Path, pass_dir: Path, sizes: dict, seed, workers: int) -> list:
    argv = [call.command, "--config", f"configs/{call.config}.json", "--out", str(out_dir),
            "--workers", str(workers)]
    sets = [f"{key}={sizes[key]}" for key in ("replications", "horizon")
            if sizes.get(key) is not None]
    if seed is not None:
        sets.append(f"seed={seed}")
    for item in (*sets, *call.sets):
        argv += ["--set", item]
    if call.log_from is not None:
        argv += ["--log", str(pass_dir / f"{call.log_from:02d}" / "log.csv")]
    return argv


def resolved_horizon(root: Path, call: Call, sizes: dict) -> int:
    if sizes.get("horizon") is not None:
        return int(sizes["horizon"])
    return int(json.loads((root / "configs" / f"{call.config}.json").read_text())["horizon"])


def run_pass(runner: Runner, wl: Workload, sizes: dict, seed, mode: str, workers: int,
             tag: str, before_call=lambda: None) -> list[CallResult]:
    pass_dir = runner.work / tag
    results = []
    for i, call in enumerate(wl.calls):
        before_call()
        out_dir = pass_dir / f"{i:02d}"
        argv = call_argv(call, out_dir, pass_dir, sizes, seed, workers)
        rc, out, err, record = runner.spawn(mode, argv)
        # simulate makes one trajectory and infer analyses it: one replication.
        reps = {"simulate": 1, "infer": 0}.get(call.command, sizes.get("replications") or 0)
        res = CallResult(call, argv, out_dir, rc, out, err, record,
                         resolved_horizon(runner.root, call, sizes), reps)
        check_call(runner.root, res)
        results.append(res)
    return results


def probe_setup(runner: Runner, wl: Workload, sizes: dict, seed) -> float:
    """Set-up time of the workload's first CLI call, stopped where its work starts."""
    out_dir = runner.work / "probe"
    rc, _, err, record = runner.spawn("probe", call_argv(wl.calls[0], out_dir, out_dir, sizes,
                                                         seed, WORKERS))
    if rc != 0 or record.get("ready") is None:
        raise BenchError(f"set-up probe failed (exit {rc}): {err.strip()[-300:]}")
    return record["ready"] - record["spawn"]


# --- checks ------------------------------------------------------------------


def digest_dir(path: Path) -> str:
    """SHA-256 over (name, content digest) of every output file but the manifest.

    ``manifest.json`` records argv, which names the output directory and
    ``--workers``, so it differs between otherwise identical runs.
    """
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file() and f.name != "manifest.json":
            h.update(f.relative_to(path).as_posix().encode())
            h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_call(root: Path, res: CallResult) -> None:
    """Checks every call gets: exit 0, the package under test, sane outputs."""
    checks = res.checks
    checks.append(("exit_0", res.rc == 0, res.stderr.strip()[-300:]))
    src = str((root / "src").resolve())
    where = res.record.get("banditlab_file", "")
    checks.append(("imports_checkout_src", where.startswith(src), where))
    if res.rc != 0:
        return
    res.digest = digest_dir(res.out_dir)
    R = res.replications
    if res.call.command == "coverage":
        m = re.search(r"(\d+) replications used, (\d+) failed", res.stdout)
        used, failed = (int(m.group(1)), int(m.group(2))) if m else (-1, -1)
        res.failed_reps = max(failed, 0)
        checks.append(("replications_accounted", used + failed == R,
                       f"used {used} + failed {failed} vs {R}"))
        rows = read_csv(res.out_dir / "coverage.csv")
        values = [float(r["empirical_coverage"]) for r in rows]
        checks.append(("coverage_in_unit_interval",
                       bool(values) and all(0.0 <= v <= 1.0 for v in values), str(values)))
    elif res.call.command == "diagnose":
        hist = sorted(res.out_dir.glob("diagnostic_ctx*_arm*.csv"))
        counts = [sum(int(r["count"]) for r in read_csv(h)) for h in hist]
        checks.append(("histograms_count_every_rep", bool(counts) and all(c == R for c in counts),
                       str(counts)))
    elif res.call.command == "compare-ope":
        rows = read_csv(res.out_dir / "compare_ope.csv")
        methods = {r["method"] for r in rows}
        finite = all(math.isfinite(float(r["mean_value"])) for r in rows)
        checks.append(("ipwz_and_cadr_reported", {"ipwz", "cadr_zero"} <= methods and finite,
                       str(sorted(methods))))
    elif res.call.command == "simulate":
        with open(res.out_dir / "log.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        checks.append(("log_has_every_round", rows == res.horizon, f"{rows} rows"))


def coverage_95(res: CallResult) -> list[float]:
    """Empirical 95% coverage of every cell of a finished coverage call."""
    if res.rc != 0:
        return []
    return [float(r["empirical_coverage"]) for r in read_csv(res.out_dir / "coverage.csv")
            if float(r["level"]) == 0.95]


def coverage_gap_95(results: list[CallResult]) -> float:
    """Max over 95% cells of |coverage - 0.95| over the R = 2,500 coverage calls."""
    return max((abs(v - 0.95) for res in results if res.call.command == "coverage"
                and res.replications >= COVERAGE_BAND_REPS for v in coverage_95(res)),
               default=0.0)


def check_coverage_band(results: list[CallResult]) -> tuple:
    fig2a = next(r for r in results if r.call.config == "fig2a_nc_gaussian_random")
    if fig2a.replications < COVERAGE_BAND_REPS:
        return ("coverage_band_fig2a", None,
                f"R = {fig2a.replications} < {COVERAGE_BAND_REPS}")
    values = coverage_95(fig2a)
    lo, hi = COVERAGE_BAND
    return ("coverage_band_fig2a", bool(values) and all(lo <= v <= hi for v in values),
            f"95% coverage {values} vs [{lo}, {hi}]")


def check_log_roundtrip(root: Path, results: list[CallResult]) -> list[tuple]:
    """The CSV reads back as the in-memory log, and infer matches ipwz_solve.

    Two known defects are outside this check: the CSV drops ``distributions``
    and ``read_log_csv`` takes K from the largest arm it sees. Both belong to
    the lossless log format of ROADMAP item 4.
    """
    import numpy as np
    from banditlab import cli
    from banditlab.estimator import ipwz_solve, read_log_csv
    from banditlab.harness import run_trajectory

    sim, inf = results
    if sim.rc != 0 or inf.rc != 0:
        return [("log_roundtrip", False, "a CLI call failed")]
    config = cli.apply_overrides(cli.load_config(str(root / "configs" / f"{sim.call.config}.json")),
                                 [a for a, prev in zip(sim.argv[1:], sim.argv) if prev == "--set"])
    exp = cli.build_experiment(config)
    mem = run_trajectory(exp.env, exp.policy, exp.target, exp.horizon, exp.seed)
    disk = read_log_csv(sim.out_dir / "log.csv")
    same = {
        "contexts": np.array_equal(mem.contexts, disk.contexts),
        "latents": (mem.latents is None and disk.latents is None)
        or (mem.latents is not None and disk.latents is not None
            and np.array_equal(mem.latents, disk.latents)),
        "arms": np.array_equal(mem.arms, disk.arms),
        "propensities": np.array_equal(mem.propensities, disk.propensities),
        "outcomes": np.array_equal(mem.outcomes, disk.outcomes),
    }
    report = json.loads((inf.out_dir / "report.json").read_text())
    estimates = [np.array(arm["theta"]) for arm in report["arms"]]
    expected = [ipwz_solve(mem, exp.target, a) for a in range(mem.num_arms)]
    equal = len(estimates) == len(expected) and all(
        np.array_equal(e, x) for e, x in zip(estimates, expected))
    return [("log_reads_back_exactly", all(same.values()), str(same)),
            ("infer_equals_ipwz_solve", equal, f"{len(estimates)} arms")]


def outputs_sha256(results: list[CallResult]) -> str:
    """One digest of a pass's outputs, to compare runs of the same seed."""
    return hashlib.sha256("".join(r.digest for r in results).encode()).hexdigest()


def check_digests_agree(name: str, passes: list[list[CallResult]]) -> tuple:
    digests = [outputs_sha256(p) for p in passes]
    return (name, len(set(digests)) == 1, str(digests))


# --- environment -------------------------------------------------------------


def run_environment(root: Path, seed) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    sha = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for f in sorted([*(root / "src").rglob("*.py"), *(root / "configs").glob("*.json")]):
        src.update(f.relative_to(root).as_posix().encode())
        src.update(f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": pkg("numpy"),
        "scipy": pkg("scipy"),
        "git_sha": sha,
        "source_sha256": src.hexdigest(),
        "BANDITLAB_MAX_WORKERS": os.environ.get("BANDITLAB_MAX_WORKERS"),
        "workload_seed": "pinned per config" if seed is None else seed,
    }


# --- the two kinds of run ------------------------------------------------------


def tally(passes: list[list[CallResult]], extra_checks: list[tuple]) -> tuple[int, int, bool]:
    attempted = failed = 0
    for res in (r for p in passes for r in p):
        attempted += res.replications + 1
        failed += res.failed_reps + (0 if res.ok else 1)
    bad = [c for c in extra_checks if c[1] is False]
    failed += len(bad)
    correct = not bad and all(r.ok for p in passes for r in p)
    return attempted, failed, correct


def untraced_run(runner: Runner, wl: Workload, sizes: dict, seed, seconds: float,
                 started: float) -> tuple[dict, list, list, dict]:
    """End-to-end metrics but ``success_ratio``, which ``main`` adds from the tally.

    Times are in seconds at the reference machine speed (``SpeedSampler``);
    the wall-clock figures are kept in ``info``.
    """
    setup: list[float] = []

    def probe():
        if len(setup) < SETUP_PROBES:
            setup.append(probe_setup(runner, wl, sizes, seed))

    passes, measured = [], 0.0
    with SpeedSampler() as speed:
        while True:
            t = time.monotonic()
            results = run_pass(runner, wl, sizes, seed, "run", WORKERS, f"pass{len(passes)}",
                               before_call=probe)
            passes.append(results)
            measured += sum(r.work_s for r in results)
            pass_wall = time.monotonic() - t
            if measured + 0.5 * measured / len(passes) >= seconds:
                break
            if time.monotonic() - started + pass_wall > MAX_RUN_FACTOR * seconds:
                break
        while len(setup) < SETUP_PROBES:
            probe()
    slowdown = speed.slowdown()
    checks = [check_digests_agree("digests_equal_across_passes", passes)]
    checks += workload_checks(runner.root, wl, passes[0])

    calls = [r for p in passes for r in p]
    reps = sum(r.replications for r in calls)
    if wl.calls[0].command == "simulate":
        rows = sum(r.horizon for r in calls)  # written + read
    else:
        rows = sum(r.replications * r.horizon for r in calls)
    work = sum(r.work_s for r in calls)
    setup_wall = statistics.median(setup)
    metrics = {
        "setup_s": setup_wall / slowdown,
        "reps_per_s": reps * slowdown / work if work else 0.0,
        "log_rows_per_s": rows * slowdown / work if work else 0.0,
        "peak_rss_mb": max(max(r.record.get("maxrss_self_kb", 0),
                               r.record.get("maxrss_children_kb", 0)) for r in calls) / 1024.0,
    }
    info = {"passes": len(passes), "measured_wall_s": work,
            "slowdown": slowdown, "speed_samples": len(speed.samples),
            "setup_wall_s": setup_wall,
            "reps_per_wall_s": reps / work if work else 0.0,
            "log_rows_per_wall_s": rows / work if work else 0.0,
            "coverage_gap_95": coverage_gap_95(passes[0]),
            "setup_samples_s": setup}
    return metrics, passes, checks, info


def traced_run(runner: Runner, wl: Workload, sizes: dict, seed) -> tuple:
    parallel = run_pass(runner, wl, sizes, seed, "run", WORKERS, "parallel")
    serial = run_pass(runner, wl, sizes, seed, "run", 1, "serial")
    traced = run_pass(runner, wl, sizes, seed, "trace", 1, "traced")
    passes = [parallel, serial, traced]
    checks = [check_digests_agree("digests_equal_parallel_serial_traced", passes)]
    checks += workload_checks(runner.root, wl, parallel)

    spans = []
    for res in traced:
        npz = Path(res.record["timing_path"]).with_suffix(".npz")
        if res.rc == 0 and npz.exists():
            spans.append((layers.CallSpans(str(npz)), policy_kind(runner.root, res)))
    sim = [r for r in parallel if r.call.command == "simulate" and r.rc == 0]
    bytes_per_row = ((sim[0].out_dir / "log.csv").stat().st_size / sim[0].horizon
                     if sim else 0.0)
    metrics = layers.per_layer_metrics(
        spans,
        serial_work_s=sum(r.work_s for r in serial),
        parallel_work_s=sum(r.work_s for r in parallel),
        serial_wall_s=sum(r.wall_s for r in serial),
        traced_wall_s=sum(r.wall_s for r in traced),
        workers=WORKERS,
        import_s=statistics.median(r.record["import_s"] for p in passes for r in p),
        negative_variance_floored=sum(r.record.get("negative_variance_floored", 0)
                                      for r in traced),
        csv_bytes_per_row=bytes_per_row,
        coverage_gap_95=coverage_gap_95(parallel),
    )
    info = {"spans": sum(len(s.kind) for s, _ in spans)}
    return metrics, passes, checks, info


def policy_kind(root: Path, res: CallResult) -> str:
    kind = json.loads((root / "configs" / f"{res.call.config}.json").read_text())["policy"]["kind"]
    for item in res.call.sets:
        if item.startswith("policy.kind="):
            kind = item.split("=", 1)[1]
    return kind


def workload_checks(root: Path, wl: Workload, results: list[CallResult]) -> list[tuple]:
    if wl is WORKLOADS["panel_vectorized"]:
        return [check_coverage_band(results)]
    if wl is WORKLOADS["log_roundtrip"]:
        return check_log_roundtrip(root, results)
    return []


# --- entry point ---------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed, passed as --set seed=N (default: each config's own)")
    p.add_argument("--seconds", type=float, default=18.0, help="time to measure (untraced)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "banditlab" / "cli.py").is_file() or not (root / "configs").is_dir():
        print("error: run from the root of a banditlab checkout (src/banditlab, configs/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    wl = WORKLOADS[args.workload]
    sizes = {"replications": wl.replications, "horizon": wl.horizon}
    if args.trace:
        sizes.update(wl.traced)
    if args.smoke:
        sizes.update(wl.smoke)
    tag = f"{args.workload}-seed{args.seed if args.seed is not None else 'pinned'}" \
          f"-trace{args.trace}-{os.getpid()}"
    work = root / ".perfbench" / "work" / tag
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work, started + RUN_DEADLINE_S)
    try:
        if args.trace:
            metrics, passes, checks, info = traced_run(runner, wl, sizes, args.seed)
            spec = [(n, u, f"  (predicted to move {moves})")
                    for n, u, _, moves in layers.PER_LAYER]
        else:
            metrics, passes, checks, info = untraced_run(runner, wl, sizes, args.seed,
                                                         args.seconds, started)
            spec = [(n, u, "") for n, u, _, _ in END_TO_END]
        attempted, failed, correct = tally(passes, checks)
        if not args.trace:
            metrics["success_ratio"] = 1.0 - failed / attempted
        environment = run_environment(root, args.seed)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    all_checks = [(f"{r.call.command}:{r.call.config}:{name}", ok, detail)
                  for p in passes for r in p for name, ok, detail in r.checks] + checks
    failures = [{"check": n, "detail": d} for n, ok, d in all_checks if ok is False]
    failures += [{"call": " ".join(r.argv), "failed_replications": r.failed_reps}
                 for p in passes for r in p if r.failed_reps]
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in spec}}
    doc = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke, "environment": environment,
        "result": result, "outputs_sha256": outputs_sha256(passes[0]), "info": info,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in all_checks],
        "failures": failures,
        "calls": [{"argv": r.argv, "rc": r.rc, "setup_s": r.setup_s, "work_s": r.work_s,
                   "replications": r.replications, "failed_replications": r.failed_reps,
                   "sha256": r.digest} for p in passes for r in p],
    }
    results_dir = root / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(doc, indent=2) + "\n")

    for name, ok, detail in all_checks:
        if ok is not True:
            print(f"check {name}: {'skipped' if ok is None else 'FAILED'} {detail}")
    for key, value in info.items():
        if not isinstance(value, list):
            print(f"{key}: {value}")
    for name, unit, note in spec:
        print(f"{name}: {metrics[name]:.6g} {unit}{note}")
    print(f"results: {results_dir / (tag + '.json')}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
